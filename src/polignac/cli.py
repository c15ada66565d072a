"""Command-line surface with machine-readable JSON/CSV output.

Exit codes: 0 success, 1 input or usage error, 2 violated internal
invariant. Rationals are emitted exactly as "p/q" strings; decimal
renderings are 6 significant digits and advisory only. JSON output is
json.dumps(payload, indent=2), with each certificate member laid out as
{"label", "values" ascending, "span"} and rendered from one template.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import admissible, oracle, packing, sieve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2


class _HelpRequested(Exception):
    """Raised by -h/--help with the help text, in place of printing it and exiting."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that raises instead of printing help or calling sys.exit."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)

    def print_help(self, file=None) -> None:  # type: ignore[override]
        raise _HelpRequested(self.format_help())


@dataclass(frozen=True)
class CommandResult:
    payload: dict
    exit_code: int
    fmt: str = "text"


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _decimal(value: Fraction) -> str:
    """A density >= 0 to 6 significant digits, as ``.6g`` renders it."""
    approx = float(value)
    if value == 0 or approx >= sys.float_info.min:
        return f"{approx:.6g}"
    # Below the normal floats too few bits (or none) are left: round the Fraction itself.
    exponent = len(str(value.numerator)) - len(str(value.denominator))
    if value < Fraction(10) ** exponent:
        exponent -= 1
    digits = round(value / Fraction(10) ** (exponent - 5))
    if digits == 10**6:
        digits, exponent = 10**5, exponent + 1
    mantissa = f"{digits // 10**5}.{digits % 10**5:05d}".rstrip("0").rstrip(".")
    return f"{mantissa}e{exponent:+03d}"


def _certificate_payload(cert: packing.PackingCertificate) -> dict:
    cert.validate()
    return {
        "k": cert.k,
        "x": cert.x,
        "count": cert.count,
        "raw_count": cert.raw_count,
        "density": _rational(cert.density),
        "decimal": _decimal(cert.density),
        "members": cert.members,
    }


def _density_payload(k: int, value: Fraction) -> dict:
    return {
        "k": k,
        "value": _rational(value),
        "decimal": _decimal(value),
    }


def _bound(args: argparse.Namespace) -> dict:
    return _density_payload(args.k, packing.lower_bound_density(args.k))


def _check(args: argparse.Namespace) -> dict:
    pattern = admissible.normalize(args.offsets)
    return {
        "offsets": list(pattern),
        "admissible": admissible.is_admissible(pattern),
    }


def _diffs(args: argparse.Namespace) -> dict:
    pattern = admissible.normalize(args.offsets)
    ds = admissible.difference_set(pattern)
    return {
        "offsets": list(pattern),
        "values": sorted(ds),
        "span": max(ds, default=0),
    }


def _pack_regular(args: argparse.Namespace) -> dict:
    return _certificate_payload(packing.greedy_regular_packing(args.k, args.x))


def _pack_geh(args: argparse.Namespace) -> dict:
    return _certificate_payload(packing.geh_family(args.x, args.strategy))


def _pack_exact(args: argparse.Namespace) -> dict:
    return _certificate_payload(oracle.max_disjoint_packing(args.x))


def _upper(args: argparse.Namespace) -> dict:
    if args.x is not None:
        return {"x": args.x, "count": packing.k3_finite_upper_bound(args.x)}
    return _density_payload(args.k, packing.trivial_upper_bound_density(args.k))


def _census(args: argparse.Namespace) -> dict:
    report = sieve.prime_pair_census(args.x, args.dmax)
    return {
        "x": report.x,
        "dmax": report.dmax,
        "counts": {str(d): c for d, c in report.counts.items()},
    }


@functools.cache
def _build_parser() -> _Parser:
    """Each leaf subparser carries its handler as the ``run`` default and
    its usage path below ``polignac`` (``"pack geh"``) as the ``name`` default.

    Built once and shared: parsing returns a new namespace and leaves no
    state on the parser, and help and errors raise instead of printing.
    """
    parser = _Parser(prog="polignac", description=__doc__)
    parser.add_argument("--format", choices=FORMATS, default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="guaranteed packing density lower bound for size k")
    p.add_argument("--k", type=int, required=True, help=f"in [3, {sieve.PRIMORIAL_MAX_K}]")
    p.set_defaults(run=_bound)

    p = sub.add_parser("check", help="decide admissibility of an offset pattern")
    p.add_argument("offsets", type=int, nargs="+", help=f"at most {sieve.PRIMORIAL_MAX_K} offsets")
    p.set_defaults(run=_check)

    p = sub.add_parser("diffs", help="difference set of an offset pattern")
    p.add_argument("offsets", type=int, nargs="+", help=f"at most {sieve.PRIMORIAL_MAX_K} offsets")
    p.set_defaults(run=_diffs)

    p = sub.add_parser("pack", help="construct a disjoint packing certificate")
    pack_sub = p.add_subparsers(dest="pack_command", required=True)
    cap = packing.CONSTRUCTION_MAX_CANDIDATES
    q = pack_sub.add_parser("regular", help="first-fit greedy over regular sets")
    q.add_argument("--k", type=int, required=True, help=f"in [3, {sieve.PRIMORIAL_MAX_K}]")
    q.add_argument("--x", type=int, required=True, help=f"refused when x // ((k-1) P(k)) exceeds {cap}")
    q.set_defaults(run=_pack_regular)
    q = pack_sub.add_parser("geh", help="size-3 construction from multiples of 6")
    q.add_argument("--x", type=int, required=True, help=f"refused when (x-2) // 6 exceeds {cap}")
    q.add_argument("--strategy", choices=packing.GEH_STRATEGIES, default=packing.EXTENDED)
    q.set_defaults(run=_pack_geh)
    q = pack_sub.add_parser(
        "exact",
        help="exhaustive maximum packing (k = 3)",
        description="The optimum is proven in closed form and met by the geh family, except when"
        " x mod 6 is 0 or 1 and m = x // 6 is 0 or 1 mod 4, where it is m, one more; there an"
        " integer program alone finds a family of m members, since one exists. Every decision"
        " of the lexicographic extraction asks whether a disjoint family of at least a target"
        " size exists: an exact LP dual bound can say no. At the cap m, a depth-first"
        " search for a family holding every value the cap's proof requires comes next: a"
        " checked cover says yes, an exhausted search says no, and after a fixed number of"
        " nodes it passes the question on. Then a checked LP or integer-program family says"
        " yes, and only an integer program's 'infeasible' is taken from the solver on trust."
        " Solve time grows with x but not monotonically: x = 132 takes about 1 s, and every"
        " even x up to 322 took at most 35 s (x = 276), the worst of 322 fresh-process readings"
        " (two per even x, one process at a time) on a 2-vCPU VM, not a bound; an odd x takes"
        " as long as x - 1.",
    )
    q.add_argument("--x", type=int, required=True, help=f"at most {oracle.EXACT_MAX_X}")
    q.set_defaults(run=_pack_exact)

    p = sub.add_parser("upper", help="packing density upper bounds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help=f"trivial density cap 1/(2(k-1)) on admissible difference sets, k in [2, {sieve.PRIMORIAL_MAX_K}]")
    group.add_argument("--x", type=int, help="cap on a disjoint family of admissible size-3 difference sets in [1, x]")
    p.set_defaults(run=_upper)

    p = sub.add_parser(
        "census",
        help="prime-pair gap census up to x",
        description="Sieves only 6i + 1 and 6i + 5 and counts each gap on two x/6-bit masks."
        " At the caps (x = 1e8, dmax = 1000) a census takes 1.5-1.9 s and 81 MB peak RSS,"
        " measured in five fresh processes on a 2-vCPU VM.",
    )
    p.add_argument("--x", type=int, required=True, help=f"at most {sieve.CENSUS_MAX_X}")
    p.add_argument("--dmax", type=int, required=True, help=f"even, at most {sieve.CENSUS_MAX_DMAX}")
    p.set_defaults(run=_census)

    for leaf in (*sub.choices.values(), *pack_sub.choices.values()):
        if leaf.get_default("run"):
            leaf.set_defaults(name=leaf.prog.removeprefix(f"{parser.prog} "))
            # Added last, so it is the last option in every usage line; SUPPRESS
            # so a --format given before the subcommand is not clobbered.
            leaf.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
    return parser


# One certificate member as json.dumps(..., indent=2) lays it out in "members".
_MEMBER_JSON = '    {\n      "label": %s,\n      "values": [\n        %s\n      ],\n      "span": %d\n    }'


def _render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, each member laid out as
    ``{"label", "values" ascending, "span"}``.

    With ``indent`` set, the standard library encodes in pure Python, one
    generator step per token. So a certificate's members, its last key, are
    filled into ``_MEMBER_JSON`` one string each; all else goes through
    ``json.dumps``.
    """
    members = payload.get("members")
    if not members:
        return json.dumps(payload, indent=2)
    head = json.dumps({key: value for key, value in payload.items() if key != "members"}, indent=2)
    body = ",\n".join(
        _MEMBER_JSON % (json.dumps(label), ",\n        ".join(map(str, sorted(values))), max(values))
        for label, values in members
    )
    return f'{head[:-2]},\n  "members": [\n{body}\n  ]\n}}'


def _render_text(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if key == "members":
            lines.append(f"members ({len(value)}):")
            for label, values in value:
                joined = ",".join(map(str, sorted(values)))
                lines.append(f"  {label}: {{{joined}}} span={max(values)}")
        elif key == "help":
            lines.append(value.rstrip("\n"))
        elif key == "counts":
            for d, c in value.items():
                lines.append(f"d={d}: {c}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "members" in payload:
        writer.writerow(["label", "values", "span"])
        for label, values in payload["members"]:
            writer.writerow([label, ";".join(map(str, sorted(values))), max(values)])
    elif "counts" in payload:
        writer.writerow(["d", "count"])
        for d, c in payload["counts"].items():
            writer.writerow([d, c])
    else:
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            writer.writerow([key, value])
    return buf.getvalue().rstrip("\n")


_RENDERERS = {"json": _render_json, "csv": _render_csv, "text": _render_text}
FORMATS = tuple(_RENDERERS)


def run_command(argv: list[str]) -> CommandResult:
    """Parse and execute one invocation; never raises, never exits."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = {"command": args.name, **args.run(args)}
    except _HelpRequested as exc:
        return CommandResult({"help": str(exc)}, EXIT_OK)
    except ValueError as exc:
        return CommandResult({"error": str(exc)}, EXIT_USAGE)
    except packing.InvariantViolation as exc:
        return CommandResult({"error": str(exc)}, EXIT_INVARIANT)
    return CommandResult(payload, EXIT_OK, args.format)


def render(result: CommandResult, fmt: str) -> str:
    return _RENDERERS[fmt](result.payload)


def main(argv: list[str] | None = None) -> int:
    result = run_command(list(sys.argv[1:] if argv is None else argv))
    if result.exit_code != EXIT_OK:
        print(result.payload.get("error", "error"), file=sys.stderr)
        return result.exit_code
    print(render(result, result.fmt))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
