import decimal
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polignac import oracle, packing
from polignac.cli import _build_parser, main, render, run_command
from polignac.sieve import primes_up_to


# One invocation per leaf command: (command words, arguments).
LEAVES = (
    (["bound"], ["--k", "3"]),
    (["check"], ["0", "2", "6"]),
    (["diffs"], ["0", "6", "12"]),
    (["pack", "regular"], ["--k", "3", "--x", "100"]),
    (["pack", "geh"], ["--x", "20", "--strategy", "paper-literal"]),
    (["pack", "exact"], ["--x", "12"]),
    (["upper"], ["--x", "36"]),
    (["census"], ["--x", "20", "--dmax", "6"]),
)


def run_json(argv):
    result = run_command(argv)
    assert result.exit_code == 0, result.payload
    return json.loads(render(result, "json"))


class TestBound:
    def test_k3(self):
        payload = run_json(["bound", "--k", "3"])
        assert payload["value"] == "1/24"
        assert payload["decimal"] == "0.0416667"

    def test_k50_exact(self):
        payload = run_json(["bound", "--k", "50"])
        assert payload["value"] == "1/35462538431226065088930"

    def test_k2_rejected(self):
        assert run_command(["bound", "--k", "2"]).exit_code == 1

    def test_regular_k_domain_pinned(self):
        # The regular family's k range on both commands that build it, not the primorial's [1, 1000].
        for argv in (["bound"], ["pack", "regular", "--x", "100"]):
            for k in ("2", "1001"):
                result = run_command([*argv, "--k", k])
                assert (result.exit_code, result.payload["error"]) == (1, f"k must be in [3, 1000], got {k}")
            assert "--k K in [3, 1000]" in " ".join(run_command([*argv, "-h"]).payload["help"].split())

    def test_decimal_is_the_exact_rounding_below_the_normal_floats(self):
        # Decimal division rounds the exact quotient once, to 6 significant digits.
        context = decimal.Context(prec=6, rounding=decimal.ROUND_HALF_EVEN)
        for k in range(3, 1001):
            value = packing.lower_bound_density(k)
            shown = run_json(["bound", "--k", str(k)])["decimal"]
            exact = context.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
            assert decimal.Decimal(shown).as_tuple() == exact.normalize().as_tuple(), k
            if k <= 750:
                assert shown == f"{float(value):.6g}", k
        assert run_json(["bound", "--k", "1000"])["decimal"] == "1.025e-424"

    def test_k_capped_at_1000(self):
        assert run_json(["bound", "--k", "1000"])["k"] == 1000
        for argv in (["bound", "--k", "1000000000"], ["pack", "regular", "--k", "1001", "--x", "10"]):
            start = time.perf_counter()
            result = run_command(argv)
            assert result.exit_code == 1
            assert "1000" in result.payload["error"]
            assert time.perf_counter() - start < 0.1


class TestCheckAndDiffs:
    def test_check_admissible(self):
        payload = run_json(["check", "0", "2", "6"])
        assert payload["admissible"] is True

    def test_check_inadmissible(self):
        assert run_json(["check", "0", "2", "4"])["admissible"] is False

    def test_diffs(self):
        cases = (
            (["0", "6", "12"], [6, 12], 12),
            (["0", "2", "6"], [2, 4, 6], 6),
            (["0"], [], 0),
        )
        for offsets, values, span in cases:
            payload = run_json(["diffs", *offsets])
            assert payload["values"] == values
            assert payload["span"] == span

    def test_diffs_offsets_capped_at_1000(self):
        offsets = [str(h) for h in range(0, 60000, 2)]
        assert len(run_json(["diffs", *offsets[:1000]])["values"]) == 999
        for command in ("check", "diffs"):
            start = time.perf_counter()
            result = run_command([command, *offsets])
            assert result.exit_code == 1
            assert "1000" in result.payload["error"]
            assert time.perf_counter() - start < 1.0

    def test_check_bound_at_its_edge(self):
        # No offset is 0 mod any prime p <= 1001, so every prefix is admissible.
        offsets = [str(p) for p in primes_up_to(10000) if p > 1001][:1001]
        assert run_json(["check", *offsets[:1000]])["admissible"] is True
        start = time.perf_counter()
        result = run_command(["check", *offsets])
        assert result.exit_code == 1
        assert result.payload["error"] == "a pattern has at most 1000 offsets, got 1001"
        assert time.perf_counter() - start < 1.0

    def test_span_over_the_int_to_str_limit_refused(self, capsys):
        # normalize translates -N to 0, so N = 4300 nines would render as a 4301-digit offset.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            nines = "9" * 4300
            for command in ("check", "diffs"):
                start = time.perf_counter()
                assert main([command, "--", f"-{nines}", nines]) == 1
                assert time.perf_counter() - start < 0.1
                captured = capsys.readouterr()
                assert (captured.out, captured.err) == ("", "a pattern's span has at most 4300 digits, int-to-str's limit\n")
                for fmt in ("json", "csv", "text"):
                    assert main([command, "0", nines, "--format", fmt]) == 0
                    assert nines in capsys.readouterr().out
        finally:
            sys.set_int_max_str_digits(saved)

    def test_check_help_states_its_bound(self):
        assert "at most 1000 offsets" in run_command(["check", "-h"]).payload["help"]


class TestPack:
    def test_regular(self):
        payload = run_json(["pack", "regular", "--k", "3", "--x", "100"])
        assert payload["count"] == 5
        assert [m["label"] for m in payload["members"]] == [
            "n=1", "n=3", "n=4", "n=5", "n=7",
        ]
        assert payload["density"] == "1/20"

    def test_geh_literal(self):
        payload = run_json(["pack", "geh", "--x", "20", "--strategy", "paper-literal"])
        assert payload["count"] == 2
        assert payload["members"][0]["values"] == [2, 18, 20]

    def test_geh_extended_default(self):
        assert run_json(["pack", "geh", "--x", "20"])["count"] == 3

    def test_payload_members_are_the_certificates(self):
        members = run_command(["pack", "geh", "--x", "20"]).payload["members"]
        assert members == packing.geh_family(20).members
        assert all(type(label) is str and type(values) is frozenset for label, values in members)

    def test_constructions_refuse_over_candidate_limit_fast(self):
        for argv in (["pack", "geh", "--x", "10000000000"], ["pack", "regular", "--k", "3", "--x", "10000000000"]):
            start = time.perf_counter()
            result = run_command(argv)
            assert result.exit_code == 1
            assert str(packing.CONSTRUCTION_MAX_CANDIDATES) in result.payload["error"]
            assert time.perf_counter() - start < 0.1

    def test_largest_benchmark_constructions_accepted(self):
        for argv, raw_count in (
            (["pack", "geh", "--x", "100000"], 16666),
            (["pack", "regular", "--k", "3", "--x", "1000000"], 83333),
            (["pack", "regular", "--k", "5", "--x", "10000000"], 83333),
        ):
            result = run_command(argv)
            assert result.exit_code == 0
            assert result.payload["raw_count"] == raw_count

    def test_exact(self):
        payload = run_json(["pack", "exact", "--x", "12"])
        assert payload["count"] == 1
        assert payload["raw_count"] == 6

    def test_exact_refuses_large_x_fast(self):
        for x in ("324", "4000", "1000000000000"):
            start = time.perf_counter()
            result = run_command(["pack", "exact", "--x", x])
            assert (result.exit_code, result.payload["error"]) == (1, f"x must be in [1, 323], got {x}")
            assert time.perf_counter() - start < 0.1

    def test_exact_help_states_its_bound(self):
        text = " ".join(run_command(["pack", "exact", "-h"]).payload["help"].split())
        assert f"--x X at most {oracle.EXACT_MAX_X}" in text
        assert "every even x up to 322 took at most" in text
        assert "an odd x takes as long as x - 1" in text

    def test_exact_suboptimal_solver_answer_exits_2(self, capsys, monkeypatch):
        # One disjoint member is a valid family in bounds, but geh has 7 at x = 48
        # and the integer program is asked for 8.
        def one_member(**kwargs):
            vector = np.zeros(len(kwargs["c"]))
            vector[0] = 1
            return SimpleNamespace(status=0, success=True, x=vector)

        monkeypatch.setattr(oracle, "milp", one_member)
        assert main(["pack", "exact", "--x", "48", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "family of at least 8 members" in captured.err


class TestUpper:
    def test_trivial(self):
        assert run_json(["upper", "--k", "3"])["value"] == "1/4"

    def test_k3_finite(self):
        assert run_json(["upper", "--x", "36"]) == {"command": "upper", "x": 36, "count": 7}

    def test_k_outside_domain_refused_fast(self):
        # 2(k-1) of a 4300-digit k is over int-to-str's limit, so it must be refused, not rendered.
        for k in ("1", "1001", "9" * 4300):
            start = time.perf_counter()
            result = run_command(["upper", "--k", k])
            assert (result.exit_code, result.payload["error"]) == (1, f"k must be in [2, 1000], got {k}")
            assert time.perf_counter() - start < 0.1
        assert run_json(["upper", "--k", "1000"])["value"] == "1/1998"
        assert "k in [2, 1000]" in " ".join(run_command(["upper", "-h"]).payload["help"].split())

    def test_missing_arguments(self):
        result = run_command(["upper"])
        assert (result.exit_code, result.payload["error"]) == (1, "one of the arguments --k --x is required")

    def test_unused_option_refused(self):
        for argv, error in (
            (["upper", "--k", "3", "--x", "36"], "argument --x: not allowed with argument --k"),
            (["upper", "--x", "36", "--k", "3"], "argument --k: not allowed with argument --x"),
            (["upper", "--k3-finite", "--x", "36"], "unrecognized arguments: --k3-finite"),
        ):
            result = run_command(argv)
            assert (result.exit_code, result.payload["error"]) == (1, error)


class TestCensus:
    def test_counts(self):
        payload = run_json(["census", "--x", "20", "--dmax", "6"])
        assert payload["counts"] == {"2": 4, "4": 3, "6": 4}

    def test_bad_dmax(self):
        assert run_command(["census", "--x", "20", "--dmax", "5"]).exit_code == 1

    def test_dmax_capped(self):
        assert len(run_json(["census", "--x", "1000", "--dmax", "1000"])["counts"]) == 500
        start = time.perf_counter()
        result = run_command(["census", "--x", "1000", "--dmax", "1000000000"])
        assert result.exit_code == 1
        assert "1000" in result.payload["error"]
        assert time.perf_counter() - start < 0.1


class TestPlumbing:
    def test_unknown_command(self):
        result = run_command(["frobnicate"])
        assert result.exit_code == 1
        assert result.payload.keys() == {"error"}

    def test_unknown_flag(self):
        assert run_command(["bound", "--q", "3"]).exit_code == 1

    def test_byte_identical_reruns(self):
        first = render(run_command(["pack", "geh", "--x", "100"]), "json")
        second = render(run_command(["pack", "geh", "--x", "100"]), "json")
        assert first == second

    def test_csv_members(self):
        result = run_command(["pack", "regular", "--k", "3", "--x", "100"])
        lines = render(result, "csv").splitlines()
        assert lines[0] == "label,values,span"
        assert lines[1] == "n=1,6;12,12"
        assert len(lines) == 6

    def test_text_render(self):
        text = render(run_command(["bound", "--k", "3"]), "text")
        assert "value: 1/24" in text

    def test_main_exit_codes(self, capsys):
        assert main(["bound", "--k", "3", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["value"] == "1/24"
        assert main(["bound", "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    def test_help_returns_instead_of_exiting(self, capsys):
        for argv, usage in (
            (["--help"], _build_parser().format_help()),
            (["pack", "exact", "-h"], "usage: polignac pack exact "),
        ):
            result = run_command(argv)
            assert result.exit_code == 0
            assert capsys.readouterr().out == ""
            assert result.payload.keys() == {"help"}
            assert result.payload["help"].startswith(usage)
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == result.payload["help"]
            assert out.count("usage:") == 1

    def test_shared_parser_keeps_no_state_between_calls(self):
        sequence = [
            ["-h"],
            ["pack", "geh"],  # usage error: --x is required
            ["census", "--x", "1000", "--dmax", "10"],
            ["pack", "geh", "--x", "40", "--format", "csv"],
            ["--format", "json", "bound", "--k", "3"],
            ["census", "--x", "100", "--dmax", "4"],
        ]
        first = [run_command(argv) for argv in sequence]
        assert [r.exit_code for r in first] == [0, 1, 0, 0, 0, 0]
        assert [r.fmt for r in first] == ["text", "text", "text", "csv", "json", "text"]
        assert [run_command(argv) for argv in sequence] == first
        assert _build_parser() is _build_parser()

    def test_format_position_independent(self, capsys):
        for leaf, args in (*LEAVES, (["upper"], ["--k", "3"])):
            assert main(["--format", "json", *leaf, *args]) == 0
            before = capsys.readouterr().out
            assert main([*leaf, *args, "--format", "json"]) == 0
            after = capsys.readouterr().out
            assert before == after
            assert json.loads(before)["command"] == " ".join(leaf)

    def test_every_leaf_usage_ends_options_with_format(self):
        # argparse lists positionals (check and diffs offsets) after every option.
        for leaf, _ in LEAVES:
            text = run_command([*leaf, "-h"]).payload["help"]
            usage = " ".join(text.split("\n\n")[0].split())
            assert usage.startswith(f"usage: polignac {' '.join(leaf)} [-h] ")
            _, found, positionals = usage.partition(" [--format {json,csv,text}]")
            assert found and "-" not in positionals

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(packing, "is_admissible", lambda pattern: False)
        assert run_command(["pack", "geh", "--x", "20"]).exit_code == 2
        assert main(["pack", "geh", "--x", "20", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not admissible" in captured.err


class TestTextAndCsvRendering:
    """Certificate text and CSV pinned byte for byte; the renderers sort each member's values."""

    @pytest.mark.parametrize(
        "argv, fmt, expected",
        [
            (
                "pack geh --x 20 --strategy paper-literal",
                "text",
                "command: pack geh\nk: 3\nx: 20\ncount: 2\nraw_count: 2\ndensity: 1/10\ndecimal: 0.1\n"
                "members (2):\n  n=1: {2,18,20} span=20\n  n=2: {4,12,16} span=16",
            ),
            ("pack geh --x 20 --strategy paper-literal", "csv", "label,values,span\nn=1,2;18;20,20\nn=2,4;12;16,16"),
            (
                "pack exact --x 12",
                "text",
                "command: pack exact\nk: 3\nx: 12\ncount: 1\nraw_count: 6\ndensity: 1/12\ndecimal: 0.0833333\n"
                "members (1):\n  #0: {2,4,6} span=6",
            ),
            ("pack exact --x 12", "csv", "label,values,span\n#0,2;4;6,6"),
            (
                "pack regular --k 6 --x 100",
                "text",
                "command: pack regular\nk: 6\nx: 100\ncount: 0\nraw_count: 0\ndensity: 0/1\ndecimal: 0\nmembers (0):",
            ),
            ("pack regular --k 6 --x 100", "csv", "label,values,span"),
        ],
    )
    def test_certificate_bytes(self, argv, fmt, expected):
        assert render(run_command(argv.split()), fmt) == expected


class TestJsonRendering:
    """render(..., "json") splices members from a template; its bytes must stay json.dumps(indent=2)'s
    of the payload with each member laid out as {"label", "values" ascending, "span"}."""

    def assert_stdlib_bytes(self, argv):
        result = run_command(argv)
        payload = dict(result.payload)
        if "members" in payload:
            payload["members"] = [
                {"label": label, "values": sorted(values), "span": max(values)} for label, values in payload["members"]
            ]
        rendered, expected = render(result, "json"), json.dumps(payload, indent=2)
        if rendered != expected:  # not a bare assert: pytest would diff megabytes of text
            at = len(os.path.commonprefix([rendered, expected]))
            pytest.fail(f"{argv} differs from json.dumps at byte {at}: {rendered[max(at - 40, 0):at + 40]!r}")
        return result

    def test_geh_at_every_small_x(self):
        for x in range(201):
            for strategy in ("extended", "paper-literal"):
                self.assert_stdlib_bytes(["pack", "geh", "--x", str(x), "--strategy", strategy])

    def test_regular_including_no_members(self):
        for k in range(3, 7):
            for x in (1, 100, 1000, 20000):
                self.assert_stdlib_bytes(["pack", "regular", "--k", str(k), "--x", str(x)])
        assert self.assert_stdlib_bytes(["pack", "regular", "--k", "6", "--x", "100"]).payload["members"] == ()

    def test_exact_at_every_small_x(self):
        for x in range(41):
            self.assert_stdlib_bytes(["pack", "exact", "--x", str(x)])

    def test_large_certificate(self):
        result = self.assert_stdlib_bytes(["pack", "regular", "--k", "3", "--x", "1000000"])
        assert result.payload["count"] > 50000

    def test_payloads_without_members(self):
        for leaf, args in LEAVES:
            if leaf[0] != "pack":
                self.assert_stdlib_bytes([*leaf, *args])
        self.assert_stdlib_bytes(["upper", "--k", "3"])
        assert "help" in self.assert_stdlib_bytes(["--help"]).payload
        assert "error" in self.assert_stdlib_bytes(["pack", "geh", "--x", "-1"]).payload


class TestImports:
    def loaded(self, code):
        """Names in sys.modules of a fresh interpreter after running ``code``."""
        code += "\nimport sys; print(' '.join(sys.modules))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        return set(out.split())

    def imported(self, *modules):
        """Names in sys.modules of a fresh interpreter after importing ``modules``."""
        return self.loaded(f"import {', '.join(modules)}")

    def test_construction_modules_load_neither_numpy_nor_scipy(self):
        loaded = self.imported("polignac.sieve", "polignac.admissible", "polignac.packing")
        assert {"polignac.sieve", "polignac.admissible", "polignac.packing"} <= loaded
        assert not {"numpy", "scipy", "polignac.oracle"} & loaded

    def test_cli_loads_the_oracle(self):
        # The benchmark tracer looks the oracle up in sys.modules after importing only the CLI.
        assert "polignac.oracle" in self.imported("polignac.cli")

    def test_cli_defers_numpy_and_scipy_optimize_to_the_first_solve(self):
        runs = [([*leaf, *args], 0) for leaf, args in LEAVES if leaf != ["pack", "exact"]]
        runs += [(["upper", "--k", "3"], 0), (["--help"], 0), (["pack", "exact", "--x", "324"], 1)]
        code = "import polignac.cli\n" + "".join(
            f"assert polignac.cli.run_command({argv!r}).exit_code == {status}\n" for argv, status in runs)
        assert not {"numpy", "scipy.optimize"} & self.loaded(code)
        exact = code + "assert polignac.cli.run_command(['pack', 'exact', '--x', '24']).exit_code == 0"
        assert {"numpy", "scipy.optimize"} <= self.loaded(exact)
