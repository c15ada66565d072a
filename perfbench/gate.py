"""Correctness gate for one operation's rendered JSON.

Two independent checks. The sha256 of the rendered bytes is compared with a
committed reference when the reference holds the same argv. The certificate
or census is then re-checked from the JSON alone, without
``PackingCertificate.validate``: members are pairwise disjoint and lie in
[1, x], the density is count/x as an exact reduced p/q, counts respect the
paper's floor and cap, and census counts match a separate numpy recount.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import isqrt

import numpy as np
from polignac import packing


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def census_counts(x: int, dmax: int) -> dict[str, int]:
    """Prime pairs p < q <= x with q - p = d, for each even d <= dmax."""
    is_prime = np.ones(x + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, isqrt(x) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return {
        str(d): int(np.count_nonzero(is_prime[: x + 1 - d] & is_prime[d:]))
        for d in range(2, dmax + 1, 2)
    }


class Gate:
    """Checks operations against ``reference`` (argv joined by spaces -> sha256)."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self._geh_counts: dict[int, int] = {}

    def check(self, argv: list[str], exit_code: int, text: str) -> tuple[str, str, list[str]]:
        """Return (sha256, reference status, problems); no problems means correct."""
        sha = digest(text)
        expected = self.reference.get(" ".join(argv))
        status = "absent" if expected is None else ("match" if expected == sha else "mismatch")
        problems = [] if status != "mismatch" else ["rendered JSON differs from the reference digest"]
        if exit_code != 0:
            return sha, status, problems + [f"exit code {exit_code}: {text[-500:]}"]
        try:
            payload = json.loads(text)
            if argv[0] == "census":
                problems += self._census_problems(argv, payload)
            else:
                problems += self._certificate_problems(argv, payload)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return sha, status, problems

    def geh_count(self, x: int) -> int:
        if x not in self._geh_counts:
            self._geh_counts[x] = packing.geh_family(x).count
        return self._geh_counts[x]

    def _census_problems(self, argv: list[str], payload: dict) -> list[str]:
        x, dmax = int(_option(argv, "--x")), int(_option(argv, "--dmax"))
        problems = []
        if (payload["x"], payload["dmax"]) != (x, dmax):
            problems.append("census echoes the wrong x or dmax")
        if payload["counts"] != census_counts(x, dmax):
            problems.append("census counts differ from an independent recount")
        return problems

    def _certificate_problems(self, argv: list[str], payload: dict) -> list[str]:
        construction = argv[1]
        x = int(_option(argv, "--x"))
        k = int(_option(argv, "--k", "3"))
        count, members = payload["count"], payload["members"]
        problems = []
        if payload["command"] != f"pack {construction}" or (payload["k"], payload["x"]) != (k, x):
            problems.append("certificate echoes the wrong command, k or x")
        if count != len(members):
            problems.append(f"count {count} != {len(members)} members")
        covered: set[int] = set()
        total = 0
        for member in members:
            values = member["values"]
            if not values or min(values) < 1 or max(values) > x:
                problems.append(f"member {member['label']} not inside [1, {x}]")
                break
            if member["span"] != max(values):
                problems.append(f"member {member['label']} has the wrong span")
                break
            covered.update(values)
            total += len(values)
        if total != len(covered):
            problems.append("members are not pairwise disjoint")
        exact_density = Fraction(count, x)
        if payload["density"] != f"{exact_density.numerator}/{exact_density.denominator}":
            problems.append(f"density {payload['density']} != {count}/{x} in lowest terms")
        if construction == "regular" and count < packing.greedy_counting_floor(k, x):
            problems.append("greedy count below the counting floor")
        if k == 3 and count > packing.k3_finite_upper_bound(x):
            problems.append("size-3 count above the finite upper bound")
        if construction == "exact" and count < self.geh_count(x):
            problems.append("exact optimum below the geh construction")
        return problems
