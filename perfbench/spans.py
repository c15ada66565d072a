"""Span recorder for the traced benchmark run.

While one operation runs under ``Tracer.installed``, the public functions
below are replaced by recording wrappers in every ``polignac`` module
namespace that binds them, so calls are caught where they are made (for
example ``polignac.packing.is_admissible``). The originals are put back
when the operation ends. No source file is touched.

Spans (name, start, end, parent span, operation id) stay in memory in flat
arrays and are written out once by ``write_spans``.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

Hook = Callable[[object], tuple[tuple[str, int], ...]]


def _certificate(cert) -> tuple[tuple[str, int], ...]:
    return (("kept", cert.count), ("raw", cert.raw_count))


# (span name, defining module, attribute, counters taken from the return value)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("cli.run_command", "polignac.cli", "run_command", None),
    ("cli.render", "polignac.cli", "render", lambda text: (("bytes", len(text)),)),
    ("sieve.primes_up_to", "polignac.sieve", "primes_up_to", None),
    (
        "sieve.prime_pair_census",
        "polignac.sieve",
        "prime_pair_census",
        lambda report: (("pairs", sum(report.counts.values())),),
    ),
    (
        "admissible.is_admissible",
        "polignac.admissible",
        "is_admissible",
        lambda ok: (("accepted", int(ok)),),
    ),
    ("packing.greedy_regular_packing", "polignac.packing", "greedy_regular_packing", _certificate),
    ("packing.geh_family", "polignac.packing", "geh_family", _certificate),
    ("packing.geh_assignment", "polignac.packing", "geh_assignment", None),
    ("packing.validate", "polignac.packing", "PackingCertificate.validate", None),
    (
        "oracle.enumerate_admissible_diffsets",
        "polignac.oracle",
        "enumerate_admissible_diffsets",
        lambda instance: (("candidates", len(instance.candidates)),),
    ),
    (
        "oracle.max_disjoint_packing",
        "polignac.oracle",
        "max_disjoint_packing",
        lambda cert: (("members", cert.count),),
    ),
    ("oracle.milp", "polignac.oracle", "milp", None),
)

# Per-layer metrics: (name, unit). Times and counts are means per operation.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("sieve.primes_up_to.calls", "calls/op"),
    ("sieve.primes_up_to.self_s", "s/op"),
    ("sieve.prime_pair_census.self_s", "s/op"),
    ("sieve.prime_pair_census.pairs", "count/op"),
    ("admissible.is_admissible.calls", "calls/op"),
    ("admissible.is_admissible.self_s", "s/op"),
    ("admissible.is_admissible.accept_ratio", "ratio"),
    ("packing.greedy_regular_packing.self_s", "s/op"),
    ("packing.greedy_regular_packing.kept_ratio", "ratio"),
    ("packing.geh_family.self_s", "s/op"),
    ("packing.geh_family.kept_ratio", "ratio"),
    ("packing.geh_assignment.self_s", "s/op"),
    ("packing.validate.self_s", "s/op"),
    ("oracle.enumerate_admissible_diffsets.self_s", "s/op"),
    ("oracle.candidates", "count/op"),
    ("oracle.max_disjoint_packing.self_s", "s/op"),
    ("oracle.milp.calls", "calls/op"),
    ("oracle.milp.s", "s/op"),
    ("oracle.milp.calls_per_member", "ratio"),
    ("cli.run_command.self_s", "s/op"),
    ("cli.render.self_s", "s/op"),
    ("cli.render.bytes", "B/op"),
    ("trace.overhead_s", "s/op"),
)


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer never ran on this workload."""
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of the TARGETS calls made while ``installed``."""

    def __init__(self) -> None:
        self.names = [name for name, *_ in TARGETS]
        self.name_id = array("B")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        for idx, (name, module, attr, hook) in enumerate(TARGETS):
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, original, hook)
            if path:  # a method: patch its class
                self._patches.append((owner, leaf, original, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "polignac" or mod_name.startswith("polignac."):
                    for binding, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, binding, original, wrapper))

    def _wrap(self, idx: int, fn: Callable, hook: Hook | None) -> Callable:
        counts = self.counts
        prefix = self.names[idx] + "."

        def wrapper(*args, **kwargs):
            sid = len(self.end)
            self.name_id.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op_id)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                for key, amount in hook(result):
                    counts[prefix + key] += amount
            return result

        return wrapper

    @contextmanager
    def installed(self, op_id: int) -> Iterator[None]:
        """Record spans for operation ``op_id``; restore every original afterwards."""
        self._op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: calls, total duration (ns) and self time (ns).

        Self time is a span's duration minus the durations of its direct
        children. One thread runs every span, so children never overlap.
        """
        n = len(self.end)
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return calls, total, own

    def layer_metrics(self, ops: int, overhead_s: float) -> dict[str, float]:
        """Every LAYER_METRICS value, per operation over ``ops`` traced operations."""
        calls, total, own = self.self_times()
        c = self.counts
        values: dict[str, float] = {}
        for name in self.names:
            values[f"{name}.calls"] = calls[name] / ops
            values[f"{name}.self_s"] = own[name] / 1e9 / ops
        values.update(
            {
                "sieve.prime_pair_census.pairs": c["sieve.prime_pair_census.pairs"] / ops,
                "admissible.is_admissible.accept_ratio": _ratio(
                    c["admissible.is_admissible.accepted"], calls["admissible.is_admissible"]
                ),
                "packing.greedy_regular_packing.kept_ratio": _ratio(
                    c["packing.greedy_regular_packing.kept"], c["packing.greedy_regular_packing.raw"]
                ),
                "packing.geh_family.kept_ratio": _ratio(
                    c["packing.geh_family.kept"], c["packing.geh_family.raw"]
                ),
                "oracle.candidates": c["oracle.enumerate_admissible_diffsets.candidates"] / ops,
                "oracle.milp.s": total["oracle.milp"] / 1e9 / ops,
                "oracle.milp.calls_per_member": _ratio(
                    calls["oracle.milp"], c["oracle.max_disjoint_packing.members"]
                ),
                "cli.render.bytes": c["cli.render.bytes"] / ops,
                "trace.overhead_s": overhead_s / ops,
            }
        )
        return {name: values[name] for name, _ in LAYER_METRICS}

    def write_spans(self, path: Path) -> None:
        """Write every span as gzip'd CSV: id, parent, op, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "op", "name", "start_ns", "end_ns"))
            for i in range(len(self.end)):
                out.writerow(
                    (i, self.parent[i], self.op[i], self.names[self.name_id[i]], self.start[i], self.end[i])
                )
