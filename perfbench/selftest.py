"""Quick self-test of the benchmark at tiny sizes (a few seconds):

    python3 perfbench/selftest.py

It checks the seeded generator, feeds the correctness gate deliberately
corrupted outputs and shows each one counted as a failure, and checks that
the span recorder restores every wrapped function and that self times
partition the traced wall time.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from gate import Gate, digest  # noqa: E402
from polignac import admissible, cli, oracle, packing, sieve  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, cycles, interval  # noqa: E402

REGULAR = ["pack", "regular", "--k", "3", "--x", "5000"]
EXACT = ["pack", "exact", "--x", "30"]
CENSUS = ["census", "--x", "5000", "--dmax", "20"]
GEH = ["pack", "geh", "--x", "600", "--strategy", "extended"]
TINY = [
    REGULAR,
    ["pack", "regular", "--k", "5", "--x", "20000"],
    GEH,
    ["pack", "geh", "--x", "600", "--strategy", "paper-literal"],
    EXACT,
    CENSUS,
]


class CorruptingCli:
    """The real CLI with ``corrupt`` applied to every rendered JSON text."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def run_command(self, argv):
        return cli.run_command(argv)

    def render(self, result, fmt):
        return self.corrupt(cli.render(result, fmt))


def edit(change):
    """A text corruption that applies ``change`` to the parsed payload."""

    def corrupt(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload, indent=2)

    return corrupt


def keep_first_member(payload):
    payload["members"] = payload["members"][:1]
    payload["count"] = 1
    payload["density"] = f"1/{payload['x']}"


def duplicate_member(payload):
    payload["members"][1] = dict(payload["members"][0], label="copy")


def stretch_member(payload):
    member = payload["members"][-1]
    member["values"][-1] = payload["x"] + 2
    member["span"] = payload["x"] + 2


def run_once(client, ops, gate=None, tracer=None):
    return run.run_loop(client, gate or Gate({}), iter([ops]), 0, tracer)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload, kinds in WORKLOADS.items():
            first, again, other = cycles(workload, 5), cycles(workload, 5), cycles(workload, 6)
            a = [next(first) for _ in range(3)]
            self.assertEqual(a, [next(again) for _ in range(3)])
            self.assertNotEqual(a, [next(other) for _ in range(3)])
            per_kind = 1 if workload == "exact" else 2
            self.assertTrue(all(len(cycle) == per_kind * len(kinds) for cycle in a))

    def test_sizes_stay_in_range(self):
        ranges = {"regular3": (200_000, 1_000_000), "regular5": (2_000_000, 10_000_000)}
        ops = cycles("construct", 1)
        for _ in range(50):
            for argv in next(ops):
                x = interval(argv)
                if argv[1] == "geh":
                    self.assertTrue(20_000 <= x <= 100_000)
                else:
                    lo, hi = ranges[f"regular{argv[3]}"]
                    self.assertTrue(lo <= x <= hi)
        ops = cycles("census", 1)
        for _ in range(50):
            cycle = next(ops)
            for argv in cycle:
                dmax = int(argv[argv.index("--dmax") + 1])
                self.assertTrue(500_000 <= interval(argv) <= 3_000_000)
                self.assertTrue(20 <= dmax <= 100 and dmax % 2 == 0)
            # The mirrored draw puts each cycle's mean size at the middle of the range.
            self.assertLessEqual(abs(sum(interval(a) for a in cycle) - 3_500_000), 1)
        self.assertEqual(sorted(interval(a) for a in next(cycles("exact", 1))), list(range(48, 73, 2)))


class GateTest(unittest.TestCase):
    def test_accepts_correct_outputs(self):
        records = run_once(cli, TINY)
        self.assertEqual([r["problems"] for r in records], [[]] * len(TINY))
        self.assertEqual(run.end_to_end(records, [1.0])[0]["ok_ratio"], 1.0)

    def test_counts_corrupted_outputs_as_failures(self):
        cases = [
            ("density not count/x", REGULAR, edit(lambda p: p.update(density="1/1"))),
            ("overlapping members", REGULAR, edit(duplicate_member)),
            ("member beyond x", GEH, edit(stretch_member)),
            ("count below the greedy floor", REGULAR, edit(keep_first_member)),
            ("exact below geh", EXACT, edit(keep_first_member)),
            ("census count off by one", CENSUS, edit(lambda p: p["counts"].update({"2": p["counts"]["2"] + 1}))),
            ("truncated JSON", CENSUS, lambda text: text[:-1]),
        ]
        for name, argv, corrupt in cases:
            with self.subTest(name):
                records = run_once(CorruptingCli(corrupt), [argv])
                self.assertTrue(records[0]["problems"], name)
                self.assertEqual(run.end_to_end(records, [1.0])[0]["ok_ratio"], 0.0)

    def test_digest_mismatch_is_a_failure(self):
        true_text = cli.render(cli.run_command(CENSUS), "json")
        gate = Gate({" ".join(CENSUS): digest(true_text)})
        [good] = run_once(cli, [CENSUS], gate)
        self.assertEqual((good["reference"], good["problems"]), ("match", []))
        [bad] = run_once(CorruptingCli(lambda text: text + " "), [CENSUS], gate)
        self.assertEqual(bad["reference"], "mismatch")
        self.assertTrue(bad["problems"])

    def test_nonzero_exit_is_a_failure(self):
        [record] = run_once(cli, [["pack", "exact", "--x", "0"]])
        self.assertTrue(record["problems"])


def bindings():
    """Some of the names the tracer patches, as bound right now."""
    return (
        packing.is_admissible,
        oracle.is_admissible,
        oracle.milp,
        admissible.primes_up_to,
        sieve.primes_up_to,
        packing.PackingCertificate.validate,
        cli.run_command,
    )


class TracerTest(unittest.TestCase):
    def test_wrappers_are_removed_and_self_times_partition_the_wall(self):
        originals = bindings()
        tracer = Tracer()
        self.assertEqual(tracer.missing, [])
        records = run_once(cli, TINY, tracer=tracer)
        self.assertEqual([r["problems"] for r in records], [[]] * len(TINY))
        self.assertEqual(originals, bindings())
        calls, total, own = tracer.self_times()
        roots = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.end)) if tracer.parent[i] < 0)
        self.assertEqual(sum(own.values()), roots)
        self.assertTrue(all(0 <= own[name] <= total[name] for name in calls))
        metrics = tracer.layer_metrics(len(records), 0.0)
        self.assertEqual(list(metrics), [name for name, _ in LAYER_METRICS])
        self.assertGreater(metrics["oracle.milp.calls"], 0)
        self.assertGreater(metrics["admissible.is_admissible.calls"], 0)

    def test_no_oracle_spans_without_exact_operations(self):
        tracer = Tracer()
        records = run_once(cli, [GEH, CENSUS], tracer=tracer)
        metrics = tracer.layer_metrics(len(records), 0.0)
        self.assertEqual(metrics["oracle.milp.calls"], 0)
        self.assertGreater(metrics["packing.geh_family.kept_ratio"], 0)
        self.assertGreater(metrics["sieve.prime_pair_census.pairs"], 0)


class TailTest(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail([float(i) for i in range(1, 21)]), (10.0, 50.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (1.0, 100 / 3))


if __name__ == "__main__":
    unittest.main()
