"""Layered benchmark of the polignac CLI, driven in-process.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30        # table of every workload
    python3 perfbench/run.py --write-reference                  # regenerate reference.json

One process, one client, closed loop: each operation is one
``polignac.cli.run_command`` plus ``render(..., "json")`` on an argv made
from the seed. The run executes whole cycles of operations within
``--seconds``, but at least 21 operations when untraced. With ``--trace 0``
the last stdout line holds the end-to-end metrics; with ``--trace 1`` each
operation runs once plain and once under the span recorder, and the last
line holds the per-layer metrics. Per-operation records, digests and the
environment go to ``.bench_results/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WARMUP, WORKLOADS, cycles, interval

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = Path(".bench_results")
DEFAULT_SEED = 0
SETUP_RUNS = 5
TAIL_BEYOND = 10
# Reference length per workload: several times what one 30 s run attempts.
REFERENCE_OPS = {"construct": 200, "exact": 13, "census": 150}
SETUP_CODE = "import polignac.cli as cli; cli.run_command(['bound', '--k', '3'])"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "interval_per_s": "x/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters to import polignac and build the CLI parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def call(cli, argv: list[str]) -> tuple[float, int, str]:
    """One operation: (wall seconds, exit code, rendered JSON or traceback).

    A full garbage collection first, untimed, gives every operation the
    clean collector state of a fresh CLI process, so its time does not
    depend on what ran before it.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        result = cli.run_command(list(argv))
        text = cli.render(result, "json")
        code = result.exit_code
    except Exception:
        text, code = traceback.format_exc(), -1
    return time.perf_counter() - start, code, text


def run_loop(cli, gate, cycles, seconds: float, tracer=None, min_ops: int = 0) -> list[dict]:
    """Run whole cycles, one record per operation, until at least ``min_ops``
    operations are done and another cycle as long as the last would end
    after ``seconds``.

    With a tracer, each operation runs plain and traced, alternating which
    goes first, and the traced output must equal the plain one.
    """
    records: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        for argv in next(cycles):
            op_id = len(records)
            record = {"argv": argv}
            if tracer is None:
                wall, code, text = call(cli, argv)
            else:
                plain_first = op_id % 2 == 1
                if plain_first:
                    wall, code, text = call(cli, argv)
                with tracer.installed(op_id):
                    record["traced_s"], _, traced_text = call(cli, argv)
                if not plain_first:
                    wall, code, text = call(cli, argv)
            sha, status, problems = gate.check(argv, code, text)
            if tracer is not None and traced_text != text:
                problems.append("traced output differs from the plain output")
            record.update(s=wall, sha256=sha, reference=status, problems=problems)
            records.append(record)
        now = time.perf_counter()
        if len(records) >= min_ops and 2 * now - cycle_start > deadline:
            return records


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    latencies = [r["s"] for r in records]
    busy = sum(latencies)
    ok = [r for r in records if not r["problems"]]
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": len(ok) / busy,
        "interval_per_s": sum(interval(r["argv"]) for r in ok) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": len(ok) / len(records),
    }
    notes = {
        "tail_percentile": tail_pct,
        "samples": len(records),
        "busy_s": busy,
        "setup_runs_s": setup,
        "fail_ratio": 1 - values["ok_ratio"],
    }
    return values, notes


def run_workload(args: argparse.Namespace) -> int:
    # These import polignac, which main() has just put on sys.path.
    from gate import Gate
    from polignac import cli
    from spans import LAYER_METRICS, Tracer

    env = _environment()
    reference = json.loads(REFERENCE.read_text())["workloads"].get(args.workload, {})
    gate = Gate(reference)
    setup = measure_setup() if args.trace == 0 else []
    for argv in WARMUP[args.workload]:
        call(cli, argv)
    tracer = Tracer() if args.trace else None
    # An untraced run needs enough samples for its tail to sit at p50 or above.
    min_ops = 0 if tracer else 2 * TAIL_BEYOND + 1
    records = run_loop(cli, gate, cycles(args.workload, args.seed), args.seconds, tracer, min_ops)

    if tracer is None:
        values, notes = end_to_end(records, setup)
        units = END_TO_END_UNITS
    else:
        overhead = sum(r["traced_s"] - r["s"] for r in records)
        values = tracer.layer_metrics(len(records), overhead)
        units = dict(LAYER_METRICS)
        notes = {"samples": len(records), "unwrapped": tracer.missing, "spans": len(tracer.end)}
        tracer.write_spans(RESULTS / f"{args.workload}-spans.csv.gz")
    env["loadavg_end"] = os.getloadavg()
    failed = sum(1 for r in records if r["problems"])
    statuses = [r["reference"] for r in records]
    notes["reference"] = {s: statuses.count(s) for s in ("match", "mismatch", "absent")}

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "notes": notes,
                "metrics": values,
                "operations": records,
            },
            indent=1,
        )
    )

    print(f"# environment {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed}: {json.dumps(notes)}")
    for r in records:
        if r["problems"]:
            print(f"# FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# records: {out}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    print(f"{'workload':<10} {'metric':<46} {'value':>14}  unit")
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        if child.returncode != 0:
            print(child.stdout + child.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        rows = dict(result["metrics"])
        rows["fail_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for name, metric in rows.items():
            print(f"{workload:<10} {name:<46} {metric['value']:>14.6g}  {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


def write_reference() -> int:
    """Record the default seed's digests, after each output passes the independent checks."""
    from gate import Gate
    from polignac import cli

    gate = Gate({})
    digests: dict[str, dict[str, str]] = {}
    for workload, count in REFERENCE_OPS.items():
        table: dict[str, str] = {}
        ops = cycles(workload, DEFAULT_SEED)
        while len(table) < count:
            for argv in next(ops):
                _, code, text = call(cli, argv)
                sha, _, problems = gate.check(argv, code, text)
                if problems:
                    print(f"{' '.join(argv)}: {problems}", file=sys.stderr)
                    return 1
                table[" ".join(argv)] = sha
        digests[workload] = table
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": digests}, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "polignac" / "__init__.py").is_file():
        print(f"perfbench: no polignac sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
