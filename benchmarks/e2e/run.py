"""End-to-end disguise benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run; the last stdout line is the result object the driver reads
    python3 benchmarks/e2e/run.py [--workload W] [--runs K] [--traced] [--out F]
        K whole runs (seeds N, N+1, ...) of one or every workload, each in
        its own process; prints median and quartiles per metric
    python3 benchmarks/e2e/run.py compare A.json B.json
        verdict per workload and end-to-end metric between two --out files

See README.md beside this file for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``: set and dict-of-str iteration
    order is then the same on every run, leaving ``--seed`` the only source
    of variation in what the program is asked to do."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _single(args: argparse.Namespace) -> int:
    from harness import run_once

    record = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    width = max(len(name) for name in record["metrics"])
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"traced={record['traced']} scale={record['scale']} rev={record['git_rev']} "
          f"python={record['python']} nproc={record['nproc']} wall={record['wall_s']:.1f}s")
    print(f"# samples {record['samples']}")
    for name, metric in record["metrics"].items():
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    for name, ok in record["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for error in record["job_errors"]:
        print(f"job error: {error}")
    print(f"failed_share {record['failed_share']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] and not record["failed"] else 1


def _many(args: argparse.Namespace) -> int:
    """Whole runs in child processes (peak RSS and caches start fresh)."""
    from report import BENCHMARK, summarise

    names = [args.workload] if args.workload else [w["name"] for w in BENCHMARK["workloads"]]
    records = []
    status = 0
    for name in names:
        for run in range(args.runs):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed + run), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", args.scale],
                capture_output=True, text=True, check=False,
            )
            line = next(
                (l for l in child.stdout.splitlines() if l.startswith("RECORD ")), None
            )
            if line is None:
                sys.stderr.write(child.stdout + child.stderr)
                return child.returncode or 1
            status = status or child.returncode
            records.append(json.loads(line[len("RECORD "):]))
            print(f"# {name} seed {args.seed + run}: {records[-1]['wall_s']:.1f}s "
                  f"failed_share={records[-1]['failed_share']:.4g}", flush=True)
    for workload, metrics in summarise(records).items():
        print(f"\n== {workload} ({len(next(iter(metrics.values()))['values'])} runs) ==")
        width = max(len(name) for name in metrics)
        print(f"{'metric':<{width}}  {'median':>12} {'q1':>12} {'q3':>12}  spread")
        for name, s in metrics.items():
            spread = (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
            print(f"{name:<{width}}  {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g}  {spread:6.1%}")
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return status


def _compare(args: argparse.Namespace) -> int:
    from report import compare

    load = lambda path: json.loads(Path(path).read_text(encoding="utf-8"))
    rows = compare(load(args.a), load(args.b))
    print(f"{'workload':<17} {'metric':<22} {'A median':>12} {'A iqr':>9} "
          f"{'B median':>12} {'B iqr':>9} {'bound':>6}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['workload']:<17} {row['metric']:<22} {a['median']:>12.6g} "
              f"{a['q3'] - a['q1']:>9.3g} {b['median']:>12.6g} {b['q3'] - b['q1']:>9.3g} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return _compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, via --runs)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured duration (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1: the per-layer table")
    parser.add_argument("--runs", type=int, default=None,
                        help="repeat whole runs with consecutive seeds")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the runs' records here (for compare)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        from report import BENCHMARK

        args.seconds = float(BENCHMARK["run_seconds"])
    if args.workload and args.runs is None:
        return _single(args)
    args.runs = args.runs or 1
    return _many(args)


if __name__ == "__main__":
    _pin_hash_seed()
    # The engine lives in src/ of the same checkout; the harness's own
    # modules sit beside this file (already first on sys.path).
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
