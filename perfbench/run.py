"""Benchmark of the curl-div pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  One process runs one workload: it imports
the package from ``src/``, generates the seeded MSH input, sets up and
checks a warm-up operation ``SETUP_ROUNDS`` times, then repeats the
operation for S seconds and checks every output outside the timer.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``,
whose timed loop alternates traced and untraced operations.
``--smoke`` runs every workload at a tiny size in both modes and checks
that each metric named in ``BENCHMARK.json`` is printed with its unit.
"""

from __future__ import annotations

import os

# One BLAS and OpenMP thread: the single-threaded baseline, and default
# threading gave outlier CG solves on a 2-CPU host.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_ROUNDS = 3


def run(workload: str, seed: int, seconds: float, traced: bool,
        tiny: bool) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads                    # imports curldiv
    import_s = time.perf_counter() - start

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: --workload must be one of "
                         f"{sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[workload]
    n, n_coarse = w.tiny if tiny else (w.n, w.coarse)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Set-up: generate and write the input, then one checked warm-up
        # operation; repeated, and the median round reported.
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            inp = workloads.prepare(w.domain(n), seed, work / "input.msh")
            out = w.operation(inp, work)
            w.check(inp, out)
            rounds.append(time.perf_counter() - t0)
            del out
        setup_s = import_s + statistics.median(rounds)

        tracer = None
        if traced:
            import tracing
            tracer = tracing.Tracer(workloads)
        # One round is one operation; in a traced run, one traced and one
        # untraced operation, so that the tracing overhead is measured on
        # operations of the same stretch of time.
        modes = (True, False) if tracer else (False,)
        times = {mode: [] for mode in modes}
        attempted, failed, last = 0, 0, None
        end = time.perf_counter() + seconds
        while attempted == 0 or time.perf_counter() < end:
            for traced_op in modes:
                gc.collect()
                attempted += 1
                try:
                    t0 = time.perf_counter()
                    if traced_op:
                        out = tracer.operation(w.operation, inp, work)
                    else:
                        out = w.operation(inp, work)
                    times[traced_op].append(time.perf_counter() - t0)
                    w.check(inp, out)
                    last = out          # the latest checked outputs
                except Exception as exc:    # a failed operation is counted
                    failed += 1
                    print(f"operation {attempted} failed: {exc!r}",
                          file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        op_s = statistics.median(times[False])

        correct = True
        if tracer:
            # One more operation, traced for memory, outside the timed window.
            try:
                w.check(inp, tracer.operation(w.operation, inp, work,
                                              memory=True))
            except Exception as exc:
                print(f"memory-traced operation failed: {exc!r}",
                      file=sys.stderr)
                correct = False
        if n_coarse is not None:
            if last is None:
                correct = False
            else:
                coarse = workloads.prepare(w.domain(n_coarse), seed,
                                           work / "coarse.msh")
                try:
                    orders = workloads.check_constant_and_order(
                        last, coarse, work)
                    print(f"convergence orders {orders}", file=sys.stderr)
                except workloads.checks.CheckError as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"trace-{workload}-seed{seed}.json")
        metrics = tracer.metrics(untraced_op_s=op_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke() -> int:
    """Every workload at a tiny size, both modes; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace_flag, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   w["name"], "--seed", "1", "--seconds", "1", "--trace",
                   trace_flag, "--tiny"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=170, cwd=ROOT)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
            else:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    problems.append(f"metrics differ: missing "
                                    f"{sorted(set(want) - set(got))}, extra "
                                    f"{sorted(set(got) - set(want))}, units "
                                    f"{[k for k in want if got.get(k, want[k]) != want[k]]}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"correct={res['correct']} attempted="
                                    f"{res['attempted']} failed={res['failed']}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:<22} trace {trace_flag}  "
                  f"{time.perf_counter() - t0:6.1f} s  {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, as the smoke mode uses them")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if not (SRC / "curldiv").is_dir():
        print(f"error: no package at {SRC / 'curldiv'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
