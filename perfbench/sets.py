"""Sets of benchmark runs over seeds, and their spread.

    python3 perfbench/sets.py

Runs the untraced command of ``BENCHMARK.json`` ``RUNS`` times in each of
``SETS`` sets per workload, one run at a time.  Every set uses seeds 1 ..
``RUNS``, so the sets compare the same inputs, and the runs of the sets and
workloads are interleaved, so slow drift of the host falls on every set
alike.  Each result is appended to ``perfbench/_work/sets.jsonl``; the
summary gives, per set, the median and quartiles of every end-to-end
metric, the quartile spread as a share of the median, and the shift of
each set's median from the first set's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_work" / "sets.jsonl"
RUNS, SETS = 10, 2


def summarize(results: list, spec: dict) -> str:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lines = ["| workload | metric | set | runs | median | Q1 | Q3 | "
             "spread | shift | bound |", "|" + "---|" * 10]
    for w in dict.fromkeys(r["workload"] for r in results):
        for metric, bound in bounds.items():
            first = None
            for s in sorted({r["set"] for r in results}):
                vals = [r["metrics"][metric]["value"] for r in results
                        if r["workload"] == w and r["set"] == s
                        and metric in r["metrics"]]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                first = med if first is None else first
                lines.append(
                    f"| {w} | {metric} | {s} | {len(vals)} | {med:.4g} | "
                    f"{q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} | "
                    f"{med / first - 1:+.3f} | {bound} |")
    fails = [(r["workload"], r["seed"]) for r in results
             if not r["correct"] or r["failed"]]
    lines.append(f"\n{len(results)} runs; runs with failures or "
                 f"incorrect outputs: {fails or 'none'}")
    return "\n".join(lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    OUT.parent.mkdir(exist_ok=True)
    results = []
    for i in range(RUNS):
        for s in range(SETS):
            for w in names:
                seed = i + 1
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=600)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                res.update(workload=w, set=s, seed=seed, wall_s=wall)
                results.append(res)
                with open(OUT, "a") as fh:
                    fh.write(json.dumps(res) + "\n")
                vals = " ".join(f"{k}={v['value']:.4g}"
                                for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: {vals} "
                      f"attempted={res['attempted']} wall={wall:.1f}s",
                      file=sys.stderr, flush=True)
    print(summarize(results, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
