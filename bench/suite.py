"""Every workload over several seeds, summarised: one command for the whole benchmark.

    python3 bench/suite.py --seeds 1-10 [--trace]

Runs ``bench/run.py`` once per (workload, seed) for every workload in
``BENCHMARK.json``, one run at a time, and prints for every end-to-end
metric its median, first and third quartiles, run count and spread
(quartile distance over median) next to the metric's bound.  Every run passes through the correctness gate;
the failed share is reported per workload.  With ``--trace`` two traced
runs per workload follow, with the first seed; the summary reports the
tracing overhead (traced ``verdict_s`` minus the untraced median) and
whether the two traced runs' counts repeat exactly.  All results are
written as JSON to ``--out`` (default ``.bench_work/suite.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall_s = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    return {"seed": seed, "env": env, "wall_s": wall_s, **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="run and summarise every benchmark workload")
    ap.add_argument("--seeds", default="1-10", help="seed list such as 1-10 or 1,4,9")
    ap.add_argument("--trace", action="store_true", help="add two traced runs per workload")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_work" / "suite.json")
    args = ap.parse_args()
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")
    seconds = manifest["run_seconds"]
    results: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in (wl["name"] for wl in manifest["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(_run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        entry: dict = {"runs": runs, "metrics": {}}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["failed_share"] = failed / attempted
        entry["run_wall_s"] = statistics.median(r["wall_s"] for r in runs)
        for spec in manifest["end_to_end"]:
            vals = [r["metrics"][spec["name"]]["value"] for r in runs]
            entry["metrics"][spec["name"]] = dict(zip(("median", "q1", "q3", "spread"), spread(vals)),
                                                  n=len(vals), unit=spec["unit"], bound=spec["bound"])
        if args.trace:
            traced = [_run(w, seeds[0], seconds, 1) for _ in range(2)]
            counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"} for t in traced]
            entry["traced"] = traced
            entry["trace_counts_differing"] = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            entry["trace_overhead_s"] = (traced[0]["metrics"]["trace.verdict_s"]["value"]
                                         - entry["metrics"]["verdict_s"]["median"])
        results["workloads"][w] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    print(f"\n{'workload':<13} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} "
          f"{'spread':>7} {'bound':>6}")
    for w, entry in results["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w:<13} {name:<12} {m['median']:>10.4f} {m['q1']:>10.4f} {m['q3']:>10.4f} "
                  f"{m['n']:>3} {m['spread']:>7.3f} {m['bound']:>6.2f}  {m['unit']}")
        print(f"{w:<13} failed_share {entry['failed_share']:.3f}; median run {entry['run_wall_s']:.1f} s wall"
              + (f"; tracing overhead {entry['trace_overhead_s']:.2f} s; traced counts repeat: "
                 f"{not entry['trace_counts_differing']} {entry['trace_counts_differing']}" if "traced" in entry else ""))
    print(f"results written to {args.out}")
    return 0 if all(e["failed_share"] == 0 for e in results["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
