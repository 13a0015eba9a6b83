"""The finext benchmark: one run of one workload.

    python3 bench/run.py --workload report-set4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the benchmark imports ``src/finext``
directly; nothing is installed).  A run is a closed loop with one caller:
it starts ``bench/workload.py`` in a fresh interpreter for one iteration,
waits for it, and starts the next only while that one is expected to end
within ``--seconds`` (so every run has at least one iteration).  Every
iteration passes through the correctness gate.

A run is kept to about 35 s, so that 22 runs of each of the four
workloads fit in under an hour.  One iteration of ``report-set4``,
``report-mon4`` or ``relcalc-set4`` takes about 15-25 s on a 2-vCPU Xeon
VM, so those runs time one iteration and ``battery`` times two or three.  Set-up is measured in every iteration and,
while fewer than ``SETUP_SAMPLES`` samples exist and the extra set-up time
stays within ``SETUP_EXTRA_S``, in extra set-up-only interpreters, so that
``setup_s`` is the median of several samples on every workload.

With ``--trace 0`` the last stdout line reports the medians of the
end-to-end metrics listed in ``BENCHMARK.json``.  With ``--trace 1`` the
run is a single traced iteration and the line reports the per-layer
metrics; end-to-end numbers never come from traced iterations, and
``suite.py`` reports tracing overhead as traced ``verdict_s`` minus the
untraced median.  The traced iteration's full (function, parent)
aggregate is written to ``.bench_work/trace-<workload>-seed<seed>.json``.

Exit status: 0 with a result line, 1 when no iteration produced timings,
2 when the checkout holds no finext sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("report-set4", "report-mon4", "battery", "relcalc-set4")
SETUP_SAMPLES = 5
SETUP_EXTRA_S = 10.0  # report-mon4's set-up takes about 4.5 s, so it gets three samples
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


class Run:
    """Iterations of one workload in fresh interpreters, with their results."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.iterations: list[dict] = []  # full untraced iterations
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.versions: dict = {}

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def child(self, phase: str = "full", trace_file: Path | None = None) -> dict | None:
        """One iteration in a fresh interpreter; None when it raised, timed
        out or failed the gate (counted in ``failed``)."""
        self.attempted += 1
        cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(self.work), "--phase", phase]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"# {self.workload}: {phase} iteration timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if lines else None
        except ValueError:
            res = None
        if proc.returncode != 0 or res is None or res.get("violations"):
            self.failed += 1
            why = res.get("violations") if res else proc.stderr.strip()[-2000:]
            print(f"# {self.workload}: {phase} iteration failed: {why}", file=sys.stderr)
            return None
        self.versions = res.get("versions", self.versions)
        if "setup_s" in res:
            self.setups.append(res["setup_s"])
        return res

    def measure(self, seconds: int) -> None:
        deadline = self.started + seconds
        last = 0.0
        while not self.iterations or (time.monotonic() + last <= deadline and self.left() > 2 * last):
            t0 = time.monotonic()
            res = self.child()
            last = time.monotonic() - t0
            if res is not None:
                self.iterations.append(res)
            elif not self.iterations and self.attempted >= 2:
                return

    def measure_setup(self) -> None:
        spent = last = 0.0
        while len(self.setups) < SETUP_SAMPLES and spent + last <= SETUP_EXTRA_S and self.left() > 30.0:
            t0 = time.monotonic()
            self.child("setup")
            last = time.monotonic() - t0
            spent += last


def main() -> int:
    ap = argparse.ArgumentParser(description="finext benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "finext" / "__init__.py").is_file():
        print(f"error: no finext sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    env_start = _environment()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, work)
    try:
        if args.trace:
            trace_file = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            traced = run.child(trace_file=trace_file)
            if traced is None:
                print(f"error: the traced {args.workload} iteration failed", file=sys.stderr)
                return 1
            found = {**traced["layers"], "trace.verdict_s": traced["verdict_s"]}
            specs = manifest["per_layer"]
        else:
            run.measure(args.seconds)
            if not run.iterations:
                print(f"error: no {args.workload} iteration completed", file=sys.stderr)
                return 1
            run.measure_setup()
            found = {
                "verdict_s": statistics.median([r["verdict_s"] for r in run.iterations]),
                "cpu_s": statistics.median([r["cpu_s"] for r in run.iterations]),
                "setup_s": statistics.median(run.setups),
                "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in run.iterations]),
            }
            specs = manifest["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [s["name"] for s in specs if s["name"] not in found]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {s["name"]: {"value": float(found[s["name"]]), "unit": s["unit"]} for s in specs}

    env = {**env_start, "numpy": run.versions.get("numpy"), "loadavg_end": list(os.getloadavg())}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(run.iterations)} timed iteration(s), "
          f"{len(run.setups)} set-up sample(s), failed_share {run.failed}/{run.attempted}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
