"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that tracing does not change what finext computes, that the
tracer's call counts agree with an independent counter (``cProfile``) and
repeat exactly, that every per-layer metric in ``BENCHMARK.json`` is one the
tracer produces, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tracer import MODULES, Tracer  # noqa: E402

BATTERY_SEED7 = "0d13f2ef6ee2d6d99fcdc7a72c622e842e46b3c2e7b48b692c7a094c8cfd769e"


def _modules() -> dict:
    return {m: importlib.import_module(f"finext.{m}") for m in MODULES}


def _traced_set3_reports(profile: cProfile.Profile | None = None) -> Tracer:
    """Both whole-category reports on a freshly built FinSet<=3, traced."""
    from finext import algebra, extensivity

    cat, _uni = algebra.build_category("set", 3)
    tracer = Tracer()
    tracer.install(_modules())
    try:
        if profile is not None:
            profile.enable()
        extensivity.category_report(cat, "extensive")
        extensivity.category_report(cat, "coextensive")
    finally:
        if profile is not None:
            profile.disable()
        tracer.uninstall()
    return tracer


def _iteration(tmp_path: Path, name: str, trace: bool) -> dict:
    work = tmp_path / name
    work.mkdir()
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", "battery", "--seed", "7",
           "--work", str(work), "--spawned-at", repr(time.monotonic())]
    if trace:
        cmd += ["--trace-file", str(tmp_path / f"{name}-trace.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracing_keeps_the_battery_digest(tmp_path):
    plain = _iteration(tmp_path, "plain", trace=False)
    traced = _iteration(tmp_path, "traced", trace=True)
    assert plain["violations"] == [] and traced["violations"] == []
    assert plain["digests"] == traced["digests"] == {"verify-paper-seed-7": BATTERY_SEED7}
    assert traced["layers"]["propositions.proposition_suite.calls"] > 0


def test_call_counts_match_cprofile_on_set3():
    prof = cProfile.Profile()
    tracer = _traced_set3_reports(prof)
    stats = pstats.Stats(prof).stats
    layers = tracer.summary()
    for name in ("limits.pullback", "limits.is_pullback_square"):
        code = tracer.originals[name].__code__
        profiled = stats[(code.co_filename, code.co_firstlineno, code.co_name)][1]
        assert layers[f"{name}.calls"] == profiled > 0


def test_traced_counts_repeat_exactly():
    def counts(layers: dict) -> dict:
        return {k: v for k, v in layers.items() if k.endswith((".calls", ".distinct", ".samples"))}

    first = counts(_traced_set3_reports().summary())
    second = counts(_traced_set3_reports().summary())
    assert first == second
    assert first["limits.is_pullback_square.calls"] > first["limits.is_pullback_square.distinct"] > 0


def test_uninstall_restores_every_binding():
    mods = _modules()
    before = {m: dict(vars(mod)) for m, mod in mods.items()}
    _traced_set3_reports()
    assert {m: dict(vars(mod)) for m, mod in mods.items()} == before


def test_manifest_names_only_metrics_the_tracer_produces():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(_traced_set3_reports().summary()) | {"trace.verdict_s"}
    missing = [m["name"] for m in manifest["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
