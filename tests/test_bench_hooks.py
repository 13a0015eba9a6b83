"""The benchmark's tracer (``bench/tracer.py``) patches finext functions and
methods by name, and keeps extra records (distinct keys, found share,
latency, RSS growth, CPU time) for some of them by name.  A rename inside
finext would silently drop those layers or records from ``--trace 1``, so
every name it lists must still resolve.  ``BENCHMARK.json`` names the
per-layer metrics of some proposition runners by check id, so each such
id must still be a runner the tracer can time."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from finext import propositions

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    # the tracer imports only the standard library at module level
    spec = importlib.util.spec_from_file_location("finext_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hook_names_resolve_in_finext():
    tracer = _load_tracer()
    modules = {short: importlib.import_module(f"finext.{short}") for short in tracer.MODULES}
    for name in sorted(tracer.PRIVATE):
        short, attr = name.split(".")
        assert inspect.isfunction(getattr(modules[short], attr, None)), name
    for short, (cls_name, methods) in tracer.METHODS.items():
        cls = getattr(modules[short], cls_name)
        for meth in methods:
            assert inspect.isfunction(vars(cls).get(meth)), f"{short}.{cls_name}.{meth}"
    # names are module.function or module.Class.method
    recorded = tracer.DISTINCT | tracer.FOUND | tracer.LATENCY | tracer.RSS | tracer.CPU
    for name in sorted(recorded):
        short, *path = name.split(".")
        owner = modules[short]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        assert inspect.isfunction(vars(owner).get(path[-1])), name


def test_benchmark_runner_metrics_name_plain_runners():
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    # check ids have hyphens, module functions (proposition_suite) do not
    ids = {name.split(".")[1] for name in metrics if name.startswith("propositions.") and "-" in name}
    assert ids
    for pid in sorted(ids):
        runner = propositions._RUNNERS.get(pid)
        # a generator function would be timed only while it builds its generator
        assert inspect.isfunction(runner) and not inspect.isgeneratorfunction(runner), pid
