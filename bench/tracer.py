"""Outside-in tracer for the finext benchmark.

The tracer wraps functions of the ``finext`` package from outside: it
replaces each traced function in every ``finext`` module namespace that
binds it (``limits`` and ``extensivity`` import ``dual_of`` and
``_iso_info`` by name, so patching only the defining module would miss
those calls), the proposition runners in ``propositions._RUNNERS``, and
selected methods on the ``FinCategory`` and ``cli.Report`` classes.  No
program file changes.

Spans are not kept.  Each thread aggregates (function, parent function)
records in memory -- calls, inclusive seconds and self seconds -- where
self seconds are inclusive seconds minus the time of wrapped children,
taken from a per-thread call stack.  Time spent in unwrapped helpers
counts toward the nearest wrapped caller.  A few functions keep more:
distinct argument keys per category, the share of calls returning a
witness, raw per-call durations (latency percentiles), peak-RSS growth
and process CPU time.  ``summary`` merges the threads when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import threading
import time
from typing import Any, Callable

MODULES = ("algebra", "fincat", "limits", "extensivity", "relcalc", "setrel", "propositions", "cli")

# Private helpers traced besides every public function: ``_iso_info`` is
# imported by name into other modules, ``_run_units`` runs the CLI's check
# units (threaded under ``--jobs``).
PRIVATE = {"fincat._iso_info", "cli._run_units"}

METHODS = {
    "fincat": ("FinCategory", ("__init__", "block", "pos_in_hom", "postcompose_fibers", "precompose_fibers", "m")),
    "cli": ("Report", ("add", "finish")),
}

# Functions whose argument keys are counted per category (all arguments
# are a category and integers, so the argument tuple is the key).
DISTINCT = {
    "limits.is_pullback_square",
    "limits.pullback",
    "limits.coproduct_bases",
    "limits.image_factorisation",
    "fincat.FinCategory.postcompose_fibers",
}
FOUND = {"limits.pullback"}  # share of calls that return a witness
LATENCY = {"extensivity.is_extensive_morphism"}  # raw per-call durations kept
RSS = {"setrel.oracle_suite"}  # peak-RSS growth across the call
CPU = {"cli._run_units"}  # process CPU seconds (all threads) across the call


class _State:
    """One thread's stack and aggregates; never touched by another thread
    until ``Tracer.summary`` merges them after the run."""

    __slots__ = ("stack", "agg", "seen", "found", "samples", "extra")

    def __init__(self) -> None:
        self.stack: list[list] = [["<root>", 0.0]]
        self.agg: dict[tuple[str, str], list] = {}
        self.seen: dict[str, set] = {}
        self.found: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.extra: dict[str, float] = {}


class Tracer:
    """Install with ``install(package_modules)``; read with ``summary()``;
    ``uninstall()`` restores every patched binding."""

    def __init__(self) -> None:
        self._states: list[_State] = []
        self._lock = threading.Lock()
        tracer = self

        class _Local(threading.local):
            def __init__(self) -> None:
                self.state = tracer._new_state()

        self._local = _Local()
        self._patched: list[tuple[Any, str, Any, bool]] = []
        self.originals: dict[str, Callable] = {}

    def _new_state(self) -> _State:
        st = _State()
        with self._lock:
            self._states.append(st)
        return st

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        local = self._local
        perf = time.perf_counter

        def record(st: _State, parent: list, frame: list, dt: float) -> None:
            parent[1] += dt
            key = (name, parent[0])
            rec = st.agg.get(key)
            if rec is None:
                rec = st.agg[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

        if name not in DISTINCT | FOUND | LATENCY | RSS | CPU:

            @functools.wraps(fn)
            def plain(*args, **kwargs):
                st = local.state
                stack = st.stack
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    # record(), inlined: this path runs millions of times per workload
                    dt = perf() - t0
                    stack.pop()
                    parent[1] += dt
                    key = (name, parent[0])
                    rec = st.agg.get(key)
                    if rec is None:
                        rec = st.agg[key] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]

            return plain

        distinct, found, latency = name in DISTINCT, name in FOUND, name in LATENCY
        rss, cpu = name in RSS, name in CPU

        @functools.wraps(fn)
        def special(*args, **kwargs):
            st = local.state
            if distinct:
                st.seen.setdefault(name, set()).add(args)
            stack = st.stack
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            cpu0 = time.process_time() if cpu else 0.0
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                if found and out is not None:
                    st.found[name] = st.found.get(name, 0) + 1
                return out
            finally:
                dt = perf() - t0
                stack.pop()
                record(st, parent, frame, dt)
                if latency:
                    st.samples.setdefault(name, []).append(dt)
                if rss:
                    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                    st.extra[name + ".rss_growth_mb"] = st.extra.get(name + ".rss_growth_mb", 0.0) + grown / 1024.0
                if cpu:
                    st.extra[name + ".cpu"] = st.extra.get(name + ".cpu", 0.0) + time.process_time() - cpu0

        return special

    def install(self, modules: dict[str, Any]) -> None:
        """Patch the ``finext`` modules given as {short name: module}."""
        by_fn: dict[Callable, str] = {}
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(val):
                    continue  # a wrapper would time only the generator's creation
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                by_fn[val] = name
        runners = getattr(modules.get("propositions"), "_RUNNERS", {})
        for pid, fn in runners.items():
            by_fn[fn] = f"propositions.{pid}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in by_fn.items()}
        self.originals.update({name: fn for fn, name in by_fn.items()})
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for pid, fn in list(runners.items()):
            runners[pid] = wrappers[fn]
            self._patched.append((runners, pid, fn, True))
        for short, (cls_name, methods) in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                name = f"{short}.{cls_name}.{meth}"
                self.originals[name] = fn
                self._patch(cls, meth, self._wrap(fn, name))

    def _patch(self, target: Any, attr: str, new: Any) -> None:
        self._patched.append((target, attr, getattr(target, attr), False))
        setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, old, is_item in reversed(self._patched):
            if is_item:
                target[attr] = old
            else:
                setattr(target, attr, old)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def spans(self) -> dict[tuple[str, str], list]:
        """Merged (function, parent) -> [calls, inclusive s, self s]."""
        out: dict[tuple[str, str], list] = {}
        for st in self._states:
            for key, (n, s, own) in st.agg.items():
                rec = out.setdefault(key, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += s
                rec[2] += own
        return out

    def summary(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<function>.<stat>`` for every traced
        function, plus ``<module>.self_s`` and ``trace.wrapped_calls``."""
        per: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.originals}
        for (name, _parent), (n, s, own) in self.spans().items():
            rec = per[name]
            rec[0] += n
            rec[1] += s
            rec[2] += own
        out: dict[str, float] = {}
        modules = {m: 0.0 for m in MODULES}
        for name, (n, s, own) in per.items():
            out[f"{name}.calls"] = n
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = own
            modules[name.split(".", 1)[0]] += own
        for mod, own in modules.items():
            out[f"{mod}.self_s"] = own
        out["trace.wrapped_calls"] = sum(rec[0] for rec in per.values())

        for name in DISTINCT:
            seen: set = set()
            for st in self._states:
                seen |= st.seen.get(name, set())
            calls = per[name][0]
            out[f"{name}.distinct"] = len(seen)
            out[f"{name}.repeat_ratio"] = calls / len(seen) if seen else 0.0
            out[f"{name}.hit_ratio"] = (calls - len(seen)) / calls if calls else 0.0
        for name in FOUND:
            calls = per[name][0]
            hits = sum(st.found.get(name, 0) for st in self._states)
            out[f"{name}.found_ratio"] = hits / calls if calls else 0.0
        for name in LATENCY:
            xs = sorted(x for st in self._states for x in st.samples.get(name, ()))
            out[f"{name}.samples"] = len(xs)
            out[f"{name}.p50_ms"] = _rank(xs, 0.50) * 1000.0
            out[f"{name}.p99_ms"] = _rank(xs, 0.99) * 1000.0
        extra: dict[str, float] = {}
        for st in self._states:
            for key, val in st.extra.items():
                extra[key] = extra.get(key, 0.0) + val
        for name in RSS:
            out[f"{name}.rss_growth_mb"] = extra.get(name + ".rss_growth_mb", 0.0)
        for name in CPU:
            wall = per[name][1]
            out[name.split(".", 1)[0] + ".cpu_over_wall"] = extra.get(name + ".cpu", 0.0) / wall if wall else 0.0
        return out


def _rank(xs: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted samples (0.0 when there are none)."""
    if not xs:
        return 0.0
    return xs[max(0, math.ceil(q * len(xs)) - 1)]
