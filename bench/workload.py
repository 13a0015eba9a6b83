"""One iteration of one finext benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per iteration so that no module-level
memo survives from one iteration to the next and ``ru_maxrss`` belongs to
that iteration alone.  It prints one JSON object as its last stdout line:
set-up and verdict wall seconds, CPU seconds, peak RSS, the report digests
and every violation of the correctness gate.

    python3 bench/workload.py --workload battery --seed 7 --work DIR \
        --spawned-at T [--phase setup] [--trace-file FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this interpreter (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = json.loads((BENCH / "references.json").read_text())

# verify-paper seeds with a recorded digest; the benchmark seed picks one.
BATTERY_SEEDS = 16


def battery_seed(seed: int) -> int:
    return seed % BATTERY_SEEDS


def _cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``finext <argv>``; returns (exit status, captured stdout)."""
    from finext import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def _gen_set4(work: Path) -> Path:
    path = work / "set4.json"
    rc, out = _cli(["gen", "--variety", "set", "--max-carrier", "4", "--output", str(path)])
    if rc != 0:
        raise RuntimeError(f"finext gen failed ({rc}): {out}")
    return path


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def _expect(violations: list[str], ok: bool, what: str) -> None:
    if not ok:
        violations.append(what)


def _expect_digest(violations: list[str], label: str, got: str | None, want: str | None) -> None:
    _expect(violations, want is not None, f"{label}: no reference digest recorded")
    if want is not None:
        _expect(violations, got == want, f"{label}: digest {got} != reference {want}")


# -- workloads ------------------------------------------------------------------
#
# Each workload is (setup, run, check).  ``setup`` makes the inputs from the
# seed; ``run`` is the timed part, from the first call into finext to the
# last verdict; ``check`` reads the outputs afterwards and returns
# (digests, violations).


def setup_report_set4(work: Path, seed: int) -> dict:
    return {"file": _gen_set4(work), "work": work}


def run_report_set4(state: dict) -> dict:
    f, work = str(state["file"]), state["work"]
    return {
        "validate": _cli(["validate", f]),
        "extensive": _cli(["check", f, "--mode", "extensive", "--report", str(work / "extensive.json")]),
        "coextensive": _cli(["check", f, "--mode", "coextensive", "--report", str(work / "coextensive.json")]),
    }


def check_report_set4(state: dict, out: dict, seed: int) -> tuple[dict, list[str]]:
    bad: list[str] = []
    refs = REFERENCES["report-set4"]
    rc, text = out["validate"]
    _expect(bad, rc == 0 and "valid set category file" in text and "499 morphisms" in text,
            f"validate: status {rc}, output {text.strip()!r}")
    digests = {}
    for mode, want_rc in (("extensive", 0), ("coextensive", 1)):
        rc, _text = out[mode]
        _expect(bad, rc == want_rc, f"check --mode {mode}: exit status {rc}, expected {want_rc}")
        doc = _report(state["work"] / f"{mode}.json")
        digests[mode] = doc["digest"]
        _expect_digest(bad, f"check --mode {mode}", doc["digest"], refs.get(f"{mode}_digest"))
        verdict = {e["id"]: e["status"] for e in doc["checks"]}.get(f"category/{mode}")
        if mode == "extensive":
            s = doc["summary"]
            _expect(bad, s["pass"] == 500 and s["total"] == 500,
                    f"FinSet<=4 extensive: {s} (expected 499/499 morphisms and the category to pass)")
            _expect(bad, verdict == "pass", f"FinSet<=4 extensive verdict {verdict}, expected pass")
        else:
            _expect(bad, verdict == "fail", f"FinSet<=4 coextensive verdict {verdict}, expected fail")
    return digests, bad


def setup_report_mon4(work: Path, seed: int) -> dict:
    from finext import algebra

    cat, _uni = algebra.build_category("mon", 4)
    return {"cat": cat}


def run_report_mon4(state: dict) -> dict:
    from finext import extensivity

    return {"report": extensivity.category_report(state["cat"], "extensive")}


def check_report_mon4(state: dict, out: dict, seed: int) -> tuple[dict, list[str]]:
    bad: list[str] = []
    refs = REFERENCES["report-mon4"]
    rep = out["report"]
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    _expect_digest(bad, "category_report(mon4)", digest, refs.get("digest"))
    _expect(bad, rep["verdict"] == "fail", f"Mon<=4 extensive verdict {rep['verdict']}, expected fail")
    split: dict[str, int] = {}
    for st in rep["morphisms"].values():
        key = st["status"] if st["status"] == "pass" else (st.get("witness") or {}).get("kind", st["status"])
        split[key] = split.get(key, 0) + 1
    _expect(bad, split == refs["split"], f"Mon<=4 split {split}, expected {refs['split']}")
    return {"category_report": digest}, bad


def setup_battery(work: Path, seed: int) -> dict:
    import finext.cli  # noqa: F401  (imports are part of set-up)

    return {"seed": battery_seed(seed), "work": work}


def run_battery(state: dict) -> dict:
    argv = ["verify-paper", "--suite", "all", "--seed", str(state["seed"]), "--jobs", "2",
            "--report", str(state["work"] / "battery.json")]
    return {"verify": _cli(argv)}


def check_battery(state: dict, out: dict, seed: int) -> tuple[dict, list[str]]:
    bad: list[str] = []
    rc, _text = out["verify"]
    doc = _report(state["work"] / "battery.json")
    s = doc["summary"]
    _expect(bad, rc == 0, f"verify-paper: exit status {rc}")
    _expect(bad, s["fail"] == 0 and s["total"] == 183, f"verify-paper summary {s}, expected 0 fail of 183")
    bseed = str(state["seed"])
    _expect_digest(bad, f"verify-paper --seed {bseed}", doc["digest"], REFERENCES["battery"].get(bseed))
    return {f"verify-paper-seed-{bseed}": doc["digest"]}, bad


def setup_relcalc_set4(work: Path, seed: int) -> dict:
    return {"file": _gen_set4(work), "work": work}


def run_relcalc_set4(state: dict) -> dict:
    return {"relcalc": _cli(["relcalc", str(state["file"]), "--report", str(state["work"] / "relcalc.json")])}


def check_relcalc_set4(state: dict, out: dict, seed: int) -> tuple[dict, list[str]]:
    from finext.setrel import ORACLE_IDENTITY_IDS

    bad: list[str] = []
    rc, _text = out["relcalc"]
    doc = _report(state["work"] / "relcalc.json")
    _expect(bad, rc == 0 and doc["summary"]["fail"] == 0, f"relcalc: exit status {rc}, summary {doc['summary']}")
    by_id = {e["id"]: e for e in doc["checks"]}
    for ident in ORACLE_IDENTITY_IDS:
        details = by_id.get(f"identity/{ident}", {}).get("details", {})
        _expect(bad, details.get("oracle_failures") == 0,
                f"relcalc identity/{ident}: oracle_failures {details.get('oracle_failures')}, expected 0")
    _expect_digest(bad, "relcalc", doc["digest"], REFERENCES["relcalc-set4"].get("digest"))
    return {"relcalc": doc["digest"]}, bad


WORKLOADS = {
    "report-set4": (setup_report_set4, run_report_set4, check_report_set4),
    "report-mon4": (setup_report_mon4, run_report_mon4, check_report_mon4),
    "battery": (setup_battery, run_battery, check_battery),
    "relcalc-set4": (setup_relcalc_set4, run_relcalc_set4, check_relcalc_set4),
}


# -- one iteration ----------------------------------------------------------------


def _cpu() -> float:
    """User plus system CPU seconds of this process (all threads) and its children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def iterate(workload: str, seed: int, work: Path, spawned_at: float, phase: str,
            trace_file: Path | None) -> dict:
    setup, run, check = WORKLOADS[workload]
    result: dict = {"workload": workload, "seed": seed, "phase": phase, "violations": []}
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if trace_file is not None:
        import importlib

        sys.path.insert(0, str(BENCH))
        from tracer import MODULES, Tracer

        tracer = Tracer()
        tracer.install({m: importlib.import_module(f"finext.{m}") for m in MODULES})
    state = setup(work, seed)
    t_first = time.monotonic()
    result["setup_s"] = t_first - spawned_at
    if phase == "setup":
        return result
    cpu0 = _cpu()
    out = run(state)
    result["verdict_s"] = time.monotonic() - t_first
    result["cpu_s"] = _cpu() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        spans = [
            {"function": fn, "parent": parent, "calls": n, "s": s, "self_s": own}
            for (fn, parent), (n, s, own) in sorted(tracer.spans().items())
        ]
        trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": layers,
                                          "spans": spans}, indent=1, sort_keys=True) + "\n")
        result["layers"] = layers
    result["digests"], result["violations"] = check(state, out, seed)
    import numpy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for inputs and reports")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "full"), default="full")
    ap.add_argument("--trace-file", type=Path, help="trace this iteration and write the trace here")
    args = ap.parse_args()
    try:
        result = iterate(args.workload, args.seed, args.work, args.spawned_at, args.phase, args.trace_file)
    except Exception as exc:  # one failed iteration is counted, not fatal to the run
        traceback.print_exc()
        print(json.dumps({"workload": args.workload, "seed": args.seed, "phase": args.phase,
                          "violations": [f"raised {type(exc).__name__}: {exc}"]}))
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
