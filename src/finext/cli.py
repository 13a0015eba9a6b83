"""Command-line frontend.

Subcommands
-----------
- ``gen``           enumerate a variety up to a carrier budget, write the
                    category file
- ``validate``      parse a category file and report structural/law errors
- ``check``         extensivity/coextensivity checks for a morphism, an
                    object's identity, or the whole category
- ``srp``           strict-refinement checks per object
- ``relcalc``       subobject posets, the relation-calculus identity suite,
                    and the exactness biconditional
- ``verify-paper``  the whole battery over built-in regenerated categories

Every command that runs checks prints one line per non-pass entry (all
entries when few), a summary, and a digest, and can write the full JSON
report with ``--report``.  Exit status: 0 when no entry fails, 1 when one
does (``--strict`` also counts inapplicable entries), 2 on usage or input
errors, an output path that cannot be written among them (a ``--report``
path is tried before any check runs).  Reports are deterministic for fixed
inputs and flags: entries are sorted by id, sampled checks derive from
``--seed``, and each entry's ``timing_ms`` is kept out of the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Any, Iterable, NoReturn, Sequence

from . import __version__, extensivity, setrel
from .algebra import (
    _VARIETY_ALIASES,
    build_category,
    category_from_algebras,
    dump_category,
    enumerate_hom_sets,
    enumerate_structures,
    load_category,
)
from .extensivity import CheckStatus, _plain
from .fincat import CategoryDataError, FinCategory, dual_of, validate
from .propositions import (
    PROPOSITION_IDS,
    EXTENSIVITY_IDS,
    RELCALC_IDS,
    proposition_suite,
)
from .relcalc import IDENTITY_IDS, barr_exact_check, identity_suite, oracle_max_size, sub_poset

# -- reports ------------------------------------------------------------------


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Report:
    """Accumulates check entries; renders canonical JSON + human lines."""

    def __init__(self, command: str, options: dict, input_digest: str):
        self.command = command
        self.options = options
        self.input_digest = input_digest
        self.entries: list[dict] = []

    def add(self, check_id: str, status: CheckStatus, timing_ms: float) -> None:
        self.entries.append({"id": check_id, **status.as_dict(), "timing_ms": round(timing_ms, 3)})

    def finish(self) -> dict:
        self.entries.sort(key=lambda e: e["id"])
        counts = {"pass": 0, "fail": 0, "inapplicable": 0}
        for e in self.entries:
            counts[e["status"]] += 1
        doc: dict[str, Any] = {
            "tool": "finext",
            "version": __version__,
            "command": self.command,
            "options": _plain(self.options),
            "input_digest": self.input_digest,
            "checks": self.entries,
            "summary": {**counts, "total": len(self.entries)},
        }
        untimed = [{k: v for k, v in e.items() if k != "timing_ms"} for e in self.entries]
        doc["digest"] = hashlib.sha256(
            _canonical_json({**doc, "checks": untimed}).encode()
        ).hexdigest()
        return doc


def _emit(report: Report, args: argparse.Namespace) -> int:
    doc = report.finish()
    entries = doc["checks"]
    show_all = len(entries) <= 40
    for e in entries:
        if show_all or e["status"] != "pass":
            kind = e.get("witness", {}).get("kind", "") if e["status"] != "pass" else ""
            print(f"  {e['status']:<13} {e['id']}" + (f"  [{kind}]" if kind else ""))
    s = doc["summary"]
    print(
        f"summary: {s['pass']} pass, {s['fail']} fail, "
        f"{s['inapplicable']} inapplicable ({s['total']} checks)"
    )
    print(f"digest: {doc['digest']}")
    if args.report:
        _write_json(args.report, doc)
        print(f"report written to {args.report}")
    bad = s["fail"] + (s["inapplicable"] if args.strict else 0)
    return 1 if bad else 0


Entries = Iterable[tuple[str, CheckStatus]]


def _run_units(report: Report, entries: Entries) -> None:
    """Add each (check id, status) entry with the wall time spent since the
    previous one, so a computation that yields several entries at once is
    timed on its first.  The report is sorted at the end, so the order never
    shows in the output.  (``bench/tracer.py`` wraps this function by name.)"""
    t0 = time.perf_counter()
    for check_id, status in entries:
        report.add(check_id, status, (time.perf_counter() - t0) * 1000.0)
        t0 = time.perf_counter()


# -- files --------------------------------------------------------------------


def _fail_usage(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys; a path that cannot
    be written is an input error."""
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc}")


def _check_writable(path: str) -> None:
    """Exit 2 now, before any check runs, when ``path`` cannot be opened
    for writing.  An existing file is left as it is; one the probe makes
    is removed again."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc}")
    if not existed:
        os.remove(path)


def _load_input(args: argparse.Namespace) -> tuple[FinCategory, str]:
    path = args.input
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        _fail_usage(f"cannot read {path}: {exc}")
    try:
        data = json.loads(raw)
    except ValueError as exc:
        _fail_usage(f"{path}: not valid JSON ({exc})")
    parsed, errors = load_category(data)
    if parsed is None:
        for msg in errors:
            print(f"error: {path}: {msg}", file=sys.stderr)
        raise SystemExit(2)
    kind, algs, names = parsed
    try:
        cat, _uni = category_from_algebras(kind, algs, names)
    except CategoryDataError as exc:  # names that make two morphism ids collide
        _fail_usage(f"{path}: {exc}")
    return cat, hashlib.sha256(raw).hexdigest()


# -- gen ----------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    variety = _VARIETY_ALIASES[args.variety]
    if args.max_carrier < 0:
        _fail_usage("--max-carrier must be nonnegative")
    if args.max_carrier > 4:
        _fail_usage("--max-carrier above 4 exceeds the enumeration budget")
    algs = enumerate_structures(variety, args.max_carrier, args.include_empty)
    doc = dump_category(variety, algs, max_carrier=args.max_carrier)
    path = args.output or f"{args.variety}{args.max_carrier}.json"
    _write_json(path, doc)
    homs = enumerate_hom_sets(variety, algs)  # the counts need no composition table
    print(f"wrote {path}: {len(homs.names)} objects, {len(homs.mor_ids)} morphisms")
    return 0


# -- validate -----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    cat, _digest = _load_input(args)
    violations = validate(cat)
    for v in violations:
        print(f"invalid: {v}")
    if violations:
        print(f"{args.input}: {len(violations)} coherence violation(s)")
        return 2
    print(
        f"{args.input}: valid {cat.metadata['kind']} category file, "
        f"{len(cat.objects)} objects, {cat.n_mor} morphisms"
    )
    return 0


# -- check --------------------------------------------------------------------


def _morphism_entries(cat: FinCategory, mid: str, mode: str) -> Entries:
    """Route one, route two, then the verdict of one morphism."""
    if mode == "extensive":
        routes = (("E1", extensivity.check_e1), ("E2", extensivity.check_e2))
    else:
        routes = (("C1", extensivity.check_c1), ("C2", extensivity.check_c2))
    for label, route in routes:
        yield f"{mid}/{label}", route(cat, mid)
    yield f"{mid}/{mode}", extensivity.morphism_status(cat, cat.m(mid), mode)


def _category_entries(cat: FinCategory, mode: str) -> Entries:
    """Every morphism's verdict in index order, the order ``category_report``
    reads them, then the category verdict, which reads them back."""
    for i in range(cat.n_mor):
        yield f"{cat.mid(i)}/{mode}", extensivity.morphism_status(cat, i, mode)
    rep = extensivity.category_report(cat, mode)
    yield f"category/{mode}", CheckStatus(
        rep["verdict"],
        None if rep["verdict"] == "pass" else {"kind": "morphism-failed"},
        {
            "reduced_verdict": rep["reduced_verdict"],
            "reduced_scope": len(rep["reduced_scope"]),
            "binary_coproducts_exist": rep["binary_coproducts_exist"],
            "verdicts_agree": rep["verdicts_agree"],
        },
    )


def cmd_check(args: argparse.Namespace) -> int:
    cat, digest = _load_input(args)
    mode = args.mode
    report = Report(
        "check",
        {
            "mode": mode,
            "morphism": args.morphism,
            "object": args.object,
            "srp": args.srp,
            "strict": args.strict,
        },
        digest,
    )
    entries: Entries
    if args.morphism is not None:
        if args.morphism not in cat.mor_index:
            _fail_usage(f"unknown morphism id {args.morphism!r}")
        entries = _morphism_entries(cat, args.morphism, mode)
    elif args.srp is not None:
        entries = _srp_entries(cat, _objects(cat, args.object), args.srp)
    elif args.object is not None:
        entries = (
            (f"{oid}/identity-{mode}", extensivity.morphism_status(cat, cat.identity_of[cat.o(oid)], mode))
            for oid in _objects(cat, args.object)
        )
    else:
        entries = _category_entries(cat, mode)
    _run_units(report, entries)
    return _emit(report, args)


# -- srp ----------------------------------------------------------------------


def _objects(cat: FinCategory, oid: str | None) -> list[str]:
    """The one named object, or every object; an unknown id is a usage error."""
    if oid is None:
        return list(cat.objects)
    if oid not in cat.objects:
        _fail_usage(f"unknown object id {oid!r}")
    return [oid]


def _srp_entries(cat: FinCategory, objs: list[str], k: int) -> Entries:
    """One strict-refinement entry per object, for product cones of arities 2..k."""
    if k < 2:
        _fail_usage("--srp takes an arity bound of at least 2")
    return ((f"{oid}/srp-{k}", extensivity.has_finite_srp(cat, oid, k)) for oid in objs)


def cmd_srp(args: argparse.Namespace) -> int:
    cat, digest = _load_input(args)
    k = args.srp if args.srp is not None else 2
    entries = _srp_entries(cat, _objects(cat, args.object), k)
    report = Report("srp", {"object": args.object, "srp": k, "strict": args.strict}, digest)
    _run_units(report, entries)
    return _emit(report, args)


# -- relcalc ------------------------------------------------------------------


def _require_oracle_fits(cap: int, max_size: int | None) -> None:
    """Exit 2 when the set-relation oracle on carriers up to ``max_size``
    would walk a grid of more than ``setrel.ORACLE_MASK_LIMIT`` elements
    at this cap."""
    masks = 0 if max_size is None else setrel.oracle_masks(cap, max_size)
    if masks > setrel.ORACLE_MASK_LIMIT:
        _fail_usage(f"--max-relation-size {cap} needs oracle arrays of {masks} masks (limit {setrel.ORACLE_MASK_LIMIT})")


def _relcalc_entries(cat: FinCategory, objs: list[str], cap: int) -> Entries:
    for oid in objs:
        classes, leq = sub_poset(cat, oid)
        pairs = sum(sum(1 for v in row if v) for row in leq)
        yield f"sub-poset/{oid}", CheckStatus("pass", None, {"classes": len(classes), "leq_pairs": pairs})
    for iid, st in identity_suite(cat, max_relation_size=cap):
        yield f"identity/{iid}", st
    yield "barr-exact", barr_exact_check(cat, max_relation_size=cap)


def cmd_relcalc(args: argparse.Namespace) -> int:
    cat, digest = _load_input(args)
    cap = args.max_relation_size
    _require_oracle_fits(cap, oracle_max_size(cat))
    objs = _objects(cat, args.object)
    report = Report(
        "relcalc",
        {"object": args.object, "max_relation_size": cap, "strict": args.strict},
        digest,
    )
    _run_units(report, _relcalc_entries(cat, objs, cap))
    return _emit(report, args)


# -- verify-paper -------------------------------------------------------------

# (label, variety, max carrier, include_empty, dualize)
_BUILTINS: tuple[tuple[str, str, int, bool | None, bool], ...] = (
    ("finset3", "set", 3, None, False),
    ("finset3-op", "set", 3, None, True),
    ("pointed3", "pointed", 3, None, False),
    ("golden-poset", "poset", 1, True, False),
    ("slat3", "slat", 3, None, False),
    ("lat4", "lat", 4, None, False),
    ("cpos3", "cpos", 3, None, False),
    ("mon3", "mon", 3, None, False),
)
_RELCALC_LABELS = ("finset3", "finset3-op", "lat4")
_IDENTITY_LABELS = ("finset3", "lat4")


def _build_builtin(entry: tuple[str, str, int, bool | None, bool]) -> FinCategory:
    _label, kind, n, empty, dualize = entry
    cat, _uni = build_category(kind, n, empty)
    return dual_of(cat) if dualize else cat


def _parse_suite(raw: str) -> tuple[bool, bool, list[str]]:
    """-> (run extensivity statements, run relation-calculus statements, explicit id list)."""
    token = raw.strip().lower()
    if token == "all":
        return True, True, []
    if token in ("extensivity", "2"):
        return True, False, []
    if token in ("relcalc", "3"):
        return False, True, []
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    known = set(PROPOSITION_IDS) | set(IDENTITY_IDS) | {"barr-exact"}
    unknown = [i for i in ids if i not in known]
    if unknown:
        _fail_usage(f"unknown check id(s) in --suite: {', '.join(unknown)}")
    if not ids:
        _fail_usage("--suite must be all, extensivity (2), relcalc (3), or a comma-separated id list")
    return False, False, ids


def _builtin_entries(
    cat: FinCategory, label: str, run2: bool, run3: bool, explicit: list[str], seed: int, cap: int
) -> Entries:
    """One built-in's checks in their running order: the listed ids, or its
    extensivity statements, then its identity suite and its
    relation-calculus statements where its label is listed."""

    def statements(pids: Iterable[str]) -> Entries:
        for pid in pids:
            for p, st in proposition_suite(cat, [pid], seed=seed, max_relation_size=cap):
                yield f"{label}/{p}", st

    listed = None  # the identity suite, run once at the first listed identity
    for cid in explicit:
        if cid in PROPOSITION_IDS:
            yield from statements([cid])
        elif cid in IDENTITY_IDS:
            if listed is None:
                listed = dict(identity_suite(cat, max_relation_size=cap))
            yield f"{label}/{cid}", listed[cid]
        else:
            yield f"{label}/barr-exact", barr_exact_check(cat, max_relation_size=cap)
    if run2:
        yield from statements(EXTENSIVITY_IDS)
    if run3 and label in _IDENTITY_LABELS:
        for iid, st in identity_suite(cat, max_relation_size=cap):
            yield f"{label}/{iid}", st
    if run3 and label in _RELCALC_LABELS:
        yield from statements(RELCALC_IDS)


def _battery_entries(run2: bool, run3: bool, explicit: list[str], seed: int, cap: int) -> Entries:
    """The battery's checks, one built-in at a time: listed ids read
    finset3 alone, the extensivity statements read every built-in and the
    relation-calculus checks the listed labels.  A built-in is built when
    its first check is due and freed by refcount once its last has run, so
    the caches of one category at most are alive."""
    for entry in _BUILTINS:
        label = entry[0]
        ids = explicit if label == "finset3" else []
        if ids or run2 or run3 and label in _IDENTITY_LABELS + _RELCALC_LABELS:
            yield from _builtin_entries(_build_builtin(entry), label, run2, run3, ids, seed, cap)


def cmd_verify_paper(args: argparse.Namespace) -> int:
    run2, run3, explicit = _parse_suite(args.suite)
    cap = args.max_relation_size
    if run3 or set(explicit) & set(IDENTITY_IDS):
        _require_oracle_fits(cap, 3)  # finset3's identity suite
    roster = [
        {"label": lbl, "variety": kind, "max_carrier": n, "include_empty": empty, "dual": dl}
        for lbl, kind, n, empty, dl in _BUILTINS
    ]
    digest = hashlib.sha256(
        _canonical_json({"builtins": roster, "seed": args.seed}).encode()
    ).hexdigest()
    report = Report(
        "verify-paper",
        {
            "suite": args.suite,
            "seed": args.seed,
            "strict": args.strict,
            "max_relation_size": cap,
        },
        digest,
    )
    _run_units(report, _battery_entries(run2, run3, explicit, args.seed, cap))
    return _emit(report, args)


# -- entry point --------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", metavar="INPUT", help="category file")


def _add_report(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--report", help="write the full JSON report here")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on inapplicable entries too",
    )


def _add_max_relation_size(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-relation-size",
        type=_non_negative_int,
        default=9,
        help="largest ambient product size enumerated in the relation calculus",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finext",
        description="checks for extensive and coextensive morphisms in finite categories",
    )
    parser.add_argument("--version", action="version", version=f"finext {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="enumerate a variety and write a category file")
    gen.add_argument("--variety", required=True, choices=_VARIETY_ALIASES)
    gen.add_argument("--max-carrier", type=int, required=True)
    gen.add_argument(
        "--include-empty",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include the empty structure (default: only for sets)",
    )
    gen.add_argument("--output", help="output file")

    val = subs.add_parser("validate", help="validate a category file")
    _add_input(val)

    chk = subs.add_parser("check", help="extensivity checks on a category file")
    _add_input(chk)
    _add_report(chk)
    chk.add_argument("--morphism", help="check this morphism id")
    chk.add_argument("--mode", choices=("extensive", "coextensive"), default="extensive")
    chk.add_argument("--object", help="restrict to this object id")
    chk.add_argument("--srp", type=int, help="strict-refinement arity bound (>= 2)")

    srp = subs.add_parser("srp", help="strict-refinement checks per object")
    _add_input(srp)
    _add_report(srp)
    srp.add_argument("--object", help="restrict to this object id")
    srp.add_argument("--srp", type=int, help="arity bound (default 2)")

    rel = subs.add_parser("relcalc", help="relation-calculus suite on a category file")
    _add_input(rel)
    _add_report(rel)
    _add_max_relation_size(rel)
    rel.add_argument("--object", help="restrict subobject posets to this object id")

    vp = subs.add_parser("verify-paper", help="run the built-in verification battery")
    _add_report(vp)
    _add_max_relation_size(vp)
    vp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    vp.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    vp.add_argument(
        "--suite",
        default="all",
        help="all, extensivity (2), relcalc (3), or a comma-separated list of check ids",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "report", None):
        _check_writable(args.report)
    handlers = {
        "gen": cmd_gen,
        "validate": cmd_validate,
        "check": cmd_check,
        "srp": cmd_srp,
        "relcalc": cmd_relcalc,
        "verify-paper": cmd_verify_paper,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
