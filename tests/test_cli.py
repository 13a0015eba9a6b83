"""Command-line surface: generation, validation, checking, reports.

Everything runs in-process through ``main(argv)``; exit codes follow the
contract 0 = no failures, 1 = some check failed (or, under --strict, was
inapplicable), 2 = usage or input error."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finext import cli, extensivity, setrel
from finext.algebra import FinAlgebra, dump_category, enumerate_structures
from finext.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    out = capsys.readouterr()
    return code, out.out


@pytest.fixture()
def set_file(tmp_path, capsys):
    path = tmp_path / "set3.json"
    code, _ = run(capsys, "gen", "--variety", "set", "--max-carrier", "3", "--output", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def klein_file(tmp_path):
    """The trivial monoid, Z2 and the Klein four-group V4."""
    ops = [[[0]], [[0, 1], [1, 0]], [[x ^ y for y in range(4)] for x in range(4)]]
    algs = [FinAlgebra("mon", len(op), {"e": 0, "op": op}) for op in ops]
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(dump_category("mon", algs, ["1", "Z2", "V4"])))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    code, _ = run(
        capsys,
        "gen", "--variety", "poset", "--max-carrier", "1", "--include-empty",
        "--output", str(path),
    )
    assert code == 0
    return str(path)


def test_gen_reports_counts_and_writes_loadable_files(set_file, chain_file, capsys):
    doc = json.load(open(set_file))
    assert doc["variety"] == "set"
    assert len(doc["algebras"]) == 4
    chain = json.load(open(chain_file))
    assert len(chain["algebras"]) == 2
    code, out = run(capsys, "validate", set_file)
    assert code == 0
    assert "valid set category file" in out
    assert "4 objects" in out and "60 morphisms" in out


def test_gen_connected_only_applies_to_posets(tmp_path, capsys):
    code, _ = run(
        capsys,
        "gen", "--variety", "set", "--connected", "--max-carrier", "2",
        "--output", str(tmp_path / "x.json"),
    )
    assert code == 2


@pytest.mark.parametrize("alias, short", [("semilattice", "slat"), ("lattice", "lat"), ("monoid", "mon")])
def test_gen_variety_alias_writes_the_same_file_as_its_short_name(tmp_path, capsys, alias, short):
    paths = {name: tmp_path / f"{name}.json" for name in (alias, short)}
    for name, path in paths.items():
        code, _ = run(capsys, "gen", "--variety", name, "--max-carrier", "2", "--output", str(path))
        assert code == 0
    assert paths[alias].read_bytes() == paths[short].read_bytes()


def test_validate_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algebras": "nope"}')
    code, _ = run(capsys, "validate", str(bad))
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _ = run(capsys, "validate", str(missing))
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "check", "relcalc", "srp"])
def test_object_names_that_collide_in_morphism_ids_are_an_input_error(tmp_path, command):
    # "a>b" to "c" and "a" to "b>c" both name their only morphism "a>b>c#0000"
    bad = tmp_path / "collide.json"
    names = ["a>b", "c", "a", "b>c"]
    bad.write_text(json.dumps({"variety": "set", "algebras": [{"name": x, "carrier": 1} for x in names]}))
    code, output = _run_quietly([command, str(bad)])
    assert code == 2, output
    assert "duplicate morphism id 'a>b>c#0000'" in output and "Traceback" not in output


@pytest.mark.parametrize("command", ["validate", "check", "relcalc", "srp"])
def test_a_carrier_above_256_is_an_input_error(tmp_path, command):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"variety": "set", "algebras": [{"name": "X", "carrier": 257}]}))
    code, output = _run_quietly([command, str(bad)])
    assert code == 2, output
    assert "algebras[0] (X): carrier above 256" in output and "Traceback" not in output


@pytest.mark.parametrize("command", ["validate", "check", "relcalc", "srp"])
@pytest.mark.parametrize(
    "carriers, message",
    [
        ([8], "more than 32768 morphisms: above the enumeration budget"),
        ([5, 5], "78125000 composable pairs: above the enumeration budget of 16777216"),
    ],
    ids=["morphisms", "pairs"],
)
def test_a_category_past_the_enumeration_budget_is_an_input_error(tmp_path, command, carriers, message):
    big = tmp_path / "big.json"
    algebras = [{"name": f"X{i}", "carrier": n} for i, n in enumerate(carriers)]
    big.write_text(json.dumps({"variety": "set", "algebras": algebras}))
    code, output = _run_quietly([command, str(big)])
    assert code == 2, output
    assert output == f"error: {big}: {message}\n"


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """``run`` without capsys, for Hypothesis; returns stdout plus stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue() + err.getvalue()


_ONE_SET = [{"name": "A", "carrier": 1}]


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"signature": 5, "algebras": _ONE_SET}, "signature"),
        ({"signature": None, "algebras": _ONE_SET}, "signature"),
        ({"variety": ["set"], "algebras": _ONE_SET}, "variety"),
        ({"signature": "x", "algebras": []}, "signature"),
        ({"signature": [{"name": ["e"], "arity": 0}], "algebras": _ONE_SET}, "signature"),
    ],
    ids=["signature-int", "signature-null", "variety-list", "signature-string", "signature-name-list"],
)
@pytest.mark.parametrize("command", ["validate", "check"])
def test_mistyped_signature_or_variety_is_an_input_error(tmp_path, doc, field, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = _run_quietly([command, str(bad)])
    assert code == 2 and f"{field}: expected" in output


def _fuzz_bases() -> list[dict]:
    return [
        dump_category(kind, enumerate_structures(kind, 2, None), max_carrier=2)
        for kind in ("set", "pointed", "poset", "mon")
    ]


def _checked_paths(value, path=()):
    """Every value the loader type-checks: everything under variety,
    signature and algebras (other top-level keys are not read)."""
    if not path:
        for key in ("variety", "signature", "algebras"):
            yield from _checked_paths(value[key], (key,))
        return
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _checked_paths(child, (*path, key))


# replacement values of another JSON type than the original's
_OTHER_TYPES = {
    int: ["x", None, True, 1.5, [], {}],
    str: [5, None, True, [], {}],
    list: ["x", 5, None, {}],
    dict: ["x", 5, None, []],
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_truncated_or_mistyped_category_files_exit_2(data):
    doc = data.draw(st.sampled_from(_fuzz_bases()))
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        text = text[: data.draw(st.integers(min_value=0, max_value=len(text) - 1))]
    else:
        path = data.draw(st.sampled_from(list(_checked_paths(doc))))
        doc = json.loads(text)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from(_OTHER_TYPES[type(parent[path[-1]])]))
        text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(text)
        for command in ("validate", "check"):
            code, output = _run_quietly([command, str(bad)])
            assert code == 2, (command, text)
            assert "Traceback" not in output


def test_check_whole_category_both_modes(set_file, capsys):
    code, out = run(capsys, "check", set_file, "--mode", "extensive")
    assert code == 0
    assert "summary: 61 pass, 0 fail, 0 inapplicable (61 checks)" in out
    code, out = run(capsys, "check", set_file, "--mode", "coextensive")
    assert code == 1


def test_check_single_morphism_emits_both_routes(set_file, capsys):
    code, out = run(capsys, "check", set_file, "--morphism", "s2>s3#0001", "--mode", "extensive")
    assert code == 0
    assert "s2>s3#0001/E1" in out
    assert "s2>s3#0001/E2" in out
    assert "s2>s3#0001/extensive" in out
    assert "(3 checks)" in out


def test_timing_ms_is_the_time_of_each_entrys_own_check(set_file, tmp_path, capsys, monkeypatch):
    # the E2 entry's check sleeps; the verdict runs E2 again, without the sleep
    real, calls = extensivity.check_e2, []

    def slow_first_call(cat, mid):
        if not calls:
            time.sleep(0.05)
        calls.append(mid)
        return real(cat, mid)

    monkeypatch.setattr(extensivity, "check_e2", slow_first_call)
    rep = tmp_path / "r.json"
    code, _ = run(capsys, "check", set_file, "--morphism", "s2>s3#0001", "--report", str(rep))
    assert code == 0 and len(calls) == 2
    timing = {e["id"]: e["timing_ms"] for e in json.load(open(rep))["checks"]}
    assert timing["s2>s3#0001/E2"] >= 50
    assert timing["s2>s3#0001/E1"] < 50 and timing["s2>s3#0001/extensive"] < 50


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "--seed", "1"], 2),
        (["check", "--jobs", "2"], 2),
        (["srp", "--max-relation-size", "4"], 2),
        (["relcalc", "--seed", "1"], 2),
        (["verify-paper", "--suite", "prop-composite", "--jobs", "2"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_each_command_takes_only_the_flags_it_reads(set_file, argv, code):
    command, *flags = argv
    got, output = _run_quietly([command, *([] if command == "verify-paper" else [set_file]), *flags])
    assert got == code, output
    assert ("unrecognized arguments" in output) == (code == 2)


def test_check_unknown_morphism_is_a_usage_error(set_file, capsys):
    code, _ = run(capsys, "check", set_file, "--morphism", "bogus", "--mode", "extensive")
    assert code == 2


def test_check_object_identity_and_srp_paths(set_file, klein_file, capsys):
    code, out = run(capsys, "check", set_file, "--object", "s1", "--mode", "coextensive")
    assert code == 0
    assert "s1/identity-coextensive" in out
    code, out = run(capsys, "check", set_file, "--object", "s0", "--srp", "2")
    assert code == 0
    assert "pass          s0/srp-2" in out
    code, out = run(capsys, "check", klein_file, "--object", "V4", "--srp", "2")
    assert code == 1
    assert "V4/srp-2" in out and "no-grid" in out


def test_two_point_chain_report_carries_the_frozen_square(chain_file, tmp_path, capsys):
    rep = tmp_path / "report.json"
    code, out = run(
        capsys, "check", chain_file, "--mode", "coextensive", "--report", str(rep)
    )
    assert code == 1
    assert "P0>P0#0000/coextensive" in out
    assert "square-not-pushout" in out
    doc = json.load(open(rep))
    ids = [e["id"] for e in doc["checks"]]
    assert ids == sorted(ids)
    assert doc["summary"] == {"pass": 2, "fail": 2, "inapplicable": 0, "total": 4}
    entry = next(e for e in doc["checks"] if e["id"] == "P0>P0#0000/coextensive")
    assert entry["witness"] == {
        "kind": "square-not-pushout",
        "morphism": "P0>P0#0000",
        "top": ["P0>P0#0000", "P0>P0#0000"],
        "bottom": ["P0>P0#0000", "P0>P1#0000"],
        "verticals": ["P0>P0#0000", "P0>P1#0000"],
        "side": "right",
    }
    assert "category/coextensive" in ids


def test_srp_command_scans_every_object(set_file, klein_file, capsys):
    code, out = run(capsys, "srp", set_file)
    assert code == 0
    assert "s0/srp-2" in out
    assert "(4 checks)" in out
    code, out = run(capsys, "srp", klein_file)
    assert code == 1  # V4 = Z2 x Z2 splits two ways with no common grid
    assert "fail          V4/srp-2  [no-grid]" in out
    assert "summary: 2 pass, 1 fail, 0 inapplicable (3 checks)" in out


def test_relcalc_command_counts_and_strict_mode(set_file, capsys):
    code, out = run(capsys, "relcalc", set_file)
    assert code == 0
    assert "summary: 14 pass, 0 fail, 1 inapplicable (15 checks)" in out
    code, _ = run(capsys, "relcalc", set_file, "--strict")
    assert code == 1  # strict escalates the honest inapplicable


def test_relcalc_at_cap_16_runs_the_oracle_on_two_by_two_carriers(set_file, tmp_path, capsys):
    # prod-interchange reaches the product of two 2-point carriers here
    rep = tmp_path / "r.json"
    code, out = run(capsys, "relcalc", set_file, "--max-relation-size", "16", "--report", str(rep))
    assert code == 0
    assert "summary: 14 pass, 0 fail, 1 inapplicable (15 checks)" in out
    checks = {c["id"]: c for c in json.load(open(rep))["checks"]}
    assert checks["identity/prod-interchange"]["details"]["oracle_instances"] == 2689561


@pytest.mark.parametrize("command", ["relcalc", "verify-paper"])
@pytest.mark.parametrize("value", ["-3", "-1", "nine"])
def test_max_relation_size_must_be_a_non_negative_integer(set_file, capsys, command, value):
    argv = [command, set_file] if command == "relcalc" else [command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-relation-size", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--max-relation-size: expected an integer >= 0" in out.err


def _refuse_work(monkeypatch):
    """Make every relation-calculus entry point, the built-in categories and
    the oracle raise if they start."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("started work on a rejected cap")

    for name in ("identity_suite", "barr_exact_check", "sub_poset", "proposition_suite", "build_category"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(setrel, "oracle_suite", refuse)


@pytest.mark.parametrize("carrier,cap,masks", [(4, 16, 1 << 34), (3, 36, 1 << 36)])
def test_relcalc_rejects_a_cap_whose_oracle_cannot_be_built(tmp_path, capsys, monkeypatch, carrier, cap, masks):
    path = tmp_path / "set.json"
    assert run(capsys, "gen", "--variety", "set", "--max-carrier", str(carrier), "--output", str(path))[0] == 0
    _refuse_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["relcalc", str(path), "--max-relation-size", str(cap)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--max-relation-size {cap} needs oracle arrays of {masks} masks" in out.err


@pytest.mark.parametrize("suite", ["all", "relcalc", "delta-unit"])
def test_verify_paper_rejects_a_cap_whose_oracle_cannot_be_built(capsys, monkeypatch, suite):
    _refuse_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--suite", suite, "--max-relation-size", "36"])
    assert exc.value.code == 2
    assert f"needs oracle arrays of {1 << 36} masks" in capsys.readouterr().err


def test_report_digest_is_stable_across_runs(set_file, tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "check", set_file, "--mode", "extensive", "--report", str(r1))[0] == 0
    assert run(capsys, "check", set_file, "--mode", "extensive", "--report", str(r2))[0] == 0
    d1, d2 = json.load(open(r1)), json.load(open(r2))
    assert d1["digest"] == d2["digest"]

    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k != "timing_ms"}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v

    assert strip(d1) == strip(d2)


def test_verify_paper_single_statement(tmp_path, capsys):
    rep = tmp_path / "r.json"
    code, out = run(capsys, "verify-paper", "--suite", "prop-composite", "--report", str(rep))
    assert code == 0
    doc = json.load(open(rep))
    assert doc["summary"]["total"] == 1
    assert doc["checks"][0]["id"] == "finset3/prop-composite"


def test_verify_paper_runs_the_identity_suite_once_for_listed_ids(set3, tmp_path, capsys, monkeypatch):
    real, calls = cli.identity_suite, []

    def identity_suite(cat, max_relation_size=9):
        calls.append(cat)
        return real(cat, max_relation_size=max_relation_size)

    monkeypatch.setattr(cli, "identity_suite", identity_suite)
    rep = tmp_path / "r.json"
    code, _ = run(capsys, "verify-paper", "--suite", "delta-unit,nabla-absorb", "--report", str(rep))
    assert code == 0 and len(calls) == 1
    # the entries of one suite run per listed id
    by_id = dict(real(set3[0]))
    want = cli.Report("verify-paper", {}, "")
    for cid in ("delta-unit", "nabla-absorb"):
        want.add(f"finset3/{cid}", by_id[cid], 0.0)
    got = [{k: v for k, v in e.items() if k != "timing_ms"} for e in json.load(open(rep))["checks"]]
    assert got == [{k: v for k, v in e.items() if k != "timing_ms"} for e in json.loads(json.dumps(want.entries))]


def test_verify_paper_rejects_unknown_ids(capsys):
    code, _ = run(capsys, "verify-paper", "--suite", "nope")
    assert code == 2


def test_verify_paper_is_deterministic_and_jobs_invariant(tmp_path, capsys):
    reports = [tmp_path / f"r{i}.json" for i in range(3)]
    a = run(capsys, "verify-paper", "--suite", "3", "--seed", "7", "--report", str(reports[0]))
    b = run(capsys, "verify-paper", "--suite", "3", "--seed", "7", "--report", str(reports[1]))
    c = run(
        capsys,
        "verify-paper", "--suite", "3", "--seed", "7", "--jobs", "4",
        "--report", str(reports[2]),
    )
    assert a[0] == b[0] == c[0] == 0
    docs = [json.load(open(r)) for r in reports]
    assert docs[0]["digest"] == docs[1]["digest"] == docs[2]["digest"]
    assert docs[0]["summary"]["total"] == 23


def test_input_may_be_positional_or_flag_but_not_conflicting(set_file, capsys):
    code_pos, _ = run(capsys, "validate", set_file)
    code_flag, _ = run(capsys, "validate", "--input", set_file)
    assert code_pos == 0 and code_flag == 0
    code, _ = run(capsys, "validate", set_file, "--input", "/tmp/other.json")
    assert code == 2
