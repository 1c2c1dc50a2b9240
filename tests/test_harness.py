"""Instance generation, suite plumbing, CSV determinism, and the CLI."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subpot
import subpot.characteristics as characteristics
import subpot.harness as harness
import subpot.inequalities as inequalities
import subpot.sets as sets
from subpot import (
    ALL_CHECKERS,
    PROBE_CHECKERS,
    AtomicMeasure,
    DeltaSubharmonicFn,
    IntervalSet,
    QuadratureSpec,
    SubharmonicPotential,
    SuiteConfig,
    Weight,
    delta_from_doc,
    delta_to_doc,
    generate_instance,
    lemma4_check,
    main_theorem_T,
    rng_for,
    rows_to_csv,
    run_check,
    run_suite,
    run_unit,
)
from subpot.cli import main as cli_main
from subpot.harness import canonical_json, combo_count

SMALL = SuiteConfig(seed=7, instances=2, checkers=("lemma2", "lemma3", "pjp_identity"))


def test_rng_stream_is_keyed_by_checker_and_index():
    a1, s1 = rng_for(5, "lemma2", 0)
    a2, s2 = rng_for(5, "lemma2", 0)
    b, s3 = rng_for(5, "lemma2", 1)
    c, _ = rng_for(5, "lemma3", 0)
    assert s1 == s2
    assert a1.random() == a2.random()
    assert s1 != s3
    draws = {float(g.random()) for g in (rng_for(5, "lemma2", 0)[0], b, c)}
    assert len(draws) == 3


def test_rng_stream_is_philox_on_the_hashed_key():
    for seed, name, index in [(5, "lemma2", 0), (SuiteConfig().seed, "main_theorem_T", 24)]:
        rng, subseed = rng_for(seed, name, index)
        digest = hashlib.blake2b(f"{seed}:{name}:{index}".encode(), digest_size=16).digest()
        ref = np.random.Generator(np.random.Philox(key=np.frombuffer(digest, dtype=np.uint64)))
        assert subseed == int.from_bytes(digest[:8], "little")
        assert rng.random(8).tolist() == ref.random(8).tolist()
        assert rng.integers(0, 2**62, 8).tolist() == ref.integers(0, 2**62, 8).tolist()


def test_generated_instances_are_deterministic():
    cfg = SuiteConfig(seed=11, instances=1)
    for name in ALL_CHECKERS:
        one = generate_instance(name, rng_for(11, name, 3)[0], cfg)
        two = generate_instance(name, rng_for(11, name, 3)[0], cfg)
        assert canonical_json(one.base_doc) == canonical_json(two.base_doc)
        assert one.combos == two.combos


def test_generated_instances_satisfy_checkers():
    cfg = SuiteConfig(seed=23, instances=1)
    for name in ALL_CHECKERS:
        inst = generate_instance(name, rng_for(23, name, 0)[0], cfg)
        combos = inst.combos or ({},)
        for combo in combos:
            doc = dict(inst.base_doc)
            doc.update(combo)
            rep = run_check(name, doc, quad=cfg.quad_override())
            if name not in PROBE_CHECKERS:
                assert rep.holds(), (name, combo)


def test_generated_atoms_clear_probe_radii():
    cfg = SuiteConfig(seed=31, instances=1)
    for idx in range(6):
        inst = generate_instance("main_theorem_T", rng_for(31, "main_theorem_T", idx)[0], cfg)
        doc = inst.base_doc
        moduli = [math.hypot(a["re"], a["im"]) for a in doc["u"]["plus_atoms"] + doc["u"]["minus_atoms"]]
        probes = [doc["r0"], doc["r"]]
        for k in cfg.k_values:
            probes += [k * doc["r"], math.sqrt(k) * doc["r"]]
        for m in moduli:
            assert min(abs(m - p) for p in probes) >= 1e-3 * min(1.0, max(probes))


def test_run_unit_is_deterministic():
    rows1, fails1 = run_unit("lemma4", 2, SMALL)
    rows2, fails2 = run_unit("lemma4", 2, SMALL)
    assert rows1 == rows2
    assert fails1 == fails2 == []


def test_suite_rows_and_exit_code():
    result = run_suite(SMALL)
    per_combo = sum(combo_count(n, SMALL) for n in SMALL.checkers)
    assert len(result.rows) == SMALL.instances * per_combo
    assert result.exit_code == 0
    assert all(r["holds"] for r in result.rows)


def test_checker_error_is_recorded_as_a_failure(monkeypatch):
    spec = harness.CHECKERS["lemma3"]
    bad = generate_instance("lemma3", rng_for(SMALL.seed, "lemma3", 1)[0], SMALL).base_doc

    def call(doc, quad):
        if doc == bad:
            raise ValueError("planted")
        return spec.call(doc, quad)

    clean = run_suite(SMALL)
    monkeypatch.setitem(harness.CHECKERS, "lemma3", dataclasses.replace(spec, call=call))
    result = run_suite(SMALL)
    bad_seed = rng_for(SMALL.seed, "lemma3", 1)[1]
    kept = [r for r in clean.rows if not (r["name"] == "lemma3" and r["seed"] == bad_seed)]
    assert len(kept) == len(clean.rows) - 1
    assert result.rows == kept
    assert [(f["name"], f["index"], f["stage"]) for f in result.failures] == [("lemma3", 1, "check")]
    assert result.exit_code == 2


def test_suite_csv_is_byte_identical():
    a = run_suite(SMALL).csv_text
    b = run_suite(SMALL).csv_text
    assert a == b


def test_parallel_matches_serial():
    serial = run_suite(SMALL)
    parallel = run_suite(SuiteConfig(seed=7, instances=2,
                                     checkers=("lemma2", "lemma3", "pjp_identity"), jobs=2))
    assert serial.csv_text == parallel.csv_text


def test_empty_checker_list_yields_empty_csv():
    result = run_suite(SuiteConfig(seed=1, instances=4, checkers=()))
    assert result.rows == []
    assert result.exit_code == 0
    assert result.csv_text.count("\n") == 1  # header only


def test_csv_columns_and_param_payload():
    result = run_suite(SuiteConfig(seed=3, instances=1, checkers=("lemma2",)))
    header, row = list(csv.reader(io.StringIO(result.csv_text)))[:2]
    assert header[:6] == ["name", "seed", "lhs", "rhs", "ratio", "holds"]
    parsed = json.loads(row[header.index("params")])
    assert "fingerprint" in parsed and "r" in parsed and "R" in parsed


def test_canonical_json_handles_nonfinite():
    doc = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": [1.0, {"z": 2}]}
    text = canonical_json(doc)
    assert '"inf"' in text and '"-inf"' in text and '"nan"' in text
    assert json.loads(text)["d"] == [1.0, {"z": 2}]


def test_config_from_doc():
    doc = {
        "seed": 99, "instances": 5, "checkers": ["lemma3"], "k_values": [1.5, 3],
        "p_values": [2, "inf"], "b_values": [0.25], "quad_rel_tol": 1e-7, "jobs": 2,
    }
    cfg = SuiteConfig.from_doc(doc)
    assert cfg == SuiteConfig(
        seed=99, instances=5, checkers=("lemma3",), k_values=(1.5, 3.0), p_values=(2.0, math.inf),
        b_values=(0.25,), quad_rel_tol=1e-7, jobs=2,
    )
    assert cfg.quad_override().rel_tol == 1e-7
    assert SuiteConfig.from_doc({}) == SuiteConfig()
    assert SuiteConfig().quad_override() is None


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # A misspelt key must not fall back to the default it meant to replace.
    for doc in ({"seeds": 5}, {"seed": 5, "radius_range": [0.1, 0.3]}):
        with pytest.raises(ValueError, match="unknown config keys"):
            SuiteConfig.from_doc(doc)
        cfg_fn = tmp_path / "suite.json"
        cfg_fn.write_text(json.dumps({**doc, "instances": 0}))
        assert cli_main(["suite", "--config", str(cfg_fn)]) == 3
        assert "unknown config keys" in capsys.readouterr().err
    # Null keeps the default only where the default is None.
    assert SuiteConfig.from_doc({"quad_rel_tol": None}) == SuiteConfig()
    with pytest.raises(TypeError):
        SuiteConfig.from_doc({"seed": None})


def test_cli_suite_flags_override_the_config_file(tmp_path, capsys):
    cfg_fn = tmp_path / "suite.json"
    cfg_fn.write_text(json.dumps({"seed": 7, "instances": 1, "checkers": ["lemma3"], "p_values": [2]}))
    out_csv = tmp_path / "report.csv"
    argv = ["suite", "--config", str(cfg_fn), "--checkers", "lemma2,main_lemma", "--p-values", "3,inf", "--out"]
    assert cli_main([*argv, str(out_csv)]) == 0
    capsys.readouterr()
    cfg = SuiteConfig(seed=7, instances=1, checkers=("lemma2", "main_lemma"), p_values=(3.0, math.inf))
    assert out_csv.read_text() == run_suite(cfg).csv_text


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(checkers=("nope",))
    with pytest.raises(ValueError):
        SuiteConfig(instances=-1)
    with pytest.raises(ValueError):
        SuiteConfig(k_values=(0.5,))
    with pytest.raises(ValueError):
        SuiteConfig(jobs=0)
    with pytest.raises(ValueError):
        SuiteConfig(p_values=(1.0,))


def test_combo_counts_under_default_config():
    cfg = SuiteConfig()
    assert combo_count("lemma2", cfg) == 1
    assert combo_count("main_lemma", cfg) == len(cfg.b_values) * len(cfg.p_values)
    assert combo_count("main_theorem_T", cfg) == len(cfg.k_values) * len(cfg.p_values)
    assert combo_count("nevanlinna_ratio", cfg) == len(cfg.k_values)
    assert combo_count("small_intervals_ratio", cfg) == len([b for b in cfg.b_values if b <= 1.0])


def test_rows_to_csv_floats_round_trip():
    rows, _ = run_unit("lemma3", 0, SuiteConfig(seed=13, instances=1, checkers=("lemma3",)))
    text = rows_to_csv(rows)
    lhs_cell = text.strip().split("\n")[1].split(",")[2]
    assert float(lhs_cell) == rows[0]["lhs"]


# --- command line ------------------------------------------------------------

def test_cli_counterexample_exits_clean(capsys):
    assert cli_main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_compute_potential(tmp_path, capsys):
    doc = {"atoms": [{"re": 0.0, "im": 0.0, "mass": 1.0}], "const": 0.0}
    fn = tmp_path / "instance.json"
    fn.write_text(json.dumps(doc))
    assert cli_main(["compute", "--fn", str(fn), "--r", "2.718281828459045"]) == 0
    out = capsys.readouterr().out
    assert "circle_mean" in out


def test_cli_check_generated_instance(capsys):
    assert cli_main(["check", "lemma2", "--gen-seed", "17"]) == 0
    out = capsys.readouterr().out
    assert "lemma2" in out and "holds=True" in out


def test_cli_check_save_and_reload(tmp_path, capsys):
    saved = tmp_path / "inst.json"
    assert cli_main(["check", "lemma4", "--gen-seed", "29", "--save", str(saved)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["check", "lemma4", "--fn", str(saved)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_suite_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    rc = cli_main([
        "suite", "--seed", "7", "--instances", "1",
        "--checkers", "lemma2,lemma3", "--out", str(out_csv),
    ])
    assert rc == 0
    assert out_csv.read_text().startswith("name,seed,")
    summary = capsys.readouterr().out
    assert "exit_code=0" in summary


def test_cli_suite_config_file(tmp_path):
    cfg_fn = tmp_path / "suite.json"
    cfg_fn.write_text(json.dumps({"seed": 7, "instances": 1, "checkers": ["lemma2"]}))
    assert cli_main(["suite", "--config", str(cfg_fn)]) == 0


def test_cli_bad_inputs_exit_three(tmp_path, capsys):
    assert cli_main(["check", "lemma2", "--fn", str(tmp_path / "missing.json")]) == 3
    assert cli_main(["check", "nope", "--gen-seed", "1"]) == 3
    assert cli_main(["check", "lemma2"]) == 3
    assert cli_main(["suite", "--checkers", "unknown_checker"]) == 3
    capsys.readouterr()


# --- caches shared across the documents of one file ---------------------------

def _pair_docs(name, key):
    """Instance 0 and instance 1's function carried on instance 0's set, radii and weight."""
    cfg = SuiteConfig(seed=1)
    a = generate_instance(name, rng_for(1, name, 0)[0], cfg)
    b = generate_instance(name, rng_for(1, name, 1)[0], cfg)
    first = {**a.base_doc, **a.combos[0]}
    return first, {**first, key: b.base_doc[key]}


def _check_lhs(capsys, name, path):
    assert cli_main(["check", name, "--fn", str(path)]) == 0
    out = capsys.readouterr().out
    return [float(line.split(" lhs=")[1].split()[0]) for line in out.splitlines()]


@pytest.mark.parametrize(
    "name,key", [("main_theorem_T", "u"), ("main_theorem_M", "v"), ("nevanlinna_ratio", "f")]
)
def test_check_file_documents_get_their_own_integral(name, key, tmp_path, capsys):
    first, second = _pair_docs(name, key)
    pair, solo = tmp_path / "pair.json", tmp_path / "solo.json"
    pair.write_text(json.dumps([first, second]))
    solo.write_text(json.dumps(second))
    paired = _check_lhs(capsys, name, pair)
    alone = _check_lhs(capsys, name, solo)
    assert paired[0] != alone[0]
    assert paired[1] == alone[0]


def test_check_file_replay_reuses_the_integral_across_p(tmp_path, capsys, monkeypatch):
    saved = tmp_path / "sweep.json"
    assert cli_main(["check", "main_theorem_T", "--gen-seed", "1", "--save", str(saved)]) == 0
    generated = capsys.readouterr().out
    calls = []
    original = inequalities.integrate_weighted

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(inequalities, "integrate_weighted", counting)
    inequalities._maxima_integral.cache_clear()
    assert cli_main(["check", "main_theorem_T", "--fn", str(saved)]) == 0
    assert capsys.readouterr().out == generated
    assert len(json.loads(saved.read_text())) == combo_count("main_theorem_T", SuiteConfig())
    assert len(calls) == 1


def test_quadrature_override_reaches_the_maxima_integral():
    # The U^+ circle maxima of -ln|z - 0.95| spike at t = 0.95, just past
    # E = [0.1, 0.9], so the lhs integral depends on the tolerance.  (A spike
    # inside E is subtracted, and -ln|t - 1/2| would leave nothing to
    # integrate.)  One memo serves all calls.
    u = DeltaSubharmonicFn(
        plus=SubharmonicPotential(), minus=SubharmonicPotential(AtomicMeasure.from_pairs([(0.95, 1.0)]))
    )
    doc = {
        "u": delta_to_doc(u),
        "e": [[0.1, 0.9]],
        "g_pieces": [{"interval": [0.0, 1.0], "coeffs": [1.0]}],
        "p": 2.0,
        "r": 1.0,
        "r0": 0.25,
        "k": 2.0,
    }
    default = run_check("main_theorem_T", doc)
    loose = run_check("main_theorem_T", doc, quad=QuadratureSpec(rel_tol=1e-3))
    assert loose.lhs != default.lhs
    assert run_check("main_theorem_T", doc).lhs == default.lhs


def _clear_memos():
    for module in (characteristics, inequalities, sets):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _unit_calls(name, module, binding, monkeypatch):
    """Calls of ``module.binding`` over one default unit, every memo cold."""
    calls = []
    original = getattr(module, binding)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, binding, counting)
    _clear_memos()
    cfg = SuiteConfig()
    rows, failures = run_unit(name, 0, cfg)
    assert failures == [] and len(rows) == combo_count(name, cfg) > len(calls)
    return len(calls)


@pytest.mark.parametrize(
    "name,binding", [("main_theorem_T", "integrate_weighted"), ("nevanlinna_ratio", "integrate_weighted")]
)
def test_run_unit_integrates_the_maxima_once_per_unit(name, binding, monkeypatch):
    assert _unit_calls(name, inequalities, binding, monkeypatch) == 1


def test_run_unit_computes_each_circle_characteristic_once(monkeypatch):
    # The means at r0 and at each k*r, whichever rule computes them (the
    # memo's misses); the single-radius maxima at each k*r.
    cfg = SuiteConfig()
    k_count = len(cfg.k_values)
    _clear_memos()
    rows, failures = run_unit("main_theorem_T", 0, cfg)
    assert failures == [] and len(rows) == combo_count("main_theorem_T", cfg)
    assert characteristics._quad_mean.cache_info().misses == 1 + k_count
    assert _unit_calls("main_theorem_M", characteristics, "max_on_circles", monkeypatch) == k_count


def test_run_unit_evaluates_the_maxima_first_panels_in_one_call(monkeypatch):
    # integrate_weighted evaluates the circle maxima once on the first panels
    # of every sub-interval; this unit refines none of them (4 calls when
    # each panel made its own).
    assert _unit_calls("main_theorem_T", inequalities, "max_on_circles", monkeypatch) == 1


def test_clear_memos_clears_the_lp_norm_memo():
    g = Weight(pieces=(((0.0, 1.0), (1.0, 1.0)),), p=2.0)
    sets.lp_norm(g, IntervalSet.from_pairs([(0.2, 0.5)]))
    assert sets._lp_norm.cache_info().currsize > 0
    _clear_memos()
    assert sets._lp_norm.cache_info().currsize == 0


@pytest.mark.parametrize("name", ALL_CHECKERS)
def test_unit_fingerprints_hash_the_whole_document(name):
    # run_unit hashes each combo's document without a _sanitize pass; the
    # fingerprint must be run_check's, which hashes the sanitised document.
    cfg = SuiteConfig()
    inst = generate_instance(name, rng_for(cfg.seed, name, 0)[0], cfg)
    rows, failures = run_unit(name, 0, cfg)
    assert failures == [] and len(rows) == len(inst.combos)
    for row, combo in zip(rows, inst.combos):
        assert json.loads(row["params_json"])["fingerprint"] == harness._fingerprint({**inst.base_doc, **combo})


def _plain_json_data(obj):
    """Whether ``obj`` is built of exact dicts with str keys, lists, str, int, bool, None and finite floats."""
    kind = type(obj)
    if kind is dict:
        return all(type(k) is str and _plain_json_data(v) for k, v in obj.items())
    if kind is list:
        return all(_plain_json_data(v) for v in obj)
    if kind is float:
        return math.isfinite(obj)
    return kind in (str, int, bool) or obj is None


@pytest.mark.parametrize("seed", [SuiteConfig().seed, 2])
def test_generated_documents_need_no_sanitising(seed):
    # run_unit fingerprints the documents as they are: no tuple, numpy
    # scalar or non-finite float may reach it.
    cfg = SuiteConfig(seed=seed)
    for name in ALL_CHECKERS:
        for index in range(20):
            inst = generate_instance(name, rng_for(seed, name, index)[0], cfg)
            for doc in (inst.base_doc, *inst.combos):
                assert _plain_json_data(doc), (name, index, doc)
                assert harness._sanitize(doc) == doc


def test_unit_fingerprint_rejects_a_non_finite_value(monkeypatch):
    spec = harness.CHECKERS["lemma3"]

    def generate(rng, cfg):
        return {**spec.generate(rng, cfg), "a": math.nan}

    monkeypatch.setitem(harness.CHECKERS, "lemma3", dataclasses.replace(spec, generate=generate))
    with pytest.raises(ValueError, match="JSON compliant"):
        run_unit("lemma3", 0, SMALL)


@pytest.mark.parametrize(
    "name", ["lemma1", "main_lemma", "main_theorem_T", "main_theorem_M", "nevanlinna_ratio", "small_intervals_ratio"]
)
def test_warm_memos_give_the_cold_rows(name):
    cfg = SuiteConfig()
    _clear_memos()
    cold_rows, cold_failures = run_unit(name, 0, cfg)
    warm_rows, warm_failures = run_unit(name, 0, cfg)
    assert rows_to_csv(warm_rows) == rows_to_csv(cold_rows)
    assert warm_failures == cold_failures == []


# Units as (name, index, suite seed); None is the default seed.
_ERR_UNITS = [
    ("lemma3", 0, None),
    ("lemma3", 1, None),
    ("lemma_a", 1, None),
    ("lemma_a", 23, None),
    ("main_theorem_T", 0, None),
    ("main_theorem_M", 9, None),
    ("nevanlinna_ratio", 13, None),
    ("nevanlinna_ratio", 16, None),
    ("nevanlinna_ratio", 1, 2000007),
]


@pytest.mark.parametrize(
    "name,index,seed",
    _ERR_UNITS,
    ids=[f"{name}-{index}" + (f"-seed{seed}" if seed else "") for name, index, seed in _ERR_UNITS],
)
def test_reported_err_covers_a_tight_reference(name, index, seed):
    # The reference is the same unit with every integral at rel_tol = 1e-12.
    # The circle-maxima integrals subtract each upward spike between the
    # kinks next to its modulus, so they take the moduli and the kinks of
    # the maxima as plain edges, not graded hints.  The Nevanlinna units
    # check that the err still covers the reference: seed 2000007 unit 1
    # switches its winning peak at t = 0.2134, between two pole moduli,
    # which bisection once left 3.4e-8 off against an err of 2.7e-8.
    # main_theorem_M 9 refines its reference down to panels of about 100
    # ulps on an atom modulus, where a split whose nodes round onto their
    # ends would sample the modulus.
    cfg = SuiteConfig() if seed is None else SuiteConfig(seed=seed, instances=2, checkers=(name,))
    rows, failures = run_unit(name, index, cfg)
    refs, ref_failures = run_unit(name, index, dataclasses.replace(cfg, quad_rel_tol=1e-12))
    assert failures == ref_failures == [] and len(rows) == len(refs) > 0
    for row, ref in zip(rows, refs):
        assert abs(row["lhs"] - ref["lhs"]) <= row["err"]
        assert abs(row["rhs"] - ref["rhs"]) <= row["err"]


# --- instance fingerprint -------------------------------------------------------

def _first_doc(name, cfg=SMALL):
    inst = generate_instance(name, rng_for(cfg.seed, name, 0)[0], cfg)
    return {**inst.base_doc, **inst.combos[0]} if inst.combos else inst.base_doc


@pytest.mark.parametrize("name", ["lemma2", "pjp_identity"])
def test_run_check_fingerprint_hashes_the_canonical_document(name):
    doc = _first_doc(name)
    rows, _ = run_unit(name, 0, SMALL)
    fingerprint = run_check(name, doc).instance_fingerprint
    assert fingerprint == json.loads(rows[0]["params_json"])["fingerprint"]
    assert fingerprint == hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


@pytest.mark.parametrize("b", [1.0, 0.5])
def test_small_intervals_with_an_atom_at_the_centre_gives_a_min_one(b):
    # u = ln|z| makes u(0) = -inf and the structure term +inf; at b = 1 the
    # closed form for a_min would have met 0 * inf and a division by W0(0) = 0.
    doc = _first_doc("small_intervals_ratio", SuiteConfig())
    doc.update(r0=0.0, b=b, v={"atoms": [{"re": 0.0, "im": 0.0, "mass": 1.0}], "const": 0.0})
    rep = run_check("small_intervals_ratio", doc)
    assert rep.rhs == math.inf and rep.params["a_min"] == 1.0


def test_direct_checker_call_matches_run_check():
    cfg = SuiteConfig(seed=5)
    doc = _first_doc("main_theorem_T", cfg)
    weight = Weight.from_doc({"pieces": doc["g_pieces"], "p": doc["p"]})
    e = IntervalSet.from_pairs(doc["e"])
    direct = main_theorem_T(delta_from_doc(doc["u"]), e, weight, doc["r"], doc["r0"], doc["k"])
    via = run_check("main_theorem_T", doc)
    assert (direct.lhs, direct.rhs, direct.error_estimate) == (via.lhs, via.rhs, via.error_estimate)
    assert direct.instance_fingerprint == "" and via.instance_fingerprint != ""

    doc = _first_doc("lemma4", cfg)
    direct = lemma4_check(IntervalSet.from_pairs(doc["e"]), doc["x"], doc["r"], doc["R"], doc["q"])
    via = run_check("lemma4", doc)
    assert (direct.lhs, direct.rhs, direct.error_estimate) == (via.lhs, via.rhs, via.error_estimate)


def _power_doc(kappa):
    return {"a": 1.0, "e": [[-0.5, 0.5]], "profile": {"family": "power", "kappa": kappa, "beta": 1.0}}


def test_cli_check_quadrature_failure_exits_two(tmp_path, capsys):
    # t^(-0.99) is integrable at 0 but overflows next to it, so quadrature
    # meets a non-finite sample.
    fn = tmp_path / "instance.json"
    fn.write_text(json.dumps(_power_doc(0.99)))
    assert cli_main(["check", "lemma_a", "--fn", str(fn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("kappa", [1.0, 1.5, math.nan])
def test_cli_check_rejects_a_power_profile_not_integrable_at_zero(kappa, tmp_path, capsys):
    fn = tmp_path / "instance.json"
    fn.write_text(json.dumps(_power_doc(kappa)))
    assert cli_main(["check", "lemma_a", "--fn", str(fn)]) == 3
    err = capsys.readouterr().err
    assert "kappa < 1" in err and "Traceback" not in err


def test_summary_max_a_comes_from_rows_that_report_a_min():
    def row(name, a_min):
        return {"name": name, "degenerate": False, "ratio": 0.5, "holds": True, "a_min": a_min}

    rows = [row("lemma2", None), row("main_lemma", 1.5), row("main_lemma", math.inf), row("main_lemma", 2.5)]
    cfg = SuiteConfig(checkers=("lemma2", "main_lemma"))
    plain, with_a = harness._summarize(cfg, rows, [])
    assert "max_a" not in plain
    assert with_a["max_a"] == 2.5


# --- no subpot path imports scipy ----------------------------------------------

def _fresh_interpreter(code):
    """Run ``code`` in a new interpreter on this package; return its stdout.

    The pytest process cannot tell what subpot imports: the test modules
    import scipy themselves, as an oracle.
    """
    src = str(Path(subpot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SCIPY_MODULES = 'sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")'

COLD_START = f"""
import json, sys
import subpot.cli
from subpot import ALL_CHECKERS, SuiteConfig, rows_to_csv, run_unit
subpot.cli.build_parser()
units = {{name: rows_to_csv(run_unit(name, 0, SuiteConfig())[0]) for name in ALL_CHECKERS}}
print(json.dumps({{"scipy": {SCIPY_MODULES}, "units": units}}))
"""


def test_cold_start_loads_no_scipy():
    # Every checker's unit 0, lemma1's kernel-norm sup and the small-set
    # Lambert W among them.
    out = json.loads(_fresh_interpreter(COLD_START))
    assert out["scipy"] == []
    for name in ("lemma1", "small_intervals_ratio"):
        assert out["units"][name] == rows_to_csv(run_unit(name, 0, SuiteConfig())[0])


def test_pool_parent_loads_no_scipy_before_the_workers_fork():
    code = (
        "import json, sys\n"
        "from subpot import SuiteConfig, run_suite\n"
        "run_suite(SuiteConfig(seed=7, instances=2, jobs=2))\n"
        f"print(json.dumps({SCIPY_MODULES}))\n"
    )
    assert json.loads(_fresh_interpreter(code)) == []


def test_lemma1_suite_csv_is_the_same_at_one_and_two_jobs(tmp_path):
    csvs = []
    for jobs in ("1", "2"):
        out_csv = tmp_path / f"jobs{jobs}.csv"
        rc = cli_main(["suite", "--checkers", "lemma1", "--instances", "4", "--jobs", jobs, "--out", str(out_csv)])
        assert rc == 0
        csvs.append(out_csv.read_bytes())
    assert csvs[0] == csvs[1]


MAXIMA_CHECKERS = ("lemma1", "nevanlinna_ratio", "main_theorem_T", "main_theorem_M", "main_lemma", "small_intervals_ratio")


@pytest.mark.parametrize("name", MAXIMA_CHECKERS + ("pjp_identity",))
def test_a_unit_builds_one_circle_sampler(name):
    # Every characteristic of a unit samples the same function in the same
    # form, so _sampler's one entry serves the whole unit.
    characteristics._sampler.cache_clear()
    run_unit(name, 0, SuiteConfig())
    assert characteristics._sampler.cache_info().misses == 1


def test_maxima_units_leave_numpy_ma_unloaded():
    # The first np.unique of a process imports numpy.ma (16 ms and part of
    # each pool worker's memory); nevanlinna_ratio's unit 0 reaches the kink
    # scan's second round, where max_crossings once called it.
    code = (
        "import json, sys\n"
        "from subpot import SuiteConfig, run_unit\n"
        "loaded = {}\n"
        f"for name in {MAXIMA_CHECKERS!r}:\n"
        "    run_unit(name, 0, SuiteConfig())\n"
        "    loaded[name] = 'numpy.ma' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    assert json.loads(_fresh_interpreter(code)) == dict.fromkeys(MAXIMA_CHECKERS, False)


@pytest.mark.parametrize("name", MAXIMA_CHECKERS)
def test_maxima_rows_do_not_depend_on_skipped_cells(name, monkeypatch):
    # The circle maxima search only the cells whose bound reaches the level
    # they are read at; searching every cell must give the same rows.
    cfg = SuiteConfig(seed=3, instances=2, checkers=(name,))

    def rows():
        for memo in (characteristics._sampler, characteristics.max_on_circle, characteristics._quad_mean, inequalities._maxima_integral):
            memo.cache_clear()
        return rows_to_csv(row for i in range(2) for row in run_unit(name, i, cfg)[0])

    pruned = rows()
    monkeypatch.setattr(characteristics, "_searched", lambda bounds, level: np.ones(np.shape(bounds), bool))
    assert rows() == pruned
    assert pruned.count("\n") > 2
