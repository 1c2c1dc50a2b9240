"""Interval sets, piecewise-polynomial weights, and rearrangement bounds."""

import math

import numpy as np
import pytest

import subpot.sets as sets
from subpot import (
    IntervalSet,
    QuadratureSpec,
    SuiteConfig,
    Weight,
    integrate,
    integrate_weighted,
    lp_norm,
    random_interval_set,
    rearranged_majorant,
)
from subpot.quadrature import first_panel_nodes

# Independently integrated profile 1/sqrt|t| on [0.2,0.4] u [0.6,0.8]
# against twice its integral over [0, 0.2].
SQRT_PROFILE_LHS = 0.6101449165843009
SQRT_PROFILE_RHS = 1.7888543819998313


def _const_weight(lo, hi, c=1.0, p=math.inf):
    return Weight(pieces=(((lo, hi), (c,)),), p=p)


def test_measure_of_union():
    assert IntervalSet.from_pairs([(0, 1), (2, 3)]).measure == pytest.approx(2.0)
    assert IntervalSet().measure == 0.0
    assert IntervalSet.from_pairs([(0.2, 0.6)]).measure == pytest.approx(0.4)


def test_lp_norm_constant_weight():
    g = _const_weight(0.0, 2.0, 1.0, p=2.0)
    assert lp_norm(g, IntervalSet.from_pairs([(0, 2)])) == pytest.approx(math.sqrt(2.0))


def test_lp_norm_linear_weight():
    g = Weight(pieces=(((0.0, 1.0), (0.0, 1.0)),), p=math.inf)
    e = IntervalSet.from_pairs([(0, 1)])
    assert lp_norm(g, e) == pytest.approx(1.0)
    g2 = Weight(pieces=(((0.0, 1.0), (0.0, 1.0)),), p=2.0)
    assert lp_norm(g2, e) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)


def test_lp_norm_monotone_under_inclusion():
    g = Weight(pieces=(((0.0, 3.0), (0.5, 0.0, 1.0)),), p=3.0)
    small = IntervalSet.from_pairs([(0.5, 1.0), (1.5, 2.0)])
    big = IntervalSet.from_pairs([(0.25, 1.25), (1.5, 2.75)])
    assert lp_norm(g, small) <= lp_norm(g, big) + 1e-12


def test_integrate_weighted_constant():
    g = _const_weight(0.0, 1.0)
    e = IntervalSet.from_pairs([(0.1, 0.5)])
    val, err = integrate_weighted(lambda t: np.ones_like(t), g, e)
    assert val == pytest.approx(0.4, abs=1e-12)


def test_integrate_weighted_calls_h_once_plus_once_per_refined_panel():
    # Two weight pieces over three intervals of E make four sub-integrals; a
    # square-root cusp on a break and a kink between breaks need refinement.
    g = Weight(pieces=(((0.0, 0.5), (1.0, 2.0)), ((0.5, 1.0), (0.2, 0.0, 3.0))), p=math.inf)
    e = IntervalSet.from_pairs([(0.05, 0.3), (0.4, 0.7), (0.8, 0.95)])
    breaks = (0.2, 0.6, 0.85)

    def h(t):
        return np.sqrt(np.abs(t - 0.2)) + np.abs(t - 0.63) + np.sin(7.0 * t)

    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
    calls = []
    val, err = integrate_weighted(lambda t: calls.append(t.size) or h(t), g, e, quad=spec, breaks=breaks)

    # The per-panel loop: one integrate call per piece and interval, with h
    # evaluated panel by panel.
    ref_val = ref_err = 0.0
    first = refined = 0
    for (a, b), coeffs in g.pieces:
        for lo, hi in e.intersect(a, b).intervals:
            seen = []

            def fn(t):
                seen.append(1)
                return h(t) * np.maximum(np.polynomial.polynomial.polyval(t, coeffs), 0.0)

            v, er = integrate(fn, lo, hi, spec=spec, breaks=breaks)
            ref_val += v
            ref_err += er
            panels = len(first_panel_nodes(lo, hi, breaks=breaks))
            first += panels
            refined += len(seen) - panels
    assert (val, err) == (ref_val, ref_err)
    assert refined > 0
    assert calls == [15 * first] + [15] * refined


def test_lp_norm_memo_serves_a_p_sweep_and_keys_on_the_spec():
    e = IntervalSet.from_pairs([(0.1, 0.4), (0.6, 0.9)])
    weights = [Weight(pieces=(((0.0, 1.0), (0.5, 0.0, 1.0)),), p=p) for p in (2.0, 3.0, 5.0)]
    cold = []
    for g in weights:
        sets._lp_norm.cache_clear()
        cold.append(lp_norm(g, e))
    sets._lp_norm.cache_clear()
    # A sweep of p inside an outer loop (k or b in a unit) integrates each norm once.
    for _ in range(3):
        assert [lp_norm(g, e) for g in weights] == cold
    info = sets._lp_norm.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    # Each norm equals the integral it is made of.
    for g, norm in zip(weights, cold):
        total = sum(integrate(lambda t: (0.5 + t * t) ** g.p, lo, hi, sets._LP_QUAD)[0] for lo, hi in e.intervals)
        assert norm == total ** (1.0 / g.p)
    # The spec that `subpot suite --tol 1e-3` passes gets entries of its own.
    loose = SuiteConfig(quad_rel_tol=1e-3).quad_override()
    assert [lp_norm(g, e, loose) for g in weights] == [lp_norm(g, e, loose) for g in weights]
    assert sets._lp_norm.cache_info().misses == 6


def test_holder_inequality_sanity():
    # integral of h*g over E never exceeds ||h||_q ||g||_p.
    rng = np.random.default_rng(2718)
    for _ in range(20):
        p = float(rng.choice([2.0, 3.0, 4.0]))
        q = p / (p - 1.0)
        coeffs = rng.uniform(0.05, 1.5, size=3)
        g = Weight(pieces=(((0.0, 2.0), tuple(coeffs)),), p=p)
        e = random_interval_set(rng, 2.0, float(rng.uniform(0.2, 1.8)), 3)
        h = lambda t: 0.2 + np.abs(np.sin(3.0 * t))
        total, _ = integrate_weighted(h, g, e)
        hnorm = sum(integrate(lambda t: h(t) ** q, lo, hi)[0] for lo, hi in e.intervals) ** (1.0 / q)
        assert total <= hnorm * lp_norm(g, e) + 1e-9


def test_rearranged_majorant_tent_profile():
    res = rearranged_majorant(lambda t: 1.0 - np.abs(t), IntervalSet.from_pairs([(0.2, 0.6)]), 1.0)
    assert res["lhs"] == pytest.approx(0.24, abs=1e-10)
    assert res["rhs"] == pytest.approx(0.36, abs=1e-10)


def test_rearranged_majorant_symmetric_equality():
    e = IntervalSet.from_pairs([(-0.7, 0.7)])
    res = rearranged_majorant(lambda t: np.exp(-np.abs(t)), e, 1.0)
    assert res["lhs"] == pytest.approx(res["rhs"], abs=1e-10)


def test_rearranged_majorant_constant_profile():
    e = IntervalSet.from_pairs([(-0.5, -0.1), (0.3, 0.4)])
    res = rearranged_majorant(lambda t: np.ones_like(np.asarray(t, float)), e, 1.0)
    assert res["lhs"] == pytest.approx(e.measure, abs=1e-12)
    assert res["rhs"] == pytest.approx(e.measure, abs=1e-12)


def test_rearranged_majorant_singular_profile():
    e = IntervalSet.from_pairs([(0.2, 0.4), (0.6, 0.8)])
    res = rearranged_majorant(lambda t: 1.0 / np.sqrt(np.abs(t)), e, 1.0)
    assert res["lhs"] == pytest.approx(SQRT_PROFILE_LHS, rel=1e-6)
    assert res["rhs"] == pytest.approx(SQRT_PROFILE_RHS, rel=1e-6)
    assert res["lhs"] <= res["rhs"]


@pytest.mark.parametrize("pair", [(0.0, 0.4), (-0.4, 0.0)])
def test_rearranged_majorant_takes_the_origin_as_a_hint_on_an_interval_end(pair):
    # t^(-0.85) over an interval that ends at 0 integrates to 0.4^0.15/0.15;
    # without the power substitution at 0 it came out 5e-10 relative off.
    res = rearranged_majorant(lambda t: np.asarray(t, float) ** -0.85, IntervalSet.from_pairs([pair]), 0.5)
    assert res["lhs"] == pytest.approx(0.4**0.15 / 0.15, rel=1e-11)


def test_rearranged_majorant_rejects_increasing_profile():
    with pytest.raises(ValueError):
        rearranged_majorant(lambda t: np.abs(t), IntervalSet.from_pairs([(0.1, 0.2)]), 1.0)


def test_rearranged_majorant_rejects_set_outside_halfwidth():
    with pytest.raises(ValueError):
        rearranged_majorant(lambda t: 1.0 - np.abs(t), IntervalSet.from_pairs([(0.5, 1.5)]), 1.0)


def test_random_interval_set_full_segment():
    e = random_interval_set(7, 2.0, 2.0, 1)
    assert e.intervals == ((0.0, 2.0),)


def test_random_interval_set_empty_target():
    assert random_interval_set(7, 2.0, 0.0, 3).is_empty


def test_random_interval_set_hits_target_measure():
    e = random_interval_set(42, 1.0, 0.3, 3)
    assert e.measure == pytest.approx(0.3, abs=1e-12)
    assert e.lower >= 0.0 and e.upper < 1.0


def test_random_interval_set_deterministic():
    a = random_interval_set(99, 3.0, 1.1, 5)
    b = random_interval_set(99, 3.0, 1.1, 5)
    assert a.intervals == b.intervals


def test_random_interval_set_validation():
    with pytest.raises(ValueError):
        random_interval_set(1, 1.0, 2.0, 3)
    with pytest.raises(ValueError):
        random_interval_set(1, 1.0, 0.5, 0)
    with pytest.raises(ValueError):
        random_interval_set(1, -1.0, 0.5, 3)


def test_weight_conjugate_exponent():
    assert _const_weight(0, 1, p=2.0).q == pytest.approx(2.0)
    assert _const_weight(0, 1, p=4.0).q == pytest.approx(4.0 / 3.0)
    assert _const_weight(0, 1, p=math.inf).q == 1.0


def test_weight_sup_on_subset():
    g = Weight(pieces=(((0.0, 2.0), (0.0, 1.0)),), p=math.inf)
    assert g.sup_on(IntervalSet.from_pairs([(0.5, 1.5)])) == pytest.approx(1.5)


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(pieces=(((0.0, 1.0), (-0.5, 1.0)),), p=2.0)  # negative near 0
    with pytest.raises(ValueError):
        Weight(pieces=(((0.0, 1.0), (1.0,)), ((0.5, 2.0), (1.0,))), p=2.0)  # overlap
    with pytest.raises(ValueError):
        Weight(pieces=(((0.0, 1.0), (1.0,)),), p=1.0)  # conjugate exponent undefined


def test_weight_doc_round_trip():
    g = Weight(pieces=(((0.0, 1.0), (0.3, 0.7)), ((1.5, 2.0), (2.0,))), p=math.inf)
    back = Weight.from_doc(g.to_doc())
    assert back.pieces == g.pieces and back.p == g.p
    g2 = Weight(pieces=(((0.0, 1.0), (1.0,)),), p=2.5)
    assert Weight.from_doc(g2.to_doc()).p == 2.5


def test_interval_set_operations():
    e = IntervalSet.from_pairs([(0, 1), (2, 4)])
    assert len(e.intervals) == 2
    assert e.intersect(0.5, 3.0).intervals == ((0.5, 1.0), (2.0, 3.0))
    assert e.shifted(1.0).intervals == ((1.0, 2.0), (3.0, 5.0))
    assert e.lower == 0.0 and e.upper == 4.0
