"""Bound reports for every checked inequality, frozen against closed forms."""

import math
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import gamma, gammaincc, lambertw, xlogy

from subpot import (
    AtomicMeasure,
    BoundReport,
    DeltaSubharmonicFn,
    IntervalSet,
    RationalFunctionSpec,
    SubharmonicPotential,
    Weight,
    lemma1_check,
    lemma2_check,
    lemma3_check,
    lemma4_check,
    lemma_a_check,
    log_kernel_norm,
    main_lemma_check,
    main_theorem_M,
    main_theorem_T,
    nevanlinna_ratio,
    pjp_identity_check,
    small_intervals_ratio,
)
from subpot import inequalities
from subpot.characteristics import max_crossings, max_on_circles
from subpot.harness import SuiteConfig, generate_instance, rational_from_doc, rng_for
from subpot.inequalities import LHS_QUAD, _log_moment, _maxima_integral, _minimal_small_set_constant, _sup_log_kernel_norm
from subpot.model import canonicalize, ln_abs
from subpot.quadrature import QuadratureSpec, integrate
from subpot.search import grid_peaks

from golden_section import golden_max

LN2 = math.log(2.0)

# a ln a = rho solved by scipy.special.lambertw for the closed small-set
# instance below (u = ln|z|, E = [1,2], g = 1, b = 1, R = 2, r0 = 1).
SMALL_SET_A_STAR = 1.071024410822615

# L^q norm of ln(2R/|t-x|) with q=1.7, R=1.3, x=0.4 over [0.1,0.5]u[0.9,1.2],
# from a scipy.integrate.quad oracle.
KERNEL_NORM_ORACLE = 2.2549008803330852

ORIGIN = AtomicMeasure.from_pairs([(0.0, 1.0)])
E_UNIT = IntervalSet.from_pairs([(0.0, 1.0)])
G_UNIT = Weight(pieces=(((0.0, 1.0), (1.0,)),), p=math.inf)
U_RECIPROCAL = DeltaSubharmonicFn(
    plus=SubharmonicPotential(),
    minus=SubharmonicPotential(ORIGIN),
)
U_LOG = SubharmonicPotential(ORIGIN, 0.0)


def _rand_measure(rng, n_range=(1, 5), rmax=3.0, avoid=()):
    while True:
        n = int(rng.integers(*n_range))
        moduli = rmax * rng.uniform(0.05, 1.0, size=n)
        if avoid and len(moduli) and np.min(
            np.abs(moduli[:, None] - np.asarray(avoid)[None, :])
        ) < 1e-2:
            continue
        ang = rng.uniform(0, 2 * math.pi, size=n)
        return AtomicMeasure.from_pairs(
            [(complex(m * math.cos(a), m * math.sin(a)), float(rng.uniform(0.1, 2.0)))
             for m, a in zip(moduli, ang)]
        )


# --- radial mass against the annulus counting integral ---------------------

def test_lemma2_origin_atom():
    rep = lemma2_check(ORIGIN, 1.0, 2.0)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(2.0 * LN2, rel=1e-14)
    assert rep.holds()


def test_lemma2_atom_outside_inner_disc():
    rep = lemma2_check(AtomicMeasure.from_pairs([(1.5, 1.0)]), 1.0, 2.0)
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(2.0 * math.log(4.0 / 3.0), rel=1e-14)
    assert rep.holds()


def test_lemma2_empty_measure():
    rep = lemma2_check(AtomicMeasure.empty(), 0.5, 1.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.holds()


def test_lemma2_rejects_equal_radii():
    with pytest.raises(ValueError):
        lemma2_check(ORIGIN, 1.0, 1.0)


def test_lemma2_infinite_bound_at_zero_inner_radius():
    rep = lemma2_check(ORIGIN, 0.0, 2.0)
    assert rep.lhs == 1.0
    assert rep.rhs == math.inf
    assert rep.ratio == 0.0
    assert rep.holds()


def test_lemma2_random_instances():
    rng = np.random.default_rng(211)
    for _ in range(60):
        mu = _rand_measure(rng)
        R = float(max(mu.moduli)) * float(rng.uniform(1.0, 2.0)) + 0.1
        r = R * float(rng.uniform(0.0, 0.97))
        assert lemma2_check(mu, r, R).holds()


# --- truncated-log moment bound --------------------------------------------

def test_lemma3_equality_case():
    rep = lemma3_check(1.0, math.e, 1.0)
    assert abs(rep.ratio - 1.0) <= 1e-10
    assert rep.holds()


def test_lemma3_degenerate_exponent():
    rep = lemma3_check(0.0, math.e, 0.7)
    assert rep.lhs == pytest.approx(0.7, rel=1e-12)
    assert rep.rhs == pytest.approx(0.7, rel=1e-14)


def test_lemma3_square_log():
    rep = lemma3_check(2.0, 10.0, 1.0)
    assert rep.lhs == pytest.approx(math.log(10.0) ** 2 + 2.0 * math.log(10.0) + 2.0, rel=1e-10)
    assert rep.rhs == pytest.approx(9.0 * math.log(10.0) ** 2, rel=1e-14)
    assert rep.holds()


def test_lemma3_rejects_upper_endpoint_above_hypothesis():
    with pytest.raises(ValueError):
        lemma3_check(1.0, math.e, 1.5)


def test_lemma3_random_instances():
    rng = np.random.default_rng(313)
    for _ in range(60):
        q = float(rng.uniform(1.0, 4.0))
        A = float(np.exp(rng.uniform(math.log(0.2), math.log(50.0))))
        a = A / math.e * float(rng.uniform(1e-3, 1.0))
        assert lemma3_check(q, A, a).holds()


def test_lemma3_fractional_exponent_undercuts_near_endpoint():
    # For 0 < q < 1 the constant 1 + q^(q+1) drops below the integral once
    # a approaches A/e; the checker must report that honestly.  At q = 1/2,
    # A = e, a = 1 the integral is e*Gamma(3/2, 1) = 1.3789360780706559
    # against a bound of 1 + 2^(-3/2).
    rep = lemma3_check(0.5, math.e, 1.0)
    assert rep.lhs == pytest.approx(1.3789360780706559, rel=1e-9)
    assert rep.rhs == pytest.approx(1.0 + 0.5 ** 1.5, rel=1e-14)
    assert rep.ratio == pytest.approx(1.0187526311512962, rel=1e-9)
    assert not rep.holds()


# --- L^q norm of the shifted log kernel ------------------------------------

def test_lemma4_kernel_at_left_endpoint():
    rep = lemma4_check(E_UNIT, 0.0, 1.0, 1.0, 1.0)
    assert rep.lhs == pytest.approx(1.0 + LN2, rel=1e-10)
    assert rep.rhs == pytest.approx(2.0 * math.log(4.0), rel=1e-14)
    assert rep.holds()


def test_lemma4_kernel_at_midpoint():
    rep = lemma4_check(E_UNIT, 0.5, 1.0, 1.0, 1.0)
    assert rep.lhs == pytest.approx(1.0 + math.log(4.0), rel=1e-10)
    assert rep.holds()


def test_lemma4_degenerate_empty_set():
    rep = lemma4_check(IntervalSet(), 0.3, 1.0, 1.0, 2.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.degenerate
    assert rep.holds()


def test_lemma4_ratio_vanishes_for_small_sets_away_from_center():
    # Kernel bounded on E when x stays outside: lhs ~ mes^{1/q} while the
    # bound keeps its log factor.
    ratios = []
    for n in range(1, 7):
        e = IntervalSet.from_pairs([(0.0, 4.0 ** (-n))])
        ratios.append(lemma4_check(e, 0.7, 1.0, 1.0, 2.0).ratio)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1


def test_lemma4_random_instances():
    rng = np.random.default_rng(414)
    for _ in range(40):
        R = float(rng.uniform(0.5, 4.0))
        r = R * float(rng.uniform(0.3, 1.0))
        pieces = sorted(rng.uniform(0.0, r, size=4))
        e = IntervalSet.from_pairs([(pieces[0], pieces[1]), (pieces[2], pieces[3])])
        if e.measure == 0.0:
            continue
        x = float(rng.uniform(0.0, R))
        q = float(rng.uniform(1.0, 4.0))
        assert lemma4_check(e, x, r, R, q).holds()


def _closed_kernel_norm(e, x, R, q):
    """The kernel norm from the closed-form power integral, at a point or an array of points."""
    xs = np.asarray(x, float)
    norm = inequalities._log_kernel_power_integral(e, xs, R, q)[0] ** (1.0 / q)
    return norm if xs.ndim else float(norm)


def test_log_kernel_norm_routes_agree():
    e = IntervalSet.from_pairs([(0.1, 0.5), (0.9, 1.2)])
    closed = _closed_kernel_norm(e, 0.4, 1.3, 1.7)
    quad, _ = log_kernel_norm(e, 0.4, 1.3, 1.7)
    assert closed == pytest.approx(KERNEL_NORM_ORACLE, rel=1e-8)
    assert quad == pytest.approx(closed, rel=1e-8)


def test_log_kernel_norm_routes_agree_randomized():
    rng = np.random.default_rng(515)
    for _ in range(15):
        R = float(rng.uniform(0.8, 3.0))
        ends = np.sort(rng.uniform(0.0, R, size=4))
        e = IntervalSet.from_pairs([(ends[0], ends[1]), (ends[2], ends[3])])
        if e.measure < 1e-3:
            continue
        x = float(rng.uniform(0.0, R))
        q = float(rng.uniform(1.0, 3.5))
        a = _closed_kernel_norm(e, x, R, q)
        b, _ = log_kernel_norm(e, x, R, q)
        assert b == pytest.approx(a, rel=1e-7)
        # The closed form on an array of points (interval ends included)
        # agrees with one scalar call per point up to vectorised rounding.
        xs = np.concatenate([[0.0, x, R], ends, rng.uniform(0.0, R, size=5)])
        norms = _closed_kernel_norm(e, xs, R, q)
        assert norms.shape == xs.shape
        assert norms == pytest.approx([_closed_kernel_norm(e, float(t), R, q) for t in xs], rel=1e-14)


@pytest.mark.parametrize("R,q", [(1.3, 2.5), (0.65, 1.0), (5.0, 4.0)])
@pytest.mark.parametrize(
    "x",
    [0.3, 0.1, 0.5, 0.9, 0.5 - 1e-9, 0.0, 0.7, 0.5 + 1e-9],
    ids=["inside", "left-end", "right-end", "second-left-end", "just-inside", "outside", "gap", "just-outside"],
)
def test_log_kernel_norm_is_within_its_err_of_the_closed_form(x, R, q, monkeypatch):
    # x inside an interval or on its end puts the singular tip at y = 0,
    # which integrate takes by its power substitution; every other span is
    # regular.  The tabulated Kronrod weights carry 15 significant digits,
    # so even an exact panel is off by a few 1e-15 relative.
    e = IntervalSet.from_pairs([(0.1, 0.5), (0.9, 1.2)])
    norm, err = log_kernel_norm(e, x, R, q)
    closed = _closed_kernel_norm(e, x, R, q)
    assert abs(norm - closed) <= err + 1e-14 * closed
    # The err is the quadrature's alone: no truncated tip is added to it.
    exact = inequalities.integrate
    monkeypatch.setattr(inequalities, "integrate", lambda *a, **k: (exact(*a, **k)[0], 0.0))
    assert log_kernel_norm(e, x, R, q) == (norm, 0.0)


def test_sup_log_kernel_norm_dominates_samples():
    rng = np.random.default_rng(616)
    e = IntervalSet.from_pairs([(0.2, 0.7), (1.1, 1.4)])
    for q in (1.0, 2.0, 3.3):
        sup, _ = _sup_log_kernel_norm(e, 2.0, q)
        for _ in range(50):
            x = float(rng.uniform(0.0, 2.0))
            assert _closed_kernel_norm(e, x, 2.0, q) <= sup + 1e-9


def _golden_sup_log_kernel_norm(e, R, q):
    """The kernel-norm sup by the same 256-point grid and a golden-section polish of its peaks."""
    xs = np.linspace(0.0, R, 256)
    vals = _closed_kernel_norm(e, xs, R, q)
    (peaks,) = grid_peaks(vals, periodic=False)
    step = R / 255
    refined = golden_max(lambda x: _closed_kernel_norm(e, x, R, q), xs[peaks] - step, xs[peaks] + step)
    return max(vals.max(), refined.max(initial=-np.inf))


def test_sup_log_kernel_norm_matches_golden_section_and_dense_grid(monkeypatch):
    # Sets touching 0 and r < R as in lemma1, with 1 to 6 intervals.
    rng = np.random.default_rng(617)
    closed_form = inequalities._log_kernel_power_integral
    calls = []

    def counted(*args):
        calls.append(1)
        return closed_form(*args)

    for k in range(120):
        n = 1 + k % 6
        r = float(rng.uniform(0.1, 5.0))
        R = r / float(rng.uniform(0.2, 0.8))
        ends = np.concatenate([[0.0], np.sort(rng.uniform(0.0, r, 2 * n - 2)), [r]])
        e = IntervalSet.from_pairs(ends.reshape(-1, 2))
        q = 1.0 if k % 5 == 0 else float(rng.uniform(1.0, 4.0))
        with monkeypatch.context() as m:
            m.setattr(inequalities, "_log_kernel_power_integral", counted)
            sup, _ = _sup_log_kernel_norm(e, R, q)
        ref = _golden_sup_log_kernel_norm(e, R, q)
        dense = _closed_kernel_norm(e, np.linspace(0.0, R, 65536), R, q).max()
        assert abs(sup - ref) <= 1e-12 * ref
        assert sup >= dense * (1.0 - 1e-14)
    # One grid pass plus a few Newton steps: a wrong F'' still converges
    # inside the bracket, but only after many more evaluations.
    assert len(calls) <= 8 * 120


def test_sup_log_kernel_norm_with_an_interval_end_on_a_grid_peak():
    # F' is infinite at the interval end where the Newton lane starts; its
    # sign alone must carry the lane to the true peak beside that node.
    R, q = 2.0, 2.0
    xs = np.linspace(0.0, R, 256)
    e = IntervalSet.from_pairs([(0.0, 0.001), (xs[100] - 0.3 * R / 255, xs[100])])
    grid = _closed_kernel_norm(e, xs, R, q)
    assert 100 in grid_peaks(grid, periodic=False)[0]
    sup, _ = _sup_log_kernel_norm(e, R, q)
    ref = _golden_sup_log_kernel_norm(e, R, q)
    dense = _closed_kernel_norm(e, np.linspace(0.0, R, 65536), R, q).max()
    assert abs(sup - ref) <= 1e-12 * ref
    assert sup >= dense * (1.0 - 1e-14)



def test_sup_log_kernel_norm_err_covers_the_cancellation(monkeypatch):
    # The default suite's lemma1 sets and radii, against the quadrature norm
    # at rel_tol 1e-13 (and no absolute floor) at the sup's own x.  The closed form cancels about
    # 1e-13 relative; the tabulated Kronrod weights carry 15 digits, so the
    # quadrature gets 1e-14 relative beyond its err (see the test above).
    cfg = SuiteConfig()
    closed_form = inequalities._log_kernel_power_integral
    seen = []

    def recorded(e, xs, R, q):
        out = closed_form(e, xs, R, q)
        seen.append((np.asarray(xs, float), out[0]))
        return out

    monkeypatch.setattr(inequalities, "_log_kernel_power_integral", recorded)
    worst = 0.0
    for index, q in product(range(cfg.instances), (1.0, 4.0 / 3.0, 2.0)):
        doc = generate_instance("lemma1", rng_for(cfg.seed, "lemma1", index)[0], cfg).base_doc
        e, R = IntervalSet.from_pairs(doc["e"]), doc["R"]
        seen.clear()
        sup, err = _sup_log_kernel_norm(e, R, q)
        xs, fs = (np.concatenate(z) for z in zip(*seen))
        x = float(xs[fs.argmax()])
        assert fs.max() ** (1.0 / q) == sup
        norm, norm_err = log_kernel_norm(e, x, R, q, QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300))
        gap = abs(sup - norm) - norm_err - 1e-14 * norm
        assert gap <= err
        worst = max(worst, gap / sup)
    # Without its err the sup would miss: the cancellation shows.
    assert worst > 1e-14

# --- special functions against scipy.special ----------------------------------

def test_upper_gamma_matches_scipy():
    # a = q + 1 for q from 1 to 11 (p down to 1.1), across the switch from
    # the series to the continued fraction at x = a + 1.
    for a in [*np.linspace(2.0, 12.0, 41), 7.0 / 3.0]:
        x = np.concatenate([np.linspace(0.0, 60.0, 1201), [a + 1.0, np.nextafter(a + 1.0, 0.0), 1e-300]])
        ref = gammaincc(a, x) * gamma(a)
        assert np.max(np.abs(inequalities._upper_gamma(a, x) / ref - 1.0)) <= 3e-14, a
        assert inequalities._upper_gamma(a, np.array([np.inf]))[0] == 0.0


def test_upper_gamma_lanes_do_not_depend_on_each_other():
    x = np.concatenate([[0.0, np.inf, 1e-300, 3.0], np.random.default_rng(23).uniform(0.0, 40.0, 200)])
    for a in (2.0, 7.0 / 3.0, 3.0, 9.5):
        whole = inequalities._upper_gamma(a, x)
        for i in range(x.size):
            assert inequalities._upper_gamma(a, x[i : i + 1])[0] == whole[i]


def test_lambert_w0_matches_scipy():
    for c in np.geomspace(1e-12, 1e12, 2401):
        w = inequalities._lambert_w0(float(c))
        assert w == pytest.approx(float(lambertw(c).real), rel=1e-14, abs=0.0)


# --- rearrangement wrapper --------------------------------------------------

def test_lemma_a_tent_profile():
    rep = lemma_a_check(lambda t: 1.0 - np.abs(t), IntervalSet.from_pairs([(0.2, 0.6)]), 1.0)
    assert rep.lhs == pytest.approx(0.24, abs=1e-10)
    assert rep.rhs == pytest.approx(0.36, abs=1e-10)
    assert rep.holds()


def test_lemma_a_empty_set_is_degenerate():
    rep = lemma_a_check(lambda t: 1.0 - np.abs(t), IntervalSet(), 1.0)
    assert rep.degenerate and rep.holds()


# --- weighted maxima integral against the two-circle bound ------------------

def test_small_set_mean_bound_closed_instance():
    rep = lemma1_check(U_RECIPROCAL, E_UNIT, G_UNIT, 1.0, 2.0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    # Supremum of the kernel norm lands at the midpoint of E.
    assert rep.rhs == pytest.approx(1.0 + math.log(8.0), rel=1e-9)
    assert rep.rhs >= 1.0 + math.log(4.0) - 1e-12
    assert rep.ratio == pytest.approx(1.0 / (1.0 + math.log(8.0)), rel=1e-6)
    assert rep.holds()


def test_small_set_mean_bound_nonpositive_function():
    # No minus charge and u <= 0 on the closed disc: the maxima integral dies.
    u = SubharmonicPotential(ORIGIN, -math.log(4.0))
    U = DeltaSubharmonicFn.from_potential(u)
    rep = lemma1_check(U, E_UNIT, G_UNIT, 1.0, 2.0)
    assert rep.lhs == 0.0
    assert rep.holds()


def test_small_set_mean_bound_zero_weight():
    g0 = Weight(pieces=(((0.0, 1.0), (0.0,)),), p=math.inf)
    rep = lemma1_check(U_RECIPROCAL, E_UNIT, g0, 1.0, 2.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.ratio == 0.0
    assert rep.holds()


def test_small_set_mean_bound_random_instances():
    rng = np.random.default_rng(717)
    for _ in range(15):
        R = float(rng.uniform(1.5, 4.0))
        r = R * float(rng.uniform(0.2, 0.8))
        U = DeltaSubharmonicFn(
            plus=SubharmonicPotential(_rand_measure(rng, rmax=R, avoid=(r, R)), float(rng.uniform(-1, 1))),
            minus=SubharmonicPotential(_rand_measure(rng, rmax=R, avoid=(r, R)), float(rng.uniform(-1, 1))),
        )
        ends = np.sort(rng.uniform(0.0, r, size=4))
        e = IntervalSet.from_pairs([(ends[0], ends[1]), (ends[2], ends[3])])
        if e.measure < 1e-3:
            continue
        p = float(rng.choice([2.0, 4.0, math.inf]))
        g = Weight(pieces=(((0.0, r), (float(rng.uniform(0.1, 1.0)), 0.0, float(rng.uniform(0.0, 0.5)))),), p=p)
        assert lemma1_check(U, e, g, r, R).holds()


def test_annulus_mean_bound_closed_instance():
    rep = main_lemma_check(U_RECIPROCAL, E_UNIT, G_UNIT, 1.0, 1.0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    # (2+b)/b * (plus mean at 2r is 0, annulus count ln 2) * ln 8.
    assert rep.rhs == pytest.approx(9.0 * LN2 ** 2, rel=1e-12)
    assert rep.ratio == pytest.approx(0.23126322010010494, rel=1e-6)
    assert rep.holds()


def test_annulus_mean_bound_empty_set():
    rep = main_lemma_check(U_RECIPROCAL, IntervalSet(), G_UNIT, 1.0, 1.0)
    assert rep.degenerate and rep.lhs == 0.0 and rep.rhs == 0.0


def test_annulus_mean_bound_zero_function():
    U0 = DeltaSubharmonicFn(plus=SubharmonicPotential(), minus=SubharmonicPotential())
    rep = main_lemma_check(U0, E_UNIT, G_UNIT, 1.0, 0.5)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.holds()


# --- normalized maxima integrals against characteristics --------------------

def test_characteristic_bound_closed_instance():
    rep = main_theorem_T(U_RECIPROCAL, E_UNIT, G_UNIT, 1.0, 0.5, 2.0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    assert rep.rhs == pytest.approx(48.0 * LN2 ** 2, rel=1e-9)
    assert rep.ratio == pytest.approx(0.04336185376876967, rel=1e-6)
    assert rep.holds()


def test_characteristic_bound_empty_set():
    rep = main_theorem_T(U_RECIPROCAL, IntervalSet(), G_UNIT, 1.0, 0.5, 2.0)
    assert rep.degenerate and rep.lhs == 0.0 and rep.rhs == 0.0


def test_characteristic_bound_rejects_trivial_function():
    U0 = DeltaSubharmonicFn(plus=SubharmonicPotential(const=1.0), minus=SubharmonicPotential())
    with pytest.raises(ValueError):
        main_theorem_T(U0, E_UNIT, G_UNIT, 1.0, 0.5, 2.0)


def test_characteristic_bound_rejects_bad_radii():
    with pytest.raises(ValueError):
        main_theorem_T(U_RECIPROCAL, E_UNIT, G_UNIT, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        main_theorem_T(U_RECIPROCAL, E_UNIT, G_UNIT, 1.0, 0.5, 1.0)


def test_modulus_bound_closed_instance():
    rep = main_theorem_M(U_LOG, E_UNIT, G_UNIT, 1.0, 0.5, 2.0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    assert rep.rhs == pytest.approx(60.0 * LN2 ** 2, rel=1e-9)
    assert rep.holds()


def test_modulus_bound_constant_function():
    u1 = SubharmonicPotential(const=1.0)
    rep = main_theorem_M(u1, E_UNIT, G_UNIT, 1.0, 0.5, 2.0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-9)
    assert rep.rhs == pytest.approx(10.0 * math.log(8.0), rel=1e-9)
    assert rep.holds()


def test_modulus_bound_positive_potential():
    # u = ln|z-3| stays positive near the origin: the negative-part mean
    # drops out and everything is a closed integral of ln(3+t).
    u = SubharmonicPotential(AtomicMeasure.from_pairs([(3.0, 1.0)]), 0.0)
    rep = main_theorem_M(u, E_UNIT, G_UNIT, 1.0, 0.5, 2.0)
    assert rep.lhs == pytest.approx(4.0 * math.log(4.0) - 3.0 * math.log(3.0) - 1.0, rel=1e-6)
    assert rep.rhs == pytest.approx(10.0 * math.log(8.0) * math.log(5.0), rel=1e-9)
    assert rep.holds()


# --- probes ------------------------------------------------------------------

def test_growth_ratio_probe_closed_instance():
    f = RationalFunctionSpec(poles=ORIGIN)
    rep = nevanlinna_ratio(f, math.e, 2.0)
    assert rep.lhs == pytest.approx(1.0 / math.e, rel=1e-6)
    assert rep.rhs == pytest.approx(1.0 + LN2, rel=1e-12)
    assert rep.ratio == pytest.approx(1.0 / (math.e * (1.0 + LN2)), rel=1e-6)


def test_growth_ratio_probe_unbounded_below_inverse_k():
    f = RationalFunctionSpec(poles=ORIGIN)
    for k in (2.0, 4.0):
        rep = nevanlinna_ratio(f, 1.0 / (2.0 * k), k)
        assert rep.rhs == 0.0
        assert rep.ratio == math.inf
        assert rep.lhs == pytest.approx(1.0 + math.log(2.0 * k), rel=1e-6)
        assert not rep.holds()
        assert not rep.degenerate


def test_growth_ratio_probe_entire_function():
    f = RationalFunctionSpec(zeros=ORIGIN)
    rep = nevanlinna_ratio(f, 2.0, 2.0)
    assert rep.lhs == pytest.approx((2.0 * LN2 - 1.0) / 2.0, rel=1e-6)
    assert rep.rhs == pytest.approx(math.log(4.0), rel=1e-9)
    assert rep.ratio < 1.0


def _nevanlinna_integral(f, r, spec=LHS_QUAD):
    """``int_0^r ln+ M(t) dt`` and its error estimate, as ``nevanlinna_ratio`` computes them."""
    return _maxima_integral(canonicalize(ln_abs(f)), "plus", IntervalSet(((0.0, r),)), (((0.0, r), (1.0,)),), spec)


def _xlogx(x):
    return x * math.log(abs(x)) if x else 0.0


def _piecewise_quad(u, edges, spikes=()):
    """scipy's adaptive quadrature of the plain maxima of ``u^+`` between neighbouring edges: (value, error).

    Each ``(rho, m)`` of ``spikes`` leaves the integrand as ``-m ln|t - rho|``
    and comes back as its closed integral, so scipy sees a bounded integrand
    and has no rounding of a log spike to extrapolate from.
    """
    def rest(t):
        return float(max_on_circles(u, np.array([t]), "plus")[0]) + sum(m * math.log(abs(t - rho)) for rho, m in spikes)

    total = total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = scipy_quad(rest, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=400)
        total += val
        total_err += err
    a, b = edges[0], edges[-1]
    return total - sum(m * (_xlogx(b - rho) - _xlogx(a - rho) - (b - a)) for rho, m in spikes), total_err


def test_growth_ratio_spike_subtraction_matches_a_tight_reference():
    # Poles at the origin, inside (0, r] (two sharing one modulus, one on
    # |z| = r) and beyond r.  The subtracted integral must lie within its
    # own error estimate of the plain maxima integral, integrated by scipy
    # between the pole moduli and the kinks.  The err is about 1e-11, so a
    # reference 1000 times tighter would be below double rounding.  The
    # reference takes out the heaviest pole's -m ln|t - rho| at each modulus
    # and integrates it in closed form: on the bare spikes scipy extrapolated
    # from the last bits of np.log, and its own error read 2e-3 where numpy
    # dispatches no AVX2 kernels.
    r = 1.2
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.from_pairs([(0.9 + 0.4j, 1.0), (-0.2 - 0.7j, 2.0)]),
        poles=AtomicMeasure.from_pairs(
            [(0j, 1.0), (0.3 + 0.2j, 2.0), (0.5, 1.0), (0.5j, 2.0), (-r, 1.0), (2.5 - 1.0j, 3.0)]
        ),
        scale=1.7,
    )
    val, err = _nevanlinna_integral(f, r)
    u = ln_abs(f)
    spikes = {}
    for rho, m in zip(f.poles.moduli.tolist(), f.poles.masses.tolist()):
        if rho <= r:
            spikes[rho] = max(m, spikes.get(rho, 0.0))
    edges = sorted({0.0, r, *spikes, *max_crossings(u, 0.0, r, "plus")})
    ref, ref_err = _piecewise_quad(u, edges, spikes.items())
    assert ref_err < 1e-2 * err
    assert abs(val - ref) <= err


def test_growth_ratio_finds_the_kink_beside_a_pole():
    # Default-seed instance 6: the maxima cross zero at t = 0.958666.  With
    # the pole moduli as the only breaks, bisection made the panel
    # [0.958158, 1.265548], whose first Kronrod node is at 0.95947, so the
    # kink sat unsampled in its end sliver and the lhs came out 1.06e-7
    # low (1.13199091493) against an err of 5e-9.  The reference is a
    # 400-piece brute force.
    cfg = SuiteConfig()
    inst = generate_instance("nevanlinna_ratio", rng_for(cfg.seed, "nevanlinna_ratio", 6)[0], cfg)
    f, r = rational_from_doc(inst.base_doc["f"]), inst.base_doc["r"]
    val, err = _nevanlinna_integral(f, r)
    assert abs(val - 1.13199102095215) <= err


def test_growth_ratio_kink_of_the_reciprocal():
    # For f = 1/z the maxima are -ln t, which cross zero at t = 1 only, and
    # int_0^2 ln+(1/t) dt = 1.
    f = RationalFunctionSpec(poles=ORIGIN)
    crossings = max_crossings(ln_abs(f), 0.0, 2.0, "plus")
    assert len(crossings) == 1 and abs(crossings[0] - 1.0) <= 1e-12
    assert abs(nevanlinna_ratio(f, 2.0, 2.0).lhs - 0.5) <= 1e-9


def test_growth_ratio_finds_no_kink_where_the_maxima_stay_positive():
    # |f| = 5 / (|z - 0.3| |z - 0.7i|) >= 5 / ((t + 0.3)(t + 0.7)) > 1 for t <= 1.5,
    # so M never crosses zero.  Its only kink is the switch between the two
    # pole peaks, where |t - 0.3| = |t - 0.7i|, at t = sqrt(0.21).  With one
    # pole there is no kink at all.
    r = 1.5
    f = RationalFunctionSpec(poles=AtomicMeasure.from_pairs([(0.3, 1.0), (0.7j, 1.0)]), scale=5.0)
    u = ln_abs(f)
    assert np.all(max_on_circles(u, np.linspace(1e-3, r, 200)) > 0.0)
    kinks = max_crossings(u, 0.0, r, "plus")
    assert len(kinks) == 1 and abs(kinks[0] - math.sqrt(0.21)) <= 1e-12
    one_pole = RationalFunctionSpec(poles=AtomicMeasure.from_pairs([(0.3, 1.0)]), scale=5.0)
    assert max_crossings(ln_abs(one_pole), 0.0, r, "plus") == []


def test_growth_ratio_spike_term_at_the_origin_and_on_the_circle(monkeypatch):
    # With the quadrature stubbed to 0, the integral is minus the closed-form
    # spike terms alone: m times int ln|t - rho| over the segment between the
    # edges next to rho.  Poles at rho = 0 and rho = r put 0 ln 0 at one end
    # of their segments; scipy's xlogy defines it as 0.
    r = 1.3
    f = RationalFunctionSpec(poles=AtomicMeasure.from_pairs([(0j, 1.0), (r, 2.0), (-0.4j, 3.0)]))
    monkeypatch.setattr(inequalities, "integrate_weighted", lambda *args, **kwargs: (0.0, 0.0))
    _maxima_integral.cache_clear()
    try:
        val, err = _nevanlinna_integral(f, r)
    finally:
        _maxima_integral.cache_clear()
    rhos = [(abs(c), m) for c, m in f.poles.atoms]
    assert sorted(rho for rho, _ in rhos) == [0.0, 0.4, r]
    edges = sorted({0.0, r, 0.4, *max_crossings(ln_abs(f), 0.0, r, "plus")})

    def prim(x):
        return xlogy(x, abs(x)) - x

    terms = []
    for rho, m in rhos:
        i = edges.index(rho)
        lo, hi = edges[max(i - 1, 0)], edges[min(i + 1, len(edges) - 1)]
        terms.append(m * (prim(hi - rho) - prim(lo - rho)))
    spike = sum(terms)
    # Only the rounding floor of the subtraction is left in the error.
    assert err == pytest.approx(inequalities._ROUNDING * sum(map(abs, terms)), rel=1e-14)
    assert val == pytest.approx(-spike, rel=1e-14, abs=1e-15)
    for x in [5e-324, 1e-300, 0.4, 1.0, math.e, math.exp(700.0)]:
        assert _log_moment((1.0,), 0.0, 0.0, x) == pytest.approx(prim(x), rel=1e-14)
        assert _log_moment((1.0,), x, 0.0, x) == pytest.approx(prim(x), rel=1e-14)


def test_log_moment_matches_quadrature():
    # int_a^b g(t) ln|t - rho| dt for random polynomials g, with rho inside
    # [a, b] and on either end.
    rng = np.random.default_rng(1606)
    for _ in range(30):
        coeffs = tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 5))))
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(0.01, 2.0))
        for rho in (float(rng.uniform(a, b)), a, b):
            ref, ref_err = scipy_quad(
                lambda t: np.polynomial.polynomial.polyval(t, coeffs) * math.log(abs(t - rho)),
                a, b, points=[rho] if a < rho < b else None, epsabs=1e-13, epsrel=1e-12, limit=200,
            )
            assert ref_err < 1e-11
            assert _log_moment(coeffs, rho, a, b) == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_growth_ratio_poles_sharing_a_modulus_subtract_one_spike():
    # 1/(z^2 + 1) times a zero at 0.3 + 0.2i: both poles lie on |z| = 1, and
    # the maxima grow like -ln|t - 1| there, one spike, not two.  Subtracting
    # the spike of each pole left ln|t - 1| behind, and err was 2.2e-7.
    r = 2.0
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.from_pairs([(0.3 + 0.2j, 1.0)]), poles=AtomicMeasure.from_pairs([(1j, 1.0), (-1j, 1.0)])
    )
    val, err = _nevanlinna_integral(f, r)
    assert err < 1e-9
    u = ln_abs(f)
    ref, _ = _piecewise_quad(u, sorted({0.0, 1.0, r, *max_crossings(u, 0.0, r, "plus")}))
    assert abs(val - ref) <= err


def test_small_intervals_probe_closed_instance():
    e = IntervalSet.from_pairs([(1.0, 2.0)])
    g = Weight(pieces=(((1.0, 2.0), (1.0,)),), p=math.inf)
    rep = small_intervals_ratio(U_LOG, e, g, 1.0, 1.0, 2.0, 1.0)
    assert rep.lhs == pytest.approx(2.0 * LN2 - 1.0, rel=1e-6)
    assert rep.rhs == pytest.approx(2.0 * LN2 * (2.0 + math.log(6.0)), rel=1e-9)
    assert rep.params["a_min"] == pytest.approx(SMALL_SET_A_STAR, abs=1e-9)


def test_small_intervals_probe_at_r0_zero_uses_the_center_value():
    # At r0 = 0 the minus mean is max(-u(0), 0), with
    # u(0) = -0.2 + ln 0.5 + 0.7 ln|-1 + 0.5i| < 0; the values are pinned.
    # The lhs at rel_tol = 1e-12 is 1.1879855787875353.  The spike of the
    # atom at modulus |-1 + 0.5i| in E is subtracted, which leaves smooth
    # panels, so the err is the rounding floor of the subtraction.
    e = IntervalSet.from_pairs([(1.0, 2.0)])
    g = Weight(pieces=(((1.0, 2.0), (1.0,)),), p=math.inf)
    u = SubharmonicPotential(AtomicMeasure.from_pairs([(0.5, 1.0), (complex(-1, 0.5), 0.7)]), -0.2)
    for b, rhs, a_min in ((1.0, 14.765594483083946, 1.077525975659591), (0.5, 10.680413846075124, 1.0)):
        rep = small_intervals_ratio(u, e, g, 0.0, 1.0, 2.0, b)
        assert rep.lhs == pytest.approx(1.1879855787875366, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs, rel=1e-12)
        assert rep.params["a_min"] == pytest.approx(a_min, rel=1e-12)
        assert rep.error_estimate == pytest.approx(1.3190592726952825e-14, rel=1e-6)
        assert abs(rep.lhs - 1.1879855787875353) <= rep.error_estimate
    # An atom at the origin makes u(0) = -inf, so the structure term is +inf.
    rep = small_intervals_ratio(U_LOG, e, g, 0.0, 1.0, 2.0, 0.5)
    assert rep.rhs == math.inf and rep.params["a_min"] == 1.0


def test_small_intervals_probe_large_set_branch():
    # mes E > 3bR pins the second brace term, keeping m_inf <= 2 mes E.
    e = IntervalSet.from_pairs([(1.0, 2.0)])
    g = Weight(pieces=(((1.0, 2.0), (1.0,)),), p=math.inf)
    rep = small_intervals_ratio(U_LOG, e, g, 1.0, 1.0, 2.0, 0.05)
    assert e.measure > 3 * 0.05 * 2.0
    assert rep.params["m_inf"] <= 2.0 * e.measure + 1e-12


def test_small_intervals_probe_empty_set():
    g = Weight(pieces=(((1.0, 2.0), (1.0,)),), p=math.inf)
    rep = small_intervals_ratio(U_LOG, IntervalSet(), g, 1.0, 1.0, 2.0, 1.0)
    assert rep.degenerate and rep.lhs == 0.0


def test_small_intervals_probe_requires_sup_weight():
    g2 = Weight(pieces=(((1.0, 2.0), (1.0,)),), p=2.0)
    with pytest.raises(ValueError):
        small_intervals_ratio(U_LOG, IntervalSet.from_pairs([(1.0, 2.0)]), g2, 1.0, 1.0, 2.0, 1.0)
    g = Weight(pieces=(((1.0, 2.0), (1.0,)),), p=math.inf)
    with pytest.raises(ValueError):
        small_intervals_ratio(U_LOG, IntervalSet.from_pairs([(1.0, 2.0)]), g, 1.0, 1.0, 2.0, 1.5)


def test_minimal_constant_solver():
    assert _minimal_small_set_constant(0.0, 1.0, 1.0) == 1.0
    assert _minimal_small_set_constant(1.0, 0.0, 1.0) == math.inf
    a1 = _minimal_small_set_constant(0.5, 1.0, 1.0)
    a2 = _minimal_small_set_constant(2.0, 1.0, 1.0)
    assert 1.0 < a1 < a2
    # a ln a = 2 has the closed-form root e^{W(2)}.
    assert a2 == pytest.approx(math.exp(float(lambertw(2.0).real)), rel=1e-14)
    # b < 1: (a/b) ln(a/b) * structure = lhs at a = 0.5 e^{W(1.5)} > 1.
    a3 = _minimal_small_set_constant(3.0, 2.0, 0.5)
    assert a3 == pytest.approx(0.5 * math.exp(float(lambertw(1.5).real)), rel=1e-14)
    assert (a3 / 0.5) * math.log(a3 / 0.5) * 2.0 == pytest.approx(3.0, rel=1e-14)
    # Below the a = 1 value (2 ln 2 here) the answer is 1.
    assert _minimal_small_set_constant(1.0, 1.0, 0.5) == 1.0


# --- identity check ----------------------------------------------------------

def test_mean_difference_identity_random():
    rng = np.random.default_rng(818)
    for _ in range(20):
        mu = _rand_measure(rng, rmax=4.0, avoid=(0.9, 3.7))
        v = SubharmonicPotential(mu, float(rng.uniform(-1, 1)))
        rep = pjp_identity_check(v, 0.9, 3.7)
        assert rep.holds()


def test_mean_difference_identity_equal_radii():
    v = SubharmonicPotential(ORIGIN, 0.3)
    rep = pjp_identity_check(v, 2.0, 2.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.holds()


# --- report conventions -------------------------------------------------------

def test_holds_margin_behavior():
    def rep(lhs, rhs, err):
        return BoundReport(
            name="margin", lhs=lhs, rhs=rhs, ratio=0.0, params={},
            error_estimate=err, instance_fingerprint="", degenerate=False,
        )

    assert rep(1.0 + 5e-13, 1.0, 0.0).holds()
    assert not rep(1.0 + 1e-8, 1.0, 0.0).holds()
    assert rep(1.0 + 1e-8, 1.0, 2e-8).holds()


def test_scaling_leaves_ratios_invariant():
    # Dilating centers, radii, the set, and the weight in lockstep changes
    # neither side: the potential only picks up mass * ln s, absorbed by
    # the component constants.
    rng = np.random.default_rng(919)
    plus = _rand_measure(rng, rmax=2.0, avoid=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    minus = _rand_measure(rng, rmax=2.0, avoid=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    e = IntervalSet.from_pairs([(0.1, 0.4), (0.6, 0.9)])
    pieces = ((0.0, 1.0), (0.3, 0.0, 0.7))
    base = None
    for s in (1.0, 0.5, 3.0):
        U = DeltaSubharmonicFn(
            plus=SubharmonicPotential(
                AtomicMeasure.from_pairs([(c * s, m) for c, m in plus.atoms]),
                0.2 - plus.total_mass * math.log(s),
            ),
            minus=SubharmonicPotential(
                AtomicMeasure.from_pairs([(c * s, m) for c, m in minus.atoms]),
                -0.1 - minus.total_mass * math.log(s),
            ),
        )
        g = Weight(
            pieces=(((pieces[0][0] * s, pieces[0][1] * s),
                     tuple(c / s ** i for i, c in enumerate(pieces[1]))),),
            p=4.0,
        )
        e_s = IntervalSet(tuple((a * s, b * s) for a, b in e.intervals))
        rep = main_theorem_T(U, e_s, g, 1.0 * s, 0.5 * s, 2.0)
        if base is None:
            base = rep
        else:
            assert rep.lhs == pytest.approx(base.lhs, rel=1e-7)
            assert rep.rhs == pytest.approx(base.rhs, rel=1e-7)
            assert rep.ratio == pytest.approx(base.ratio, rel=1e-7)


def test_common_constant_shift_is_invisible():
    rng = np.random.default_rng(920)
    plus = _rand_measure(rng, rmax=1.8, avoid=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    minus = _rand_measure(rng, rmax=1.8, avoid=(0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
    reps = []
    for c in (0.0, 0.37):
        U = DeltaSubharmonicFn(
            plus=SubharmonicPotential(plus, 0.1 + c),
            minus=SubharmonicPotential(minus, -0.2 + c),
        )
        reps.append(main_theorem_T(U, E_UNIT, G_UNIT, 1.0, 0.5, 2.0))
    assert reps[1].lhs == pytest.approx(reps[0].lhs, rel=1e-12)
    assert reps[1].rhs == pytest.approx(reps[0].rhs, rel=1e-12)
