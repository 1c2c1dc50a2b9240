"""Circle means and maxima, counting integrals, and the two-radius characteristic."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from subpot import (
    AtomicMeasure,
    DeltaSubharmonicFn,
    RationalFunctionSpec,
    SubharmonicPotential,
    SuiteConfig,
    canonicalize,
    characteristic_T,
    circle_mean,
    circle_mean_nonlinear,
    counting_integral,
    generate_instance,
    ln_abs,
    max_on_circle,
    max_on_circles,
    nevanlinna,
    pjp_identity_check,
    potential_from_doc,
    radial_count,
    rng_for,
    run_check,
)
import subpot.characteristics as characteristics
from subpot.characteristics import _CIRCLE_GRID, _S_GRID, CircleSampler, _extremes, _quad_mean
from subpot.inequalities import MEAN_QUAD, NORM_QUAD
from subpot.quadrature import QuadratureSpec, integrate
from subpot.search import grid_peaks

from golden_section import golden_max

# Plus-part circle mean of ln|z-1| on |z|=1, from a scipy.integrate.quad
# oracle of (1/2pi) int max(ln|e^{is}-1|, 0) ds.
PLUS_MEAN_UNIT = 0.3230659472195242


def _potential(pairs, const=0.0):
    return SubharmonicPotential(AtomicMeasure.from_pairs(pairs), const)


def _delta(plus_pairs, minus_pairs, plus_const=0.0, minus_const=0.0):
    return DeltaSubharmonicFn(
        plus=_potential(plus_pairs, plus_const),
        minus=_potential(minus_pairs, minus_const),
    )


def _random_potential(rng, max_atoms=6, rmax=4.0, avoid=()):
    # Atoms kept off the probe circles so grid maxima stay finite.
    while True:
        n = int(rng.integers(1, max_atoms + 1))
        moduli = rmax * rng.uniform(0.02, 1.0, size=n)
        if avoid and np.min(np.abs(moduli[:, None] - np.asarray(avoid)[None, :])) < 1e-2:
            continue
        angles = rng.uniform(0, 2 * math.pi, size=n)
        pairs = [
            (complex(m * math.cos(a), m * math.sin(a)), float(rng.uniform(0.1, 2.0)))
            for m, a in zip(moduli, angles)
        ]
        return _potential(pairs, float(rng.uniform(-1, 1)))


def test_max_on_circle_single_atom():
    assert max_on_circle(_potential([(2.0, 1.0)]), 1.0).value == pytest.approx(math.log(3.0), rel=1e-12)


def test_max_on_circle_reciprocal():
    U = _delta([], [(0.0, 1.0)])
    assert max_on_circle(U, 0.5).value == pytest.approx(math.log(2.0), rel=1e-12)


def test_max_on_circle_atom_at_center():
    assert max_on_circle(_potential([(0.0, 1.0)]), 0.0).value == -math.inf


def test_max_on_circle_minus_atom_on_circle():
    U = _delta([], [(1.0, 1.0)])
    assert max_on_circle(U, 1.0).value == math.inf


def test_circle_mean_harmonic_case():
    assert circle_mean(_potential([(2.0, 1.0)]), 1.0).value == pytest.approx(math.log(2.0))


def test_circle_mean_origin_atom():
    assert circle_mean(_potential([(0.0, 1.0)]), math.e).value == pytest.approx(1.0)


@pytest.mark.parametrize(
    "plus_origin, minus_origin, center",
    [
        # -2 + ln 2 - (-0.2 + 0.7 ln|-1 + 0.5i|): the origin atoms cancel.
        (1.0, 1.0, -1.8 + math.log(2.0) - 0.35 * math.log(1.25)),
        (2.0, 1.0, -math.inf),
        (1.0, 2.5, math.inf),
    ],
    ids=["cancel", "plus_wins", "minus_wins"],
)
def test_center_value_is_the_closed_mean_at_zero(plus_origin, minus_origin, center):
    # Origin atoms on both components of a non-canonical difference.
    U = _delta([(0.0, plus_origin), (2.0, 1.0)], [(0.0, minus_origin), (complex(-1, 0.5), 0.7)], -2.0, -0.2)
    mean = circle_mean(U, 0.0)
    assert mean.value == pytest.approx(center, rel=1e-14) and mean.error_estimate == 0.0
    expected = {"id": center, "plus": max(center, 0.0), "minus": max(-center, 0.0), "abs": abs(center)}
    for transform, value in expected.items():
        assert max_on_circle(U, 0.0, transform).value == pytest.approx(value, rel=1e-14)


def test_circle_mean_atom_on_circle_both_routes():
    u = _potential([(1.0, 1.0)])
    closed = circle_mean(u, 1.0)
    assert closed.value == pytest.approx(0.0, abs=1e-14)
    assert closed.error_estimate == 0.0
    quad = circle_mean_nonlinear(u, "id", 1.0)
    assert quad.value == pytest.approx(0.0, abs=1e-5)


def test_circle_mean_routes_agree_on_random_potentials():
    # An atom within 5 % of the circle sends the mean to the adaptive rule
    # with a hint at its angle; the others take the periodic rule.  Both
    # land within their err (plus rounding) of the closed form.
    rng = np.random.default_rng(618)
    hinted = []
    for _ in range(15):
        u = _random_potential(rng, avoid=(1.7,))
        hinted.append(bool(characteristics._spike_angles(characteristics._sampler(u), 1.7)))
        a = circle_mean(u, 1.7)
        b = circle_mean_nonlinear(u, "id", 1.7)
        assert abs(b.value - a.value) <= b.error_estimate + 1e-14 * (1.0 + abs(a.value))
    assert 0 < sum(hinted) < len(hinted)


def _smooth_random_potential(rng, r):
    """A random potential with no atom within 5 % of the circle of radius ``r``."""
    while True:
        u = _random_potential(rng, avoid=(r,))
        if not characteristics._spike_angles(characteristics._sampler(u), r):
            return u


@pytest.mark.parametrize("rel_tol", [None, 1e-11, 1e-13])
def test_periodic_means_lie_within_their_err_on_random_potentials(rel_tol):
    rng = np.random.default_rng(619)
    spec = MEAN_QUAD if rel_tol is None else QuadratureSpec(rel_tol=rel_tol)
    for _ in range(30):
        r = float(rng.uniform(0.3, 4.0))
        u = _smooth_random_potential(rng, r)
        exact = circle_mean(u, r).value
        mean = circle_mean_nonlinear(u, "id", r, spec)
        assert abs(mean.value - exact) <= mean.error_estimate + 1e-14 * (1.0 + abs(exact))


@pytest.mark.parametrize("spec", [MEAN_QUAD, NORM_QUAD], ids=["mean_quad", "norm_quad"])
def test_periodic_mean_is_not_fooled_by_an_aliased_mode(spec):
    # ln|z - a| on |z| = 1 has the modes -|a|**k cos(k (s - pi/64)) / k; on
    # the 32-point grid the mode k = 32 is cos(32 s - pi/2), which vanishes
    # at every node, and T_32 and T_64 share the aliased mode 64
    # (1.6e-10).  A rule that stops on one small difference returns 1.6e-10
    # with an err far below it; the exact mean is 0.
    u = _potential([(0.75 * complex(math.cos(math.pi / 64), math.sin(math.pi / 64)), 1.0)])
    _quad_mean.cache_clear()
    mean = circle_mean_nonlinear(u, "id", 1.0, spec)
    assert abs(mean.value - circle_mean(u, 1.0).value) <= mean.error_estimate <= 1e-14


def test_periodic_mean_reports_the_rounding_floor():
    # One atom at 0.5 on the unit circle: the differences fall far below
    # rounding (3e-18 against a true error of about 1e-17), so the floor of
    # 50 eps times the mean of |f| is what covers the gap.
    u = _potential([(0.5, 1.0)])
    _quad_mean.cache_clear()
    mean = circle_mean_nonlinear(u, "id", 1.0, MEAN_QUAD)
    sampler = characteristics._sampler(u)
    s = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    floor = 50.0 * np.finfo(float).eps * np.abs(sampler.profile(1.0, s)).mean()
    assert abs(mean.value - circle_mean(u, 1.0).value) <= mean.error_estimate
    assert mean.error_estimate >= 0.99 * floor


@pytest.mark.parametrize(
    "transform,r,rules",
    [
        ("id", 1.2, ["integrate_periodic"]),
        ("plus", 3.0, []),
        ("id", 1.02, ["integrate"]),
        ("plus", 1.2, ["integrate"]),
        ("abs", 1.2, ["integrate"]),
    ],
    ids=["smooth", "smooth_plus", "hint", "kink", "abs_kink"],
)
def test_mean_takes_the_adaptive_rule_only_for_a_hint_or_a_kink(transform, r, rules, monkeypatch):
    # Atoms at 1 (within 5 % of r = 1.02) and at 0.3 and -0.5i; the profile
    # changes sign on r = 1.2, and is positive on r = 3, where the plus mean
    # is the closed mean and needs no rule at all.
    U = _delta([(1.0, 1.0), (-0.5j, 2.0)], [(0.3, 1.5)], plus_const=0.2)
    used = []
    for name in ("integrate", "integrate_periodic"):
        rule = getattr(characteristics, name)
        monkeypatch.setattr(characteristics, name, lambda *a, rule=rule, name=name, **k: used.append(name) or rule(*a, **k))
    _quad_mean.cache_clear()
    mean = circle_mean_nonlinear(U, transform, r, MEAN_QUAD)
    _quad_mean.cache_clear()
    assert used == rules
    assert math.isfinite(mean.value) and mean.error_estimate <= 1e-9 * (1.0 + abs(mean.value))


@pytest.mark.parametrize("transform", ["plus", "minus", "abs"])
def test_one_signed_means_are_closed_forms(transform, monkeypatch):
    # Where the cell bound proves the profile one-signed on the circle, the
    # mean of its plus, minus or abs part is the closed mean of +-v or 0,
    # with a rounding floor for its err; "id" keeps its quadrature, which
    # cross-checks that same closed form.
    plus, minus = [(1.0, 1.0), (-0.5j, 2.0)], [(0.3, 1.5)]
    used = []
    for name in ("integrate", "integrate_periodic"):
        rule = getattr(characteristics, name)
        monkeypatch.setattr(characteristics, name, lambda *a, rule=rule, name=name, **k: used.append(name) or rule(*a, **k))
    wrap, _ = characteristics.TRANSFORMS[transform]
    for U, sign in ((_delta(plus, minus, plus_const=0.2), 1.0), (_delta(minus, plus, minus_const=0.2), -1.0)):
        sampler = characteristics._sampler(U)
        assert np.all(sign * sampler.grid_profile(np.array([3.0]))[0] > 0)
        _quad_mean.cache_clear()
        mean = circle_mean_nonlinear(U, transform, 3.0)
        assert used == []
        assert mean.value == (sign * circle_mean(U, 3.0).value if wrap(sign) > 0 else 0.0)
        assert 0.0 < mean.error_estimate <= 1e-13
        ref, _ = scipy_quad(lambda s: float(wrap(sampler.profile(3.0, s))), 0.0, 2 * math.pi, epsabs=1e-13)
        assert abs(mean.value - ref / (2 * math.pi)) <= 1e-12
        _quad_mean.cache_clear()
        circle_mean_nonlinear(U, "id", 3.0)
        assert used == ["integrate_periodic"]
        used.clear()
    _quad_mean.cache_clear()


def test_plus_mean_reciprocal():
    U = _delta([], [(0.0, 1.0)])
    assert circle_mean_nonlinear(U, "plus", 0.5).value == pytest.approx(math.log(2.0), rel=1e-9)


def test_plus_mean_negative_component_vanishes():
    U = _delta([(0.0, 1.0)], [])
    assert circle_mean_nonlinear(U, "plus", 0.5).value == pytest.approx(0.0, abs=1e-12)


def test_abs_mean_decomposition():
    # C_|U| = C_U + 2 C_{U^-}; for U = ln|z-1| at r = 1 the plain mean is 0,
    # so the abs mean is twice the plus mean.
    U = _delta([(1.0, 1.0)], [])
    absmean = circle_mean_nonlinear(U, "abs", 1.0)
    plus = circle_mean_nonlinear(U, "plus", 1.0)
    minus = circle_mean_nonlinear(U, "minus", 1.0)
    assert plus.value == pytest.approx(PLUS_MEAN_UNIT, rel=1e-6)
    assert absmean.value == pytest.approx(2.0 * PLUS_MEAN_UNIT, rel=1e-6)
    assert absmean.value == pytest.approx(plus.value + minus.value, rel=1e-7)


def test_plus_mean_takes_kinks_as_plain_edges(monkeypatch):
    # The positive part kinks where the profile crosses 0; it is smooth on
    # each side, so a kink only needs to be a panel edge.
    U = _delta([(1.0, 1.0), (-0.5j, 2.0)], [(0.3, 1.5)], plus_const=0.2)
    r = 1.2
    sampler = characteristics._sampler(U)
    kinks = characteristics._kink_angles(sampler, r)
    assert len(kinks) == 2

    def plus(s):
        return np.maximum(sampler.profile(r, s), 0.0)

    ref, _ = scipy_quad(lambda s: float(plus(np.array([s]))[0]), 0.0, 2 * math.pi, points=kinks, epsabs=1e-14, limit=200)
    panels = []

    def counting(f, a, b, spec, hints, breaks):
        def g(s):
            panels.append(s)
            return f(s)

        return integrate(g, a, b, spec, hints, breaks)

    monkeypatch.setattr(characteristics, "integrate", counting)
    _quad_mean.cache_clear()
    mean = circle_mean_nonlinear(U, "plus", r, MEAN_QUAD)
    _quad_mean.cache_clear()
    assert abs(mean.value - ref / (2 * math.pi)) <= mean.error_estimate
    graded = []
    integrate(lambda s: graded.append(s) or plus(s), 0.0, 2 * math.pi, MEAN_QUAD, hints=kinks)
    assert len(panels) == 9 and len(graded) == 29


@pytest.mark.parametrize("gen_seed,index", [(304000003, 35), (307000000, 65)])
def test_spike_hints_keep_near_singular_means_honest(gen_seed, index):
    # An atom 0.23 % (2.9 %) of the radius from the circle makes a
    # near-singular spike.  Its hint is graded toward; taken as a plain break
    # instead, the first Gauss-Kronrod panel ending on it is fooled, and these
    # pjp_identity rows stop holding (lhs 6.6e-7 and 1.3e-7 against err
    # 3.7e-11 and 3.4e-11).
    inst = generate_instance("pjp_identity", rng_for(gen_seed, "pjp_identity", index)[0], SuiteConfig(seed=gen_seed))
    for combo in inst.combos:
        doc = {**inst.base_doc, **combo}
        assert run_check("pjp_identity", doc).holds()
        v = potential_from_doc(doc["v"])
        for r in (doc["r"], doc["R"]):
            mean = circle_mean_nonlinear(v, "id", r, NORM_QUAD)
            assert abs(mean.value - circle_mean(v, r).value) <= mean.error_estimate


def test_mean_memo_keys_on_the_quadrature_spec():
    # Two specs on one (function, radius, transform): each call gets its own
    # spec's (value, err), computed cold, never the other spec's entry.
    U = _delta([(1.0, 1.0), (-0.5j, 2.0)], [(0.3, 1.5)], plus_const=0.2)
    loose = QuadratureSpec(rel_tol=1e-3)
    cold = {}
    for spec in (MEAN_QUAD, loose):
        _quad_mean.cache_clear()
        cold[spec] = _quad_mean(U, 1.2, "plus", spec)
    assert cold[MEAN_QUAD] != cold[loose]
    _quad_mean.cache_clear()
    for spec in (MEAN_QUAD, loose, MEAN_QUAD, loose):
        mean = circle_mean_nonlinear(U, "plus", 1.2, spec)
        assert (mean.value, mean.error_estimate) == cold[spec]
    assert _quad_mean.cache_info().hits == 2


def test_radial_count_examples():
    assert radial_count(AtomicMeasure.from_pairs([(0.0, 1.0)]), 0.0) == 1.0
    two = AtomicMeasure.from_pairs([(2.0, 1.0), (3.0, 2.0)])
    assert radial_count(two, 2.5) == 1.0
    assert radial_count(AtomicMeasure.empty(), 10.0) == 0.0


def test_counting_integral_examples():
    origin = AtomicMeasure.from_pairs([(0.0, 1.0)])
    assert counting_integral(origin, 1.0, math.e) == pytest.approx(1.0)
    off = AtomicMeasure.from_pairs([(2.0, 1.0)])
    assert counting_integral(off, 1.0, 4.0) == pytest.approx(math.log(2.0))
    assert counting_integral(origin, 0.0, 1.0) == math.inf
    assert counting_integral(off, 2.5, 2.5) == 0.0
    with pytest.raises(ValueError):
        counting_integral(off, 2.0, 1.0)


def test_characteristic_reciprocal():
    U = _delta([], [(0.0, 1.0)])
    assert characteristic_T(U, 0.1, math.e).value == pytest.approx(1.0, rel=1e-8)


def test_characteristic_zero_function():
    U = _delta([], [])
    assert characteristic_T(U, 0.5, 2.0).value == pytest.approx(0.0, abs=1e-12)


def test_characteristic_pure_potential():
    U = _delta([(0.0, 1.0)], [])
    assert characteristic_T(U, 1.0, math.e).value == pytest.approx(1.0, rel=1e-8)


def test_characteristic_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(10):
        U = DeltaSubharmonicFn(
            plus=_random_potential(rng, avoid=(0.8, 3.1)),
            minus=_random_potential(rng, avoid=(0.8, 3.1)),
        )
        t = characteristic_T(U, 0.8, 3.1)
        assert t.value >= -t.error_estimate - 1e-12


def test_characteristic_monotone_in_outer_radius():
    rng = np.random.default_rng(77)
    radii = (1.0, 1.6, 2.6)
    for _ in range(10):
        U = DeltaSubharmonicFn(
            plus=_random_potential(rng, avoid=radii + (0.5,)),
            minus=_random_potential(rng, avoid=radii + (0.5,)),
        )
        vals = [characteristic_T(U, 0.5, R) for R in radii]
        for lo, hi in zip(vals, vals[1:]):
            assert lo.value <= hi.value + lo.error_estimate + hi.error_estimate + 1e-10


def test_characteristic_antitone_in_inner_radius():
    rng = np.random.default_rng(78)
    for _ in range(10):
        U = DeltaSubharmonicFn(
            plus=_random_potential(rng, avoid=(0.4, 0.9, 3.5)),
            minus=_random_potential(rng, avoid=(0.4, 0.9, 3.5)),
        )
        a = characteristic_T(U, 0.4, 3.5)
        b = characteristic_T(U, 0.9, 3.5)
        assert b.value <= a.value + a.error_estimate + b.error_estimate + 1e-10


def test_characteristic_convex_in_log_radius():
    rng = np.random.default_rng(79)
    r1, r3 = 1.2, 4.8
    r2 = math.sqrt(r1 * r3)
    for _ in range(10):
        U = DeltaSubharmonicFn(
            plus=_random_potential(rng, avoid=(0.6, r1, r2, r3)),
            minus=_random_potential(rng, avoid=(0.6, r1, r2, r3)),
        )
        t1 = characteristic_T(U, 0.6, r1)
        t2 = characteristic_T(U, 0.6, r2)
        t3 = characteristic_T(U, 0.6, r3)
        eps = t1.error_estimate + t2.error_estimate + t3.error_estimate + 1e-10
        assert t2.value <= 0.5 * (t1.value + t3.value) + eps


def test_max_nondecreasing_for_potentials():
    rng = np.random.default_rng(80)
    radii = np.linspace(0.3, 4.5, 9)
    for _ in range(10):
        u = _random_potential(rng, avoid=tuple(radii))
        vals = [max_on_circle(u, float(r)).value for r in radii]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9


def test_mean_below_max():
    rng = np.random.default_rng(81)
    for _ in range(15):
        u = _random_potential(rng, avoid=(2.3,))
        assert circle_mean(u, 2.3).value <= max_on_circle(u, 2.3).value + 1e-10


def test_positive_part_of_max_is_max_of_positive_part():
    rng = np.random.default_rng(82)
    for _ in range(15):
        U = DeltaSubharmonicFn(
            plus=_random_potential(rng, avoid=(1.9,)),
            minus=_random_potential(rng, avoid=(1.9,)),
        )
        plain = max_on_circle(U, 1.9).value
        plus = max_on_circle(U, 1.9, transform="plus").value
        assert plus == pytest.approx(max(plain, 0.0), abs=1e-12)


def test_circle_maxima_match_dense_reference_near_atoms():
    # Accuracy gate for the grid-plus-golden kernel: on circles passing
    # within 1e-2 .. 1e-8 (relative) of an atom, where the profile has its
    # sharpest peaks, the maximum never falls more than 1e-6 (relative)
    # below a 65,536-point reference grid seeded with the atom angles.
    rng = np.random.default_rng(83)
    ref_grid = np.linspace(0.0, 2 * math.pi, 65536, endpoint=False)
    for _ in range(5):
        U = canonicalize(
            DeltaSubharmonicFn(
                plus=_random_potential(rng, max_atoms=3, rmax=3.0),
                minus=_random_potential(rng, max_atoms=3, rmax=3.0),
            )
        )
        centers = np.concatenate([U.plus.charge.centers, U.minus.charge.centers])
        ts = np.array(
            [abs(c) * (1.0 + sign * 10.0**-k) for c in centers for k in (2, 4, 6, 8) for sign in (-1, 1)]
        )
        angles = np.concatenate([ref_grid, np.angle(centers) % (2 * math.pi)])
        sampler = CircleSampler(U)
        sup = max_on_circles(U, ts, "id")
        sup_minus = max_on_circles(U, ts, "minus")
        for t, got, got_minus in zip(ts, sup, sup_minus):
            prof = sampler.profile(np.full(angles.shape, t), angles)
            ref, ref_minus = prof.max(), max(-prof.min(), 0.0)
            assert got >= ref - 1e-6 * max(abs(ref), 1.0)
            assert got_minus >= ref_minus - 1e-6 * max(ref_minus, 1.0)


def test_jet_matches_profile_and_its_finite_differences():
    rng = np.random.default_rng(87)
    h = 1e-4
    for _ in range(10):
        sampler = CircleSampler(DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng)))
        t = rng.uniform(0.05, 5.0, 30)
        s = rng.uniform(0.0, 2 * math.pi, 30)
        p, dp, d2p = sampler.jet(t, s)
        lo, mid, hi = (sampler.profile(t, s + d) for d in (-h, 0.0, h))
        assert p == pytest.approx(mid, rel=1e-13, abs=1e-13)
        # Central differences carry an O(h^2) truncation error.
        scale = 1.0 + np.abs(d2p)
        assert np.all(np.abs(dp - (hi - lo) / (2 * h)) <= 1e-5 * scale)
        assert np.all(np.abs(d2p - (hi - 2 * mid + lo) / h**2) <= 1e-3 * scale)


def test_grid_profile_matches_the_kernel_on_the_grid():
    # The grid passes form D = t G + (t - rho)**2 from the cached grid G,
    # which is built by the same expression as G at given angles, so a grid
    # value and the kernel's value at a grid angle have the same bits.
    rng = np.random.default_rng(90)
    for _ in range(10):
        sampler = CircleSampler(DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng)))
        ts = np.concatenate([[0.0], rng.uniform(0.05, 5.0, 14)])
        ref = sampler.profile(ts[:, None], _S_GRID[None, :])
        got = sampler.grid_profile(ts)
        assert got.shape == ref.shape == (15, _CIRCLE_GRID)
        assert np.array_equal(got, ref)


def test_radial_slope_matches_finite_differences():
    rng = np.random.default_rng(91)
    h = 1e-5
    for _ in range(10):
        sampler = CircleSampler(DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng)))
        t = rng.uniform(0.05, 5.0, 30)
        s = rng.uniform(0.0, 2 * math.pi, 30)
        slope = sampler.radial_slope(t, s)
        diff = (sampler.profile(t + h, s) - sampler.profile(t - h, s)) / (2 * h)
        assert np.all(np.abs(slope - diff) <= 1e-5 * (1.0 + np.abs(slope)))


def test_circle_extremes_return_the_angles_that_attain_them():
    rng = np.random.default_rng(92)
    for _ in range(10):
        sampler = CircleSampler(DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng)))
        ts = rng.uniform(0.05, 5.0, 15)
        best, angles, _ = _extremes(sampler, ts, np.array([1.0, -1.0]))
        values = np.array([best[0], -best[1]])
        assert values.shape == angles.shape == (2, 15)
        at = sampler.profile(np.broadcast_to(ts, angles.shape), angles)
        assert np.all(np.abs(at - values) <= 1e-12 * np.maximum(np.abs(values), 1.0))


def test_kernel_point_alone_matches_batch():
    # The atoms are summed one after another for any number of points, so a
    # point alone has the same bits as inside a batch (numpy would sum a
    # single point's 8 or more atoms pairwise).
    rng = np.random.default_rng(88)
    for n in range(1, 15):
        centers = rng.uniform(0.1, 4.0, n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
        pairs = [(complex(c), float(m)) for c, m in zip(centers, rng.uniform(0.1, 2.0, n))]
        sampler = CircleSampler(_delta(pairs[: (n + 1) // 2], pairs[(n + 1) // 2 :], 0.3, -0.2))
        t = rng.uniform(0.05, 5.0, 20)
        s = rng.uniform(0.0, 2 * math.pi, 20)
        batch = sampler.jet(t, s) + (sampler.radial_slope(t, s),)
        for i in range(t.size):
            alone = sampler.jet(t[i : i + 1], s[i : i + 1]) + (sampler.radial_slope(t[i : i + 1], s[i : i + 1]),)
            for b, a in zip(batch, alone):
                assert a[0] == b[i]
            assert sampler.jet(t[i], s[i])[0] == batch[0][i]


def test_circle_maxima_of_a_batch_equal_the_per_radius_calls():
    # Newton polishes every peak of a call as one set of lanes, so lanes
    # drop out at different times; each radius still gets the same bits as
    # on its own, with up to 14 atoms per component.
    rng = np.random.default_rng(93)
    for n in (3, 8, 14):
        U = DeltaSubharmonicFn(plus=_random_potential(rng, n), minus=_random_potential(rng, n))
        ts = rng.uniform(0.05, 4.5, 40)
        for transform in ("id", "plus", "minus", "abs"):
            alone = np.concatenate([max_on_circles(U, ts[i : i + 1], transform) for i in range(ts.size)])
            assert np.array_equal(max_on_circles(U, ts, transform), alone)


def _reference_jet(U, z):
    """Value and angular derivatives at points ``z``, summed atom by atom in complex arithmetic."""
    z = np.asarray(z, complex)
    p = np.full(z.shape, U.plus.const - U.minus.const)
    dp = np.zeros(z.shape)
    d2p = np.zeros(z.shape)
    for sign, charge in ((1.0, U.plus.charge), (-1.0, U.minus.charge)):
        for a, m in charge.atoms:
            w = z - a
            p += sign * m * np.log(np.abs(w))
            dp -= sign * m * (z / w).imag
            d2p += sign * m * (z * a / w**2).real
    return p, dp, d2p


def _assert_kernel_matches(sampler, t, s, rel=1e-12):
    z = np.asarray(t, float) * np.exp(1j * np.asarray(s, float))
    ref = _reference_jet(sampler.u, z)
    got = sampler.jet(t, s)
    prof = sampler.profile(t, s)
    assert prof.shape == z.shape
    assert np.array_equal(got[0], prof)
    for g, r in zip(got, ref):
        assert g.shape == z.shape
        assert np.all(np.abs(g - r) <= rel * np.maximum(np.abs(r), 1.0))


def test_kernel_broadcasts_point_shapes():
    rng = np.random.default_rng(88)
    sampler = CircleSampler(DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng)))
    _assert_kernel_matches(sampler, rng.uniform(0.05, 5.0, (7, 1)), rng.uniform(0.0, 2 * math.pi, (1, 33)))
    _assert_kernel_matches(sampler, 1.7, rng.uniform(0.0, 2 * math.pi, 40))
    _assert_kernel_matches(sampler, rng.uniform(0.05, 5.0, (4, 9)), rng.uniform(0.0, 2 * math.pi, (4, 9)))


def test_kernel_with_many_atoms_per_component():
    # Past 8 terms numpy sums a contiguous axis pairwise, in blocks; the
    # kernel reduces over the leading atom axis, one atom after another.
    rng = np.random.default_rng(89)
    for n in (9, 14):
        U = DeltaSubharmonicFn(
            plus=_potential([(complex(c), 0.5) for c in rng.normal(size=n) + 1j * rng.normal(size=n)], 0.3),
            minus=_potential([(complex(c), 0.7) for c in rng.normal(size=n) + 1j * rng.normal(size=n)], -0.2),
        )
        sampler = CircleSampler(U)
        assert sampler.u.plus.charge.masses.size == n and sampler.u.minus.charge.masses.size == n
        _assert_kernel_matches(sampler, rng.uniform(0.05, 3.0, (5, 1)), rng.uniform(0.0, 2 * math.pi, (1, 64)))


def test_kernel_without_atoms_is_the_constant():
    sampler = CircleSampler(_delta([], [], plus_const=1.25, minus_const=0.5))
    t, s = np.array([[0.0], [1.0], [3.0]]), np.linspace(0.0, 2 * math.pi, 5)[None, :]
    p, dp, d2p = sampler.jet(t, s)
    assert np.array_equal(sampler.profile(t, s), np.full((3, 5), 0.75))
    assert np.array_equal(p, np.full((3, 5), 0.75))
    assert np.array_equal(dp, np.zeros((3, 5))) and np.array_equal(d2p, np.zeros((3, 5)))


def test_kernel_atom_on_the_point():
    t, s = 1.3, 0.7
    a = complex(t * math.cos(s), t * math.sin(s))
    for plus, minus, value in (([(a, 1.0)], [(2.0, 0.5)], -math.inf), ([(2.0, 0.5)], [(a, 1.0)], math.inf)):
        sampler = CircleSampler(_delta(plus, minus))
        ts, ss = np.array([t, 0.4]), np.array([s, 2.0])
        p, dp, d2p = sampler.jet(ts, ss)
        assert p[0] == value and sampler.profile(ts, ss)[0] == value
        # Non-finite derivatives stop a Newton lane.
        assert not np.isfinite(dp[0]) and not np.isfinite(d2p[0])
        assert np.all(np.isfinite([p[1], dp[1], d2p[1]]))


def _golden_circle_max(U, ts, sign):
    """Circle maxima of sign * profile by the grid plus golden-section polish, as a reference."""
    sampler = CircleSampler(U)
    s_grid = np.linspace(0.0, 2 * math.pi, _CIRCLE_GRID, endpoint=False)
    step = 2 * math.pi / _CIRCLE_GRID
    vals = sign * sampler.profile(ts[:, None], s_grid[None, :])
    best = vals.max(axis=1)
    rows, cols = grid_peaks(vals, periodic=True)
    refined = golden_max(lambda s: sign * sampler.profile(ts[rows], s), s_grid[cols] - step, s_grid[cols] + step)
    np.maximum.at(best, rows, refined)
    return sign * best


def test_circle_maxima_agree_with_golden_section_away_from_atoms():
    # On circles at least 1e-3 (relative) from every atom the Newton polish
    # and a golden-section polish of the same grid brackets agree to 1e-12.
    # Nearer to an atom both are limited by the rounding of z - a.
    rng = np.random.default_rng(85)
    checked = 0
    for _ in range(12):
        U = canonicalize(
            DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng))
        )
        moduli = np.concatenate([U.plus.charge.moduli, U.minus.charge.moduli])
        ts = rng.uniform(0.05, 5.0, 40)
        far = np.all(np.abs(ts[:, None] - moduli) >= 1e-3 * np.maximum(ts[:, None], moduli), axis=1)
        ts = ts[far]
        checked += ts.size
        ref_max = _golden_circle_max(U, ts, 1.0)
        ref_minus = np.maximum(-_golden_circle_max(U, ts, -1.0), 0.0)
        for got, ref in ((max_on_circles(U, ts, "id"), ref_max), (max_on_circles(U, ts, "minus"), ref_minus)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))
    assert checked > 300


def test_abs_maxima_share_the_grid_exactly():
    # One grid pass serves both extremes, so "abs" is exactly the larger of
    # the "id" maximum's size and the "minus" maximum.
    rng = np.random.default_rng(86)
    for _ in range(10):
        U = DeltaSubharmonicFn(plus=_random_potential(rng), minus=_random_potential(rng))
        ts = rng.uniform(0.05, 5.0, 25)
        both = max_on_circles(U, ts, "abs")
        assert np.array_equal(both, np.maximum(np.abs(max_on_circles(U, ts, "id")), max_on_circles(U, ts, "minus")))


def _random_points(rng, n):
    return 4.0 * rng.uniform(0.02, 1.0, n) * np.exp(2j * math.pi * rng.random(n))


def _bound_cases():
    """Potentials and radii for the cell bound, edge cases included.

    Random pairs with up to 14 atoms per component, an atom at the origin
    on either side, an atom on a probed circle at a grid angle (``D = 0`` on
    the grid), and radii within 1e-12 of an atom's modulus.
    """
    rng = np.random.default_rng(94)
    cases = []
    for i in range(12):
        n = (3, 8, 14)[i % 3]
        plus, minus = (
            _potential([(complex(c), float(m)) for c, m in zip(_random_points(rng, n), rng.uniform(0.1, 2.0, n))])
            for _ in range(2)
        )
        moduli = np.concatenate([plus.charge.moduli, minus.charge.moduli])[:3]
        ts = np.concatenate([rng.uniform(0.05, 4.5, 12), moduli * (1.0 + np.array([1e-12, -1e-12, 3e-13]))])
        cases.append((DeltaSubharmonicFn(plus=plus, minus=minus), ts))
    t = 1.3
    for k, sides in ((37, (0, 1)), (512, (1, 0))):
        on_circle = [(complex(t * math.cos(_S_GRID[k]), t * math.sin(_S_GRID[k])), 0.7)]
        parts = (_potential(on_circle + [(0.0, 0.4)]), _potential([(0.4 + 0.9j, 1.1), (-1.7, 0.6)]))
        ts = np.array([t, t * (1 + 1e-12), 0.4, 2.0])
        cases.append((DeltaSubharmonicFn(plus=parts[sides[0]], minus=parts[sides[1]]), ts))
    return cases


def test_cell_bounds_cover_the_grid_and_the_polished_peaks():
    both = np.array([1.0, -1.0])
    rng = np.random.default_rng(95)
    for U, ts in _bound_cases():
        sampler = CircleSampler(U)
        coarse, bounds = sampler.cell_bounds(ts, both)
        grid = sampler.grid_profile(ts)
        assert np.array_equal(coarse, grid[:, ::16]) and not np.isnan(bounds).any()
        cells = np.arange(_CIRCLE_GRID) // 16
        for b, sign in enumerate(both):
            vals = sign * grid
            assert np.all(vals <= bounds[b][:, cells])
            # A grid column on a cell edge also ends the cell before it.
            assert np.all(vals[:, ::16] <= np.roll(bounds[b], 1, axis=1))
            # The profile anywhere inside a cell, by the jet.
            s = (np.arange(64)[:, None] + rng.random((64, 8))) * (2 * math.pi / 64)
            with np.errstate(invalid="ignore"):
                inside = sign * sampler.jet(ts[:, None, None], s[None])[0]
            assert np.all((inside <= bounds[b][:, :, None]) | np.isnan(inside))
        # Every Newton value from a grid peak lies below the bound of the
        # cells its bracket touches.
        _, _, (k, rows, cols, _, refined) = _extremes(sampler, ts, both)
        cell = cols // 16
        edge = np.where(cols % 16 == 0, (cell - 1) % 64, cell)
        assert np.all(refined <= np.maximum(bounds[k, rows, cell], bounds[k, rows, edge]))


def test_circle_maxima_skip_no_cell_that_could_win(monkeypatch):
    # The pruned search gives the same floats as the whole grid, for every
    # transform, on batches and on single radii alike.
    for U, ts in _bound_cases():
        for transform in ("id", "plus", "minus", "abs"):
            got = {}
            for prune_from in (1, 10**9):
                monkeypatch.setattr(characteristics, "_PRUNE_RADII", prune_from)
                characteristics._sampler.cache_clear()
                got[prune_from] = (max_on_circles(U, ts, transform), [max_on_circles(U, ts[i : i + 1], transform) for i in range(3)])
            assert np.array_equal(got[1][0], got[10**9][0])
            assert all(np.array_equal(a, b) for a, b in zip(got[1][1], got[10**9][1]))


def test_many_radii_take_the_grid_pass_in_chunks():
    # The first panels of a whole weighted integral come as one call; its
    # grid pass holds one chunk of radii at a time (all at once took 48 MB).
    rng = np.random.default_rng(12)

    def atoms():
        z = rng.uniform(0.2, 2.0, 6) * np.exp(2j * np.pi * rng.random(6))
        return [(complex(c), float(m)) for c, m in zip(z, rng.uniform(0.5, 2.0, 6))]

    U = _delta(atoms(), atoms())
    ts = np.linspace(0.01, 2.5, 450)
    tracemalloc.start()
    try:
        got = max_on_circles(U, ts, "abs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    ref = np.concatenate([max_on_circles(U, ts[i : i + 15], "abs") for i in range(0, ts.size, 15)])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("transform", ["plus", "abs", "id", "minus"])
def test_upward_spikes_sit_on_the_kernels_singular_radii(transform):
    # The spikes are read from the kernel's own atoms, so the circle maxima
    # are +inf at every one of their moduli (Python's abs(c) differs from
    # numpy's modulus in the last bit for about a third of the centres), and
    # each angle is the kernel's theta in [0, 2 pi), or NaN at the origin.
    rng = np.random.default_rng(30)
    radii = 0
    for _ in range(40):
        plus, minus = (
            [(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 2.0))) for _ in range(int(rng.integers(1, 9)))]
            for _ in range(2)
        )
        (plus if rng.random() < 0.5 else minus).append((0j, float(rng.uniform(0.1, 2.0))))
        U = _delta(plus, minus)
        spikes = characteristics.upward_spikes(U, transform)
        assert np.all(max_on_circles(U, list(spikes), transform) == np.inf)
        rho, theta, h = characteristics._sampler(U)._atoms
        up = np.isin(-np.sign(h), characteristics.TRANSFORMS[transform][1])
        assert sorted(spikes) == sorted(set(rho[up].tolist()))
        for r, (m, sign, angle) in spikes.items():
            own = up & (rho == r) & (-np.sign(h) == sign)
            assert m == 2.0 * np.abs(h[up & (rho == r)]).max() == 2.0 * np.abs(h[own]).max()
            if r == 0.0:
                assert math.isnan(angle)
            else:
                assert angle in (theta[own] % (2 * math.pi)).tolist()
        radii += len(spikes)
    assert radii > 150


def test_nevanlinna_counts_poles_at_and_off_the_origin():
    # N(r) = n(0) ln r + sum over the poles 0 < |a| <= r of m ln(r/|a|).
    off = [(0.3 + 0.4j, 1.0), (-1.2, 3.0), (2.0 + 2.0j, 1.0)]
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.from_pairs([(0.5 - 1.0j, 1.0)]),
        poles=AtomicMeasure.from_pairs([(0.0, 2.0), *off]),
    )
    for r in (0.3, 0.7, 1.5, 3.0):
        expected = 2.0 * math.log(r) + sum(m * math.log(r / abs(a)) for a, m in off if abs(a) <= r)
        assert nevanlinna(f, r).N.value == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_nevanlinna_reciprocal_outside_unit_disc():
    f = RationalFunctionSpec(poles=AtomicMeasure.from_pairs([(0.0, 1.0)]))
    nv = nevanlinna(f, 2.0)
    assert nv.M.value == pytest.approx(0.5, rel=1e-9)
    assert nv.m.value == pytest.approx(0.0, abs=1e-12)
    assert nv.N.value == pytest.approx(math.log(2.0))
    assert nv.T.value == pytest.approx(math.log(2.0), rel=1e-9)


def test_nevanlinna_reciprocal_inside_unit_disc():
    f = RationalFunctionSpec(poles=AtomicMeasure.from_pairs([(0.0, 1.0)]))
    nv = nevanlinna(f, 0.5)
    assert nv.M.value == pytest.approx(2.0, rel=1e-9)
    assert nv.m.value == pytest.approx(math.log(2.0), rel=1e-9)
    assert nv.N.value == pytest.approx(-math.log(2.0))
    assert nv.T.value == pytest.approx(0.0, abs=1e-9)


def test_nevanlinna_entire_monomial():
    f = RationalFunctionSpec(zeros=AtomicMeasure.from_pairs([(0.0, 1.0)]))
    nv = nevanlinna(f, 3.0)
    assert nv.N.value == 0.0
    assert nv.M.value == pytest.approx(3.0, rel=1e-9)
    assert nv.T.value == pytest.approx(math.log(3.0), rel=1e-9)
    assert nv.T.value == pytest.approx(nv.m.value, rel=1e-12)


def test_nevanlinna_consistent_with_two_radius_characteristic():
    # With every pole modulus above r0 the two characteristics agree exactly:
    # T(r, f) = T_U(r0, r) + (plus-mean at r0).
    rng = np.random.default_rng(83)
    for _ in range(8):
        poles = [(complex(rng.uniform(0.4, 1.5), rng.uniform(0.2, 1.0)), float(rng.integers(1, 3)))
                 for _ in range(int(rng.integers(1, 3)))]
        zeros = [(complex(rng.uniform(-2.0, -0.5), 0.0), float(rng.integers(1, 3)))]
        f = RationalFunctionSpec(
            zeros=AtomicMeasure.from_pairs(zeros),
            poles=AtomicMeasure.from_pairs(poles),
            scale=float(rng.uniform(0.5, 2.0)),
        )
        r0 = 0.5 * min(f.poles.moduli)
        r = 3.0 + float(rng.uniform(0.0, 1.0))
        U = ln_abs(f)
        lhs = nevanlinna(f, r).T.value
        rhs = characteristic_T(U, r0, r).value + circle_mean_nonlinear(U, "plus", r0).value
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


def test_mean_difference_matches_counting_integral():
    rng = np.random.default_rng(84)
    for _ in range(30):
        u = _random_potential(rng, avoid=(0.7, 3.3))
        rep = pjp_identity_check(u, 0.7, 3.3)
        # rhs already encodes the 1e-8 absolute + 1e-8 relative budget.
        assert rep.holds()
        assert rep.lhs <= rep.rhs + rep.error_estimate + 1e-12
