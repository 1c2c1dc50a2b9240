"""Adaptive quadrature: exactness, error honesty, and failure modes."""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammaincc

from subpot import QuadratureError, QuadratureSpec, integrate
from subpot.quadrature import _PERIODIC_MAX_POINTS, _WG, _WGK, _XGK, first_panel_nodes, integrate_periodic

# 2*pi*I0(1), independently computed from scipy.special.i0.
EXP_COS_CIRCLE = 7.954926521012844


def test_gauss_kronrod_constants_are_exact_on_monomials():
    # The 15-point Kronrod rule integrates x^k exactly for k <= 22 and its
    # embedded 7-point Gauss rule for k <= 13; with weights to the last bit
    # only the rounding of the weighted sum is left.
    eps = np.finfo(float).eps
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(_WGK @ _XGK**k - exact) <= 2 * eps, k
        if k <= 13:
            assert abs(_WG @ _XGK[1::2] ** k - exact) <= 2 * eps, k


def test_log_integral_exact():
    val, err = integrate(np.log, 1.0, math.e)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert err <= 1e-9


def test_log_singularity_at_zero_with_hint():
    val, err = integrate(lambda t: np.log(1.0 / t), 0.0, 1.0, hints=[0.0])
    assert val == pytest.approx(1.0, abs=1e-10)


def test_inverse_sqrt_singularity_with_hint():
    val, err = integrate(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, hints=[0.0])
    assert val == pytest.approx(2.0, rel=1e-9)


def test_smooth_periodic_integrand():
    val, err = integrate(lambda s: np.exp(np.cos(s)), 0.0, 2.0 * math.pi)
    assert val == pytest.approx(EXP_COS_CIRCLE, rel=1e-12)


def test_kink_hint_keeps_exactness():
    val, err = integrate(lambda t: np.abs(t - 0.5), 0.0, 1.0, hints=[0.5])
    assert val == pytest.approx(0.25, abs=1e-13)


def test_reported_error_bounds_true_error():
    # Cubics integrated against their exact antiderivative: the estimate
    # must dominate the actual defect on every draw.
    rng = np.random.default_rng(1812)
    for _ in range(50):
        coeffs = rng.uniform(-2.0, 2.0, size=4)
        a = float(rng.uniform(-3.0, 1.0))
        b = a + float(rng.uniform(0.1, 4.0))
        exact = np.polynomial.polynomial.polyval(b, np.concatenate([[0.0], coeffs / np.arange(1, 5)]))
        exact -= np.polynomial.polynomial.polyval(a, np.concatenate([[0.0], coeffs / np.arange(1, 5)]))
        val, err = integrate(lambda t: np.polynomial.polynomial.polyval(t, coeffs), a, b)
        assert abs(val - exact) <= max(err, 1e-12 * (1.0 + abs(exact)))


def test_accepted_value_meets_requested_tolerance():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
    val, err = integrate(lambda t: np.log(2.0 / t), 0.0, 1.0, spec=spec, hints=[0.0])
    assert err <= max(spec.abs_tol, spec.rel_tol * abs(val))
    assert val == pytest.approx(1.0 + math.log(2.0), rel=1e-10)


def test_nonfinite_sample_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda t: np.where(t > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_budget_exhaustion_carries_best_estimate():
    # Unhinted endpoint singularity with a tiny panel budget: the failure
    # must still expose the partial value and a positive error estimate.
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-15, max_panels=16)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: np.log(1.0 / t), 1e-30, 1.0, spec=spec)
    assert math.isfinite(exc.value.value)
    assert exc.value.value == pytest.approx(1.0, rel=0.3)
    assert exc.value.error_estimate > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=2)


def test_hints_outside_interval_are_ignored():
    val, _ = integrate(np.log, 1.0, math.e, hints=[-5.0, 100.0])
    assert val == pytest.approx(1.0, abs=1e-12)


# --- the panel's finite check and bit-exact results --------------------------

@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_sample_at_any_node_raises(bad):
    # The even-index nodes carry no Gauss weight, so the G7 sum never reads them.
    for node in range(15):

        def f(t):
            ys = np.ones_like(t)
            ys[node] = bad
            return ys

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(f, 0.0, 1.0)


@pytest.mark.parametrize("result", [np.ones(14), np.ones((15, 1)), 1.0])
def test_wrong_shaped_integrand_result_raises(result):
    with pytest.raises(QuadratureError, match="shape"):
        integrate(lambda t: result, 0.0, 1.0)


def test_finite_samples_whose_sum_overflows_do_not_raise():
    # Every sample is finite; only the weighted sum overflows.  The result
    # is what the non-finite-sum code path has always returned.
    with np.errstate(over="ignore"):
        assert integrate(lambda t: np.full_like(t, 1e308), 0.0, 10.0) == (math.inf, math.inf)


def test_integrand_result_arrays_are_left_unchanged():
    kept = []

    def f(t):
        ys = np.sqrt(np.abs(t - 0.3))
        kept.append((ys, ys.copy()))
        return ys

    integrate(f, 0.0, 1.0)
    assert len(kept) > 1
    for ys, snapshot in kept:
        assert np.array_equal(ys, snapshot)


# |t - 0.3|^(-1/4) from correctly rounded operations only.
def _root_singularity(t):
    return 1.0 / np.sqrt(np.sqrt(np.abs(t - 0.3)))


# (value, error_estimate) as float.hex: the panel arithmetic and the order
# of refinement are pinned bit for bit.  The hinted singular case is graded
# toward 0.3 and its integrand is built from correctly rounded operations,
# so its bits do not depend on which of numpy's SIMD kernels run: np.log,
# and the np.power of the substitution at a hint on the origin, differ in
# the last bit between numpy's dispatch levels.
@pytest.mark.parametrize(
    "f,a,b,hints,value,err",
    [
        (lambda s: np.exp(np.cos(s)), 0.0, 2.0 * math.pi, (), "0x1.fd1d842075562p+2", "0x1.5d792230100ffp-28"),
        (_root_singularity, 0.0, 1.0, (0.3,), "0x1.8f94935f94375p+0", "0x1.7f20f184a97a5p-30"),
        (lambda t: np.sqrt(np.abs(t - 0.3)), 0.0, 1.0, (), "0x1.fffc4ae482563p-2", "0x1.1275aec5b666dp-31"),
    ],
    ids=["smooth", "root_hint", "sqrt_kink"],
)
def test_results_are_pinned_bit_for_bit(f, a, b, hints, value, err):
    assert integrate(f, a, b, hints=hints) == (float.fromhex(value), float.fromhex(err))


def test_error_estimate_never_goes_negative(monkeypatch):
    # Suite seed 5, main_lemma unit 19: on [0.0888184, 0.1000319] the running
    # sum of refined panel errors cancelled to -3.2e-21, while the accepted
    # panels' errors sum to +1.9e-22.
    import subpot.inequalities as inequalities
    import subpot.sets as sets
    from subpot import SuiteConfig, run_unit

    inequalities._maxima_integral.cache_clear()
    seen = []

    def spy(f, a, b, **kwargs):
        out = integrate(f, a, b, **kwargs)
        seen.append((a, b, *out))
        return out

    monkeypatch.setattr(sets, "integrate", spy)
    run_unit("main_lemma", 19, SuiteConfig(seed=5))
    assert all(err >= 0.0 for _, _, _, err in seen)
    assert [err for a, b, _, err in seen if (a, b) == (0.08881844002178842, 0.10003194220163573)][0] > 0.0


def test_log_hint_pin_is_within_its_error_of_the_exact_value():
    val, err = integrate(lambda t: np.log(1.0 / t), 0.0, 1.0, hints=(0.0,))
    assert abs(val - 1.0) <= err


def test_root_hint_pin_is_within_its_error_of_the_exact_value():
    val, err = integrate(_root_singularity, 0.0, 1.0, hints=(0.3,))
    assert abs(val - 4.0 / 3.0 * (0.3**0.75 + 0.7**0.75)) <= err


def test_budget_exhaustion_is_pinned_bit_for_bit():
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-15, max_panels=16)
    with pytest.raises(QuadratureError, match="17 panels") as exc:
        integrate(lambda t: np.log(1.0 / t), 1e-30, 1.0, spec=spec)
    assert exc.value.value == float.fromhex("0x1.ffff222350ccap-1")
    assert exc.value.error_estimate == float.fromhex("0x1.781331956a7f5p-9")


# --- hints (graded singular ends) against breaks (plain edges) --------------

def _counted(f):
    """``f`` recording the (first, last) abscissa of every panel it samples."""
    seen = []

    def g(t):
        seen.append((t[0], t[-1]))
        return f(t)

    return g, seen


def test_breaks_are_plain_edges():
    # A linear integrand is exact on every panel, so nothing is refined and
    # the panels are exactly the given edges.
    breaks = (0.25, 0.6, 0.6, 1.5, -1.0)
    g, seen = _counted(lambda t: 2.0 * t + 1.0)
    val, err = integrate(g, 0.0, 1.0, breaks=breaks)
    assert val == pytest.approx(2.0, rel=1e-14)
    edges = [0.0, 0.25, 0.6, 1.0]
    assert len(seen) == len(edges) - 1
    for (lo, hi), (first, last) in zip(zip(edges, edges[1:]), seen):
        assert lo < first < last < hi
        assert first - lo == pytest.approx(hi - last, rel=1e-9)
        assert first - lo < 0.01 * (hi - lo)
    # The same abscissae as hints are graded: six levels on each side.
    g, seen = _counted(lambda t: 2.0 * t + 1.0)
    integrate(g, 0.0, 1.0, hints=(0.25, 0.6))
    assert len(seen) == 3 + 4 * 6


def test_log_power_refines_toward_the_hinted_end():
    # int_0^a ln^q(A/x) dx = A * Gamma(q + 1, ln(A/a)), the lemma-3 integral.
    q, A, a = 2.5, 3.0, 0.7
    exact = A * gammaincc(q + 1.0, math.log(A / a)) * gamma(q + 1.0)
    g, seen = _counted(lambda x: np.log(A / x) ** q)
    val, err = integrate(g, 0.0, a, QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13), hints=[0.0])
    assert abs(val - exact) <= err
    # The substitution at the origin takes 5 panels; geometric grading
    # toward the hinted end took 59.
    assert len(seen) == 5


@pytest.mark.parametrize(
    "f,rel_tol",
    [
        (lambda t, rho: -np.log(np.abs(t - rho)), 1e-14),
        (lambda t, rho: np.abs(t - rho) ** -0.9, 1e-12),
    ],
    ids=["log", "power"],
)
def test_refinement_never_samples_a_hinted_end(f, rel_tol):
    # Once a panel is narrower than about 120 ulps its outer nodes round onto
    # its ends; splitting it further would sample the singular point itself.
    rho = math.sqrt(1.25)
    g, seen = _counted(lambda t: f(t, rho))
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-300, max_panels=4096)
    try:
        val, err = integrate(g, 1.0, 2.0, spec, hints=[rho])
        assert math.isfinite(val) and math.isfinite(err)
    except QuadratureError as exc:
        assert "budget" in str(exc)
    assert all(first != rho != last for first, last in seen)


@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_grading_never_samples_a_hint_next_to_a_close_edge(gap):
    # The finest graded panels on the short side would be a few ulps wide.
    rho = math.sqrt(1.25)
    g, seen = _counted(lambda t: -np.log(np.abs(t - rho)))
    val, err = integrate(g, rho - gap, 2.0, hints=[rho])
    exact = (2.0 - rho) * (1.0 - math.log(2.0 - rho)) + gap * (1.0 - math.log(gap))
    assert abs(val - exact) <= err
    assert all(first != rho != last for first, last in seen)


@pytest.mark.parametrize(
    "a,b,hints,breaks",
    [
        (0.0, 1.0, (), ()),
        (0.1, 0.9, (0.1, 0.55), (0.3, 0.3, 2.0)),
        (math.sqrt(1.25) - 1e-12, 2.0, (math.sqrt(1.25),), (1.7,)),
        (-0.4, 0.9, (0.0, 0.55), (0.3,)),
    ],
    ids=["plain", "hints-and-breaks", "close-edge", "origin"],
)
def test_first_panel_nodes_are_the_abscissae_integrate_samples_first(a, b, hints, breaks):
    seen = []

    def f(t):
        seen.append(t.copy())
        return -np.log(np.abs(t - 0.55)) + np.abs(t - 0.3)

    integrate(f, a, b, QuadratureSpec(rel_tol=1e-12), hints=hints, breaks=breaks)
    nodes = first_panel_nodes(a, b, hints, breaks)
    assert nodes.shape[1] == 15 and len(seen) >= len(nodes) > 0
    assert np.array(seen[: len(nodes)]).tobytes() == nodes.tobytes()
    assert first_panel_nodes(b, b).shape == (0, 15)
    if 0.0 in hints:
        # The mapped panels beside the origin cluster their nodes there.
        assert 0.0 < np.abs(nodes).min() < 1e-18


# --- the power substitution at a hint on the origin ---------------------------

# The tabulated Kronrod weights carry 15 significant digits (they sum to
# 2 - 6e-15), so a panel whose integrand is a polynomial in s reports an
# error far below its true one; allow for that relative floor.
_WEIGHT_FLOOR = 1e-14


def _power_integral(kappa, a, b):
    """Exact integral of |t|^(-kappa) over [a, b], for a <= 0 <= b."""
    return (abs(a) ** (1.0 - kappa) + b ** (1.0 - kappa)) / (1.0 - kappa)


@pytest.mark.parametrize(
    "kappa,a,b,panels",
    [
        (0.1, 0.0, 0.7, 1),
        (0.1, -0.7, 0.0, 1),
        (0.1, -0.3, 0.7, 2),
        (0.5, 0.0, 0.7, 1),
        (0.5, -0.7, 0.0, 1),
        (0.5, -0.3, 0.7, 2),
        (0.85, 0.0, 0.7, 45),
        (0.85, -0.7, 0.0, 45),
        (0.85, -0.3, 0.7, 88),
    ],
)
def test_power_singularity_at_the_origin_by_substitution(kappa, a, b, panels):
    g, seen = _counted(lambda t: np.abs(t) ** -kappa)
    val, err = integrate(g, a, b, QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13), hints=(0.0,))
    exact = _power_integral(kappa, a, b)
    assert abs(val - exact) <= err + _WEIGHT_FLOOR * exact
    assert len(seen) == panels


@pytest.mark.parametrize(
    "q,A,a,panels",
    [(1.0, 1.0, 0.3, 3), (2.5, 3.0, 0.7, 5), (4.0, 2.0, 0.05, 5), (3.7, 50.0, 0.02, 3)],
)
def test_log_power_at_the_origin_by_substitution(q, A, a, panels):
    # int_0^a ln^q(A/x) dx = A * Gamma(q + 1, ln(A/a)).
    g, seen = _counted(lambda x: np.log(A / x) ** q)
    val, err = integrate(g, 0.0, a, QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13), hints=(0.0,))
    exact = A * gammaincc(q + 1.0, math.log(A / a)) * gamma(q + 1.0)
    assert abs(val - exact) <= err + _WEIGHT_FLOOR * exact
    assert len(seen) == panels


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 0.0), (-0.3, 2.0), (0.0, 1e-200), (-1e-305, 0.0)])
def test_substitution_never_samples_the_origin(a, b):
    # Refinement at the tightest tolerances runs the panel on s = 0 down
    # to where its nodes would underflow; there it is accepted, not split.
    # A range so short that even the first mapped panel would underflow
    # stays a plain panel graded toward the origin.
    samples = []

    def f(t):
        samples.append(t.copy())
        return np.abs(t) ** -0.95

    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_panels=4096)
    try:
        val, err = integrate(f, a, b, spec, hints=(0.0,))
        assert math.isfinite(val) and math.isfinite(err)
    except QuadratureError as exc:
        assert "budget" in str(exc)
    ts = np.concatenate(samples)
    assert len(samples) > 1 and np.all(ts != 0.0) and np.all((a <= ts) & (ts <= b))


def test_budget_exhaustion_with_the_substitution_carries_best_estimate():
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-15, max_panels=8)
    with pytest.raises(QuadratureError, match="budget") as exc:
        integrate(lambda t: np.abs(t) ** -0.95, -1.0, 1.0, spec, hints=(0.0,))
    assert exc.value.value == pytest.approx(40.0, rel=0.1)
    assert 0.0 < exc.value.error_estimate < math.inf


# --- the periodic trapezoidal rule ----------------------------------------


def test_periodic_rule_converges_geometrically():
    # exp(cos s) is entire: 2 pi I0(1) to rounding, in a handful of levels.
    calls = []
    val, err = integrate_periodic(lambda s: calls.append(s.size) or np.exp(np.cos(s)), 0.0, 2.0 * math.pi)
    assert abs(val - EXP_COS_CIRCLE) <= err <= 1e-13
    assert calls == [32, 32, 64]


def test_periodic_rule_is_shift_free_on_any_period():
    # One period of a periodic function, wherever it starts.
    val, err = integrate_periodic(lambda s: np.exp(np.cos(s)), -1.0, 2.0 * math.pi - 1.0)
    assert abs(val - EXP_COS_CIRCLE) <= err + 1e-14 * EXP_COS_CIRCLE


def test_periodic_rule_reports_the_rounding_floor():
    # A constant is exact at every level: the differences read 0, and the
    # err is 50 eps times the integral of |f|.
    val, err = integrate_periodic(lambda s: np.full(s.shape, -3.0), 0.0, 1.0)
    assert val == -3.0 and err == 50.0 * np.finfo(float).eps * 3.0


def test_periodic_rule_cap_raises_with_the_last_value_and_difference():
    # |sin s| kinks at 0 and pi, so the trapezoidal error falls like 1/N**2
    # and rel_tol 1e-15 is out of reach below the point cap.
    calls = []

    def f(s):
        calls.append(s.size)
        return np.abs(np.sin(s))

    with pytest.raises(QuadratureError) as info:
        integrate_periodic(f, 0.0, 2.0 * math.pi, QuadratureSpec(rel_tol=1e-15))
    assert sum(calls) == _PERIODIC_MAX_POINTS
    assert abs(info.value.value - 4.0) <= info.value.error_estimate < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_periodic_rule_nonfinite_sample_raises(bad):
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_periodic(lambda s: np.where(s > 3.0, bad, 1.0), 0.0, 2.0 * math.pi)


def test_periodic_rule_rejects_an_empty_period_and_a_wrong_shape():
    with pytest.raises(ValueError):
        integrate_periodic(np.cos, 1.0, 1.0)
    with pytest.raises(QuadratureError, match="shape"):
        integrate_periodic(lambda s: np.ones(3), 0.0, 1.0)
