"""Adaptive quadrature: exactness, error honesty, and failure modes."""

import math

import numpy as np
import pytest

from subpot import QuadratureError, QuadratureSpec, integrate

# 2*pi*I0(1), independently computed from scipy.special.i0.
EXP_COS_CIRCLE = 7.954926521012844


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


# (value, error_estimate) as float.hex: the panel arithmetic and the order
# of refinement are pinned bit for bit.
@pytest.mark.parametrize(
    "f,a,b,hints,value,err",
    [
        (lambda s: np.exp(np.cos(s)), 0.0, 2.0 * math.pi, (), "0x1.fd1d842075548p+2", "0x1.5d79396df801dp-28"),
        (lambda t: np.log(1.0 / t), 0.0, 1.0, (0.0,), "0x1.fffffffffe42dp-1", "0x1.d7766caa7c296p-31"),
        (lambda t: np.sqrt(np.abs(t - 0.3)), 0.0, 1.0, (), "0x1.fffc4ae482547p-2", "0x1.1275ba3956528p-31"),
    ],
    ids=["smooth", "log_hint", "sqrt_kink"],
)
def test_results_are_pinned_bit_for_bit(f, a, b, hints, value, err):
    assert integrate(f, a, b, hints=hints) == (float.fromhex(value), float.fromhex(err))


def test_budget_exhaustion_is_pinned_bit_for_bit():
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-15, max_panels=16)
    with pytest.raises(QuadratureError, match="17 panels") as exc:
        integrate(lambda t: np.log(1.0 / t), 1e-30, 1.0, spec=spec)
    assert exc.value.value == float.fromhex("0x1.ffff222350cb1p-1")
    assert exc.value.error_estimate == float.fromhex("0x1.781331956a774p-9")
