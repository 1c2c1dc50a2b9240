"""Grid bracketing and safeguarded Newton on known extrema and roots."""

import math

import numpy as np
import pytest

from subpot.search import grid_peaks, newton_crossing, sign_changes


def _counted(jet, n):
    """``jet`` as a lane function that also counts evaluations per lane."""
    counts = np.zeros(n, int)

    def f(x, lanes):
        counts[lanes] += 1
        return jet(x, lanes)

    return f, counts


def test_newton_lanes_converge_at_different_iterations():
    # A parabola (one exact step), a cosine (quadratic convergence) and a
    # quartic (linear convergence, dg -> 0 at the peak) in one call.
    c = np.array([0.3, 1.0, 2.0])

    def jet(x, lanes):
        y = x - c[lanes]
        v = np.choose(lanes, [1.0 - y**2, np.cos(y), -(y**4)])
        g = np.choose(lanes, [-2.0 * y, -np.sin(y), -4.0 * y**3])
        dg = np.choose(lanes, [np.full(y.shape, -2.0), -np.cos(y), -12.0 * y**2])
        return v, g, dg

    f, counts = _counted(jet, 3)
    x, best = newton_crossing(f, c - 0.5, c + 0.5, c + 0.3)
    assert best == pytest.approx([1.0, 1.0, 0.0], abs=1e-15)
    assert x[:2] == pytest.approx(c[:2], abs=1e-15)
    assert counts[0] == 2
    assert counts[0] < counts[1] < counts[2]


def test_newton_reaches_an_off_centre_spike_where_raw_newton_diverges():
    # v = -ln(y^2 + delta^2) / 2 with y = x - c: g = -y/(y^2 + delta^2)
    # is convex-sided (dg > 0) everywhere but within delta of the peak.
    delta, c = 1e-9, 0.3

    def jet(x, lanes):
        y = x - c
        d2 = y * y + delta * delta
        return -0.5 * np.log(d2), -y / d2, (y * y - delta * delta) / d2**2

    lo, hi, x0 = np.array([-1.0]), np.array([1.0]), np.array([-0.5])
    _, g0, dg0 = jet(x0, None)
    assert not lo[0] <= (x0 - g0 / dg0)[0] <= hi[0]
    f, counts = _counted(jet, 1)
    x, best = newton_crossing(f, lo, hi, x0)
    assert best[0] == pytest.approx(-math.log(delta), rel=1e-12)
    assert abs(x[0] - c) < 1e-15
    assert counts[0] <= 6


def test_newton_finds_roots_as_downward_crossings():
    # Roots of h are downward crossings of sign(h(lo)) * h; two of these
    # cross upward and one downward.
    lo = np.array([1.0, 3.0, -1.0])
    hi = np.array([2.0, 4.0, 0.5])

    def h(x, lanes):
        val = np.choose(lanes, [x**2 - 2.0, math.pi - x, x**3 + 0.5 * x])
        return val, np.choose(lanes, [2.0 * x, np.full(x.shape, -1.0), 3.0 * x**2 + 0.5])

    sign = np.sign(h(lo, np.arange(3))[0])
    assert sign.tolist() == [-1.0, 1.0, -1.0]

    def jet(x, lanes):
        val, der = h(x, lanes)
        g = sign[lanes] * val
        return g, g, sign[lanes] * der

    roots, _ = newton_crossing(jet, lo, hi, 0.5 * (lo + hi))
    assert roots == pytest.approx([math.sqrt(2.0), math.pi, 0.0], abs=1e-15)


def test_newton_keeps_the_best_value_when_the_iterates_end_lower():
    # g points at 0.1 while v peaks at 0: a noisy derivative near a spike
    # can end the iteration below an earlier value, which must be kept.
    def jet(x, lanes):
        return -(x**2), -2.0 * (x - 0.1), np.full(x.shape, -2.0)

    x, best = newton_crossing(jet, np.array([-1.0]), np.array([1.0]), np.array([0.0]))
    assert x[0] == pytest.approx(0.1, abs=1e-15)
    assert best[0] == 0.0


def test_newton_bisects_a_lane_without_curvature_to_its_bracket_end():
    def jet(x, lanes):
        return x, np.ones(x.shape), np.zeros(x.shape)

    x, best = newton_crossing(jet, np.array([0.0]), np.array([1.0]), np.array([0.5]))
    assert best[0] == pytest.approx(1.0, abs=1e-15)
    assert x[0] == pytest.approx(1.0, abs=1e-15)


def test_newton_on_no_lanes_never_calls_f():
    def f(x, lanes):
        raise AssertionError("no lane to evaluate")

    x, best = newton_crossing(f, np.zeros(0), np.zeros(0), np.zeros(0))
    assert x.size == 0 and best.size == 0


def test_grid_peaks_on_periodic_grid_wraps_around():
    s = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    vals = np.stack([np.cos(s), np.cos(2 * s + 0.05)])
    rows, cols = grid_peaks(vals, periodic=True)
    assert rows.tolist() == [0, 1, 1]
    # Both index-0 peaks need the wrap to see their left neighbour (63).
    assert cols.tolist() == [0, 0, 32]


def test_grid_peaks_on_clipped_grid_drops_end_points():
    vals = np.array([5.0, 1.0, 2.0, 2.0, 1.0, 3.0, 0.0, 4.0])
    (idx,) = grid_peaks(vals, periodic=False)
    # Plateaus count once, at their right end; the ends 0 and 7 never count.
    assert idx.tolist() == [3, 5]
    (wrapped,) = grid_peaks(vals, periodic=True)
    assert wrapped.tolist() == [0, 3, 5]


def test_grid_peaks_never_at_or_beside_nan():
    (idx,) = grid_peaks(np.array([0.0, 2.0, 1.0, np.nan, 3.0, 0.0, 1.0, 0.0]), periodic=False)
    assert idx.tolist() == [1, 6]


def test_sign_changes_wrap_and_skip_zeros():
    vals = np.array([-1.0, 2.0, 0.0, -3.0, -1.0, 1.0])
    # The zero at index 2 is no strict sign change; 5 -> 0 is, via the wrap.
    assert sign_changes(vals).tolist() == [0, 4, 5]
