"""Grid bracketing, golden section and bisection on known extrema and roots."""

import math

import numpy as np
import pytest

from subpot.search import bisect, golden_max, grid_peaks, sign_changes


def test_golden_max_finds_known_maxima_in_every_lane():
    centers = np.array([0.3, -1.2, 2.5])
    heights = np.array([1.0, -2.0, 0.5])

    def f(x):
        return heights - (x - centers) ** 2

    got = golden_max(f, centers - 0.7, centers + 0.4)
    assert got == pytest.approx(heights, abs=1e-15)
    assert golden_max(np.cos, np.array([-1.0]), np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-15)


def test_golden_max_at_a_bracket_end_and_on_no_lanes():
    # A monotone lane converges to its upper end.
    assert golden_max(lambda x: x, np.array([0.0]), np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert golden_max(lambda x: x, np.zeros(0), np.zeros(0)).size == 0


def test_bisect_finds_known_roots():
    lo = np.array([1.0, 3.0, -1.0])
    hi = np.array([2.0, 4.0, 1.0])

    def f(x):
        return np.array([x[0] ** 2 - 2.0, math.pi - x[1], x[2] ** 3 + 0.5 * x[2]])

    roots = bisect(f, lo, hi, f(lo))
    assert roots == pytest.approx([math.sqrt(2.0), math.pi, 0.0], abs=1e-15)


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
