"""Vectorised 1-D searches: grid bracketing, golden section and bisection.

Every extremum and root the package looks for is bracketed on a grid
first and then refined here, all lanes at once.  ``f`` always takes an
array of abscissae, one per lane, and returns the matching values.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GOLDEN_ITERS = 60
_BISECT_ITERS = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

LaneFn = Callable[[np.ndarray], np.ndarray]


def grid_peaks(vals: np.ndarray, periodic: bool) -> tuple[np.ndarray, ...]:
    """Indices of grid maxima along the last axis: ``v[i] >= v[i-1]`` and ``v[i] > v[i+1]``.

    A periodic grid wraps around; on any other grid the two end points are
    never peaks.  Comparisons with NaN are false, so neither a NaN nor its
    neighbours are peaks.
    """
    with np.errstate(invalid="ignore"):
        mask = (vals >= np.roll(vals, 1, axis=-1)) & (vals > np.roll(vals, -1, axis=-1))
    if not periodic:
        mask[..., 0] = mask[..., -1] = False
    return np.nonzero(mask)


def sign_changes(vals: np.ndarray) -> np.ndarray:
    """Indices ``i`` of a periodic 1-D grid with ``v[i]`` and ``v[i+1]`` of strictly opposite sign."""
    return np.nonzero(vals * np.roll(vals, -1) < 0)[0]


def golden_max(f: LaneFn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section search for each lane's maximum on ``[lo, hi]``; returns the values."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if lo.size == 0:
        return lo
    h = hi - lo
    c = lo + _INVPHI2 * h
    d = lo + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(_GOLDEN_ITERS):
        mask = yc >= yd
        hi = np.where(mask, d, hi)
        lo = np.where(mask, lo, c)
        h = hi - lo
        c_cand = lo + _INVPHI2 * h
        d_cand = lo + _INVPHI * h
        new_y = f(np.where(mask, c_cand, d_cand))
        c, d = np.where(mask, c_cand, d), np.where(mask, c, d_cand)
        yc, yd = np.where(mask, new_y, yd), np.where(mask, yc, new_y)
    return np.maximum(yc, yd)


def bisect(f: LaneFn, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """Bisection for a root of ``f`` in each lane's ``[lo, hi]``, given ``flo = f(lo)``.

    Each bracket must hold a sign change; returns the final midpoints.
    """
    if lo.size == 0:
        return lo
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        take_left = flo * fmid <= 0
        hi = np.where(take_left, mid, hi)
        lo = np.where(take_left, lo, mid)
        flo = np.where(take_left, flo, fmid)
    return 0.5 * (lo + hi)
