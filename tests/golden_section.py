"""Lane-vectorised golden-section search, kept as a reference for the Newton polish."""

import math

import numpy as np

_ITERS = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, lo, hi):
    """Golden-section search for each lane's maximum on ``[lo, hi]``; returns the values.

    ``f`` takes an array of abscissae, one per lane, and returns the values.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if lo.size == 0:
        return lo
    h = hi - lo
    c = lo + _INVPHI2 * h
    d = lo + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(_ITERS):
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
