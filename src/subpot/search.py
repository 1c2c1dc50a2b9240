"""Vectorised 1-D searches: grid bracket scans and safeguarded Newton.

Every extremum and root the package looks for is bracketed on a grid
(:func:`grid_peaks`, :func:`sign_changes`) and then refined by
:func:`newton_crossing`, all lanes at once, on closed-form derivatives:
circle extrema, circle roots and the kernel-norm sup.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Newton from inside a grid cell needs three or four evaluations; the cap
# only bounds lanes that bisect all the way down.
_NEWTON_ITERS = 60
# A lane stops once Newton predicts a gain of at most this much, relative.
_NEWTON_GAIN = 1e-16

JetFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def grid_peaks(vals: np.ndarray, periodic: bool) -> tuple[np.ndarray, ...]:
    """Indices of grid maxima along the last axis: ``v[i] >= v[i-1]`` and ``v[i] > v[i+1]``.

    A periodic grid wraps around; on any other grid the two end points are
    never peaks.  Comparisons with NaN are false, so neither a NaN nor its
    neighbours are peaks.
    """
    mask = np.empty(vals.shape, bool)
    flat, m = vals.reshape(-1), mask.reshape(-1)
    with np.errstate(invalid="ignore"):
        # Compare flat neighbours, then redo both end columns, whose flat
        # neighbours lie in the adjacent rows.
        np.greater_equal(flat[1:], flat[:-1], out=m[1:])
        m[:-1] &= flat[:-1] > flat[1:]
        if periodic:
            mask[..., 0] = (vals[..., 0] >= vals[..., -1]) & (vals[..., 0] > vals[..., 1])
            mask[..., -1] = (vals[..., -1] >= vals[..., -2]) & (vals[..., -1] > vals[..., 0])
        else:
            mask[..., 0] = mask[..., -1] = False
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def sign_changes(vals: np.ndarray) -> np.ndarray:
    """Indices ``i`` of a periodic 1-D grid with ``v[i]`` and ``v[i+1]`` of strictly opposite sign."""
    return np.nonzero(vals * np.roll(vals, -1) < 0)[0]


def newton_crossing(f: JetFn, lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton for a downward zero crossing of ``g`` in each lane's ``[lo, hi]``, from ``x``.

    ``f(x, lanes)`` returns ``(v, g, dg)`` at ``x`` for the lanes numbered
    ``lanes`` (lanes drop out as they stop): a value ``v``, the function
    ``g`` whose crossing is sought and its derivative ``dg``.  For a
    maximum, ``g = v'``; for a root of ``h``, ``v = g = sign(h(lo)) * h``.

    Each evaluation at ``x`` moves one bracket end to ``x``: ``lo`` where
    ``g > 0``, else ``hi``; an infinite ``g`` still tells the side.  The
    next point is ``x + g/|dg|`` if that lies strictly inside the bracket,
    else the midpoint.  Where ``dg < 0`` that is Newton's step; where
    ``dg > 0`` it is the step to the pole of a ``g`` shaped like
    ``1/(c - x)``, as ``v'`` is on the flank of a log spike, where Newton's
    step would lead away.  A lane stops when ``g`` is finite, ``dg < 0``
    and Newton's predicted gain ``g**2 / (2|dg|)`` is at most ``1e-16 *
    max(1, |v|)`` or its step no longer moves ``x``; when ``g`` is zero or
    NaN; or when the bracket has no float left inside.  Returns, per lane,
    the last point moved by its final, unevaluated Newton step (a root) and
    the largest ``v`` evaluated (a maximum; ``-inf`` if none was a number).
    """
    x = np.array(x, float)
    lo = np.array(lo, float)
    hi = np.array(hi, float)
    best = np.full(x.shape, -np.inf)
    lane = np.arange(x.size)
    for _ in range(_NEWTON_ITERS):
        if lane.size == 0:
            break
        xa = x[lane]
        v, g, dg = f(xa, lane)
        best[lane] = np.fmax(best[lane], v)
        up = g > 0
        lo[lane] = la = np.where(up, xa, lo[lane])
        hi[lane] = ha = np.where(up, hi[lane], xa)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            trial = xa + g / np.abs(dg)
            tol = 2.0 * _NEWTON_GAIN * np.maximum(1.0, np.abs(v))
            newton_done = np.isfinite(g) & (dg < 0) & ((g * g <= -tol * dg) | (trial == xa))
            done = np.isnan(g) | (g == 0) | newton_done
        inside = (trial > la) & (trial < ha)
        step = np.where(inside, trial, 0.5 * (la + ha))
        x[lane] = np.where(done, np.where(inside, trial, xa), step)
        done |= ~((step > la) & (step < ha))
        lane = lane[~done]
    return x, best
