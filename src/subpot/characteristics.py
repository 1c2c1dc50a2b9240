"""Radial characteristics of atomic-charge potentials.

Circle means of the potentials themselves have exact closed forms
(``mean of ln|z - a| over |z| = r`` is ``ln max(r, |a|)``); at ``r = 0``
that is the point value ``u(0)``, the one point value the package uses.
Everything nonlinear samples one real kernel, :class:`CircleSampler`,
which keeps each atom's share of the squared distance on one dense angular
grid.  Circle maxima and minima polish each peak of that grid by
safeguarded Newton on the profile's closed-form angular derivatives.  A
per-atom arc bound on 64 coarse cells of the grid
(:meth:`CircleSampler.cell_bounds`) lets a search skip every cell that
cannot reach the value it looks for: the circle maxima of a call with many
radii come out as the same floats as from the whole grid.  Where the bound
proves the profile one-signed on a circle, the mean of its plus, minus or
abs part is the closed mean or 0.
Other means of those parts (and every mean of ``v`` itself, as a
cross-check) are quadratures over the angle.  Where no atom lies within
5 % of the circle and the transformed profile has no kink, the integrand
is periodic and analytic, and the periodic trapezoidal rule takes it;
otherwise adaptive Gauss-Kronrod runs with a hint at each nearby atom's
angle and a panel edge at each sign change of the profile.  The kinks of
the circle maxima (zero crossings and switches of the winning peak) come
from a radial scan.  Peaks, sign changes and kinks are all refined by the
same Newton routine (in :mod:`subpot.search`).  One table holds the
transforms and the signs of the profile each one reads; every atom
modulus and angle is the kernel's own.

Three pure functions repeat inside one checker unit, so each has a memo
keyed on every argument and bounded by one unit's need: ``_sampler(v)``
(1 entry: a unit samples one function), ``max_on_circle(v, r, transform)``
(3: one per ``k`` or ``b``) and ``_quad_mean(v, r, transform, quad)``
(4: ``r0`` and three ``k r``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .model import (
    AtomicMeasure,
    DeltaSubharmonicFn,
    RationalFunctionSpec,
    SubharmonicPotential,
    canonicalize,
    ln_abs,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate, integrate_periodic
from .search import grid_peaks, newton_crossing, sign_changes

FunctionLike = Union[SubharmonicPotential, DeltaSubharmonicFn]

_TWO_PI = 2.0 * math.pi
_CIRCLE_GRID = 1024
# One shared angular grid, read-only so no caller can change another's.
_S_GRID = np.linspace(0.0, _TWO_PI, _CIRCLE_GRID, endpoint=False)
_S_GRID.flags.writeable = False
# Radii per grid pass: a chunk's grid holds atoms x radii x 1024 floats,
# and 16 radii is about one quadrature panel's 15.
_GRID_CHUNK = 16
# Coarse cells of the grid, each _CELL_STEPS grid steps wide, with a grid
# column at each end; a cell whose bound cannot reach the level a maximum is
# read at is not searched.  Radii per bound pass, and cells per fine pass (as
# many grid values as a full-grid chunk of 8 radii holds).
_CELL_STEPS = 16
_CELLS = _CIRCLE_GRID // _CELL_STEPS
_BOUND_CHUNK = 64
_FINE_CELLS = _GRID_CHUNK * _CELLS // 2
# Calls with fewer radii search the whole grid: below about 10 radii the
# bound pass costs more than the cells it skips save (measured on calls
# taken from the maxima workload); 12 leaves a margin.
_PRUNE_RADII = 12
# Rounding slack of a cell bound: the sums of n + 1 terms behind the bound
# and behind any value are each off by at most (n + 1) u times the sum of
# the terms' sizes (u = 2**-53), and each log by u; 1e-10 of that size
# covers both for any atom count up to 10**5.
_SUM_SLACK = 1e-10
# Beside an atom only the rounding of the angle s - theta grows: it is off
# by at most 8 u (|s - theta| < 16 within a grid step of [0, 2 pi)), and
# |dD/ds| = 4 t rho |sigma gamma| <= (t + rho) sqrt(D).  With the other
# roundings at most 8 u D and sqrt(D) <= t + rho, a term h ln D is off by at
# most 16 u |h| (t + rho) / sqrt(D) <= 16 u |h| (t + rho) / |t - rho|, for a
# bound and for a value it covers alike: each atom adds twice that.  The
# linear model holds while |t - rho| is far above u (t + rho); a circle
# closer than 1e-9 (t + rho) to an atom is searched whole.
_NEAR_SLACK = 32.0 * np.finfo(float).eps / 2.0
_NEAR_LIMIT = 1e9

# Rounds of kink refinement: a root where a third branch leads splits its bracket.
_KINK_ROUNDS = 3
# Roots closer than this to a bracket end, relative, are dropped: far
# below any panel a kink could still matter in.
_END_GAP = 1e-12
# A scan winner farther than this from an atom's angle is not its spike.
_SPIKE_DRIFT = math.pi / 8
# Two polished peaks closer than this are one peak polished twice.
_SAME_PEAK = 0.125 * _TWO_PI / _CIRCLE_GRID
# Atoms this close to the circle (relative) get an angular hint.
_SPIKE_REL = 0.05

# Pointwise maps applied to profile values, each with the signs of the
# profile it reads.  Each map is monotone on either side of some point, so
# its circle supremum is the largest circle maximum of ``sign * profile``
# over its signs: the profile's maximum (sign 1) unless the map flips the
# sign, its minimum (sign -1) where the map sends negative values upward.
TRANSFORMS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], tuple[float, ...]]] = {
    "id": (lambda x: x, (1.0,)),
    "plus": (lambda x: np.maximum(x, 0.0), (1.0,)),
    "minus": (lambda x: np.maximum(-x, 0.0), (-1.0,)),
    "abs": (np.abs, (1.0, -1.0)),
}


@dataclass(frozen=True)
class CharacteristicValue:
    """A computed quantity and an estimate of its absolute error."""

    value: float
    error_estimate: float = 0.0


def _transform(transform: str) -> tuple[Callable[[np.ndarray], np.ndarray], tuple[float, ...]]:
    try:
        return TRANSFORMS[transform]
    except KeyError:
        raise ValueError(f"unknown transform {transform!r}") from None


def as_delta(v: FunctionLike) -> DeltaSubharmonicFn:
    if isinstance(v, SubharmonicPotential):
        return DeltaSubharmonicFn.from_potential(v)
    return v


def _atom_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (atom) axis, one atom after another.

    numpy reduces the leading axis of a C-ordered batch of points row by
    row, but sums 8 or more atoms pairwise where the atom axis is the
    innermost in memory, and so for a single point; a running sum keeps that
    case in atom order, and any other layout is made C-ordered first.
    """
    if x.shape[0] >= 8 and x.size == x.shape[0]:
        return np.cumsum(x, axis=0)[-1]
    return np.ascontiguousarray(x).sum(axis=0)


class CircleSampler:
    """Profile values of a canonical difference at ``t * e^{is}``, from one polar kernel.

    Atom ``(rho, theta, h)`` (modulus, angle, half the signed mass, negative
    on the minus component) adds ``h ln D``, ``D = t G + (t - rho)**2`` with
    ``G = 4 rho sin^2((s - theta)/2)``: no term cancels beside the atom.
    :meth:`_at` forms every ``G`` and :meth:`_distance` every ``D``, so a
    grid value has the same bits as the value at its angle; the derivatives
    share the half angle.  :func:`_atom_sum` adds the atoms (the leading
    axis) in order for any number of points, so a point's value has the
    same bits alone as inside a batch.
    """

    def __init__(self, u: DeltaSubharmonicFn):
        self.u = u = canonicalize(u)
        centers = np.concatenate([u.plus.charge.centers, u.minus.charge.centers])
        half_masses = 0.5 * np.concatenate([u.plus.charge.masses, -u.minus.charge.masses])
        self._atoms = np.array([np.abs(centers), np.angle(centers), half_masses])
        self._c0 = u.plus.const - u.minus.const
        self._shaped: dict[int, tuple[np.ndarray, ...]] = {}

    def _columns(self, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The atom rows ``rho, theta, h``, each shaped to broadcast against points with ``ndim`` axes (kept per ``ndim``)."""
        if ndim not in self._shaped:
            self._shaped[ndim] = tuple(self._atoms.reshape((3, -1) + (1,) * ndim))
        return self._shaped[ndim]

    def _distance(self, t: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``D = t G + (t - rho)**2`` per atom, for ``G`` with the atom axis first and radii ``t`` that broadcast against its other axes."""
        d = g * t
        d += (t - self._columns(g.ndim - 1)[0]) ** 2
        return d

    def _log_sum(self, d: np.ndarray) -> np.ndarray:
        """``c0 + sum h ln D``, overwriting ``D``; ``D = 0`` gives -inf (plus atom) or +inf (minus atom)."""
        np.log(d, out=d)
        d *= self._columns(d.ndim - 1)[2]
        return self._c0 + _atom_sum(d)

    def _at(self, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
        """At the points ``t * e^{is}``: ``t`` and, per atom, ``phi/2 = (s - theta)/2``, ``sigma = sin(phi/2)``, ``G = 4 rho sigma**2`` and ``D``."""
        t, s = np.asarray(t, float), np.asarray(s, float)
        rho, theta, _ = self._columns(max(t.ndim, s.ndim))
        half = 0.5 * (s - theta)
        sigma = np.sin(half)
        g = 4.0 * rho * sigma**2
        return t, half, sigma, g, self._distance(t, g)

    def profile(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        d = self._at(t, s)[-1]
        with np.errstate(divide="ignore"):
            return self._log_sum(d)

    @cached_property
    def _polar_grid(self) -> np.ndarray:
        """Per atom, ``G`` on the shared grid (any ``t`` gives it); built on first use, as the quadrature route to the mean of ``v`` never visits the grid."""
        return self._at(0.0, _S_GRID)[3]

    @cached_property
    def _cell_layout(self) -> tuple[np.ndarray, ...]:
        """``G`` at the coarse points (grid columns 0, 16, ..., 1008 and 0 again), and per atom the cells that may hold its angle and its antipode.

        An angle within 1e-9 of a cell edge counts in both cells beside it.
        """
        pos = (self._atoms[1] % _TWO_PI) * (_CELLS / _TWO_PI)
        near = np.floor(pos[:, None] + np.array([-1e-9, 1e-9])).astype(int) % _CELLS
        coarse = np.arange(0, _CIRCLE_GRID + 1, _CELL_STEPS) % _CIRCLE_GRID
        return np.take(self._polar_grid, coarse, axis=1), near, (near + _CELLS // 2) % _CELLS

    def cell_bounds(self, ts: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coarse values and cell bounds of the profile at each radius in ``ts``.

        The coarse values are the grid values at columns 0, 16, ... (radii x
        64).  The bound of ``signs[b] * profile`` on cell ``c``, from coarse
        point ``c`` to ``c + 1`` (signs x radii x 64), adds up each atom's
        largest term on the cell.  ``D`` grows with the angular distance from
        the atom, so that is the larger end value, except in the cell holding
        the point where the term peaks: the atom's angle, where ``D = (t -
        rho)**2``, when the sign sends its spike upward, else its antipode,
        where ``D = (t + rho)**2``.  Each radius's bounds include one rounding
        slack: ``_SUM_SLACK`` times ``1 + |c0|`` plus the largest size of each
        term on the circle, and ``_NEAR_SLACK |h| sqrt(span/gap)`` per atom,
        with ``gap = (t - rho)**2`` the least ``D`` on the circle and ``span =
        (t + rho)**2``.  A bound is +inf where its slack is not finite (an atom
        within 1e-9 (t + rho) of the circle), so it is never NaN.
        """
        gc, near_cells, far_cells = self._cell_layout
        rho, _, h = self._columns(1)
        lanes = np.arange(h.size)[:, None]
        gap, span = (ts - rho) ** 2, (ts + rho) ** 2
        d = self._distance(ts[:, None], gc[:, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_gap, ln_span = np.log(gap), np.log(span)
            # Every term on the circle lies between h ln gap and h ln span.
            near = np.sqrt(span / gap)
            near[near > _NEAR_LIMIT] = np.inf
            per_atom = _SUM_SLACK * np.maximum(np.abs(ln_gap), np.abs(ln_span)) + _NEAR_SLACK * near
            slack = _SUM_SLACK * (1.0 + abs(self._c0)) + _atom_sum(np.abs(h) * per_atom)
            terms = np.log(d, out=d)
            terms *= h[:, :, None]
            coarse = (self._c0 + _atom_sum(terms))[:, :-1]
            bounds = np.empty((signs.size,) + coarse.shape)
            for b, sign in enumerate(signs):
                if sign > 0:
                    top = np.maximum(terms[..., :-1], terms[..., 1:])
                else:
                    top = np.negative(np.minimum(terms[..., :-1], terms[..., 1:]))
                up = sign * h < 0
                peak_cells = np.where(up, near_cells, far_cells)
                peak = sign * h * np.where(up, ln_gap, ln_span)
                top[lanes, :, peak_cells] = np.maximum(top[lanes, :, peak_cells], peak[:, None, :])
                total = _atom_sum(top)
                total += (sign * self._c0 + slack)[:, None]
                bounds[b] = np.where(np.isnan(total), np.inf, total)
        return coarse, bounds

    def cell_profile(self, ts: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Grid values at radius ``ts[k]`` on coarse cell ``cells[k]``'s 17 columns and one column beyond each end (one row per ``k``)."""
        cols = (_CELL_STEPS * cells[:, None] + np.arange(-1, _CELL_STEPS + 2)) % _CIRCLE_GRID
        # take, not g[:, cols], which would put the atom axis innermost.
        d = self._distance(ts[:, None], np.take(self._polar_grid, cols, axis=1))
        with np.errstate(divide="ignore"):
            return self._log_sum(d)

    def grid_profile(self, ts: np.ndarray) -> np.ndarray:
        """Profile values at each radius in ``ts`` (rows) and each angle of the shared grid (columns)."""
        d = self._distance(ts[:, None], self._polar_grid[:, None, :])
        with np.errstate(divide="ignore"):
            return self._log_sum(d)

    def radial_slope(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Radial derivative of the profile at ``t * e^{is}``: atom ``(rho, theta, h)`` adds ``h (2 (t - rho) + G) / D``."""
        t, _, _, g, d = self._at(t, s)
        rho, _, h = self._columns(d.ndim - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _atom_sum(h * (2.0 * (t - rho) + g) / d)

    def jet(self, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Profile value and its first two angular derivatives at ``t * e^{is}``.

        Atom ``(rho, theta, h)`` adds ``h D_s / D`` and ``h (D_ss / D - (D_s /
        D)**2)`` (NaN on the atom), with ``D_s = k sigma gamma``, ``D_ss = k (1/2
        - sigma**2)``, ``k = 4 t rho`` and ``gamma = cos(phi/2)``: no cancellation.
        """
        t, half, sigma, _, d = self._at(t, s)
        rho, _, h = self._columns(d.ndim - 1)
        k = 4.0 * rho * t
        with np.errstate(divide="ignore", invalid="ignore"):
            q = k * sigma * np.cos(half) / d
            dp = _atom_sum(q * h)
            d2p = _atom_sum((k * (0.5 - sigma**2) / d - q * q) * h)
            return self._log_sum(d), dp, d2p


@lru_cache(maxsize=1)
def _sampler(v: FunctionLike) -> CircleSampler:
    return CircleSampler(as_delta(v))


def _grid_peaks(sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Grid values of ``signs[b, i] * profile`` at radius ``ts[i]``, and the sign row, radius and column of each grid peak."""
    with np.errstate(invalid="ignore"):
        vals = signs[:, :, None] * sampler.grid_profile(ts)
    return (vals, *grid_peaks(vals, periodic=True))


def _polish(
    sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray, k: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Angles and values of the grid peaks ``(k, rows, cols)``, polished by safeguarded Newton inside their two cells."""
    step = _TWO_PI / _CIRCLE_GRID
    lane_sign, lane_t = signs[k, rows], ts[rows]

    def lane_jet(s: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sign = lane_sign[lanes]
        p, dp, d2p = sampler.jet(lane_t[lanes], s)
        return sign * p, sign * dp, sign * d2p

    s0 = _S_GRID[cols]
    return newton_crossing(lane_jet, s0 - step, s0 + step, s0)


def _extremes(sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray) -> tuple:
    """Maxima of ``sign * profile`` (one row per sign, one column per radius), their angles, and every polished peak.

    One angular grid pass serves every sign.  It runs in chunks of at most
    ``_GRID_CHUNK`` radii, so a call with many radii (the first panels of a
    whole weighted integral) holds one chunk's grid at a time; the peaks of
    all chunks, signs and radii are then polished as one set of lanes, by
    safeguarded Newton inside each peak's two neighbouring cells, so a
    maximum never falls short of its grid value.  The angle is the polished
    root of the winning peak, or NaN on a circle without a grid peak, where
    the profile is constant.  The peaks come as ``(k, rows, cols, roots,
    refined)``: sign row, radius, grid column, polished angle and value.
    """
    signs2 = np.repeat(signs[:, None], ts.size, axis=1)
    best = np.empty(signs2.shape)
    found = []
    for i in range(0, ts.size, _GRID_CHUNK):
        part = slice(i, i + _GRID_CHUNK)
        vals, k, rows, cols = _grid_peaks(sampler, ts[part], signs2[:, part])
        best[:, part] = vals.max(axis=2)
        found.append((k, rows + i, cols))
    k, rows, cols = (np.concatenate(x) for x in zip(*found)) if found else (np.empty(0, int),) * 3
    angles = np.full(best.shape, np.nan)
    roots, refined = _polish(sampler, ts, signs2, k, rows, cols)
    np.maximum.at(best, (k, rows), refined)
    won = refined == best[k, rows]
    angles[k[won], rows[won]] = roots[won]
    return best, angles, (k, rows, cols, roots, refined)


def _searched(bounds: np.ndarray, level: Union[float, np.ndarray]) -> np.ndarray:
    """Which cells a search visits: those whose bound reaches ``level``."""
    return bounds >= level


def _pruned_maxima(sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray, floor: float) -> np.ndarray:
    """Maxima of ``sign * profile`` (one row per sign, one column per radius), as far as they reach the level they are read at.

    That level is, per radius, the largest coarse value of any sign, or
    ``floor`` if higher.  The fine grid is sampled, and its peaks polished,
    only on the coarse cells whose bound (:meth:`CircleSampler.cell_bounds`)
    reaches the level; each such cell takes one column beyond each end, so a
    peak test sees the same neighbours as on the whole grid, and a peak on
    the edge of two searched cells is polished once.  A value in a skipped
    cell, grid or polished, lies below the level, so every maximum that
    reaches the level is the same float as :func:`_extremes` gives; one
    below it may come out lower, down to its sign's best coarse value.
    Radii go in chunks of ``_BOUND_CHUNK``, cells in chunks of
    ``_FINE_CELLS``, and all peaks are polished as one set of lanes.
    """
    best = np.empty((signs.size, ts.size))
    found = []
    for i in range(0, ts.size, _BOUND_CHUNK):
        part = ts[i : i + _BOUND_CHUNK]
        coarse, bounds = sampler.cell_bounds(part, signs)
        best[:, i : i + part.size] = (signs[:, None, None] * coarse).max(axis=2)
        level = np.maximum(best[:, i : i + part.size].max(axis=0), floor)
        keep = _searched(bounds, level[:, None])
        radius, cell = np.nonzero(keep.any(axis=0))
        for j in range(0, radius.size, _FINE_CELLS):
            rr, cc = radius[j : j + _FINE_CELLS], cell[j : j + _FINE_CELLS]
            vals = sampler.cell_profile(part[rr], cc)
            for b, sign in enumerate(signs):
                with np.errstate(invalid="ignore"):
                    sv = vals if sign == 1.0 else sign * vals
                kk, pos = grid_peaks(sv, periodic=False)
                r, c = rr[kk], cc[kk]
                own = keep[b, r, c] & ~((pos == _CELL_STEPS + 1) & keep[b, r, (c + 1) % _CELLS])
                kk, pos, r, c = kk[own], pos[own], r[own], c[own]
                found.append((np.full(kk.size, b), i + r, (_CELL_STEPS * c + pos - 1) % _CIRCLE_GRID, sv[kk, pos]))
    k, rows, cols, peak = (np.concatenate(x) for x in zip(*found)) if found else (np.empty(0, int),) * 4
    _, refined = _polish(sampler, ts, np.repeat(signs[:, None], ts.size, axis=1), k, rows, cols)
    # A kept value at or above the level is no higher than a peak of its own
    # or of a kept neighbouring cell, so the peaks' grid values stand for
    # the fine grid.
    np.maximum.at(best, (k, rows), np.fmax(refined, peak))
    return best


def _angle_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between angles on the circle."""
    return np.abs((a - b + math.pi) % _TWO_PI - math.pi)


def _nearest(group: np.ndarray, cols: np.ndarray, height: np.ndarray, q_group: np.ndarray, q_angle: np.ndarray) -> np.ndarray:
    """Per query, the index of the peak in its group nearest its angle; -1 if the group has none.

    Peaks are given by group, grid column and height.  A NaN angle (a
    branch last seen on a constant circle) takes the highest peak.
    """
    match = group == q_group[:, None]
    key = _angle_gap(_S_GRID[cols], q_angle[:, None])
    key = np.where(np.isnan(key), -height, key)
    pick = np.where(match, key, np.inf).argmin(axis=1) if group.size else np.zeros(q_group.size, int)
    return np.where(match.any(axis=1), pick, -1)


def _branch_values(
    sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray, angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value and angle of each branch ``(signs[b, i], angles[b, i])`` of the circle maxima at radius ``ts[i]``.

    A branch with sign ``+1`` (``-1``) is the peak of ``profile``
    (``-profile``) nearest its angle, polished; a circle without a peak
    (a constant profile) gives its grid maximum and a NaN angle.  Sign 0
    is the zero level that ``plus`` clips to.  Where both branches of a
    radius find one peak, the farther one has no peak of its own there (it
    is born or dies nearby), so it loses: its value is ``-inf`` and its
    angle stays.
    """
    vals, k, rows, cols = _grid_peaks(sampler, ts, signs)
    pick = _nearest(k * ts.size + rows, cols, vals[k, rows, cols], np.arange(signs.size), angles.ravel())
    pick = pick.reshape(signs.shape)
    has = pick >= 0
    sel = pick[has]
    value = vals.max(axis=2)
    angle = np.full(value.shape, np.nan)
    angle[has], value[has] = _polish(sampler, ts, signs, k[sel], rows[sel], cols[sel])
    value[signs == 0.0] = 0.0
    col = np.full(pick.shape, -1)
    col[has] = cols[sel]
    shared = has.all(axis=0) & (signs[0] == signs[1]) & (col[0] == col[1])
    gap = _angle_gap(angle, angles)
    lose = shared & (gap > gap[::-1])
    value[lose], angle[lose] = -np.inf, angles[lose]
    return value, angle


def max_on_circles(v: FunctionLike, ts: Sequence[float], transform: str = "id") -> np.ndarray:
    """Circle suprema of ``transform(v)`` at each radius in ``ts``.

    Returns +inf exactly at the moduli of :func:`upward_spikes`.  A call
    with ``_PRUNE_RADII`` radii or more searches only the coarse cells whose
    bound reaches the level the supremum is read at
    (:func:`_pruned_maxima`); a smaller one searches the whole grid
    (:func:`_extremes`), where the bound costs more than it saves.  Both
    give the same floats.
    """
    wrap, signs = _transform(transform)
    sampler = _sampler(v)
    ts = np.asarray(ts, float)
    if np.any(ts < 0):
        raise ValueError("radii must be nonnegative")

    # The supremum is clipped at 0 unless the transform is "id" (for "abs",
    # M >= m makes the larger of M and -m at least |M| and |m|), so no
    # maximum below 0 moves it.
    sign = np.array(signs)
    if ts.size >= _PRUNE_RADII:
        best = _pruned_maxima(sampler, ts, sign, -np.inf if transform == "id" else 0.0)
    else:
        best = _extremes(sampler, ts, sign)[0]
    sup = wrap(sign[:, None] * best).max(axis=0)
    return np.where(np.isin(ts, list(upward_spikes(v, transform))), np.inf, sup)


def upward_spikes(v: FunctionLike, transform: str) -> dict[float, tuple[float, float, float]]:
    """Per modulus of the atoms whose spike ``transform`` sends upward, the heaviest one, as the kernel keeps it.

    Atom ``(rho, theta, h)`` of :class:`CircleSampler` diverges upward in
    ``sign * profile`` for ``sign = -sign(h)``: 1 for a minus atom (a peak
    of the profile), -1 for a plus atom; its spike points upward when that
    sign is one of the transform's.  Each entry is ``(mass, sign, angle)``,
    the angle being ``theta`` in ``[0, 2 pi)``, or NaN for an atom at the
    origin, whose spike fills the circle.
    """
    signs = _transform(transform)[1]
    spikes: dict[float, tuple[float, float, float]] = {}
    for rho, theta, h in _sampler(v)._atoms.T.tolist():
        sign, m = (-1.0, 2.0 * h) if h > 0.0 else (1.0, -2.0 * h)
        if sign in signs and m > spikes.get(rho, (0.0,))[0]:
            spikes[rho] = (m, sign, theta % _TWO_PI if rho > 0.0 else math.nan)
    return spikes


def max_crossings(v: FunctionLike, lo: float, hi: float, transform: str = "plus") -> list[float]:
    """Kinks of the circle maxima of ``transform(v)`` (``plus`` or ``abs``) in ``[lo, hi]``, sorted.

    Near each radius the supremum follows one branch: a peak of the
    profile (sign 1), a peak of its negative (sign -1, for ``abs``) or the
    zero level (sign 0, where ``plus`` clips).  A kink is a radius where the
    winning branch changes: a zero crossing of ``M`` (``plus``), a sign
    change of ``M + m`` (``abs``, with ``m`` the circle minimum), or a
    switch between two peaks of one sign.  The winners are scanned at 32
    radii, ``lo`` and ``hi`` included, in one :func:`_extremes` call (two
    grid chunks, one Newton polish), and at each upward atom modulus in
    ``[lo, hi]``, where the heaviest atom's spike wins.  Neighbours whose
    winners are different branches (:func:`_brackets_kink`) bracket a kink, and
    safeguarded Newton refines every bracket at once on ``g = P_a - P_b``,
    the gap between the two branches, each tracked by its nearest peak; by
    the envelope theorem ``P'`` is the profile's radial derivative at the
    peak's angle.  Where a third branch leads at the root, the root joins
    the scan and splits its bracket, for up to ``_KINK_ROUNDS`` rounds.  A
    kink and its undoing between two neighbouring scan radii go unseen.
    """
    sampler = _sampler(v)
    signs = np.array(_transform(transform)[1])
    spikes = {rho: spike for rho, spike in upward_spikes(v, transform).items() if lo <= rho <= hi}

    # Points of the scan, each with its winner; ``pid`` keys its peaks
    # (-1 at a modulus, which has none).
    scan = np.linspace(lo, hi, 32)
    scan = scan[~np.isin(scan, list(spikes))]
    scan_sign, scan_angle, _, table = _scan_winners(sampler, scan, signs, 0)
    ts = np.concatenate([scan, list(spikes)])
    sign = np.concatenate([scan_sign, [s for _, s, _ in spikes.values()]])
    angle = np.concatenate([scan_angle, [a for _, _, a in spikes.values()]])
    pid = np.concatenate([np.arange(scan.size), np.full(len(spikes), -1)])

    kinks: list[float] = []
    pairs = None
    for _ in range(_KINK_ROUNDS):
        order = np.argsort(ts, kind="stable")
        ts, sign, angle, pid = ts[order], sign[order], angle[order], pid[order]
        if pairs is None:
            pairs = np.arange(ts.size - 1)
        else:
            new = np.nonzero(pid >= first_new)[0]
            # Sorted, without repeats; np.unique would import numpy.ma.
            pairs = np.sort(np.clip(np.concatenate([new - 1, new]), 0, ts.size - 2))
            pairs = pairs[np.diff(pairs, prepend=-1) > 0]
        idx = pairs[_brackets_kink(ts, sign, angle, pid, table, pairs)]
        if idx.size == 0:
            break
        lane_signs = np.array([sign[idx], sign[idx + 1]])
        lane_angles = np.array([angle[idx], angle[idx + 1]])
        roots = _refine_kinks(sampler, ts[idx], ts[idx + 1], lane_signs, lane_angles)
        # A root is a kink where its two branches lead; where a third one
        # leads, the root joins the scan.  A root that ran into its
        # bracket's end is no kink of its own.
        first_new = pid.max(initial=-1) + 1
        win_sign, win_angle, win_value, peaks = _scan_winners(sampler, roots, signs, first_new)
        tie, _ = _branch_values(sampler, roots, lane_signs, lane_angles)
        kink = tie.max(axis=0) + 1e-12 * (1.0 + np.abs(win_value)) >= win_value
        inside = np.minimum(roots - ts[idx], ts[idx + 1] - roots) > _END_GAP * (np.abs(ts[idx]) + np.abs(ts[idx + 1]))
        kinks += roots[kink & inside].tolist()
        ts = np.concatenate([ts, roots[~kink]])
        sign = np.concatenate([sign, win_sign[~kink]])
        angle = np.concatenate([angle, win_angle[~kink]])
        pid = np.concatenate([pid, first_new + np.nonzero(~kink)[0]])
        table = _join_peaks(table, peaks)
    return sorted(kinks)


def _scan_winners(sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray, first_pid: int) -> tuple:
    """Sign, angle and value of the winning branch of the circle maxima at each radius, and the polished peaks.

    The peaks come as ``(pid, sign, col, root, value)``, where radius ``i``
    has the point id ``first_pid + i`` (see :func:`_extremes`).
    """
    best, angles, (k, rows, cols, roots, refined) = _extremes(sampler, ts, signs)
    peaks = (first_pid + rows, signs[k], cols, roots, refined)
    if signs.size == 1:
        pos = best[0] > 0.0
        return np.where(pos, 1.0, 0.0), angles[0], np.maximum(best[0], 0.0), peaks
    lead = best[0] >= best[1]
    return np.where(lead, 1.0, -1.0), np.where(lead, angles[0], angles[1]), np.maximum(best[0], best[1]), peaks


def _join_peaks(a: tuple, b: tuple) -> tuple:
    """Two peak tables as one, field by field."""
    return tuple(np.concatenate([x, y]) for x, y in zip(a, b))


def _brackets_kink(
    ts: np.ndarray, sign: np.ndarray, angle: np.ndarray, pid: np.ndarray, table: tuple, pairs: np.ndarray
) -> np.ndarray:
    """Whether the winners at ``ts[i]`` and ``ts[i + 1]`` are different branches, for each ``i`` in ``pairs``.

    They are when their signs differ; when both are spikes at different
    angles; when one is a spike and the other's angle lies more than
    ``_SPIKE_DRIFT`` from the spike's; or when the peak nearest the first
    one's angle at the second radius is not the winner there (the test runs
    at the first radius when the second is a modulus).  A NaN angle (a
    constant circle, or the spike of an atom at the origin) matches any.
    ``table`` holds the polished peaks of the scanned radii, keyed by ``pid``.
    """
    nxt = pairs + 1
    at_modulus = pid < 0
    back = at_modulus[nxt] & ~at_modulus[pairs]
    probe, source = np.where(back, pairs, nxt), np.where(back, nxt, pairs)
    gap = _angle_gap(angle[pairs], angle[nxt])
    kink = (sign[pairs] != sign[nxt]) | (at_modulus[pairs] & at_modulus[nxt] & (gap > _SAME_PEAK))
    test = np.nonzero(~kink & (sign[nxt] != 0.0) & ~at_modulus[probe])[0]
    p_pid, p_sign, p_col, p_root, p_height = table
    group = 2 * p_pid + (p_sign < 0)
    q_group = 2 * pid[probe[test]] + (sign[source[test]] < 0)
    pick = _nearest(group, p_col, p_height, q_group, angle[source[test]])
    near = np.full(pick.shape, np.nan)
    near[pick >= 0] = p_root[pick[pick >= 0]]
    kink[test] = _angle_gap(near, angle[probe[test]]) > _SAME_PEAK
    # A spike's own peak stays near its atom's angle; a winner far from it
    # is another branch, even where the spike has no peak of its own.
    kink |= (at_modulus[pairs] != at_modulus[nxt]) & (gap > _SPIKE_DRIFT)
    return kink


def _refine_kinks(
    sampler: CircleSampler, lo: np.ndarray, hi: np.ndarray, signs: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """Where branch ``(signs[0], angles[0])``, leading at ``lo``, meets branch 1, leading at ``hi``.

    Safeguarded Newton on the gap ``g = P_0 - P_1`` and its radial
    derivative; ``angles`` follows each branch's peak.
    """

    def lane_jet(t: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sg = signs[:, lanes]
        p, s = _branch_values(sampler, t, sg, angles[:, lanes])
        angles[:, lanes] = s
        with np.errstate(invalid="ignore"):
            # On a constant circle every angle gives the same slope.
            slope = np.where(sg == 0.0, 0.0, sg * sampler.radial_slope(t, np.nan_to_num(s)))
        g = p[0] - p[1]
        return g, g, slope[0] - slope[1]

    roots, _ = newton_crossing(lane_jet, lo, hi, 0.5 * (lo + hi))
    return roots


@lru_cache(maxsize=3)
def max_on_circle(v: FunctionLike, r: float, transform: str = "id") -> CharacteristicValue:
    """Supremum of ``transform(v)`` on the circle of radius ``r``; ``transform(u(0))`` at ``r = 0``."""
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and nonnegative")
    if r == 0.0:
        return CharacteristicValue(float(_transform(transform)[0](circle_mean(v, 0.0).value)))
    return CharacteristicValue(float(max_on_circles(v, np.array([r]), transform)[0]))


# --- circle means --------------------------------------------------------

def _closed_mean(v: SubharmonicPotential, r: float) -> float:
    """``const + sum m ln max(r, |a|)``: -inf at ``r = 0`` when an atom sits at the origin."""
    if v.charge.is_empty:
        return v.const
    with np.errstate(divide="ignore"):
        return v.const + float(np.sum(v.charge.masses * np.log(np.maximum(r, v.charge.moduli))))


def _one_signed_mean(u: DeltaSubharmonicFn, r: float, sign: float, wrap: Callable) -> tuple[float, float]:
    """Mean of ``wrap(v)`` over a circle where ``v`` has the sign ``sign`` throughout, with its rounding floor.

    There ``wrap(v) = wrap(sign) * sign * v``, so the mean is 0 or the
    closed mean of ``+-v``; the floor is QUADPACK's 50 eps times the sizes
    of the closed mean's terms.
    """
    size = 0.0
    for part in (u.plus, u.minus):
        size += abs(part.const) + float(np.sum(part.charge.masses * np.abs(np.log(np.maximum(r, part.charge.moduli)))))
    mean = _closed_mean(u.plus, r) - _closed_mean(u.minus, r)
    return (sign * mean if wrap(sign) > 0.0 else 0.0), 50.0 * np.finfo(float).eps * size


def _spike_angles(sampler: CircleSampler, r: float) -> list[float]:
    """Angles in ``[0, 2 pi)`` of the atoms within ``_SPIKE_REL`` of the circle of radius ``r > 0``, as the kernel keeps them."""
    rho, theta, _ = sampler._atoms
    return (theta[np.abs(rho - r) <= _SPIKE_REL * np.maximum(rho, r)] % _TWO_PI).tolist()


def _kink_angles(sampler: CircleSampler, r: float) -> list[float]:
    vals = sampler.grid_profile(np.array([r]))[0]
    idx = sign_changes(vals)
    lo = _S_GRID[idx]
    hi = lo + _TWO_PI / _CIRCLE_GRID
    sign = np.sign(vals[idx])

    # sign(p(lo)) * p crosses zero downward in each cell.
    def lane_jet(s: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p, dp, _ = sampler.jet(r, s)
        g = sign[lanes] * p
        return g, g, sign[lanes] * dp

    roots, _ = newton_crossing(lane_jet, lo, hi, 0.5 * (lo + hi))
    return list(_S_GRID[np.nonzero(vals == 0.0)[0]]) + roots.tolist()


@lru_cache(maxsize=4)
def _quad_mean(
    v: FunctionLike, r: float, transform: str, quad: QuadratureSpec = DEFAULT_QUAD
) -> tuple[float, float]:
    """(1/2pi) * integral of transform(v) over the circle, and its error estimate, by quadrature.

    For plus, minus and abs, where the cell bounds prove the profile
    one-signed, the result is instead the closed mean of +-v, or 0, with
    the rounding floor ``50 eps`` times its terms' sizes as error (see
    :func:`_one_signed_mean`); ``id`` always takes quadrature.

    Atoms within ``_SPIKE_REL`` of the circle give angular hints, and the
    profile's sign changes (for plus, minus and abs) give kinks.  Without
    either the integrand is smooth and periodic, and
    :func:`integrate_periodic` takes it; with either, :func:`integrate`
    refines toward them.  The choice and both rules depend only on the
    arguments, so the result is a pure function of them.
    """
    wrap = _transform(transform)[0]
    if r <= 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and positive")
    sampler = _sampler(v)
    kinks: Sequence[float] = ()
    if transform != "id":
        _, bounds = sampler.cell_bounds(np.array([r]), np.array([1.0, -1.0]))
        below = (bounds[:, 0] < 0.0).all(axis=1)
        if below.any():
            return _one_signed_mean(sampler.u, r, -1.0 if below[0] else 1.0, wrap)
        kinks = _kink_angles(sampler, r)
    hints = _spike_angles(sampler, r)

    def integrand(s: np.ndarray) -> np.ndarray:
        return wrap(sampler.profile(r, s))

    if hints or kinks:
        val, err = integrate(integrand, 0.0, _TWO_PI, spec=quad, hints=hints, breaks=kinks)
    else:
        val, err = integrate_periodic(integrand, 0.0, _TWO_PI, spec=quad)
    return val / _TWO_PI, err / _TWO_PI


def circle_mean(v: FunctionLike, r: float) -> CharacteristicValue:
    """Mean of ``v`` over the circle of radius ``r``, in closed form; ``u(0)`` at ``r = 0``.

    The canonical components share no atom, so at ``r = 0`` a net plus atom
    at the origin gives -inf and a net minus atom +inf, never -inf - -inf.
    ``circle_mean_nonlinear(v, "id", r)`` is the quadrature route to the
    same mean at ``r > 0``.
    """
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and nonnegative")
    u = canonicalize(as_delta(v))
    return CharacteristicValue(_closed_mean(u.plus, r) - _closed_mean(u.minus, r))


def circle_mean_nonlinear(
    v: FunctionLike, transform: str, r: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> CharacteristicValue:
    """Mean of ``transform(v)`` (plus/minus/abs, or id for cross-checks)."""
    val, err = _quad_mean(v, r, transform, quad)
    return CharacteristicValue(val, err)


# --- counting functions --------------------------------------------------

def radial_count(mu: AtomicMeasure, r: float) -> float:
    """Total mass in the closed disc of radius ``r``."""
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and nonnegative")
    if mu.is_empty:
        return 0.0
    return float(np.sum(mu.masses[mu.moduli <= r]))


def counting_integral(mu: AtomicMeasure, r: float, R: float) -> float:
    """Integral of ``radial_count(t)/t`` over ``[r, R]``; +inf iff mass at 0 and r = 0."""
    if not (0 <= r <= R) or not math.isfinite(R):
        raise ValueError("need 0 <= r <= R, finite")
    if r == R:
        return 0.0
    total = 0.0
    for rho, m in zip(mu.moduli.tolist(), mu.masses.tolist()):
        if rho > R:
            continue
        denom = max(r, rho)
        if denom == 0.0:
            return math.inf
        total += m * math.log(R / denom)
    return total


# --- two-variable characteristic and one-variable Nevanlinna set ---------

def characteristic_T(
    u: FunctionLike, r: float, R: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> CharacteristicValue:
    """Positive-part mean growth plus lower-charge counting over ``[r, R]``."""
    if not (0 < r <= R) or not math.isfinite(R):
        raise ValueError("need 0 < r <= R, finite")
    canon = canonicalize(as_delta(u))
    if r == R:
        return CharacteristicValue(0.0)
    hi, err_hi = _quad_mean(canon, R, "plus", quad)
    lo, err_lo = _quad_mean(canon, r, "plus", quad)
    n = counting_integral(canon.minus.charge, r, R)
    return CharacteristicValue(hi - lo + n, err_hi + err_lo)


@dataclass(frozen=True)
class NevanlinnaCharacteristics:
    """Max modulus, proximity, pole counting and total characteristic of ``f`` at radius ``r``.

    The max modulus ``M`` costs a circle maximum, so it is computed on first read.
    """

    f: RationalFunctionSpec
    r: float
    m: CharacteristicValue
    N: CharacteristicValue
    T: CharacteristicValue

    @cached_property
    def M(self) -> CharacteristicValue:
        mx = max_on_circle(ln_abs(self.f), self.r)
        return CharacteristicValue(math.exp(mx.value) if mx.value != math.inf else math.inf)


def nevanlinna(
    f: RationalFunctionSpec, r: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> NevanlinnaCharacteristics:
    """The classical quantities for a rational function at radius ``r > 0``."""
    if r <= 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and positive")
    prox_val, prox_err = _quad_mean(ln_abs(f), r, "plus", quad)
    # N(r) = n(0) ln r + sum over the poles 0 < |a| <= r of m ln(r/|a|).
    n_val = 0.0
    for rho, m in zip(f.poles.moduli.tolist(), f.poles.masses.tolist()):
        if rho <= r:
            n_val += m * math.log(r / rho if rho > 0.0 else r)
    prox = CharacteristicValue(prox_val, prox_err)
    count = CharacteristicValue(n_val)
    total = CharacteristicValue(prox_val + n_val, prox_err)
    return NevanlinnaCharacteristics(f=f, r=r, m=prox, N=count, T=total)
