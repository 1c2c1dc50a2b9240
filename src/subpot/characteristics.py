"""Radial characteristics of atomic-charge potentials.

Circle means of the potentials themselves have exact closed forms
(``mean of ln|z - a| over |z| = r`` is ``ln max(r, |a|)``); at ``r = 0``
that is the point value ``u(0)``, the one point value the package uses.
Everything nonlinear samples one real kernel, :class:`CircleSampler`,
which keeps each atom's share of the squared distance on one dense angular
grid.  Circle maxima and minima polish each peak of that grid by
safeguarded Newton on the profile's closed-form angular derivatives;
means of the plus, minus and abs parts use singularity-aware quadrature
split at nearby atoms' angles and at the profile's sign changes, and the
zero crossings of the circle maxima come from a radial scan, all refined by
the same Newton routine (in :mod:`subpot.search`).  One table holds the
transforms.

Three pure functions repeat inside one checker unit, so each has a memo
keyed on every argument and bounded by one unit's need: ``_sampler(v)``
(2 entries: at most two functions), ``max_on_circle(v, r, transform)``
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
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate
from .search import grid_peaks, newton_crossing, sign_changes

FunctionLike = Union[SubharmonicPotential, DeltaSubharmonicFn]

_TWO_PI = 2.0 * math.pi
_CIRCLE_GRID = 1024
# One shared angular grid, read-only so no caller can change another's.
_S_GRID = np.linspace(0.0, _TWO_PI, _CIRCLE_GRID, endpoint=False)
_S_GRID.flags.writeable = False
# Atoms this close to the circle (relative) get an angular hint.
_SPIKE_REL = 0.05

# Pointwise maps applied to profile values.  Each is monotone on either
# side of some point, so its circle supremum sits at the circle maximum or
# the circle minimum of the profile.
TRANSFORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "id": lambda x: x,
    "plus": lambda x: np.maximum(x, 0.0),
    "minus": lambda x: np.maximum(-x, 0.0),
    "abs": np.abs,
}


@dataclass(frozen=True)
class CharacteristicValue:
    """A computed quantity and an estimate of its absolute error."""

    value: float
    error_estimate: float = 0.0


def _transform_fn(transform: str) -> Callable[[np.ndarray], np.ndarray]:
    try:
        return TRANSFORMS[transform]
    except KeyError:
        raise ValueError(f"unknown transform {transform!r}") from None


def as_delta(v: FunctionLike) -> DeltaSubharmonicFn:
    if isinstance(v, SubharmonicPotential):
        return DeltaSubharmonicFn.from_potential(v)
    return v


class CircleSampler:
    """Profile values of a canonical difference at ``t * e^{is}``, from one real kernel.

    With ``x + iy = t e^{is}``, atom ``a`` of signed mass ``m`` (negative on
    the minus component) adds ``m ln D / 2``, ``D = (x - Re a)**2 + (y - Im a)**2``.
    Atoms lie on the leading axis, so for a batch of points ``sum(axis=0)``
    adds them one after another.  For a single point numpy sums 8 or more
    atoms pairwise instead, so the last bits may differ from the same point
    inside a batch.
    """

    def __init__(self, u: DeltaSubharmonicFn):
        self.u = u = canonicalize(u)
        centers = np.concatenate([u.plus.charge.centers, u.minus.charge.centers])
        half_masses = 0.5 * np.concatenate([u.plus.charge.masses, -u.minus.charge.masses])
        self._atoms = np.array([centers.real, centers.imag, half_masses])
        self._c0 = u.plus.const - u.minus.const

    def _offsets(self, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
        """Points ``x, y``, offsets ``x - Re a, y - Im a`` and the atom columns ``Re a, Im a, m/2``."""
        t, s = np.asarray(t, float), np.asarray(s, float)
        x, y = t * np.cos(s), t * np.sin(s)
        re, im, h = self._atoms.reshape((3, -1) + (1,) * x.ndim)
        return x, y, x - re, y - im, re, im, h

    def _log_sum(self, d: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``c0 + sum h ln D``, overwriting ``D``; ``D = 0`` gives -inf (plus atom) or +inf (minus atom)."""
        np.log(d, out=d)
        d *= h
        return self._c0 + d.sum(axis=0)

    def profile(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        _, _, dx, dy, _, _, h = self._offsets(t, s)
        dx *= dx
        dx += np.multiply(dy, dy, out=dy)
        with np.errstate(divide="ignore"):
            return self._log_sum(dx, h)

    @cached_property
    def _polar_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Per atom, ``rho`` and ``G = 4 rho sin^2((s - theta)/2)`` on the shared grid, so ``D = (t - rho)**2 + t G``.

        Neither term cancels beside the atom.  Built on first use, because
        the quadrature route to the circle mean of ``v`` itself never visits
        the grid.
        """
        centers = self._atoms[0] + 1j * self._atoms[1]
        rho = np.abs(centers)[:, None]
        return rho, 4.0 * rho * np.sin(0.5 * (_S_GRID - np.angle(centers)[:, None])) ** 2

    def grid_profile(self, ts: np.ndarray) -> np.ndarray:
        """Profile values at each radius in ``ts`` (rows) and each angle of the shared grid (columns)."""
        rho, g = self._polar_grid
        d = g[:, None, :] * ts[:, None]
        d += ((ts - rho) ** 2)[:, :, None]
        with np.errstate(divide="ignore"):
            return self._log_sum(d, self._atoms[2][:, None, None])

    def radial_slope(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Radial derivative of the profile at ``t * e^{is}``: atom ``a`` adds ``m (t - Re(a e^{-is})) / D``."""
        _, _, dx, dy, _, _, h = self._offsets(t, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (2.0 * h * (dx * np.cos(s) + dy * np.sin(s)) / (dx * dx + dy * dy)).sum(axis=0)

    def jet(self, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Profile value and its first two angular derivatives at ``t * e^{is}``.

        With ``N' + iN = z conj(a)`` and ``q = 2N/D``, atom ``a`` adds ``m q/2``
        and ``m (2N'/D - q**2)/2`` (NaN on the atom); ``N`` comes from the
        offsets, so it stays accurate beside the atom.
        """
        x, y, dx, dy, re, im, h = self._offsets(t, s)
        d = dx * dx + dy * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 2.0 * (dy * re - dx * im) / d
            dp = (q * h).sum(axis=0)
            d2p = ((2.0 * (x * re + y * im) / d - q * q) * h).sum(axis=0)
            return self._log_sum(d, h), dp, d2p


@lru_cache(maxsize=2)
def _sampler(v: FunctionLike) -> CircleSampler:
    return CircleSampler(as_delta(v))


def _circle_extremes(sampler: CircleSampler, ts: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Profile maxima (sign 1) and minima (sign -1) and the angles that attain them.

    Both arrays have one row per sign and one column per radius.  Each
    extreme is the maximum of ``sign * profile``.  One angular grid pass
    serves every sign.  Each grid peak is polished by safeguarded Newton
    inside its two neighbouring cells, the peaks of all signs and radii as
    one set of lanes, so an extreme never falls short of its grid value.
    The angle is the polished root of the winning peak, or the best grid
    angle where no polished value beats the grid.
    """
    step = _TWO_PI / _CIRCLE_GRID
    vals = signs[:, None, None] * sampler.grid_profile(ts)
    best = vals.max(axis=2)
    angles = _S_GRID[vals.argmax(axis=2)]
    k, rows, cols = grid_peaks(vals, periodic=True)
    lane_sign, lane_t = signs[k], ts[rows]

    def lane_jet(s: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sign = lane_sign[lanes]
        p, dp, d2p = sampler.jet(lane_t[lanes], s)
        return sign * p, sign * dp, sign * d2p

    s0 = _S_GRID[cols]
    roots, refined = newton_crossing(lane_jet, s0 - step, s0 + step, s0)
    np.maximum.at(best, (k, rows), refined)
    won = refined == best[k, rows]
    angles[k[won], rows[won]] = roots[won]
    return signs[:, None] * best, angles


def max_on_circles(v: FunctionLike, ts: Sequence[float], transform: str = "id") -> np.ndarray:
    """Circle suprema of ``transform(v)`` at each radius in ``ts``.

    Returns +inf exactly where an atom whose transformed spike diverges
    upward lies on the circle (minus-component atoms for "id"/"plus",
    plus-component atoms for "minus", both for "abs").
    """
    wrap = _transform_fn(transform)
    sampler = _sampler(v)
    ts = np.asarray(ts, float)
    if np.any(ts < 0):
        raise ValueError("radii must be nonnegative")

    # The profile's maximum matters unless the transform flips the sign; its
    # minimum matters when the transform sends negative values upward.
    signs: list[float] = []
    up_moduli: list[np.ndarray] = []
    if transform != "minus":
        signs.append(1.0)
        up_moduli.append(sampler.u.minus.charge.moduli)
    if transform in ("minus", "abs"):
        signs.append(-1.0)
        up_moduli.append(sampler.u.plus.charge.moduli)
    sup = wrap(_circle_extremes(sampler, ts, np.array(signs))[0]).max(axis=0)
    return np.where(np.isin(ts, np.concatenate(up_moduli)), np.inf, sup)


def max_crossings(v: FunctionLike, r: float) -> list[float]:
    """Radii in ``(0, r)`` where the circle maximum ``M`` of ``v`` crosses zero, sorted.

    ``M`` is scanned at 30 interior radii, in two calls of 15 (one
    quadrature panel's footprint), and is ``+inf`` on the modulus of every
    minus atom in ``[0, r]``.  Each sign change between neighbours brackets
    a crossing, which safeguarded Newton refines, all brackets at once, on
    ``g = sign(M(lo)) M`` and ``dg = sign(M(lo)) M'``.  By the envelope
    theorem ``M'(t)`` is the profile's radial derivative at the angle that
    attains the maximum.  Two crossings between neighbouring radii of the
    scan go unseen, and so does a crossing between ``0`` or ``r`` and its
    nearest scan radius.
    """
    sampler = _sampler(v)
    ts = r * np.arange(1, 31) / 31.0
    vals = np.concatenate([max_on_circles(v, ts[:15]), max_on_circles(v, ts[15:])])
    up = sampler.u.minus.charge.moduli
    up = up[up <= r]
    ts = np.concatenate([ts, up])
    order = np.argsort(ts, kind="stable")
    ts, vals = ts[order], np.concatenate([vals, np.full(up.size, np.inf)])[order]
    idx = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    sign = np.sign(vals[idx])
    plus = np.ones(1)

    def lane_jet(t: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m, s = _circle_extremes(sampler, t, plus)
        g = sign[lanes] * m[0]
        return g, g, sign[lanes] * sampler.radial_slope(t, s[0])

    lo, hi = ts[idx], ts[idx + 1]
    roots, _ = newton_crossing(lane_jet, lo, hi, 0.5 * (lo + hi))
    return sorted(ts[vals == 0.0].tolist() + roots.tolist())


@lru_cache(maxsize=3)
def max_on_circle(v: FunctionLike, r: float, transform: str = "id") -> CharacteristicValue:
    """Supremum of ``transform(v)`` on the circle of radius ``r``; ``transform(u(0))`` at ``r = 0``."""
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and nonnegative")
    if r == 0.0:
        return CharacteristicValue(float(_transform_fn(transform)(circle_mean(v, 0.0).value)))
    return CharacteristicValue(float(max_on_circles(v, np.array([r]), transform)[0]))


# --- circle means --------------------------------------------------------

def _closed_mean(v: SubharmonicPotential, r: float) -> float:
    """``const + sum m ln max(r, |a|)``: -inf at ``r = 0`` when an atom sits at the origin."""
    if v.charge.is_empty:
        return v.const
    with np.errstate(divide="ignore"):
        return v.const + float(np.sum(v.charge.masses * np.log(np.maximum(r, v.charge.moduli))))


def _spike_angles(u: DeltaSubharmonicFn, r: float) -> list[float]:
    angles: list[float] = []
    for charge in (u.plus.charge, u.minus.charge):
        for c, _ in charge.atoms:
            scale = max(r, abs(c))
            if scale == 0.0:
                continue
            if abs(abs(c) - r) <= _SPIKE_REL * scale:
                angles.append(math.atan2(c.imag, c.real) % _TWO_PI)
    return angles


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
    """(1/2pi) * integral of transform(v) over the circle, by quadrature."""
    wrap = _transform_fn(transform)
    if r <= 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and positive")
    sampler = _sampler(v)
    kinks = _kink_angles(sampler, r) if transform != "id" else ()

    def integrand(s: np.ndarray) -> np.ndarray:
        return wrap(sampler.profile(r, s))

    val, err = integrate(integrand, 0.0, _TWO_PI, spec=quad, hints=_spike_angles(sampler.u, r), breaks=kinks)
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
    for c, m in mu.atoms:
        rho = abs(c)
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
    """Max modulus, proximity, pole counting and total characteristic at one radius."""

    M: CharacteristicValue
    m: CharacteristicValue
    N: CharacteristicValue
    T: CharacteristicValue


def nevanlinna(
    f: RationalFunctionSpec, r: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> NevanlinnaCharacteristics:
    """The classical quantities for a rational function at radius ``r > 0``."""
    if r <= 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and positive")
    u = ln_abs(f)
    mx = max_on_circle(u, r)
    big_m = CharacteristicValue(math.exp(mx.value) if mx.value != math.inf else math.inf)
    prox_val, prox_err = _quad_mean(u, r, "plus", quad)
    n0 = f.poles.mass_at(0j)
    n_val = n0 * math.log(r)
    for c, m in f.poles.atoms:
        rho = abs(c)
        if 0.0 < rho <= r:
            n_val += m * math.log(r / rho)
    prox = CharacteristicValue(prox_val, prox_err)
    count = CharacteristicValue(n_val)
    total = CharacteristicValue(prox_val + n_val, prox_err)
    return NevanlinnaCharacteristics(M=big_m, m=prox, N=count, T=total)
