"""Finite unions of closed intervals and piecewise-polynomial weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quadrature import DEFAULT_QUAD, QuadratureSpec, first_panel_nodes, integrate

_LP_QUAD = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)


@lru_cache(maxsize=1)
def _decrease_grid() -> np.ndarray:
    """Where rearranged_majorant checks that a profile decreases, in units of a (np.unique imports numpy.ma)."""
    return np.sort(np.concatenate([np.geomspace(1e-9, 1.0, 200), np.linspace(1e-4, 1.0, 200)]))


def _normalize(intervals: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    cleaned = []
    for a, b in intervals:
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("interval endpoints must be finite")
        if b < a:
            raise ValueError(f"interval [{a}, {b}] is reversed")
        if b > a:
            cleaned.append((a, b))
    cleaned.sort()
    merged: list[list[float]] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted closed intervals; overlapping or touching input merges."""

    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _normalize(self.intervals))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "IntervalSet":
        return cls(tuple((p[0], p[1]) for p in pairs))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    @property
    def lower(self) -> float:
        return self.intervals[0][0] if self.intervals else math.nan

    @property
    def upper(self) -> float:
        return self.intervals[-1][1] if self.intervals else math.nan

    def intersect(self, lo: float, hi: float) -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                out.append((a2, b2))
        return IntervalSet(tuple(out))

    def shifted(self, dx: float) -> "IntervalSet":
        return IntervalSet(tuple((a + dx, b + dx) for a, b in self.intervals))

    def to_doc(self) -> list[list[float]]:
        return [[a, b] for a, b in self.intervals]


# --- weights --------------------------------------------------------------

# A unit rebuilds its weight (up to 3 pieces) per combo and takes sups on at most 12 piece-set overlaps.
@lru_cache(maxsize=16)
def _poly_extrema(coeffs: tuple[float, ...], a: float, b: float) -> tuple[float, float]:
    """(min, max) of the polynomial on [a, b] via critical points."""
    c = np.asarray(coeffs, float)
    candidates = [a, b]
    if c.size > 1:
        der = npoly.polyder(c)
        if np.any(der != 0.0):
            roots = npoly.polyroots(der)
            for root in roots:
                if abs(root.imag) < 1e-12 and a < root.real < b:
                    candidates.append(float(root.real))
    vals = npoly.polyval(np.asarray(candidates), c)
    return float(np.min(vals)), float(np.max(vals))


@dataclass(frozen=True)
class Weight:
    """Nonnegative piecewise polynomial with a Hoelder exponent ``p`` in (1, inf].

    ``pieces`` maps disjoint intervals to coefficient tuples (constant term
    first); the weight is zero off the declared pieces.
    """

    pieces: tuple[tuple[tuple[float, float], tuple[float, ...]], ...]
    p: float

    def __post_init__(self) -> None:
        if not (self.p > 1):
            raise ValueError("exponent p must satisfy p > 1 (math.inf allowed)")
        norm_pieces = []
        for (a, b), coeffs in self.pieces:
            a, b = float(a), float(b)
            if b <= a:
                raise ValueError("weight piece intervals must have positive length")
            coeffs = tuple(float(c) for c in coeffs)
            if not coeffs:
                coeffs = (0.0,)
            scale = 1.0 + max(abs(c) for c in coeffs)
            low, _ = _poly_extrema(coeffs, a, b)
            if low < -1e-9 * scale:
                raise ValueError(f"weight is negative on [{a}, {b}] (min {low:.3e})")
            norm_pieces.append(((a, b), coeffs))
        norm_pieces.sort(key=lambda piece: piece[0])
        for ((_, b1), _), ((a2, _), _) in zip(norm_pieces, norm_pieces[1:]):
            if a2 < b1:
                raise ValueError("weight pieces overlap")
        object.__setattr__(self, "pieces", tuple(norm_pieces))
        object.__setattr__(self, "p", float(self.p))

    @property
    def q(self) -> float:
        """Conjugate exponent: p/(p-1), with q = 1 for p = inf."""
        return 1.0 if math.isinf(self.p) else self.p / (self.p - 1.0)

    def sup_on(self, e: IntervalSet) -> float:
        """Essential sup over ``e``; 0 where ``e`` leaves the support, so never below 0."""
        best = 0.0
        for (a, b), coeffs in self.pieces:
            for lo, hi in e.intersect(a, b).intervals:
                best = max(best, _poly_extrema(coeffs, lo, hi)[1])
        return best

    def to_doc(self) -> dict:
        return {
            "pieces": [{"interval": [a, b], "coeffs": list(coeffs)} for (a, b), coeffs in self.pieces],
            "p": "inf" if math.isinf(self.p) else self.p,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Weight":
        p = doc.get("p", "inf")
        p = math.inf if p in ("inf", None) else float(p)
        pieces = tuple(
            ((float(piece["interval"][0]), float(piece["interval"][1])), tuple(float(c) for c in piece["coeffs"]))
            for piece in doc["pieces"]
        )
        return cls(pieces=pieces, p=p)


def lp_norm(g: Weight, e: IntervalSet, quad: Optional[QuadratureSpec] = None) -> float:
    """L^p norm of the weight over ``e`` (sup norm when p = inf); ``quad`` defaults to a tight rule."""
    if e.is_empty:
        return 0.0
    if math.isinf(g.p):
        return g.sup_on(e)
    return _lp_norm(g, e, quad or _LP_QUAD)


# A unit sweeps p inside k or b, so each finite-p norm repeats once per k
# or b; one unit needs at most one entry per (weight, p).
@lru_cache(maxsize=16)
def _lp_norm(g: Weight, e: IntervalSet, quad: QuadratureSpec) -> float:
    """The finite-p branch of :func:`lp_norm`, keyed on the weight (pieces and p), the set and the spec."""
    total = 0.0
    for (a, b), coeffs in g.pieces:
        carr = np.asarray(coeffs)
        for lo, hi in e.intersect(a, b).intervals:
            val, _ = integrate(lambda t: np.maximum(npoly.polyval(t, carr), 0.0) ** g.p, lo, hi, spec=quad)
            total += val
    return total ** (1.0 / g.p)


def integrate_weighted(
    h: Callable[[np.ndarray], np.ndarray],
    g: Weight,
    e: IntervalSet,
    quad: QuadratureSpec = DEFAULT_QUAD,
    breaks: Iterable[float] = (),
) -> tuple[float, float]:
    """Integral of ``h * g`` over ``e``: one :func:`integrate` call per weight piece and interval of ``e``.

    ``breaks`` (kinks, plain panel edges) reach every call, which keeps
    those inside its range; ``h`` must be smooth between them, as the
    circle-maxima integrals are once they subtract each spike.

    ``h`` runs once on the abscissae of every call's first panels together
    (:func:`first_panel_nodes`), and once more per refined panel: each call
    serves a first panel from that table, keyed on its exact abscissae, so
    the result is the same as with ``h`` called panel by panel.
    """
    breaks = tuple(breaks)
    parts = [(lo, hi, np.asarray(coeffs)) for (a, b), coeffs in g.pieces for lo, hi in e.intersect(a, b).intervals]
    if not parts:
        return 0.0, 0.0
    table = np.concatenate([first_panel_nodes(lo, hi, breaks=breaks) for lo, hi, _ in parts])
    values = np.asarray(h(table.ravel()), float).reshape(table.shape)
    first = {x.tobytes(): y for x, y in zip(table, values)}

    def h_served(t: np.ndarray) -> np.ndarray:
        y = first.get(t.tobytes())
        return np.asarray(h(t), float) if y is None else y

    total = 0.0
    err = 0.0
    for lo, hi, carr in parts:
        def fn(t: np.ndarray) -> np.ndarray:
            return h_served(t) * np.maximum(npoly.polyval(t, carr), 0.0)

        val, er = integrate(fn, lo, hi, spec=quad, breaks=breaks)
        total += val
        err += er
    return total, err


def rearranged_majorant(
    f: Callable[[np.ndarray], np.ndarray],
    e: IntervalSet,
    a: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> dict:
    """Integral of an even profile over ``e`` against its symmetric rearrangement bound.

    ``f`` is taken as a function of |t|, decreasing on (0, a); the returned
    record carries the set integral (lhs) and twice the integral over
    ``[0, measure/2]`` (rhs).
    """
    if a <= 0 or not math.isfinite(a):
        raise ValueError("half-width a must be finite and positive")
    if e.intervals and (e.lower < -a or e.upper > a):
        raise ValueError("set must lie inside (-a, a)")

    def even_f(t: np.ndarray) -> np.ndarray:
        return np.asarray(f(np.abs(np.asarray(t, float))), float)

    # Reject profiles that fail to decrease away from the origin.
    gv = np.asarray(f(a * _decrease_grid()), float)
    scale = float(np.max(np.abs(gv[np.isfinite(gv)]))) if np.any(np.isfinite(gv)) else 1.0
    if np.any(np.diff(gv) > 1e-12 * (1.0 + scale)):
        raise ValueError("profile is not decreasing on (0, a)")

    lhs = 0.0
    lhs_err = 0.0
    for lo, hi in e.intervals:
        hints = [0.0] if lo <= 0.0 <= hi else []
        val, er = integrate(even_f, lo, hi, spec=quad, hints=hints)
        lhs += val
        lhs_err += er
    half = e.measure / 2.0
    if half > 0:
        rhs_val, rhs_err = integrate(even_f, 0.0, half, spec=quad, hints=[0.0])
    else:
        rhs_val, rhs_err = 0.0, 0.0
    return {"lhs": lhs, "rhs": 2.0 * rhs_val, "lhs_err": lhs_err, "rhs_err": 2.0 * rhs_err}


def random_interval_set(
    rng: Union[int, np.random.Generator],
    r: float,
    target_measure: float,
    max_pieces: int,
) -> IntervalSet:
    """Deterministic random union of intervals in ``[0, r]`` with the given measure."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if r <= 0 or not math.isfinite(r):
        raise ValueError("r must be finite and positive")
    if not (0 <= target_measure <= r):
        raise ValueError("target measure must lie in [0, r]")
    if max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    if target_measure == 0.0:
        return IntervalSet()

    n = int(rng.integers(1, max_pieces + 1))
    lengths = rng.random(n) + 0.05
    lengths = lengths / lengths.sum() * target_measure
    slack = r - target_measure
    gaps = rng.random(n + 1) + 0.05
    gaps = gaps / gaps.sum() * slack
    intervals = []
    cursor = 0.0
    for i in range(n):
        cursor += gaps[i]
        intervals.append((cursor, cursor + lengths[i]))
        cursor += lengths[i]
    return IntervalSet(tuple(intervals))
