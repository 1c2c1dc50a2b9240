"""Adaptive panel quadrature tolerant of integrable logarithmic singularities.

A fixed 15-point Gauss-Kronrod rule is applied per panel and the worst
panel is split until the summed error estimate meets the requested
tolerance.  Two kinds of known abscissae become mandatory panel edges:

* ``hints`` are integrable singularities.  Each is graded toward a priori
  (edges at ``_GRADE_RATIO**j`` of the distance to the neighbouring edge),
  and a worst panel with an end on a hint splits at ``_GRADE_RATIO`` of its
  width from that end, which continues the geometric grading.
* ``breaks`` are kinks, where the integrand is smooth on each side.  They
  are plain edges: no grading, and their panels bisect like any other.

A panel is split only when the outer Kronrod nodes of both children, as
``_panel_estimate`` computes them, lie strictly inside those children; a
panel that cannot be split that way is accepted at floating-point
resolution.  Grading toward a hint stops before the same point.  The open
rule therefore never samples the end of a panel it makes, and so never a
hint; only given edges closer than about 120 ulps make a first panel that
does.  Integrands are called with a numpy array of
abscissae and must return an array of values, which is only read.

Each panel calls the integrand exactly once, on its 15 abscissae: the
benchmark tracer counts panels as integrand calls and checks this against
the calls of ``_panel_estimate``.  The first panels depend only on the
range, the hints and the breaks, so :func:`first_panel_nodes` gives their
abscissae ahead of the integration, for a caller that evaluates an
expensive integrand on them in one call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# 15-point Kronrod abscissae on [-1, 1]; the embedded 7-point Gauss rule
# uses the odd-index nodes.
_XGK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

# One level of geometric grading toward each hint: panel edges at
# span * _GRADE_RATIO**j keep the singular panel short without flooding
# the queue.  Refinement toward a hint keeps the same ratio.
_GRADE_RATIO = 0.125
_GRADE_LEVELS = 6
_GRADES = tuple(_GRADE_RATIO**j for j in range(1, _GRADE_LEVELS + 1))

# Outermost Kronrod node, as a fraction of the half-width.
_X_OUTER = float(_XGK[-1])
# Above this width, relative to |lo| + |hi| (plus an absolute floor below
# the normal range), every child of a split keeps its nodes far inside:
# the outer nodes sit 0.0043 of a child's width from its ends, against a
# few ulps of rounding.
_SAFE_WIDTH = 1e-11
_SAFE_FLOOR = 1e-290


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for one adaptive integration."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_panels: int = 2**16

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_panels < 4:
            raise ValueError("max_panels too small")


DEFAULT_QUAD = QuadratureSpec()


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted or a sample is non-finite.

    Carries the best available estimate so callers can decide whether to
    degrade gracefully or abort the instance.
    """

    def __init__(self, message: str, value: float = math.nan, error_estimate: float = math.inf):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _panel_nodes(lo: float, hi: float) -> np.ndarray:
    """The 15 Kronrod abscissae of the panel ``[lo, hi]``."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * _XGK


def _panel_estimate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    xs = _panel_nodes(a, b)
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise QuadratureError(f"integrand returned shape {ys.shape} for {xs.shape} abscissae in [{a!r}, {b!r}]")
    s15 = float(_WGK.dot(ys))
    # Every Kronrod weight is positive, so any inf or NaN sample makes s15
    # non-finite; finite samples whose sum merely overflows do not raise.
    if not math.isfinite(s15) and not np.isfinite(ys).all():
        raise QuadratureError(f"non-finite integrand sample in [{a!r}, {b!r}]")
    k15 = half * s15
    g7 = half * float(_WG.dot(ys[1::2]))
    raw = abs(k15 - g7)
    # QUADPACK-style rescaling keeps the estimate honest near integrable
    # endpoint singularities, where |K-G| alone can flatter the panel.
    resasc = half * float(_WGK.dot(np.abs(ys - k15 / (b - a))))
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return k15, err


def _nodes_inside(lo: float, hi: float) -> bool:
    """Whether the outer Kronrod nodes of ``[lo, hi]`` round strictly inside it."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return lo < mid - half * _X_OUTER and mid + half * _X_OUTER < hi


def _resolved_cut(lo: float, cut: float, hi: float) -> float | None:
    """``cut``, else the midpoint, if both children keep their nodes inside; else None."""
    for x in (cut, 0.5 * (lo + hi)):
        if _nodes_inside(lo, x) and _nodes_inside(x, hi):
            return x
    return None


def _initial_edges(a: float, b: float, hints: Iterable[float], breaks: Iterable[float]) -> list[float]:
    inner = sorted({float(h) for h in hints if a <= h <= b})
    base = sorted({a, b, *inner, *(float(x) for x in breaks if a <= x <= b)})
    # Geometric grading toward every hint (endpoints included when hinted)
    # from each neighbouring edge; a side without one adds only h itself.
    # Grading stops at the first level whose panel on h would be sampled
    # at h itself, which happens only near floating-point resolution.
    graded: set[float] = set(base)
    for h in inner:
        i = base.index(h)
        for far in base[i - 1 : i] + base[i + 1 : i + 2]:
            d = far - h
            for step in _GRADES:
                x = h + d * step
                if not _nodes_inside(min(h, x), max(h, x)):
                    break
                graded.add(x)
    return sorted(graded)


def _first_panels(a: float, b: float, hints: Iterable[float], breaks: Iterable[float]) -> list[tuple[float, float]]:
    edges = _initial_edges(a, b, hints, breaks)
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def first_panel_nodes(a: float, b: float, hints: Iterable[float] = (), breaks: Iterable[float] = ()) -> np.ndarray:
    """The abscissae of the first panels of ``integrate(f, a, b, hints=hints, breaks=breaks)``, one row per panel.

    Those panels are fixed before any integrand value is known, so a caller
    can evaluate an integrand on all of them at once; each row equals the
    15 floats :func:`integrate` passes for its panel, bit for bit.  No rows
    unless ``a < b``.
    """
    panels = _first_panels(a, b, hints, breaks) if b > a else []
    return np.array([_panel_nodes(lo, hi) for lo, hi in panels]).reshape(-1, _XGK.size)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
    hints: Iterable[float] = (),
    breaks: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    ``hints`` marks abscissae of integrable singularities, which are graded
    and refined toward; ``breaks`` marks kinks, which only become panel
    edges.  ``f`` runs with numpy's divide-by-zero warning off.  Raises
    :class:`QuadratureError` when ``spec.max_panels`` is exhausted before the
    tolerance ``max(abs_tol, rel_tol * |value|)`` is met.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if b < a:
        raise ValueError("integration range is reversed")
    if b == a:
        return 0.0, 0.0

    singular = frozenset(map(float, hints))

    with np.errstate(divide="ignore"):
        heap: list[tuple[float, int, float, float, float, float]] = []
        counter = 0
        total = 0.0
        total_err = 0.0
        for lo, hi in _first_panels(a, b, singular, breaks):
            val, err = _panel_estimate(f, lo, hi)
            total += val
            total_err += err
            heapq.heappush(heap, (-err, counter, lo, hi, val, err))
            counter += 1

        abs_tol, rel_tol, max_panels = spec.abs_tol, spec.rel_tol, spec.max_panels
        while total_err > max(abs_tol, rel_tol * abs(total)):
            if counter >= max_panels or not heap:
                raise QuadratureError(
                    f"panel budget exhausted ({counter} panels, err={total_err:.3e})",
                    value=total,
                    error_estimate=total_err,
                )
            # The (-err, counter) keys are unique, so the order in which panels
            # come off the heap does not depend on how the heap is updated.
            _, _, lo, hi, val, err = heap[0]
            if lo in singular:
                cut = lo + _GRADE_RATIO * (hi - lo)
            elif hi in singular:
                cut = hi - _GRADE_RATIO * (hi - lo)
            else:
                cut = 0.5 * (lo + hi)
            if hi - lo <= _SAFE_WIDTH * (abs(lo) + abs(hi)) + _SAFE_FLOOR:
                cut = _resolved_cut(lo, cut, hi)
                if cut is None:
                    # Panel is at floating-point resolution; accept its estimate.
                    heapq.heapreplace(heap, (0.0, counter, lo, hi, val, err))
                    counter += 1
                    continue
            v1, e1 = _panel_estimate(f, lo, cut)
            v2, e2 = _panel_estimate(f, cut, hi)
            total += v1 + v2 - val
            total_err += e1 + e2 - err
            heapq.heapreplace(heap, (-e1, counter, lo, cut, v1, e1))
            heapq.heappush(heap, (-e2, counter + 1, cut, hi, v2, e2))
            counter += 2

    return total, total_err
