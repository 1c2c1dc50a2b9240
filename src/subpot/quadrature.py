"""Adaptive panel quadrature tolerant of integrable logarithmic singularities.

A fixed 15-point Gauss-Kronrod rule is applied per panel and panels are
bisected worst-first until the summed error estimate meets the requested
tolerance.  Known singular abscissae ("hints") become mandatory panel
boundaries and receive one level of geometric grading, so the open Kronrod
rule never samples a singular point and the refinement queue starts where
the integrand is hardest.  Integrands are called with a numpy array of
abscissae and must return an array of values.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
# the queue.
_GRADE_RATIO = 0.125
_GRADE_LEVELS = 6


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


def _panel_estimate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _XGK
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape or not np.all(np.isfinite(ys)):
        raise QuadratureError(f"non-finite integrand sample in [{a!r}, {b!r}]")
    k15 = half * float(_WGK @ ys)
    g7 = half * float(_WG @ ys[1::2])
    raw = abs(k15 - g7)
    # QUADPACK-style rescaling keeps the estimate honest near integrable
    # endpoint singularities, where |K-G| alone can flatter the panel.
    resasc = half * float(_WGK @ np.abs(ys - k15 / (b - a)))
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return k15, err


def _initial_edges(a: float, b: float, hints: Sequence[float]) -> list[float]:
    inner = sorted({float(h) for h in hints if a <= h <= b})
    base = sorted({a, b, *inner})
    # Geometric grading toward every hint (endpoints included when hinted)
    # from each neighbouring edge; a side without one adds only h itself.
    graded: set[float] = set(base)
    for h in inner:
        i = base.index(h)
        left = h - base[i - 1] if i > 0 else 0.0
        right = base[i + 1] - h if i + 1 < len(base) else 0.0
        for j in range(1, _GRADE_LEVELS + 1):
            step = _GRADE_RATIO**j
            graded.update((h - left * step, h + right * step))
    return sorted(x for x in graded if a <= x <= b)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
    hints: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    ``hints`` marks abscissae of known kinks or integrable singularities.
    Raises :class:`QuadratureError` when ``spec.max_panels`` is exhausted
    before the tolerance ``max(abs_tol, rel_tol * |value|)`` is met.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if b < a:
        raise ValueError("integration range is reversed")
    if b == a:
        return 0.0, 0.0

    edges = _initial_edges(a, b, tuple(hints))

    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        val, err = _panel_estimate(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if counter >= spec.max_panels or not heap:
            raise QuadratureError(
                f"panel budget exhausted ({counter} panels, err={total_err:.3e})",
                value=total,
                error_estimate=total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel is at floating-point resolution; accept its estimate.
            heapq.heappush(heap, (0.0, counter, lo, hi, val, err))
            counter += 1
            continue
        v1, e1 = _panel_estimate(f, lo, mid)
        v2, e2 = _panel_estimate(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1

    return total, total_err
