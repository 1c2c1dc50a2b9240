"""Two quadrature rules: adaptive panels for integrable singularities, and the periodic trapezoidal rule.

:func:`integrate_periodic` integrates a periodic function over one period
by the N-point trapezoidal rule, doubling N by adding the midpoints.  On a
periodic integrand analytic in a strip about the real axis it converges
geometrically (L. N. Trefethen and J. A. C. Weideman, "The exponentially
convergent trapezoidal rule", *SIAM Review* 56(3), 2014); a kink or a
spike on the period slows it to an algebraic rate, and such an integrand
belongs to :func:`integrate`.  Its docstring gives the stopping test.

:func:`integrate` applies a fixed 15-point Gauss-Kronrod rule per panel
and splits the worst panel until the summed error estimate meets the
requested tolerance.  Two kinds of known abscissae become mandatory panel
edges:

* ``hints`` are integrable singularities.  A hint at the origin is
  integrated by the substitution ``t = e * s**_POWER``, ``s`` in
  ``[0, 1]``, on each side of it, where ``e`` is the neighbouring edge:
  the nodes cluster polynomially at ``t = 0`` and the Jacobian
  ``_POWER * |e| * s**(_POWER - 1)`` tames the singularity, so a panel
  next to it shrinks by ``2**_POWER`` per bisection (P. J. Davis and
  P. Rabinowitz, *Methods of Numerical Integration*, 2nd ed., 1984).
  Any other hint is graded toward a priori (edges at ``_GRADE_RATIO**j``
  of the distance to the neighbouring edge), and a worst panel with an end
  on it splits at ``_GRADE_RATIO`` of its width from that end, which
  continues the geometric grading.
* ``breaks`` are kinks, where the integrand is smooth on each side.  They
  are plain edges: no grading, and their panels bisect like any other.

Why two treatments: floats are dense near 0, so ``e * s**_POWER`` stays
apart from 0 down to ``s`` of about 1e-32.  Near any other hint ``h`` they
are not: ``h + d * s**_POWER`` rounds onto ``h`` as soon as
``d * s**_POWER`` falls below half an ulp of ``h``, and the inner node of
the first mapped panel (``s = 0.0043``) is already there for ``|d|``
below about ``5e7 * |h|``, so a map there would sample the singular point.
Off the origin the geometric grading keeps every node apart from ``h``
down to the resolution limit below.
Nor does a hint off the origin become a plain break: the first panel
ending on a near-singular spike misjudges its error (QUADPACK, Piessens et
al. 1983).  With breaks, two ``pjp_identity`` rows (suite seeds 304000003
and 307000000, instances 35 and 65) fail: lhs 6.6e-7 and 1.3e-7 against
err 3.7e-11 and 3.4e-11.

Mapped and plain panels share one heap, one panel budget and one
tolerance test.  A plain panel is split only when the outer Kronrod nodes
of both children, as ``_panel_estimate`` computes them, lie strictly
inside those children; a panel that cannot be split that way is accepted
at floating-point resolution.  Grading toward a hint stops before the same
point.  A mapped panel is bisected in ``s`` under the same rule, and is
also accepted once its inner child's first abscissa would underflow to
``t = 0``.  The open rule therefore never samples the end of a panel it
makes, and so never a hint; only given edges closer than about 120 ulps to
a hint off the origin make a first panel that does.  Integrands are called
with a numpy array of abscissae (in ``t``) and must return an array of
values, which is only read.

Each panel of :func:`integrate` calls the integrand exactly once, on its 15 abscissae: the
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

# 15-point Kronrod abscissae and weights on [-1, 1], to QUADPACK's 33 digits
# (routine QK15); the embedded 7-point Gauss rule uses the odd-index nodes.
_XGK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)

# One level of geometric grading toward each hint: panel edges at
# span * _GRADE_RATIO**j keep the singular panel short without flooding
# the queue.  Refinement toward a hint keeps the same ratio.
_GRADE_RATIO = 0.125
_GRADE_LEVELS = 6
_GRADES = tuple(_GRADE_RATIO**j for j in range(1, _GRADE_LEVELS + 1))

# Power of the substitution t = e * s**_POWER beside a hint at the origin,
# fixed by measurement.  On 300 seeded units each of lemma3, lemma4 and
# lemma_a the powers 6, 8, 10 and 12 took 8,832, 6,508, 5,774 and 5,634
# panels, and CPU time fell from 6 to 10 and was level beyond.  With 10,
# |t|^(-kappa) becomes a bounded s^(9 - 10 kappa) up to kappa = 0.9; t
# underflows for s below about 1e-32.
_POWER = 10

# Outermost Kronrod node, as a fraction of the half-width.
_X_OUTER = float(_XGK[-1])
# Above this width, relative to |lo| + |hi| (plus an absolute floor below
# the normal range), every child of a split keeps its nodes far inside:
# the outer nodes sit 0.0043 of a child's width from its ends, against a
# few ulps of rounding.
_SAFE_WIDTH = 1e-11
_SAFE_FLOOR = 1e-290

# The periodic trapezoidal rule starts at _PERIODIC_START points and
# doubles up to _PERIODIC_MAX_POINTS.  Over the default suite at its own
# seed and at seeds 1-5, at the default tolerance, 1e-11 and 1e-13, no
# circle mean took more than 2,048.
_PERIODIC_START = 32
_PERIODIC_MAX_POINTS = 2**15
# QUADPACK's rounding floor: 50 eps times the integral of |f|.
_ROUNDING = 50.0 * float(np.finfo(float).eps)


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


def _abscissae(lo: float, hi: float, e: float | None) -> np.ndarray:
    """The 15 abscissae in ``t`` of a panel: plain, or ``[lo, hi]`` in ``s`` of ``t = e * s**_POWER``."""
    xs = _panel_nodes(lo, hi)
    return xs if e is None else e * xs**_POWER


def _panel_estimate(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, e: float | None = None
) -> tuple[float, float]:
    """Kronrod value and error of one panel; ``[a, b]`` is in ``s`` of ``t = e * s**_POWER`` unless ``e`` is None."""
    half = 0.5 * (b - a)
    xs = _panel_nodes(a, b)
    # The expression of _abscissae, so first_panel_nodes gives these bits.
    ts = xs if e is None else e * xs**_POWER
    ys = np.asarray(f(ts), dtype=float)
    if ys.shape != xs.shape:
        raise QuadratureError(f"integrand returned shape {ys.shape} for {xs.shape} abscissae in [{a!r}, {b!r}]")
    if e is not None:
        ys = ys * (_POWER * abs(e)) * xs ** (_POWER - 1)
    s15 = float(_WGK.dot(ys))
    # Every Kronrod weight is positive, so any inf or NaN sample makes s15
    # non-finite; finite samples whose sum merely overflows do not raise.
    if not math.isfinite(s15) and not np.isfinite(ys).all():
        where = f"[{a!r}, {b!r}]" if e is None else f"[{a!r}, {b!r}] of t = {e!r} * s**{_POWER}"
        raise QuadratureError(f"non-finite integrand sample in {where}")
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
    # Geometric grading toward every hint off the origin (endpoints included
    # when hinted) from each neighbouring edge; a side without one adds only
    # h itself.  Grading stops at the first level whose panel on h would be
    # sampled at h itself, which happens only near floating-point resolution.
    graded: set[float] = set(base)
    for h in inner:
        if h == 0.0:
            continue
        i = base.index(h)
        for far in base[i - 1 : i] + base[i + 1 : i + 2]:
            d = far - h
            for step in _GRADES:
                x = h + d * step
                if not _nodes_inside(min(h, x), max(h, x)):
                    break
                graded.add(x)
    return sorted(graded)


def _first_panels(
    a: float, b: float, hints: Iterable[float], breaks: Iterable[float]
) -> list[tuple[float, float, float | None]]:
    """``(lo, hi, e)`` per first panel: plain ``[lo, hi]`` with ``e`` None, or ``[0, 1]`` in ``s`` of ``t = e * s**_POWER``.

    A panel with an end on a hint at the origin is mapped, unless its
    abscissae would underflow to ``t = 0`` (an edge below about 1e-300);
    then it stays plain and refines toward the origin by grading.
    """
    hints = frozenset(map(float, hints))
    panels: list[tuple[float, float, float | None]] = []
    edges = _initial_edges(a, b, hints, breaks)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        e = hi if lo == 0.0 else lo if hi == 0.0 else None
        if e is not None and 0.0 in hints and _abscissae(0.0, 1.0, e)[0] != 0.0:
            panels.append((0.0, 1.0, e))
        else:
            panels.append((lo, hi, None))
    return panels


def first_panel_nodes(a: float, b: float, hints: Iterable[float] = (), breaks: Iterable[float] = ()) -> np.ndarray:
    """The abscissae of the first panels of ``integrate(f, a, b, hints=hints, breaks=breaks)``, one row per panel.

    Those panels are fixed before any integrand value is known, so a caller
    can evaluate an integrand on all of them at once; each row equals the
    15 floats :func:`integrate` passes for its panel, bit for bit.  No rows
    unless ``a < b``.
    """
    panels = _first_panels(a, b, hints, breaks) if b > a else []
    return np.array([_abscissae(lo, hi, e) for lo, hi, e in panels]).reshape(-1, _XGK.size)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
    hints: Iterable[float] = (),
    breaks: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    ``hints`` marks abscissae of integrable singularities: a hint at
    ``0.0`` is integrated by the substitution ``t = e * s**_POWER`` on each
    side of it, and any other hint is graded and refined toward (the module
    docstring says why).  ``breaks`` marks kinks, which only become panel
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
        # (-err, counter, lo, hi, e, val, err); e is None for a plain panel.
        heap: list[tuple] = []
        counter = 0
        total = 0.0
        total_err = 0.0
        for lo, hi, e in _first_panels(a, b, singular, breaks):
            val, err = _panel_estimate(f, lo, hi, e)
            total += val
            total_err += err
            heapq.heappush(heap, (-err, counter, lo, hi, e, val, err))
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
            _, _, lo, hi, e, val, err = heap[0]
            if e is None and lo in singular:
                cut = lo + _GRADE_RATIO * (hi - lo)
            elif e is None and hi in singular:
                cut = hi - _GRADE_RATIO * (hi - lo)
            else:
                cut = 0.5 * (lo + hi)
            if hi - lo <= _SAFE_WIDTH * (abs(lo) + abs(hi)) + _SAFE_FLOOR:
                cut = _resolved_cut(lo, cut, hi)
            # A mapped panel on s = 0 stops where its inner child would sample t = 0.
            if cut is not None and lo == 0.0 and e is not None and _abscissae(lo, cut, e)[0] == 0.0:
                cut = None
            if cut is None:
                # Panel is at floating-point resolution; accept its estimate.
                heapq.heapreplace(heap, (0.0, counter, lo, hi, e, val, err))
                counter += 1
                continue
            v1, e1 = _panel_estimate(f, lo, cut, e)
            v2, e2 = _panel_estimate(f, cut, hi, e)
            total += v1 + v2 - val
            total_err += e1 + e2 - err
            heapq.heapreplace(heap, (-e1, counter, lo, cut, e, v1, e1))
            heapq.heappush(heap, (-e2, counter + 1, cut, hi, e, v2, e2))
            counter += 2

    # The running sum can cancel below zero; the panels' own errors cannot.
    return total, math.fsum(entry[-1] for entry in heap)


def integrate_periodic(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD
) -> tuple[float, float]:
    """Integrate ``f``, periodic with period ``b - a``, over ``[a, b]`` by the trapezoidal rule; returns ``(value, error_estimate)``.

    The rule starts at ``_PERIODIC_START`` equispaced points and doubles by
    adding the midpoints, one call of ``f`` per level.  It stops when two
    consecutive differences ``|T_N - T_(N/2)|`` both meet the tolerance
    ``max(abs_tol, rel_tol * |T_N|)``: one difference alone reads 0 when the
    Fourier mode that ``T_N`` aliases happens to vanish on its nodes.  The
    error reported is the last difference, but at least the rounding floor
    ``50 eps`` times the integral of ``|f|``; the floor stays out of the
    stopping test.  Raises :class:`QuadratureError` with the last value and
    difference past ``_PERIODIC_MAX_POINTS`` points.  For a periodic ``f``
    analytic in a strip about the real axis the rule converges
    geometrically; a kink or a spike needs :func:`integrate` instead.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if b <= a:
        raise ValueError("a period needs b > a")
    width = b - a

    def sample(xs: np.ndarray) -> np.ndarray:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise QuadratureError(f"integrand returned shape {ys.shape} for {xs.shape} abscissae")
        if not np.isfinite(ys).all():
            raise QuadratureError(f"non-finite integrand sample on the period [{a!r}, {b!r}]")
        return ys

    n = _PERIODIC_START
    diff = math.inf
    with np.errstate(divide="ignore"):
        ys = sample(a + width * (np.arange(n) / n))
        total, total_abs = float(ys.sum()), float(np.abs(ys).sum())
        value = width * total / n
        while True:
            if 2 * n > _PERIODIC_MAX_POINTS:
                raise QuadratureError(
                    f"periodic rule exhausted ({n} points, err={diff:.3e})", value=value, error_estimate=diff
                )
            ys = sample(a + width * ((np.arange(n) + 0.5) / n))
            total += float(ys.sum())
            total_abs += float(np.abs(ys).sum())
            n *= 2
            new = width * total / n
            prev, diff, value = diff, abs(new - value), new
            tol = max(spec.abs_tol, spec.rel_tol * abs(value))
            if diff <= tol and prev <= tol:
                return value, max(diff, _ROUNDING * width * total_abs / n)
