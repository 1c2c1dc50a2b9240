"""Numerical checkers for the small-set integral bounds.

Each checker evaluates both sides of one proved inequality (or identity)
on a concrete instance and returns a :class:`BoundReport`.  Every
left-hand side made of circle maxima is one weighted integral,
:func:`_maxima_integral`: the weighted checkers integrate over ``E``
against ``g``, and the Nevanlinna integral is the case ``E = [0, r]``,
``g = 1``.  It subtracts each upward log spike between the kinks next to
its modulus, adds it back in closed form, and splits at the moduli and
the kinks of the maxima.  Right-hand sides combine closed forms, circle
means and norms.  ``holds()`` compares the sides with a margin built from
the accumulated quadrature error estimates.

The two special functions the bounds need are computed here, from numpy
and :mod:`math`: the upper incomplete gamma function of the kernel norm's
closed form (:func:`_upper_gamma`) and the principal Lambert W of the
smallest small-set constant (:func:`_lambert_w0`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .characteristics import (
    as_delta,
    characteristic_T,
    circle_mean_nonlinear,
    counting_integral,
    max_crossings,
    max_on_circle,
    max_on_circles,
    nevanlinna,
    radial_count,
    upward_spikes,
)
from .model import (
    AtomicMeasure,
    DeltaSubharmonicFn,
    RationalFunctionSpec,
    SubharmonicPotential,
    canonicalize,
    ln_abs,
)
from .quadrature import QuadratureSpec, integrate
from .search import grid_peaks, newton_crossing
from .sets import IntervalSet, Weight, integrate_weighted, lp_norm, rearranged_majorant

# Circle-max integrands are expensive; their integrals feed a ratio with
# generous theorem slack, so a looser tolerance is enough.  A checker's
# ``quad`` argument, when given, overrides these defaults (and the weight
# norm's) for every integral the checker runs; ``None`` keeps each default.
LHS_QUAD = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10, max_panels=2**14)
MEAN_QUAD = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
NORM_QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)

_SUP_GRID = 256
_EPS = float(np.finfo(float).eps)
_ROUNDING = 50.0 * _EPS
# Newton for the Lambert W needs at most six steps from ln(1 + c).
_W_ITERS = 20


def _safe_ratio(lhs: float, rhs: float) -> float:
    lhs = max(float(lhs), 0.0)
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    if math.isinf(rhs):
        return 0.0 if not math.isinf(lhs) else math.nan
    return lhs / rhs


@dataclass(frozen=True)
class BoundReport:
    """One inequality check: both sides, their ratio and the error budget."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    params: dict = field(default_factory=dict)
    error_estimate: float = 0.0
    instance_fingerprint: str = ""
    degenerate: bool = False

    def holds(self) -> bool:
        margin = self.error_estimate + 1e-12 * (1.0 + abs(self.rhs))
        return self.lhs <= self.rhs + margin


def _report(
    name: str,
    lhs: float,
    rhs: float,
    params: dict,
    err: float,
    degenerate: bool = False,
) -> BoundReport:
    return BoundReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=_safe_ratio(lhs, rhs),
        params=params,
        error_estimate=float(err),
        degenerate=degenerate,
    )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_subset(e: IntervalSet, lo: float, hi: float, what: str) -> None:
    if e.is_empty:
        return
    tol = 1e-12 * (1.0 + abs(hi))
    _require(e.lower >= lo - tol and e.upper <= hi + tol, f"set must lie inside [{what}]")


# --- mass bound by annulus counting --------------------------------------

def lemma2_check(mu: AtomicMeasure, r: float, R: float) -> BoundReport:
    """Closed-disc mass against R/(R-r) times the annulus counting integral."""
    _require(0 <= r < R and math.isfinite(R), "need 0 <= r < R, finite")
    lhs = radial_count(mu, r)
    rhs = R / (R - r) * counting_integral(mu, r, R)
    params = {"r": r, "R": R, "total_mass": mu.total_mass}
    return _report("lemma2", lhs, rhs, params, 0.0)


# --- elementary log-power integral bound ----------------------------------

def lemma3_check(
    q: float, A: float, a: float, quad: Optional[QuadratureSpec] = None
) -> BoundReport:
    """Integral of ln^q(A/x) on (0, a] against (1 + q^(q+1)) * a * ln^q(A/a)."""
    _require(q >= 0, "need q >= 0")
    _require(A > 0 and 0 < a <= A / math.e * (1 + 1e-12), "need 0 < a <= A/e")

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.log(A / x) ** q

    lhs, err = integrate(integrand, 0.0, a, spec=quad or NORM_QUAD, hints=[0.0])
    rhs = (1.0 + q ** (q + 1.0)) * a * math.log(A / a) ** q
    params = {"q": q, "A": A, "a": a}
    return _report("lemma3", lhs, rhs, params, err)


# --- L^q norm of the shifted log kernel -----------------------------------

def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """``Γ(a, x)``, the integral of ``t^(a-1) e^-t`` over ``[x, inf)``, for ``a >= 2`` and each ``x`` in ``[0, inf]``.

    Below ``x = a + 1`` it is ``Γ(a)`` less the series of the lower function,
    ``e^-x x^a sum_k x^k / (a (a+1) ... (a+k))``; from there on it is
    ``e^-x x^a`` times the continued fraction
    ``1/(x + 1 - a - 1 (1 - a)/(x + 3 - a - 2 (2 - a)/(x + 5 - a - ...)))``,
    by the modified Lentz method (W. H. Press et al., *Numerical Recipes*,
    3rd ed., §6.2).  Each lane stops on its own convergence test, so its
    value does not depend on the other lanes of ``x``.
    """
    x = np.asarray(x, float)
    out = np.zeros(x.shape)
    below = x < a + 1.0
    xs = x[below]
    term = np.full(xs.shape, 1.0 / a)
    total = term.copy()
    live = np.ones(xs.shape, bool)
    n = a
    while live.any():
        n += 1.0
        term *= xs / n
        np.add(total, term, out=total, where=live)
        live &= term > _EPS * total
    with np.errstate(divide="ignore"):
        out[below] = math.gamma(a) - np.exp(a * np.log(xs) - xs) * total
    # Lanes at x = inf keep Γ = 0.
    above = ~below & (x < math.inf)
    xf = x[above]
    b = xf + 1.0 - a
    c = np.full(xf.shape, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    frac = d.copy()
    live = np.ones(xf.shape, bool)
    i = 0
    while live.any():
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        np.multiply(frac, delta, out=frac, where=live)
        live &= np.abs(delta - 1.0) > _EPS
    out[above] = np.exp(a * np.log(xf) - xf) * frac
    return out


def _log_kernel_power_integral(e: IntervalSet, xs: np.ndarray, R: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """``F(x)``, the integral of ln^q(2R/|t - x|) over ``t`` in ``E``, and the sum of ``|P|`` over the interval ends, at each ``x``.

    With ``P(y) = 2R Γ(q + 1, ln(2R/y))``, the integral of the kernel power
    over ``[0, y]`` (``0 <= y <= 2R``), the integral over [alpha, beta] is
    P(beta - x) - P(alpha - x) extended oddly to negative distances.  One
    :func:`_upper_gamma` call takes every interval end at every ``x``.
    Each ``P`` is of the order of ``2R Γ(q + 1)`` while ``F`` is of the
    order of ``mes E``, so the sum cancels: its rounding error is a few
    ``eps`` times the sum of ``|P|`` (at most 5.5 times, against 40-digit
    values, on the default suite's kernel-norm sups).
    """
    xs = np.asarray(xs, float)
    u = np.array(e.intervals, float).reshape((-1, 2) + (1,) * xs.ndim) - xs
    y = np.abs(u)
    if np.any(y > 2 * R * (1 + 1e-12)):
        raise ValueError("kernel distance out of range [0, 2R]")
    with np.errstate(divide="ignore"):
        s = np.log(2 * R / np.minimum(y, 2 * R))
    p = np.sign(u) * (2 * R * _upper_gamma(q + 1.0, s))
    return (p[:, 1] - p[:, 0]).sum(0), np.abs(p).sum((0, 1))


def log_kernel_norm(
    e: IntervalSet, x: float, R: float, q: float, quad: QuadratureSpec = NORM_QUAD
) -> tuple[float, float]:
    """L^q(E) norm of t -> ln(2R/|t - x|) by quadrature; returns (norm, error_estimate).

    The integral runs in the distance ``y = |t - x|``, one span per side of
    ``x`` in each interval of ``E``.  A span that starts at ``y = 0`` (``x``
    inside the interval or on its end) holds the singular tip and passes
    ``hints=[0.0]``, which :func:`integrate` takes by a power substitution
    that clusters its nodes at ``y = 0``; every other span is regular.  The
    closed form ``_log_kernel_power_integral(e, x, R, q)[0] ** (1/q)`` is its
    oracle in the tests; the kernel-norm sup evaluates that closed form.
    """
    _require(q >= 1, "need q >= 1")
    _require(R > 0, "need R > 0")

    def kernel_pow(y: np.ndarray) -> np.ndarray:
        return np.log(2 * R / y) ** q

    spans: list[tuple[float, float]] = []
    for alpha, beta in e.intervals:
        d_a, d_b = abs(x - alpha), abs(x - beta)
        spans += [(0.0, d_a), (0.0, d_b)] if alpha < x < beta else [(min(d_a, d_b), max(d_a, d_b))]
    total = 0.0
    err = 0.0
    for d1, d2 in spans:
        if d2 > 2 * R:
            raise ValueError("set reaches beyond kernel range 2R")
        if d2 <= d1:
            continue
        val, er = integrate(kernel_pow, d1, d2, spec=quad, hints=[0.0] if d1 == 0.0 else [])
        total += val
        err += er
    if total <= 0.0:
        return 0.0, err
    norm = total ** (1.0 / q)
    return norm, norm * err / (q * total)


def _sup_log_kernel_norm(e: IntervalSet, R: float, q: float) -> tuple[float, float]:
    """sup over x in [0, R] of the closed-form kernel norm ``F(x) ** (1/q)``, and its rounding error.

    ``F`` is maximised on a grid, and every grid peak is polished by
    safeguarded Newton on ``F' = sum k(alpha - x) - k(beta - x)`` and
    ``F'' = sum h(alpha - x) - h(beta - x)`` over the intervals of ``E``,
    with ``k(u) = ln^q(2R/|u|)`` and ``h(u) = -k'(u) = q ln^(q-1)(2R/|u|) / u``.
    On an interval end ``F'`` is infinite; its sign still moves the bracket.
    ``F`` itself is evaluated once more, at the roots: Newton needs only a
    value of the size of ``F`` for its stopping test, and gets the grid peak's.
    The error is the rounding bound ``50 eps sum|P| / (q F)`` of the sup,
    relative, at the winning ``x`` (see :func:`_log_kernel_power_integral`).
    """
    xs = np.linspace(0.0, R, _SUP_GRID)
    vals, scale = _log_kernel_power_integral(e, xs, R, q)
    (peaks,) = grid_peaks(vals, periodic=False)
    step = R / (_SUP_GRID - 1)
    ends = np.array(e.intervals).reshape(-1, 2, 1)

    def lane_jet(x: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = ends - x
        with np.errstate(divide="ignore", invalid="ignore"):
            ln = np.log(2 * R / np.abs(u))
            k, h = ln**q, q * ln ** (q - 1.0) / u
        return vals[peaks[lanes]], (k[:, 0] - k[:, 1]).sum(0), (h[:, 0] - h[:, 1]).sum(0)

    roots, _ = newton_crossing(lane_jet, xs[peaks] - step, xs[peaks] + step, xs[peaks])
    refined, refined_scale = _log_kernel_power_integral(e, roots, R, q)
    every, scales = np.concatenate([vals, refined]), np.concatenate([scale, refined_scale])
    best = every.argmax()
    sup = float(every[best] ** (1.0 / q))
    return sup, _ROUNDING * float(scales[best] / (q * every[best])) * sup


def lemma4_check(
    e: IntervalSet,
    x: float,
    r: float,
    R: float,
    q: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Shifted log-kernel norm against 2q * (mes E)^(1/q) * ln(4R / mes E)."""
    _require(q >= 1, "need q >= 1")
    _require(0 < r <= R and math.isfinite(R), "need 0 < r <= R, finite")
    _require(0 <= x <= R, "need 0 <= x <= R")
    _require_subset(e, 0.0, r, "0, r")
    m = e.measure
    params = {"x": x, "r": r, "R": R, "q": q, "mes_E": m}
    if m == 0.0:
        return _report("lemma4", 0.0, 0.0, params, 0.0, degenerate=True)
    lhs, err = log_kernel_norm(e, x, R, q, quad=quad or NORM_QUAD)
    rhs = 2.0 * q * m ** (1.0 / q) * math.log(4.0 * R / m)
    return _report("lemma4", lhs, rhs, params, err)


# --- symmetric rearrangement bound ----------------------------------------

def lemma_a_check(
    f: Callable[[np.ndarray], np.ndarray],
    e: IntervalSet,
    a: float,
    quad: Optional[QuadratureSpec] = None,
    params: Optional[dict] = None,
) -> BoundReport:
    """Set integral of an even decreasing profile against its centered bound."""
    rec = rearranged_majorant(f, e, a, quad=quad or NORM_QUAD)
    out_params = {"a": a, "mes_E": e.measure}
    if params:
        out_params.update(params)
    return _report(
        "lemma_a",
        rec["lhs"],
        rec["rhs"],
        out_params,
        rec["lhs_err"] + rec["rhs_err"],
        degenerate=e.is_empty,
    )


# --- maxima integrals against growth characteristics ----------------------

def _log_moment(coeffs: tuple, rho: float, a: float, b: float) -> float:
    """``int_a^b g(t) ln|t - rho| dt`` in closed form, for the polynomial ``g`` (constant term first).

    With ``g(t) = sum_j d_j (t - rho)**j`` (``g`` shifted to ``rho``), each
    term integrates to ``x**(j+1) (ln|x| - 1/(j+1)) / (j+1)`` at ``x = t - rho``,
    which is 0 at ``x = 0``.
    """
    d = npoly.Polynomial(coeffs)(npoly.Polynomial([rho, 1.0])).coef
    x = np.array([a - rho, b - rho])
    n = np.arange(1, d.size + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        prim = np.where(x == 0.0, 0.0, x**n * (np.log(np.abs(x)) - 1.0 / n) / n)
    return float(d.dot(prim[:, 1] - prim[:, 0]))


@lru_cache(maxsize=1)
def _maxima_integral(
    canon: DeltaSubharmonicFn,
    transform: str,
    e: IntervalSet,
    pieces: tuple,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Integral over E of the circle maxima of ``transform(canon)`` times the weight pieces.

    On each interval of ``E`` within a weight piece that holds the modulus
    ``rho`` of an atom whose spike the transform sends upward (a modulus
    of :func:`upward_spikes`, where the maxima are +inf), the maxima grow
    like ``-m ln|t - rho|`` at ``rho``, with ``m`` the heaviest such mass
    there.  The kinks found by :func:`max_crossings` and the moduli
    become plain panel edges (``breaks``).  Between the two edges next to
    ``rho`` the spike wins, so there the integrand gets ``m ln|t - rho| g(t)``,
    which leaves it smooth, and the same term comes back in closed form
    (:func:`_log_moment`).  An interval without such a modulus is one plain
    integral.  The error estimate adds the rounding floor of the
    subtraction.  The memo is keyed on the arguments, which leave out the
    exponent p, so a p sweep over one instance reuses one integral.
    """
    heaviest = upward_spikes(canon, transform)
    breaks: list[float] = []
    spikes: list[tuple[float, float, float, float, tuple]] = []
    for (a, b), coeffs in pieces:
        for lo, hi in e.intersect(a, b).intervals:
            rhos = sorted(rho for rho in heaviest if lo <= rho <= hi)
            if not rhos:
                continue
            kinks = max_crossings(canon, lo, hi, transform)
            edges = sorted({lo, hi, *kinks, *rhos})
            for rho in rhos:
                i = edges.index(rho)
                spikes.append((rho, heaviest[rho][0], edges[max(i - 1, 0)], edges[min(i + 1, len(edges) - 1)], coeffs))
            breaks += kinks + rhos

    def h(ts: np.ndarray) -> np.ndarray:
        out = max_on_circles(canon, ts, transform=transform)
        for rho, m, seg_lo, seg_hi, _ in spikes:
            on = (seg_lo < ts) & (ts < seg_hi)
            out[on] += m * np.log(np.abs(ts[on] - rho))
        return out

    val, err = integrate_weighted(h, Weight(pieces, math.inf), e, quad=spec, breaks=breaks)
    back = [m * _log_moment(coeffs, rho, seg_lo, seg_hi) for rho, m, seg_lo, seg_hi, coeffs in spikes]
    # The add-back cancels against the integral, and the subtracted panels
    # can be exact to far below rounding, so QUADPACK's rounding floor of
    # 50 eps per sum joins the error.
    rounding = _ROUNDING * (abs(val) + sum(map(abs, back))) if back else 0.0
    return val - sum(back), err + rounding


def lemma1_check(
    u: DeltaSubharmonicFn,
    e: IntervalSet,
    g: Weight,
    r: float,
    R: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Weighted maxima integral against the Poisson and kernel-norm bound."""
    _require(0 <= r < R and math.isfinite(R), "need 0 <= r < R, finite")
    _require_subset(e, 0.0, r, "0, r")
    canon = canonicalize(u)
    m = e.measure
    q = g.q
    params = {"r": r, "R": R, "p": g.p, "q": q, "mes_E": m}
    if m == 0.0:
        return _report("lemma1", 0.0, 0.0, params, 0.0, degenerate=True)

    lhs, lhs_err = _maxima_integral(canon, "plus", e, g.pieces, quad or LHS_QUAD)
    c_plus = circle_mean_nonlinear(canon, "plus", R, quad or MEAN_QUAD)
    mass = radial_count(canon.minus.charge, R)
    sup_norm, sup_err = _sup_log_kernel_norm(e, R, q)
    g_norm = lp_norm(g, e, quad)
    rhs = ((R + r) / (R - r) * c_plus.value * m ** (1.0 / q) + mass * sup_norm) * g_norm
    err = lhs_err + (c_plus.error_estimate * m ** (1.0 / q) * (R + r) / (R - r) + mass * sup_err) * g_norm
    return _report("lemma1", lhs, rhs, params, err)


def main_lemma_check(
    u: DeltaSubharmonicFn,
    e: IntervalSet,
    g: Weight,
    r: float,
    b: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Weighted maxima integral against the single-radius characteristic bound."""
    _require(r > 0 and math.isfinite(r), "need r > 0")
    _require(b > 0 and math.isfinite(b), "need b > 0")
    _require_subset(e, 0.0, r, "0, r")
    canon = canonicalize(u)
    m = e.measure
    q = g.q
    params = {"r": r, "b": b, "p": g.p, "q": q, "mes_E": m}
    if m == 0.0:
        return _report("main_lemma", 0.0, 0.0, params, 0.0, degenerate=True)

    lhs, lhs_err = _maxima_integral(canon, "plus", e, g.pieces, quad or LHS_QUAD)
    r1 = (1.0 + b) * r
    r2 = (1.0 + b) ** 2 * r
    c_plus = circle_mean_nonlinear(canon, "plus", r1, quad or MEAN_QUAD)
    n_ann = counting_integral(canon.minus.charge, r1, r2)
    g_norm = lp_norm(g, e, quad)
    factor = q * (2.0 + b) / b * g_norm * m ** (1.0 / q) * math.log(4.0 * r1 / m)
    rhs = factor * (c_plus.value + n_ann)
    err = lhs_err + factor * c_plus.error_estimate
    return _report("main_lemma", lhs, rhs, params, err)


def main_theorem_T(
    u: DeltaSubharmonicFn,
    e: IntervalSet,
    g: Weight,
    r: float,
    r0: float,
    k: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Normalized maxima integral against the two-radius characteristic bound."""
    _require(0 < r0 < r and math.isfinite(r), "need 0 < r0 < r")
    _require(k > 1 and math.isfinite(k), "need k > 1")
    _require_subset(e, 0.0, r, "0, r")
    canon = canonicalize(u)
    if canon.plus.charge.is_empty and canon.minus.charge.is_empty:
        raise ValueError("difference carries no atoms; instance is trivial")
    m = e.measure
    q = g.q
    params = {"r0": r0, "r": r, "k": k, "p": g.p, "q": q, "mes_E": m}
    if m == 0.0:
        return _report("main_theorem_T", 0.0, 0.0, params, 0.0, degenerate=True)

    raw_lhs, raw_err = _maxima_integral(canon, "plus", e, g.pieces, quad or LHS_QUAD)
    lhs = raw_lhs / r
    t_char = characteristic_T(canon, r0, k * r, quad or MEAN_QUAD)
    c0 = circle_mean_nonlinear(canon, "plus", r0, quad or MEAN_QUAD)
    g_norm = lp_norm(g, e, quad)
    factor = 4.0 * q * k / (k - 1.0) * g_norm * (m ** (1.0 / q) / r) * math.log(4.0 * k * r / m)
    rhs = factor * (t_char.value + c0.value)
    err = raw_err / r + factor * (t_char.error_estimate + c0.error_estimate)
    return _report("main_theorem_T", lhs, rhs, params, err)


def main_theorem_M(
    u: SubharmonicPotential,
    e: IntervalSet,
    g: Weight,
    r: float,
    r0: float,
    k: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Normalized modulus-maxima integral against the single-component bound."""
    _require(0 < r0 < r and math.isfinite(r), "need 0 < r0 < r")
    _require(k > 1 and math.isfinite(k), "need k > 1")
    _require_subset(e, 0.0, r, "0, r")
    m = e.measure
    q = g.q
    params = {"r0": r0, "r": r, "k": k, "p": g.p, "q": q, "mes_E": m}
    if m == 0.0:
        return _report("main_theorem_M", 0.0, 0.0, params, 0.0, degenerate=True)

    canon = canonicalize(as_delta(u))
    raw_lhs, raw_err = _maxima_integral(canon, "abs", e, g.pieces, quad or LHS_QUAD)
    lhs = raw_lhs / r
    m_plus = max_on_circle(canon, k * r, transform="plus")
    c_minus = circle_mean_nonlinear(canon, "minus", r0, quad or MEAN_QUAD)
    g_norm = lp_norm(g, e, quad)
    factor = 5.0 * q * k / (k - 1.0) * g_norm * (m ** (1.0 / q) / r) * math.log(4.0 * k * r / m)
    rhs = factor * (m_plus.value + c_minus.value)
    err = raw_err / r + factor * c_minus.error_estimate
    return _report("main_theorem_M", lhs, rhs, params, err)


# --- characteristic-comparison probes (no absolute constant exists) -------

def nevanlinna_ratio(
    f: RationalFunctionSpec,
    r: float,
    k: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Averaged max-modulus growth over [0, r] against T at radius kr."""
    _require(r > 0 and math.isfinite(r), "need r > 0")
    _require(k > 1 and math.isfinite(k), "need k > 1")
    unit = IntervalSet(((0.0, r),))
    raw_lhs, raw_err = _maxima_integral(canonicalize(ln_abs(f)), "plus", unit, (((0.0, r), (1.0,)),), quad or LHS_QUAD)
    lhs = raw_lhs / r
    t_at_kr = nevanlinna(f, k * r, quad or MEAN_QUAD).T
    # T(kr) is a nonnegative quantity; quadrature noise on an exact zero may
    # come back as a tiny signed residue, which would flip the ratio's sign.
    rhs = t_at_kr.value
    if abs(rhs) <= t_at_kr.error_estimate + 1e-12 * (1.0 + abs(lhs)):
        rhs = 0.0
    params = {"r": r, "k": k}
    err = raw_err / r + t_at_kr.error_estimate
    return _report("nevanlinna_ratio", lhs, rhs, params, err, degenerate=lhs == 0.0 and rhs == 0.0)


def _lambert_w0(c: float) -> float:
    """The principal Lambert W, the root ``w`` of ``w e^w = c``, for finite ``c > 0``.

    Newton's method on ``w + ln(w/c) = 0`` from ``w = ln(1 + c)``, which
    lies above the root; the iterates then rise to it from below
    (R. M. Corless et al., "On the Lambert W function", *Adv. Comput.
    Math.* 5, 1996).  ``ln(w/c)`` keeps its relative accuracy at both ends
    of the range.
    """
    w = math.log1p(c)
    for _ in range(_W_ITERS):
        step = (w + math.log(w / c)) * w / (1.0 + w)
        w -= step
        if abs(step) <= _EPS * w:
            break
    return w


def _minimal_small_set_constant(lhs: float, structure: float, b: float) -> float:
    """Smallest a >= 1 with (a/b) ln(a/b) * structure >= lhs (inf if none).

    Past a = 1 the left side increases (a/b >= 1 there, as b <= 1), so the
    answer is the root of y ln y = c with y = a/b and c = lhs/structure:
    ln y = W0(c), hence a = b * c / W0(c) with W0 the principal Lambert W.
    """
    if structure == math.inf and math.isfinite(lhs):
        # At b = 1 the product below would be 0 * inf; any a holds here.
        return 1.0
    slack = 1e-12 * (1.0 + abs(lhs))
    if (1.0 / b) * math.log(1.0 / b) * structure >= lhs - slack:
        return 1.0
    if structure <= 0.0:
        return math.inf
    c = lhs / structure
    return b * c / _lambert_w0(c) if math.isfinite(c) else math.inf


def small_intervals_ratio(
    u: SubharmonicPotential,
    e: IntervalSet,
    g: Weight,
    r0: float,
    r: float,
    R: float,
    b: float,
    quad: Optional[QuadratureSpec] = None,
) -> BoundReport:
    """Empirical minimal constant in the bounded-weight small-interval bound."""
    _require(0 <= r0 <= r < R and math.isfinite(R), "need 0 <= r0 <= r < R")
    _require(0 < b <= 1, "need b in (0, 1]")
    _require(math.isinf(g.p), "bounded-weight probe needs p = inf")
    _require_subset(e, r, R, "r, R")
    m = e.measure
    params = {"r0": r0, "r": r, "R": R, "b": b, "mes_E": m}

    canon = canonicalize(as_delta(u))
    lhs, lhs_err = _maxima_integral(canon, "abs", e, g.pieces, quad or LHS_QUAD) if m > 0 else (0.0, 0.0)
    m_at = max_on_circle(canon, (1.0 + b) * R)
    if r0 > 0:
        c_minus = circle_mean_nonlinear(canon, "minus", r0, quad or MEAN_QUAD)
    else:
        c_minus = max_on_circle(canon, 0.0, "minus")
    g_sup = lp_norm(g, e, quad)
    mn = min(m, 3.0 * b * R)
    m_inf = m + (mn * math.log(3.0 * math.e * b * R / mn) if mn > 0 else 0.0)
    structure = (m_at.value + 2.0 * c_minus.value) * g_sup * m_inf
    a_min = _minimal_small_set_constant(lhs, structure, b)
    params["a_min"] = a_min
    params["m_inf"] = m_inf
    degenerate = m == 0.0 or (structure <= 0.0 and lhs > 0.0)
    return _report(
        "small_intervals_ratio",
        lhs,
        structure,
        params,
        lhs_err + 2.0 * c_minus.error_estimate * g_sup * m_inf,
        degenerate=degenerate,
    )


# --- quadrature-vs-closed-form identity -----------------------------------

def pjp_identity_check(
    v: SubharmonicPotential, r: float, R: float, quad: Optional[QuadratureSpec] = None
) -> BoundReport:
    """Circle-mean difference by quadrature against the counting integral (tolerance 1e-8 + 1e-8 |N|)."""
    _require(0 < r <= R and math.isfinite(R), "need 0 < r <= R, finite")
    hi = circle_mean_nonlinear(v, "id", R, quad or NORM_QUAD)
    lo = circle_mean_nonlinear(v, "id", r, quad or NORM_QUAD)
    n_val = counting_integral(v.charge, r, R)
    lhs = abs(hi.value - lo.value - n_val)
    rhs = 1e-8 + 1e-8 * abs(n_val)
    params = {"r": r, "R": R, "n_value": n_val}
    return _report("pjp_identity", lhs, rhs, params, hi.error_estimate + lo.error_estimate)
