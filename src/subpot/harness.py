"""Randomized verification suite.

Draws admissible instances for every checker from per-(checker, index)
keyed generators, evaluates each inequality over a combo grid of
exponents and radius multipliers, and renders the outcome as a
deterministic CSV.  Reruns with the same configuration are byte
identical, including under worker parallelism.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .characteristics import circle_mean, nevanlinna
from .inequalities import (
    BoundReport,
    lemma1_check,
    lemma2_check,
    lemma3_check,
    lemma4_check,
    lemma_a_check,
    main_lemma_check,
    main_theorem_M,
    main_theorem_T,
    nevanlinna_ratio,
    pjp_identity_check,
    small_intervals_ratio,
)
from .model import (
    AtomicMeasure,
    DeltaSubharmonicFn,
    RationalFunctionSpec,
    SubharmonicPotential,
    atoms_from_doc,
    atoms_to_doc,
    delta_from_doc,
    delta_to_doc,
    potential_from_doc,
    potential_to_doc,
    rational_from_doc,
    rational_to_doc,
)
from .quadrature import QuadratureError, QuadratureSpec
from .sets import IntervalSet, Weight, random_interval_set

CSV_COLUMNS = ("name", "seed", "lhs", "rhs", "ratio", "holds", "err", "params")

# Keep random atoms at least this relative distance from every radius a
# checker integrates over or means on.
_RADIUS_CLEARANCE = 1e-3
_MAX_DRAWS = 1000
# How many atoms a drawn measure holds; a delta-subharmonic function's minus
# charge holds at most half as many.
_ATOMS = (1, 8)


class GenerationError(RuntimeError):
    """Raised when no admissible instance is found within the draw budget."""


# Each SuiteConfig field with the parser of its JSON value.  A ``p`` of
# "inf" or null is infinite; null keeps the default only for quad_rel_tol.
_CONFIG_PARSERS: dict[str, Callable] = {
    "seed": int,
    "instances": int,
    "checkers": tuple,
    "k_values": lambda ks: tuple(map(float, ks)),
    "p_values": lambda ps: tuple(math.inf if p is None else float(p) for p in ps),
    "b_values": lambda bs: tuple(map(float, bs)),
    "quad_rel_tol": lambda tol: None if tol is None else float(tol),
    "jobs": int,
}


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 20250822
    instances: int = 25
    # ALL_CHECKERS derives from the CHECKERS table further down.
    checkers: tuple[str, ...] = field(default_factory=lambda: ALL_CHECKERS)
    k_values: tuple[float, ...] = (1.5, 2.0, 4.0)
    p_values: tuple[float, ...] = (2.0, 4.0, math.inf)
    b_values: tuple[float, ...] = (0.5, 1.0)
    quad_rel_tol: Optional[float] = None
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in self.checkers:
            if name not in CHECKERS:
                raise ValueError(f"unknown checker {name!r}")
        if self.instances < 0:
            raise ValueError("instances must be nonnegative")
        if any(not k > 1 for k in self.k_values):
            raise ValueError("k values must exceed 1")
        if any(not p > 1 for p in self.p_values):
            raise ValueError("p values must exceed 1")
        if any(not b > 0 for b in self.b_values):
            raise ValueError("b values must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @classmethod
    def from_doc(cls, doc: dict) -> "SuiteConfig":
        """The configuration a JSON document sets; a key that is no field raises."""
        unknown = sorted(set(doc) - _CONFIG_PARSERS.keys())
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**{key: _CONFIG_PARSERS[key](value) for key, value in doc.items()})

    def quad_override(self) -> Optional[QuadratureSpec]:
        return None if self.quad_rel_tol is None else QuadratureSpec(rel_tol=self.quad_rel_tol)


@dataclass(frozen=True)
class GeneratedInstance:
    base_doc: dict
    combos: tuple[dict, ...]


@lru_cache(maxsize=1)
def _philox_key() -> type:
    """A seed sequence type that hands ``Philox`` its key, built on first use (importing
    ``numpy.random`` adds 10-17 ms to start-up).  ``Philox(key=key)`` gives the same
    stream, but seeds a sequence it never reads from OS entropy at twice the cost."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key

    return PhiloxKey


def rng_for(seed: int, checker: str, index: int) -> tuple[np.random.Generator, int]:
    """Philox generator plus row seed, keyed by hashing (seed, checker, index)."""
    digest = hashlib.blake2b(f"{seed}:{checker}:{index}".encode(), digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    subseed = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(_philox_key()(key))), subseed


# --- canonical row rendering ----------------------------------------------

def _sanitize(obj):
    """``obj`` as plain JSON data: builtin scalars and lists, and ``"inf"``,
    ``"-inf"`` or ``"nan"`` for a non-finite float; plain values go first."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sanitize(float(obj))
    return obj


# What json.dumps(..., sort_keys=True, separators=(",", ":"), allow_nan=False)
# builds on every call; a non-finite float raises instead of writing bad JSON.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _dumps(clean: object) -> str:
    """The canonical JSON of a document that is plain JSON data already."""
    return _ENCODER.encode(clean)


def canonical_json(doc: object) -> str:
    return _dumps(_sanitize(doc))


def _digest(text: str) -> str:
    """The fingerprint of a document from its canonical JSON."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(doc: dict) -> str:
    return _digest(canonical_json(doc))


def _row_from_report(rep: BoundReport, subseed: int, fingerprint: str) -> dict:
    params = _sanitize(rep.params)
    params["fingerprint"] = fingerprint
    params["degenerate"] = bool(rep.degenerate)
    return {
        "name": rep.name,
        "seed": subseed,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "ratio": rep.ratio,
        "holds": rep.holds(),
        "err": rep.error_estimate,
        "degenerate": rep.degenerate,
        "a_min": rep.params.get("a_min"),
        "params_json": _dumps(params),
    }


def rows_to_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["name"],
                str(row["seed"]),
                repr(float(row["lhs"])),
                repr(float(row["rhs"])),
                repr(float(row["ratio"])),
                str(bool(row["holds"])),
                repr(float(row["err"])),
                row["params_json"],
            ]
        )
    return buf.getvalue()


# --- instance generators ---------------------------------------------------

def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _draw_measure(
    rng: np.random.Generator,
    count_range: tuple[int, int],
    rmax: float,
    origin_prob: float = 0.0,
    integer_masses: bool = False,
) -> AtomicMeasure:
    lo, hi = count_range
    n = int(rng.integers(lo, hi + 1))
    pairs = []
    for _ in range(n):
        if origin_prob > 0.0 and rng.random() < origin_prob:
            center = 0j
        else:
            # Mix area-uniform spread with a log-radial tail so both
            # clustered and straggling atoms appear.
            if rng.random() < 0.5:
                rho = rmax * math.sqrt(rng.uniform(4e-4, 1.0))
            else:
                rho = rmax * _loguniform(rng, 1e-2, 1.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            center = rho * complex(math.cos(theta), math.sin(theta))
        mass = float(rng.integers(1, 4)) if integer_masses else float(rng.uniform(0.1, 3.0))
        pairs.append((center, mass))
    return AtomicMeasure.from_pairs(pairs)


def _clear_of(measures: Sequence[AtomicMeasure], radii: Sequence[float]) -> bool:
    t = np.asarray(radii, float)
    return not any(np.any(np.abs(mu.moduli[:, None] - t) <= _RADIUS_CLEARANCE * t) for mu in measures)


def _draw_weight_pieces(
    rng: np.random.Generator, lo: float, hi: float
) -> list[dict]:
    """1-3 strictly positive square-polynomial pieces partitioning [lo, hi]."""
    n = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(lo, hi, n - 1)) if n > 1 else np.array([])
    edges = [lo, *(float(c) for c in cuts), hi]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 1e-9 * (hi - lo):
            continue
        c0 = float(rng.uniform(-2.0, 2.0))
        c1 = float(rng.uniform(-2.0, 2.0)) / max(abs(hi), 1.0)
        base = float(rng.uniform(0.05, 1.0))
        coeffs = [c0 * c0 + base, 2.0 * c0 * c1, c1 * c1]
        pieces.append({"interval": [float(a), float(b)], "coeffs": coeffs})
    if not pieces:
        pieces = [{"interval": [float(lo), float(hi)], "coeffs": [float(rng.uniform(0.5, 2.0))]}]
    return pieces


def _draw_set_doc(
    rng: np.random.Generator, lo: float, hi: float, max_pieces: int = 5
) -> list[list[float]]:
    width = hi - lo
    measure = width * _loguniform(rng, 3e-3, 0.5)
    e = random_interval_set(rng, width, measure, max_pieces)
    if lo != 0.0:
        e = e.shifted(lo)
    return e.to_doc()


def _draw_delta(rng: np.random.Generator, rmax: float) -> DeltaSubharmonicFn:
    plus = _draw_measure(rng, _ATOMS, rmax, origin_prob=0.1)
    minus = _draw_measure(rng, (0, _ATOMS[1] // 2), rmax, origin_prob=0.1)
    return DeltaSubharmonicFn(
        plus=SubharmonicPotential(plus, float(rng.uniform(-1.0, 1.0))),
        minus=SubharmonicPotential(minus, float(rng.uniform(-1.0, 1.0))),
    )


def _gen_lemma2(rng: np.random.Generator, cfg: SuiteConfig) -> dict:
    R = _loguniform(rng, 0.5, 5.0)
    r = R * float(rng.uniform(0.05, 0.95))
    mu = _draw_measure(rng, _ATOMS, 1.2 * R, origin_prob=0.15)
    return {"measure": atoms_to_doc(mu), "r": r, "R": R}


def _gen_lemma3(rng: np.random.Generator, cfg: SuiteConfig) -> dict:
    # Exponents are kept >= 1: for fractional q below 1 the stated constant
    # genuinely undercuts the integral near a = A/e (q^q < 1 there), and the
    # bound is only ever consumed with conjugate exponents q = p/(p-1) >= 1.
    q = float(rng.uniform(1.0, 4.0))
    A = _loguniform(rng, 0.2, 50.0)
    a = A / math.e * float(rng.uniform(1e-3, 1.0))
    return {"q": q, "A": A, "a": a}


def _gen_lemma4(rng: np.random.Generator, cfg: SuiteConfig) -> dict:
    R = _loguniform(rng, 0.3, 5.0)
    r = R * float(rng.uniform(0.3, 1.0))
    q = float(rng.uniform(1.0, 4.0))
    x = float(rng.uniform(0.0, R))
    e_doc = _draw_set_doc(rng, 0.0, r, max_pieces=6)
    return {"e": e_doc, "x": x, "r": r, "R": R, "q": q}


def _gen_lemma_a(rng: np.random.Generator, cfg: SuiteConfig) -> dict:
    a = _loguniform(rng, 0.3, 10.0)
    width = 2.0 * a
    measure = width * _loguniform(rng, 1e-3, 0.45)
    e = random_interval_set(rng, width, measure, 5).shifted(-a)
    if rng.random() < 0.5:
        profile = {"family": "log", "kappa": float(rng.uniform(0.5, 2.5)), "beta": float(rng.uniform(math.e, 10.0))}
    else:
        profile = {"family": "power", "kappa": float(rng.uniform(0.1, 0.85)), "beta": 1.0}
    return {"a": a, "e": e.to_doc(), "profile": profile}


def _gen_lemma1(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    R = _loguniform(rng, 0.5, 5.0)
    r = R * float(rng.uniform(0.2, 0.8))
    u = _draw_delta(rng, 1.3 * R)
    if not _clear_of([u.plus.charge, u.minus.charge], [r, R]):
        return None
    return {
        "u": delta_to_doc(u),
        "e": _draw_set_doc(rng, 0.0, r),
        "r": r,
        "R": R,
        "g_pieces": _draw_weight_pieces(rng, 0.0, r),
    }


def _gen_main_lemma(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    r = _loguniform(rng, 0.3, 4.0)
    probes = [(1.0 + b) * r for b in cfg.b_values]
    probes += [(1.0 + b) ** 2 * r for b in cfg.b_values]
    rmax = 1.1 * max(probes)
    u = _draw_delta(rng, rmax)
    if not _clear_of([u.plus.charge, u.minus.charge], probes + [r]):
        return None
    return {
        "u": delta_to_doc(u),
        "e": _draw_set_doc(rng, 0.0, r),
        "r": r,
        "g_pieces": _draw_weight_pieces(rng, 0.0, r),
    }


def _theorem_radii(rng: np.random.Generator, cfg: SuiteConfig) -> tuple[float, float, list[float]]:
    r = _loguniform(rng, 0.3, 4.0)
    r0 = r * float(rng.uniform(0.05, 0.5))
    # Clearance covers the geometric-mean circles too, so tightening a
    # checker to probe them later cannot invalidate stored instances.
    probes = [r0, r] + [k * r for k in cfg.k_values] + [math.sqrt(k) * r for k in cfg.k_values]
    return r, r0, probes


def _gen_main_theorem_T(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    r, r0, probes = _theorem_radii(rng, cfg)
    u = _draw_delta(rng, 1.1 * max(probes))
    if not _clear_of([u.plus.charge, u.minus.charge], probes):
        return None
    return {
        "u": delta_to_doc(u),
        "e": _draw_set_doc(rng, 0.0, r, max_pieces=10),
        "r": r,
        "r0": r0,
        "g_pieces": _draw_weight_pieces(rng, 0.0, r),
    }


def _gen_main_theorem_M(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    r, r0, probes = _theorem_radii(rng, cfg)
    charge = _draw_measure(rng, _ATOMS, 1.1 * max(probes), origin_prob=0.1)
    if not _clear_of([charge], probes):
        return None
    v = SubharmonicPotential(charge, float(rng.uniform(-0.5, 1.5)))
    return {
        "v": potential_to_doc(v),
        "e": _draw_set_doc(rng, 0.0, r, max_pieces=10),
        "r": r,
        "r0": r0,
        "g_pieces": _draw_weight_pieces(rng, 0.0, r),
    }


def _gen_nevanlinna_ratio(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    # r >= 1 and one pole well inside keep T(kr) positive, so the
    # reported ratios aggregate to a finite empirical constant.
    r = _loguniform(rng, 1.0, 5.0)
    rmax = 1.2 * max(cfg.k_values) * r
    zeros = _draw_measure(rng, (0, 3), rmax, integer_masses=True)
    poles = _draw_measure(rng, (0, 3), rmax, origin_prob=0.1, integer_masses=True)
    inner_modulus = _loguniform(rng, 1e-2, 0.5) * r
    theta = rng.uniform(0.0, 2.0 * math.pi)
    inner = inner_modulus * complex(math.cos(theta), math.sin(theta))
    poles = AtomicMeasure.from_pairs(list(poles.atoms) + [(inner, float(rng.integers(1, 4)))])
    centers = set(zeros.centers.tolist()) & set(poles.centers.tolist())
    if centers:
        return None
    probes = [r] + [k * r for k in cfg.k_values]
    if not _clear_of([zeros, poles], probes):
        return None
    f = RationalFunctionSpec(zeros=zeros, poles=poles, scale=_loguniform(rng, 0.2, 5.0))
    return {"f": rational_to_doc(f), "r": r}


def _bounded_b_values(cfg: SuiteConfig) -> tuple[float, ...]:
    bs = tuple(b for b in cfg.b_values if 0.0 < b <= 1.0)
    return bs if bs else (0.5,)


def _gen_small_intervals(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    bs = _bounded_b_values(cfg)
    R = _loguniform(rng, 0.5, 5.0)
    r = R * float(rng.uniform(0.3, 0.85))
    r0 = r * float(rng.uniform(0.1, 0.8))
    probes = [r0, r, R] + [(1.0 + b) * R for b in bs]
    charge = _draw_measure(rng, _ATOMS, 1.05 * max(probes))
    if not _clear_of([charge], probes):
        return None
    # Pin the circle mean at the innermost outer radius to a positive
    # target so a finite constant always exists.
    target = float(rng.uniform(0.1, 1.5))
    bmin = min(bs)
    baseline = circle_mean(SubharmonicPotential(charge), (1.0 + bmin) * R).value
    v = SubharmonicPotential(charge, target - baseline)
    return {
        "v": potential_to_doc(v),
        "e": _draw_set_doc(rng, r, R),
        "r0": r0,
        "r": r,
        "R": R,
        "g_pieces": _draw_weight_pieces(rng, r, R),
    }


def _gen_pjp_identity(rng: np.random.Generator, cfg: SuiteConfig) -> Optional[dict]:
    R = _loguniform(rng, 0.3, 5.0)
    r = R * float(rng.uniform(0.05, 0.8))
    charge = _draw_measure(rng, _ATOMS, 1.2 * R, origin_prob=0.1)
    if not _clear_of([charge], [r, R]):
        return None
    v = SubharmonicPotential(charge, float(rng.uniform(-1.0, 1.0)))
    return {"v": potential_to_doc(v), "r": r, "R": R}


# --- doc-driven checker dispatch -------------------------------------------

def _profile_fn(doc: dict, a: float) -> Callable[[np.ndarray], np.ndarray]:
    family = doc["family"]
    kappa = float(doc["kappa"])
    if family == "log":
        beta = float(doc["beta"])

        def log_profile(t: np.ndarray) -> np.ndarray:
            return np.log(beta * a / np.asarray(t, float)) ** kappa

        return log_profile
    if family == "power":
        if not kappa < 1.0:
            raise ValueError(f"power profile needs kappa < 1 to be integrable at 0, got {kappa!r}")

        def power_profile(t: np.ndarray) -> np.ndarray:
            # Next to 0 the power overflows to inf; the quadrature reports
            # that non-finite sample itself.
            with np.errstate(over="ignore"):
                return np.asarray(t, float) ** (-kappa)

        return power_profile
    raise ValueError(f"unknown profile family {family!r}")


def _doc_weight(doc: dict) -> Weight:
    return Weight.from_doc({"pieces": doc["g_pieces"], "p": doc.get("p", "inf")})


def _floats(doc: dict, *keys: str) -> tuple[float, ...]:
    return tuple(float(doc[key]) for key in keys)


_Call = Callable[[dict, Optional[QuadratureSpec]], BoundReport]


def _weighted(check: Callable[..., BoundReport], parse: Callable[[dict], object], key: str, *scalars: str) -> _Call:
    """Adapter for checkers called as ``check(fn, E, g, *scalars, quad=quad)``."""
    def call(d: dict, quad: Optional[QuadratureSpec]) -> BoundReport:
        e = IntervalSet.from_pairs(d["e"])
        return check(parse(d[key]), e, _doc_weight(d), *_floats(d, *scalars), quad=quad)

    return call


# --- the checker table --------------------------------------------------------

# A combo axis: the document key it sets and the values it sweeps.
_Axis = tuple[str, Callable[[SuiteConfig], Sequence]]

_B: _Axis = ("b", lambda cfg: cfg.b_values)
_BOUNDED_B: _Axis = ("b", _bounded_b_values)
_K: _Axis = ("k", lambda cfg: cfg.k_values)
_P: _Axis = ("p", lambda cfg: ["inf" if math.isinf(p) else p for p in cfg.p_values])


@dataclass(frozen=True)
class CheckerSpec:
    """How the suite drives one checker.

    ``generate`` draws the base instance document, or ``None`` when the
    draw is inadmissible and must be repeated; ``axes`` lists the combo
    parameters, the first axis outermost; ``call`` evaluates one full
    document under a quadrature override (``None`` keeps every default).
    Probes report empirical constants and assert no inequality of their
    own, so their rows never count as violations.
    """

    generate: Callable[[np.random.Generator, SuiteConfig], Optional[dict]]
    axes: tuple[_Axis, ...]
    call: _Call
    probe: bool = False

    def combos(self, cfg: SuiteConfig) -> tuple[dict, ...]:
        keys = [key for key, _ in self.axes]
        return tuple(dict(zip(keys, vals)) for vals in product(*(values(cfg) for _, values in self.axes)))


CHECKERS: dict[str, CheckerSpec] = {
    "lemma2": CheckerSpec(
        _gen_lemma2,
        (),
        lambda d, quad: lemma2_check(atoms_from_doc(d["measure"]), *_floats(d, "r", "R")),
    ),
    "lemma3": CheckerSpec(
        _gen_lemma3,
        (),
        lambda d, quad: lemma3_check(*_floats(d, "q", "A", "a"), quad=quad),
    ),
    "lemma4": CheckerSpec(
        _gen_lemma4,
        (),
        lambda d, quad: lemma4_check(IntervalSet.from_pairs(d["e"]), *_floats(d, "x", "r", "R", "q"), quad=quad),
    ),
    "lemma_a": CheckerSpec(
        _gen_lemma_a,
        (),
        lambda d, quad: lemma_a_check(
            _profile_fn(d["profile"], float(d["a"])),
            IntervalSet.from_pairs(d["e"]),
            float(d["a"]),
            quad=quad,
            params=dict(d["profile"]),
        ),
    ),
    "lemma1": CheckerSpec(_gen_lemma1, (_P,), _weighted(lemma1_check, delta_from_doc, "u", "r", "R")),
    "main_lemma": CheckerSpec(
        _gen_main_lemma, (_B, _P), _weighted(main_lemma_check, delta_from_doc, "u", "r", "b")
    ),
    "main_theorem_T": CheckerSpec(
        _gen_main_theorem_T, (_K, _P), _weighted(main_theorem_T, delta_from_doc, "u", "r", "r0", "k")
    ),
    "main_theorem_M": CheckerSpec(
        _gen_main_theorem_M, (_K, _P), _weighted(main_theorem_M, potential_from_doc, "v", "r", "r0", "k")
    ),
    "nevanlinna_ratio": CheckerSpec(
        _gen_nevanlinna_ratio,
        (_K,),
        lambda d, quad: nevanlinna_ratio(rational_from_doc(d["f"]), *_floats(d, "r", "k"), quad=quad),
        probe=True,
    ),
    "small_intervals_ratio": CheckerSpec(
        _gen_small_intervals,
        (_BOUNDED_B,),
        _weighted(small_intervals_ratio, potential_from_doc, "v", "r0", "r", "R", "b"),
        probe=True,
    ),
    "pjp_identity": CheckerSpec(
        _gen_pjp_identity,
        (),
        lambda d, quad: pjp_identity_check(potential_from_doc(d["v"]), *_floats(d, "r", "R"), quad=quad),
    ),
}

ALL_CHECKERS = tuple(CHECKERS)
PROBE_CHECKERS = frozenset(name for name, spec in CHECKERS.items() if spec.probe)


def _spec(name: str) -> CheckerSpec:
    try:
        return CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown checker {name!r}") from None


def combo_count(name: str, cfg: SuiteConfig) -> int:
    return len(_spec(name).combos(cfg))


def generate_instance(name: str, rng: np.random.Generator, cfg: SuiteConfig) -> GeneratedInstance:
    """Draw until the checker's generator accepts, at most ``_MAX_DRAWS`` times."""
    spec = _spec(name)
    for _ in range(_MAX_DRAWS):
        base = spec.generate(rng, cfg)
        if base is not None:
            return GeneratedInstance(base, spec.combos(cfg))
    raise GenerationError(f"no admissible instance for {name} within {_MAX_DRAWS} draws")


def run_check(name: str, doc: dict, quad: Optional[QuadratureSpec] = None) -> BoundReport:
    """Evaluate one checker on a self-contained instance document.

    The report's ``instance_fingerprint`` is a hash of the document's
    canonical JSON; checkers called directly leave it empty.
    """
    return replace(_spec(name).call(doc, quad), instance_fingerprint=_fingerprint(doc))


# --- suite runner -----------------------------------------------------------

def run_unit(name: str, index: int, cfg: SuiteConfig) -> tuple[list[dict], list[dict]]:
    """All rows for one (checker, instance index) unit."""
    rng, subseed = rng_for(cfg.seed, name, index)
    quad = cfg.quad_override()
    try:
        inst = generate_instance(name, rng, cfg)
    except GenerationError as exc:
        return [], [
            {"name": name, "index": index, "seed": subseed, "stage": "generate", "message": str(exc)}
        ]
    call = _spec(name).call
    rows: list[dict] = []
    failures: list[dict] = []
    for combo in inst.combos:
        doc = {**inst.base_doc, **combo}
        # Generators emit plain JSON data, so no _sanitize pass; a non-finite float raises.
        fingerprint = _digest(_dumps(doc))
        try:
            rep = call(doc, quad)
        except (QuadratureError, ValueError) as exc:
            # ValueError covers any instance a checker rejects; one bad
            # combo must not abort the suite.
            failures.append(
                {
                    "name": name,
                    "index": index,
                    "seed": subseed,
                    "stage": "quadrature" if isinstance(exc, QuadratureError) else "check",
                    "message": str(exc),
                }
            )
            continue
        rows.append(_row_from_report(rep, subseed, fingerprint))
    return rows, failures


@dataclass
class SuiteResult:
    config: SuiteConfig
    rows: list[dict]
    failures: list[dict]
    summaries: list[dict]
    exit_code: int

    @property
    def csv_text(self) -> str:
        return rows_to_csv(self.rows)


def _summarize(cfg: SuiteConfig, rows: list[dict], failures: list[dict]) -> list[dict]:
    summaries = []
    for name in cfg.checkers:
        checker_rows = [r for r in rows if r["name"] == name]
        live = [r for r in checker_rows if not r["degenerate"]]
        ratios = [r["ratio"] for r in live if math.isfinite(r["ratio"])]
        summary = {
            "name": name,
            "rows": len(checker_rows),
            "degenerate": sum(1 for r in checker_rows if r["degenerate"]),
            "violations": 0
            if name in PROBE_CHECKERS
            else sum(1 for r in live if not r["holds"]),
            "failures": sum(1 for f in failures if f["name"] == name),
            "max_ratio": max(ratios) if ratios else None,
        }
        if any(r["a_min"] is not None for r in checker_rows):
            a_vals = [r["a_min"] for r in live if r["a_min"] is not None and math.isfinite(r["a_min"])]
            summary["max_a"] = max(a_vals) if a_vals else None
        summaries.append(summary)
    return summaries


def run_suite(cfg: SuiteConfig) -> SuiteResult:
    units = list(product(cfg.checkers, range(cfg.instances)))
    if cfg.jobs > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Executor.map yields in submission order, so rows keep unit order.
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run_unit, *zip(*units), repeat(cfg), chunksize=4))
    else:
        results = [run_unit(name, index, cfg) for name, index in units]

    rows: list[dict] = []
    failures: list[dict] = []
    for unit_rows, unit_failures in results:
        rows.extend(unit_rows)
        failures.extend(unit_failures)

    summaries = _summarize(cfg, rows, failures)
    violations = sum(s["violations"] for s in summaries)
    expected = sum(combo_count(name, cfg) * cfg.instances for name in cfg.checkers)
    failure_weight = 0
    for f in failures:
        failure_weight += combo_count(f["name"], cfg) if f["stage"] == "generate" else 1
    if violations > 0:
        exit_code = 1
    elif expected > 0 and failure_weight / expected > 0.01:
        exit_code = 2
    else:
        exit_code = 0
    return SuiteResult(config=cfg, rows=rows, failures=failures, summaries=summaries, exit_code=exit_code)


# --- divergence demonstration ----------------------------------------------

def counterexample() -> dict:
    """Averaged max-modulus growth is not bounded by the characteristic.

    For the reciprocal-of-z function the averaged quantity has an exact
    closed form: 1 + ln(1/r) for r <= 1 and 1/r beyond.  The
    characteristic at radius kr is ln+(kr), which vanishes for kr <= 1,
    so at r = 1/(2k) the comparison ratio is infinite.
    """
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.empty(),
        poles=AtomicMeasure.from_pairs([(0j, 1.0)]),
        scale=1.0,
    )
    checks: list[dict] = []

    def add(label: str, actual: float, expected: float, tol: float) -> None:
        ok = (
            math.isinf(expected) and math.isinf(actual) and actual > 0
            if math.isinf(expected)
            else abs(actual - expected) <= tol
        )
        checks.append({"label": label, "actual": actual, "expected": expected, "tol": tol, "ok": bool(ok)})

    for r in (0.1, 0.5, 1.0, 2.0, 10.0):
        nev = nevanlinna(f, r)
        add(f"M({r})", nev.M.value, 1.0 / r, 1e-9)
        add(f"m({r})", nev.m.value, max(math.log(1.0 / r), 0.0), 1e-9)
        add(f"N({r})", nev.N.value, math.log(r), 1e-12)
        add(f"T({r})", nev.T.value, max(math.log(r), 0.0), 1e-9)

    for r in (0.1, 0.5, 1.0, 2.0, 10.0):
        expected = 1.0 + math.log(1.0 / r) if r <= 1.0 else 1.0 / r
        rep = nevanlinna_ratio(f, r, k=2.0)
        add(f"avg({r})", rep.lhs, expected, 1e-6)

    ratios: dict[str, float] = {}
    for k in (2.0, 4.0):
        r = 1.0 / (2.0 * k)
        rep = nevanlinna_ratio(f, r, k=k)
        # The characteristic at kr = 1/2 is exactly zero; quadrature gets
        # within noise of it, the ratio itself uses the closed form.
        add(f"T_at_kr(k={k})", rep.rhs, 0.0, 1e-9)
        closed_rhs = max(math.log(k * r), 0.0)
        ratio = math.inf if closed_rhs == 0.0 and rep.lhs > 0.0 else rep.lhs / closed_rhs
        add(f"ratio(k={k})", ratio, math.inf, 0.0)
        ratios[f"k={k}"] = ratio

    return {"checks": checks, "ratios": ratios, "ok": all(c["ok"] for c in checks)}
