"""Finite atomic charges and the log-potentials they generate.

A charge is a finite set of weighted point masses in the plane; the
associated potential is ``const + sum_j m_j * ln|z - a_j|``.  Differences
of two such potentials are the working model throughout the package, with
rational functions entering through ``ln|f|``.

This module only holds and serializes the charges.  Values of a potential
come from :mod:`subpot.characteristics`: on circles from its sampling
kernel, and as circle means (``u(0)`` among them, the mean at ``r = 0``)
from their closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np


def _merge_atoms(pairs: Iterable[tuple[complex, float]]) -> tuple[tuple[complex, float], ...]:
    merged: dict[complex, float] = {}
    for center, mass in pairs:
        center = complex(center)
        mass = float(mass)
        if not (math.isfinite(center.real) and math.isfinite(center.imag)):
            raise ValueError("atom centers must be finite")
        if not math.isfinite(mass) or mass <= 0.0:
            raise ValueError("atom masses must be finite and positive")
        merged[center] = merged.get(center, 0.0) + mass
    ordered = sorted(merged.items(), key=lambda cm: (cm[0].real, cm[0].imag))
    return tuple(ordered)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive atomic charge; duplicate centers merge on build."""

    atoms: tuple[tuple[complex, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _merge_atoms(self.atoms))

    @classmethod
    def empty(cls) -> "AtomicMeasure":
        return cls(())

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[complex, float]]) -> "AtomicMeasure":
        return cls(tuple(pairs))

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    @cached_property
    def centers(self) -> np.ndarray:
        return np.array([c for c, _ in self.atoms], dtype=complex)

    @cached_property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms], dtype=float)

    @cached_property
    def moduli(self) -> np.ndarray:
        return np.abs(self.centers) if self.atoms else np.zeros(0)


@dataclass(frozen=True)
class SubharmonicPotential:
    """``const + sum m_j ln|z - a_j|``; equals -inf exactly at the atoms."""

    charge: AtomicMeasure = AtomicMeasure()
    const: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.const):
            raise ValueError("potential constant must be finite")


@dataclass(frozen=True)
class DeltaSubharmonicFn:
    """Difference of two potentials, plus - minus."""

    plus: SubharmonicPotential
    minus: SubharmonicPotential

    @classmethod
    def from_potential(cls, v: SubharmonicPotential) -> "DeltaSubharmonicFn":
        return cls(plus=v, minus=SubharmonicPotential())


def canonicalize(u: DeltaSubharmonicFn) -> DeltaSubharmonicFn:
    """Cancel common-center mass so the two charges have disjoint supports.

    The pointwise difference is unchanged; constants are kept, except that
    full cancellation to identical atomless components collapses to the
    zero representation.  A ``u`` that is canonical already comes back as it is.
    """
    plus, minus = u.plus.charge.atoms, u.minus.charge.atoms
    if {c for c, _ in plus}.isdisjoint(c for c, _ in minus) and (plus or minus or u.plus.const != u.minus.const):
        return u
    net: dict[complex, float] = dict(plus)
    for c, m in minus:
        net[c] = net.get(c, 0.0) - m
    plus_atoms = tuple((c, m) for c, m in net.items() if m > 0.0)
    minus_atoms = tuple((c, -m) for c, m in net.items() if m < 0.0)
    plus_const = u.plus.const
    minus_const = u.minus.const
    if not plus_atoms and not minus_atoms and plus_const == minus_const:
        plus_const = minus_const = 0.0
    return DeltaSubharmonicFn(
        plus=SubharmonicPotential(AtomicMeasure(plus_atoms), plus_const),
        minus=SubharmonicPotential(AtomicMeasure(minus_atoms), minus_const),
    )


@dataclass(frozen=True)
class RationalFunctionSpec:
    """Zeros, poles (integer multiplicities) and a positive leading scale."""

    zeros: AtomicMeasure = AtomicMeasure()
    poles: AtomicMeasure = AtomicMeasure()
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("scale must be finite and positive")
        for measure, kind in ((self.zeros, "zero"), (self.poles, "pole")):
            for _, m in measure.atoms:
                if abs(m - round(m)) > 1e-9 or round(m) < 1:
                    raise ValueError(f"{kind} multiplicities must be positive integers")
        zero_centers = {c for c, _ in self.zeros.atoms}
        pole_centers = {c for c, _ in self.poles.atoms}
        if zero_centers & pole_centers:
            raise ValueError("zeros and poles must have disjoint centers")


def ln_abs(f: RationalFunctionSpec) -> DeltaSubharmonicFn:
    """``ln|f|`` as a difference of potentials (zeros up, poles down)."""
    return DeltaSubharmonicFn(
        plus=SubharmonicPotential(f.zeros, math.log(f.scale)),
        minus=SubharmonicPotential(f.poles, 0.0),
    )


# --- serialization -------------------------------------------------------

def atoms_to_doc(measure: AtomicMeasure) -> list[dict]:
    return [{"re": c.real, "im": c.imag, "mass": m} for c, m in measure.atoms]


def atoms_from_doc(doc: Iterable[Mapping]) -> AtomicMeasure:
    return AtomicMeasure(tuple((complex(d["re"], d["im"]), float(d["mass"])) for d in doc))


def delta_to_doc(u: DeltaSubharmonicFn) -> dict:
    return {
        "plus_atoms": atoms_to_doc(u.plus.charge),
        "minus_atoms": atoms_to_doc(u.minus.charge),
        "plus_const": u.plus.const,
        "minus_const": u.minus.const,
    }


def delta_from_doc(doc: Mapping) -> DeltaSubharmonicFn:
    return DeltaSubharmonicFn(
        plus=SubharmonicPotential(atoms_from_doc(doc.get("plus_atoms", ())), float(doc.get("plus_const", 0.0))),
        minus=SubharmonicPotential(atoms_from_doc(doc.get("minus_atoms", ())), float(doc.get("minus_const", 0.0))),
    )


def potential_to_doc(v: SubharmonicPotential) -> dict:
    return {"atoms": atoms_to_doc(v.charge), "const": v.const}


def potential_from_doc(doc: Mapping) -> SubharmonicPotential:
    return SubharmonicPotential(atoms_from_doc(doc.get("atoms", ())), float(doc.get("const", 0.0)))


def rational_to_doc(f: RationalFunctionSpec) -> dict:
    return {
        "zeros": atoms_to_doc(f.zeros),
        "poles": atoms_to_doc(f.poles),
        "scale": f.scale,
    }


def rational_from_doc(doc: Mapping) -> RationalFunctionSpec:
    return RationalFunctionSpec(
        zeros=atoms_from_doc(doc.get("zeros", ())),
        poles=atoms_from_doc(doc.get("poles", ())),
        scale=float(doc.get("scale", 1.0)),
    )
