"""Atomic charges, potentials, canonical differences, and rational bridges."""

import math

import numpy as np
import pytest

from subpot import (
    AtomicMeasure,
    DeltaSubharmonicFn,
    RationalFunctionSpec,
    SubharmonicPotential,
    canonicalize,
    delta_from_doc,
    delta_to_doc,
    ln_abs,
    potential_from_doc,
    potential_to_doc,
    rational_from_doc,
    rational_to_doc,
)
from subpot.characteristics import CircleSampler


def _delta(plus_pairs, minus_pairs, plus_const=0.0, minus_const=0.0):
    return DeltaSubharmonicFn(
        plus=SubharmonicPotential(AtomicMeasure.from_pairs(plus_pairs), plus_const),
        minus=SubharmonicPotential(AtomicMeasure.from_pairs(minus_pairs), minus_const),
    )


def _value(u, z):
    """``u(z)`` from the circle kernel at ``|z| e^{i arg z}``: exact for real ``z >= 0``."""
    return float(CircleSampler(u).profile(abs(z), math.atan2(complex(z).imag, complex(z).real)))


def _direct(u, z):
    """``u(z)`` summed term by term over the raw components, off the atoms."""
    plus = u.plus.const + sum(m * math.log(abs(z - c)) for c, m in u.plus.charge.atoms)
    minus = u.minus.const + sum(m * math.log(abs(z - c)) for c, m in u.minus.charge.atoms)
    return plus - minus


def _random_delta(rng, max_atoms=5):
    def pairs(n):
        return [
            (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), float(rng.uniform(0.1, 2.0)))
            for _ in range(n)
        ]

    return _delta(
        pairs(int(rng.integers(0, max_atoms + 1))),
        pairs(int(rng.integers(0, max_atoms + 1))),
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-1, 1)),
    )


def test_evaluate_single_atom():
    U = _delta([(0.0, 1.0)], [])
    assert _value(U, 2.0) == pytest.approx(math.log(2.0))


def test_evaluate_pole_atom_is_plus_infinity():
    U = _delta([], [(0.0, 1.0)])
    assert _value(U, 0.0) == math.inf


def test_evaluate_zero_atom_is_minus_infinity():
    U = _delta([(1.0, 1.0)], [])
    assert _value(U, 1.0) == -math.inf


def test_evaluate_two_atoms_cancel_at_origin():
    U = _delta([(1.0, 1.0), (-1.0, 1.0)], [])
    assert _value(U, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_canonicalize_cancels_common_center_mass():
    U = _delta([(1.0, 2.0)], [(1.0, 0.5)])
    c = canonicalize(U)
    assert c.plus.charge.atoms == (((1 + 0j), 1.5),)
    assert c.minus.charge.is_empty


def test_canonicalize_disjoint_is_identity():
    U = _delta([(1.0, 1.0)], [(2.0, 1.0)], 0.3, -0.2)
    c = canonicalize(U)
    assert c.plus.charge.atoms == U.plus.charge.atoms
    assert c.minus.charge.atoms == U.minus.charge.atoms
    assert c.plus.const == U.plus.const
    assert c.minus.const == U.minus.const
    assert c is U


def test_canonicalize_atomless_equal_constants_give_zero_function():
    c = canonicalize(_delta([], [], 0.4, 0.4))
    assert c.plus.charge.is_empty and c.minus.charge.is_empty
    assert c.plus.const == 0.0 and c.minus.const == 0.0
    assert canonicalize(_delta([], [], 0.4, -0.1)).plus.const == 0.4


def test_canonicalize_full_cancellation_gives_zero_function():
    u = SubharmonicPotential(AtomicMeasure.from_pairs([(1.0, 1.0)]), 0.7)
    c = canonicalize(DeltaSubharmonicFn(plus=u, minus=u))
    assert c.plus.charge.is_empty and c.minus.charge.is_empty
    assert c.plus.const == 0.0 and c.minus.const == 0.0


def test_canonicalize_preserves_values_off_atoms():
    rng = np.random.default_rng(4021)
    for _ in range(20):
        U = _random_delta(rng)
        # Put minus mass on some plus centers so cancellation has work to do.
        shared = [(c, m * float(rng.uniform(0.3, 1.7))) for c, m in U.plus.charge.atoms[:2]]
        U = _delta(U.plus.charge.atoms, U.minus.charge.atoms + tuple(shared), U.plus.const, U.minus.const)
        c = canonicalize(U)
        for _ in range(5):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            assert _direct(c, z) == pytest.approx(_direct(U, z), rel=1e-12, abs=1e-12)


def test_canonicalize_yields_disjoint_centers():
    rng = np.random.default_rng(977)
    for _ in range(20):
        # Force shared centers so cancellation has work to do.
        shared = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
                  for _ in range(3)]
        U = _delta(shared + [(5.0, 1.0)], [(c, m * float(rng.uniform(0.3, 1.7))) for c, m in shared])
        c = canonicalize(U)
        plus_centers = {a for a, _ in c.plus.charge.atoms}
        minus_centers = {a for a, _ in c.minus.charge.atoms}
        assert not plus_centers & minus_centers


def test_duplicate_centers_merge_by_mass():
    m = AtomicMeasure.from_pairs([(1.0, 1.0), (1.0, 2.0), (2.0, 0.5)])
    assert m.atoms == (((1 + 0j), 3.0), ((2 + 0j), 0.5))


def test_ln_abs_reciprocal_z():
    f = RationalFunctionSpec(poles=AtomicMeasure.from_pairs([(0.0, 1.0)]))
    U = ln_abs(f)
    assert U.plus.charge.is_empty
    assert U.minus.charge.atoms == (((0 + 0j), 1.0),)
    assert _value(U, 2.0) == pytest.approx(-math.log(2.0))


def test_ln_abs_moebius_value():
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.from_pairs([(1.0, 1.0)]),
        poles=AtomicMeasure.from_pairs([(-1.0, 1.0)]),
        scale=2.0,
    )
    # |f(3)| = 2*2/4 = 1
    assert _value(ln_abs(f), 3.0) == pytest.approx(0.0, abs=1e-14)


def _abs_value(f, z):
    """Direct |f(z)| as the product of |z - c|^m, for a cross-check of the potential route."""
    num = f.scale
    for c, m in f.zeros.atoms:
        num *= abs(z - c) ** m
    den = 1.0
    for c, m in f.poles.atoms:
        den *= abs(z - c) ** m
    if den == 0.0:
        return math.inf
    return num / den


def test_ln_abs_matches_direct_evaluation():
    rng = np.random.default_rng(1234)
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.from_pairs([(1.0, 2.0), (complex(0, 2), 1.0)]),
        poles=AtomicMeasure.from_pairs([(-1.5, 1.0), (complex(2, -1), 3.0)]),
        scale=0.7,
    )
    U = ln_abs(f)
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        direct = _abs_value(f, z)
        if 0.0 < direct < math.inf:
            assert _value(U, z) == pytest.approx(math.log(direct), rel=1e-10, abs=1e-10)


def test_rational_validation():
    with pytest.raises(ValueError):
        RationalFunctionSpec(zeros=AtomicMeasure.from_pairs([(1.0, 0.5)]))
    with pytest.raises(ValueError):
        RationalFunctionSpec(
            zeros=AtomicMeasure.from_pairs([(1.0, 1.0)]),
            poles=AtomicMeasure.from_pairs([(1.0, 2.0)]),
        )
    with pytest.raises(ValueError):
        RationalFunctionSpec(scale=0.0)


def test_delta_doc_round_trip():
    U = _delta([(1.0, 1.5), (complex(0, -2), 0.5)], [(3.0, 2.0)], 0.25, -1.0)
    doc = delta_to_doc(U)
    back = delta_from_doc(doc)
    assert back.plus.charge.atoms == U.plus.charge.atoms
    assert back.minus.charge.atoms == U.minus.charge.atoms
    assert back.plus.const == U.plus.const and back.minus.const == U.minus.const


def test_potential_doc_round_trip():
    u = SubharmonicPotential(AtomicMeasure.from_pairs([(complex(1, 1), 2.0)]), -0.5)
    back = potential_from_doc(potential_to_doc(u))
    assert back.charge.atoms == u.charge.atoms and back.const == u.const


def test_rational_doc_round_trip():
    f = RationalFunctionSpec(
        zeros=AtomicMeasure.from_pairs([(1.0, 2.0)]),
        poles=AtomicMeasure.from_pairs([(0.0, 1.0)]),
        scale=3.0,
    )
    back = rational_from_doc(rational_to_doc(f))
    assert back.zeros.atoms == f.zeros.atoms
    assert back.poles.atoms == f.poles.atoms
    assert back.scale == f.scale


def test_measure_helpers():
    m = AtomicMeasure.from_pairs([(3.0, 1.0), (complex(0, -4), 2.0)])
    assert m.total_mass == pytest.approx(3.0)
    assert sorted(m.moduli) == pytest.approx([3.0, 4.0])
    assert AtomicMeasure.empty().is_empty
