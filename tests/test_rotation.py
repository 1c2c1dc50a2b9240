"""Metamorphic oracle: every row is invariant under rotating or conjugating the atoms.

Circle means, circle maxima and counting functions on ``|z| = t`` depend on
the atoms only through rotation- and reflection-invariant quantities, so a
checker's ``lhs`` and ``rhs`` must not move beyond both rows' error
estimates.  The radii stay as they are.  The angular cells of the circle
maxima are anchored at angle 0, so the transformed instance meets the same
potential on different cells and different grid angles.
"""

import cmath
import math

import pytest

from subpot import SuiteConfig, generate_instance, rng_for, run_check

# Every checker whose document carries atoms: under "measure", "u", "v" or "f".
ATOM_CHECKERS = (
    "lemma2",
    "lemma1",
    "main_lemma",
    "main_theorem_T",
    "main_theorem_M",
    "nevanlinna_ratio",
    "small_intervals_ratio",
    "pjp_identity",
)
ATOM_KEYS = ("measure", "u", "v", "f")

# Not a rational multiple of pi, so no grid angle maps onto another.
ALPHA = 1.0


def _moved_atoms(obj, move):
    """``obj`` with every atom ``{"re", "im", "mass"}`` at ``move(center)``."""
    if isinstance(obj, dict):
        if "re" in obj and "im" in obj:
            z = move(complex(obj["re"], obj["im"]))
            return {**obj, "re": z.real, "im": z.imag}
        return {key: _moved_atoms(value, move) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_moved_atoms(value, move) for value in obj]
    return obj


def _transformed(doc, move):
    return {key: _moved_atoms(value, move) if key in ATOM_KEYS else value for key, value in doc.items()}


ROTATION = cmath.exp(1j * ALPHA)
TRANSFORMS = {
    "rotation": lambda z: ROTATION * z,
    "conjugation": lambda z: z.conjugate(),
}


def _agree(x, y, err):
    if math.isfinite(x) and math.isfinite(y):
        return abs(x - y) <= err + 1e-12 * (1.0 + abs(y))
    return x == y or (math.isnan(x) and math.isnan(y))


def moved_rows(name, seed, index):
    """``(transform, combo, column, moved value, value, err)`` for each value of instance ``index`` that moves beyond its rows' err."""
    cfg = SuiteConfig(seed=seed)
    inst = generate_instance(name, rng_for(cfg.seed, name, index)[0], cfg)
    assert any(key in inst.base_doc for key in ATOM_KEYS)
    moved = []
    for combo in inst.combos:
        doc = {**inst.base_doc, **combo}
        ref = run_check(name, doc)
        for label, move in TRANSFORMS.items():
            moved_doc = _transformed(doc, move)
            if moved_doc == doc:
                continue  # every atom where the map fixes it (the origin, the real axis)
            rep = run_check(name, moved_doc)
            err = ref.error_estimate + rep.error_estimate
            for col in ("lhs", "rhs"):
                if not _agree(getattr(rep, col), getattr(ref, col), err):
                    moved.append((label, combo, col, getattr(rep, col), getattr(ref, col), err))
    return moved


@pytest.mark.parametrize("name", ATOM_CHECKERS)
def test_rows_are_invariant_under_rotation_and_conjugation(name):
    cfg = SuiteConfig()
    inst = generate_instance(name, rng_for(cfg.seed, name, 0)[0], cfg)
    doc = {**inst.base_doc, **inst.combos[0]}
    assert all(_transformed(doc, move) != doc for move in TRANSFORMS.values())
    assert moved_rows(name, cfg.seed, 0) == []


if __name__ == "__main__":
    # python tests/test_rotation.py [SEED ...]: every instance of every atom
    # checker at the suite's own seed and at each SEED given.
    import sys

    seeds = [SuiteConfig().seed] + [int(arg) for arg in sys.argv[1:]]
    count = 0
    for seed in seeds:
        for name in ATOM_CHECKERS:
            for index in range(SuiteConfig(seed=seed).instances):
                for row in moved_rows(name, seed, index):
                    count += 1
                    print(f"seed {seed} {name} instance {index}:", *row)
    print(f"{count} values moved beyond their err")
    sys.exit(1 if count else 0)
