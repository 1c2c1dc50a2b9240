"""Tracer self-test: traced counts must equal an independent count.

The independent count comes from ``sys.setprofile``, which sees every call of
a function's code object whichever module binding the caller went through.
A binding the tracer failed to patch therefore shows up as a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

cli, harness = run.load_subpot()

import subpot.characteristics as characteristics  # noqa: E402
import subpot.quadrature as quadrature  # noqa: E402

# One fixed unit per workload, chosen to reach that workload's layers.
UNITS = {
    "maxima": "main_theorem_T",
    "closed_forms": "lemma4",
    "full_jobs2": "lemma1",
}


def _original(target):
    home = sys.modules[f"subpot.{target.layer}"]
    obj = home
    for part in target.attr.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class CodeCounter:
    """Counts calls of given code objects and sums ``.size`` of what they return."""

    def __init__(self, codes: dict):
        self.codes = codes
        self.calls = Counter()
        self.sizes = Counter()

    def __call__(self, frame, event, arg):
        if event == "call":
            name = self.codes.get(frame.f_code)
            if name is not None:
                self.calls[name] += 1
        elif event == "return":
            name = self.codes.get(frame.f_code)
            if name is not None:
                self.sizes[name] += int(getattr(arg, "size", 0))


@pytest.mark.parametrize("workload", sorted(UNITS))
def test_traced_counts_match_independent_count(workload, tmp_path):
    codes = {_original(t).__code__: t.name for t in TARGETS}
    codes[quadrature._panel_estimate.__code__] = "panels"
    counter = CodeCounter(codes)
    argv = run.suite_argv(run.WORKLOADS[workload], 1, 0, 1, tmp_path / "out.csv", 1)
    if "--checkers" in argv:
        argv[argv.index("--checkers") + 1] = UNITS[workload]
    else:
        argv += ["--checkers", UNITS[workload]]

    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(counter)
        try:
            rc = cli.main(argv)
        finally:
            sys.setprofile(None)
    assert rc == 0

    for target in TARGETS:
        assert tracer.call_count(target.name) == counter.calls[target.name], target.name
    assert tracer.integrand_calls == counter.calls["panels"] > 0
    assert tracer.integrand_points == 15 * tracer.integrand_calls
    for name in ("characteristics.max_on_circles", "characteristics.CircleSampler.profile"):
        assert tracer.count(name) == counter.sizes[name], name
    assert tracer.call_count("harness.run_unit") == 1
    assert list(tracer.tagged_ns) == [UNITS[workload]]
    assert tracer.span_count == sum(tracer.calls)


def test_every_import_binding_is_patched():
    originals = {t.name: _original(t) for t in TARGETS}
    tracer = Tracer()
    with tracer:
        bound = set(tracer.bindings)
        for target in TARGETS:
            assert _original(target) is not originals[target.name], target.name
        assert characteristics.integrate is not originals["quadrature.integrate"]
    for binding in (
        "subpot.quadrature.integrate",
        "subpot.characteristics.integrate",
        "subpot.sets.integrate",
        "subpot.inequalities.integrate",
        "subpot.inequalities.max_on_circles",
        "subpot.characteristics.canonicalize",
        "subpot.inequalities.canonicalize",
        "subpot.cli.canonicalize",
        "subpot.cli.run_suite",
        "subpot.inequalities.integrate_weighted",
    ):
        assert binding in bound, binding
    # Uninstalling restores the original objects.
    assert characteristics.integrate is quadrature.integrate
    assert all(_original(t) is originals[t.name] for t in TARGETS)
