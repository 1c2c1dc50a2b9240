"""The correctness gate counts missing, violating and non-reproducible rows."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

cli, harness = run.load_subpot()

HEADER = "name,seed,lhs,rhs,ratio,holds,err,params\n"


def _row(name: str, holds: bool, degenerate: bool = False, seed: int = 1) -> str:
    params = '"{""degenerate"":%s}"' % ("true" if degenerate else "false")
    return f"{name},{seed},1.0,2.0,0.5,{holds},0.0,{params}\n"


def test_violations_and_missing_rows_fail(tmp_path):
    runner = run.Runner(cli, harness, "maxima", 1, tmp_path)
    assert runner.expected == 2 * (3 + 9 + 9 + 6 + 2)
    data = HEADER + _row("main_lemma", False) + _row("nevanlinna_ratio", False) + _row("main_lemma", False, True)
    problems: list[str] = []
    rows, failed = runner._check("0:2", runner.expected, 0, data.encode(), problems)
    # One real violation; the probe and the degenerate row are exempt.
    assert (rows, failed) == (3, runner.expected - 3 + 1)
    assert any("do not hold" in p for p in problems)


def test_exit_code_and_changed_bytes_fail_the_whole_call(tmp_path):
    runner = run.Runner(cli, harness, "maxima", 1, tmp_path)
    n = runner.expected
    full = HEADER + "".join(_row("main_lemma", True, seed=i) for i in range(n))
    assert runner._check("0:2", n, 0, full.encode(), []) == (n, 0)
    assert runner.unit_rows == {}  # only calls smaller than a chunk keep their rows
    assert runner._check("0:2", n, 1, full.encode(), []) == (n, n)
    changed = full.replace("1.0,2.0", "1.0,2.5", 1)
    problems: list[str] = []
    assert runner._check("0:2", n, 0, changed.encode(), problems) == (n, n)
    assert any("differs" in p for p in problems)


def test_a_unit_rerun_in_a_larger_call_must_repeat_its_rows(tmp_path):
    runner = run.Runner(cli, harness, "full_jobs2", 1, tmp_path)
    assert runner.instances == harness.SuiteConfig().instances
    assert runner._check("0:1", 1, 0, (HEADER + _row("lemma2", True, seed=7)).encode(), []) == (1, 0)
    same = HEADER + _row("lemma2", True, seed=7) + _row("lemma2", True, seed=8)
    assert runner._check("0:2", 2, 0, same.encode(), []) == (2, 0)
    changed = HEADER + _row("lemma2", True, seed=7).replace("0.5", "0.6") + _row("lemma2", True, seed=9)
    problems: list[str] = []
    assert runner._check("1:2", 2, 0, changed.encode(), problems) == (2, 2)
    assert any("units differ" in p for p in problems)
