"""Benchmark for ``subpot suite``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload maxima --seed 1 --seconds 30 --trace 0

Each workload is one closed-loop client: it calls ``subpot.cli.main(["suite",
...])`` in-process, writing ``--out`` to a CSV under ``.perfbench_out/``, and
starts the next call when the previous one returns.  A run is a sequence of
suite calls ("chunks"); chunk ``j`` uses suite seed ``seed * 10**6 + j`` and a
fixed instance count, so the same ``--seed`` gives the same inputs.  An
untimed warm-up call of chunk 0 comes first.

``--trace 0`` runs chunks until ``--seconds`` have passed and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of chunks untraced and
then traced (see ``tracer.py``) and reports the per-layer metrics.  Every call
is checked: exit code, expected row count, every non-probe, non-degenerate
row holding, byte-identical CSVs for repeated chunks, and identical rows
whenever a unit (checker, instance) runs again in another call.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
CSV sha256 of each chunk and notes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# --jobs is the only parallelism: no BLAS or OpenMP threads on top of it.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 9
SETUP_CODE = "import subpot.cli as c; c.build_parser(); print(c.__file__, flush=True)"

# The per-layer metric names are fixed here, not read from the program, so
# the metric set stays the one BENCHMARK.json declares.
ALL_CHECKERS = (
    "lemma2",
    "lemma3",
    "lemma4",
    "lemma_a",
    "lemma1",
    "main_lemma",
    "main_theorem_T",
    "main_theorem_M",
    "nevanlinna_ratio",
    "small_intervals_ratio",
    "pjp_identity",
)


@dataclass(frozen=True)
class Workload:
    """One ``subpot suite`` configuration.

    ``checkers=None`` and ``chunk_instances=None`` keep the suite's defaults.
    The warm-up call runs the first ``warmup_instances`` instances of chunk 0.
    """

    checkers: Optional[tuple[str, ...]]
    jobs: int
    chunk_instances: Optional[int]
    warmup_instances: int
    trace_chunks: int
    why: str


WORKLOADS = {
    "maxima": Workload(
        checkers=("nevanlinna_ratio", "main_theorem_T", "main_theorem_M", "main_lemma", "small_intervals_ratio"),
        jobs=1,
        chunk_instances=2,
        warmup_instances=2,
        trace_chunks=15,
        why="circle maxima inside adaptive quadrature with an expensive integrand do almost all the work; "
        "no kernel-norm sup",
    ),
    "closed_forms": Workload(
        checkers=("lemma2", "lemma3", "lemma4", "lemma_a", "pjp_identity"),
        jobs=1,
        chunk_instances=100,
        warmup_instances=100,
        trace_chunks=3,
        why="2 ms units with no circle maxima: quadrature's own Python loop and the fixed cost per unit dominate",
    ),
    # Each chunk is the user's default call, ``subpot suite --jobs 2``, with
    # its own seed: the instance count is ``SuiteConfig``'s default (25), and
    # one call takes about 16 s.
    "full_jobs2": Workload(
        checkers=None,
        jobs=2,
        chunk_instances=None,
        warmup_instances=1,
        trace_chunks=1,
        why="the default configuration users and the determinism gate run: all 11 checkers, the process pool, "
        "the lemma1 kernel-norm sup and the long-tail units",
    ),
}

E2E_METRICS = (
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def suite_argv(workload: Workload, seed: int, chunk: int, jobs: int, out: Path, instances: int) -> list[str]:
    argv = ["suite", "--seed", str(seed * 10**6 + chunk), "--instances", str(instances), "--jobs", str(jobs)]
    argv += ["--out", str(out)]
    if workload.checkers is not None:
        argv += ["--checkers", ",".join(workload.checkers)]
    return argv


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 when none is)."""
    if n < 20:
        return 50
    return math.floor(100.0 * (n - 10) / n)


# --- loading the program ---------------------------------------------------


def load_subpot():
    """Import ``subpot`` from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "subpot" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'subpot'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import subpot.cli as cli
    import subpot.harness as harness

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli, harness


# --- one suite call and its correctness gate ---------------------------------


@dataclass
class Call:
    chunk: int
    jobs: int
    wall_s: float
    rows: int
    expected: int
    failed: int
    problems: list[str]


class Runner:
    """Runs suite calls for one workload and checks each call's output."""

    def __init__(self, cli, harness, name: str, seed: int, tmp: Path):
        self.cli = cli
        self.name = name
        self.workload = workload = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.probes = frozenset(harness.PROBE_CHECKERS)
        cfg = harness.SuiteConfig()
        if workload.checkers is not None:
            cfg = harness.SuiteConfig(checkers=workload.checkers)
        self.rows_per_instance = sum(harness.combo_count(c, cfg) for c in cfg.checkers)
        self.instances = workload.chunk_instances or cfg.instances
        self.expected = self.rows_per_instance * self.instances  # rows of one chunk
        self.reference: dict[str, str] = {}  # "chunk:instances" -> CSV sha256 of its first run
        self.unit_rows: dict[tuple[str, str], list[tuple]] = {}  # (checker, row seed) -> warm-up rows
        self.calls: list[Call] = []

    def call(self, chunk: int, jobs: int, instances: Optional[int] = None) -> Call:
        """One suite call of ``chunk``; ``instances`` (a prefix of the chunk) defaults to all."""
        instances = instances or self.instances
        out = self.tmp / f"chunk{chunk}-jobs{jobs}.csv"
        argv = suite_argv(self.workload, self.seed, chunk, jobs, out, instances)
        problems = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash fails this call's rows; the run goes on
            rc = None
            problems.append("crashed: " + "".join(traceback.format_exception_only(exc)).strip())
        wall = time.perf_counter() - t0
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        expected = self.rows_per_instance * instances
        rows, failed = self._check(f"{chunk}:{instances}", expected, rc, data, problems)
        result = Call(chunk, jobs, wall, rows, expected, failed, problems)
        self.calls.append(result)
        return result

    def _check(
        self, key: str, expected: int, rc: Optional[int], data: bytes, problems: list[str]
    ) -> tuple[int, int]:
        """(rows written, rows failed) of one call; appends what went wrong to ``problems``.

        ``key`` names the call's chunk and instance count: calls with the same
        key must write the same bytes.  A unit's rows are keyed by checker and
        row seed, which the suite derives from (suite seed, checker, instance),
        so a unit that runs again in a larger call must repeat its rows.  Only
        calls smaller than a chunk (a warm-up) keep their units' rows, so what
        the gate holds does not grow with the number of chunks a run makes.
        """
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8")))) if data else []
        violating = sum(
            1
            for row in rows
            if row["name"] not in self.probes
            and not json.loads(row["params"]).get("degenerate")
            and row["holds"] != "True"
        )
        failed = abs(expected - len(rows)) + violating
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows written, {expected} expected")
        if violating:
            problems.append(f"{violating} rows do not hold")
        if rc != 0:
            problems.append(f"exit code {rc}")
            failed = expected
        sha = hashlib.sha256(data).hexdigest()
        if self.reference.setdefault(key, sha) != sha:
            problems.append(f"CSV differs from an earlier run of chunk {key}")
            failed = expected
        units: dict[tuple[str, str], list[tuple]] = {}
        for row in rows:
            units.setdefault((row["name"], row["seed"]), []).append(tuple(row.values()))
        if expected < self.expected:
            for unit, unit_rows in units.items():
                self.unit_rows.setdefault(unit, unit_rows)
        changed = [u for u, r in units.items() if self.unit_rows.get(u, r) != r]
        if changed:
            problems.append(f"rows of {len(changed)} units differ from an earlier call")
            failed = expected
        return len(rows), min(failed, expected)

    @property
    def attempted(self) -> int:
        return sum(c.expected for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.calls)

    def problems(self) -> list[str]:
        return [f"chunk {c.chunk} jobs {c.jobs}: {p}" for c in self.calls for p in c.problems]


def rows_per_s(calls: list[Call]) -> float:
    """Rows written per second of ``cli.main`` wall time, over all the calls."""
    return sum(c.rows for c in calls) / sum(c.wall_s for c in calls)


# --- end-to-end metrics --------------------------------------------------------


def measure_setup() -> float:
    """Seconds until a fresh interpreter has imported ``subpot.cli`` and built its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    ) as proc:
        line = proc.stdout.readline().strip()
        t1 = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or not line or not Path(line).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up interpreter failed (exit {rc}, imported {line!r})")
    return t1 - t0


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its children's.

    The children are the pool workers and the set-up interpreters; a set-up
    interpreter loads a subset of what this process holds, so the pool
    workers or this process set the peak.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    workload = runner.workload
    jobs = workload.jobs
    # Warm-up; timed chunk 0 must repeat its bytes (or, for a smaller
    # warm-up, its units' rows).
    runner.call(0, jobs, workload.warmup_instances)
    timed: list[Call] = []
    setups: list[float] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(runner.call(len(timed), jobs))
        # Spread the set-up launches over the run, so their median does not
        # hang on one phase of a shared machine's load.
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(measure_setup())
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup())
    metrics = {
        "rows_per_s": rows_per_s(timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "timed_chunks": len(timed),
        "chunk_rows_per_s": [c.rows / c.wall_s for c in timed],
        "setup_s_samples": setups,
    }
    return metrics, info


# --- per-layer metrics -----------------------------------------------------------------


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    rows = [
        ("characteristics.max_on_circles_calls", "count", "lower"),
        ("characteristics.circle_radii", "count", "lower"),
        ("characteristics.max_on_circles_s", "s", "lower"),
        ("characteristics.radii_per_s", "1/s", "higher"),
        ("characteristics.profile_calls", "count", "lower"),
        ("characteristics.profile_points", "count", "lower"),
        ("characteristics.profile_s", "s", "lower"),
        ("characteristics.profile_points_per_s", "1/s", "higher"),
        ("characteristics.points_per_radius", "count", "lower"),
        ("characteristics.circle_mean_nonlinear_s", "s", "lower"),
        ("quadrature.integrals", "count", "lower"),
        ("quadrature.panels", "count", "lower"),
        ("quadrature.abscissae", "count", "lower"),
        ("quadrature.panels_per_integral", "count", "lower"),
        ("quadrature.errors", "count", "lower"),
        ("quadrature.integrate_s", "s", "lower"),
        ("quadrature.self_s", "s", "lower"),
        ("inequalities.log_kernel_norm_calls", "count", "lower"),
        ("inequalities.log_kernel_norm_s", "s", "lower"),
        ("inequalities.lhs_integrals_per_row", "count", "lower"),
        ("sets.integrate_weighted_calls", "count", "lower"),
        ("sets.integrate_weighted_s", "s", "lower"),
        ("sets.lp_norm_s", "s", "lower"),
        ("model.canonicalize_calls", "count", "lower"),
        ("model.canonicalize_s", "s", "lower"),
        ("harness.run_suite_s", "s", "lower"),
        ("harness.units", "count", "higher"),
        ("harness.generate_instance_s", "s", "lower"),
        ("harness.rows_to_csv_s", "s", "lower"),
        ("harness.pool_busy_frac", "ratio", "higher"),
    ]
    for name in ALL_CHECKERS:
        rows += [
            (f"harness.unit_ms_p50.{name}", "ms", "lower"),
            (f"harness.unit_ms_p95.{name}", "ms", "lower"),
            (f"harness.unit_ms_ptail.{name}", "ms", "lower"),
            (f"harness.unit_ptail.{name}", "%", "higher"),
            (f"harness.unit_samples.{name}", "count", "higher"),
        ]
    rows += [
        ("cli.main_s", "s", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.rows_per_s_untraced", "1/s", "higher"),
        ("trace.rows_per_s_traced", "1/s", "higher"),
        ("trace.rows_per_s_delta", "1/s", "higher"),
    ]
    return rows


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tr, traced_rows: int) -> dict[str, float]:
    """Per-layer values from one traced pass."""
    radii = tr.count("characteristics.max_on_circles")
    max_s = tr.busy_s("characteristics.max_on_circles")
    points = tr.count("characteristics.CircleSampler.profile")
    profile_s = tr.busy_s("characteristics.CircleSampler.profile")
    integrals = tr.call_count("quadrature.integrate")
    integrate_s = tr.busy_s("quadrature.integrate")
    lhs_integrals = tr.binding_calls["inequalities.integrate"] + tr.binding_calls["inequalities.integrate_weighted"]
    main_s = tr.busy_s("cli.main")
    suite_s = tr.busy_s("harness.run_suite")
    out = {
        "characteristics.max_on_circles_calls": tr.call_count("characteristics.max_on_circles"),
        "characteristics.circle_radii": radii,
        "characteristics.max_on_circles_s": max_s,
        "characteristics.radii_per_s": _per_s(radii, max_s),
        "characteristics.profile_calls": tr.call_count("characteristics.CircleSampler.profile"),
        "characteristics.profile_points": points,
        "characteristics.profile_s": profile_s,
        "characteristics.profile_points_per_s": _per_s(points, profile_s),
        "characteristics.points_per_radius": tr.profile_points_in_max / radii if radii else 0.0,
        "characteristics.circle_mean_nonlinear_s": tr.busy_s("characteristics.circle_mean_nonlinear"),
        "quadrature.integrals": integrals,
        "quadrature.panels": tr.integrand_calls,
        "quadrature.abscissae": tr.integrand_points,
        "quadrature.panels_per_integral": tr.integrand_calls / integrals if integrals else 0.0,
        "quadrature.errors": tr.error_count("quadrature.integrate"),
        "quadrature.integrate_s": integrate_s,
        "quadrature.self_s": integrate_s - tr.integrand_ns / 1e9,
        "inequalities.log_kernel_norm_calls": tr.call_count("inequalities.log_kernel_norm"),
        "inequalities.log_kernel_norm_s": tr.busy_s("inequalities.log_kernel_norm"),
        "inequalities.lhs_integrals_per_row": lhs_integrals / traced_rows if traced_rows else 0.0,
        "sets.integrate_weighted_calls": tr.call_count("sets.integrate_weighted"),
        "sets.integrate_weighted_s": tr.busy_s("sets.integrate_weighted"),
        "sets.lp_norm_s": tr.busy_s("sets.lp_norm"),
        "model.canonicalize_calls": tr.call_count("model.canonicalize"),
        "model.canonicalize_s": tr.busy_s("model.canonicalize"),
        "harness.run_suite_s": suite_s,
        "harness.units": tr.call_count("harness.run_unit"),
        "harness.generate_instance_s": tr.busy_s("harness.generate_instance"),
        "harness.rows_to_csv_s": tr.busy_s("harness.rows_to_csv"),
        "cli.main_s": main_s,
        "cli.overhead_s": main_s - suite_s,
        "trace.spans": tr.span_count,
    }
    for name in ALL_CHECKERS:
        ms = sorted(ns / 1e6 for ns in tr.tagged_ns.get(name, []))
        q = tail_percentile(len(ms))
        out[f"harness.unit_ms_p50.{name}"] = percentile(ms, 50)
        out[f"harness.unit_ms_p95.{name}"] = percentile(ms, 95)
        out[f"harness.unit_ms_ptail.{name}"] = percentile(ms, q)
        out[f"harness.unit_ptail.{name}"] = q if ms else 0
        out[f"harness.unit_samples.{name}"] = len(ms)
    return out


def run_traced(runner: Runner) -> tuple[dict, dict]:
    workload = runner.workload
    chunks = range(workload.trace_chunks)
    runner.call(0, workload.jobs, workload.warmup_instances)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    base = [runner.call(c, workload.jobs) for c in chunks]
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    info = {}
    pool_busy = 0.0
    if workload.jobs > 1:
        child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        pool_busy = child_cpu / (workload.jobs * sum(c.wall_s for c in base))
        # Spans recorded in pool workers never reach this process, so the
        # traced pass runs the same units serially; the CSV check above
        # compares its bytes with the --jobs pass.
        base = [runner.call(c, 1) for c in chunks]
        info["note"] = (
            f"traced pass ran at --jobs 1 (workload uses --jobs {workload.jobs}); "
            "its CSV is checked byte-identical to the --jobs pass"
        )
    tracer = Tracer()
    with tracer:
        traced = [runner.call(c, 1) for c in chunks]
    traced_rows = sum(c.rows for c in traced)
    metrics = layer_metrics(tracer, traced_rows)
    metrics["harness.pool_busy_frac"] = pool_busy
    untraced_rate = rows_per_s(base)
    traced_rate = rows_per_s(traced)
    metrics["trace.rows_per_s_untraced"] = untraced_rate
    metrics["trace.rows_per_s_traced"] = traced_rate
    metrics["trace.rows_per_s_delta"] = traced_rate - untraced_rate
    spans = OUT_DIR / f"spans-{runner.name}-seed{runner.seed}.tsv"
    tracer.write_spans(spans)
    info["spans_file"] = str(spans.relative_to(ROOT))
    info["traced_chunks"] = len(traced)
    return metrics, info


# --- environment and entry point -----------------------------------------------------------


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "loadavg_start": list(loadavg),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    os.environ.update(PINNED_ENV)
    cli, harness = load_subpot()
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(cli, harness, args.workload, args.seed, tmp)
        if args.trace:
            metrics, info = run_traced(runner)
            units = {name: unit for name, unit, _ in per_layer_names()}
        else:
            metrics, info = run_untraced(runner, args.seconds)
            units = dict(E2E_METRICS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = runner.attempted
    failed = runner.failed
    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "why": workload.why,
            "environment": environment(loadavg),
            "chunk_sha256": dict(sorted(runner.reference.items())),
            "failed_frac": failed / attempted,
            "problems": runner.problems(),
        }
    )
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
