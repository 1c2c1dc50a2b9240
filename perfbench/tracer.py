"""In-memory span tracer that wraps subpot's public functions from outside.

The tracer patches every binding of each target function: the attribute in
its defining module and every ``from .x import y`` copy in the other
``subpot`` modules.  Each call records a span (id, parent, name, start, end)
in flat arrays, plus counts taken at the same boundary: radii per
``max_on_circles`` call, points per ``CircleSampler.profile`` call, and
integrand calls and abscissae per ``integrate`` call.  Nothing inside the
program changes; :meth:`Tracer.uninstall` restores the original objects.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional


def _result_size(result) -> int:
    return int(getattr(result, "size", 0))


@dataclass(frozen=True)
class Target:
    """One traced function: ``layer`` is its defining module, ``attr`` its name there.

    ``count`` maps the return value to a work count added to the span's name;
    ``tag`` maps the positional arguments to a label that groups span
    durations (the checker name of a unit); ``integrand`` wraps the first
    argument so integrand calls, abscissae and time inside it are counted.
    """

    layer: str
    attr: str
    count: Optional[Callable[[object], int]] = None
    tag: Optional[Callable[[tuple], str]] = None
    integrand: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


TARGETS = (
    Target("cli", "main"),
    Target("harness", "run_suite"),
    Target("harness", "run_unit", tag=lambda args: str(args[0])),
    Target("harness", "generate_instance"),
    Target("harness", "rows_to_csv"),
    Target("inequalities", "log_kernel_norm"),
    Target("sets", "integrate_weighted"),
    Target("sets", "lp_norm"),
    Target("characteristics", "max_on_circles", count=_result_size),
    Target("characteristics", "circle_mean_nonlinear"),
    Target("characteristics", "CircleSampler.profile", count=_result_size),
    Target("quadrature", "integrate", integrand=True),
    Target("model", "canonicalize"),
)


class Tracer:
    """Records spans and boundary counts for :data:`TARGETS` while installed."""

    def __init__(self):
        self.targets = targets = TARGETS
        self.names = [t.name for t in targets]
        self._patches: list[tuple[object, str, object]] = []
        # One row per finished span.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._next_id = 0
        self._origin = perf_counter_ns()
        # Aggregates, keyed by target index unless noted.
        self.calls = [0] * len(targets)
        self.errors = [0] * len(targets)
        self.busy_ns = [0] * len(targets)  # outermost calls only, so recursion is not double counted
        self.counts = [0] * len(targets)
        self._depth = [0] * len(targets)
        self.binding_calls: dict[str, int] = defaultdict(int)
        self.tagged_ns: dict[str, list[int]] = defaultdict(list)
        self.integrand_calls = 0
        self.integrand_points = 0
        # Time inside integrands of outermost integrate calls only, so an
        # integral nested inside an integrand is not subtracted twice.
        self.integrand_ns = 0
        # Points evaluated by profile while a max_on_circles call is open.
        self.profile_points_in_max = 0
        self._max_open = 0

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "subpot" or name.startswith("subpot."))
        ]
        by_name = {mod.__name__: mod for mod in modules}
        for idx, target in enumerate(self.targets):
            home = by_name.get(f"subpot.{target.layer}")
            if home is None:
                raise RuntimeError(f"module subpot.{target.layer} is not imported")
            if "." in target.attr:
                cls_name, meth = target.attr.split(".", 1)
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, idx, target.name))
                continue
            original = getattr(home, target.attr)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        binding = f"{mod.__name__.rpartition('.')[2]}.{attr}"
                        self._patch(mod, attr, self._wrap(original, idx, binding))
        return self

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def bindings(self) -> list[str]:
        """Every patched binding, as ``module.attr`` of the module that holds it."""
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self._patches
        )

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn: Callable, idx: int, binding: str) -> Callable:
        target = self.targets[idx]
        count = target.count
        tag = target.tag
        is_max = target.name == "characteristics.max_on_circles"
        is_profile = target.name == "characteristics.CircleSampler.profile"
        wrap_integrand = self._wrap_integrand if target.integrand else None
        stack = self._stack
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tr._next_id
            tr._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth = tr._depth[idx]
            tr._depth[idx] = depth + 1
            tr.binding_calls[binding] += 1
            if is_max:
                tr._max_open += 1
            if wrap_integrand is not None:
                if args:
                    args = (wrap_integrand(args[0]),) + args[1:]
                else:
                    kwargs["f"] = wrap_integrand(kwargs["f"])
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.errors[idx] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tr._depth[idx] = depth
                if is_max:
                    tr._max_open -= 1
                tr.calls[idx] += 1
                if depth == 0:
                    tr.busy_ns[idx] += t1 - t0
                if tag is not None:
                    tr.tagged_ns[tag(args)].append(t1 - t0)
                tr.span_id.append(sid)
                tr.span_parent.append(parent)
                tr.span_name.append(idx)
                tr.span_start.append(t0 - tr._origin)
                tr.span_end.append(t1 - tr._origin)
            if count is not None:
                n = count(result)
                tr.counts[idx] += n
                if is_profile and tr._max_open:
                    tr.profile_points_in_max += n
            return result

        return traced

    def _wrap_integrand(self, f: Callable) -> Callable:
        tr = self
        depth = self._depth
        idx = self.index("quadrature.integrate")

        def integrand(x):
            t0 = perf_counter_ns()
            try:
                return f(x)
            finally:
                if depth[idx] == 1:
                    tr.integrand_ns += perf_counter_ns() - t0
                tr.integrand_calls += 1
                tr.integrand_points += len(x)

        return integrand

    # -- results ----------------------------------------------------------------

    def index(self, name: str) -> int:
        return self.names.index(name)

    def busy_s(self, name: str) -> float:
        return self.busy_ns[self.index(name)] / 1e9

    def call_count(self, name: str) -> int:
        return self.calls[self.index(name)]

    def count(self, name: str) -> int:
        return self.counts[self.index(name)]

    def error_count(self, name: str) -> int:
        return self.errors[self.index(name)]

    @property
    def span_count(self) -> int:
        return len(self.span_id)

    def write_spans(self, path) -> None:
        """Write every span as tab-separated ``id parent name start_ns end_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid, parent, ni, t0, t1 in zip(
                self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end
            ):
                fh.write(f"{sid}\t{parent}\t{names[ni]}\t{t0}\t{t1}\n")
