"""Span tracing of imsetpoly's public functions, from outside the program.

While a Tracer is installed, each traced function is replaced by a wrapper
that records a span (name, op id, parent span, start, end, busy time) in
memory.  The package imports with ``from .x import y``, so a function is
looked up in its caller's module namespace: the wrapper goes into every
imsetpoly module that holds the function, and ``restore`` puts the
originals back.  A generator's span is busy only while the generator runs,
not while its consumer does.

Spans are recorded only inside an op (between ``begin_op`` and
``end_op``), so checks and set-up done by the benchmark stay untraced.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter
from types import GeneratorType

ROOT = "bench.op"

# (module, attribute, span name); a dotted attribute is a method
TRACED = (
    ("cli", "main", "cli.main"),
    ("verify", "census_equivalence_classes", "verify.census_equivalence_classes"),
    ("verify", "census_characteristic_set", "verify.census_characteristic_set"),
    ("verify", "lattice_scan", "verify.lattice_scan"),
    ("verify", "relaxation_comparison", "verify.relaxation_comparison"),
    ("verify", "soundness_check", "verify.soundness_check"),
    ("digraph", "enumerate_dags", "digraph.enumerate_dags"),
    ("setfam", "enumerate_antichains", "setfam.enumerate_antichains"),
    ("constraint", "assemble_system", "constraint.assemble_system"),
    ("constraint", "ConstraintSystem.to_json_dict", "constraint.to_json_dict"),
    ("constraint", "supermodular_rays", "constraint.supermodular_rays"),
    ("constraint", "conic_decompose", "constraint.conic_decompose"),
    ("encode", "superset_moebius", "encode.superset_moebius"),
    ("encode", "u_from_characteristic", "encode.u_from_characteristic"),
    ("exactlin", "feasible_nonneg_solution", "exactlin.feasible_nonneg_solution"),
    ("exactlin", "hermite_normal_form", "exactlin.hermite_normal_form"),
    ("exactlin", "is_unimodular_full_row_rank", "exactlin.is_unimodular_full_row_rank"),
    ("exactlin", "is_totally_unimodular_small", "exactlin.is_totally_unimodular_small"),
)


def _count_scan(counts, report):
    counts["verify.box_points"] += report.counts["box_points"]
    counts["verify.satisfying"] += report.counts["satisfying"]


def _count_soundness(counts, report):
    counts["verify.structures"] += report.counts["structures"]


def _count_rows(counts, system):
    counts["constraint.rows"] += len(system)


def _count_rays(counts, rays):
    counts["constraint.rays"] += len(rays)


def _count_feasible(counts, solution):
    counts["exactlin.feasible"] += solution is not None


def _count_minors(counts, verdict):
    counts["exactlin.minors"] += verdict.minors_checked


# work counts read off a traced function's return value
RESULT_COUNTS = {
    "verify.lattice_scan": _count_scan,
    "verify.soundness_check": _count_soundness,
    "constraint.assemble_system": _count_rows,
    "constraint.supermodular_rays": _count_rays,
    "exactlin.feasible_nonneg_solution": _count_feasible,
    "exactlin.is_unimodular_full_row_rank": _count_minors,
    "exactlin.is_totally_unimodular_small": _count_minors,
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, package: str = "imsetpoly"):
        self.package = package
        self.names = [name for _, _, name in TRACED] + [ROOT]
        self.name_of = array("H")
        self.op_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.calls = _Counts()
        self.errors = _Counts()
        self.items = _Counts()
        self.counts = _Counts()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, name_index: int, now: float) -> int:
        span = len(self.start)
        self.name_of.append(name_index)
        self.op_of.append(self.op_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.stack.append(span)
        return span

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._open(len(self.names) - 1, perf_counter())

    def end_op(self) -> None:
        span = self.stack.pop()
        now = perf_counter()
        self.end[span] = now
        self.busy[span] = now - self.start[span]
        self.stack.clear()
        self.op_id = -1

    # -- wrappers

    def _wrap(self, fn, name: str, name_index: int):
        stack = self.stack
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            t0 = perf_counter()
            span = self._open(name_index, t0)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[span] = t1
                self.busy[span] = t1 - t0
            if isinstance(result, GeneratorType):
                return self._traced_generator(result, name, span)
            if count is not None:
                count(self.counts, result)
            return result

        return wrapper

    def _traced_generator(self, gen, name: str, span: int):
        stack, busy, end = self.stack, self.busy, self.end
        items = 0
        try:
            while True:
                stack.append(span)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except Exception:
                    self.errors[name] += 1
                    raise
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    busy[span] += t1 - t0
                    end[span] = t1
                items += 1
                yield item
        finally:
            self.items[name] += items

    def install(self) -> None:
        """Replace every traced function in every loaded package module."""
        modules = [
            m for key, m in sys.modules.items()
            if key == self.package or key.startswith(self.package + ".")
        ]
        for index, (module, attribute, name) in enumerate(TRACED):
            home = sys.modules[f"{self.package}.{module}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, index))
                continue
            original = getattr(home, attribute)
            wrapper = self._wrap(original, name, index)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- analysis

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time (busy time less the busy time of
        child spans), and summed busy time of the spans not nested in a span
        of the same name (inclusive time)."""
        own = array("d", self.busy)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.busy[span]
        self_total = {name: 0.0 for name in self.names}
        inclusive = {name: 0.0 for name in self.names}
        # bit k of on_path[span] is set when the name with index k occurs on
        # the path from the root to the span
        on_path: list[int] = []
        for span, (index, parent) in enumerate(zip(self.name_of, self.parent)):
            bit = 1 << index
            above = on_path[parent] if parent >= 0 else 0
            on_path.append(above | bit)
            name = self.names[index]
            self_total[name] += own[span]
            if not above & bit:
                inclusive[name] += self.busy[span]
        return self_total, inclusive

    def write(self, path) -> None:
        """Write every span as one tab-separated line of a gzip file."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart\tend\tbusy\n")
            for span in range(len(self.start)):
                fh.write(
                    f"{span}\t{self.op_of[span]}\t{self.parent[span]}\t"
                    f"{self.names[self.name_of[span]]}\t{self.start[span]!r}\t"
                    f"{self.end[span]!r}\t{self.busy[span]!r}\n"
                )
