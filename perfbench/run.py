"""Benchmark runner for imsetpoly.

    python3 perfbench/run.py --workload census-n5 --seed 1 --seconds 30 --trace 0

A single process with one client runs a closed loop: it repeats the
workload's cycle of jobs (see jobs.py), one op at a time and in a seeded
order, for about ``--seconds``; a run holds whole cycles only, so every run
has the same mix of ops.  Before every op it clears every functools cache
in the package and collects garbage, so each op pays the work a one-shot
command-line run pays (``verify._census_data`` would otherwise turn a
repeated census into a dictionary lookup).  Every op's output is checked;
an op that raises or fails its check counts as failed and its time is left
out of the op-time statistics.

The host this was built on changes speed by up to 1.8x from one minute to
the next, in process CPU time as well as wall time.  So right before every
op (and every set-up) the runner times a fixed pure-Python reference task
that uses no program code, and the end-to-end times are host-normalized:
each op's wall time is scaled by ``NOMINAL_REF_S`` over the median
reference time of the ops around it.  They read as seconds on a host where
the reference task takes ``NOMINAL_REF_S``; a program that gets slower still
shows in full, since the reference task does not run its code.  The raw
wall times are kept in the run's record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (spans.py) and reports the per-layer
metrics, including the tracing overhead.  Each run writes a record with
the host, the git sha and every job's report counts to
``perfbench/results/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PACKAGE = "imsetpoly"
MODULES = ("cli", "verify", "constraint", "exactlin", "encode", "setfam", "digraph")
SETUP_REPEATS = 11
TAIL_BEYOND = 10
# reference_work() time on this host when it ran at its usual speed; the
# end-to-end times are scaled to a host on which it takes this long
NOMINAL_REF_S = 0.012
# reference samples on each side of an op that set its host speed
REF_WINDOW = 3

# (name, unit, better) of the per-layer metrics a traced run reports
LAYER_METRICS = (
    ("cli.self_s", "s/op", "lower"),
    ("cli.stdout_bytes", "bytes/call", "lower"),
    ("verify.census.self_s", "s/op", "lower"),
    ("verify.scan.self_s", "s/op", "lower"),
    ("verify.compare.self_s", "s/op", "lower"),
    ("verify.soundness.self_s", "s/op", "lower"),
    ("verify.box_points", "count/call", "lower"),
    ("verify.hit_ratio", "ratio", "higher"),
    ("verify.structures", "count/call", "lower"),
    ("digraph.enumerate_dags.s", "s/op", "lower"),
    ("digraph.dags", "count/call", "lower"),
    ("setfam.enumerate_antichains.s", "s/op", "lower"),
    ("setfam.antichains", "count/call", "lower"),
    ("constraint.assemble_system.s", "s/op", "lower"),
    ("constraint.rows", "count/call", "lower"),
    ("constraint.to_json_dict.s", "s/op", "lower"),
    ("constraint.supermodular_rays.s", "s/op", "lower"),
    ("constraint.rays", "count/call", "lower"),
    ("constraint.conic_decompose.s", "s/op", "lower"),
    ("encode.superset_moebius.s", "s/op", "lower"),
    ("encode.superset_moebius.calls", "count/op", "lower"),
    ("encode.u_from_characteristic.s", "s/op", "lower"),
    ("exactlin.feasible_nonneg_solution.s", "s/op", "lower"),
    ("exactlin.feasible_nonneg_solution.calls", "count/op", "lower"),
    ("exactlin.feasible_ratio", "ratio", "higher"),
    ("exactlin.hermite_normal_form.s", "s/op", "lower"),
    ("exactlin.minor_scan.s", "s/op", "lower"),
    ("exactlin.minors", "count/call", "lower"),
    ("host.calib_s", "s", "lower"),
    ("trace.overhead", "ratio", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
) + tuple((f"{name}.errors", "count", "lower") for _, _, name in spans.TRACED)


@dataclass
class Op:
    label: str
    wall_s: float
    error: str | None
    counts: dict | None
    ref_s: float  # reference_work() time measured right before the op


# ---------------------------------------------------------------------------
# host record


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_work() -> float:
    """Time a fixed pure-Python task that calls no program code: integer
    arithmetic, a dict keyed by tuples, a sort and a set of frozensets,
    about NOMINAL_REF_S on this host."""
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc + i * i) % 1_000_003
    table: dict[tuple[int, int], int] = {}
    for i in range(6_000):
        k = (i * 7919) % 4093
        table[k, k >> 3] = table.get((k, k >> 3), 0) + 1
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    distinct = {frozenset(range(j % 7)) for j in range(3_000)}
    elapsed = perf_counter() - t0
    if acc < 0 or len(ordered) != len(table) or len(distinct) != 7:
        raise RuntimeError("reference task computed a wrong result")
    return elapsed


def host_normalized(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time scaled by NOMINAL_REF_S over the median reference time
    of the samples within REF_WINDOW positions of it."""
    out = []
    for i, wall in enumerate(walls):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(wall * NOMINAL_REF_S / statistics.median(near))
    return out


# ---------------------------------------------------------------------------
# set-up and the measured loop


def import_package():
    """Import the package afresh, as a new process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


def setup(workload: str, seed: int):
    """Import the package and build the workload's jobs, SETUP_REPEATS
    times, each after a reference sample; returns the set-up times, the
    reference times and the last set-up's jobs."""
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_work())
        t0 = perf_counter()
        mods = import_package()
        cycle = jobs.build(workload, mods, seed)
        times.append(perf_counter() - t0)
    return times, refs, cycle


def clear_caches() -> None:
    """Empty every functools cache held by a package module."""
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    value.cache_clear()


def measure(cycle, seconds: float, order: random.Random, tracer=None) -> list[Op]:
    """Run whole cycles of the jobs, starting another cycle while at least
    half a mean cycle of ``seconds`` remains, so the run lasts about
    ``seconds`` and holds whole cycles only."""
    ops: list[Op] = []
    start = perf_counter()
    cycles = 0
    while True:
        picks = list(range(len(cycle)))
        order.shuffle(picks)
        for k in picks:
            job = cycle[k]
            clear_caches()
            gc.collect()
            ref = reference_work()
            if tracer is not None:
                tracer.begin_op(len(ops))
            t0 = perf_counter()
            try:
                result, error = job.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
                if isinstance(result, jobs.CliResult):
                    tracer.counts["cli.stdout_bytes"] += len(result.stdout.encode())
            counts = None
            if error is None:
                try:
                    counts = job.check(result)
                except jobs.CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception as exc:  # malformed output fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
            ops.append(Op(job.label, wall, error, counts, ref))
            # an output held through the next op (2.6 MB of JSON from
            # constraints --n 5) would raise peak memory by an amount that
            # depends on the seeded job order
            result = None
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            return ops


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile (nearest rank) with at least
    TAIL_BEYOND samples beyond its rank, its value, and how many samples lie
    beyond it.  With too few samples for any such percentile: percentile 0,
    the minimum."""
    xs = sorted(times)
    n = len(xs)
    p = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    rank = max(1, -(-p * n // 100))
    return p, xs[rank - 1], n - rank


def op_times(ops: list[Op]) -> list[float]:
    """Host-normalized time of every op, in order."""
    return host_normalized([op.wall_s for op in ops], [op.ref_s for op in ops])


def jobs_per_s(ops: list[Op], per_cycle: int) -> float:
    """Good ops per second of host-normalized time in each whole cycle of
    the run, the median over the cycles: a host stall that the reference
    samples miss slows one or two cycles and does not move the median."""
    times = op_times(ops)
    rates = []
    for start in range(0, len(ops), per_cycle):
        good = sum(op.error is None for op in ops[start:start + per_cycle])
        rates.append(good / sum(times[start:start + per_cycle]))
    return statistics.median(rates)


def job_aligned(labels: list[str], times: list[float]) -> tuple[float, list[float]]:
    """The geometric mean of each job's median op time, and every op time
    rescaled so that its job's median lands on that mean.  A percentile of
    the raw times of a cycle of unlike jobs sits on the boundary between two
    jobs and jumps between them as the number of cycles in a run changes;
    a percentile of the aligned times does not."""
    by_job: dict[str, list[float]] = {}
    for label, t in zip(labels, times):
        by_job.setdefault(label, []).append(t)
    medians = {label: statistics.median(ts) for label, ts in by_job.items()}
    gmean = statistics.geometric_mean(medians.values())
    return gmean, [t * gmean / medians[label] for label, t in zip(labels, times)]


def end_to_end(ops: list[Op], per_cycle: int, setup_times: list[float],
               setup_refs: list[float]) -> tuple[dict, dict]:
    timed = list(zip((op.label for op in ops), op_times(ops)))
    good = [lt for lt, op in zip(timed, ops) if op.error is None] or timed
    labels, times = zip(*good)
    p50, aligned = job_aligned(list(labels), list(times))
    percentile, tail_value, beyond = tail(aligned)
    metrics = {
        "jobs_per_s": (jobs_per_s(ops, per_cycle), "1/s"),
        "op_s.p50_gm": (p50, "s"),
        "op_s.tail_gm": (tail_value, "s"),
        "setup_s": (statistics.median(host_normalized(setup_times, setup_refs)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    about_tail = {"percentile": percentile, "samples": len(aligned), "beyond": beyond}
    return metrics, about_tail


def per_layer(tracer, traced: list[Op], untraced: list[Op], per_cycle: int,
              calib_s: float) -> dict:
    own, inclusive = tracer.totals()
    calls, items, counts = tracer.calls, tracer.items, tracer.counts
    n_ops = len(traced)

    def per_op(value):
        return value / n_ops

    def per_call(value, *names):
        made = sum(calls[name] for name in names)
        return value / made if made else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {
        "cli.self_s": per_op(own["cli.main"]),
        "cli.stdout_bytes": per_call(counts["cli.stdout_bytes"], "cli.main"),
        "verify.census.self_s": per_op(
            own["verify.census_equivalence_classes"]
            + own["verify.census_characteristic_set"]
        ),
        "verify.scan.self_s": per_op(own["verify.lattice_scan"]),
        "verify.compare.self_s": per_op(own["verify.relaxation_comparison"]),
        "verify.soundness.self_s": per_op(own["verify.soundness_check"]),
        "verify.box_points": per_call(counts["verify.box_points"], "verify.lattice_scan"),
        "verify.hit_ratio": ratio(counts["verify.satisfying"], counts["verify.box_points"]),
        "verify.structures": per_call(counts["verify.structures"], "verify.soundness_check"),
        "digraph.enumerate_dags.s": per_op(inclusive["digraph.enumerate_dags"]),
        "digraph.dags": per_call(items["digraph.enumerate_dags"], "digraph.enumerate_dags"),
        "setfam.enumerate_antichains.s": per_op(inclusive["setfam.enumerate_antichains"]),
        "setfam.antichains": per_call(
            items["setfam.enumerate_antichains"], "setfam.enumerate_antichains"
        ),
        "constraint.assemble_system.s": per_op(inclusive["constraint.assemble_system"]),
        "constraint.rows": per_call(counts["constraint.rows"], "constraint.assemble_system"),
        "constraint.to_json_dict.s": per_op(inclusive["constraint.to_json_dict"]),
        "constraint.supermodular_rays.s": per_op(inclusive["constraint.supermodular_rays"]),
        "constraint.rays": per_call(counts["constraint.rays"], "constraint.supermodular_rays"),
        "constraint.conic_decompose.s": per_op(inclusive["constraint.conic_decompose"]),
        "encode.superset_moebius.s": per_op(inclusive["encode.superset_moebius"]),
        "encode.superset_moebius.calls": per_op(calls["encode.superset_moebius"]),
        "encode.u_from_characteristic.s": per_op(inclusive["encode.u_from_characteristic"]),
        "exactlin.feasible_nonneg_solution.s": per_op(
            inclusive["exactlin.feasible_nonneg_solution"]
        ),
        "exactlin.feasible_nonneg_solution.calls": per_op(
            calls["exactlin.feasible_nonneg_solution"]
        ),
        "exactlin.feasible_ratio": ratio(
            counts["exactlin.feasible"], calls["exactlin.feasible_nonneg_solution"]
        ),
        "exactlin.hermite_normal_form.s": per_op(inclusive["exactlin.hermite_normal_form"]),
        "exactlin.minor_scan.s": per_op(
            inclusive["exactlin.is_unimodular_full_row_rank"]
            + inclusive["exactlin.is_totally_unimodular_small"]
        ),
        "exactlin.minors": per_call(
            counts["exactlin.minors"],
            "exactlin.is_unimodular_full_row_rank",
            "exactlin.is_totally_unimodular_small",
        ),
        "host.calib_s": calib_s,
        "trace.overhead": ratio(
            jobs_per_s(traced, per_cycle), jobs_per_s(untraced, per_cycle)
        ),
        "trace.unattributed_share": ratio(own[spans.ROOT], inclusive[spans.ROOT]),
    }
    for _, _, name in spans.TRACED:
        metrics[f"{name}.errors"] = tracer.errors[name]
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: (value, units[name]) for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times, setup_refs, cycle = setup(args.workload, args.seed)
    order = random.Random(f"order-{args.seed}")
    tracer = None
    if args.trace:
        untraced = measure(cycle, args.seconds / 2, order)
        tracer = spans.Tracer(PACKAGE)
        tracer.install()
        try:
            traced = measure(cycle, args.seconds / 2, order, tracer)
        finally:
            tracer.restore()
        ops = untraced + traced
        calib_s = statistics.median(op.ref_s for op in ops)
        metrics = per_layer(tracer, traced, untraced, len(cycle), calib_s)
        about_tail = None
    else:
        ops = measure(cycle, args.seconds, order)
        calib_s = statistics.median(op.ref_s for op in ops)
        metrics, about_tail = end_to_end(ops, len(cycle), setup_times, setup_refs)

    failed = [op for op in ops if op.error is not None]
    counts: dict[str, list] = {}
    for op in ops:
        if op.counts is not None and op.counts not in counts.setdefault(op.label, []):
            counts[op.label].append(op.counts)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "calib_s": calib_s,
            "nominal_ref_s": NOMINAL_REF_S,
        },
        "cache_policy": "in-process; package functools caches cleared and "
        "gc.collect() run before every op",
        "setup_s_samples": setup_times,
        "setup_ref_s_samples": setup_refs,
        # label, raw wall time, reference time before the op
        "ops": [[op.label, op.wall_s, op.ref_s] for op in ops],
        "cycle_jobs": [job.label for job in cycle],
        "failed": len(failed),
        "failed_ratio": len(failed) / len(ops),
        "failures": [{"label": op.label, "error": op.error} for op in failed[:20]],
        "tail": about_tail,
        "metrics": reported,
        "counts": counts,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.tsv.gz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, {len(failed)} failed, host.calib_s {calib_s:.4f}")
    if not args.trace:
        print(f"  (times are host-normalized to a reference time of {NOMINAL_REF_S} s)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_s.tail_gm":
            note = (f"  (p{about_tail['percentile']} of {about_tail['samples']} good ops, "
                    f"{about_tail['beyond']} beyond it)")
        print(f"  {name:42s} {value:.6g} {unit}{note}")
    print(f"  {'failed_ratio':42s} {len(failed) / len(ops):.6g} ratio "
          f"({len(failed)} of {len(ops)} ops)")
    for op in failed[:5]:
        print(f"  failed {op.label}: {op.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
