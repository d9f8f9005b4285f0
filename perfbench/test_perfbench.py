"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import run
import spans

sys.path.insert(0, str(run.SRC))


def _one_cycle(workload, tracer=None):
    _, _, cycle = run.setup(workload, seed=3)
    if tracer is not None:
        tracer.install()
    try:
        return run.measure(cycle, 0.0, random.Random(0), tracer)
    finally:
        if tracer is not None:
            tracer.restore()


def test_second_census_op_pays_the_census_again():
    # without clearing verify._census_data, op 2 would be a cache lookup
    # (milliseconds) instead of a full n = 5 census
    _, _, cycle = run.setup("census-n5", seed=1)
    first, second = (run.measure(cycle, 0.0, random.Random(0))[0] for _ in range(2))
    assert first.error is None and second.error is None
    assert first.wall_s > 0.1
    assert 0.5 < second.wall_s / first.wall_s < 2.0


def test_traced_counts_and_self_times():
    tracer = spans.Tracer()
    ops = _one_cycle("census-n5", tracer) + _one_cycle("certify", tracer)
    assert all(op.error is None for op in ops)
    assert tracer.items["digraph.enumerate_dags"] == jobs.DAGS[5]
    assert tracer.calls["digraph.enumerate_dags"] == 1
    assert tracer.counts["constraint.rays"] == jobs.RAYS_N4
    assert tracer.calls["constraint.supermodular_rays"] == 1
    own, inclusive = tracer.totals()
    # self times of all spans add up to the traced op wall time
    assert sum(own.values()) == pytest.approx(inclusive[spans.ROOT], rel=1e-9)
    assert inclusive[spans.ROOT] == pytest.approx(sum(op.wall_s for op in ops), rel=0.02)
    # the originals are back once the tracer is removed
    import imsetpoly.verify

    assert not hasattr(imsetpoly.verify.enumerate_dags, "__wrapped__")


def test_wrong_output_fails_the_op():
    good = jobs.CliResult(0, json.dumps(
        {"passed": True, "counts": {"dags": 29281, "classes": 8782}}))
    bad = jobs.CliResult(0, json.dumps(
        {"passed": True, "counts": {"dags": 29281, "classes": 8781}}))
    cycle = [jobs.Job("census-n5", lambda r=r: r, jobs._check_census(5)) for r in (good, bad)]
    ops = run.measure(cycle, 0.0, random.Random(0))
    assert sorted(op.error is None for op in ops) == [False, True]
    assert [op.counts for op in ops if op.error is None] == [{"dags": 29281, "classes": 8782}]


def test_host_normalized_times_follow_the_reference():
    # the host halves its speed after op 5: op and reference times double
    walls = [1.0] * 5 + [2.0] * 5
    refs = [0.01] * 5 + [0.02] * 5
    scaled = run.host_normalized(walls, refs)
    assert scaled[0] == pytest.approx(scaled[-1])
    assert scaled[0] == pytest.approx(run.NOMINAL_REF_S / 0.01)
    p50, aligned = run.job_aligned(["a", "b", "a", "b"], [1.0, 4.0, 1.0, 8.0])
    assert p50 == pytest.approx(2.0 * 6 ** 0.5 / 2)
    assert aligned == pytest.approx([p50, p50 * 4 / 6, p50, p50 * 8 / 6])


def test_jobs_per_s_is_the_median_over_cycles():
    # cycles of two ops; the third cycle has a stall, the fourth a failure
    walls = [0.5, 0.5, 0.5, 0.5, 0.5, 4.5, 0.5, 0.5, 0.5, 0.5]
    ops = [run.Op("a", w, None, {}, run.NOMINAL_REF_S) for w in walls]
    ops[6].error = "check failed"
    assert run.jobs_per_s(ops, 2) == pytest.approx(2.0)


def test_tail_percentile():
    xs = [float(k) for k in range(36)]
    assert run.tail(xs) == (72, 25.0, 10)
    assert run.tail(xs[:11]) == (9, 0.0, 10)
    assert run.tail(xs[:5]) == (0, 0.0, 4)


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in run.LAYER_METRICS]
    metrics, _ = run.end_to_end([run.Op("x", 1.0, None, {}, 0.01)], 1, [0.5], [0.01])
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(metrics)
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-n5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
