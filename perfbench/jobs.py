"""Job lists of the benchmark workloads and the checks on their outputs.

A workload is one cycle of jobs; run.py repeats the cycle, in a seeded
order, for about the run's time.  A job with seeded inputs (a batch of LP
points or of dual vectors, a soundness row sample) holds a pool of
INPUT_POOL of them and takes the next on every call, so a run meets several
times as many inputs as one cycle holds and its figures depend less on one
draw.  Every job is one op: a call, or a batch of BATCH calls, into a
public entry point of ``imsetpoly.cli``, ``imsetpoly.verify``,
``imsetpoly.constraint`` or ``imsetpoly.exactlin``.  Each op's output is
checked against a value known without the program (an OEIS count, a
closed-form count, or a recomputation in this file's own arithmetic), so a
change that speeds an op up by getting it wrong is counted as a failure.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

WORKLOADS = ("census-n5", "scan-n4", "rows-n5", "certify")

# OEIS A003024: labelled acyclic digraphs on n nodes.
DAGS = {4: 543, 5: 29281}
# OEIS A007984: their Markov equivalence classes.
CLASSES = {4: 185, 5: 8782}
# Dedekind numbers (OEIS A000372) less the two antichains that are empty or
# hold the empty set: the antichains of non-empty subsets.
ANTICHAINS = {4: 166, 5: 7579}
# Extreme rays of the standardized supermodular cone at n = 4
# (Studeny, Bouckaert & Kocka 2000).
RAYS_N4 = 37

SOUNDNESS_SAMPLE = 30
SAMPLED_MINORS = 500
LP_POINTS = 48
DUAL_VECTORS = 12
# LP points and dual vectors solved back to back in one op: one 8-25 ms
# solve is short enough that a scheduler stall or an unusually slow input
# sets the tail of a whole run
BATCH = 4
# inputs each seeded job takes in turn, one per call
INPUT_POOL = 8


class CheckFailed(Exception):
    """An op's output differs from its independently known value."""


class CliResult(NamedTuple):
    exit_code: int
    stdout: str


@dataclass
class Job:
    """One op.  ``run`` is the timed call; ``check`` validates its result
    and returns the report counts to record."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rotating(inputs: list, run_one: Callable, check_one: Callable):
    """A job's run and check: each run takes the next of ``inputs`` and
    returns it with its result, and check validates the result for it."""
    turn = itertools.count()

    def run():
        item = inputs[next(turn) % len(inputs)]
        return item, run_one(item)

    def check(result) -> dict:
        item, value = result
        return check_one(item, value)

    return run, check


def _cli_run(mods, argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mods.cli.main(argv)
        return CliResult(code, out.getvalue())

    return run


def _cli_json(result: CliResult, exit_code: int = 0) -> dict:
    _expect(
        result.exit_code == exit_code,
        f"exit code {result.exit_code}, expected {exit_code}",
    )
    return json.loads(result.stdout)


# ---------------------------------------------------------------------------
# independent arithmetic over subsets of {0..n-1} as bit masks


def _nonempty(n: int) -> range:
    return range(1, 1 << n)


def _p2(n: int) -> list[int]:
    return [m for m in range(1 << n) if m.bit_count() >= 2]


def _box_volume(n: int, zero_one: bool) -> int:
    volume = 1
    for m in _p2(n):
        volume *= 2 if zero_one else 2 ** (m.bit_count() - 2) + 1
    return volume


def _antichains(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def extend(chosen: list[int], start: int) -> None:
        for cand in range(start, 1 << n):
            if all(s & cand not in (s, cand) for s in chosen):
                chosen.append(cand)
                out.append(tuple(chosen))
                extend(chosen, cand + 1)
                chosen.pop()

    extend([], 1)
    return out


def _up_closure(n: int, sets) -> list[int]:
    return [t for t in _nonempty(n) if any(s & t == s for s in sets)]


def _u_of_point(n: int, point) -> list[int]:
    """u(T) = sum over supersets S of T of (-1)^(|S|-|T|) (1 - c(S)), with
    1 - c read as 0 on subsets of fewer than two members."""
    one_minus_c = [0] * (1 << n)
    for m, v in zip(_p2(n), point):
        one_minus_c[m] = 1 - v
    full = (1 << n) - 1
    u = []
    for t in range(1 << n):
        rest = full & ~t
        total, s = 0, rest
        while True:
            sign = -1 if s.bit_count() % 2 else 1
            total += sign * one_minus_c[t | s]
            if s == 0:
                break
            s = (s - 1) & rest
        u.append(total)
    return u


def _matrix_a(n: int) -> list[list[int]]:
    """Rows: non-empty T; columns: pairs (i|B), B a subset of N minus i,
    by i then B; singleton rows mark i, larger rows hold [T = B+i] - [T = B]."""
    pairs = [(i, b) for i in range(n) for b in range(1 << n) if not b >> i & 1]
    rows = []
    for t in _nonempty(n):
        if t.bit_count() == 1:
            rows.append([1 if t == 1 << i else 0 for i, _ in pairs])
        else:
            rows.append([(b | 1 << i == t) - (b == t) for i, b in pairs])
    return rows


def _b_u(n: int, u: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [1 if t.bit_count() == 1 else (t == full) - u[t] for t in _nonempty(n)]


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _y_of_antichain(n: int, sets) -> list[Fraction]:
    """Extreme dual vector of the class closed upward from the antichain."""
    closure = set(_up_closure(n, sets))
    singletons = [s for s in closure if s.bit_count() == 1]
    y = [Fraction(0)] * (1 << n)
    for t in _nonempty(n):
        y[t] = Fraction(
            (t in closure) - sum(1 for s in singletons if s != t and s & t == s)
        )
    return y


def _is_supermodular(n: int, m: list[int]) -> bool:
    return all(
        m[a | b] + m[a & b] >= m[a] + m[b]
        for a in range(1 << n)
        for b in range(a + 1, 1 << n)
    )


def _random_dag_point(n: int, rng: random.Random) -> tuple[int, ...]:
    """Characteristic imset of a random acyclic digraph:
    c(S) = 1 when some i in S has S minus i among its parents, else 0."""
    order = list(range(n))
    rng.shuffle(order)
    parents = [0] * n
    for k, node in enumerate(order):
        for earlier in order[:k]:
            if rng.random() < 0.5:
                parents[node] |= 1 << earlier
    return tuple(
        int(any(s >> i & 1 and (s & ~(1 << i)) & ~parents[i] == 0 for i in range(n)))
        for s in _p2(n)
    )


def _random_box_point(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(0, 2 ** (m.bit_count() - 2)) for m in _p2(n))


# ---------------------------------------------------------------------------
# checks


def _check_census(n: int):
    def check(result: CliResult) -> dict:
        report = _cli_json(result)
        _expect(report["passed"], "census did not pass")
        _expect(
            report["counts"] == {"dags": DAGS[n], "classes": CLASSES[n]},
            f"census counts {report['counts']}",
        )
        return report["counts"]

    return check


def _check_scan(n: int, zero_one: bool, rows: int):
    def check(result: CliResult) -> dict:
        report = _cli_json(result)
        counts = report["counts"]
        _expect(report["passed"], "scan did not pass")
        expected = {
            "box_points": _box_volume(n, zero_one),
            "rows": rows,
            "satisfying": CLASSES[n],
            "census_classes": CLASSES[n],
            "intersection": CLASSES[n],
            "extra": 0,
            "missing": 0,
        }
        _expect(counts == expected, f"scan counts {counts}")
        return counts

    return check


def _check_compare(n: int):
    def check(result: CliResult) -> dict:
        report = _cli_json(result)
        counts = report["counts"]
        _expect(report["passed"], "relaxation comparison did not pass")
        expected = {
            "nonspecific_relaxation_points": CLASSES[n],
            "cluster_relaxation_points": CLASSES[n],
            "census_classes": CLASSES[n],
            "leaked": 0,
        }
        _expect(counts == expected, f"comparison counts {counts}")
        return counts

    return check


def _check_soundness(n: int, sample: int):
    def check(sample_seed, report) -> dict:
        _expect(report.passed, f"soundness witnesses {report.witnesses[:2]}")
        # n + 1 standardization equalities, the sampled specific rows, and
        # one cluster row per subset of two or more members
        rows = n + 1 + sample + (1 << n) - n - 1
        expected = {"structures": CLASSES[n], "rows": rows}
        _expect(report.counts == expected, f"soundness counts {report.counts}")
        return dict(report.counts)

    return check


def _check_constraints(expected_tags: dict[str, int]):
    def check(result: CliResult) -> dict:
        system = _cli_json(result)
        tags: dict[str, int] = {}
        for row in system["rows"]:
            family = row["tag"].split(":", 1)[0]
            tags[family] = tags.get(family, 0) + 1
        _expect(tags == expected_tags, f"row families {tags}")
        return {"rows": len(system["rows"]), **tags}

    return check


def _check_rays(n: int):
    def check(result: CliResult) -> dict:
        rays = _cli_json(result)
        _expect(len(rays) == RAYS_N4, f"{len(rays)} rays")
        # entries are keyed by subsets of the default labels a, b, c, ...
        index = {",".join(chr(ord("a") + i) for i in range(n) if m >> i & 1): m
                 for m in range(1 << n)}
        seen = set()
        for ray in rays:
            m = [0] * (1 << n)
            for key, v in ray["entries"].items():
                _expect(index[key].bit_count() >= 2, f"ray entry at {key}")
                m[index[key]] = v
            _expect(any(m) and _is_supermodular(n, m), f"ray {ray} not supermodular")
            seen.add(tuple(m))
        _expect(len(seen) == len(rays), "duplicate rays")
        return {"rays": len(rays)}

    return check


def _check_unimodular_exhaustive(n: int):
    rows = (1 << n) - 1
    cols = n << (n - 1)

    def check(result: CliResult) -> dict:
        report = _cli_json(result)
        detail = report["detail"]
        _expect(report["passed"] and detail["unimodular"] is True, "not unimodular")
        _expect(detail["mode"] == "exhaustive", f"mode {detail['mode']}")
        _expect(
            detail["minors_checked"] == comb(cols, rows),
            f"{detail['minors_checked']} minors checked",
        )
        return {"minors_checked": detail["minors_checked"]}

    return check


def _check_tu_witness(n: int):
    a = _matrix_a(n)

    def check(result: CliResult) -> dict:
        # matrix A is not totally unimodular: exit 1 with a witness is the
        # correct answer
        report = _cli_json(result, exit_code=1)
        detail = report["detail"]
        _expect(detail["totally_unimodular"] is False, "claimed totally unimodular")
        det = _det([[a[i][j] for j in detail["witness_cols"]]
                    for i in detail["witness_rows"]])
        _expect(det == detail["witness_det"] and abs(det) >= 2, f"witness det {det}")
        return {"minors_checked": detail["minors_checked"], "witness_det": int(det)}

    return check


def _check_hnf(n: int):
    def check(result: CliResult) -> dict:
        report = _cli_json(result)
        detail = report["detail"]
        rank = (1 << n) - 1
        _expect(report["passed"] and detail["identity_then_zero_columns"], "hnf")
        _expect(detail["rank"] == rank and detail["pivots"] == [1] * rank,
                f"hnf rank {detail['rank']}")
        return {"rank": detail["rank"]}

    return check


def _check_products(result: CliResult) -> dict:
    report = _cli_json(result)
    _expect(report["passed"], "products check did not pass")
    _expect(report["detail"] == {"B_equals_C_times_A": True}, f"{report['detail']}")
    return report["detail"]


def _check_sampled_minors(samples: int):
    def check(verdict) -> dict:
        # A is unimodular at n = 4 (its Hermite form is [I 0]), so no
        # sampled maximal minor may lie outside {-1, 0, 1}
        _expect(verdict.mode == "sampled" and verdict.unimodular is None,
                f"verdict {verdict}")
        _expect(verdict.minors_checked == samples,
                f"{verdict.minors_checked} minors checked")
        return {"minors_checked": verdict.minors_checked}

    return check


class _LpOracle:
    """Expected Phase-I verdicts: x >= 0 with A x = b_u exists exactly when u
    satisfies the standardization equalities and every specific row, i.e.
    the sum of u over each upward-closed class of non-empty sets is <= 1."""

    def __init__(self, n: int):
        self.n = n
        self.a = _matrix_a(n)
        self._closures = None

    def verdict(self, u: list[int]) -> bool:
        if self._closures is None:
            self._closures = [_up_closure(self.n, s) for s in _antichains(self.n)]
        standardized = sum(u) == 0 and all(
            sum(u[t] for t in range(1 << self.n) if t >> j & 1) == 0
            for j in range(self.n)
        )
        return standardized and all(sum(u[t] for t in c) <= 1 for c in self._closures)

    def check(self, point, x) -> dict:
        n = self.n
        u = _u_of_point(n, point)
        expected = self.verdict(u)
        _expect((x is not None) == expected, f"LP verdict {x is not None} at {point}")
        if x is not None:
            b = _b_u(n, u)
            values = x.values
            _expect(all(v >= 0 for v in values), "negative LP solution")
            _expect(
                all(sum(c * v for c, v in zip(row, values)) == rhs
                    for row, rhs in zip(self.a, b)),
                "LP solution does not solve A x = b",
            )
        return {"feasible": expected}


def _lp_job(mods, ground, batches, oracle: _LpOracle) -> Job:
    def solve(points):
        solutions = []
        for point in points:
            c = mods.encode.CharacteristicImset(ground, point)
            u = mods.encode.u_from_characteristic(c)
            a = mods.exactlin.build_matrix_A(ground)
            solutions.append(
                mods.exactlin.feasible_nonneg_solution(a, mods.exactlin.build_b_u(u))
            )
        return solutions

    def check(points, solutions) -> dict:
        checked = [oracle.check(p, x) for p, x in zip(points, solutions, strict=True)]
        return {"feasible": sum(c["feasible"] for c in checked)}

    return Job("lp-n4", *_rotating(batches, solve, check))


def _dual_vector(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """A positive combination of one to five extreme dual vectors."""
    masks = list(_nonempty(n))
    y = [Fraction(0)] * (1 << n)
    for _ in range(rng.randint(1, 5)):
        picks = rng.sample(masks, rng.randint(1, 3))
        sets = tuple(s for s in picks if not any(t != s and t & s == t for t in picks))
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for t, v in enumerate(_y_of_antichain(n, sets)):
            y[t] += weight * v
    return tuple(y)


def _decompose_job(mods, ground, n: int, batches) -> Job:
    def decompose(ys):
        return [
            mods.constraint.conic_decompose(mods.constraint.DualVector(ground, y))
            for y in ys
        ]

    def check(ys, decompositions) -> dict:
        for y, terms in zip(ys, decompositions, strict=True):
            rebuilt = [Fraction(0)] * (1 << n)
            for antichain, weight in terms:
                _expect(weight > 0, f"weight {weight}")
                for t, v in enumerate(_y_of_antichain(n, antichain.sets)):
                    rebuilt[t] += weight * v
            _expect(tuple(rebuilt) == y, "decomposition does not rebuild its input")
        return {"terms": sum(len(terms) for terms in decompositions)}

    return Job("decompose-n4", *_rotating(batches, decompose, check))


# ---------------------------------------------------------------------------
# workloads


def build(workload: str, mods, seed: int) -> list[Job]:
    """The job list of one cycle of the workload.  The seed picks the
    soundness row samples, the sampled-minor seed, the LP points and the
    dual vectors; the program sees only these generated inputs."""
    rng = random.Random(seed)

    def cli(label: str, command: str, check) -> Job:
        return Job(label, _cli_run(mods, command.split()), check)

    if workload == "census-n5":
        return [cli("census-n5", "census --n 5", _check_census(5))]
    if workload == "scan-n4":
        return [
            cli("scan-c-default", "scan --n 4 --framework c",
                _check_scan(4, False, ANTICHAINS[4] + 11)),
            cli("scan-u-01", "scan --n 4 --framework u --box 01 "
                "--families equality,specific,nonspecific",
                _check_scan(4, True, 5 + ANTICHAINS[4] + RAYS_N4)),
            cli("scan-u-default", "scan --n 4 --framework u",
                _check_scan(4, False, 5 + ANTICHAINS[4] + RAYS_N4 + 11)),
            cli("compare-relaxations", "compare-relaxations --n 4", _check_compare(4)),
        ]
    if workload == "rows-n5":
        ground = mods.setfam.GroundSet.of_size(5)
        sample_seeds = [rng.randrange(1 << 30) for _ in range(INPUT_POOL)]

        def soundness(sample_seed):
            return mods.verify.soundness_check(
                ground, specific_sample=SOUNDNESS_SAMPLE, seed=sample_seed
            )

        return [
            Job("soundness-n5", *_rotating(
                sample_seeds, soundness, _check_soundness(5, SOUNDNESS_SAMPLE))),
            cli("constraints-c-n5", "constraints --n 5 --framework c",
                _check_constraints({"kappa-specific": ANTICHAINS[5], "cluster-c": 26})),
            cli("constraints-u-n5", "constraints --n 5 --framework u "
                "--families equality,specific,cluster-u",
                _check_constraints(
                    {"equality": 6, "specific": ANTICHAINS[5], "cluster-u": 26}
                )),
        ]
    if workload == "certify":
        ground = mods.setfam.GroundSet.of_size(4)
        oracle = _LpOracle(4)
        points = [
            _random_dag_point(4, rng) if k % 2 else _random_box_point(4, rng)
            for k in range(LP_POINTS * INPUT_POOL)
        ]
        minor_seed = rng.randrange(1 << 30)

        def sampled_minors():
            return mods.exactlin.is_unimodular_full_row_rank(
                mods.exactlin.build_matrix_A(ground),
                mode="sampled", samples=SAMPLED_MINORS, seed=minor_seed,
            )

        vectors = [_dual_vector(4, rng) for _ in range(DUAL_VECTORS * INPUT_POOL)]

        def batches(inputs: list, per_cycle: int, job: int) -> list[tuple]:
            # job k of a cycle takes the k-th BATCH inputs of each of the
            # INPUT_POOL slices of per_cycle inputs in turn
            return [
                tuple(inputs[start + job * BATCH: start + (job + 1) * BATCH])
                for start in range(0, per_cycle * INPUT_POOL, per_cycle)
            ]

        return (
            [
                _lp_job(mods, ground, batches(points, LP_POINTS, k), oracle)
                for k in range(LP_POINTS // BATCH)
            ]
            + [
                _decompose_job(mods, ground, 4, batches(vectors, DUAL_VECTORS, k))
                for k in range(DUAL_VECTORS // BATCH)
            ]
            + [
                cli("minors-a-n3", "matrix --which A --n 3 --check unimodular",
                    _check_unimodular_exhaustive(3)),
                Job("minors-a-n4-sampled", sampled_minors,
                    _check_sampled_minors(SAMPLED_MINORS)),
                cli("tu-a-n3", "matrix --which A --n 3 --check tu", _check_tu_witness(3)),
                cli("hnf-a-n5", "matrix --which A --n 5 --check hnf", _check_hnf(5)),
                cli("products-a-n5", "matrix --which A --n 5 --check products",
                    _check_products),
                cli("rays-dd-n4", "rays --n 4 --method dd", _check_rays(4)),
            ]
        )
    raise ValueError(f"unknown workload {workload!r}")
