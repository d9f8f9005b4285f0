"""Transformation matrices, Hermite normal form, minor scans, and the exact
nonnegative-feasibility solver."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from imsetpoly.digraph import enumerate_dags, enumerate_digraphs
from imsetpoly.encode import (
    eta_of,
    quasi_characteristic_of,
    u_from_characteristic,
    CharacteristicImset,
)
from imsetpoly.exactlin import (
    IntMatrix,
    MinorVerdict,
    RatVector,
    TotalUnimodularityVerdict,
    _echelon,
    _echelon_minors,
    _row_rank,
    build_b_u,
    build_matrix_A,
    build_matrix_B,
    build_matrix_B_bar,
    build_matrix_C,
    build_matrix_D,
    build_matrix_E,
    build_matrix_F,
    det_bareiss,
    e_column_for_pair,
    feasible_nonneg_solution,
    hermite_normal_form,
    hnf_rank,
    is_totally_unimodular_small,
    is_unimodular_full_row_rank,
)
from imsetpoly.setfam import GroundSet, eta_pairs, p1_masks, p2_masks
from imsetpoly.verify import EnumerationBox, census_characteristic_set

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)


def fraction_det(entries):
    """Oracle: Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in entries]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def fraction_pivot(rows, r, col):
    """Oracle: one Gauss-Jordan step over Fractions in place."""
    pv = rows[r][col]
    if pv != 1:
        rows[r] = [x / pv for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f != 0:
            rows[i] = [x - f * y for x, y in zip(row, prow)]


def fraction_rref(rows):
    """Oracle: reduced row echelon form over Fractions and its pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        if rank == len(work):
            break
        r = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if r is None:
            continue
        work[rank], work[r] = work[r], work[rank]
        fraction_pivot(work, rank, col)
        pivots.append(col)
    return work, pivots


def echelon_rref(rows):
    """_echelon's integer rows divided by their common denominator d."""
    work, pivots, d = _echelon(rows)
    return [[Fraction(x, d) for x in row] for row in work], pivots


def fraction_phase_one(m, b):
    """Oracle: Phase-I simplex on a Fraction tableau with Bland's rule, the
    same pivot path as feasible_nonneg_solution."""
    rows, cols = m.shape
    total = cols + rows
    tableau = []
    for i in range(rows):
        row = [Fraction(x) for x in m.entries[i]]
        rhs = b.values[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [Fraction(0)] * rows
        art[i] = Fraction(1)
        tableau.append(row + art + [rhs])
    basis = [cols + i for i in range(rows)]
    tableau.append([
        (Fraction(1) if cols <= j < total else Fraction(0))
        - sum(tableau[i][j] for i in range(rows))
        for j in range(total + 1)
    ])
    while True:
        enter = next((j for j in range(total) if tableau[rows][j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(rows):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        _, leave = best
        fraction_pivot(tableau, leave, enter)
        basis[leave] = enter
    if tableau[rows][total] != 0:
        return None
    x = [Fraction(0)] * cols
    for i, var in enumerate(basis):
        if var < cols:
            x[var] = tableau[i][total]
    return RatVector(m.col_labels, tuple(x))


def oracle_minors(rows, picks):
    """Oracle: each maximal minor of the rows on plain rows with
    det_bareiss, picks in the given order; the count read and the first
    minor outside {-1, 0, +1} with its pick."""
    checked = 0
    for checked, col_pick in enumerate(picks, 1):
        d = det_bareiss([[row[j] for j in col_pick] for row in rows])
        if abs(d) > 1:
            return checked, col_pick, d
    return checked, None, None


def sampled_picks(m, samples, seed):
    """The column picks the sampled scan draws."""
    rows, cols = m.shape
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(cols), rows))) for _ in range(samples)]


def oracle_unimodular(m, mode="exhaustive", samples=1000, seed=0):
    """Oracle: is_unimodular_full_row_rank's verdict from oracle_minors."""
    rows, cols = m.shape
    if mode == "exhaustive":
        picks = combinations(range(cols), rows)
        checked, witness, det = oracle_minors(m.entries, picks)
        return MinorVerdict(mode, witness is None, checked, witness, det)
    checked, witness, det = oracle_minors(m.entries, sampled_picks(m, samples, seed))
    return MinorVerdict(mode, None if witness is None else False, checked, witness, det)


def oracle_tu(m, max_order=None):
    """Oracle: is_totally_unimodular_small's verdict, row picks then column
    picks in combinations order, each minor on plain rows."""
    rows, cols = m.shape
    max_order = min(rows, cols) if max_order is None else min(max_order, rows, cols)
    checked = 0
    for k in range(1, max_order + 1):
        for row_pick in combinations(range(rows), k):
            picked = [m.entries[i] for i in row_pick]
            count, col_pick, d = oracle_minors(picked, combinations(range(cols), k))
            checked += count
            if col_pick is not None:
                return TotalUnimodularityVerdict(False, checked, row_pick, col_pick, d)
    return TotalUnimodularityVerdict(True, checked)


def labelled(entries):
    """An IntMatrix of the entry rows with placeholder labels."""
    return IntMatrix(
        tuple(map(tuple, entries)),
        tuple(f"r{i}" for i in range(len(entries))),
        tuple(f"c{j}" for j in range(len(entries[0]))),
    )


def same_as_oracle(m, b):
    """feasible_nonneg_solution, checked to return the oracle's value and,
    when it finds one, an exact nonnegative solution."""
    x = feasible_nonneg_solution(m, b)
    assert x == fraction_phase_one(m, b)
    if x is not None:
        assert all(v >= 0 for v in x.values)
        for row, rhs in zip(m.entries, b.values):
            assert sum(c * v for c, v in zip(row, x.values)) == rhs
    return x


# ---------------------------------------------------------------------------
# matrix plumbing


def test_matrix_shapes_and_labels():
    a = build_matrix_A(G3)
    assert a.shape == (7, 12)
    assert a.row_labels[0] == "a" and a.row_labels[-1] == "a,b,c"
    assert a.col_labels[0] == "a|∅"
    assert build_matrix_B(G3).shape == (7, 12)
    for build in (build_matrix_C, build_matrix_D, build_matrix_B_bar, build_matrix_F):
        m = build(G3)
        assert m.shape == (7, 7)
        assert m.row_labels == m.col_labels
    e = build_matrix_E(G3)
    assert e.shape == (7, 16)
    assert build_matrix_E(G3, dummy_row=True).shape == (8, 16)


def test_matrix_validation_and_csv():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)), ("r1", "r2"), ("c1", "c2"))
    with pytest.raises(ValueError):
        IntMatrix(((1, 2),), ("r1",), ("c1", "c2")).det()
    with pytest.raises(ValueError):
        build_matrix_A(G3).mul(build_matrix_A(G3))
    ident = IntMatrix.identity(("x", "y"))
    csv = ident.to_csv()
    assert csv.splitlines()[0] == ',"x","y"'
    assert csv.splitlines()[1] == '"x",1,0'
    sub = build_matrix_C(G3).submatrix((0, 2), (0, 2))
    assert sub.row_labels == ("a", "a,b") and sub.col_labels == ("a", "a,b")


def test_e_column_labels():
    assert e_column_for_pair(G3, 0, 0) == "a"
    assert e_column_for_pair(G3, 0, 6) == "a,b,c:b,c"


# ---------------------------------------------------------------------------
# identities between the transformation matrices


@pytest.mark.parametrize("ground", [G3, G4])
def test_b_equals_c_times_a(ground):
    assert build_matrix_C(ground).mul(build_matrix_A(ground)).entries == (
        build_matrix_B(ground).entries
    )


@pytest.mark.parametrize("ground", [G3, G4])
def test_c_and_d_are_inverse(ground):
    product = build_matrix_C(ground).mul(build_matrix_D(ground))
    assert product.entries == IntMatrix.identity(product.row_labels).entries


@pytest.mark.parametrize("ground", [G3, G4])
def test_containment_and_f_are_inverse(ground):
    product = build_matrix_B_bar(ground).mul(build_matrix_F(ground))
    assert product.entries == IntMatrix.identity(product.row_labels).entries


@pytest.mark.parametrize("ground", [G3, G4])
def test_dummy_extended_columns_sum_to_zero(ground):
    e = build_matrix_E(ground, dummy_row=True)
    rows, cols = e.shape
    for j in range(cols):
        column = [e.entries[i][j] for i in range(rows)]
        assert sorted(x for x in column if x) == [-1, 1]


def test_dummy_extended_is_totally_unimodular_to_small_order():
    verdict = is_totally_unimodular_small(build_matrix_E(G3, dummy_row=True), 3)
    assert verdict.totally_unimodular


# ---------------------------------------------------------------------------
# Hermite normal form


@pytest.mark.parametrize("ground", [G3, G4])
def test_hnf_of_eta_matrix_is_identity_block(ground):
    for build in (build_matrix_A, build_matrix_B):
        m = build(ground)
        rows, cols = m.shape
        h, u = hermite_normal_form(m)
        assert abs(u.det()) == 1
        assert h.entries == m.mul(u).entries
        for i in range(rows):
            for j in range(cols):
                assert h.entries[i][j] == (1 if i == j else 0)


def test_hnf_of_identity():
    ident = IntMatrix.identity(("a", "b", "c"))
    h, u = hermite_normal_form(ident)
    assert h.entries == ident.entries and u.entries == ident.entries


def staircase_checks(m, h, u):
    rows, cols = m.shape
    assert abs(u.det()) == 1
    assert h.entries == m.mul(u).entries
    pivots = []
    for j in range(cols):
        col = [h.entries[i][j] for i in range(rows)]
        lead = next((i for i, x in enumerate(col) if x != 0), None)
        if lead is None:
            # zero columns close the staircase
            for j2 in range(j, cols):
                assert all(h.entries[i][j2] == 0 for i in range(rows))
            break
        pivots.append((lead, j))
    for (r1, _), (r2, _) in zip(pivots, pivots[1:]):
        assert r1 < r2
    for r, j in pivots:
        p = h.entries[r][j]
        assert p > 0
        for j2 in range(j):
            assert 0 <= h.entries[r][j2] < p


def test_hnf_properties_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = IntMatrix(
            tuple(
                tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(rows)
            ),
            tuple(f"r{i}" for i in range(rows)),
            tuple(f"c{j}" for j in range(cols)),
        )
        h, u = hermite_normal_form(m)
        staircase_checks(m, h, u)


def test_hnf_rank():
    assert hnf_rank(build_matrix_A(G3)) == 7
    assert hnf_rank(IntMatrix.identity(("a", "b"))) == 2
    rank_one = IntMatrix(((1, 2), (2, 4)), ("r1", "r2"), ("c1", "c2"))
    assert hnf_rank(rank_one) == 1


def test_reduce_pivots_are_the_rank_raising_columns():
    # independent route: a column is a pivot exactly when the integer Hermite
    # form ranks the columns up to it above the columns before it
    def prefix_rank(entries, j):
        if j == 0:
            return 0
        return hnf_rank(IntMatrix(
            tuple(row[:j] for row in entries),
            tuple(f"r{i}" for i in range(len(entries))),
            tuple(f"c{k}" for k in range(j)),
        ))

    rng = random.Random(19)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        entries = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.5:
            # a dependent row, so the rank falls short of the row count
            entries[0] = [a - b for a, b in zip(entries[1], entries[2])]
        entries = [tuple(row) for row in entries]
        rref, pivots = echelon_rref(entries)
        assert pivots == [
            j for j in range(cols)
            if prefix_rank(entries, j + 1) > prefix_rank(entries, j)
        ]
        assert _row_rank(entries) == len(pivots)
        for k, col in enumerate(pivots):
            assert [row[col] for row in rref] == [int(i == k) for i in range(rows)]
        assert all(not any(row) for row in rref[len(pivots):])
    assert echelon_rref([]) == ([], [])


def test_reduce_matches_fraction_rref():
    rng = random.Random(31)
    deficient = 0
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            zero = rng.randrange(cols)
            for row in entries:
                row[zero] = 0
        if rows >= 2 and rng.random() < 0.5:
            entries[rng.randrange(rows)] = list(entries[rng.randrange(rows)])
        # a negative first pivot
        entries[0][0] = -rng.randint(1, 4)
        entries = [tuple(row) for row in entries]
        rref, pivots = echelon_rref(entries)
        assert (rref, pivots) == fraction_rref(entries)
        deficient += len(pivots) < rows
    assert deficient > 0


# ---------------------------------------------------------------------------
# determinants


def test_det_bareiss_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 6)
        entries = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_bareiss([row[:] for row in entries]) == fraction_det(entries)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert det_bareiss([row[:] for row in singular]) == 0
    assert det_bareiss([]) == 1


def test_det_bareiss_leaves_its_input_alone():
    entries = [[2, 1], [1, 1]]
    assert det_bareiss(entries) == 1
    assert entries == [[2, 1], [1, 1]]


@pytest.mark.parametrize("entries", [[[1, 2]], [[1, 2], [3]], [[1], [2]]])
def test_det_bareiss_refuses_non_square_input(entries):
    with pytest.raises(ValueError):
        det_bareiss(entries)


# ---------------------------------------------------------------------------
# minor scans


def test_eta_matrices_are_unimodular_at_n3():
    for build in (build_matrix_A, build_matrix_B):
        verdict = is_unimodular_full_row_rank(build(G3))
        assert verdict.unimodular is True
        assert verdict.minors_checked == 792


def test_unimodular_scan_modes():
    wide = IntMatrix(((1, 1), (0, 2)), ("r1", "r2"), ("c1", "c2"))
    verdict = is_unimodular_full_row_rank(wide)
    assert verdict.unimodular is False and abs(verdict.witness_det) == 2
    sampled = is_unimodular_full_row_rank(build_matrix_A(G3), "sampled", samples=40)
    assert sampled.unimodular is None and sampled.minors_checked == 40
    with pytest.raises(ValueError):
        is_unimodular_full_row_rank(
            IntMatrix(((1, 2), (2, 4)), ("r1", "r2"), ("c1", "c2"))
        )
    with pytest.raises(ValueError):
        is_unimodular_full_row_rank(build_matrix_A(G3), "fancy")
    with pytest.raises(ValueError):
        is_unimodular_full_row_rank(build_matrix_A(GroundSet.of_size(5)))


def test_eta_matrix_is_not_totally_unimodular():
    a = build_matrix_A(G3)
    verdict = is_totally_unimodular_small(a, max_order=4)
    assert not verdict.totally_unimodular
    assert abs(verdict.witness_det) >= 2
    sub = a.submatrix(verdict.witness_rows, verdict.witness_cols)
    assert sub.det() == verdict.witness_det


CATALOG = {
    "A": build_matrix_A,
    "B": build_matrix_B,
    "C": build_matrix_C,
    "D": build_matrix_D,
    "Bbar": build_matrix_B_bar,
    "E": build_matrix_E,
    "E+dummy": lambda ground: build_matrix_E(ground, dummy_row=True),
    "F": build_matrix_F,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_minor_scans_match_the_oracle_on_catalog_matrices(name, n):
    m = CATALOG[name](GroundSet.of_size(n))
    if hnf_rank(m) == m.shape[0]:
        assert is_unimodular_full_row_rank(m) == oracle_unimodular(m)
    else:
        with pytest.raises(ValueError, match="full row rank"):
            is_unimodular_full_row_rank(m)
    # E's full n = 3 search (245 156 minors) is pinned by its golden case;
    # the oracle reads its submatrices up to order 3
    max_order = 3 if name.startswith("E") and n == 3 else None
    assert is_totally_unimodular_small(m, max_order) == oracle_tu(m, max_order)


def test_minor_scans_match_the_oracle_on_random_matrices():
    rng = random.Random(41)
    seen = {"witness": 0, "clean": 0, "deficient": 0, "zero column": 0}
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 8)
        # entries in -1..1 keep most scans running to the end
        bound = 3 if rng.random() < 0.5 else 1
        entries = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            zero = rng.randrange(cols)
            for row in entries:
                row[zero] = 0
            seen["zero column"] += 1
        if rows >= 3 and rng.random() < 0.3:
            # a dependent row, so some row picks are rank-deficient
            entries[0] = [a - b for a, b in zip(entries[1], entries[2])]
        m = labelled(entries)
        tu = is_totally_unimodular_small(m)
        assert tu == oracle_tu(m)
        seen["witness" if tu.witness_det is not None else "clean"] += 1
        if hnf_rank(m) < rows:
            seen["deficient"] += 1
            with pytest.raises(ValueError, match="full row rank"):
                is_unimodular_full_row_rank(m)
            continue
        assert is_unimodular_full_row_rank(m) == oracle_unimodular(m)
        seed = rng.randrange(1000)
        assert is_unimodular_full_row_rank(m, "sampled", 30, seed) == oracle_unimodular(
            m, "sampled", 30, seed
        )
    assert min(seen.values()) > 10, seen


def test_echelon_minors_equal_det_bareiss():
    # random full-rank rows whose echelon denominator d has |d| > 1, so the
    # division by d^k is exercised, and is negative in some
    rng = random.Random(43)
    divided = negative = 0
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(rows, 9)
        m = labelled([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        reduced = _echelon(list(m.entries))
        if len(reduced[1]) < rows:
            continue
        picks = sampled_picks(m, 20, rng.randrange(1000))
        for col_pick, det in _echelon_minors(m, reduced, picks):
            assert det == det_bareiss([[row[j] for j in col_pick] for row in m.entries])
            divided += abs(reduced[2]) > 1 and not set(col_pick) <= set(reduced[1])
        negative += reduced[2] < -1
    assert divided > 100 and negative > 10, (divided, negative)


@pytest.mark.parametrize("n, samples", [(4, 200), (5, 40)])
def test_sampled_minors_of_the_eta_matrix_equal_det_bareiss(n, samples):
    a = build_matrix_A(GroundSet.of_size(n))
    picks = sampled_picks(a, samples, 5)
    minors = list(_echelon_minors(a, _echelon(list(a.entries)), picks))
    assert [pick for pick, _ in minors] == picks
    for col_pick, det in minors:
        assert det == det_bareiss([[row[j] for j in col_pick] for row in a.entries])
    assert {det for _, det in minors} <= {-1, 0, 1}
    verdict = is_unimodular_full_row_rank(a, "sampled", samples, 5)
    assert verdict == oracle_unimodular(a, "sampled", samples, 5)
    assert verdict == MinorVerdict("sampled", None, samples)


def test_sampled_scan_reports_the_first_bad_minor():
    # doubling one column of A leaves a bad minor on exactly the picks that
    # hold that column and have a nonzero minor
    a = build_matrix_A(G4)
    doubled = IntMatrix(
        tuple(row[:5] + (2 * row[5],) + row[6:] for row in a.entries),
        a.row_labels,
        a.col_labels,
    )
    checked = []
    for seed in range(4):
        verdict = is_unimodular_full_row_rank(doubled, "sampled", 200, seed)
        assert verdict == oracle_unimodular(doubled, "sampled", 200, seed)
        assert verdict.unimodular is False and 5 in verdict.witness_cols
        assert abs(verdict.witness_det) == 2
        checked.append(verdict.minors_checked)
    assert max(checked) > 1, checked


def test_tu_scan_edges():
    zero = IntMatrix(((0, 0), (0, 0)), ("r1", "r2"), ("c1", "c2"))
    assert is_totally_unimodular_small(zero).totally_unimodular
    big = IntMatrix(
        tuple(tuple(1 for _ in range(18)) for _ in range(18)),
        tuple(f"r{i}" for i in range(18)),
        tuple(f"c{j}" for j in range(18)),
    )
    with pytest.raises(ValueError):
        is_totally_unimodular_small(big)


# ---------------------------------------------------------------------------
# exact feasibility


def test_dag_systems_are_feasible():
    a = build_matrix_A(G3)
    for graph in enumerate_dags(G3):
        from imsetpoly.encode import standard_imset_of

        b = build_b_u(standard_imset_of(graph))
        x = feasible_nonneg_solution(a, b)
        assert x is not None
        assert all(v >= 0 for v in x.values)
        for i in range(a.shape[0]):
            assert sum(
                c * v for c, v in zip(a.entries[i], x.values)
            ) == b.values[i]


def test_outside_point_is_infeasible():
    c = CharacteristicImset(G3, (1, 1, 1, 2))
    u = u_from_characteristic(c)
    assert feasible_nonneg_solution(build_matrix_A(G3), build_b_u(u)) is None


def char_extension(ground, c):
    """c extended to singleton rows, which carry 1 for every digraph image."""
    values = []
    for m in p1_masks(ground):
        values.append(Fraction(1) if m.bit_count() == 1 else Fraction(c.value(m)))
    return RatVector(tuple(ground.subset_key(m) for m in p1_masks(ground)), tuple(values))


def test_digraph_images_are_feasible_for_char_matrix():
    bmat = build_matrix_B(G3)
    for graph in enumerate_digraphs(G3):
        ext = char_extension(G3, quasi_characteristic_of(graph))
        x = feasible_nonneg_solution(bmat, ext)
        assert x is not None
        eta = eta_of(graph)
        pairs = eta_pairs(G3)
        direct = [Fraction(eta.value(i, b)) for i, b in pairs]
        for i in range(bmat.shape[0]):
            assert sum(
                c * v for c, v in zip(bmat.entries[i], direct)
            ) == ext.values[i]


def test_non_image_point_is_infeasible_for_char_matrix():
    ext = char_extension(G3, CharacteristicImset(G3, (1, 1, 1, 2)))
    assert feasible_nonneg_solution(build_matrix_B(G3), ext) is None


def test_feasibility_input_validation():
    with pytest.raises(ValueError):
        feasible_nonneg_solution(
            build_matrix_A(G3), RatVector(("a",), (Fraction(1),))
        )


# ---------------------------------------------------------------------------
# the fraction-free Phase I against the Fraction tableau


def census_points_match_the_oracle(ground, sample=None, seed=0):
    """same_as_oracle on every census point of ground, or on a seeded sample
    of that many; each must be feasible.  Returns how many were checked."""
    points = sorted(census_characteristic_set(ground))
    if sample is not None and sample < len(points):
        points = sorted(random.Random(seed).sample(points, sample))
    a = build_matrix_A(ground)
    for point in points:
        u = u_from_characteristic(CharacteristicImset(ground, point))
        assert same_as_oracle(a, build_b_u(u)) is not None
    return len(points)


@pytest.mark.parametrize("ground", [G3, G4])
def test_phase_one_matches_oracle_on_census_points(ground):
    # all 11 points at n = 3 and 30 of the 185 at n = 4; CI runs all 185
    # outside tier-1
    assert census_points_match_the_oracle(ground, sample=30) == min(
        30, len(census_characteristic_set(ground))
    )


def test_phase_one_matches_oracle_on_default_box_points():
    rng = random.Random(23)
    box = EnumerationBox.default(G4)
    a = build_matrix_A(G4)
    for _ in range(40):
        point = tuple(rng.randint(lo, hi) for lo, hi in zip(box.lower, box.upper))
        u = u_from_characteristic(CharacteristicImset(G4, point))
        same_as_oracle(a, build_b_u(u))


def test_phase_one_matches_oracle_for_char_matrix_on_digraphs():
    bmat = build_matrix_B(G3)
    for graph in enumerate_digraphs(G3):
        ext = char_extension(G3, quasi_characteristic_of(graph))
        assert same_as_oracle(bmat, ext) is not None


def test_phase_one_matches_oracle_on_rational_right_hand_sides():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        m = IntMatrix(
            tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows)),
            tuple(f"r{i}" for i in range(rows)),
            tuple(f"c{j}" for j in range(cols)),
        )
        b = RatVector(
            m.row_labels,
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rows)),
        )
        verdicts.add(same_as_oracle(m, b) is None)
    assert verdicts == {False, True}


def test_phase_one_solves_c_star_at_n5():
    # c*(S) = max(1, |S|/2) separates the two polytopes at n = 5, yet its
    # standard imset has an exact nonnegative eta preimage
    g5 = GroundSet.of_size(5)
    point = tuple(max(Fraction(1), Fraction(m.bit_count(), 2)) for m in p2_masks(g5))
    u = u_from_characteristic(CharacteristicImset(g5, point))
    assert same_as_oracle(build_matrix_A(g5), build_b_u(u)) is not None
