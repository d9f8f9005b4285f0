"""Exact integer linear algebra: the transformation matrices between the
three encodings, Hermite normal form, minor scans, and a fraction-free
revised Phase-I simplex for nonnegative feasibility.

Matrices carry explicit row and column label tables so that every entry can
be traced back to the subset or conditional pair indexing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import index
from typing import Sequence

from .encode import StandardImset
from .setfam import GroundSet, eta_pairs, p1_masks, subset_key_table

MINOR_BUDGET = 10**7


@dataclass(frozen=True)
class RatVector:
    """A labelled vector of exact rationals."""

    labels: tuple[str, ...]
    values: tuple

    def __post_init__(self) -> None:
        values = tuple(Fraction(v) for v in self.values)
        labels = tuple(self.labels)
        if len(values) != len(labels):
            raise ValueError("labels and values must have equal length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IntMatrix:
    """A dense integer matrix with row and column label tables."""

    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        row_labels = tuple(self.row_labels)
        col_labels = tuple(self.col_labels)
        cols = len(col_labels)
        if len(self.entries) != len(row_labels) or any(len(r) != cols for r in self.entries):
            raise ValueError("entry grid does not match the label tables")
        try:
            entries = tuple(tuple(map(index, row)) for row in self.entries)
        except TypeError:
            label, col, x = next(
                (label, col, x)
                for label, row in zip(row_labels, self.entries)
                for col, x in zip(col_labels, row)
                if not hasattr(type(x), "__index__")
            )
            raise ValueError(
                f"entry {x!r} at row {label!r}, column {col!r} is not an integer"
            ) from None
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "IntMatrix":
        n = len(labels)
        return cls(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
            tuple(labels),
            tuple(labels),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.col_labels != other.row_labels:
            raise ValueError("inner label tables do not match for multiplication")
        rows, inner = self.shape
        cols = other.shape[1]
        bt = list(zip(*other.entries))
        product = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries
        )
        return IntMatrix(product, self.row_labels, other.col_labels)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(self.entries[i][j] for j in cols) for i in rows),
            tuple(self.row_labels[i] for i in rows),
            tuple(self.col_labels[j] for j in cols),
        )

    def det(self) -> int:
        return det_bareiss(self.entries)

    def to_csv(self) -> str:
        lines = ["," + ",".join(f'"{c}"' for c in self.col_labels)]
        for lab, row in zip(self.row_labels, self.entries):
            lines.append(f'"{lab}",' + ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def det_bareiss(a: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of a square integer matrix; the input is
    left as it is."""
    n = len(a)
    a = [list(row) for row in a]
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _pivot(rows: list[list[int]], r: int, col: int, d: int) -> int:
    """One fraction-free Gauss-Jordan step in place (Edmonds 1967; Bareiss
    1968) on integer rows that hold a tableau over the common denominator d.

    Column col is cleared from every row but r; each new entry divides
    exactly by d, since every entry is a minor of the starting rows.  Row r
    stays, and its entry p in column col, returned, is the new common
    denominator."""
    prow = rows[r]
    p = prow[col]
    for i, row in enumerate(rows):
        f = row[col]
        if i == r or (f == 0 and p == d):
            continue
        rows[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
    return p


def _echelon(rows: list[tuple]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form of integer rows: integer rows
    that hold it over the common denominator d, its pivot columns, which are
    the columns that raise the rank of the columns before them, and d (which
    may be negative)."""
    work = [list(row) for row in rows]
    pivots: list[int] = []
    d = 1
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        if rank == len(work):
            break
        r = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if r is None:
            continue
        work[rank], work[r] = work[r], work[rank]
        d = _pivot(work, rank, col, d)
        pivots.append(col)
    return work, pivots, d


def _row_rank(rows: list[tuple]) -> int:
    """Rank over the rationals of a list of equal-length integer rows."""
    return len(_echelon(rows)[1])


# ---------------------------------------------------------------------------
# matrix builders


def build_matrix_A(ground: GroundSet) -> IntMatrix:
    """The eta-to-standard-imset matrix: rows indexed by non-empty subsets T,
    columns by pairs (i|B); on singleton rows the entry marks i, on larger
    rows it is [T = B+i] - [T = B].  So column (i|B) holds 1 on row {i}, 1
    on row B+i when B is not empty, and -1 on row B when |B| >= 2."""
    keys = subset_key_table(ground)
    labels = ground.labels
    pairs = eta_pairs(ground)
    grid = [[0] * len(pairs) for _ in range(ground.full_mask)]
    for j, (i, b) in enumerate(pairs):
        # the row of the subset T is T - 1 (p1_masks)
        grid[(1 << i) - 1][j] = 1
        if b:
            grid[(b | 1 << i) - 1][j] = 1
            if b & (b - 1):
                grid[b - 1][j] = -1
    return IntMatrix(
        tuple(map(tuple, grid)),
        keys[1:],
        tuple(f"{labels[i]}|{keys[b]}" for i, b in pairs),
    )


def build_b_u(u: StandardImset) -> RatVector:
    """Right-hand side paired with build_matrix_A: 1 on singleton rows,
    [T = N] - u(T) on larger rows."""
    ground = u.ground
    values = []
    for t in p1_masks(ground):
        if t.bit_count() == 1:
            values.append(Fraction(1))
        else:
            values.append(Fraction((1 if t == ground.full_mask else 0) - u.values[t]))
    return RatVector(tuple(ground.subset_key(t) for t in p1_masks(ground)), tuple(values))


def build_matrix_B(ground: GroundSet) -> IntMatrix:
    """The eta-to-characteristic matrix: entry 1 exactly when i lies in S and
    B covers the rest of S."""
    pairs = eta_pairs(ground)
    rows = []
    for s in p1_masks(ground):
        row = []
        for i, b in pairs:
            inside = bool((s >> i) & 1)
            covers = (s & ~(1 << i)) & ~b == 0
            row.append(1 if inside and covers else 0)
        rows.append(tuple(row))
    return IntMatrix(
        tuple(rows),
        tuple(ground.subset_key(s) for s in p1_masks(ground)),
        tuple(ground.pair_key(i, b) for i, b in pairs),
    )


def _containment_matrix(
    ground: GroundSet, signed: bool, singleton_identity: bool = False
) -> IntMatrix:
    """Square matrix over the non-empty subsets: entry (S, R) is nonzero
    exactly when S lies inside R, and is then 1, or (-1)^|R minus S| when
    signed is set.  With singleton_identity set, singleton rows are identity
    rows instead."""
    masks = p1_masks(ground)
    rows = []
    for s in masks:
        if singleton_identity and s.bit_count() == 1:
            rows.append(tuple(1 if r == s else 0 for r in masks))
        else:
            rows.append(tuple(
                ((-1) ** (r & ~s).bit_count() if signed else 1) if s & r == s else 0
                for r in masks
            ))
    labels = tuple(ground.subset_key(t) for t in masks)
    return IntMatrix(tuple(rows), labels, labels)


def build_matrix_C(ground: GroundSet) -> IntMatrix:
    """Superset-sum matrix with singleton rows left as identity rows."""
    return _containment_matrix(ground, signed=False, singleton_identity=True)


def build_matrix_D(ground: GroundSet) -> IntMatrix:
    """Inverse of build_matrix_C: signed superset sums on non-singleton rows."""
    return _containment_matrix(ground, signed=True, singleton_identity=True)


def build_matrix_B_bar(ground: GroundSet) -> IntMatrix:
    """Containment indicator matrix: entry 1 when the row set lies inside the
    column set."""
    return _containment_matrix(ground, signed=False)


def e_column_for_pair(ground: GroundSet, i: int, b: int) -> str:
    """Label of the extended-system column carrying the pair (i|B)."""
    if b == 0:
        return ground.subset_key(1 << i)
    return f"{ground.subset_key(b | (1 << i))}:{ground.subset_key(b)}"


def build_matrix_E(ground: GroundSet, dummy_row: bool = False) -> IntMatrix:
    """Difference-encoding matrix of the extended column system.

    Columns come in two blocks: one per non-empty set R (entry [T = R]) and
    one per pair (C:B) with C = B+i, B non-empty (entries +1 at T = C and
    -1 at T = B).  With dummy_row set, an extra row for the empty set is
    appended holding -1 on every set column and 0 on every pair column, after
    which every column holds exactly one +1 and one -1.
    """
    set_cols = list(p1_masks(ground))
    pairs = [(i, b) for i, b in eta_pairs(ground) if b != 0]
    pair_cols = [(b | (1 << i), b) for i, b in pairs]
    col_labels = [ground.subset_key(r) for r in set_cols] + [
        e_column_for_pair(ground, i, b) for i, b in pairs
    ]
    rows = []
    row_labels = []
    for t in p1_masks(ground):
        row = [1 if t == r else 0 for r in set_cols]
        row += [(1 if t == c else 0) - (1 if t == b else 0) for c, b in pair_cols]
        rows.append(tuple(row))
        row_labels.append(ground.subset_key(t))
    if dummy_row:
        rows.append(tuple([-1] * len(set_cols) + [0] * len(pair_cols)))
        row_labels.append(ground.subset_key(0))
    return IntMatrix(tuple(rows), tuple(row_labels), tuple(col_labels))


def build_matrix_F(ground: GroundSet) -> IntMatrix:
    """Inverse of the containment indicator matrix: signed superset sums."""
    return _containment_matrix(ground, signed=True)


# ---------------------------------------------------------------------------
# Hermite normal form (column style)


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = M * U, U unimodular, H in lower staircase shape
    with positive pivots and, left of each pivot, entries reduced into
    [0, pivot).
    """
    rows, cols = m.shape
    h = [list(col) for col in zip(*m.entries)]  # column-major
    u = [[int(j == k) for k in range(cols)] for j in range(cols)]  # columns of U
    pivot_col = 0
    for r in range(rows):
        while True:
            nonzero = [j for j in range(pivot_col, cols) if h[j][r] != 0]
            if not nonzero:
                break
            jbest = min(nonzero, key=lambda j: abs(h[j][r]))
            if jbest != pivot_col:
                h[pivot_col], h[jbest] = h[jbest], h[pivot_col]
                u[pivot_col], u[jbest] = u[jbest], u[pivot_col]
            if h[pivot_col][r] < 0:
                h[pivot_col] = [-x for x in h[pivot_col]]
                u[pivot_col] = [-x for x in u[pivot_col]]
            clean = True
            p = h[pivot_col][r]
            for j in range(pivot_col + 1, cols):
                if h[j][r] != 0:
                    q = h[j][r] // p
                    if q:
                        h[j] = [a - q * b for a, b in zip(h[j], h[pivot_col])]
                        u[j] = [a - q * b for a, b in zip(u[j], u[pivot_col])]
                    if h[j][r] != 0:
                        clean = False
            if clean:
                break
        if nonzero:
            p = h[pivot_col][r]
            for j in range(pivot_col):
                q = h[j][r] // p
                if q:
                    h[j] = [a - q * b for a, b in zip(h[j], h[pivot_col])]
                    u[j] = [a - q * b for a, b in zip(u[j], u[pivot_col])]
            pivot_col += 1
    new_cols = tuple(f"h{k}" for k in range(cols))
    H = IntMatrix(tuple(zip(*h)), m.row_labels, new_cols)
    U = IntMatrix(tuple(zip(*u)), m.col_labels, new_cols)
    return H, U


def hnf_rank(m: IntMatrix) -> int:
    """The rank of m: the number of nonzero columns of its Hermite form."""
    return _hnf_check(m)[1]["rank"]


def _hnf_check(m: IntMatrix) -> tuple[bool, dict]:
    """Certificate that the column-style Hermite form of m is [I 0]: the
    verdict and its rank and pivots."""
    h, _ = hermite_normal_form(m)
    rows, cols = m.shape
    is_identity_block = all(
        row == tuple(int(i == j) for j in range(cols)) for i, row in enumerate(h.entries)
    )
    # the leading entry of each nonzero column among the first `rows`
    columns = list(zip(*h.entries))[:rows]
    pivots = [next(x for x in col if x) for col in columns if any(col)]
    return is_identity_block, {
        "rank": len(pivots),
        "pivots": pivots,
        "identity_then_zero_columns": is_identity_block,
    }


def _products_check(name: str, ground: GroundSet) -> tuple[bool, dict]:
    """Certificate of the exact product identities the named catalog matrix
    takes part in: the verdict and one flag per identity."""
    results: dict[str, bool] = {}
    if name in ("A", "B", "C"):
        a = build_matrix_A(ground)
        b = build_matrix_B(ground)
        c = build_matrix_C(ground)
        results["B_equals_C_times_A"] = c.mul(a).entries == b.entries
    if name in ("C", "D"):
        c = build_matrix_C(ground)
        d = build_matrix_D(ground)
        results["C_times_D_is_identity"] = (
            c.mul(d).entries == c.identity(c.row_labels).entries
        )
    if name in ("Bbar", "F"):
        bbar = build_matrix_B_bar(ground)
        f = build_matrix_F(ground)
        results["Bbar_times_F_is_identity"] = (
            bbar.mul(f).entries == bbar.identity(bbar.row_labels).entries
        )
    if name == "E":
        e = build_matrix_E(ground, dummy_row=True)
        results["columns_have_one_plus_and_one_minus"] = all(
            sorted(x for x in col if x) == [-1, 1] for col in zip(*e.entries)
        )
    if not results:
        raise ValueError(f"no product identity is catalogued for {name}")
    return all(results.values()), results


# ---------------------------------------------------------------------------
# minor scans


@dataclass(frozen=True)
class MinorVerdict:
    """Outcome of a maximal-minor scan.

    unimodular is True or False after an exhaustive scan; a sampled scan that
    found no counterexample reports None (nothing is certified).
    """

    mode: str
    unimodular: bool | None
    minors_checked: int
    witness_cols: tuple[int, ...] | None = None
    witness_det: int | None = None


def _minor_walk(
    rows: Sequence[Sequence[int]],
) -> tuple[int, tuple[int, ...] | None, int | None]:
    """The k x k minors of k integer rows, column picks in combinations
    order: how many were checked and, if one lies outside {-1, 0, +1}, the
    first such pick and its determinant.

    A depth-first walk over column prefixes.  Each prefix does one
    fraction-free elimination step (Bareiss 1968) on the rows it has not
    pivoted yet, dividing exactly by the previous pivot, and every minor
    that extends the prefix reuses it; at a leaf the one row left holds the
    minors, up to the sign of the row picks.  A prefix column with no pivot
    makes every minor that extends it zero, so they are counted, not read.
    """
    if not rows:
        return 1, None, None
    checked = 0

    def walk(rest, start, prev, sign, pick):
        # rest: the unpivoted rows over the columns from start on
        nonlocal checked
        if len(rest) == 1:
            row = rest[0]
            if -1 <= min(row, default=0) and max(row, default=0) <= 1:
                checked += len(row)
                return None
            j = next(j for j, x in enumerate(row) if abs(x) > 1)
            checked += j + 1
            return (*pick, start + j), sign * row[j]
        need = len(rest) - 1
        for c in range(len(rest[0]) - need):
            q = next((i for i, row in enumerate(rest) if row[c]), None)
            if q is None:
                checked += comb(len(rest[0]) - c - 1, need)
                continue
            p, tail = rest[q][c], rest[q][c + 1:]
            reduced = [
                row[c + 1:] if row[c] == 0 and p == prev else
                [(x * p - row[c] * y) // prev for x, y in zip(row[c + 1:], tail)]
                for i, row in enumerate(rest) if i != q
            ]
            # moving row q to the front of rest takes q transpositions
            found = walk(reduced, start + c + 1, p, -sign if q % 2 else sign,
                         (*pick, start + c))
            if found:
                return found
        return None

    found = walk(list(rows), 0, 1, 1, ())
    return (checked, *found) if found else (checked, None, None)


def _echelon_minors(m: IntMatrix, reduced: tuple, picks):
    """Each maximal minor of m, which has full row rank, on the column picks
    in turn, as (pick, determinant), read through reduced = (E, pivots, d)
    from _echelon.

    E = d R with R = B^-1 m, where B is m on its pivot columns (Schrijver
    1986, ch. 19-21).  On a pick S whose k columns off the pivots leave k
    rows of E unhit by its pivot columns, det m_S = ± det(B) det(E on those
    k rows and columns) / d^k: an order-k determinant, divided exactly.
    """
    echelon, pivots, d = reduced
    row_of = {j: k for k, j in enumerate(pivots)}
    det_b = det_bareiss([[row[j] for j in pivots] for row in m.entries])
    for col_pick in picks:
        # the pivot columns of the pick: their row of E -> their place in it
        hit = {row_of[j]: at for at, j in enumerate(col_pick) if j in row_of}
        free = [j for j in col_pick if j not in row_of]
        det, rest = divmod(det_b * det_bareiss(
            [[row[j] for j in free] for k, row in enumerate(echelon) if k not in hit]
        ), d ** len(free))
        if rest:
            raise RuntimeError("inexact division by the echelon denominator; "
                               "this cannot happen")
        # Laplace expansion along the unit columns of R
        yield col_pick, -det if (sum(hit) + sum(hit.values())) % 2 else det


def is_unimodular_full_row_rank(
    m: IntMatrix,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
) -> MinorVerdict:
    """Scan maximal minors for values outside {-1, 0, +1}.

    The input must have full row rank (read off its echelon form).
    Exhaustive mode walks every maximal minor with _minor_walk and refuses
    jobs with more than 10^7 of them; sampled mode reads each sampled minor
    through the echelon form with _echelon_minors.
    """
    rows, cols = m.shape
    reduced = _echelon(list(m.entries))
    if len(reduced[1]) != rows:
        raise ValueError("matrix does not have full row rank")
    if mode == "exhaustive":
        total = comb(cols, rows)
        if total > MINOR_BUDGET:
            raise ValueError(
                f"{total} maximal minors exceed the exhaustive budget of {MINOR_BUDGET}; "
                "use sampled mode"
            )
        checked, witness, det = _minor_walk(m.entries)
        return MinorVerdict(mode, witness is None, checked, witness, det)
    if mode != "sampled":
        raise ValueError(f"unknown scan mode {mode!r}")
    rng = random.Random(seed)
    picks = (tuple(sorted(rng.sample(range(cols), rows))) for _ in range(samples))
    checked = 0
    for checked, (col_pick, det) in enumerate(_echelon_minors(m, reduced, picks), 1):
        if abs(det) > 1:
            return MinorVerdict(mode, False, checked, col_pick, det)
    return MinorVerdict(mode, None, checked)


@dataclass(frozen=True)
class TotalUnimodularityVerdict:
    totally_unimodular: bool
    minors_checked: int
    witness_rows: tuple[int, ...] | None = None
    witness_cols: tuple[int, ...] | None = None
    witness_det: int | None = None


def is_totally_unimodular_small(
    m: IntMatrix, max_order: int | None = None
) -> TotalUnimodularityVerdict:
    """Search all square submatrices up to max_order for a determinant
    outside {-1, 0, +1}; returns the first violation certificate found.

    Orders are scanned smallest first, so the witness is minimal in order.
    Refuses jobs with more than 10^7 submatrices.
    """
    rows, cols = m.shape
    if max_order is None:
        max_order = min(rows, cols)
    max_order = min(max_order, rows, cols)
    total = sum(comb(rows, k) * comb(cols, k) for k in range(1, max_order + 1))
    if total > MINOR_BUDGET:
        raise ValueError(
            f"{total} submatrices exceed the scan budget of {MINOR_BUDGET}"
        )
    checked = 0
    for k in range(1, max_order + 1):
        for row_pick in combinations(range(rows), k):
            count, col_pick, d = _minor_walk([m.entries[i] for i in row_pick])
            checked += count
            if col_pick is not None:
                return TotalUnimodularityVerdict(False, checked, row_pick, col_pick, d)
    return TotalUnimodularityVerdict(True, checked)


# ---------------------------------------------------------------------------
# exact nonnegative feasibility (Phase-I simplex, Bland's rule)


def feasible_nonneg_solution(m: IntMatrix, b: RatVector):
    """Find x >= 0 with M x = b exactly, or return None if none exists.

    Phase-I simplex with Bland's anti-cycling rule, in revised form:
    artificial variables start basic, their sum is driven to zero.  Rows of
    M are negated where b is negative, and b is scaled by the lcm L of its
    denominators.  No full tableau is kept.  The starting tableau's
    artificial columns are the identity, so every later tableau is G times
    it, where G holds the tableau's artificial columns and, in the cost
    row, the common denominator d.  Only that block is kept: rows + 1
    integer rows over d holding the artificial columns, the right-hand side
    and one slot for the entering column, the cost row last.  A column j of
    M prices as the sum of (w_i - d) a_ij over its nonzeros, w the cost
    row's artificial part, and an artificial column i as w_i.  The entering
    column, the block times a_j, goes into the slot, and every pivot is one
    _pivot call on the block, so each integer and the pivot path are those
    of the full tableau.  x is read as rhs_i / (d L).
    """
    rows, cols = m.shape
    if len(b) != rows:
        raise ValueError("right-hand side length does not match the matrix")
    scale = lcm(*(v.denominator for v in b.values))
    rhs = [v.numerator * (scale // v.denominator) for v in b.values]
    # the nonzeros of each column of M as (row, entry)
    signed = [row if v >= 0 else [-x for x in row] for row, v in zip(m.entries, rhs)]
    columns = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*signed)]
    slot = rows + 1
    block = [[0] * (rows + 2) for _ in range(rows + 1)]
    for i, v in enumerate(rhs):
        block[i][i] = 1
        block[i][rows] = abs(v)
    block[rows][rows] = -sum(map(abs, rhs))
    basis = [cols + i for i in range(rows)]
    d = 1
    while True:
        costs = [w - d for w in block[rows][:rows]]
        # Bland's rule: the first column of M with a negative reduced cost
        # (plain loops: sum() over a generator is slower on such short columns)
        for enter, column in enumerate(columns):
            reduced = 0
            for i, x in column:
                reduced += costs[i] * x
            if reduced < 0:
                for row in block[:rows]:
                    entry = 0
                    for i, x in column:
                        entry += row[i] * x
                    row[slot] = entry
                block[rows][slot] = reduced
                col = slot
                break
        else:
            col = next((i for i in range(rows) if block[rows][i] < 0), None)
            if col is None:
                break
            enter = cols + col
        leave = None
        for i in range(rows):
            coef = block[i][col]
            if coef > 0:
                # the ratios T[i][rhs] / coef compared by cross-multiplying
                if leave is None:
                    leave = i
                    continue
                here = block[i][rows] * block[leave][col]
                best = block[leave][rows] * coef
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; this cannot happen")
        d = _pivot(block, leave, col, d)
        basis[leave] = enter
    if block[rows][rows] != 0:
        return None
    x = [0] * cols
    for i, var in enumerate(basis):
        if var < cols:
            x[var] = Fraction(block[i][rows], d * scale)
    return RatVector(m.col_labels, tuple(x))
