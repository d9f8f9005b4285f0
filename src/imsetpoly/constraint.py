"""Linear constraint families over the three frameworks, the supermodular
cone, kappa coefficients, and the dual cone of superset-closed classes.

Row coefficients and right-hand sides are exact rationals throughout; no
floating point enters any verification path.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from json.encoder import encode_basestring as _quote
from math import gcd, lcm
from string import ascii_letters, digits
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .encode import _Vector, semi_elementary_imset, superset_moebius
from .exactlin import _echelon
from .setfam import (
    Antichain,
    GroundSet,
    _antichain_walk,
    _ground_from_labels,
    _keyed_entries,
    _rational_entries,
    _submasks,
    _superset_bits,
    _up_set,
    bits_of,
    eta_pairs,
    p1_masks,
    p2_masks,
    superset_closure,
    tag_key_table,
    union_closure_class,
)

# a row with sense s holds when SENSES[s](lhs, rhs)
SENSES = {">=": operator.ge, "<=": operator.le, "=": operator.eq}

# the characters of an LP-format (CPLEX) name
_LP_NAME_CHARS = frozenset(ascii_letters + digits + "!\"#$%&()/,.;?@_`'{}|~")
# the characters of a tag that an LP row name writes as '_'
_LP_ROW_OTHER = re.compile("[^A-Za-z0-9]")


def _exact(value) -> int | Fraction:
    """value as an int when it is whole, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class ConeViolationError(RuntimeError):
    """A residual of the decomposition loop left the dual cone."""


@dataclass(frozen=True)
class LinearConstraint:
    """One affine row over a framework's coordinates.

    Keys of coeffs are subset masks for the 'u' and 'c' frameworks and
    (i, B) pairs for 'eta'.  Zero coefficients are dropped on construction;
    a whole coefficient or right-hand side is stored as an int, any other as
    a Fraction.
    """

    framework: str
    coeffs: Mapping
    sense: str
    rhs: int | Fraction
    tag: str

    def __post_init__(self) -> None:
        if self.framework not in ("eta", "u", "c"):
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        cleaned = {
            k: v if type(v) is int else _exact(v) for k, v in self.coeffs.items() if v
        }
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "rhs", _exact(self.rhs))

    @classmethod
    def _canonical(
        cls, framework: str, coeffs: dict, sense: str, rhs: int, tag: str
    ) -> LinearConstraint:
        """The row from parts already in the form __post_init__ gives them,
        with none of its checks or copies: no generated __init__, no
        framework or sense check, no cleaning of coeffs, no _exact.

        Precondition: coeffs is a dict the row alone owns, every value in it
        is a nonzero int, rhs is an int, and framework and sense are valid.
        For rows the program builds itself; input from outside goes through
        LinearConstraint(...).
        """
        row = object.__new__(cls)
        row.__dict__.update(
            framework=framework, coeffs=coeffs, sense=sense, rhs=rhs, tag=tag
        )
        return row

    def __hash__(self) -> int:
        # coeffs is a dict; hash its items in key order so equal rows agree
        # (a row's keys are all masks or all pairs, so they sort)
        items = tuple(sorted(self.coeffs.items()))
        return hash((self.framework, items, self.sense, self.rhs, self.tag))

    @property
    def is_vacuous(self) -> bool:
        """True when no coordinate appears (the row reads 0 <sense> rhs)."""
        return not self.coeffs

    def value_at(self, values) -> Fraction:
        """Evaluate the left side; values is a mapping or callable on keys."""
        get: Callable = values if callable(values) else values.__getitem__
        return sum((coef * get(key) for key, coef in self.coeffs.items()), Fraction(0))

    def holds_at(self, values) -> bool:
        return SENSES[self.sense](self.value_at(values), self.rhs)


@dataclass(frozen=True)
class ConstraintSystem:
    """An ordered bundle of rows sharing one framework and ground set."""

    ground: GroundSet
    framework: str
    rows: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        for row in rows:
            if row.framework != self.framework:
                raise _foreign_row(row, self.framework)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def satisfied_by(self, values) -> bool:
        return all(row.holds_at(values) for row in self.rows)

    def to_json_text(self) -> str:
        """The catalog as setfam._json_text prints it (_catalog_text)."""
        return _catalog_text(self.ground, self.framework, self.rows)

    def to_json_dict(self) -> dict:
        """The catalog as a JSON object, read back from to_json_text."""
        return json.loads(self.to_json_text())

    def to_lp(self) -> str:
        """LP-format text export of the system's rows (_lp_text)."""
        return _lp_text(self.ground, self.framework, self.rows)


def _foreign_row(row: LinearConstraint, framework: str) -> ValueError:
    return ValueError(
        f"row {row.tag!r} belongs to framework {row.framework!r}, not {framework!r}"
    )


def _key_name(ground: GroundSet, framework: str, key) -> str:
    """The key as the JSON catalog names it (pair_key or subset_key, which
    refuse a key outside the universe)."""
    if framework == "eta":
        return ground.pair_key(*key)
    return ground.subset_key(key)


def _catalog_text(ground: GroundSet, framework: str, rows: Iterable[LinearConstraint]) -> str:
    """The catalog of the rows as setfam._json_text prints it (sorted keys,
    indent 1, non-ASCII kept), written as the rows are read, once and in
    order, into one list of parts joined at the end; a row of another
    framework is refused.  Each key is named (_key_name) on its first use
    and keeps one table of its lines, by value.  A row's keys are sorted by
    their names, as sort_keys orders them: GroundSet refuses ',' and '|' in
    a label, so distinct keys have distinct names."""
    names = _Rendered(lambda key: _key_name(ground, framework, key))
    cells = _Rendered(
        lambda key: _Rendered(lambda value, quoted=_quote(names[key]): f'    {quoted}: "{value}"')
    )
    labels = ",\n".join(["  " + _quote(x) for x in ground.labels])
    parts = [f'{{\n "framework": {_quote(framework)},\n "labels": [\n{labels}\n ],\n "rows": [']
    sep = "\n"
    for row in rows:
        if row.framework != framework:
            raise _foreign_row(row, framework)
        coeffs = row.coeffs
        body = ",\n".join([cells[k][coeffs[k]] for k in sorted(coeffs, key=names.__getitem__)])
        coeffs_text = f"{{\n{body}\n   }}" if body else "{}"
        parts.append(
            f'{sep}  {{\n   "coeffs": {coeffs_text},\n   "rhs": "{row.rhs}",\n'
            f'   "sense": {_quote(row.sense)},\n   "tag": {_quote(row.tag)}\n  }}'
        )
        sep = ",\n"
    parts.append("\n ]\n}\n" if len(parts) > 1 else "]\n}\n")
    return "".join(parts)


def _lp_text(ground: GroundSet, framework: str, rows: Iterable[LinearConstraint]) -> str:
    """LP-format text export of the rows, read once and in order; a row of
    another framework is refused.  Every variable is declared free.

    A row is named after its tag, each character other than an ASCII
    letter or digit read as '_', and prefixed with 'r' when that leaves it
    empty or starting with a digit; a name already taken gets the next
    free suffix _1, _2, ...  A row with fractions is scaled to integers
    (_integer_row), and its terms are written in key order.  Each key's
    variable is named on its first use and keeps one table of its term
    texts, by value.  Rows whose distinct coordinates do not get distinct
    variable names made of _LP_NAME_CHARS alone are refused."""
    # variable names in order of first use
    var = _Rendered(lambda key: _variable_name(ground, framework, key))
    terms = _Rendered(
        lambda key: _Rendered(
            lambda coef, name=var[key]: f"- {-coef} {name}" if coef < 0 else f"+ {coef} {name}"
        )
    )
    lines = [
        f"\\ constraint system export (framework {framework})", "Minimize", " obj: 0", "Subject To"
    ]
    taken: set[str] = set()
    suffixes: dict[str, int] = {}
    for row in rows:
        if row.framework != framework:
            raise _foreign_row(row, framework)
        base = _LP_ROW_OTHER.sub("_", row.tag)
        if not base or base[0] in digits:
            base = "r" + base
        name = base
        while name in taken:
            suffixes[base] = suffixes.get(base, 0) + 1
            name = f"{base}_{suffixes[base]}"
        taken.add(name)
        coeffs, rhs = _integer_row(row)
        if not coeffs:
            lines.append(f"\\ vacuous row {name}: 0 {row.sense} {rhs}")
            continue
        body = " ".join([terms[key][coeffs[key]] for key in sorted(coeffs)]).lstrip("+ ")
        lines.append(f" {name}: {body} {row.sense} {rhs}")
    lines.append("Bounds")
    owners: dict[str, object] = {}
    for key, variable in var.items():
        if not _LP_NAME_CHARS.issuperset(variable):
            raise ValueError(
                f"LP variable name {variable!r} holds a character LP names may not hold"
            )
        if variable in owners:
            raise ValueError(
                f"coordinates {_key_name(ground, framework, owners[variable])!r} "
                f"and {_key_name(ground, framework, key)!r} share the LP "
                f"variable name {variable!r}"
            )
        owners[variable] = key
        lines.append(f" {variable} free")
    lines.append("End\n")
    return "\n".join(lines)


def _variable_name(ground: GroundSet, framework: str, key) -> str:
    if framework == "eta":
        i, b = key
        return f"eta_{ground.labels[i]}_{_lp_set(ground, b)}"
    return f"{framework}_{_lp_set(ground, key)}"


def _integer_row(row: LinearConstraint) -> tuple[dict, int]:
    """The row's coefficients and right-hand side multiplied by the lcm of
    their denominators, so that all are ints; a row of ints as it is."""
    scale = lcm(row.rhs.denominator, *[v.denominator for v in row.coeffs.values()])
    if scale == 1:
        return row.coeffs, row.rhs
    return {k: int(v * scale) for k, v in row.coeffs.items()}, int(row.rhs * scale)


class _Rendered(dict):
    """render(key) for each key looked up, computed on its first lookup."""

    def __init__(self, render: Callable):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _lp_set(ground: GroundSet, mask: int) -> str:
    return ground.tag_key(mask) if mask else "0"


# ---------------------------------------------------------------------------
# eta framework (the families are described at eta_system)


def _eta_nonneg_rows(ground: GroundSet) -> Iterator[LinearConstraint]:
    for i, b in eta_pairs(ground):
        yield LinearConstraint("eta", {(i, b): 1}, ">=", 0, f"nonneg:{ground.pair_key(i, b)}")


def _eta_equality_rows(ground: GroundSet) -> Iterator[LinearConstraint]:
    for j in range(ground.n):
        coeffs = {(i, b): 1 for i, b in eta_pairs(ground) if i == j}
        yield LinearConstraint("eta", coeffs, "=", 1, f"equality:{ground.labels[j]}")


def _eta_cluster_rows(ground: GroundSet) -> Iterator[LinearConstraint]:
    for c in p2_masks(ground):
        coeffs = {(i, b): 1 for i, b in eta_pairs(ground) if (c >> i) & 1 and b & c == 0}
        yield LinearConstraint("eta", coeffs, ">=", 1, f"cluster:{ground.tag_key(c)}")


# ---------------------------------------------------------------------------
# u framework


def u_equality_system(ground: GroundSet) -> ConstraintSystem:
    """The standardization equalities: total sum zero, and per variable the
    sum over sets containing it zero."""
    return ConstraintSystem(ground, "u", tuple(_u_equality_rows(ground)))


def _u_equality_rows(ground: GroundSet) -> Iterator[LinearConstraint]:
    yield LinearConstraint("u", {t: 1 for t in range(1 << ground.n)}, "=", 0, "equality:total")
    for j in range(ground.n):
        coeffs = {t: 1 for t in range(1 << ground.n) if (t >> j) & 1}
        yield LinearConstraint("u", coeffs, "=", 0, f"equality:{ground.labels[j]}")


def specific_constraint(antichain: Antichain) -> LinearConstraint:
    """Sum of u over the superset closure of the antichain is at most one."""
    closure = superset_closure(antichain)
    coeffs = {t: 1 for t in closure}
    return LinearConstraint("u", coeffs, "<=", 1, f"specific:{antichain.tag()}")


def cluster_constraint_u(ground: GroundSet, c: int) -> LinearConstraint:
    """Weighted row: sum of u(T)(|C cap T| - 1) over |C cap T| >= 2 is
    nonnegative, i.e. the pairing with cluster_supermodular(ground, c)."""
    return _pairing_row(cluster_supermodular(ground, c), f"cluster-u:{ground.tag_key(c)}")


# ---------------------------------------------------------------------------
# kappa coefficients and the c framework


@dataclass(frozen=True, eq=True)
class KappaCoefficients:
    """Integer coefficients supported on the union closure of an antichain,
    determined by: on the closure, partial sums over subsets equal one."""

    antichain: Antichain
    entries: tuple[tuple[int, int], ...]

    def value(self, mask: int) -> int:
        for m, v in self.entries:
            if m == mask:
                return v
        return 0


def kappa_coefficients(antichain: Antichain) -> KappaCoefficients:
    """Recursive computation over the union closure, ascending by size:
    kappa(S) = 1 - sum of kappa(T) over closure members T strictly inside S."""
    closure = union_closure_class(antichain).members
    order = sorted(closure, key=lambda m: (m.bit_count(), m))
    values: dict[int, int] = {}
    for s in order:
        total = 0
        for t in order:
            if t != s and t & s == t:
                total += values[t]
        values[s] = 1 - total
    entries = tuple((m, values[m]) for m in order)
    return KappaCoefficients(antichain, entries)


def char_specific_constraint(antichain: Antichain) -> LinearConstraint:
    """The specific row rewritten over characteristic coordinates.

    Entries of the kappa vector on subsets with fewer than two members are
    folded into the right-hand side using the tacit value 1 there.  The row
    can come out vacuous (no coordinates left), which is flagged by
    LinearConstraint.is_vacuous.
    """
    kappa = kappa_coefficients(antichain)
    coeffs: dict[int, int] = {}
    rhs = 0
    for mask, v in kappa.entries:
        if mask.bit_count() >= 2:
            coeffs[mask] = v
        else:
            rhs -= v
    return LinearConstraint(
        "c", coeffs, ">=", rhs, f"kappa-specific:{antichain.tag()}"
    )


def specific_rows(ground: GroundSet, family: str, walk=None) -> Iterator[LinearConstraint]:
    """The 'specific' (u) or 'kappa-specific' (c) row of every antichain in
    walk, a sequence of walk_antichains items (by default the whole walk),
    built without an Antichain object.

    The u row is the indicator of the superset closure: the closure of
    A + m is that of A joined with the supersets of m.  The kappa vector is
    the subset-Moebius transform mu_A of that indicator.  It is carried down
    the walk too: the closure of A + m also loses the sets containing both m
    and a member of A, so
        mu_{A+m} = mu_A + delta_m - shift_m(mu_A),
    shift_m sending delta_X to delta_{X | m}.  Each row's entries, singleton
    members and tag ride down the antichain recursion (setfam._antichain_walk)
    as its state, so a row costs its parent's support; a given walk is
    folded item by item from each item's own sets.  The singleton entries
    of mu_A are exactly A's singleton members, each 1 (no later step reaches
    a one-bit key), and they move to the right-hand side.  Rows equal
    specific_constraint and char_specific_constraint; a u row's coeffs are
    in growth order.  Every entry is already a nonzero int, so the rows skip
    the constructor's checks (LinearConstraint._canonical); each row gets
    its own copy of the carried entries, so changing one row's coeffs
    cannot change the rows derived after it.

    Unknown families and, for the whole walk, n >= 6 are refused on the
    call, before any row is built.
    """
    tags = tag_key_table(ground)
    if family == "specific":
        up = [dict.fromkeys(bits_of(b), 1) for b in _superset_bits(ground.n)]

        def grow(state, m):
            entries, tag = state
            return entries | up[m], f"{tag},{tags[m]}" if entries else tag + tags[m]

        def rows(states):
            for (entries, tag), _ in states:
                yield LinearConstraint._canonical("u", entries.copy(), "<=", 1, tag)

        root = ({}, "specific:")
    elif family == "kappa-specific":

        def grow(state, m):
            mu, singles, tag = state
            if not m & (m - 1):
                singles += (m,)
            return (
                _grow_measure(mu, m),
                singles,
                f"{tag},{tags[m]}" if mu else tag + tags[m],
            )

        def rows(states):
            for (mu, singles, tag), _ in states:
                coeffs = mu.copy()
                for s in singles:
                    del coeffs[s]
                yield LinearConstraint._canonical("c", coeffs, ">=", -len(singles), tag)

        root = ({}, (), "kappa-specific:")
    else:
        raise ValueError(f"unknown specific family {family!r}")
    if walk is None:
        return rows(_antichain_walk(ground, root, grow))
    return rows((reduce(grow, sets, root), closure) for sets, closure in walk)


def _grow_measure(mu: dict[int, int], m: int) -> dict[int, int]:
    """mu + delta_m - shift_m(mu), without zero entries."""
    grown = mu.copy()
    get = grown.get
    for t, v in mu.items():
        t |= m
        w = get(t, 0) - v
        if w:
            grown[t] = w
        else:
            del grown[t]
    # m joins the antichain A, in the walk or in a walk item's fold, so m lies
    # outside the superset closure U of A: the sum of mu_A over the subsets
    # of m is 1_U(m) = 0, and mu_A(m) = 0, so the loop leaves nothing at m
    grown[m] = 1
    return grown


def cluster_constraint_c(ground: GroundSet, c: int) -> LinearConstraint:
    """Cluster row over characteristic coordinates:

        |C| - 1 - sum over S inside C, |S| >= 2, of (-1)^|S| c(S)  >=  0.
    """
    ground.check_mask(c)
    if c.bit_count() < 2:
        raise ValueError("cluster rows need a set with at least two members")
    coeffs = {s: 1 if s.bit_count() % 2 else -1 for s in _submasks(c) if s.bit_count() >= 2}
    return LinearConstraint(
        "c", coeffs, ">=", 1 - c.bit_count(), f"cluster-c:{ground.tag_key(c)}"
    )


# ---------------------------------------------------------------------------
# supermodular functions and the nonspecific family


class SupermodularFunction(_Vector):
    """A set function given densely over all subsets (index = mask)."""

    _noun = "set function"
    _entry = Fraction

    def is_standardized(self) -> bool:
        return all(
            self.values[m] == 0 for m in range(1 << self.ground.n) if m.bit_count() <= 1
        )

    def to_json_dict(self) -> dict:
        entries = self._entries()
        if any(v.denominator != 1 for v in entries.values()):
            raise ValueError(
                "only integer-valued set functions serialize; normalize the vector first"
            )
        return {"entries": {key: int(v) for key, v in entries.items()}}


def _elementary_triples(ground: GroundSet) -> Iterator[tuple[int, int, int]]:
    """The (i, j, C) of the elementary imsets, i < j and C inside the rest of
    the ground set: by i, then j, then C in ascending mask order."""
    for i in range(ground.n):
        for j in range(i + 1, ground.n):
            for c in _submasks(ground.full_mask & ~(1 << i) & ~(1 << j)):
                yield i, j, c


def is_supermodular(m: SupermodularFunction) -> bool:
    """Check every elementary exchange
    m(C+i+j) + m(C) >= m(C+i) + m(C+j)."""
    v = m.values
    return all(
        v[c | (1 << i) | (1 << j)] + v[c] >= v[c | (1 << i)] + v[c | (1 << j)]
        for i, j, c in _elementary_triples(m.ground)
    )


def cluster_supermodular(ground: GroundSet, c: int) -> SupermodularFunction:
    """m(T) = max(0, |C cap T| - 1)."""
    ground.check_mask(c)
    if c.bit_count() < 2:
        raise ValueError("cluster functions need a set with at least two members")
    values = [max(0, (t & c).bit_count() - 1) for t in range(1 << ground.n)]
    return SupermodularFunction(ground, tuple(values))


def indicator_supermodular(ground: GroundSet, s: int) -> SupermodularFunction:
    """m(T) = 1 if T contains S else 0."""
    ground.check_mask(s)
    if s.bit_count() < 2:
        raise ValueError(
            "superset indicators of sets with fewer than two members are not "
            "standardized"
        )
    values = [1 if t & s == s else 0 for t in range(1 << ground.n)]
    return SupermodularFunction(ground, tuple(values))


def pairing(m: SupermodularFunction, u_values: Sequence) -> Fraction:
    """The bilinear pairing: sum over subsets of m(T) u(T)."""
    return sum(
        (mv * uv for mv, uv in zip(m.values, u_values) if mv), Fraction(0)
    )


def _pairing_row(m: SupermodularFunction, tag: str) -> LinearConstraint:
    """The row pairing(m, u) >= 0 over u coordinates."""
    return LinearConstraint("u", dict(enumerate(m.values)), ">=", 0, tag)


def nonspecific_constraints(
    ground: GroundSet, rays: Sequence[SupermodularFunction]
) -> ConstraintSystem:
    """One row per extreme ray: the pairing with u is nonnegative."""
    return ConstraintSystem(ground, "u", tuple(_ray_rows(ground, rays)))


def _ray_rows(ground: GroundSet, rays) -> Iterator[LinearConstraint]:
    for k, ray in enumerate(rays):
        if ray.ground != ground:
            raise ValueError("ray ground set does not match")
        yield _pairing_row(ray, f"nonspecific:{k}")


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(ints) if g <= 1 else tuple([x // g for x in ints])


def double_description(rows: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {x : r.x >= 0 for every row r}.

    Incremental insertion in incidence-set form (Fukuda & Prodon 1996): each
    ray carries the processed rows it is tight on as an int bitset, from
    which the combinatorial adjacency test reads.  Exact integer arithmetic
    with coprime normalization of every ray, by one gcd pass.
    """
    # one reduction of [R^T | I]: its pivot columns are the first dim linearly
    # independent rows B, and its right-hand block is (B^T)^-1, whose rows are
    # the rays of the simplicial cone {x : B x >= 0}
    m = len(rows)
    reduced, pivots, den = _echelon(
        [[row[k] for row in rows] + [int(j == k) for j in range(dim)] for k in range(dim)]
    )
    basis_idx = [c for c in pivots if c < m]
    if len(basis_idx) < dim:
        raise ValueError("cone is not pointed (constraint rows do not have full rank)")
    # the rows hold the block over the common denominator den; a negative
    # den turns each ray around
    sign = 1 if den > 0 else -1
    rays = [_primitive([sign * x for x in r[m:]]) for r in reduced]
    basis = sum(1 << i for i in basis_idx)
    tight = [basis & ~(1 << i) for i in basis_idx]
    for idx, row in enumerate(rows):
        if basis >> idx & 1:
            continue
        dots = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        pos = [k for k, d in enumerate(dots) if d > 0]
        zero = [k for k, d in enumerate(dots) if d == 0]
        neg = [k for k, d in enumerate(dots) if d < 0]
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[int] = []
        for p in pos:
            for q in neg:
                # adjacent rays share dim - 2 independent tight rows, and no
                # third ray is tight on all the rows they share
                common = tight[p] & tight[q]
                if common.bit_count() < dim - 2 or any(
                    common & tight[r] == common
                    for r in range(len(rays)) if r != p and r != q
                ):
                    continue
                combo = [
                    dots[p] * rays[q][k] - dots[q] * rays[p][k]
                    for k in range(dim)
                ]
                new_rays.append(_primitive(combo))
                new_tight.append(common | 1 << idx)
        rays = [rays[k] for k in pos + zero] + new_rays
        tight = [tight[k] for k in pos] + [tight[k] | 1 << idx for k in zero] + new_tight
    return sorted(set(rays))


def _exchange_rows_p2(ground: GroundSet) -> list[tuple[int, ...]]:
    """The elementary imsets restricted to the coordinates on subsets with
    >= 2 members: the exchange rows of standardized supermodular functions,
    whose entries on smaller subsets are zero."""
    masks = p2_masks(ground)
    rows = []
    for i, j, c in _elementary_triples(ground):
        values = semi_elementary_imset(ground, 1 << i, 1 << j, c).values
        rows.append(tuple(values[m] for m in masks))
    return rows


def _builtin_rays_n3(ground: GroundSet) -> list[SupermodularFunction]:
    pair_masks = [m for m in p2_masks(ground) if m.bit_count() == 2]
    rays = [indicator_supermodular(ground, m) for m in pair_masks]
    rays.append(indicator_supermodular(ground, ground.full_mask))
    rays.append(cluster_supermodular(ground, ground.full_mask))
    return rays


def supermodular_rays(ground: GroundSet, source: str | None = None) -> list[SupermodularFunction]:
    """Extreme rays of the cone of standardized supermodular functions,
    normalized to coprime integers.

    source is 'builtin' (n=3 only) or 'computed' (exact double description,
    n <= 4; at n = 5 it had done 38 of 54 insertions after 196 s on 2 vCPUs).
    None, the one source of the nonspecific rows, takes the builtin rays at
    n = 3 and the computed ones otherwise.
    """
    if source is None:
        source = "builtin" if ground.n == 3 else "computed"
    if source == "builtin":
        if ground.n != 3:
            raise ValueError("builtin rays are available for n = 3 only")
        return _builtin_rays_n3(ground)
    if source == "computed":
        if ground.n > 4:
            raise ValueError("computed rays are limited to n <= 4")
        masks = p2_masks(ground)
        rows = _exchange_rows_p2(ground)
        rays_p2 = double_description(rows, len(masks))
        out = []
        for vec in rays_p2:
            values = [0] * (1 << ground.n)
            for mask, v in zip(masks, vec):
                values[mask] = v
            out.append(SupermodularFunction(ground, tuple(values)))
        return out
    raise ValueError(f"unknown ray source {source!r}: use 'builtin' or 'computed'")


# ---------------------------------------------------------------------------
# dual cone of superset-closed classes


class DualVector(_Vector):
    """A rational vector over the non-empty subsets (index = mask; the entry
    at mask 0 must stay zero)."""

    _noun = "dual vector"
    _entry = Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.values[0] != 0:
            raise ValueError("dual vectors carry no entry at the empty set")

    def to_json_dict(self) -> dict:
        entries = {key: str(v) for key, v in self._entries().items()}
        return {"labels": list(self.ground.labels), "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DualVector":
        try:
            labels = data["labels"]
            entries = data["entries"]
        except (KeyError, TypeError):
            raise ValueError("dual vector JSON needs 'labels' and 'entries'") from None
        ground = _ground_from_labels(labels)
        values = [Fraction(0)] * (1 << ground.n)
        for mask, v in _keyed_entries(_rational_entries(entries), ground.parse_subset):
            if mask == 0:
                raise ValueError("dual vectors carry no entry at the empty set")
            values[mask] = v
        return cls(ground, tuple(values))


def y_of_class(antichain: Antichain) -> DualVector:
    """The extreme dual vector of a superset-closed class: indicator of the
    closure, corrected by the number of proper singleton members below."""
    ground = antichain.ground
    closure = _up_set(ground.n, antichain.sets)
    # a singleton lies in the closure exactly when it is a member
    singletons = [m for m in antichain.sets if m.bit_count() == 1]
    values = [Fraction(0)] * (1 << ground.n)
    for t in p1_masks(ground):
        v = closure >> t & 1
        v -= sum(1 for s in singletons if s != t and s & t == s)
        values[t] = Fraction(v)
    return DualVector(ground, tuple(values))


def _dual_cone_violation(y: DualVector) -> dict | None:
    """First violated membership condition as a JSON witness, or None.

    Conditions: singletons nonnegative; for |S| = 2 and i in S,
    y(S) + y({i}) >= 0; for |S| >= 3 and i in S,
    y(S) + y({i}) - y(S minus i) >= 0.  The witness names the condition,
    the set S and, for the last two, the variable i.
    """
    ground = y.ground
    for t in sorted(p1_masks(ground), key=lambda m: (m.bit_count(), m)):
        size = t.bit_count()
        if size == 1:
            if y.values[t] < 0:
                return {"condition": "singleton", "set": ground.subset_key(t)}
            continue
        condition = "pair" if size == 2 else "general"
        for i in bits_of(t):
            rest = 0 if size == 2 else y.values[t & ~(1 << i)]
            if y.values[t] + y.values[1 << i] - rest < 0:
                return {
                    "condition": condition,
                    "set": ground.subset_key(t),
                    "variable": ground.labels[i],
                }
    return None


def check_dual_cone(y: DualVector) -> bool:
    """Membership test for the cone dual to the specific rows."""
    return _dual_cone_violation(y) is None


def conic_decompose(y: DualVector) -> list[tuple[Antichain, Fraction]]:
    """Write a dual-cone member as a positive combination of extreme vectors
    y_A over superset-closed classes A.

    Each pass takes the minimal sets of the support (those of its superset
    closure A), peels off the minimum over them times y_A, and repeats; the
    support class strictly shrinks, so the loop ends.  Raises ValueError if
    the input is outside the cone and ConeViolationError if a residual ever
    leaves it (which would indicate a bug, not bad input).
    """
    if not check_dual_cone(y):
        raise ValueError("input vector is outside the dual cone")
    ground = y.ground
    current = list(y.values)
    terms: list[tuple[Antichain, Fraction]] = []
    while any(current):
        # a support member is minimal when no earlier minimal set lies below it
        sets: list[int] = []
        for t in p1_masks(ground):
            if current[t] != 0 and all(m & t != m for m in sets):
                sets.append(t)
        mins = Antichain(ground, tuple(sets))
        beta = min(current[t] for t in mins)
        if beta <= 0:
            raise ConeViolationError(
                "minimal-set minimum is not positive; residual left the cone"
            )
        extreme = y_of_class(mins)
        for t in p1_masks(ground):
            current[t] -= beta * extreme.values[t]
        residual = DualVector(ground, tuple(current))
        if not check_dual_cone(residual):
            raise ConeViolationError("residual left the dual cone")
        terms.append((mins, Fraction(beta)))
    return terms


# ---------------------------------------------------------------------------
# system assembly over a whole framework


def _nonspecific_rows(ground: GroundSet) -> Iterator[LinearConstraint]:
    # the rays are computed, or refused, on the call
    return _ray_rows(ground, supermodular_rays(ground))


def _nonspecific_rows_c(ground: GroundSet, rays) -> Iterator[LinearConstraint]:
    """The nonspecific rows of rays pulled back through u = Moebius(1 - c on
    the subsets with >= 2 members): with b the subset-Moebius transform of
    a ray m, pairing(m, u) >= 0 reads  sum of -b(S) c(S) >= -sum of b(S),  S
    ranging over those subsets.  One 2^n butterfly per ray."""
    masks = p2_masks(ground)
    for k, ray in enumerate(rays):
        b = superset_moebius([int(v) for v in ray.values[::-1]], ground.n)[::-1]
        coeffs = {m: -b[m] for m in masks}
        yield LinearConstraint("c", coeffs, ">=", sum(coeffs.values()), f"nonspecific:{k}")


# each framework's families in canonical order, each with the function that
# builds its rows over a ground set.  A builder raises its family's refusal
# on the call and builds its rows only as they are read, so a system is
# refused before any of its rows is built (assemble_system)
_FAMILY_ROWS: dict[str, dict[str, Callable[[GroundSet], Iterable[LinearConstraint]]]] = {
    "eta": {
        "nonneg": _eta_nonneg_rows,
        "equality": _eta_equality_rows,
        "cluster": _eta_cluster_rows,
    },
    "u": {
        "equality": _u_equality_rows,
        "specific": lambda ground: specific_rows(ground, "specific"),
        "nonspecific": _nonspecific_rows,
        "cluster-u": lambda ground: (cluster_constraint_u(ground, c) for c in p2_masks(ground)),
    },
    "c": {
        "kappa-specific": lambda ground: specific_rows(ground, "kappa-specific"),
        "cluster-c": lambda ground: (cluster_constraint_c(ground, c) for c in p2_masks(ground)),
    },
}
ETA_FAMILIES, U_FAMILIES, C_FAMILIES = (tuple(_FAMILY_ROWS[f]) for f in ("eta", "u", "c"))

# each u family with the function that builds its rows pulled back to c
# coordinates through u = Moebius(1 - c), from a ground set and a walk (as
# for specific_rows), row for row in the u family's order: the
# standardization equalities read 0 = 0 there, a specific row pulls back to
# its antichain's kappa-specific row, a cluster-u row to its set's cluster-c
# row, and a nonspecific row to its ray's transform.  The rows carry the
# twin's tags; only the family names differ.  Like the builders above, a
# twin raises its refusal on the call and builds its rows as they are read.
_C_TWINS: dict[str, Callable[[GroundSet, Sequence | None], Iterable[LinearConstraint]]] = {
    "equality": lambda ground, walk: (
        LinearConstraint("c", {}, "=", 0, row.tag) for row in _u_equality_rows(ground)
    ),
    "specific": lambda ground, walk: specific_rows(ground, "kappa-specific", walk),
    "nonspecific": lambda ground, walk: _nonspecific_rows_c(ground, supermodular_rays(ground)),
    "cluster-u": lambda ground, walk: _FAMILY_ROWS["c"]["cluster-c"](ground),
}


def _family_builders(framework: str, families: Sequence[str]):
    """Each requested family of a framework with the function that builds its
    rows, in the order given.  A family listed twice, whose rows would all
    appear twice, is refused first, then an unknown framework, then an
    unknown family when it is reached, before its builder is called."""
    for k, family in enumerate(families):
        if family in families[:k]:
            raise ValueError(f"constraint family {family!r} is listed twice")
    if framework not in _FAMILY_ROWS:
        raise ValueError(f"unknown framework {framework!r}")
    builders = _FAMILY_ROWS[framework]
    for family in families:
        if family not in builders:
            raise ValueError(f"unknown {framework} constraint family {family!r}")
        yield family, builders[family]


def _family_rows(
    ground: GroundSet, framework: str, families: Sequence[str]
) -> Iterator[LinearConstraint]:
    """The rows of the requested families of a framework, in the order
    given, as one iterator; every family's refusal (_family_builders) is
    raised on the call, before any row is built."""
    builders = _family_builders(framework, families)
    return chain.from_iterable([build(ground) for _family, build in builders])


def assemble_system(
    ground: GroundSet,
    framework: str,
    families: Sequence[str],
) -> ConstraintSystem:
    """The system of the requested families of a framework, in the order
    given (_family_rows: every refusal comes before any row is built)."""
    return ConstraintSystem(ground, framework, tuple(_family_rows(ground, framework, families)))


def eta_system(ground: GroundSet, families: Sequence[str] = ETA_FAMILIES) -> ConstraintSystem:
    """Rows characterizing acyclic digraph codes among 0/1 eta vectors
    (assemble_system over 'eta'):

    * nonneg: every entry at least zero;
    * equality: entries of each variable sum to one;
    * cluster: for each set C with >= 2 members, the entries (i|B) with i in C
      and B disjoint from C sum to at least one.
    """
    return assemble_system(ground, "eta", families)
