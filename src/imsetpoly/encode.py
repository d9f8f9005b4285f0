"""Vector encodings of directed-graph structure and the maps between them.

Three codes live here:

* EtaVector: one 0/1 (or general integer) entry per conditional pair (i|B),
  set to 1 exactly when B is the parent set of i;
* StandardImset: an integer function on all subsets of the ground set;
* CharacteristicImset: an integer function on the subsets with at least two
  members, with the tacit convention that it equals 1 on smaller subsets.

The transforms implemented below form a commuting triangle on inputs whose
eta entries sum to one per variable (every graph code does).
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DirectedGraph, is_acyclic, super_terminal_counts
from .setfam import (
    GroundSet,
    _ground_from_labels,
    _integer_entries,
    _keyed_entries,
    _submasks,
    bits_of,
    eta_pairs,
    p2_index,
    p2_masks,
    pair_index,
    superset_moebius,
    superset_zeta,
)


@dataclass(frozen=True)
class _Vector:
    """Entries over the coordinates of a ground set, one entry per coordinate.

    A subclass names its noun for the length error, its per-entry conversion
    (None keeps entries as given) and its coordinates, in entry order, when
    they are not every subset in mask order: a coordinate is a subset mask
    or an (i, B) pair.
    """

    ground: GroundSet
    values: tuple

    _noun = "vector"
    _entry = None
    _coordinates = staticmethod(lambda ground: range(1 << ground.n))

    def __post_init__(self) -> None:
        entry = self._entry
        values = tuple(self.values) if entry is None else tuple(map(entry, self.values))
        expect = len(self._coordinates(self.ground))
        if len(values) != expect:
            raise ValueError(f"{self._noun} needs {expect} entries, got {len(values)}")
        object.__setattr__(self, "values", values)

    def value(self, mask: int):
        self.ground.check_mask(mask)
        return self.values[mask]

    def _entries(self) -> dict:
        """The nonzero entries, in coordinate order, keyed by the name of
        their coordinate (pair_key or subset_key)."""
        ground = self.ground
        return {
            ground.pair_key(*at) if type(at) is tuple else ground.subset_key(at): v
            for at, v in zip(self._coordinates(ground), self.values)
            if v
        }


class _Imset(_Vector):
    """A vector encoding with a JSON form: its _kind and its nonzero entries."""

    def to_json_dict(self) -> dict:
        return {"labels": list(self.ground.labels), "kind": self._kind, "entries": self._entries()}


class EtaVector(_Imset):
    """Integer vector indexed by conditional pairs (i|B), canonical order."""

    _noun = "eta vector"
    _kind = "eta"
    _coordinates = staticmethod(eta_pairs)

    def value(self, i: int, b: int) -> int:
        self.ground.check_mask(1 << i)
        self.ground.check_mask(b)
        return self.values[pair_index(self.ground, i, b)]


class StandardImset(_Imset):
    """Integer function on all subsets; values[mask] is the entry at mask."""

    _noun = "standard imset"
    _kind = "standard"

    def is_standardized(self) -> bool:
        """Total sum zero and, for each variable, the sum over sets containing
        it zero."""
        if sum(self.values) != 0:
            return False
        for j in range(self.ground.n):
            bit = 1 << j
            if sum(v for m, v in enumerate(self.values) if m & bit) != 0:
                return False
        return True


class Portrait(_Vector):
    """Superset-sum transform of a standard imset (one entry per subset)."""

    _noun = "portrait"


class CharacteristicImset(_Imset):
    """Integer function on subsets with >= 2 members (ascending mask order);
    reads as 1 on smaller subsets."""

    _noun = "characteristic imset"
    _kind = "characteristic"
    _coordinates = staticmethod(p2_masks)

    def value(self, mask: int) -> int:
        self.ground.check_mask(mask)
        if mask.bit_count() <= 1:
            return 1
        return self.values[p2_index(self.ground)[mask]]


def basic_vector(ground: GroundSet, a: int) -> StandardImset:
    """The indicator of a single subset."""
    ground.check_mask(a)
    values = [0] * (1 << ground.n)
    values[a] = 1
    return StandardImset(ground, tuple(values))


def semi_elementary_imset(ground: GroundSet, a: int, b: int, c: int) -> StandardImset:
    """The imset with +1 at C and A|B|C, -1 at A|C and B|C.

    A, B, C must be pairwise disjoint; the result is the zero imset exactly
    when A or B is empty.
    """
    for m in (a, b, c):
        ground.check_mask(m)
    if a & b or a & c or b & c:
        raise ValueError("the three component sets must be pairwise disjoint")
    values = [0] * (1 << ground.n)
    values[c] += 1
    values[a | c] -= 1
    values[b | c] -= 1
    values[a | b | c] += 1
    return StandardImset(ground, tuple(values))


def eta_of(g: DirectedGraph) -> EtaVector:
    """The 0/1 code of a digraph: 1 at (i|B) iff B is the parent set of i."""
    ground = g.ground
    values = [0] * len(eta_pairs(ground))
    for i, p in enumerate(g.parents):
        values[pair_index(ground, i, p)] = 1
    return EtaVector(ground, tuple(values))


def standard_imset_of(g: DirectedGraph) -> StandardImset:
    """Standard imset of an acyclic digraph.

    Rejects cyclic input; use u_from_eta(eta_of(g)) for the formal value on
    an arbitrary digraph code.
    """
    if not is_acyclic(g):
        raise ValueError("standard imsets are defined for acyclic graphs only")
    return u_from_eta(eta_of(g))


def u_from_eta(eta: EtaVector) -> StandardImset:
    """Linear extension of the graph-to-standard-imset map to any eta vector:

        u(T) = [T=N] - [T=empty] + sum over (i|B) of eta(i|B)([T=B] - [T=B+i])
    """
    ground = eta.ground
    values = [0] * (1 << ground.n)
    values[ground.full_mask] += 1
    values[0] -= 1
    for (i, b), v in zip(eta_pairs(ground), eta.values):
        if v:
            values[b] += v
            values[b | (1 << i)] -= v
    return StandardImset(ground, tuple(values))


def portrait_of(u: StandardImset) -> Portrait:
    """p(S) = sum of u(T) over supersets T of S."""
    return Portrait(u.ground, tuple(superset_zeta(list(u.values), u.ground.n)))


def characteristic_of(u: StandardImset) -> CharacteristicImset:
    """c(S) = 1 - p(S) on subsets with >= 2 members.

    Requires a standardized input, which is exactly the condition making the
    tacit value 1 on smaller subsets consistent with the same formula.
    """
    if not u.is_standardized():
        raise ValueError("characteristic imsets require a standardized input")
    p = superset_zeta(list(u.values), u.ground.n)
    return CharacteristicImset(
        u.ground, tuple(1 - p[m] for m in p2_masks(u.ground))
    )


def u_from_characteristic(c: CharacteristicImset) -> StandardImset:
    """Inverse of characteristic_of:

        u(T) = sum over supersets S of T of (-1)^(|S|-|T|) (1 - c(S)),

    with c read as 1 on subsets of fewer than two members.  The result always
    satisfies the standardization equalities.
    """
    ground = c.ground
    # the superset-sum transform of a standardized vector is 0 on subsets
    # with fewer than two members, so 1 - c vanishes there by the convention
    p = [0] * (1 << ground.n)
    for m, v in zip(p2_masks(ground), c.values):
        p[m] = 1 - v
    return StandardImset(ground, tuple(superset_moebius(p, ground.n)))


def char_from_eta(eta: EtaVector) -> CharacteristicImset:
    """Direct route from an eta vector to its characteristic values:

        c(S) = sum over i in S, B covering S-minus-i, of eta(i|B).

    On a digraph code this counts the members of S whose parents cover the
    rest of S.
    """
    ground = eta.ground
    n = ground.n
    out = []
    for s in p2_masks(ground):
        total = 0
        for i in bits_of(s):
            rest = s & ~(1 << i)
            free = ground.full_mask & ~(1 << i) & ~rest
            for sub in _submasks(free):
                total += eta.values[pair_index(ground, i, rest | sub)]
        out.append(total)
    return CharacteristicImset(ground, tuple(out))


def quasi_characteristic_of(g: DirectedGraph) -> CharacteristicImset:
    """Characteristic values of an arbitrary digraph via super-terminal
    counting; agrees with char_from_eta(eta_of(g))."""
    return CharacteristicImset(g.ground, super_terminal_counts(g.ground, g.parents))


def markov_equivalent(g: DirectedGraph, h: DirectedGraph) -> bool:
    """Whether two acyclic digraphs carry the same standard imset."""
    if g.ground != h.ground:
        raise ValueError("graphs must share a ground set")
    if not is_acyclic(g) or not is_acyclic(h):
        raise ValueError("equivalence testing is defined for acyclic graphs only")
    return standard_imset_of(g) == standard_imset_of(h)


def imset_from_json_dict(data: dict):
    """Rebuild an EtaVector, StandardImset, or CharacteristicImset from its
    JSON dict form (zero entries omitted)."""
    try:
        labels = data["labels"]
        kind = data["kind"]
        entries = data["entries"]
    except (KeyError, TypeError):
        raise ValueError("imset JSON needs 'labels', 'kind' and 'entries'") from None
    ground = _ground_from_labels(labels)
    cls = next((c for c in (EtaVector, StandardImset, CharacteristicImset) if c._kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown imset kind {kind!r}")
    coordinates = cls._coordinates(ground)
    index = {at: k for k, at in enumerate(coordinates)}
    parse = ground.parse_pair if type(coordinates[0]) is tuple else ground.parse_subset
    values = [0] * len(coordinates)
    for at, v in _keyed_entries(_integer_entries(entries), parse):
        if at not in index:
            # only the characteristic imset leaves subsets out
            raise ValueError(f"{cls._noun} entries need subsets with >= 2 members")
        values[index[at]] = v
    return cls(ground, tuple(values))
