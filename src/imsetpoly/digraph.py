"""Directed graphs over a ground set, stored as per-node parent bitmasks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from operator import getitem
from typing import Iterator, Sequence

from .setfam import GroundSet, _ground_from_labels, _submasks, bits_of, p2_index, superset_zeta


@dataclass(frozen=True)
class DirectedGraph:
    """A loop-free directed graph; parents[i] is the bitmask of nodes with an
    arrow into node i."""

    ground: GroundSet
    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        parents = tuple(self.parents)
        ground = self.ground
        n = ground.n
        if len(parents) != n:
            raise ValueError("need one parent mask per ground-set variable")
        full = (1 << n) - 1
        for i, p in enumerate(parents):
            if not 0 <= p <= full:
                ground.check_mask(p)
            if p >> i & 1:
                raise ValueError(f"node {ground.labels[i]} lists itself as a parent")
        object.__setattr__(self, "parents", parents)

    @classmethod
    def from_edges(
        cls, ground: GroundSet, edges: list[tuple[str, str]]
    ) -> "DirectedGraph":
        """Build from (tail, head) label pairs, each meaning tail -> head."""
        parents = [0] * ground.n
        for tail, head in edges:
            try:
                j = ground.labels.index(tail)
                i = ground.labels.index(head)
            except ValueError:
                raise ValueError(f"edge ({tail!r}, {head!r}) uses an unknown label") from None
            if i == j:
                raise ValueError(f"loop at {tail!r} is not allowed")
            parents[i] |= 1 << j
        return cls(ground, tuple(parents))

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for i, p in enumerate(self.parents):
            for j in bits_of(p):
                out.append((self.ground.labels[j], self.ground.labels[i]))
        return out

    def to_json_dict(self) -> dict:
        return {"labels": list(self.ground.labels), "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DirectedGraph":
        try:
            labels = data["labels"]
            edges = data["edges"]
        except (KeyError, TypeError):
            raise ValueError("graph JSON needs 'labels' and 'edges' entries") from None
        ground = _ground_from_labels(labels)
        # a two-letter string is not an edge, and a number is not a label
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
            for e in edges
        ):
            raise ValueError("'edges' must be a JSON array of [tail, head] label pairs")
        return cls.from_edges(ground, [tuple(e) for e in edges])


def is_acyclic(g: DirectedGraph) -> bool:
    """Peel nodes whose parents are all peeled; acyclic iff all go."""
    peeled = 0
    while peeled != g.ground.full_mask:
        grown = peeled
        for i, parents in enumerate(g.parents):
            if parents & ~grown == 0:
                grown |= 1 << i
        if grown == peeled:
            return False
        peeled = grown
    return True


def enumerate_digraphs(ground: GroundSet) -> Iterator[DirectedGraph]:
    """All loop-free directed graphs: 2^(n(n-1)) of them.  Refuses n >= 5
    (n = 5 already means 2^20 graphs)."""
    if ground.n >= 5:
        raise ValueError("digraph enumeration is limited to n <= 4")
    # node 0's parent set varies slowest, each over its submasks ascending
    choices = [_submasks(ground.full_mask & ~(1 << i)) for i in range(ground.n)]
    for parents in product(*choices):
        yield DirectedGraph(ground, parents)


def enumerate_dags(ground: GroundSet) -> Iterator[DirectedGraph]:
    """All acyclic directed graphs (3 781 503 at n = 6), by per-node
    parent-set recursion.  Node i is offered only parent sets that avoid its
    descendants among nodes 0..i-1, so no cyclic prefix is ever built; the
    order is that of the acyclic digraphs in enumerate_digraphs."""
    # Each node's parent set runs over the submasks of the nodes it may have
    # as parents, ascending.  desc[j] holds the descendants of j through
    # arrows among the nodes chosen so far, and node i may not take as a
    # parent a chosen child of its own or a descendant of one: those are
    # exactly the cyclic choices.
    last = ground.n - 1
    full = ground.full_mask

    def rec(i: int, parents: tuple[int, ...], desc: list[int], below: int):
        # below: the chosen descendants of node i, which it may not take
        allowed = full & ~(1 << i) & ~below
        # i and its descendants become descendants of i's ancestors
        reach = 1 << i | below
        k = i + 1
        for sub in _submasks(allowed):
            grown = [d | reach if sub >> j & 1 or d & sub else d for j, d in enumerate(desc)]
            grown.append(below)
            chosen = parents + (sub,)
            below_k = 0
            for j, p in enumerate(chosen):
                if p >> k & 1:
                    below_k |= 1 << j | grown[j]
            if k == last:
                for sub_k in _submasks(full & ~(1 << k) & ~below_k):
                    yield DirectedGraph(ground, chosen + (sub_k,))
            else:
                yield from rec(k, chosen, grown, below_k)

    yield from rec(0, (), [], 0)


def _dag_count(n: int) -> int:
    """The number of acyclic digraphs on n labelled nodes (OEIS A003024), by
    Robinson's recurrence over set sizes, inclusion and exclusion over k >= 1
    sinks: a(m) = sum over k = 1..m of (-1)^(k+1) C(m, k) 2^(k(m-k)) a(m-k)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum((-1) ** (k + 1) * comb(m, k) * 2 ** (k * (m - k)) * a[m - k]
                     for k in range(1, m + 1)))
    return a[n]


@lru_cache(maxsize=None)
def _super_terminal_table(ground: GroundSet) -> tuple[tuple[int, ...], ...]:
    # table[i][p]: one byte lane per subset with >= 2 members, the first in
    # the highest byte, holding 1 for each {i} + T, T a non-empty subset of p.
    # A sum over the nodes counts at most n <= 6 per lane, so lanes never
    # carry, and packed sums compare like the tuples of their lanes.
    # Read off one subset-sum transform: z[x] holds the lanes of every subset
    # of x with >= 2 members, and those of p + i that hold i are the {i} + T.
    # Subset sums are superset sums over complements: the lanes reversed.
    index = p2_index(ground)
    top = len(index) - 1
    size = 1 << ground.n
    z = [0] * size
    for m, k in index.items():
        z[m] = 1 << 8 * (top - k)
    z = superset_zeta(z[::-1], ground.n)[::-1]
    return tuple(
        tuple(z[p | 1 << i] - z[p & ~(1 << i)] for p in range(size)) for i in range(ground.n)
    )


def _unpack_counts(ground: GroundSet, packed: int) -> tuple[int, ...]:
    return tuple(packed.to_bytes(len(p2_index(ground)), "big"))


def super_terminal_counts(ground: GroundSet, parents: Sequence[int]) -> tuple[int, ...]:
    """For every subset S with >= 2 members, ascending, the number of i in S
    whose parent mask parents[i] covers the rest of S.

    On an acyclic graph these are its characteristic imset values.
    """
    return _unpack_counts(ground, sum(map(getitem, _super_terminal_table(ground), parents)))


def super_terminal_count(g: DirectedGraph, s: int) -> int:
    """Number of i in S whose parent set covers the rest of S.

    Defined for |S| >= 2 only.
    """
    if s.bit_count() < 2:
        raise ValueError("super-terminal counting needs a set with at least two members")
    g.ground.check_mask(s)
    return super_terminal_counts(g.ground, g.parents)[p2_index(g.ground)[s]]
