"""Directed graphs over a ground set, stored as per-node parent bitmasks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .setfam import GroundSet, _ground_from_labels, bits_of, p2_index, p2_masks


@dataclass(frozen=True)
class DirectedGraph:
    """A loop-free directed graph; parents[i] is the bitmask of nodes with an
    arrow into node i."""

    ground: GroundSet
    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        parents = tuple(self.parents)
        if len(parents) != self.ground.n:
            raise ValueError("need one parent mask per ground-set variable")
        for i, p in enumerate(parents):
            self.ground.check_mask(p)
            if p & (1 << i):
                raise ValueError(f"node {self.ground.labels[i]} lists itself as a parent")
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
    """Peel nodes whose remaining parents are all peeled; acyclic iff all go."""
    return _prefix_acyclic(g.parents, g.ground.n)


def enumerate_digraphs(ground: GroundSet) -> Iterator[DirectedGraph]:
    """All loop-free directed graphs: 2^(n(n-1)) of them.  Refuses n >= 5
    (n = 5 already means 2^20 graphs)."""
    if ground.n >= 5:
        raise ValueError("digraph enumeration is limited to n <= 4")
    yield from _parent_set_recursion(ground, acyclic=False)


def _prefix_acyclic(parents: Sequence[int], k: int) -> bool:
    # Acyclicity of the graph restricted to the first k nodes.  Arrows from
    # later nodes cannot lie on a cycle among the first k, so they are cut.
    assigned = (1 << k) - 1
    removed = 0
    while removed != assigned:
        progress = False
        for i in range(k):
            bit = 1 << i
            if removed & bit:
                continue
            if parents[i] & assigned & ~removed == 0:
                removed |= bit
                progress = True
        if not progress:
            return False
    return True


def enumerate_dags(ground: GroundSet) -> Iterator[DirectedGraph]:
    """All acyclic directed graphs, by per-node parent-set recursion with
    pruning of cyclic prefixes.  Refuses n >= 6."""
    if ground.n >= 6:
        raise ValueError("acyclic enumeration is limited to n <= 5")
    yield from _parent_set_recursion(ground, acyclic=True)


def _parent_set_recursion(ground: GroundSet, acyclic: bool) -> Iterator[DirectedGraph]:
    # choose the parent set of node 0, then node 1, ...; with acyclic set, a
    # prefix whose first nodes already close a cycle is cut with its subtree
    n = ground.n

    def rec(i: int, parents: list[int]) -> Iterator[DirectedGraph]:
        if i == n:
            yield DirectedGraph(ground, tuple(parents))
            return
        others = ground.full_mask & ~(1 << i)
        sub = 0
        while True:
            parents.append(sub)
            if not acyclic or _prefix_acyclic(parents, i + 1):
                yield from rec(i + 1, parents)
            parents.pop()
            if sub == others:
                break
            sub = (sub - others) & others

    yield from rec(0, [])


@lru_cache(maxsize=None)
def _super_terminal_table(ground: GroundSet) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # table[i][p]: positions in p2_masks of all {i} + T, T a non-empty subset of p
    index = p2_index(ground)
    return tuple(
        tuple(
            tuple(index[t | 1 << i] for t in range(1, p + 1) if t & p == t and not t >> i & 1)
            for p in range(1 << ground.n)
        )
        for i in range(ground.n)
    )


def super_terminal_counts(ground: GroundSet, parents: Sequence[int]) -> tuple[int, ...]:
    """For every subset S with >= 2 members, ascending, the number of i in S
    whose parent mask parents[i] covers the rest of S.

    On an acyclic graph these are its characteristic imset values.
    """
    counts = [0] * len(p2_masks(ground))
    for row, p in zip(_super_terminal_table(ground), parents):
        for k in row[p]:
            counts[k] += 1
    return tuple(counts)


def super_terminal_count(g: DirectedGraph, s: int) -> int:
    """Number of i in S whose parent set covers the rest of S.

    Defined for |S| >= 2 only.
    """
    if s.bit_count() < 2:
        raise ValueError("super-terminal counting needs a set with at least two members")
    g.ground.check_mask(s)
    return super_terminal_counts(g.ground, g.parents)[p2_index(g.ground)[s]]
