"""Digraphs, acyclicity, enumeration, and super-terminal counts."""

import random
from math import comb

import pytest

from imsetpoly.digraph import (
    DirectedGraph,
    _dag_count,
    _super_terminal_table,
    enumerate_dags,
    enumerate_digraphs,
    is_acyclic,
    super_terminal_count,
    super_terminal_counts,
)
from imsetpoly.setfam import GroundSet, _submasks, bits_of, p2_index, p2_masks


def dfs_acyclic(g: DirectedGraph) -> bool:
    """Independent oracle: depth-first search for a back edge over the
    parent-to-child arrows."""
    n = g.ground.n
    children = [[] for _ in range(n)]
    for i, p in enumerate(g.parents):
        for j in bits_of(p):
            children[j].append(i)
    state = [0] * n  # 0 new, 1 on stack, 2 done

    def visit(v: int) -> bool:
        state[v] = 1
        for w in children[v]:
            if state[w] == 1:
                return False
            if state[w] == 0 and not visit(w):
                return False
        state[v] = 2
        return True

    return all(state[v] == 2 or visit(v) for v in range(n))


def robinson_counts(limit: int) -> list[int]:
    """Labelled-DAG counting recurrence, an oracle independent of any
    graph enumeration."""
    a = [1]
    for n in range(1, limit + 1):
        total = 0
        for k in range(1, n + 1):
            total += (-1) ** (k + 1) * comb(n, k) * 2 ** (k * (n - k)) * a[n - k]
        a.append(total)
    return a


def test_from_edges_and_json_round_trip():
    g = GroundSet.of_size(3)
    graph = DirectedGraph.from_edges(g, [("a", "b"), ("b", "a"), ("c", "b")])
    assert graph.parents == (2, 5, 0)
    assert sorted(graph.edges()) == [("a", "b"), ("b", "a"), ("c", "b")]
    assert DirectedGraph.from_json_dict(graph.to_json_dict()) == graph
    with pytest.raises(ValueError):
        DirectedGraph.from_edges(g, [("a", "a")])
    with pytest.raises(ValueError):
        DirectedGraph.from_edges(g, [("a", "z")])
    with pytest.raises(ValueError):
        DirectedGraph(g, (2, 5))
    with pytest.raises(ValueError):
        DirectedGraph(g, (2, 5, 8))
    with pytest.raises(ValueError):
        DirectedGraph(g, (3, 5, 0))


def test_is_acyclic_against_dfs_oracle():
    for n in (2, 3, 4):
        g = GroundSet.of_size(n)
        for graph in enumerate_digraphs(g):
            assert is_acyclic(graph) == dfs_acyclic(graph)


def test_example_graph_is_cyclic():
    g = GroundSet.of_size(3)
    graph = DirectedGraph.from_edges(g, [("a", "b"), ("b", "a"), ("c", "b")])
    assert not is_acyclic(graph)
    assert is_acyclic(DirectedGraph.from_edges(g, [("a", "b"), ("c", "b")]))


def test_enumerate_digraphs_counts():
    for n in (2, 3):
        g = GroundSet.of_size(n)
        graphs = list(enumerate_digraphs(g))
        assert len(graphs) == 2 ** (n * (n - 1))
        assert len({h.parents for h in graphs}) == len(graphs)


def test_enumerate_digraphs_refuses_large_n():
    with pytest.raises(ValueError):
        next(enumerate_digraphs(GroundSet.of_size(5)))


def test_enumerate_dags_against_filter_oracle():
    # same graphs in the same order: the recursion skips exactly the cyclic
    # parent sets, which is_acyclic finds by its own peeling route
    for n in (2, 3, 4):
        g = GroundSet.of_size(n)
        direct = [h.parents for h in enumerate_dags(g)]
        filtered = [h.parents for h in enumerate_digraphs(g) if is_acyclic(h)]
        assert direct == filtered


def test_enumerate_dags_against_recurrence_oracle():
    oracle = robinson_counts(5)
    for n in (2, 3, 4, 5):
        g = GroundSet.of_size(n)
        count = sum(1 for _ in enumerate_dags(g))
        assert count == oracle[n]
    assert oracle[3] == 25 and oracle[4] == 543 and oracle[5] == 29281


def test_census_dag_count_by_recurrence():
    # the census reads its DAG count off the recurrence over set sizes; the
    # enumeration is the independent route, and OEIS A003024 gives n = 6
    oracle = robinson_counts(5)
    for n in (2, 3, 4, 5):
        g = GroundSet.of_size(n)
        assert _dag_count(n) == oracle[n] == sum(1 for _ in enumerate_dags(g))
    assert _dag_count(0) == _dag_count(1) == 1
    assert _dag_count(6) == 3_781_503


def test_enumerate_dags_yields_acyclic_only():
    g = GroundSet.of_size(4)
    for graph in enumerate_dags(g):
        assert is_acyclic(graph)


def test_super_terminal_count_definition():
    g = GroundSet.of_size(3)
    g4 = GroundSet.of_size(4)
    for graph in [*enumerate_digraphs(g), *enumerate_dags(g4)]:
        expected = tuple(
            sum(1 for i in bits_of(s) if (s & ~(1 << i)) & ~graph.parents[i] == 0)
            for s in p2_masks(graph.ground)
        )
        assert super_terminal_counts(graph.ground, graph.parents) == expected
        for s, count in zip(p2_masks(graph.ground), expected):
            assert super_terminal_count(graph, s) == count
    with pytest.raises(ValueError):
        super_terminal_count(next(enumerate_digraphs(g)), 1)


def test_super_terminal_counts_at_n6():
    # on the complete digraph c(S) = |S| reaches 6, the largest count a lane holds
    g = GroundSet.of_size(6)
    rng = random.Random(6)
    graphs = [tuple(g.full_mask & ~(1 << i) for i in range(6))] + [
        tuple(rng.getrandbits(6) & ~(1 << i) for i in range(6)) for _ in range(200)
    ]
    for parents in graphs:
        expected = tuple(
            sum(1 for i in bits_of(s) if (s & ~(1 << i)) & ~parents[i] == 0)
            for s in p2_masks(g)
        )
        assert super_terminal_counts(g, parents) == expected
    assert super_terminal_counts(g, graphs[0]) == tuple(s.bit_count() for s in p2_masks(g))


def in_place_subset_sums(g):
    """table[i][p] read off z, the subset sums of the lanes of the subsets
    with >= 2 members, built by an in-place loop with one pass per node."""
    index = p2_index(g)
    top = len(index) - 1
    size = 1 << g.n
    z = [0] * size
    for m, k in index.items():
        z[m] = 1 << 8 * (top - k)
    for i in range(g.n):
        bit = 1 << i
        for x in range(size):
            if x & bit:
                z[x] += z[x ^ bit]
    return tuple(tuple(z[p | 1 << i] - z[p & ~(1 << i)] for p in range(size)) for i in range(g.n))


def test_super_terminal_table_against_the_submask_sums():
    # oracles: table[i][p] as one sum per (i, p) over the non-empty submasks
    # T of p - i, of the lane of {i} + T; and the in-place subset sums
    for n in range(2, 7):
        g = GroundSet.of_size(n)
        index = p2_index(g)
        top = len(index) - 1
        oracle = tuple(
            tuple(
                sum(1 << 8 * (top - index[t | 1 << i]) for t in _submasks(p & ~(1 << i))[1:])
                for p in range(1 << n)
            )
            for i in range(n)
        )
        assert _super_terminal_table(g) == oracle == in_place_subset_sums(g)


def test_acyclic_super_terminal_at_most_one():
    for n in (3, 4):
        g = GroundSet.of_size(n)
        for graph in enumerate_dags(g):
            for s in p2_masks(g):
                assert super_terminal_count(graph, s) <= 1
