"""Vector encodings and the transforms between them."""

import random
from fractions import Fraction

import pytest

from imsetpoly.constraint import DualVector, SupermodularFunction
from imsetpoly.digraph import DirectedGraph, enumerate_dags, enumerate_digraphs
from imsetpoly.encode import (
    CharacteristicImset,
    EtaVector,
    Portrait,
    StandardImset,
    basic_vector,
    char_from_eta,
    characteristic_of,
    eta_of,
    imset_from_json_dict,
    markov_equivalent,
    portrait_of,
    quasi_characteristic_of,
    semi_elementary_imset,
    standard_imset_of,
    superset_moebius,
    superset_zeta,
    u_from_characteristic,
    u_from_eta,
)
from imsetpoly import setfam
from imsetpoly.setfam import GroundSet, eta_pairs, p2_masks


def example_graph(ground):
    return DirectedGraph.from_edges(ground, [("a", "b"), ("b", "a"), ("c", "b")])


def direct_standard_imset(g):
    """Oracle: the defining sum of indicator differences."""
    n = g.ground.n
    values = [0] * (1 << n)
    values[(1 << n) - 1] += 1
    values[0] -= 1
    for i, pa in enumerate(g.parents):
        values[pa] += 1
        values[pa | (1 << i)] -= 1
    return tuple(values)


def direct_portrait(u):
    """Oracle: p(S) as a literal superset sum."""
    n = u.ground.n
    return tuple(
        sum(u.values[t] for t in range(1 << n) if t & s == s)
        for s in range(1 << n)
    )


def test_zeta_moebius_inverse():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(25):
            v = [rng.randint(-5, 5) for _ in range(1 << n)]
            assert superset_moebius(superset_zeta(list(v), n), n) == v
            assert superset_zeta(superset_moebius(list(v), n), n) == v


def test_the_transforms_are_setfams():
    # one butterfly in the package: encode reads the transforms back from setfam
    assert superset_zeta is setfam.superset_zeta
    assert superset_moebius is setfam.superset_moebius


# class, the noun of its length error, its length at n = 3, its entry type
VECTOR_CLASSES = [
    (EtaVector, "eta vector", 12, int),
    (StandardImset, "standard imset", 8, int),
    (Portrait, "portrait", 8, int),
    (CharacteristicImset, "characteristic imset", 4, int),
    (SupermodularFunction, "set function", 8, Fraction),
    (DualVector, "dual vector", 8, Fraction),
]


@pytest.mark.parametrize(
    "cls, noun, length, entry", VECTOR_CLASSES, ids=[c[0].__name__ for c in VECTOR_CLASSES]
)
def test_vector_contract(cls, noun, length, entry):
    g = GroundSet.of_size(3)
    for wrong in (length - 1, length + 1):
        with pytest.raises(ValueError, match=f"^{noun} needs {length} entries, got {wrong}$"):
            cls(g, [1] * wrong)
    if cls is DualVector:
        # the empty-set entry is refused only once the length is right
        with pytest.raises(ValueError, match="^dual vectors carry no entry at the empty set$"):
            cls(g, [1] * length)
    v = cls(g, [0] + list(range(1, length)))
    assert type(v.values) is tuple and [type(x) for x in v.values] == [entry] * length
    assert repr(v) == f"{cls.__name__}(ground={g!r}, values={v.values!r})"
    # an out-of-range subset, as the conditioning set of a pair for eta
    for mask in (-1, 1 << 3):
        with pytest.raises(ValueError):
            v.value(0, mask) if cls is EtaVector else v.value(mask)
    same = cls(g, tuple(range(length)))
    assert same == v and hash(same) == hash(v)
    # five of the six classes have four entries at n = 2; equal fields, unequal
    g2 = GroundSet.of_size(2)
    vectors = [
        other(g2, (0,) * 4) for other, *_ in VECTOR_CLASSES if other is not CharacteristicImset
    ]
    mine = [w for w in vectors if type(w) is cls]
    assert all(w != x for w in mine for x in vectors if x is not w)


def test_eta_of_reference_graph():
    g = GroundSet.of_size(3)
    eta = eta_of(example_graph(g))
    assert sum(eta.values) == 3 and set(eta.values) <= {0, 1}
    assert eta.value(0, 2) == 1          # a | {b}
    assert eta.value(1, 5) == 1          # b | {a, c}
    assert eta.value(2, 0) == 1          # c | empty
    assert eta.value(0, 0) == 0
    # a variable outside the ground set, not the entry of a later pair
    for i in (3, -1):
        with pytest.raises(ValueError):
            eta.value(i, 0)
    support = {
        g.pair_key(i, b)
        for (i, b), v in zip(eta_pairs(g), eta.values)
        if v
    }
    assert support == {"a|b", "b|a,c", "c|∅"}


def test_standard_imset_matches_direct_formula():
    for n in (3, 4):
        g = GroundSet.of_size(n)
        for graph in enumerate_dags(g):
            u = standard_imset_of(graph)
            assert u.values == direct_standard_imset(graph)
            assert u.is_standardized()


def test_standard_imset_rejects_cyclic():
    g = GroundSet.of_size(3)
    with pytest.raises(ValueError):
        standard_imset_of(example_graph(g))


def test_u_from_eta_on_cyclic_code_is_standardized():
    g = GroundSet.of_size(3)
    u = u_from_eta(eta_of(example_graph(g)))
    assert u.is_standardized()
    assert u.values == direct_standard_imset(example_graph(g))


def test_basic_and_semi_elementary_vectors():
    g = GroundSet.of_size(3)
    v = basic_vector(g, 5)
    assert v.values[5] == 1 and sum(map(abs, v.values)) == 1
    w = semi_elementary_imset(g, 1, 2, 4)   # <a, b | c>
    expected = [0] * 8
    expected[4] += 1
    expected[5] -= 1
    expected[6] -= 1
    expected[7] += 1
    assert list(w.values) == expected
    # a degenerate block gives the zero vector
    assert not any(semi_elementary_imset(g, 0, 2, 4).values)
    with pytest.raises(ValueError):
        semi_elementary_imset(g, 3, 2, 4)
    with pytest.raises(ValueError):
        semi_elementary_imset(g, 1, 2, 3)


def test_portrait_oracle_and_small_set_values():
    g = GroundSet.of_size(3)
    for graph in enumerate_dags(g):
        u = standard_imset_of(graph)
        p = portrait_of(u)
        assert p.values == direct_portrait(u)
        assert p.value(0) == 0
        for j in range(3):
            assert p.value(1 << j) == 0


def test_characteristic_requires_standardized():
    g = GroundSet.of_size(3)
    with pytest.raises(ValueError):
        characteristic_of(basic_vector(g, 7))


def test_characteristic_zero_one_for_dags():
    for n in (3, 4):
        g = GroundSet.of_size(n)
        for graph in enumerate_dags(g):
            c = characteristic_of(standard_imset_of(graph))
            assert set(c.values) <= {0, 1}
            assert c.value(0) == 1 and c.value(1) == 1


def test_characteristic_reference_values():
    g = GroundSet.of_size(3)
    c = quasi_characteristic_of(example_graph(g))
    # order ab, ac, bc, abc
    assert c.values == (2, 0, 1, 1)


def test_round_trip_u_and_c():
    for n in (3, 4):
        g = GroundSet.of_size(n)
        for graph in enumerate_dags(g):
            u = standard_imset_of(graph)
            assert u_from_characteristic(characteristic_of(u)) == u
    # reverse direction over arbitrary integer characteristic vectors
    rng = random.Random(5)
    g = GroundSet.of_size(4)
    for _ in range(100):
        c = CharacteristicImset(
            g, tuple(rng.randint(-3, 3) for _ in p2_masks(g))
        )
        u = u_from_characteristic(c)
        assert u.is_standardized()
        assert characteristic_of(u) == c


def test_triangle_commutes():
    g = GroundSet.of_size(3)
    for graph in enumerate_digraphs(g):
        eta = eta_of(graph)
        assert char_from_eta(eta) == characteristic_of(u_from_eta(eta))
        assert quasi_characteristic_of(graph) == char_from_eta(eta)
    # also on non-code vectors whose per-variable entries sum to one
    rng = random.Random(17)
    for _ in range(50):
        values = [0] * (3 * 4)
        for i in range(3):
            spots = rng.sample(range(4), 3)
            values[i * 4 + spots[0]] = 2
            values[i * 4 + spots[1]] = -2
            values[i * 4 + spots[2]] = 1
        eta = EtaVector(g, tuple(values))
        assert char_from_eta(eta) == characteristic_of(u_from_eta(eta))


def test_quasi_characteristic_counts_super_terminal_nodes():
    from imsetpoly.digraph import super_terminal_count

    g = GroundSet.of_size(3)
    for graph in enumerate_digraphs(g):
        c = quasi_characteristic_of(graph)
        for m, v in zip(p2_masks(g), c.values):
            assert v == super_terminal_count(graph, m)


def test_markov_equivalence():
    g = GroundSet.of_size(3)
    chain1 = DirectedGraph.from_edges(g, [("a", "b"), ("b", "c")])
    chain2 = DirectedGraph.from_edges(g, [("c", "b"), ("b", "a")])
    fork = DirectedGraph.from_edges(g, [("b", "a"), ("b", "c")])
    collider = DirectedGraph.from_edges(g, [("a", "b"), ("c", "b")])
    assert markov_equivalent(chain1, chain2)
    assert markov_equivalent(chain1, fork)
    assert not markov_equivalent(chain1, collider)
    with pytest.raises(ValueError):
        markov_equivalent(chain1, example_graph(g))
    with pytest.raises(ValueError):
        markov_equivalent(chain1, DirectedGraph.from_edges(GroundSet.of_size(4), []))


def test_json_round_trips():
    g = GroundSet.of_size(3)
    graph = DirectedGraph.from_edges(g, [("a", "b"), ("c", "b")])
    for obj in (
        eta_of(graph),
        standard_imset_of(graph),
        characteristic_of(standard_imset_of(graph)),
    ):
        data = obj.to_json_dict()
        assert imset_from_json_dict(data) == obj
    # random integer vectors of each kind, zeros and negatives included; the
    # entries are the nonzero ones, keyed by coordinate name in coordinate order
    rng = random.Random(31)
    for n in (2, 3, 4):
        g = GroundSet.of_size(n)
        for cls, kind, names in (
            (EtaVector, "eta", [g.pair_key(i, b) for i, b in eta_pairs(g)]),
            (StandardImset, "standard", [g.subset_key(m) for m in range(1 << n)]),
            (CharacteristicImset, "characteristic", [g.subset_key(m) for m in p2_masks(g)]),
        ):
            for _ in range(5):
                values = [rng.choice((0, 0, 1, -1, 7, -12)) for _ in names]
                obj = cls(g, values)
                data = obj.to_json_dict()
                assert data["labels"] == list(g.labels) and data["kind"] == kind
                assert list(data["entries"]) == [k for k, v in zip(names, values) if v]
                assert list(data["entries"].values()) == [v for v in values if v]
                assert imset_from_json_dict(data) == obj
    with pytest.raises(ValueError):
        imset_from_json_dict({"labels": ["a", "b"], "kind": "odd", "entries": {}})
    # a kind that is not a string is refused the same way, not hashed
    with pytest.raises(ValueError, match="unknown imset kind"):
        imset_from_json_dict({"labels": ["a", "b"], "kind": ["eta"], "entries": {}})
    with pytest.raises(ValueError):
        imset_from_json_dict({"kind": "eta"})
    with pytest.raises(
        ValueError, match=r"^characteristic imset entries need subsets with >= 2 members$"
    ):
        imset_from_json_dict(
            {"labels": ["a", "b", "c"], "kind": "characteristic", "entries": {"a": 1}}
        )
