"""Ground sets, subset keys, set classes, and antichain enumeration."""

import random
from itertools import combinations

import pytest

from imsetpoly.setfam import (
    EMPTY_KEY,
    Antichain,
    GroundSet,
    SetClass,
    _submasks,
    _superset_bits,
    _up_set,
    bits_of,
    enumerate_antichains,
    eta_pairs,
    is_superset_closed,
    minimal_sets,
    p1_masks,
    p2_masks,
    pair_index,
    power_class,
    squeeze_bit,
    subset_key_table,
    superset_closure,
    tag_key_table,
    union_closure_class,
    unsqueeze_bit,
    walk_antichains,
)


def brute_antichains(ground):
    """Independent oracle: filter all families of non-empty subsets for
    pairwise incomparability."""
    masks = list(range(1, 1 << ground.n))
    found = []
    for r in range(1, len(masks) + 1):
        for combo in combinations(masks, r):
            ok = True
            for a in combo:
                for b in combo:
                    if a != b and a & b == a:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(tuple(combo))
    return found


def test_bits_of_round_trip():
    for mask in range(64):
        assert sum(1 << i for i in bits_of(mask)) == mask
        assert list(bits_of(mask)) == sorted(bits_of(mask))


def test_squeeze_unsqueeze_inverse():
    for i in range(4):
        for packed in range(8):
            mask = unsqueeze_bit(packed, i)
            assert not mask & (1 << i)
            assert squeeze_bit(mask, i) == packed


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(("a",))
    with pytest.raises(ValueError):
        GroundSet(tuple("abcdefg"))
    with pytest.raises(ValueError):
        GroundSet(("a", "a", "b"))
    g = GroundSet.of_size(4)
    assert g.labels == ("a", "b", "c", "d")
    assert g.n == 4 and g.full_mask == 15
    # sizes outside 2..6 are refused, not truncated to the six labels
    for n in (-1, 0, 1, 7, 8):
        with pytest.raises(ValueError, match=f"got {n}"):
            GroundSet.of_size(n)


def test_ground_set_refuses_labels_keys_cannot_carry():
    # built from Python, not only through a JSON loader: "a,b" would make the
    # key of {a,b, c} read "a,b,c", which names an unknown label "a"
    for labels in (("a,b", "c"), ("a|b", "c"), ("", "b"), ("∅", "b"), (" a", "b"), ("a", 1)):
        with pytest.raises(ValueError, match="cannot be read back from a subset or pair key"):
            GroundSet(labels)
    g = GroundSet(("x1", "long name"))
    assert g.parse_subset(g.subset_key(3)) == 3
    assert g.parse_pair(g.pair_key(1, 1)) == (1, 1)


def test_subset_key_round_trip():
    for n in (3, 4):
        g = GroundSet.of_size(n)
        for mask in range(1 << n):
            assert g.parse_subset(g.subset_key(mask)) == mask
    g = GroundSet.of_size(3)
    assert g.subset_key(0) == "∅"
    assert g.subset_key(5) == "a,c"
    assert g.tag_key(5) == "ac"
    assert g.parse_subset("") == 0
    with pytest.raises(ValueError):
        g.parse_subset("a,z")
    with pytest.raises(ValueError):
        g.parse_subset("a,a")
    with pytest.raises(ValueError):
        g.subset_key(8)


def test_key_tables_match_the_label_joins():
    # labels out of alphabetical order: subset keys sort by label string,
    # tag keys keep bit order
    g = GroundSet(("z", "b", "a"))
    for mask in range(8):
        labels = [g.labels[i] for i in bits_of(mask)]
        assert g.subset_key(mask) == (",".join(sorted(labels)) if mask else EMPTY_KEY)
        assert g.tag_key(mask) == ("".join(labels) if mask else EMPTY_KEY)
    assert g.subset_key(3) == "b,z" and g.tag_key(3) == "zb"
    assert g.subset_key(7) == "a,b,z" and g.tag_key(7) == "zba"
    assert subset_key_table(g) == tuple(g.subset_key(m) for m in range(8))
    assert tag_key_table(g) == tuple(g.tag_key(m) for m in range(8))
    for bad in (-1, 8, 1 << 10):
        for render in (g.subset_key, g.tag_key):
            with pytest.raises(ValueError, match=rf"^mask {bad} outside the 3-variable universe$"):
                render(bad)


def test_pair_key_round_trip():
    g = GroundSet.of_size(3)
    for i, b in eta_pairs(g):
        key = g.pair_key(i, b)
        assert g.parse_pair(key) == (i, b)
    assert g.pair_key(2, 0) == "c|∅"
    assert g.pair_key(1, 5) == "b|a,c"
    with pytest.raises(ValueError):
        g.pair_key(0, 1)
    with pytest.raises(ValueError):
        g.parse_pair("a,b")
    with pytest.raises(ValueError):
        g.parse_pair("a|a,b")


def test_mask_tables():
    for n in (2, 3, 4, 5):
        g = GroundSet.of_size(n)
        assert p1_masks(g) == tuple(range(1, 1 << n))
        p2 = p2_masks(g)
        assert p2 == tuple(m for m in range(1 << n) if bin(m).count("1") >= 2)
        assert len(p2) == (1 << n) - n - 1


def test_eta_pairs_order_and_index():
    for n in (2, 3, 4):
        g = GroundSet.of_size(n)
        pairs = eta_pairs(g)
        assert len(pairs) == n * (1 << (n - 1))
        assert len(set(pairs)) == len(pairs)
        for k, (i, b) in enumerate(pairs):
            assert not b & (1 << i)
            assert pair_index(g, i, b) == k
    with pytest.raises(ValueError):
        pair_index(GroundSet.of_size(3), 0, 1)


def test_set_class_normalizes():
    g = GroundSet.of_size(3)
    cls = SetClass(g, (6, 3, 3, 1))
    assert cls.members == (1, 3, 6)
    assert 3 in cls and 2 not in cls
    assert len(cls) == 3


def test_antichain_validation():
    g = GroundSet.of_size(3)
    a = Antichain(g, (5, 3))
    assert a.sets == (3, 5)
    assert a.tag() == "ab,ac"
    with pytest.raises(ValueError):
        Antichain(g, ())
    with pytest.raises(ValueError):
        Antichain(g, (0, 3))
    with pytest.raises(ValueError):
        Antichain(g, (1, 3))


def test_power_class():
    g = GroundSet.of_size(4)
    assert len(power_class(g, 0)) == 16
    assert len(power_class(g, 1)) == 15
    assert len(power_class(g, 2)) == 11
    with pytest.raises(ValueError):
        power_class(g, 5)


def test_superset_closure_oracle():
    for n, count in ((3, 18), (4, 166)):
        pool = list(enumerate_antichains(GroundSet.of_size(n)))
        assert len(pool) == count
        for antichain in pool:
            closure = superset_closure(antichain)
            expected = {
                s
                for s in range(1, 1 << n)
                if any(t & s == t for t in antichain.sets)
            }
            assert set(closure.members) == expected
            assert is_superset_closed(closure)
    g = GroundSet.of_size(4)
    # a non-closed class is recognized
    assert not is_superset_closed(SetClass(g, (3,)))
    assert is_superset_closed(SetClass(g, ()))


def test_minimal_sets_inverts_closure():
    for n in (2, 3, 4):
        g = GroundSet.of_size(n)
        for antichain in enumerate_antichains(g):
            assert minimal_sets(superset_closure(antichain)) == antichain
    g = GroundSet.of_size(3)
    with pytest.raises(ValueError):
        minimal_sets(SetClass(g, ()))
    with pytest.raises(ValueError):
        minimal_sets(SetClass(g, (0, 1)))
    with pytest.raises(ValueError):
        minimal_sets(SetClass(g, (3,)))


def test_submasks_match_the_filter():
    for m in range(1 << 6):
        assert _submasks(m) == [s for s in range(m + 1) if s & m == s]


def test_superset_bits_match_the_any_scan():
    # oracle: one scan over all subsets per mask, O(4^n)
    for n in range(2, 7):
        size = 1 << n
        oracle = tuple(sum(1 << t for t in range(size) if t & m == m) for m in range(size))
        assert _superset_bits(n) == oracle


def any_scan_up_set(n, masks):
    """Independent oracle: bit s set when subset s contains one of masks."""
    return sum(1 << s for s in range(1 << n) if any(t & s == t for t in masks))


def test_up_set_matches_the_any_scan():
    for n in (2, 3, 4):
        for sets, closure in walk_antichains(GroundSet.of_size(n)):
            assert _up_set(n, sets) == closure == any_scan_up_set(n, sets)
    rng = random.Random(13)
    for n in (5, 6):
        for _ in range(200):
            masks = [rng.randrange(1 << n) for _ in range(rng.randrange(7))]
            assert _up_set(n, masks) == any_scan_up_set(n, masks)


def test_enumerate_antichains_counts():
    # brute-force oracle at n <= 4, published lattice count at n = 5
    for n in (2, 3, 4):
        g = GroundSet.of_size(n)
        got = [a.sets for a in enumerate_antichains(g)]
        assert len(got) == len(set(got))
        oracle = brute_antichains(g)
        assert sorted(got) == sorted(oracle)
    assert len(list(enumerate_antichains(GroundSet.of_size(2)))) == 4
    assert len(list(enumerate_antichains(GroundSet.of_size(3)))) == 18
    assert len(list(enumerate_antichains(GroundSet.of_size(4)))) == 166
    assert len(list(enumerate_antichains(GroundSet.of_size(5)))) == 7579


def pairwise_backtracking(n):
    """Independent order oracle: ascending masks, each partial choice
    extended with later sets by a pairwise incomparability check."""
    masks = range(1, 1 << n)

    def extend(chosen, start):
        for cand in masks[start:]:
            if all(s & cand not in (s, cand) for s in chosen):
                yield (*chosen, cand)
                yield from extend((*chosen, cand), cand)

    return list(extend((), 0))


def test_walk_matches_the_pairwise_backtracking():
    for n in (2, 3, 4, 5):
        g = GroundSet.of_size(n)
        walk = list(walk_antichains(g))
        sets = [members for members, _ in walk]
        assert sets == pairwise_backtracking(n)
        assert [a.sets for a in enumerate_antichains(g)] == sets
        for members, closure in walk:
            expected = superset_closure(Antichain(g, members)).members
            assert closure == sum(1 << t for t in expected), members


def test_enumerate_antichains_refuses_large_n():
    g = GroundSet.of_size(6)
    with pytest.raises(ValueError):
        next(enumerate_antichains(g))
    with pytest.raises(ValueError):
        next(walk_antichains(g))


def test_union_closure():
    g = GroundSet.of_size(3)
    for antichain in enumerate_antichains(g):
        closure = union_closure_class(antichain)
        expected = set()
        sets = antichain.sets
        for r in range(1, len(sets) + 1):
            for combo in combinations(sets, r):
                u = 0
                for m in combo:
                    u |= m
                expected.add(u)
        assert set(closure.members) == expected
        # union-closed and contained in the superset closure
        for a in closure:
            for b in closure:
                assert (a | b) in closure
        assert set(closure.members) <= set(superset_closure(antichain).members)
