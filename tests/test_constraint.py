"""Constraint families, kappa machinery, the supermodular cone, and the
dual-cone decomposition."""

import inspect
import random
from fractions import Fraction

import pytest

from imsetpoly.constraint import (
    ConstraintSystem,
    DualVector,
    LinearConstraint,
    _catalog_text,
    _lp_text,
    assemble_system,
    char_specific_constraint,
    check_dual_cone,
    cluster_constraint_c,
    cluster_constraint_u,
    cluster_supermodular,
    conic_decompose,
    double_description,
    eta_system,
    indicator_supermodular,
    is_supermodular,
    kappa_coefficients,
    nonspecific_constraints,
    pairing,
    specific_constraint,
    specific_rows,
    SupermodularFunction,
    supermodular_rays,
    u_equality_system,
    y_of_class,
)
from imsetpoly.digraph import enumerate_dags, enumerate_digraphs, is_acyclic
from imsetpoly.encode import (
    CharacteristicImset,
    char_from_eta,
    superset_moebius,
    eta_of,
    portrait_of,
    standard_imset_of,
    u_from_characteristic,
    u_from_eta,
)
from imsetpoly.setfam import (
    Antichain,
    GroundSet,
    SetClass,
    _json_text,
    _up_set,
    bits_of,
    enumerate_antichains,
    eta_pairs,
    minimal_sets,
    p1_masks,
    p2_masks,
    superset_closure,
    union_closure_class,
    walk_antichains,
)

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)


def all_c_points(ground, box_upper):
    """Integer characteristic vectors with 0 <= c(S) <= bound(S)."""
    from itertools import product

    ranges = [range(0, b + 1) for b in box_upper]
    for point in product(*ranges):
        yield CharacteristicImset(ground, point)


def default_upper(ground):
    return tuple(2 ** (m.bit_count() - 2) for m in p2_masks(ground))


# ---------------------------------------------------------------------------
# linear constraints and system plumbing


def test_linear_constraint_mechanics():
    row = LinearConstraint("u", {3: Fraction(2), 5: 0}, ">=", 1, "t")
    assert 5 not in row.coeffs and row.coeffs[3] == Fraction(2)
    assert not row.is_vacuous
    assert LinearConstraint("u", {3: 0}, ">=", 0, "t").is_vacuous
    values = {3: Fraction(1)}
    assert row.value_at(values) == 2
    assert row.holds_at(values)
    assert row.holds_at(lambda key: Fraction(1, 2))
    eq = LinearConstraint("u", {3: 1}, "=", 1, "t")
    assert eq.holds_at({3: 1}) and not eq.holds_at({3: 2})
    le = LinearConstraint("u", {3: 1}, "<=", 1, "t")
    assert le.holds_at({3: 0}) and not le.holds_at({3: 2})
    with pytest.raises(ValueError):
        LinearConstraint("u", {}, ">", 0, "t")
    with pytest.raises(ValueError):
        LinearConstraint("w", {}, ">=", 0, "t")


def test_linear_constraint_hash_agrees_with_equality():
    row = LinearConstraint("u", {3: 2, 5: 1}, ">=", 1, "t")
    # same row written with another key order, Fractions and a zero entry
    twin = LinearConstraint("u", {5: Fraction(1), 6: 0, 3: Fraction(4, 2)}, ">=", 1, "t")
    assert row == twin and hash(row) == hash(twin)
    assert len({row, twin}) == 1
    others = [
        LinearConstraint("u", {3: 2, 5: 1}, ">=", 1, "s"),
        LinearConstraint("u", {3: 2, 5: 1}, "<=", 1, "t"),
        LinearConstraint("u", {3: 2, 5: 1}, ">=", 2, "t"),
        LinearConstraint("c", {3: 2, 5: 1}, ">=", 1, "t"),
        LinearConstraint("u", {3: 2}, ">=", 1, "t"),
    ]
    assert len({row, *others}) == 6
    eta_row = LinearConstraint("eta", {(0, 2): 1, (1, 0): 1}, ">=", 1, "t")
    assert eta_row in {LinearConstraint("eta", {(1, 0): 1, (0, 2): 1}, ">=", 1, "t")}
    system = assemble_system(G4, "u", ("equality", "specific", "cluster-u"))
    assert len(set(system.rows)) == len(system)


def test_system_json_uses_rational_strings():
    system = ConstraintSystem(
        G3,
        "u",
        (LinearConstraint("u", {3: Fraction(1, 2)}, ">=", Fraction(3, 2), "half"),),
    )
    data = system.to_json_dict()
    assert data["framework"] == "u"
    assert data["rows"][0]["coeffs"] == {"a,b": "1/2"}
    assert data["rows"][0]["rhs"] == "3/2"


def test_system_json_refuses_an_out_of_range_mask():
    for mask in (-1, 8):
        row = LinearConstraint("u", {3: 1, mask: 1}, ">=", 0, "bad")
        system = ConstraintSystem(G3, "u", (row,))
        for export in (system.to_json_text, system.to_json_dict, system.to_lp):
            with pytest.raises(ValueError, match=rf"^mask {mask} outside the 3-variable universe$"):
                export()


def test_a_row_of_another_framework_is_refused():
    pairs = (("u", "kept"), ("c", "stray"))
    rows = tuple(LinearConstraint(framework, {3: 1}, ">=", 0, tag) for framework, tag in pairs)
    message = r"^row 'stray' belongs to framework 'c', not 'u'$"
    with pytest.raises(ValueError, match=message):
        ConstraintSystem(G3, "u", rows)
    # the catalog and LP writers read rows that no system has checked
    for write in (_catalog_text, _lp_text):
        with pytest.raises(ValueError, match=message):
            write(G3, "u", iter(rows))


def test_system_json_text_matches_the_json_module():
    # labels whose string order is not their mask order, Fraction and
    # negative values, a non-ASCII tag, a vacuous row and a system without
    # rows, each against the dict setfam._json_text prints
    g = GroundSet(("b", "a", "c10", "c9"))

    def subset(mask):
        names = sorted(label for i, label in enumerate(g.labels) if mask >> i & 1)
        return ",".join(names) if names else "∅"

    def pair(key):
        return f"{g.labels[key[0]]}|{subset(key[1])}"

    cases = (
        ("u", subset, {15: 1, 0: -2, 2: Fraction(1, 2), 1: 1, 12: Fraction(-7, 3), 3: 1}),
        ("c", subset, {12: -1, 3: 5, 8: 2, 5: 1, 15: Fraction(3, 4), 6: 5}),
        ("eta", pair, {(3, 6): 4, (0, 0): 1, (1, 1): -1, (2, 8): Fraction(2, 3), (0, 14): 1}),
    )
    for framework, name, coeffs in cases:
        specs = [
            (coeffs, ">=", Fraction(5, 2), "first:é"),
            (dict(list(coeffs.items())[:3]), "<=", -1, "second"),
            ({}, "=", 0, "vacuous"),
        ]
        rows = tuple(LinearConstraint(framework, *spec) for spec in specs)
        expected = {
            "framework": framework,
            "labels": list(g.labels),
            "rows": [
                {
                    "coeffs": {name(k): str(v) for k, v in spec[0].items()},
                    "rhs": str(spec[2]),
                    "sense": spec[1],
                    "tag": spec[3],
                }
                for spec in specs
            ],
        }
        system = ConstraintSystem(g, framework, rows)
        assert system.to_json_text() == _json_text(expected)
        assert system.to_json_dict() == expected
        empty = ConstraintSystem(g, framework, ())
        assert empty.to_json_text() == _json_text({**expected, "rows": []})


def test_lp_row_names_skip_names_already_taken():
    rows = tuple(LinearConstraint("u", {3: 1}, ">=", 0, tag) for tag in ("x", "x", "x_1"))
    text = ConstraintSystem(G3, "u", rows).to_lp()
    names = [line.split(":")[0].strip() for line in text.splitlines() if line.endswith(">= 0")]
    assert names == ["x", "x_1", "x_1_1"]


@pytest.mark.parametrize(
    "coeffs, rhs, tag, line",
    [
        # é is a letter to str.isalnum, but no LP name may hold it or start with a digit
        ({3: 1}, 0, "1é", " r1_: 1 u_ab >= 0"),
        ({6: 1}, 0, "", " r: 1 u_bc >= 0"),
        # LP text has no fractions: the row is scaled by the lcm of its denominators
        ({3: Fraction(1, 2), 5: Fraction(-2, 3)}, Fraction(1, 3), "half", " half: 3 u_ab - 4 u_ac >= 2"),
    ],
    ids=["non-ascii-and-digit", "empty-tag", "fractions"],
)
def test_lp_row_line(coeffs, rhs, tag, line):
    row = LinearConstraint("u", coeffs, ">=", rhs, tag)
    assert f"\n{line}\n" in ConstraintSystem(G3, "u", (row,)).to_lp()


def test_lp_refuses_coordinates_that_share_a_variable_name():
    # labels "ab", "c" and "a", "bc" would both name their union u_abc
    g = GroundSet(("ab", "c", "a", "bc"))
    row = LinearConstraint("u", {0b0011: 1, 0b1100: -1}, ">=", 0, "r")
    with pytest.raises(
        ValueError, match="^coordinates 'ab,c' and 'a,bc' share the LP variable name 'u_abc'$"
    ):
        ConstraintSystem(g, "u", (row,)).to_lp()


def test_lp_refuses_a_variable_name_outside_the_lp_characters():
    # a space would split the variable u_x yz into two words of the LP line
    g = GroundSet(("x y", "z"))
    row = LinearConstraint("u", {3: 1}, ">=", 0, "r")
    with pytest.raises(ValueError, match="^LP variable name 'u_x yz' holds a character"):
        ConstraintSystem(g, "u", (row,)).to_lp()


def test_shared_fractions_keep_value_and_type():
    # a whole entry is stored as an int, any other as a Fraction
    row = LinearConstraint("u", {1: 2, 2: Fraction(-3), 3: True, 4: 40, 5: "7/2"}, "<=", 1, "t")
    assert row.coeffs == {1: 2, 2: -3, 3: 1, 4: 40, 5: Fraction(7, 2)}
    assert [type(v) for v in [*row.coeffs.values(), row.rhs]] == [int] * 4 + [Fraction, int]
    for rhs, kind in ((Fraction(6, 3), int), ("-4/2", int), (0.5, Fraction), ("1/3", Fraction)):
        assert type(LinearConstraint("c", {3: 1}, ">=", rhs, "t").rhs) is kind
    with pytest.raises(TypeError):
        LinearConstraint("u", {1: [1]}, "<=", 1, "t")


def test_lp_export_declares_variables_free():
    text = assemble_system(G3, "c", ("cluster-c",)).to_lp()
    assert "c_abc free" in text
    assert "cluster_c_abc:" in text
    assert text.rstrip().endswith("End")


# ---------------------------------------------------------------------------
# eta framework


def test_eta_system_row_counts():
    system = eta_system(G3)
    tags = [row.tag for row in system]
    assert sum(1 for t in tags if t.startswith("nonneg:")) == 12
    assert sum(1 for t in tags if t.startswith("equality:")) == 3
    assert sum(1 for t in tags if t.startswith("cluster:")) == 4
    assert len(eta_system(G3, ("cluster",))) == 4
    with pytest.raises(ValueError):
        eta_system(G3, ("oddball",))


def test_eta_cluster_row_content():
    row = next(r for r in eta_system(G3, ("cluster",)) if r.tag == "cluster:ab")
    # 1 <= eta(a|0) + eta(a|c) + eta(b|0) + eta(b|c)
    assert row.sense == ">=" and row.rhs == 1
    assert dict(row.coeffs) == {(0, 0): 1, (0, 4): 1, (1, 0): 1, (1, 4): 1}


def test_eta_system_characterizes_acyclicity():
    system = eta_system(G3)
    for graph in enumerate_digraphs(G3):
        values = dict(zip(eta_pairs(G3), eta_of(graph).values))
        assert system.satisfied_by(values) == is_acyclic(graph)


# ---------------------------------------------------------------------------
# u framework


def test_u_equality_system():
    system = u_equality_system(G3)
    assert len(system) == 4
    for graph in enumerate_dags(G4):
        assert u_equality_system(G4).satisfied_by(standard_imset_of(graph).values)
    delta_n = [0] * 8
    delta_n[7] = 1
    assert not system.satisfied_by(delta_n)
    rng = random.Random(3)
    for _ in range(50):
        values = [rng.randint(-3, 3) for _ in range(8)]
        expected = sum(values) == 0 and all(
            sum(v for m, v in enumerate(values) if m >> j & 1) == 0
            for j in range(3)
        )
        assert system.satisfied_by(values) == expected


def test_specific_constraint_closure_sum():
    row = specific_constraint(Antichain(G3, (3, 5, 6)))
    assert dict(row.coeffs) == {3: 1, 5: 1, 6: 1, 7: 1}
    assert row.sense == "<=" and row.rhs == 1
    assert row.tag == "specific:ab,ac,bc"
    single = specific_constraint(Antichain(G3, (7,)))
    assert dict(single.coeffs) == {7: 1}
    for antichain in enumerate_antichains(G3):
        row = specific_constraint(antichain)
        closure = set(superset_closure(antichain).members)
        assert set(row.coeffs) == closure
        for graph in enumerate_dags(G3):
            assert row.holds_at(standard_imset_of(graph).values)


def test_cluster_u_rows():
    row_ab = cluster_constraint_u(G3, 3)
    assert dict(row_ab.coeffs) == {3: 1, 7: 1}
    assert row_ab.sense == ">=" and row_ab.rhs == 0
    row_n = cluster_constraint_u(G3, 7)
    assert dict(row_n.coeffs) == {3: 1, 5: 1, 6: 1, 7: 2}
    with pytest.raises(ValueError):
        cluster_constraint_u(G3, 1)
    for n, ground in ((3, G3), (4, G4)):
        rows = [cluster_constraint_u(ground, c) for c in p2_masks(ground)]
        for graph in enumerate_dags(ground):
            u = standard_imset_of(graph).values
            assert all(row.holds_at(u) for row in rows)


# ---------------------------------------------------------------------------
# kappa machinery


def kappa_alternating(antichain, s):
    """Oracle: alternating sum over closure members inside s."""
    closure = superset_closure(antichain).members
    return sum(
        (-1) ** (s.bit_count() - t.bit_count())
        for t in closure
        if t & s == t
    )


def test_kappa_recursion_matches_alternating_oracle():
    for ground in (G3, G4):
        for antichain in enumerate_antichains(ground):
            kappa = kappa_coefficients(antichain)
            for s in range(1 << ground.n):
                assert kappa.value(s) == kappa_alternating(antichain, s), (
                    antichain.tag(),
                    ground.subset_key(s),
                )


def test_kappa_support_and_sums():
    for ground in (G3, G4):
        for antichain in enumerate_antichains(ground):
            kappa = kappa_coefficients(antichain)
            closure = set(union_closure_class(antichain).members)
            total = 0
            for s in range(1 << ground.n):
                v = kappa.value(s)
                total += v
                if s not in closure:
                    assert v == 0
                if s in antichain.sets:
                    assert v == 1
            assert total == 1
            # partial-sum law on every member of the superset closure
            for s in superset_closure(antichain).members:
                partial = sum(
                    kappa.value(t) for t in range(1 << ground.n) if t & s == t
                )
                assert partial == 1


KAPPA_TABLES_N3 = {
    "abc": ({"abc": 1}, {"abc": 1}, 0, False),
    "ab": ({"ab": 1}, {"ab": 1}, 0, False),
    "ab,ac": (
        {"ab": 1, "ac": 1, "abc": -1},
        {"ab": 1, "ac": 1, "abc": -1},
        0,
        False,
    ),
    "ab,ac,bc": (
        {"ab": 1, "ac": 1, "bc": 1, "abc": -2},
        {"ab": 1, "ac": 1, "bc": 1, "abc": -2},
        0,
        False,
    ),
    "c": ({"c": 1}, {}, -1, True),
    "c,ab": ({"c": 1, "ab": 1, "abc": -1}, {"ab": 1, "abc": -1}, -1, False),
    "a,b": ({"a": 1, "b": 1, "ab": -1}, {"ab": -1}, -2, False),
    "a,b,c": (
        {"a": 1, "b": 1, "c": 1, "ab": -1, "ac": -1, "bc": -1, "abc": 1},
        {"ab": -1, "ac": -1, "bc": -1, "abc": 1},
        -3,
        False,
    ),
}


def test_kappa_reference_tables():
    for tag, (table, row_coeffs, rhs, vacuous) in KAPPA_TABLES_N3.items():
        sets = tuple(G3.parse_subset(",".join(part)) for part in tag.split(","))
        antichain = Antichain(G3, sets)
        kappa = kappa_coefficients(antichain)
        got = {G3.tag_key(m): v for m, v in kappa.entries if v}
        assert got == table, tag
        row = char_specific_constraint(antichain)
        assert {G3.tag_key(m): int(v) for m, v in row.coeffs.items()} == row_coeffs
        assert row.rhs == rhs and row.sense == ">="
        assert row.is_vacuous == vacuous


def test_walk_rows_equal_the_per_antichain_rows():
    for n in (2, 3, 4, 5):
        g = GroundSet.of_size(n)
        walk = list(walk_antichains(g))
        for family, twin in (
            ("specific", specific_constraint),
            ("kappa-specific", char_specific_constraint),
        ):
            # the rows of the recursion itself (no walk), in walk order, and
            # the rows folded from each given item's sets
            for rows in (specific_rows(g, family), specific_rows(g, family, walk)):
                for (sets, _), row in zip(walk, rows, strict=True):
                    validated = twin(Antichain(g, sets))
                    assert row == validated and hash(row) == hash(validated)
                    # the walk builds its rows clean: nonzero int entries, an int rhs
                    assert all(type(v) is int and v for v in row.coeffs.values())
                    assert type(row.rhs) is int
                    # each row owns its coefficients, though the recursion
                    # derives a child's entries from its parent's: emptying
                    # them as they are yielded must leave every later row of
                    # the walk intact
                    row.coeffs.clear()
        for sets, closure in walk:
            antichain = Antichain(g, sets)
            # the subset-Moebius transform of the closure indicator is the
            # kappa vector of the recursion over the union closure
            indicator = [closure >> t & 1 for t in range(1 << n)]
            kappa = superset_moebius(indicator[::-1], n)[::-1]
            assert {m: v for m, v in enumerate(kappa) if v} == {
                m: v for m, v in kappa_coefficients(antichain).entries if v
            }
    with pytest.raises(ValueError, match="unknown specific family"):
        specific_rows(G3, "cluster-u")
    with pytest.raises(ValueError, match="^antichain enumeration is limited to n <= 5$"):
        specific_rows(GroundSet.of_size(6), "specific")


def test_kappa_rows_from_any_walk():
    # the measure carried down the walk must not lean on depth-first order:
    # a seeded sample, the reversed walk and single items each give the
    # per-antichain rows
    rng = random.Random(5)
    for n in (3, 4, 5):
        g = GroundSet.of_size(n)
        walk = list(walk_antichains(g))
        expected = {sets: char_specific_constraint(Antichain(g, sets)) for sets, _ in walk}
        sample = rng.sample(walk, min(len(walk), 300))
        for items in (sample, walk[::-1]):
            rows = list(specific_rows(g, "kappa-specific", items))
            assert rows == [expected[sets] for sets, _ in items]
        for item in rng.sample(walk, min(len(walk), 40)):
            assert list(specific_rows(g, "kappa-specific", [item])) == [expected[item[0]]]


def test_specific_rows_from_any_walk():
    # the same for the u rows, whose closure indicator may also be carried
    # down the walk; each row's keys are exactly the set bits of its closure
    rng = random.Random(5)
    for n in (3, 4, 5):
        g = GroundSet.of_size(n)
        walk = list(walk_antichains(g))
        expected = {sets: specific_constraint(Antichain(g, sets)) for sets, _ in walk}
        sample = rng.sample(walk, min(len(walk), 300))
        for items in (walk, sample, walk[::-1]):
            rows = list(specific_rows(g, "specific", items))
            assert rows == [expected[sets] for sets, _ in items]
            for row, (_, closure) in zip(rows, items):
                assert row.coeffs.keys() == {t for t in range(1 << n) if closure >> t & 1}
        for item in rng.sample(walk, min(len(walk), 40)):
            assert list(specific_rows(g, "specific", [item])) == [expected[item[0]]]


def test_specific_and_kappa_rows_agree_exhaustive_n3():
    antichains = list(enumerate_antichains(G3))
    u_rows = [specific_constraint(a) for a in antichains]
    c_rows = [char_specific_constraint(a) for a in antichains]
    for c in all_c_points(G3, default_upper(G3)):
        u = u_from_characteristic(c)
        lookup = {m: c.value(m) for m in p2_masks(G3)}
        for u_row, c_row in zip(u_rows, c_rows):
            assert u_row.holds_at(u.values) == c_row.holds_at(lookup)


def test_specific_and_kappa_rows_agree_sampled_n4():
    rng = random.Random(0)
    antichains = rng.sample(list(enumerate_antichains(G4)), 40)
    upper = default_upper(G4)
    for _ in range(200):
        point = tuple(rng.randint(0, b) for b in upper)
        c = CharacteristicImset(G4, point)
        u = u_from_characteristic(c)
        lookup = {m: c.value(m) for m in p2_masks(G4)}
        for antichain in antichains:
            assert specific_constraint(antichain).holds_at(
                u.values
            ) == char_specific_constraint(antichain).holds_at(lookup)


# ---------------------------------------------------------------------------
# cluster rows in the c framework and the three-way identity


def test_cluster_c_rows():
    row_ab = cluster_constraint_c(G3, 3)
    # 0 <= 1 - c(ab)
    assert dict(row_ab.coeffs) == {3: -1}
    assert row_ab.sense == ">=" and row_ab.rhs == -1
    row_n = cluster_constraint_c(G3, 7)
    # 0 <= 2 - c(ab) - c(ac) - c(bc) + c(abc)
    assert dict(row_n.coeffs) == {3: -1, 5: -1, 6: -1, 7: 1}
    assert row_n.rhs == -2
    with pytest.raises(ValueError):
        cluster_constraint_c(G3, 4)
    fractional = {3: 1, 5: 1, 6: 1, 7: Fraction(3, 2)}
    assert row_ab.holds_at(fractional)
    assert row_n.holds_at(fractional)


def test_cluster_three_way_identity():
    """For every digraph code and every cluster, the eta, u, and c forms of
    the cluster quantity agree exactly: 256 integer triples."""
    clusters = list(p2_masks(G3))
    cases = 0
    for graph in enumerate_digraphs(G3):
        eta = eta_of(graph)
        u = u_from_eta(eta)
        c = char_from_eta(eta)
        for cl in clusters:
            eta_side = sum(
                eta.value(i, b)
                for i, b in eta_pairs(G3)
                if (cl >> i) & 1 and b & cl == 0
            )
            u_side = 1 + cluster_constraint_u(G3, cl).value_at(u.values)
            c_side = cl.bit_count() - sum(
                (-1) ** s.bit_count() * c.value(s)
                for s in p2_masks(G3)
                if s & cl == s
            )
            assert eta_side == u_side == c_side
            cases += 1
    assert cases == 256


# ---------------------------------------------------------------------------
# supermodular functions


def full_pair_supermodular(m):
    """Oracle: the definition over all pairs of subsets."""
    size = 1 << m.ground.n
    for e in range(size):
        for f in range(size):
            if m.values[e | f] + m.values[e & f] < m.values[e] + m.values[f]:
                return False
    return True


def test_is_supermodular_matches_pair_oracle():
    rng = random.Random(23)
    agreeing = 0
    for _ in range(150):
        m = SupermodularFunction(G3, tuple(rng.randint(-2, 2) for _ in range(8)))
        assert is_supermodular(m) == full_pair_supermodular(m)
        agreeing += 1
    assert agreeing == 150
    assert is_supermodular(SupermodularFunction(G3, (0,) * 8))
    concave = SupermodularFunction(
        G3, tuple(-(t.bit_count() ** 2) for t in range(8))
    )
    assert not is_supermodular(concave)


def test_cluster_supermodular_values_and_validity():
    m = cluster_supermodular(G3, 7)
    assert m.value(7) == 2
    assert all(m.value(p) == 1 for p in (3, 5, 6))
    assert m.is_standardized()
    with pytest.raises(ValueError):
        cluster_supermodular(G3, 1)
    for n in (3, 4, 5):
        ground = GroundSet.of_size(n)
        for c in p2_masks(ground):
            mc = cluster_supermodular(ground, c)
            assert mc.is_standardized() and is_supermodular(mc)


def test_cluster_pairing_equals_cluster_row():
    rng = random.Random(41)
    for _ in range(100):
        u = [rng.randint(-4, 4) for _ in range(16)]
        for c in p2_masks(G4):
            m = cluster_supermodular(G4, c)
            assert pairing(m, u) == cluster_constraint_u(G4, c).value_at(u)


def test_indicator_pairing_is_portrait_entry():
    for graph in enumerate_dags(G3):
        u = standard_imset_of(graph)
        p = portrait_of(u)
        for s in p2_masks(G3):
            m = indicator_supermodular(G3, s)
            assert m.is_standardized() and is_supermodular(m)
            assert pairing(m, u.values) == p.value(s)
    top = indicator_supermodular(G3, 7)
    assert [int(v) for v in top.values] == [0] * 7 + [1]
    with pytest.raises(ValueError):
        indicator_supermodular(G3, 2)


# ---------------------------------------------------------------------------
# extreme rays


def test_builtin_rays_n3():
    rays = supermodular_rays(G3, "builtin")
    assert len(rays) == 5
    expected = [
        indicator_supermodular(G3, 3),
        indicator_supermodular(G3, 5),
        indicator_supermodular(G3, 6),
        indicator_supermodular(G3, 7),
        cluster_supermodular(G3, 7),
    ]
    assert rays == expected
    with pytest.raises(ValueError):
        supermodular_rays(G4, "builtin")


def test_computed_rays_match_builtin_at_n3():
    computed = {r.values for r in supermodular_rays(G3, "computed")}
    builtin = {r.values for r in supermodular_rays(G3, "builtin")}
    assert computed == builtin


def test_computed_rays_n4_certified_extreme():
    rays = supermodular_rays(G4, "computed")
    assert len(rays) == 37
    assert len({r.values for r in rays}) == 37
    from imsetpoly.constraint import _exchange_rows_p2
    from imsetpoly.exactlin import _row_rank

    rows = _exchange_rows_p2(G4)
    dim = len(p2_masks(G4))
    for ray in rays:
        assert ray.is_standardized() and is_supermodular(ray)
        vec = [ray.values[m] for m in p2_masks(G4)]
        ints = [int(v) for v in vec]
        from math import gcd

        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        assert g == 1
        active = [
            row
            for row in rows
            if sum(a * b for a, b in zip(row, vec)) == 0
        ]
        assert all(sum(a * b for a, b in zip(row, vec)) >= 0 for row in rows)
        assert _row_rank(active) == dim - 1


def test_computed_rays_refusal_at_n5():
    with pytest.raises(ValueError):
        supermodular_rays(GroundSet.of_size(5), "computed")
    # a ray source is 'builtin' or 'computed', never a file path
    with pytest.raises(ValueError, match="unknown ray source 'rays.json'"):
        supermodular_rays(G3, "rays.json")


def test_double_description_on_orthant():
    # {x >= 0} in dimension 3: rays are the unit vectors
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert double_description(rows, 3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # a non-pointed cone is rejected
    with pytest.raises(ValueError):
        double_description([(1, 0, 0), (0, 1, 0)], 3)


def test_double_description_under_a_negative_denominator():
    # the start reduction ends on a negative common denominator here (-2);
    # the integer rays must keep their direction
    from imsetpoly.exactlin import _echelon

    rows = [(-2, 1, 0), (0, 1, 0), (1, 0, 1), (1, 1, -1)]
    start = [[row[k] for row in rows] + [int(j == k) for j in range(3)] for k in range(3)]
    assert _echelon(start)[2] < 0
    rays = double_description(rows, 3)
    assert rays == [(-1, 2, 1), (1, 2, -1), (1, 2, 3)]
    assert rays == brute_force_rays(rows, 3)


def brute_force_rays(rows, dim):
    """Oracle: a ray is extreme when it is tight on dim - 1 independent rows.
    Each (dim - 1)-subset of rows gives its kernel direction through signed
    maximal minors; a subset of lower rank gives the zero vector."""
    from itertools import combinations
    from math import gcd

    from imsetpoly.exactlin import det_bareiss

    rays = set()
    for pick in combinations(rows, dim - 1):
        x = [
            (-1) ** j * det_bareiss([[r[k] for k in range(dim) if k != j] for r in pick])
            for j in range(dim)
        ]
        if not any(x):
            continue
        g = 0
        for v in x:
            g = gcd(g, abs(v))
        x = [v // g for v in x]
        for ray in (x, [-v for v in x]):
            if all(sum(a * b for a, b in zip(r, ray)) >= 0 for r in rows):
                rays.add(tuple(ray))
    return sorted(rays)


def test_double_description_matches_brute_force_on_random_cones():
    # the unit rows keep each cone pointed; the shuffle moves the starting basis
    rng = random.Random(23)
    for _ in range(60):
        dim = rng.randint(3, 4)
        rows = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
        rows += [
            tuple(rng.randint(-2, 2) for _ in range(dim))
            for _ in range(rng.randint(2, 5))
        ]
        rng.shuffle(rows)
        assert double_description(rows, dim) == brute_force_rays(rows, dim)


def test_nonspecific_rows():
    rays = supermodular_rays(G3, "builtin")
    system = nonspecific_constraints(G3, rays)
    assert len(system) == 5
    assert any(dict(r.coeffs) == {7: 1} for r in system)
    for graph in enumerate_dags(G3):
        assert system.satisfied_by(standard_imset_of(graph).values)
    rays4 = supermodular_rays(G4, "computed")
    system4 = nonspecific_constraints(G4, rays4)
    for graph in enumerate_dags(G4):
        assert system4.satisfied_by(standard_imset_of(graph).values)
    with pytest.raises(ValueError):
        nonspecific_constraints(G4, rays)


def test_strictness_witness_example():
    alt = [(-1) ** t.bit_count() for t in range(8)]
    cluster_rows = [cluster_constraint_u(G3, c) for c in p2_masks(G3)]
    assert all(row.holds_at(alt) for row in cluster_rows)
    nonspec = nonspecific_constraints(G3, supermodular_rays(G3, "builtin"))
    abc_row = next(r for r in nonspec if dict(r.coeffs) == {7: 1})
    assert not abc_row.holds_at(alt)
    assert u_equality_system(G3).satisfied_by(alt)
    pairs_row = specific_constraint(Antichain(G3, (3, 5, 6)))
    assert not pairs_row.holds_at(alt)


# ---------------------------------------------------------------------------
# dual cone


def test_dual_vector_validation_and_json():
    with pytest.raises(ValueError):
        DualVector(G3, (1,) + (0,) * 7)
    y = y_of_class(Antichain(G3, (1, 2, 4)))
    data = y.to_json_dict()
    assert DualVector.from_json_dict(data) == y


def test_y_of_class_reference_values():
    y = y_of_class(Antichain(G3, (3,)))
    expected = [0] * 8
    expected[3] = 1
    expected[7] = 1
    assert [int(v) for v in y.values] == expected
    y = y_of_class(Antichain(G3, (1, 2, 4)))
    assert [int(v) for v in y.values] == [0, 1, 1, -1, 1, -1, -1, -2]


def test_y_of_class_formula_oracle():
    for ground in (G3, G4):
        for antichain in enumerate_antichains(ground):
            closure = set(superset_closure(antichain).members)
            y = y_of_class(antichain)
            assert check_dual_cone(y)
            for t in p1_masks(ground):
                singles = sum(
                    1
                    for j in range(ground.n)
                    if (1 << j) in closure and (1 << j) != t and t >> j & 1
                )
                assert y.values[t] == (1 if t in closure else 0) - singles


def test_check_dual_cone_edges():
    zero = DualVector(G3, (0,) * 8)
    assert check_dual_cone(zero)
    neg = [0] * 8
    neg[1] = -1
    assert not check_dual_cone(DualVector(G3, tuple(neg)))
    # (a3) violation: y(ab) = 1 with y(abc) = -1 and singletons zero
    vals = [0] * 8
    vals[3] = 1
    vals[7] = -1
    assert not check_dual_cone(DualVector(G3, tuple(vals)))


def test_conic_decompose_single_extreme():
    for antichain in enumerate_antichains(G3):
        terms = conic_decompose(y_of_class(antichain))
        assert terms == [(antichain, Fraction(1))]


def test_conic_decompose_rejects_outside_cone():
    neg = [0] * 8
    neg[1] = -1
    with pytest.raises(ValueError):
        conic_decompose(DualVector(G3, tuple(neg)))


def test_conic_decompose_random_combinations():
    for ground, trials in ((G3, 120), (G4, 60)):
        antichains = list(enumerate_antichains(ground))
        extremes = {a: y_of_class(a) for a in antichains}
        rng = random.Random(ground.n)
        size = 1 << ground.n
        for _ in range(trials):
            picks = rng.sample(antichains, rng.randint(1, 4))
            weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in picks]
            vals = [Fraction(0)] * size
            for a, w in zip(picks, weights):
                for t, v in enumerate(extremes[a].values):
                    vals[t] += w * v
            y = DualVector(ground, tuple(vals))
            assert check_dual_cone(y)
            terms = conic_decompose(y)
            support = [t for t in p1_masks(ground) if vals[t] != 0]
            initial_closure = {
                s
                for s in p1_masks(ground)
                if any(t & s == t for t in support)
            }
            assert len(terms) <= len(initial_closure)
            rebuilt = [Fraction(0)] * size
            for a, w in terms:
                assert w > 0
                for t, v in enumerate(extremes.get(a, y_of_class(a)).values):
                    rebuilt[t] += w * v
            assert rebuilt == vals


def closure_decompose(y):
    """The decomposition loop through the superset closure: each pass closes
    the support upward into a SetClass and takes its minimal_sets."""
    ground = y.ground
    current = list(y.values)
    terms = []
    while any(current):
        support = [t for t in p1_masks(ground) if current[t] != 0]
        mins = minimal_sets(SetClass(ground, tuple(bits_of(_up_set(ground.n, support)))))
        beta = min(current[t] for t in mins)
        assert beta > 0
        for t, v in enumerate(y_of_class(mins).values):
            current[t] -= beta * v
        terms.append((mins, Fraction(beta)))
    return terms


def test_conic_decompose_takes_the_closures_minimal_sets():
    # the minimal sets of the support are those of its superset closure, so
    # the terms are those of the loop through the closure
    for ground, trials in ((G3, 60), (G4, 48)):
        antichains = list(enumerate_antichains(ground))
        rng = random.Random(100 + ground.n)
        ys = [y_of_class(a) for a in antichains]
        for _ in range(trials):
            vals = [Fraction(0)] * (1 << ground.n)
            for a in rng.sample(antichains, rng.randint(2, 5)):
                w = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                for t, v in enumerate(y_of_class(a).values):
                    vals[t] += w * v
            ys.append(DualVector(ground, tuple(vals)))
        for y in ys:
            assert conic_decompose(y) == closure_decompose(y), y.values


# ---------------------------------------------------------------------------
# assembly


def test_assemble_system_counts():
    assert len(assemble_system(G3, "eta", ("nonneg", "equality", "cluster"))) == 19
    full_u = assemble_system(
        G3, "u", ("equality", "specific", "nonspecific", "cluster-u")
    )
    assert len(full_u) == 4 + 18 + 5 + 4
    full_c = assemble_system(G3, "c", ("kappa-specific", "cluster-c"))
    assert len(full_c) == 18 + 4
    with pytest.raises(ValueError):
        assemble_system(G3, "u", ("nonneg",))
    with pytest.raises(ValueError):
        assemble_system(G3, "q", ("equality",))
    with pytest.raises(ValueError, match="^unknown eta constraint family 'oddball'$"):
        assemble_system(G3, "eta", ("nonneg", "oddball"))
    with pytest.raises(ValueError, match="^constraint family 'nonneg' is listed twice$"):
        assemble_system(G3, "eta", ("nonneg", "equality", "nonneg"))


def test_eta_system_refuses_a_repeated_family():
    with pytest.raises(ValueError, match="^constraint family 'nonneg' is listed twice$"):
        eta_system(G3, ("nonneg", "nonneg"))


def test_unknown_family_texts():
    # an unknown family is refused by its name, whatever comes before it
    for framework, families in (
        ("eta", ("equality", "specific")),
        ("u", ("equality", "nonneg")),
        ("c", ("cluster-c", "cluster-u")),
    ):
        with pytest.raises(
            ValueError, match=f"^unknown {framework} constraint family '{families[1]}'$"
        ):
            assemble_system(G3, framework, families)
    with pytest.raises(ValueError, match="^unknown eta constraint family 'oddball'$"):
        eta_system(G3, ("oddball",))


def test_every_refusal_comes_before_any_specific_row(monkeypatch, capsys):
    # the nonspecific rows at n = 5, an unknown family and n = 6 are each
    # refused before a single specific row is built, whatever the order of
    # the families
    from imsetpoly import verify
    from imsetpoly.cli import main

    def built(cls, *args):
        raise AssertionError("a specific row was built before the refusal")

    monkeypatch.setattr(LinearConstraint, "_canonical", classmethod(built))
    g5, g6 = GroundSet.of_size(5), GroundSet.of_size(6)
    rays = "^computed rays are limited to n <= 4$"
    for build in (assemble_system, verify._family_lanes):
        with pytest.raises(ValueError, match=rays):
            build(g5, "u", ("equality", "specific", "nonspecific", "cluster-u"))
        with pytest.raises(ValueError, match=rays):
            build(g5, "u", ("cluster-u", "specific", "nonspecific"))
        with pytest.raises(ValueError, match="^unknown c constraint family 'oddball'$"):
            build(g5, "c", ("kappa-specific", "oddball"))
        with pytest.raises(ValueError, match="^antichain enumeration is limited to n <= 5$"):
            build(g6, "c", ("cluster-c", "kappa-specific"))
    for argv in ("constraints --n 5 --framework u", "scan --n 5 --framework u"):
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: computed rays are limited to n <= 4"


def test_assemble_system_refuses_rays_it_would_not_read():
    # the nonspecific rows read the package's own rays, and no caller's
    assert "rays" not in inspect.signature(assemble_system).parameters
    assert len(assemble_system(G3, "u", ("nonspecific",))) == 5
