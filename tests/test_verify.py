"""Census, lattice scans, soundness and relaxation experiments, and the
bundled reference checks."""

import functools
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest

from imsetpoly import verify
from imsetpoly.cli import main
from imsetpoly.constraint import ConstraintSystem, LinearConstraint
from imsetpoly.encode import CharacteristicImset, u_from_characteristic
from imsetpoly.digraph import (
    DirectedGraph,
    _dag_count,
    _unpack_counts,
    enumerate_dags,
    is_acyclic,
    super_terminal_counts,
)
from imsetpoly.setfam import GroundSet, _json_text, bits_of, p2_masks
from imsetpoly.verify import (
    EnumerationBox,
    FACET_TYPES_N3,
    IMAGE_TYPES_N3,
    VERTEX_TYPES_N3,
    VerificationReport,
    _compile_rows,
    census_characteristic_set,
    census_equivalence_classes,
    example5_image_check,
    example8_fractional_check,
    lattice_scan,
    relaxation_comparison,
    run_example,
    soundness_check,
)

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)
G5 = GroundSet.of_size(5)

U_DEFAULT = ("equality", "specific", "nonspecific")
U_ALL = ("equality", "specific", "nonspecific", "cluster-u")
C_DEFAULT = ("kappa-specific", "cluster-c")


# ---------------------------------------------------------------------------
# reports and boxes


def test_report_json_prints_the_payload_as_held():
    # a long list is never built into a payload (_payload_list builds its
    # count instead); the JSON form prints the payload as it is held, and
    # never the wall time
    payload = {
        "long": list(range(600)),
        "counted": {"count": 600, "omitted": True},
        "short": [1, 2],
    }
    report = VerificationReport(
        experiment="x",
        parameters={},
        counts={},
        witnesses=[],
        passed=True,
        wall_time_s=1.5,
        payload=payload,
    )
    data = report.to_json_dict()
    assert data["payload"] == payload
    assert "wall_time_s" not in data and "wall_time_s" not in report.to_json()
    parsed = json.loads(report.to_json())
    assert parsed == data


def test_payload_list_stops_at_the_cap():
    cap = verify.PAYLOAD_LIST_CAP
    assert verify._payload_list({3, 1, 2}, str) == ["1", "2", "3"]
    assert len(verify._payload_list(range(cap), int)) == cap

    def never(x):
        raise AssertionError("an item past the cap was converted")

    assert verify._payload_list(range(cap + 1), never) == {"count": cap + 1, "omitted": True}


def _longest_list(value) -> int:
    if isinstance(value, dict):
        return max(map(_longest_list, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return max([len(value), *map(_longest_list, value)])
    return 0


@pytest.mark.parametrize(
    "experiment",
    [
        *(
            pytest.param(
                lambda n=n: census_equivalence_classes(GroundSet.of_size(n)), id=f"census-n{n}"
            )
            for n in (2, 3, 4, 5)
        ),
        pytest.param(
            lambda: lattice_scan(G3, "u", U_DEFAULT, EnumerationBox.default(G3)), id="scan-n3-u"
        ),
        pytest.param(
            lambda: lattice_scan(G4, "u", U_DEFAULT, EnumerationBox.zero_one(G4)),
            id="scan-n4-u-01",
        ),
        pytest.param(
            lambda: lattice_scan(G4, "c", ("cluster-c",), EnumerationBox.default(G4)),
            id="scan-n4-c-cluster-only",
        ),
        pytest.param(
            lambda: lattice_scan(G5, "c", C_DEFAULT, EnumerationBox.default(G5)), id="scan-n5-c"
        ),
        pytest.param(lambda: relaxation_comparison(G3), id="compare-n3"),
        pytest.param(lambda: relaxation_comparison(G4), id="compare-n4"),
        pytest.param(lambda: soundness_check(G4), id="soundness-n4"),
        *(pytest.param(lambda i=i: run_example(i), id=f"example-{i}") for i in range(1, 9)),
    ],
)
def test_no_payload_list_passes_the_cap(experiment):
    report = experiment()
    assert _longest_list(report.payload) <= verify.PAYLOAD_LIST_CAP


def test_enumeration_box():
    box = EnumerationBox.default(G3)
    assert box.lower == (0, 0, 0, 0)
    assert box.upper == (1, 1, 1, 2)
    assert box.volume() == 24
    assert len(list(box.points())) == 24
    assert EnumerationBox.zero_one(G3).volume() == 16
    assert box.to_param_dict() == {
        "a,b": [0, 1],
        "a,c": [0, 1],
        "b,c": [0, 1],
        "a,b,c": [0, 2],
    }
    with pytest.raises(ValueError):
        EnumerationBox(G3, (0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        EnumerationBox(G3, (0, 0, 0, 2), (1, 1, 1, 1))
    # a bound is never truncated or parsed: 0.5 and 1.9 must not read as 0
    # and 1, nor "1" as 1
    for bad in (0.5, 1.9, "1", Fraction(1, 2), Fraction(2, 1)):
        with pytest.raises(ValueError, match=r"^box bounds must be ints, got "):
            EnumerationBox(G3, (0, 0, 0, bad), (1, 1, 1, 2))
        with pytest.raises(ValueError, match=r"^box bounds must be ints, got "):
            EnumerationBox(G3, (0, 0, 0, 0), (bad, 1, 1, 2))


# ---------------------------------------------------------------------------
# census


def test_census_counts():
    for ground, dags, classes in ((G3, 25, 11), (G4, 543, 185), (G5, 29281, 8782)):
        report = census_equivalence_classes(ground)
        assert report.passed
        assert report.counts == {"dags": dags, "classes": classes}
        assert len(census_characteristic_set(ground)) == classes


def test_census_report_is_deterministic():
    assert (
        census_equivalence_classes(G4).to_json()
        == census_equivalence_classes(G4).to_json()
    )


def test_census_classes_sorted_as_tuples():
    # the census sorts packed ints; the decoded tuples must come out in
    # tuple order, one per class, each the 0/1 rule on some DAG
    classes = census_equivalence_classes(G4).payload["class_points"]
    assert len(classes) == 185 and classes == sorted(set(classes))
    assert set(classes) == census_characteristic_set(G4)
    for ground in (G4, G5):
        masks = p2_masks(ground)
        assert census_characteristic_set(ground) == {
            tuple(
                int(any(s & ~(1 << i) & ~g.parents[i] == 0 for i in bits_of(s)))
                for s in masks
            )
            for g in enumerate_dags(ground)
        }
    decoded = [_unpack_counts(G5, v) for v in sorted(verify._census_data(G5))]
    assert decoded == sorted(census_characteristic_set(G5))


def test_census_data_against_the_product_route():
    # every loop-free parent tuple by itertools.product, the cyclic ones
    # dropped by is_acyclic's peeling: nothing of the sink recursion or of
    # the counting recurrence is used
    for ground in (GroundSet.of_size(2), G3, G4):
        n = ground.n
        dags = [
            parents
            for parents in itertools.product(range(1 << n), repeat=n)
            if not any(p >> i & 1 for i, p in enumerate(parents))
            and is_acyclic(DirectedGraph(ground, parents))
        ]
        classes = sorted({super_terminal_counts(ground, parents) for parents in dags})
        assert _dag_count(n) == len(dags)
        assert census_equivalence_classes(ground).counts["dags"] == len(dags)
        packed = verify._census_data(ground)
        assert [_unpack_counts(ground, v) for v in sorted(packed)] == classes


def test_census_data_is_an_unordered_set_listed_sorted(capsys):
    # the census keeps its classes as a frozenset and never sorts them; the
    # n <= 4 payload lists them in tuple order all the same
    for ground in (G3, G4, G5):
        assert type(verify._census_data(ground)) is frozenset
    for n, count in ((3, 11), (4, 185)):
        assert main(["census", "--n", str(n)]) == 0
        points = [tuple(p) for p in json.loads(capsys.readouterr().out)["payload"]["class_points"]]
        assert len(points) == count and points == sorted(set(points))


def test_census_data_does_not_read_the_labels():
    # packed sums index subsets by mask, so any labels give the same data
    for labels in ("yx", "qbz", ("d4", "c3", "b2", "a1"), "vwxyz"):
        ground = GroundSet(tuple(labels))
        assert verify._census_data(ground) == verify._census_data(GroundSet.of_size(len(labels)))


def test_census_is_built_on_every_call():
    # no cache keeps a census alive between calls (at n = 6 it holds hundreds
    # of MB): two calls give equal sets, each built afresh
    for census in (verify._census_data, census_characteristic_set):
        first, second = census(G4), census(G4)
        assert first == second and first is not second


def test_census_class_payload():
    report = census_equivalence_classes(G3)
    classes = report.payload["class_points"]
    assert len(classes) == 11
    assert (0, 0, 0, 0) in classes
    assert report.payload["coordinates"] == ["a,b", "a,c", "b,c", "a,b,c"]


def test_census_payload_past_the_tuple_limit(monkeypatch):
    # past PAYLOAD_LIST_CAP classes the payload holds no tuples, only their
    # count, and the JSON form is what a listed payload printed at that cap
    listed = census_equivalence_classes(G3)
    monkeypatch.setattr(verify, "PAYLOAD_LIST_CAP", 10)
    counted = census_equivalence_classes(G3)
    assert len(listed.payload["class_points"]) == 11
    assert counted.payload["class_points"] == {"count": 11, "omitted": True}
    assert counted.to_json() == _json_text(
        {
            "counts": {"classes": 11, "dags": 25},
            "experiment": "census",
            "parameters": {"labels": ["a", "b", "c"], "n": 3},
            "passed": True,
            "payload": {
                "class_points": {"count": 11, "omitted": True},
                "coordinates": ["a,b", "a,c", "b,c", "a,b,c"],
            },
            "witnesses": [],
        }
    )


# ---------------------------------------------------------------------------
# lattice scans


def test_u_scan_zero_one_box():
    for ground, expected in ((G3, 11), (G4, 185)):
        report = lattice_scan(
            ground, "u", U_DEFAULT, EnumerationBox.zero_one(ground)
        )
        assert report.passed
        assert report.counts["satisfying"] == expected
        assert report.counts["extra"] == 0 and report.counts["missing"] == 0


def test_u_scan_with_cluster_rows():
    report = lattice_scan(G3, "u", U_ALL, EnumerationBox.zero_one(G3))
    assert report.passed and report.counts["satisfying"] == 11


def test_c_scan_default_box():
    report = lattice_scan(G3, "c", C_DEFAULT, EnumerationBox.default(G3))
    assert report.passed
    assert report.counts["box_points"] == 24
    assert report.counts["satisfying"] == 11


def test_c_scan_zero_one_box_n5():
    # 2^26 box points; the pruned search finds exactly the 8 782 structures
    report = lattice_scan(G5, "c", C_DEFAULT, EnumerationBox.zero_one(G5))
    assert report.passed
    assert report.counts["box_points"] == 2**26
    assert report.counts["satisfying"] == 8782


def test_c_scan_needs_cluster_rows_too():
    # the translated rows alone admit extra points, e.g. the directed cycle
    # pattern [1, 1, 1, 0]; the cluster rows cut them off
    report = lattice_scan(G3, "c", ("kappa-specific",), EnumerationBox.default(G3))
    assert not report.passed
    assert report.counts["missing"] == 0 and report.counts["extra"] > 0
    assert [1, 1, 1, 0] in report.payload["satisfying_points"]


def test_scan_records_witnesses_when_rows_are_too_weak():
    report = lattice_scan(G3, "c", ("cluster-c",), EnumerationBox.default(G3))
    assert not report.passed
    assert report.counts["extra"] > 0 and report.counts["missing"] == 0
    kinds = {w["kind"] for w in report.witnesses}
    assert kinds == {"satisfies_rows_but_not_a_structure"}


def test_scan_budget_counts_values_tried(monkeypatch):
    # the budget counts the coordinate values the search tries, not the box
    # points: the n = 4 default box holds 25 920 points, the search tries 2 341
    monkeypatch.setattr(verify, "SCAN_BUDGET", 10)
    with pytest.raises(ValueError, match="budget of 10 .*narrow the families or the box"):
        lattice_scan(G3, "c", C_DEFAULT, EnumerationBox.default(G3))
    with pytest.raises(ValueError, match="budget of 10 "):
        relaxation_comparison(G3)
    box = EnumerationBox.default(G4)
    monkeypatch.setattr(verify, "SCAN_BUDGET", 10_000)
    report = lattice_scan(G4, "c", C_DEFAULT, box)
    assert report.passed and report.counts["box_points"] == 25920
    monkeypatch.setattr(verify, "SCAN_BUDGET", 2341)
    assert lattice_scan(G4, "c", C_DEFAULT, box).passed
    monkeypatch.setattr(verify, "SCAN_BUDGET", 2340)
    with pytest.raises(ValueError, match="budget of 2340 "):
        lattice_scan(G4, "c", C_DEFAULT, box)


def test_scan_rejects_unknown_framework():
    with pytest.raises(ValueError):
        lattice_scan(G3, "eta", ("equality",), EnumerationBox.zero_one(G3))


def test_scan_refuses_a_box_over_another_ground_set():
    # the points of another ground set's box do not stand for this ground
    # set's structures, so any verdict on them would be false
    for box in (EnumerationBox.default(G4), EnumerationBox.zero_one(GroundSet(("x", "y", "z")))):
        with pytest.raises(ValueError, match="^box ground set does not match$"):
            lattice_scan(G3, "c", ("kappa-specific", "cluster-c"), box)


# the lane signs of a row's halves: a '<=' row is negated, and an '=' row
# gives a '>=' half and a negated one
_HALVES = {">=": (1,), "<=": (-1,), "=": (1, -1)}


@functools.lru_cache(maxsize=None)
def _affine_basis(ground):
    """u = u_from_characteristic(c) at c = 0 and then at each unit vector of
    the characteristic coordinates: an affine basis of them."""
    size = len(p2_masks(ground))
    return [
        u_from_characteristic(CharacteristicImset(ground, [int(j == k) for j in range(size)]))
        .values
        for k in range(-1, size)
    ]


def _assert_lanes_read_the_u_rows(ground, rows, lanes):
    """Oracle without the pull-back: the lanes of u rows, one per half, in
    the rows' order and with their tags, each reading
    sum of a[k] c_k - r = sign * (a.u - rhs)  at u = u_from_characteristic(c)
    on an affine basis, so everywhere.  A lane reads -r at c = 0 and
    a[k] - r at the k-th unit vector."""
    basis = _affine_basis(ground)
    size = len(basis) - 1
    halves = [(row, sign) for row in rows for sign in _HALVES[row.sense]]
    assert len(lanes) == len(halves)
    for (a, r, tag), (row, sign) in zip(lanes, halves):
        assert tag == row.tag and all(0 <= k < size for k in a)
        dense = [0] * (1 << ground.n)
        for t, v in row.coeffs.items():
            dense[t] = v
        expected = [sign * (sum(map(operator.mul, dense, u)) - row.rhs) for u in basis]
        assert [-r] + [a.get(k, 0) - r for k in range(size)] == expected, tag


def test_u_rows_pulled_back_match_the_c_rows():
    # each u row, built on its own, against the lanes of its c row: the
    # kappa recursion for a specific row, the cluster-c row for a cluster-u
    # row, 0 = 0 for an equality and, at n <= 4, the nonspecific twin row
    # of the same ray
    from imsetpoly.constraint import (
        _C_TWINS,
        _nonspecific_rows,
        char_specific_constraint,
        cluster_constraint_c,
        cluster_constraint_u,
        specific_constraint,
        u_equality_system,
    )
    from imsetpoly.setfam import enumerate_antichains

    for ground, antichains, clusters in ((G3, 18, 4), (G4, 166, 11), (G5, 7579, 26)):
        specific = list(enumerate_antichains(ground))
        assert len(specific) == antichains and len(p2_masks(ground)) == clusters
        u_rows, c_rows = [], []
        for antichain in specific:
            u_rows.append(specific_constraint(antichain))
            c_rows.append(char_specific_constraint(antichain))
            assert (u_rows[-1].sense, c_rows[-1].sense) == ("<=", ">=")
        for c in p2_masks(ground):
            u_rows.append(cluster_constraint_u(ground, c))
            c_rows.append(cluster_constraint_c(ground, c))
        for row in u_equality_system(ground):
            u_rows.append(row)
            c_rows.append(LinearConstraint("c", {}, "=", 0, row.tag))
        if ground.n <= 4:
            u_rows += _nonspecific_rows(ground)
            c_rows += _C_TWINS["nonspecific"](ground, None)
        # the oracle compares tags, and the c rows carry the c family names
        lanes = [
            (a, r, u_row.tag)
            for u_row, c_row in zip(u_rows, c_rows, strict=True)
            for a, r, _tag in _compiled(ground, "c", [c_row])
        ]
        _assert_lanes_read_the_u_rows(ground, u_rows, lanes)


def test_twin_lanes_match_the_pulled_back_u_rows():
    # the scans and the soundness check read every u family through its c
    # twin; the lanes, tags and order included, must read the u rows of the
    # same families at every point
    from imsetpoly.constraint import assemble_system

    cases = [
        (ground, sub)
        for ground in (GroundSet.of_size(2), G3, G4)
        for sub in _family_subsets(U_ALL) + [U_ALL[::-1]]
    ]
    for ground, sub in cases + [(G5, ("equality", "specific", "cluster-u"))]:
        lanes, sizes = verify._family_lanes(ground, "u", sub)
        system = assemble_system(ground, "u", sub)
        assert list(sizes) == list(sub) and sum(sizes.values()) == len(system)
        _assert_lanes_read_the_u_rows(ground, system.rows, lanes)


def test_only_rows_without_a_c_twin_are_pulled_back(monkeypatch, capsys):
    # superset_moebius calls: the nonspecific twin rows (37 at n = 4, 5 at
    # n = 3), one per ray, are the only ones built through the transform;
    # no specific, cluster-u or equality twin is
    from imsetpoly import cli, constraint

    calls = []
    butterfly = constraint.superset_moebius

    def counted(values, n):
        calls.append(n)
        return butterfly(values, n)

    monkeypatch.setattr(constraint, "superset_moebius", counted)
    assert cli.main(["scan", "--n", "4", "--framework", "u"]) == 0
    capsys.readouterr()
    assert len(calls) == 37
    calls.clear()
    assert soundness_check(G4).passed
    assert len(calls) == 37
    calls.clear()
    box = EnumerationBox.zero_one(G4)
    assert lattice_scan(G4, "u", ("equality", "specific", "cluster-u"), box).passed
    assert calls == []
    assert relaxation_comparison(G3).passed
    assert len(calls) == 5
    calls.clear()
    report = soundness_check(G5, specific_sample=30)
    assert report.passed and report.counts["rows"] == 62
    assert calls == []


def test_scan_row_count_is_the_assembled_systems():
    # a scan counts its rows family by family; the count must be that of
    # the one system assemble_system builds
    from imsetpoly.constraint import assemble_system

    for ground in (G3, G4):
        box = EnumerationBox.zero_one(ground)
        for framework, families in (("u", U_ALL), ("c", C_DEFAULT)):
            for sub in _family_subsets(families):
                report = lattice_scan(ground, framework, sub, box)
                assert report.counts["rows"] == len(assemble_system(ground, framework, sub))


def test_compile_rows_refuses_a_key_outside_the_coordinates():
    # a c row is keyed by the subsets with >= 2 members; a key outside them
    # would be dropped or misread, so the compiler names the row instead
    base = LinearConstraint("c", {3: 1}, ">=", 0, "kept")
    for key in (1, 9):
        row = LinearConstraint("c", {3: 1, key: 5}, ">=", 1, f"bad-{key}")
        with pytest.raises(ValueError, match=f"'bad-{key}'"):
            _compiled(G3, "c", [base, row])
    assert _compiled(G3, "c", [base]) == [({0: 1}, 0, "kept")]
    # a u system, with any keys or none, is refused: u rows reach lanes
    # through their c twins only
    for rows in ([], [LinearConstraint("u", {3: 1}, ">=", 0, "u")], [
        LinearConstraint("u", {3: 1, 8: 5}, ">=", 1, "bad-8")
    ]):
        with pytest.raises(ValueError, match="^lanes compile from 'c' rows only, not 'u' rows$"):
            _compiled(G3, "u", rows)


def test_compile_rows_keeps_the_system_order():
    # lanes follow the rows as the system lists them, so the first violated
    # lane names the first violated row, not a later row of smaller support
    rows = [
        _c_row(G3, ((0, 1), (1, 1), (3, -1)), ">=", 0, "three"),
        _c_row(G3, ((2, 1),), "=", 0, "one"),
    ]
    assert [tag for _a, _r, tag in _compiled(G3, "c", rows)] == ["three", "one", "one"]


def _compiled(ground, framework, rows):
    # the lanes of a system of the given rows, by the compiler as imported,
    # not as a test may have patched it
    return _compile_rows(ConstraintSystem(ground, framework, tuple(rows)))


def _c_row(ground, terms, sense, rhs, tag):
    # a 'c' row from (index, coefficient) terms over the subsets with >= 2
    # members in ascending order
    masks = p2_masks(ground)
    return LinearConstraint("c", {masks[k]: v for k, v in terms}, sense, rhs, tag)


def _brute_force_points(ground, framework, families, box):
    # the box walk the search replaces: every point, every lane
    from imsetpoly.verify import _first_violation

    lanes = verify._family_lanes(ground, framework, families)[0]
    return [list(p) for p in box.points() if _first_violation(lanes, p) is None]


def _family_subsets(families):
    return [
        sub
        for k in range(1, len(families) + 1)
        for sub in itertools.combinations(families, k)
    ]


def _search_cases():
    both_boxes = (EnumerationBox.zero_one, EnumerationBox.default)
    for framework, families in (("u", U_ALL), ("c", C_DEFAULT)):
        for sub in _family_subsets(families):
            for box in both_boxes:
                yield G3, framework, sub, box
    for sub in _family_subsets(C_DEFAULT):
        for box in both_boxes:
            yield G4, "c", sub, box
    u_sets = (("equality", "specific"), ("equality", "specific", "cluster-u"))
    for sub in u_sets + (U_DEFAULT, U_ALL):
        yield G4, "u", sub, EnumerationBox.zero_one


def test_pruned_search_matches_the_box_walk():
    from imsetpoly.verify import PAYLOAD_LIST_CAP, _satisfying_points

    cases = list(_search_cases())
    assert len(cases) == 36 + 6 + 4
    for ground, framework, families, make_box in cases:
        box = make_box(ground)
        expected = _brute_force_points(ground, framework, families, box)
        lanes = verify._family_lanes(ground, framework, families)[0]
        found = _satisfying_points(lanes, box)
        assert [list(p) for p in sorted(found)] == expected, (framework, families)
        points = lattice_scan(ground, framework, families, box).payload["satisfying_points"]
        if len(expected) > PAYLOAD_LIST_CAP:
            assert points == {"count": len(expected), "omitted": True}
        else:
            assert points == expected, (framework, families)


def test_pruned_search_on_random_rows():
    # rows with any senses, signs, rational coefficients and right-hand
    # sides, over boxes that reach below zero
    from imsetpoly.verify import _satisfying_points

    rng = random.Random(3)
    masks = p2_masks(G3)
    coefficients = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
    for _ in range(300):
        lower = [rng.randint(-2, 1) for _ in range(4)]
        box = EnumerationBox(G3, lower, [lo + rng.randint(0, 2) for lo in lower])
        rows = []
        for r in range(rng.randint(0, 4)):
            support = sorted(rng.sample(range(4), rng.randint(1, 4)))
            terms = tuple((k, rng.choice(coefficients)) for k in support)
            sense = rng.choice(("<=", ">=", "="))
            rows.append(_c_row(G3, terms, sense, rng.randint(-4, 4), f"row{r}"))
        # the oracle reads the rows themselves, in exact rationals
        system = ConstraintSystem(G3, "c", tuple(rows))
        expected = {p for p in box.points() if system.satisfied_by(dict(zip(masks, p)))}
        assert _satisfying_points(_compiled(G3, "c", rows), box) == expected, rows


def test_pruned_search_far_from_zero():
    # the lane width must cover rows evaluated at large negative coordinates
    from imsetpoly.verify import _satisfying_points

    g2 = GroundSet.of_size(2)
    box = EnumerationBox(g2, (-1000,), (-990,))

    def points(terms, sense, rhs):
        return _satisfying_points(_compiled(g2, "c", [_c_row(g2, terms, sense, rhs, "row")]), box)

    assert points(((0, 1),), ">=", 990) == set()
    assert points(((0, -1),), ">=", 995) == {(v,) for v in range(-1000, -994)}


def _dense_pack(values, width: int) -> int:
    """Oracle: one int holding values[i] in bits [i * width, (i + 1) * width),
    built from one to_bytes per lane and sign; a negative value borrows from
    the lanes above it."""
    nbytes = width // 8
    pos = b"".join(max(v, 0).to_bytes(nbytes, "little") for v in values)
    neg = b"".join(max(-v, 0).to_bytes(nbytes, "little") for v in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def test_pack_lanes_matches_the_dense_packing():
    # random lane groups with signed coefficients of any size, term-free
    # lanes and empty groups: the sparse packing must give the dense ints
    from imsetpoly.verify import _lane_width, _pack_lanes

    rng = random.Random(7)
    seen = set()
    for _ in range(400):
        dim = rng.randint(1, 6)
        lanes = []
        for i in range(rng.choice((0, 1, 2, 5, 12, 40))):
            size = rng.choice((3, 300, 10**6))
            support = rng.sample(range(dim), rng.randint(0, dim))
            a = {k: rng.choice((-1, 1)) * rng.randint(1, size) for k in support}
            lanes.append((a, rng.randint(-1000, 1000), f"lane{i}"))
        # the dense ints hold only coefficients that fit in a lane, which
        # a reach of 0 does not ask of its coordinate
        reach = [rng.randint(1, 50) for _ in range(dim)]
        const, coeffs, high = _pack_lanes(lanes, reach)
        width = _lane_width(lanes, reach)
        bias = 1 << (width - 1)
        coords = sorted({k for a, _r, _tag in lanes for k in a})
        assert coeffs == {
            k: _dense_pack([a.get(k, 0) for a, _r, _tag in lanes], width) for k in coords
        }
        assert const == _dense_pack([bias - r for _a, r, _tag in lanes], width)
        assert high == _dense_pack([bias] * len(lanes), width)
        assert all(type(x) is int for x in (const, high, *coeffs.values()))
        seen.add("wide" if width > 16 else "narrow")
        seen.add("empty" if not lanes else "lanes")
        for a, _r, _tag in lanes:
            seen.add("term-free" if not a else "negative" if min(a.values()) < 0 else "positive")
    assert seen == {"wide", "narrow", "empty", "lanes", "term-free", "negative", "positive"}


def test_pruned_search_with_a_coordinate_fixed_at_zero():
    # the lane width leaves out a coordinate the box fixes at 0, so its
    # coefficient may not fit in a lane; it is packed all the same and
    # multiplies 0
    from imsetpoly.verify import _satisfying_points

    box = EnumerationBox(G3, (0, 0, 0, 0), (1, 1, 1, 0))
    row = _c_row(G3, ((0, 1), (3, 1000)), ">=", 1, "row")
    expected = {p for p in box.points() if p[0] >= 1}
    assert _satisfying_points(_compiled(G3, "c", [row]), box) == expected


def test_term_free_rows_ride_the_lanes():
    # a row with no terms attaches at depth 0: one that holds keeps every
    # point, one that fails empties the result
    from imsetpoly.verify import _satisfying_points

    box = EnumerationBox.zero_one(G3)
    row = _c_row(G3, ((0, 1), (3, -1)), ">=", 0, "row")

    def points(*rows):
        return _satisfying_points(_compiled(G3, "c", rows), box)

    kept = points(row)
    assert len(kept) == 12
    assert points(_c_row(G3, (), "=", 0, "vacuous"), row) == kept
    assert points(row, _c_row(G3, (), "<=", Fraction(1, 2), "half")) == kept
    assert points(_c_row(G3, (), ">=", 1, "false"), row) == set()
    assert points(row, _c_row(G3, (), "=", Fraction(-1, 3), "third")) == set()


def test_scan_keeps_counts_and_smallest_extras_past_the_cap():
    # lattice_scan keeps the census hits, the number of extras and their 16
    # smallest, not every satisfying point: where the extras pass the cap,
    # the counts and witnesses must still be those of the box walk
    from imsetpoly.verify import PAYLOAD_LIST_CAP, _ScanTally

    census = census_characteristic_set(G4)
    for make_box in (EnumerationBox.zero_one, EnumerationBox.default):
        box = make_box(G4)
        expected = [tuple(p) for p in _brute_force_points(G4, "c", ("cluster-c",), box)]
        extra = [p for p in expected if p not in census]
        assert len(extra) > PAYLOAD_LIST_CAP
        report = lattice_scan(G4, "c", ("cluster-c",), box)
        assert report.counts["satisfying"] == len(expected)
        assert report.counts["intersection"] == len(expected) - len(extra)
        assert report.counts["extra"] == len(extra) and report.counts["missing"] == 0
        assert [w["point"] for w in report.witnesses] == [list(p) for p in extra[:16]]
        assert report.payload["satisfying_points"] == {"count": len(expected), "omitted": True}
        # in any order, the tally ends with the same smallest extras
        random.Random(len(extra)).shuffle(expected)
        tally = _ScanTally(census)
        for p in expected:
            tally.add(p)
        assert tally.extra == len(extra) and sorted(tally.kept)[:16] == extra[:16]


def test_scan_report_is_deterministic():
    box = EnumerationBox.zero_one(G3)
    first = lattice_scan(G3, "u", U_DEFAULT, box)
    second = lattice_scan(G3, "u", U_DEFAULT, box)
    assert first.to_json() == second.to_json()


# ---------------------------------------------------------------------------
# soundness and relaxation comparison


def test_soundness_all_rows():
    # no sample unless one is asked for, at n = 5 too
    for ground in (G3, G4, G5):
        report = soundness_check(ground)
        assert report.passed
        assert report.counts["structures"] == len(census_characteristic_set(ground))
        assert report.parameters["specific_rows"] == "all"
    # the 7 579 specific rows with the 6 equality and 26 cluster-u rows
    assert report.counts["rows"] == 7611
    assert report.parameters["specific_sample"] == 7579


def test_soundness_checks_all_four_u_families_up_to_n4():
    # equality, specific and cluster-u rows, then the nonspecific rows the
    # package builds itself: 3+4+1+1 rows at n = 2, 4+18+4+5 at n = 3 and
    # 5+166+11+37 at n = 4
    import inspect

    assert "rays" not in inspect.signature(soundness_check).parameters
    for n, rows, rays in ((2, 9, 1), (3, 31, 5), (4, 219, 37)):
        ground = GroundSet.of_size(n)
        report = soundness_check(ground)
        assert report.passed
        assert report.counts == {
            "structures": len(census_characteristic_set(ground)),
            "rows": rows,
        }
        assert report.parameters["rays"] == rays
        assert report.parameters["specific_rows"] == "all"


def test_soundness_witnesses_name_the_first_violated_row(monkeypatch):
    # a probe row c(a,b) <= 0, appended to the compiled rows, fails at every
    # structure with an a-b edge; the report must match a row-by-row check
    from imsetpoly import verify

    probe = _compiled(G4, "c", [_c_row(G4, ((0, 1),), "<=", 0, "probe")])
    family_lanes = verify._family_lanes

    def appended(*args):
        lanes, sizes = family_lanes(*args)
        return lanes + probe, sizes

    monkeypatch.setattr(verify, "_family_lanes", appended)
    report = soundness_check(G4)
    ordered = sorted(census_characteristic_set(G4))
    failing = [p for p in ordered if p[0] > 0]
    assert not report.passed
    assert report.witnesses == [
        {"kind": "row_violated", "row": "probe", "point": list(p)} for p in failing[:16]
    ]
    assert report.counts["structures"] == ordered.index(failing[15]) + 1


def _per_point_soundness(compiled, ground):
    """Oracle: the census structures one by one in sorted order, each failing
    one named by its first violated row, up to the 16th; returns the
    witnesses and the number of structures looked at."""
    from imsetpoly.verify import _first_violation

    witnesses = []
    checked = 0
    for point in sorted(census_characteristic_set(ground)):
        checked += 1
        tag = _first_violation(compiled, point)
        if tag is not None:
            witnesses.append({"kind": "row_violated", "row": tag, "point": list(point)})
            if len(witnesses) == 16:
                break
    return witnesses, checked


def _failing_kind(count: int) -> str:
    return "none" if count == 0 else "few" if count < 16 else "many" if count > 16 else "16"


def _probe_row(rng, ground, points, kind, tag):
    """A random 'c' row that fails at as many census points as kind says:
    none, a few (1 to 15) or many (more than 16)."""
    from imsetpoly.constraint import SENSES

    coefficients = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
    dim = len(points[0])
    while True:
        support = sorted(rng.sample(range(dim), rng.randint(0, min(dim, 4))))
        terms = tuple((k, rng.choice(coefficients)) for k in support)
        sense = rng.choice(("<=", ">=", "="))
        lhs = [sum(v * p[k] for k, v in terms) for p in points]
        candidates = sorted(set(lhs)) + [min(lhs) - 1, max(lhs) + 1]
        rng.shuffle(candidates)
        for rhs in candidates:
            if _failing_kind(sum(not SENSES[sense](x, rhs) for x in lhs)) == kind:
                return _c_row(ground, terms, sense, rhs, tag)


def test_sliced_soundness_matches_the_per_point_route(monkeypatch):
    # random probe rows (every sense, signed and rational coefficients,
    # term-free rows that hold or fail) spliced around the compiled rows:
    # the bit-sliced check must report the witnesses and the structure count
    # of the point-by-point walk, with none, a few and many failing points
    rng = random.Random(11)
    seen = set()
    family_lanes = verify._family_lanes
    for ground in (G3, G4):
        masks = p2_masks(ground)
        points = sorted(census_characteristic_set(ground))
        # 11 structures at n = 3: more than 16 can fail only at n = 4
        kinds = ("none", "few") if ground.n == 3 else ("none", "few", "many")
        for case in range(24):
            probes = [
                _probe_row(rng, ground, points, kind, f"probe{r}")
                for r, kind in enumerate(
                    [kinds[case % len(kinds)]]
                    + [rng.choice(("none", "few")) for _ in range(rng.randint(0, 3))]
                )
            ]
            rng.shuffle(probes)
            split = rng.randint(0, len(probes))
            # each probe compiled on its own, so the probes keep their order
            before, after = (
                [lane for probe in part for lane in _compiled(ground, "c", [probe])]
                for part in (probes[:split], probes[split:])
            )
            used = []

            def spliced(*args):
                lanes, sizes = family_lanes(*args)
                used.append(before + lanes + after)
                return used[-1], sizes

            monkeypatch.setattr(verify, "_family_lanes", spliced)
            report = soundness_check(ground)
            witnesses, checked = _per_point_soundness(used.pop(), ground)
            assert report.witnesses == witnesses
            assert report.counts["structures"] == checked
            assert report.passed == (not witnesses)
            system = ConstraintSystem(ground, "c", tuple(probes))
            failing = sum(not system.satisfied_by(dict(zip(masks, p))) for p in points)
            seen.add((ground.n, _failing_kind(failing)))
    assert {(3, "none"), (3, "few"), (4, "none"), (4, "few"), (4, "many")} <= seen


def test_soundness_sample_draws_the_same_antichains(monkeypatch):
    # the sample is drawn from the walk; it must be the seeded draw from the
    # enumerate_antichains list, each row's lanes, tag included, reading
    # specific_constraint's row of the same antichain
    from imsetpoly.constraint import specific_constraint
    from imsetpoly.setfam import enumerate_antichains

    compiled = []
    family_lanes = verify._family_lanes

    def spy(*args):
        compiled.append(family_lanes(*args))
        return compiled[-1]

    monkeypatch.setattr(verify, "_family_lanes", spy)
    antichains = list(enumerate_antichains(G5))
    for seed in range(5):
        report = soundness_check(G5, specific_sample=30, seed=seed)
        expected = [
            specific_constraint(a) for a in random.Random(seed).sample(antichains, 30)
        ]
        lanes, sizes = compiled.pop()
        sampled = [lane for lane in lanes if lane[2].startswith("specific:")]
        _assert_lanes_read_the_u_rows(G5, expected, sampled)
        assert sizes == {"equality": 6, "specific": 30, "cluster-u": 26}
        assert report.to_json_dict() == {
            "counts": {"rows": 62, "structures": 8782},
            "experiment": "census-soundness",
            "parameters": {
                "labels": list("abcde"),
                "n": 5,
                "rays": None,
                "seed": seed,
                "specific_rows": "sampled",
                "specific_sample": 30,
            },
            "passed": True,
            "payload": {},
            "witnesses": [],
        }


def test_soundness_is_deterministic():
    assert soundness_check(G3).to_json() == soundness_check(G3).to_json()


def test_relaxation_comparison():
    for ground in (G3, G4):
        report = relaxation_comparison(ground)
        assert report.passed
        assert report.counts["leaked"] == 0
        assert (
            report.counts["nonspecific_relaxation_points"]
            <= report.counts["cluster_relaxation_points"]
        )
    witness = relaxation_comparison(G3).payload["strictness_witness"]
    assert witness["satisfies_all_cluster_rows"]
    assert witness["violates_a_nonspecific_row"]
    with pytest.raises(ValueError):
        relaxation_comparison(G5)


def test_relaxation_comparison_compiles_the_shared_rows_once(monkeypatch):
    # both relaxations hold the equality and specific rows; their lanes are
    # built once, and each relaxation adds only its own family's
    requested = []
    family_lanes = verify._family_lanes

    def spy(ground, framework, families, walk=None):
        requested.append(tuple(families))
        return family_lanes(ground, framework, families, walk)

    monkeypatch.setattr(verify, "_family_lanes", spy)
    for ground in (G3, G4):
        assert relaxation_comparison(ground).passed
        assert requested == [("equality", "specific"), ("nonspecific",), ("cluster-u",)]
        requested.clear()


def test_relaxation_comparison_refuses_a_box_over_another_ground_set():
    with pytest.raises(ValueError, match="^box ground set does not match$"):
        relaxation_comparison(G3, EnumerationBox.zero_one(G4))


def test_relaxation_comparison_names_a_leaked_point(monkeypatch):
    # a probe lane c(a,b) <= 0 spliced into the cluster-u lanes cuts the
    # census points with an a-b edge out of the cluster relaxation only
    probe = _compiled(G3, "c", [_c_row(G3, ((0, 1),), "<=", 0, "probe")])
    family_lanes = verify._family_lanes

    def spliced(ground, framework, families, walk=None):
        lanes, sizes = family_lanes(ground, framework, families, walk)
        return (lanes + probe if tuple(families) == ("cluster-u",) else lanes), sizes

    monkeypatch.setattr(verify, "_family_lanes", spliced)
    report = relaxation_comparison(G3)
    leaked = [p for p in sorted(census_characteristic_set(G3)) if p[0] > 0]
    assert report.passed is False
    assert report.counts["leaked"] == len(leaked) == 6
    assert report.witnesses == [
        {"kind": "nonspecific_point_outside_cluster_relaxation", "point": list(p)}
        for p in leaked
    ]


def test_relaxation_comparison_names_a_cluster_function_not_supermodular(monkeypatch):
    monkeypatch.setattr(verify, "is_supermodular", lambda m: False)
    report = relaxation_comparison(G3)
    assert report.passed is False
    assert report.witnesses == [
        {"kind": "cluster_function_not_supermodular", "set": G3.subset_key(c)}
        for c in p2_masks(G3)
    ]


def test_relaxation_comparison_names_a_failed_strictness_witness(monkeypatch):
    strictness_witness = verify._strictness_witness_n3

    def weakened(ground):
        alt, satisfies_cluster, _ = strictness_witness(ground)
        return alt, satisfies_cluster, False

    monkeypatch.setattr(verify, "_strictness_witness_n3", weakened)
    report = relaxation_comparison(G3)
    info = {
        "vector": "u(T) = (-1)^|T|",
        "satisfies_all_cluster_rows": True,
        "violates_a_nonspecific_row": False,
    }
    assert report.passed is False
    assert report.witnesses == [{"kind": "strictness_witness_failed", **info}]
    assert report.payload == {"strictness_witness": info}


# ---------------------------------------------------------------------------
# bundled reference checks


def test_reference_constants_shape():
    assert len(IMAGE_TYPES_N3) == 14
    assert len(FACET_TYPES_N3) == 7
    assert len(VERTEX_TYPES_N3) == 8
    assert all(len(t) == 4 for t in IMAGE_TYPES_N3)


def test_image_check():
    report = example5_image_check()
    assert report.passed
    assert report.counts["image_types"] == 14


def test_fractional_check():
    report = example8_fractional_check()
    assert report.passed
    assert report.counts["integer_points"] == 11


# each reference check is broken in one datum or helper: it must fail and
# name the broken part in its witnesses


def test_image_check_names_a_dropped_and_an_unreached_type(monkeypatch):
    monkeypatch.setattr(verify, "IMAGE_TYPES_N3", IMAGE_TYPES_N3[1:] + ((3, 0, 0, 0),))
    report = example5_image_check()
    assert report.passed is False
    assert report.witnesses == [
        {"kind": "unexpected_image_type", "point": [0, 0, 0, 0]},
        {"kind": "missing_image_type", "point": [3, 0, 0, 0]},
    ]


def test_image_check_names_a_violated_facet(monkeypatch):
    # c(ab) <= 1 cuts every image point with c(ab) = 2 (and its permuted
    # rows those with c(ac) or c(bc) = 2)
    monkeypatch.setattr(verify, "FACET_TYPES_N3", FACET_TYPES_N3 + (((-1, 0, 0, 0), 1),))
    report = example5_image_check()
    assert report.passed is False
    assert report.witnesses
    for witness in report.witnesses:
        assert witness["kind"] == "image_point_violates_facet"
        *coeffs, const = witness["row"]
        assert sorted(coeffs) == [-1, 0, 0, 0] and coeffs[3] == 0 and const == 1
        assert witness["point"][coeffs.index(-1)] == 2
    assert {(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)} <= {
        tuple(w["point"]) for w in report.witnesses
    }


def test_image_check_names_an_unreached_and_a_flat_vertex(monkeypatch):
    # no digraph code reaches c(ab) = 3; (1, 0, 0, 0) is an image point, the
    # midpoint of two vertices, with tight rows of rank 3
    monkeypatch.setattr(verify, "VERTEX_TYPES_N3", VERTEX_TYPES_N3 + ((3, 0, 0, 0), (1, 0, 0, 0)))
    report = example5_image_check()
    assert report.passed is False
    assert report.witnesses == [
        {"kind": "vertex_not_in_image", "point": [3, 0, 0, 0]},
        {"kind": "vertex_tight_rank_not_full", "point": [1, 0, 0, 0], "rank": 3},
    ]


def test_image_check_names_a_missing_midpoint(monkeypatch):
    # the digraphs whose image is (1, 0, 0, 0) itself are dropped; its
    # permutations keep the type in the image
    digraphs = verify.enumerate_digraphs
    quasi_characteristic_of = verify.quasi_characteristic_of

    def without_midpoint(ground):
        for g in digraphs(ground):
            if quasi_characteristic_of(g).values != (1, 0, 0, 0):
                yield g

    monkeypatch.setattr(verify, "enumerate_digraphs", without_midpoint)
    report = example5_image_check()
    assert report.passed is False
    assert report.witnesses == [{"kind": "midpoint_identity_failed"}]


def test_example_5_prints_its_witness(capsys, monkeypatch):
    monkeypatch.setattr(verify, "IMAGE_TYPES_N3", IMAGE_TYPES_N3[1:])
    code = main(["example", "--id", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False
    assert report["witnesses"] == [{"kind": "unexpected_image_type", "point": [0, 0, 0, 0]}]


def test_fractional_check_names_a_violated_row(monkeypatch):
    # a probe row c(abc) <= 1 added to the system fails at c(abc) = 3/2
    assemble_system = verify.assemble_system
    probe = _c_row(G3, ((3, 1),), "<=", 1, "probe")

    def with_probe(ground, framework, families):
        system = assemble_system(ground, framework, families)
        return ConstraintSystem(ground, framework, system.rows + (probe,))

    monkeypatch.setattr(verify, "assemble_system", with_probe)
    report = example8_fractional_check()
    assert report.passed is False
    assert report.witnesses == [{"kind": "fractional_point_violates_row", "row": "probe"}]


def test_fractional_check_names_an_integer_scan_mismatch(monkeypatch):
    # the kappa-specific rows alone hold at more than the 11 census points
    scan = verify.lattice_scan

    def without_cluster_rows(ground, framework, families, box):
        return scan(ground, framework, ("kappa-specific",), box)

    monkeypatch.setattr(verify, "lattice_scan", without_cluster_rows)
    report = example8_fractional_check()
    assert report.passed is False
    (witness,) = report.witnesses
    assert witness["kind"] == "integer_scan_mismatch"
    assert witness["counts"]["satisfying"] > 11
    assert report.counts["integer_points"] == witness["counts"]["satisfying"]


@pytest.mark.parametrize("example_id", range(1, 9))
def test_run_example_passes(example_id):
    report = run_example(example_id)
    assert report.passed, report.witnesses


def test_run_example_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_example(9)
    with pytest.raises(ValueError):
        run_example(0)
