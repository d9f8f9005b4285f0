"""Verification experiments: structure census, lattice-point scans of the
constraint systems, relaxation comparisons, and the bundled reference checks
for the three-variable case.

Every experiment returns a VerificationReport whose canonical JSON form is
byte-identical across runs with equal parameters and seed (timing is kept on
the object but left out of the serialization).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import prod

from .constraint import (
    _C_TWINS,
    LinearConstraint,
    _family_builders,
    _family_rows,
    _integer_row,
    assemble_system,
    cluster_constraint_u,
    cluster_supermodular,
    char_specific_constraint,
    eta_system,
    is_supermodular,
    kappa_coefficients,
    specific_constraint,
)
from .digraph import (
    DirectedGraph,
    _dag_count,
    _super_terminal_table,
    _unpack_counts,
    enumerate_digraphs,
    is_acyclic,
)
from .encode import StandardImset, eta_of, quasi_characteristic_of
from .exactlin import _row_rank
from .setfam import (
    Antichain,
    GroundSet,
    _json_text,
    _submasks,
    bits_of,
    enumerate_antichains,
    eta_pairs,
    p2_index,
    p2_masks,
    walk_antichains,
)

SCAN_BUDGET = 3_000_000  # coordinate values the scan search may try
PAYLOAD_LIST_CAP = 512


def _payload_list(items, convert):
    """The sorted items, each passed through convert, as a payload list; past
    PAYLOAD_LIST_CAP items {"count": k, "omitted": True} instead, with no
    item converted."""
    if len(items) > PAYLOAD_LIST_CAP:
        return {"count": len(items), "omitted": True}
    return [convert(x) for x in sorted(items)]


@dataclass
class VerificationReport:
    """Outcome record of one experiment.

    payload holds bulky result data (point lists and similar); a list that
    would pass PAYLOAD_LIST_CAP is built as its count (_payload_list), so
    reports stay small and deterministic.
    """

    experiment: str
    parameters: dict
    counts: dict
    witnesses: list
    passed: bool
    wall_time_s: float = 0.0
    payload: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "counts": self.counts,
            "witnesses": self.witnesses,
            "passed": self.passed,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


@dataclass(frozen=True)
class EnumerationBox:
    """Componentwise integer bounds for characteristic coordinates, aligned
    with the ascending list of subsets having >= 2 members."""

    ground: GroundSet
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        masks = p2_masks(self.ground)
        lower = tuple(self.lower)
        upper = tuple(self.upper)
        if len(lower) != len(masks) or len(upper) != len(masks):
            raise ValueError(f"box needs {len(masks)} bound pairs")
        for x in lower + upper:
            if type(x) is not int:
                raise ValueError(f"box bounds must be ints, got {x!r}")
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise ValueError("box has an empty coordinate range")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def default(cls, ground: GroundSet) -> "EnumerationBox":
        """Implied bounds 0 <= c(S) <= 2^(|S|-2)."""
        masks = p2_masks(ground)
        return cls(
            ground,
            tuple(0 for _ in masks),
            tuple(2 ** (m.bit_count() - 2) for m in masks),
        )

    @classmethod
    def zero_one(cls, ground: GroundSet) -> "EnumerationBox":
        masks = p2_masks(ground)
        return cls(ground, tuple(0 for _ in masks), tuple(1 for _ in masks))

    def volume(self) -> int:
        return prod(hi - lo + 1 for lo, hi in zip(self.lower, self.upper))

    def points(self):
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper)]
        return product(*ranges)

    def to_param_dict(self) -> dict:
        keys = [self.ground.subset_key(m) for m in p2_masks(self.ground)]
        return {
            k: [lo, hi] for k, lo, hi in zip(keys, self.lower, self.upper)
        }


# ---------------------------------------------------------------------------
# census


def _census_data(ground: GroundSet) -> frozenset[int]:
    """The set of distinct packed characteristic imsets of the DAGs (see
    digraph._super_terminal_table), by one pass over the node subsets W,
    ascending, that lists no DAG.  The set is unordered: a reader that needs
    an order sorts it (packed ints sort like their tuples).

    Removing a sink v from a DAG on W changes no set without v, and a set
    containing v reads table[v][pa(v)]; a sink with any parents p in W - v
    added to a DAG on W - v gives a DAG on W.  So, from Classes({}) = {0},
    Classes(W) = union over v in W of {c + table[v][p] : c in Classes(W - v),
    p in W - v}.
    """
    table = _super_terminal_table(ground)
    classes = {0: frozenset([0])}
    for w in range(1, ground.full_mask + 1):
        # one frozenset straight from the lists: a set copied into one would
        # hold both at once, the largest memory cost of the n = 6 census
        classes[w] = frozenset(
            chain.from_iterable(
                [c + t for c in classes[w ^ 1 << v]]
                for v in bits_of(w)
                for t in map(table[v].__getitem__, _submasks(w ^ 1 << v))
            )
        )
    return classes[ground.full_mask]


def census_characteristic_set(ground: GroundSet) -> frozenset[tuple[int, ...]]:
    """All distinct characteristic tuples of acyclic digraphs (coordinates in
    ascending order of subsets with >= 2 members)."""
    return frozenset(_unpack_counts(ground, v) for v in _census_data(ground))


def census_equivalence_classes(ground: GroundSet) -> VerificationReport:
    """Count acyclic digraphs and their equivalence classes (distinct
    characteristic imsets).

    payload["class_points"] lists the classes' characteristic tuples, sorted,
    for n <= 4; past PAYLOAD_LIST_CAP classes (8 782 at n = 5, 1 067 825 at
    n = 6) it holds {"count": ..., "omitted": True}.  census_characteristic_set
    returns every tuple.
    """
    t0 = time.perf_counter()
    classes = _census_data(ground)
    report = VerificationReport(
        experiment="census",
        parameters={"n": ground.n, "labels": list(ground.labels)},
        counts={"dags": _dag_count(ground.n), "classes": len(classes)},
        witnesses=[],
        passed=True,
        payload={
            "coordinates": [ground.subset_key(m) for m in p2_masks(ground)],
            "class_points": _payload_list(classes, partial(_unpack_counts, ground)),
        },
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# compiled row evaluation


def _compile_rows(ground: GroundSet, family: str, rows):
    """Compile 'c' rows to lanes (a, r, tag), each reading
    sum of a[k] c_k >= r  with integer a, keyed by index into the ascending
    list of subsets with >= 2 members, and integer r, and count the rows.
    A '<=' row is negated, an '=' row gives both halves, and a row with
    rational entries is scaled to integers once (constraint._integer_row).
    Each lane is tagged family:<the part of its row's tag after ':'>.
    Lanes follow the rows' order, read once, a row's lanes adjacent, so the
    first violated lane at a point names the first violated row.  A row of
    another framework is refused, and so is a key outside the coordinates,
    with the row's tag; a 'u' row reaches lanes through its c twin
    (_family_lanes).  Returns the lanes and the number of rows.
    """
    index = p2_index(ground)
    lanes = []
    count = 0
    for count, row in enumerate(rows, 1):
        if row.framework != "c":
            raise ValueError(f"lanes compile from 'c' rows only, not {row.framework!r} rows")
        if not row.coeffs.keys() <= index.keys():
            raise ValueError(f"row {row.tag!r} has a key outside the 'c' coordinates")
        entries, rhs = _integer_row(row)
        terms = {index[m]: v for m, v in entries.items()}
        tag = f"{family}:{row.tag.partition(':')[2]}"
        if row.sense != "<=":
            lanes.append((terms, rhs, tag))
        if row.sense != ">=":
            lanes.append(({k: -v for k, v in terms.items()}, -rhs, tag))
    return lanes, count


def _family_lanes(ground: GroundSet, framework: str, families, walk=None):
    """The lanes (_compile_rows) of the rows of assemble_system(ground,
    framework, families), in the same order and with the same refusals, and
    the number of rows of each family, keyed by family.

    A 'u' family takes the rows of its c twin (constraint._C_TWINS), which
    are its own rows pulled back, and a 'c' family its own rows; either way
    each tag is given the family's name.  walk picks the antichains of the
    specific rows, as for specific_rows.  Every family's refusal is raised
    before any row is built.
    """
    parts = [
        (family, _C_TWINS[family](ground, walk) if framework == "u" else build(ground))
        for family, build in _family_builders(framework, families)
    ]
    lanes = []
    sizes = {}
    for family, rows in parts:
        family_lanes, sizes[family] = _compile_rows(ground, family, rows)
        lanes += family_lanes
    return lanes, sizes


def _first_violation(lanes, vector):
    for a, r, tag in lanes:
        if sum(v * vector[k] for k, v in a.items()) < r:
            return tag
    return None


def _lane_width(lanes, reach) -> int:
    """The width w, a whole number of bytes, of lanes that hold
    sum of a[k] x[k] - r + 2^(w-1) inside [0, 2^w) for every lane (a, r) of
    lanes at every point x with |x[k]| <= reach[k]."""
    bound = max(
        (sum(abs(v) * reach[k] for k, v in a.items()) + abs(r) for a, r, _tag in lanes),
        default=0,
    )
    return 8 * ((bound.bit_length() + 8) // 8)


def _pack_lanes(lanes, reach):
    """Pack lanes so that one big-int sum checks all of them.

    Returns (const, coeffs, high).  At a point x with |x[k]| <= reach[k],
    the int  total = const + sum of coeffs[k] * x[k]  holds, in its w-bit
    lane i, the value  sum of a[k] x[k] - r + 2^(w-1).  The width w
    (_lane_width) keeps that value inside [0, 2^w), so the borrows of
    negative coefficients are all paid back and the lanes read exactly: lane
    i holds when its high bit is set, and every lane holds when
    total & high == high.  coeffs[k] is the sum of a[k] << (i * w) over the
    lanes i whose a has the key k.
    """
    width = _lane_width(lanes, reach)
    bias = 1 << (width - 1)
    const = high = 0
    coeffs: dict[int, int] = {}
    get = coeffs.get
    for i, (a, r, _tag) in enumerate(lanes):
        shift = i * width
        const += (bias - r) << shift
        high |= bias << shift
        for k, v in a.items():
            coeffs[k] = get(k, 0) + (v << shift)
    return const, coeffs, high


def _satisfying_points(lanes, box: EnumerationBox, found=None):
    """The box points satisfying every compiled lane, by depth-first search,
    each passed to found.add; found (a new set by default) is returned.

    Coordinates are fixed in the order (|S|, mask), and each lane is attached
    at the depth of its last coordinate in that order.  A node checks only
    its attached lanes, all at once packed into one int, for each value of
    its coordinate; a value that fails a lane is pruned with its whole
    subtree.  Term-free lanes attach at depth 0.  The search refuses once it
    has tried more than SCAN_BUDGET coordinate values in all.
    """
    masks = p2_masks(box.ground)
    order = sorted(range(len(masks)), key=lambda k: (masks[k].bit_count(), masks[k]))
    depth_of = {k: d for d, k in enumerate(order)}
    reach = [max(-lo, hi) for lo, hi in zip(box.lower, box.upper)]
    attached = [[] for _ in order]
    for lane in lanes:
        depth = max((depth_of[k] for k in lane[0]), default=0)
        attached[depth].append(lane)
    # per depth: coordinate, its range, packed earlier coordinates, packed own
    # coefficients, constant and high bits
    plan = []
    for d, group in enumerate(attached):
        k = order[d]
        const, coeffs, high = _pack_lanes(group, reach)
        own = coeffs.pop(k, 0)
        plan.append((k, box.lower[k], box.upper[k], coeffs.items(), own, const, high))
    point = [0] * len(masks)
    if found is None:
        found = set()
    add = found.add
    leaf = len(order) - 1
    tried = 0

    def visit(d: int) -> None:
        nonlocal tried
        k, lo, hi, earlier, own, total, high = plan[d]
        tried += hi - lo + 1
        if tried > SCAN_BUDGET:
            raise ValueError(
                f"scan search passed its budget of {SCAN_BUDGET} coordinate "
                "values tried; narrow the families or the box"
            )
        for j, packed in earlier:
            total += point[j] * packed
        total += lo * own
        for v in range(lo, hi + 1):
            if total & high == high:
                point[k] = v
                if d == leaf:
                    add(tuple(point))
                else:
                    visit(d + 1)
            total += own

    visit(0)
    return found


class _ScanTally:
    """What lattice_scan keeps of the satisfying points, which may run to
    millions before the budget refusal: the census hits, the number of the
    other points (extras), and the extras themselves while there are at most
    PAYLOAD_LIST_CAP of them, else a list holding the 16 smallest."""

    def __init__(self, census: frozenset[tuple[int, ...]]):
        self.census = census
        self.hits: set[tuple[int, ...]] = set()
        self.extra = 0
        self.kept: list[tuple[int, ...]] = []

    def add(self, point: tuple[int, ...]) -> None:
        if point in self.census:
            self.hits.add(point)
        else:
            self.extra += 1
            self.kept.append(point)
            if len(self.kept) > PAYLOAD_LIST_CAP:
                self.kept.sort()
                del self.kept[16:]


# ---------------------------------------------------------------------------
# lattice scans


def lattice_scan(
    ground: GroundSet,
    framework: str,
    families,
    box: EnumerationBox,
) -> VerificationReport:
    """Find the integer characteristic points of the box satisfying every
    requested row, by a pruned depth-first search (_satisfying_points).

    Points are built in characteristic coordinates, and 'u' rows are read
    there (_family_lanes), so every point stands for the standard
    imset u = Moebius(1 - c), which satisfies the standardization equalities
    by construction.  The budget bounds the coordinate values the search
    tries, not the box volume.  The scan passes when the satisfying set
    equals the census set.
    """
    t0 = time.perf_counter()
    if framework not in ("u", "c"):
        raise ValueError("lattice scans run over the 'u' or 'c' framework")
    if ground.n >= 6:
        raise ValueError("lattice scans are limited to n <= 5")
    if box.ground != ground:
        raise ValueError("box ground set does not match")
    lanes, sizes = _family_lanes(ground, framework, families)
    census = census_characteristic_set(ground)
    tally = _satisfying_points(lanes, box, _ScanTally(census))
    hits = tally.hits
    satisfying = len(hits) + tally.extra
    missing = sorted(census - hits)
    witnesses = [
        {"kind": "satisfies_rows_but_not_a_structure", "point": list(p)}
        for p in sorted(tally.kept)[:16]
    ] + [
        {"kind": "structure_outside_scan_set", "point": list(p)}
        for p in missing[:16]
    ]
    report = VerificationReport(
        experiment="lattice-scan",
        parameters={
            "n": ground.n,
            "labels": list(ground.labels),
            "framework": framework,
            "families": list(families),
            "box": box.to_param_dict(),
            # kept so that recorded scan reports stay byte-identical
            "rays": None,
        },
        counts={
            "box_points": box.volume(),
            "rows": sum(sizes.values()),
            "satisfying": satisfying,
            "census_classes": len(census),
            "intersection": len(hits),
            "extra": tally.extra,
            "missing": len(missing),
        },
        witnesses=witnesses,
        passed=not tally.extra and not missing,
        payload={
            "coordinates": [ground.subset_key(m) for m in p2_masks(ground)],
            # every extra is kept while the points fit under the cap
            "satisfying_points": (
                _payload_list(hits.union(tally.kept), list)
                if satisfying <= PAYLOAD_LIST_CAP
                else {"count": satisfying, "omitted": True}
            ),
        },
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


def soundness_check(
    ground: GroundSet,
    specific_sample: int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Check that every census structure satisfies every generated u row.

    The rows are, in this order, the equality rows, the specific rows of
    walk, the cluster-u rows and, at n <= 4, the nonspecific rows, read in
    characteristic coordinates (_family_lanes).  walk is the whole antichain
    walk by default (7 579 antichains at n = 5), whose rows are built down
    the recursion itself; given an int specific_sample smaller than the walk
    at n = 5, it is a sample of that many of its antichains, drawn with
    seed, each row folded from its antichain's own sets.
    The "rays" parameter counts the nonspecific rows; at n = 5 that family
    is refused, and "rays" is null.  The census is bit-sliced, one int per
    coordinate with one lane per structure, so each row is evaluated once
    over all structures; a failing structure is then named with its first
    violated row in the order above.
    """
    t0 = time.perf_counter()
    # walk None: every specific row, built down the antichain recursion
    walk = None
    if specific_sample is not None and ground.n >= 5:
        antichains = list(walk_antichains(ground))
        if len(antichains) > specific_sample:
            walk = random.Random(seed).sample(antichains, specific_sample)
    families = ("equality", "specific", "cluster-u") + (("nonspecific",) if ground.n <= 4 else ())
    lanes, sizes = _family_lanes(ground, "u", families, walk)
    # the census bit-sliced: sliced[k] holds coordinate k (byte k of the
    # packed sum) of every structure, one w-bit lane each in sorted order,
    # which fixes the witness order and the structures checked
    classes = sorted(_census_data(ground))
    size = len(p2_masks(ground))
    data = b"".join([v.to_bytes(size, "big") for v in classes])
    columns = [data[k::size] for k in range(size)]
    width = _lane_width(lanes, [max(column) for column in columns])
    step = width // 8
    buf = bytearray(len(classes) * step)

    def widen(column: bytes) -> int:
        buf[0::step] = column
        return int.from_bytes(buf, "little")

    sliced = [widen(column) for column in columns]
    ones = widen(bytes([1]) * len(classes))
    bias = 1 << (width - 1)
    # each lane row once over the whole census: a structure's lane holds
    # sum of a[k] c_k - r + bias, in [0, 2^w), and the row holds there when
    # the lane's high bit is set; held keeps the bits set in every total
    held = -1
    for a, r, _tag in lanes:
        total = (bias - r) * ones
        for k, v in a.items():
            total += v * sliced[k]
        held &= total
    failed = ~held & bias * ones
    # name the first violated row at the first 16 failing structures, and
    # count the structures up to the 16th as checked
    witnesses = []
    checked = len(classes)
    while failed and len(witnesses) < 16:
        low = failed & -failed
        failed ^= low
        i = low.bit_length() // width - 1
        point = _unpack_counts(ground, classes[i])
        tag = _first_violation(lanes, point)
        witnesses.append({"kind": "row_violated", "row": tag, "point": list(point)})
        if len(witnesses) == 16:
            checked = i + 1
    report = VerificationReport(
        experiment="census-soundness",
        parameters={
            "n": ground.n,
            "labels": list(ground.labels),
            "specific_rows": "all" if walk is None else "sampled",
            "specific_sample": sizes["specific"],
            "seed": seed,
            "rays": sizes.get("nonspecific"),
        },
        counts={"structures": checked, "rows": sum(sizes.values())},
        witnesses=witnesses,
        passed=not witnesses,
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# relaxation comparison


def _strictness_witness_n3(ground: GroundSet) -> tuple[StandardImset, bool, bool]:
    """The n = 3 witness u(T) = (-1)^|T|, whether it satisfies every cluster-u
    row, and whether it violates a nonspecific row of the builtin rays."""
    alt = StandardImset(ground, tuple((-1) ** t.bit_count() for t in range(1 << ground.n)))
    cluster, nonspec = (
        all(row.holds_at(alt.values) for row in _family_rows(ground, "u", (family,)))
        for family in ("cluster-u", "nonspecific")
    )
    return alt, cluster, not nonspec


def relaxation_comparison(
    ground: GroundSet, box: EnumerationBox | None = None
) -> VerificationReport:
    """Compare the lattice sets of two relaxations over a box (n <= 4):

    every point satisfying {equality, specific, nonspecific} must satisfy
    {equality, specific, cluster-u}.  Also certifies that every cluster
    function is standardized supermodular, and for n = 3 that the designated
    strictness witness u(T) = (-1)^|T| separates the cluster family from the
    nonspecific one.
    """
    t0 = time.perf_counter()
    if ground.n > 4:
        raise ValueError("relaxation comparison is limited to n <= 4")
    if box is None:
        box = EnumerationBox.default(ground)
    elif box.ground != ground:
        raise ValueError("box ground set does not match")
    shared = _family_lanes(ground, "u", ("equality", "specific"))[0]
    set_a, set_b = (
        _satisfying_points(shared + _family_lanes(ground, "u", (family,))[0], box)
        for family in ("nonspecific", "cluster-u")
    )
    leaked = sorted(set_a - set_b)
    witnesses = [
        {"kind": "nonspecific_point_outside_cluster_relaxation", "point": list(p)}
        for p in leaked[:16]
    ]
    cluster_ok = True
    for c in p2_masks(ground):
        m = cluster_supermodular(ground, c)
        if not (m.is_standardized() and is_supermodular(m)):
            cluster_ok = False
            witnesses.append(
                {"kind": "cluster_function_not_supermodular", "set": ground.subset_key(c)}
            )
    witness_ok = True
    witness_info = None
    if ground.n == 3:
        _, satisfies_cluster, violates_nonspecific = _strictness_witness_n3(ground)
        witness_ok = satisfies_cluster and violates_nonspecific
        witness_info = {
            "vector": "u(T) = (-1)^|T|",
            "satisfies_all_cluster_rows": satisfies_cluster,
            "violates_a_nonspecific_row": violates_nonspecific,
        }
        if not witness_ok:
            witnesses.append({"kind": "strictness_witness_failed", **witness_info})
    passed = not leaked and cluster_ok and witness_ok
    report = VerificationReport(
        experiment="relaxation-comparison",
        parameters={
            "n": ground.n,
            "labels": list(ground.labels),
            "box": box.to_param_dict(),
        },
        counts={
            "nonspecific_relaxation_points": len(set_a),
            "cluster_relaxation_points": len(set_b),
            "census_classes": len(_census_data(ground)),
            "leaked": len(leaked),
        },
        witnesses=witnesses,
        passed=passed,
        payload={} if witness_info is None else {"strictness_witness": witness_info},
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# three-variable reference checks

# image types of all digraph codes under the characteristic transform,
# coordinates ordered (ab, ac, bc, abc), first three sorted descending
IMAGE_TYPES_N3 = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (2, 0, 0, 0),
    (2, 1, 0, 0),
    (1, 1, 0, 0),
    (1, 1, 1, 0),
    (1, 1, 0, 1),
    (2, 1, 0, 1),
    (2, 2, 0, 1),
    (1, 1, 1, 1),
    (2, 1, 1, 1),
    (2, 1, 1, 2),
    (2, 2, 1, 2),
    (2, 2, 2, 3),
)

# facet types of the convex hull of the image, one row per type:
# (coefficients on (ab, ac, bc, abc), constant term); rows read
# 0 <= constant + coefficients . c
FACET_TYPES_N3 = (
    ((1, 0, 0, 0), 0),
    ((-1, 0, 0, 0), 2),
    ((-1, -1, -1, 1), 3),
    ((0, 0, 0, 1), 0),
    ((1, 0, 0, -1), 1),
    ((1, 1, 0, -1), 0),
    ((1, 1, 1, -2), 0),
)

# vertex types of the polyhedron carved out by the facet rows
VERTEX_TYPES_N3 = (
    (0, 0, 0, 0),
    (2, 0, 0, 0),
    (2, 1, 0, 0),
    (1, 1, 0, 1),
    (2, 1, 0, 1),
    (2, 2, 0, 1),
    (2, 1, 1, 2),
    (2, 2, 2, 3),
)


def _canonical_image(point: tuple[int, ...]) -> tuple[int, ...]:
    head = tuple(sorted(point[:3], reverse=True))
    return head + (point[3],)


def _expand_facets_n3():
    """All distinct rows obtained by permuting the three pair coordinates of
    each facet type."""
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    rows = set()
    for coeffs, const in FACET_TYPES_N3:
        for perm in perms:
            permuted = tuple(coeffs[perm.index(k)] for k in range(3)) + (coeffs[3],)
            rows.add((permuted, const))
    return sorted(rows)


def example5_image_check() -> VerificationReport:
    """Check the image of all 64 digraph codes under the characteristic
    transform at n = 3 against the reference vertex and facet lists.

    Verifies: the permutation-reduced image equals the 14 reference types;
    every image point satisfies every expanded facet row; each reference
    vertex is an image point whose tight rows have rank 4; and [1,0,0,0] is
    the midpoint of [0,0,0,0] and [2,0,0,0].  The expanded row count is
    recorded in the report.
    """
    t0 = time.perf_counter()
    ground = GroundSet.of_size(3)
    images = set()
    digraphs = 0
    for digraphs, g in enumerate(enumerate_digraphs(ground), start=1):
        images.add(quasi_characteristic_of(g).values)
    reduced = {_canonical_image(p) for p in images}
    witnesses = []
    ok_types = reduced == set(IMAGE_TYPES_N3)
    if not ok_types:
        for p in sorted(reduced - set(IMAGE_TYPES_N3))[:8]:
            witnesses.append({"kind": "unexpected_image_type", "point": list(p)})
        for p in sorted(set(IMAGE_TYPES_N3) - reduced)[:8]:
            witnesses.append({"kind": "missing_image_type", "point": list(p)})
    rows = _expand_facets_n3()
    ok_rows = True
    for point in sorted(images):
        for coeffs, const in rows:
            if const + sum(a * b for a, b in zip(coeffs, point)) < 0:
                ok_rows = False
                witnesses.append(
                    {
                        "kind": "image_point_violates_facet",
                        "point": list(point),
                        "row": list(coeffs) + [const],
                    }
                )
    ok_vertices = True
    for vertex in VERTEX_TYPES_N3:
        if vertex not in images:
            ok_vertices = False
            witnesses.append({"kind": "vertex_not_in_image", "point": list(vertex)})
            continue
        tight = [
            coeffs
            for coeffs, const in rows
            if const + sum(a * b for a, b in zip(coeffs, vertex)) == 0
        ]
        if _row_rank(tight) != 4:
            ok_vertices = False
            witnesses.append(
                {
                    "kind": "vertex_tight_rank_not_full",
                    "point": list(vertex),
                    "rank": _row_rank(tight),
                }
            )
    midpoint = tuple(
        Fraction(a + b, 2) for a, b in zip((0, 0, 0, 0), (2, 0, 0, 0))
    )
    ok_midpoint = midpoint == (1, 0, 0, 0) and (1, 0, 0, 0) in images
    if not ok_midpoint:
        witnesses.append({"kind": "midpoint_identity_failed"})
    report = VerificationReport(
        experiment="image-of-digraph-codes",
        parameters={"n": 3, "labels": list(ground.labels)},
        counts={
            "digraphs": digraphs,
            "distinct_images": len(images),
            "image_types": len(reduced),
            "expanded_rows": len(rows),
            "vertex_types": len(VERTEX_TYPES_N3),
        },
        witnesses=witnesses,
        passed=ok_types and ok_rows and ok_vertices and ok_midpoint,
        payload={
            "image_types": [list(p) for p in sorted(reduced)],
            "expanded_rows": [list(c) + [k] for c, k in rows],
        },
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


def example8_fractional_check() -> VerificationReport:
    """Check the fractional-vertex phenomenon at n = 3.

    The point (1, 1, 1, 3/2) satisfies every kappa-specific and every
    cluster row over characteristic coordinates, violates the translated
    nonspecific row c(abc) <= 1, and is the midpoint of [2,2,2,3] and
    [0,0,0,0]; the integer points of the same system over the default box
    are exactly the 11 census structures.
    """
    t0 = time.perf_counter()
    ground = GroundSet.of_size(3)
    full = ground.full_mask
    point = {m: Fraction(1) for m in p2_masks(ground)}
    point[full] = Fraction(3, 2)
    witnesses = []
    rows = assemble_system(ground, "c", ("kappa-specific", "cluster-c")).rows
    ok_rows = True
    for row in rows:
        if not row.holds_at(point):
            ok_rows = False
            witnesses.append({"kind": "fractional_point_violates_row", "row": row.tag})
    translated = LinearConstraint("c", {full: 1}, "<=", 1, "nonspecific-translated:abc")
    ok_cut = not translated.holds_at(point)
    if not ok_cut:
        witnesses.append({"kind": "translated_row_fails_to_cut"})
    segment = tuple(
        Fraction(1, 2) * a + Fraction(1, 2) * b
        for a, b in zip((2, 2, 2, 3), (0, 0, 0, 0))
    )
    target = tuple(point[m] for m in p2_masks(ground))
    ok_segment = segment == target
    if not ok_segment:
        witnesses.append({"kind": "segment_identity_failed"})
    scan = lattice_scan(
        ground,
        "c",
        ("kappa-specific", "cluster-c"),
        EnumerationBox.default(ground),
    )
    ok_scan = scan.passed and scan.counts["satisfying"] == 11
    if not ok_scan:
        witnesses.append({"kind": "integer_scan_mismatch", "counts": scan.counts})
    report = VerificationReport(
        experiment="fractional-vertex-check",
        parameters={"n": 3, "labels": list(ground.labels)},
        counts={
            "rows": len(rows),
            "integer_points": scan.counts["satisfying"],
            "census_classes": scan.counts["census_classes"],
        },
        witnesses=witnesses,
        passed=ok_rows and ok_cut and ok_segment and ok_scan,
        payload={"fractional_point": [str(point[m]) for m in p2_masks(ground)]},
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# bundled reference examples 1..8


def _example_graph(ground: GroundSet) -> DirectedGraph:
    # two-cycle between a and b, plus an arrow from c into b
    return DirectedGraph.from_edges(ground, [("a", "b"), ("b", "a"), ("c", "b")])


def _report(name: str, params: dict, checks: dict, payload: dict | None = None):
    witnesses = [{"kind": "check_failed", "check": k} for k, v in checks.items() if not v]
    return VerificationReport(
        experiment=name,
        parameters=params,
        counts={"checks": len(checks)},
        witnesses=witnesses,
        passed=not witnesses,
        payload=payload or {},
    )


def _example_1() -> VerificationReport:
    ground = GroundSet.of_size(3)
    g = _example_graph(ground)
    eta = eta_of(g)
    expected = {("a", "b"), ("b", "a,c"), ("c", "∅")}
    ones = {
        tuple(ground.pair_key(i, b).split("|"))
        for (i, b), v in zip(eta_pairs(ground), eta.values)
        if v == 1
    }
    checks = {
        "graph_is_cyclic": not is_acyclic(g),
        "eta_has_exactly_three_ones": sum(eta.values) == 3 and set(eta.values) <= {0, 1},
        "eta_support_matches": ones == expected,
    }
    return _report(
        "example-1", {"n": 3, "graph": g.to_json_dict()}, checks, {"eta": eta.to_json_dict()}
    )


def _example_2() -> VerificationReport:
    ground = GroundSet.of_size(3)
    system = eta_system(ground)
    by_family = {"nonneg": 0, "equality": 0, "cluster": 0}
    for row in system:
        by_family[row.tag.split(":")[0]] += 1
    pair_ab = next(r for r in system if r.tag == "cluster:ab")
    pair_abc = next(r for r in system if r.tag == "cluster:abc")
    a, b, c = 0, 1, 2
    expected_ab = {(a, 0): 1, (a, 1 << c): 1, (b, 0): 1, (b, 1 << c): 1}
    expected_abc = {(a, 0): 1, (b, 0): 1, (c, 0): 1}
    agree = all(
        system.satisfied_by(dict(zip(eta_pairs(ground), eta_of(g).values))) == is_acyclic(g)
        for g in enumerate_digraphs(ground)
    )
    checks = {
        "twelve_nonneg_rows": by_family["nonneg"] == 12,
        "three_equality_rows": by_family["equality"] == 3,
        "four_cluster_rows": by_family["cluster"] == 4,
        "cluster_ab_row_matches": dict(pair_ab.coeffs) == expected_ab
        and pair_ab.sense == ">="
        and pair_ab.rhs == 1,
        "cluster_abc_row_matches": dict(pair_abc.coeffs) == expected_abc,
        "system_characterizes_acyclicity_on_codes": agree,
    }
    return _report("example-2", {"n": 3}, checks)


def _example_3() -> VerificationReport:
    ground = GroundSet.of_size(3)
    row = specific_constraint(Antichain(ground, (3, 5, 6)))
    nonspec = assemble_system(ground, "u", ("nonspecific",))
    has_abc_row = any(
        dict(r.coeffs) == {7: 1} and r.sense == ">=" and r.rhs == 0 for r in nonspec
    )
    checks = {
        "four_equality_rows": len(assemble_system(ground, "u", ("equality",))) == 4,
        "eighteen_specific_classes": len(list(enumerate_antichains(ground))) == 18,
        "pairs_row_matches": dict(row.coeffs) == {3: 1, 5: 1, 6: 1, 7: 1}
        and row.sense == "<="
        and row.rhs == 1,
        "five_nonspecific_rows": len(nonspec) == 5,
        "abc_nonneg_row_present": has_abc_row,
        "all_structures_satisfy_inequalities": soundness_check(ground).passed,
    }
    return _report("example-3", {"n": 3}, checks)


def _example_4() -> VerificationReport:
    ground = GroundSet.of_size(3)
    g = _example_graph(ground)
    c = quasi_characteristic_of(g)
    checks = {
        "values_match": c.values == (2, 0, 1, 1),
        "cyclic_code_leaves_unit_range": not all(0 <= v <= 1 for v in c.values),
        "acyclic_codes_stay_in_unit_range": all(
            set(point) <= {0, 1} for point in census_characteristic_set(ground)
        ),
    }
    return _report(
        "example-4",
        {"n": 3, "graph": g.to_json_dict()},
        checks,
        {"characteristic": c.to_json_dict()},
    )


def _example_6() -> VerificationReport:
    ground = GroundSet.of_size(3)
    checks = {}
    tables = {}
    for name, sets, expected_kappa, expected_row in _KAPPA_CASES_N3:
        antichain = Antichain(ground, sets)
        kappa = kappa_coefficients(antichain)
        got = {ground.tag_key(m): v for m, v in kappa.entries}
        tables[name] = got
        row = char_specific_constraint(antichain)
        got_row = (
            {ground.tag_key(m): int(v) for m, v in row.coeffs.items()},
            str(row.rhs),
            row.is_vacuous,
        )
        checks[f"kappa_table_{name}"] = got == expected_kappa
        checks[f"row_{name}"] = got_row == expected_row
    return _report("example-6", {"n": 3}, checks, {"kappa_tables": tables})


def _example_7() -> VerificationReport:
    ground = GroundSet.of_size(3)
    row_ab = cluster_constraint_u(ground, 3)
    row_abc = cluster_constraint_u(ground, 7)
    alt, satisfies_cluster, violates_nonspecific = _strictness_witness_n3(ground)
    checks = {
        "row_ab_matches": dict(row_ab.coeffs) == {3: 1, 7: 1}
        and row_ab.sense == ">="
        and row_ab.rhs == 0,
        "row_abc_matches": dict(row_abc.coeffs) == {3: 1, 5: 1, 6: 1, 7: 2},
        "witness_satisfies_cluster_rows": satisfies_cluster,
        "witness_violates_nonspecific_row": violates_nonspecific,
        "witness_is_standardized": alt.is_standardized(),
    }
    return _report("example-7", {"n": 3}, checks)


_EXAMPLES = dict(enumerate((
    _example_1, _example_2, _example_3, _example_4,
    example5_image_check, _example_6, _example_7, example8_fractional_check,
), start=1))


def run_example(example_id: int) -> VerificationReport:
    """Run one of the bundled three-variable reference checks (1..8)."""
    if example_id not in _EXAMPLES:
        raise ValueError("example id must lie in 1..8")
    t0 = time.perf_counter()
    report = _EXAMPLES[example_id]()
    report.wall_time_s = time.perf_counter() - t0
    return report


# kappa tables for the eight reference antichain types at n = 3:
# (name, member masks, expected kappa table, (row coeffs, rhs, vacuous))
_KAPPA_CASES_N3 = (
    ("abc", (7,), {"abc": 1}, ({"abc": 1}, "0", False)),
    ("ab", (3,), {"ab": 1}, ({"ab": 1}, "0", False)),
    (
        "ab_ac",
        (3, 5),
        {"ab": 1, "ac": 1, "abc": -1},
        ({"ab": 1, "ac": 1, "abc": -1}, "0", False),
    ),
    (
        "ab_ac_bc",
        (3, 5, 6),
        {"ab": 1, "ac": 1, "bc": 1, "abc": -2},
        ({"ab": 1, "ac": 1, "bc": 1, "abc": -2}, "0", False),
    ),
    ("c", (4,), {"c": 1}, ({}, "-1", True)),
    (
        "c_ab",
        (4, 3),
        {"c": 1, "ab": 1, "abc": -1},
        ({"ab": 1, "abc": -1}, "-1", False),
    ),
    ("a_b", (1, 2), {"a": 1, "b": 1, "ab": -1}, ({"ab": -1}, "-2", False)),
    (
        "a_b_c",
        (1, 2, 4),
        {"a": 1, "b": 1, "c": 1, "ab": -1, "ac": -1, "bc": -1, "abc": 1},
        ({"ab": -1, "ac": -1, "bc": -1, "abc": 1}, "-3", False),
    ),
)
