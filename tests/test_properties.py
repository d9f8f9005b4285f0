"""Property tests: the encode triangle on random digraphs, the superset
zeta/Moebius pair on random vectors, the catalog text writer on random
constraint systems, and random JSON input files fed to the CLI commands that
read them.

Examples are drawn from a fixed seed (derandomize) so the suite stays
reproducible, and their number is bounded to keep the run short.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from imsetpoly.cli import main
from imsetpoly.constraint import SENSES, ConstraintSystem, LinearConstraint
from imsetpoly.digraph import DirectedGraph, is_acyclic
from imsetpoly.encode import (
    char_from_eta,
    characteristic_of,
    eta_of,
    quasi_characteristic_of,
    superset_moebius,
    superset_zeta,
    u_from_eta,
)
from imsetpoly.setfam import GroundSet

# one shrunk failure per test keeps a failing run short
PROPERTY = settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    report_multiple_bugs=False,
)


@st.composite
def digraphs(draw):
    """A loop-free digraph on 2..5 nodes; about half are drawn acyclic, by
    taking parents only among the nodes earlier in a random order."""
    n = draw(st.integers(2, 5))
    ground = GroundSet.of_size(n)
    order = draw(st.permutations(range(n)))
    acyclic = draw(st.booleans())
    parents = [0] * n
    for k, node in enumerate(order):
        allowed = order[:k] if acyclic else [j for j in range(n) if j != node]
        for j in allowed:
            if draw(st.booleans()):
                parents[node] |= 1 << j
    return DirectedGraph(ground, tuple(parents))


@PROPERTY
@given(digraphs())
def test_encode_triangle_commutes(g):
    eta = eta_of(g)
    assert quasi_characteristic_of(g) == char_from_eta(eta)
    if is_acyclic(g):
        assert characteristic_of(u_from_eta(eta)) == char_from_eta(eta)


@PROPERTY
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-50, 50), min_size=1 << n,
                                             max_size=1 << n))
))
def test_superset_moebius_inverts_zeta(case):
    n, values = case
    assert superset_moebius(superset_zeta(values, n), n) == values


# ---------------------------------------------------------------------------
# the catalog text writer against the standard library's encoder

# labels a subset or pair key can carry: quotes, backslashes, non-ASCII
# characters and inner tabs, which the JSON text must escape or keep as is;
# "z" sorts before "z y" but '"z"' after '"z y"', so keys must be sorted
# before they are quoted
TEXT_LABELS = st.lists(
    st.sampled_from(["z", "z y", 'q"', "b\\s", "é", "∅x", "t\tab", "日本"]),
    min_size=2, max_size=4, unique=True,
)
RATIONALS = st.fractions(-5, 5, max_denominator=6) | st.integers(-3, 3)


@st.composite
def constraint_systems(draw):
    """A system of up to five rows over random labels, and the JSON document
    it stands for, built here from the drawn coefficients: keys are rendered
    from the labels directly and zero coefficients left out."""
    labels = draw(TEXT_LABELS)
    framework = draw(st.sampled_from(["eta", "u", "c"]))
    n = len(labels)

    def subset(mask):
        return ",".join(sorted(labels[i] for i in range(n) if mask >> i & 1)) or "∅"

    def name(key):
        return f"{labels[key[0]]}|{subset(key[1])}" if framework == "eta" else subset(key)

    keys = st.integers(0, (1 << n) - 1)
    if framework == "eta":
        keys = st.tuples(st.integers(0, n - 1), keys).map(lambda p: (p[0], p[1] & ~(1 << p[0])))
    rows, ref_rows = [], []
    for _ in range(draw(st.integers(0, 5))):
        # an empty or all-zero table is a vacuous row
        coeffs = draw(st.dictionaries(keys, RATIONALS, max_size=6))
        sense = draw(st.sampled_from(sorted(SENSES)))
        rhs = draw(RATIONALS)
        tag = draw(st.text(st.sampled_from('ab:,"\\\té∅ -'), max_size=8))
        rows.append(LinearConstraint(framework, coeffs, sense, rhs, tag))
        ref_rows.append({
            "tag": tag,
            "coeffs": {name(k): str(Fraction(v)) for k, v in coeffs.items() if v},
            "sense": sense,
            "rhs": str(Fraction(rhs)),
        })
    system = ConstraintSystem(GroundSet(tuple(labels)), framework, tuple(rows))
    return system, {"framework": framework, "labels": labels, "rows": ref_rows}


@PROPERTY
@given(constraint_systems())
def test_catalog_text_matches_the_standard_encoder(case):
    system, ref = case
    text = json.dumps(ref, ensure_ascii=False, sort_keys=True, indent=1) + "\n"
    assert system.to_json_text() == text
    assert system.to_json_dict() == ref


def test_catalog_out_file_matches_stdout():
    for framework in ("c", "u"):
        argv = ["constraints", "--n", "4", "--framework", framework]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "catalog.json")
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--out", path]) == 0
            with open(path, "rb") as fh:
                assert fh.read() == out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# random input files: mostly well-formed documents over random labels, with
# rare bad labels, keys and values, and sometimes a field dropped or replaced
# by an arbitrary JSON value

SCALARS = (
    st.none() | st.booleans() | st.floats(allow_nan=False)
    | st.sampled_from(["1/2", "-3/2", "1/0", "abc", "2", ""])
)
ANY_JSON = st.recursive(
    SCALARS | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _rarely(valid, junk):
    """valid seven times in eight, junk otherwise."""
    return st.integers(0, 7).flatmap(lambda k: junk if k == 0 else valid)


LABELS = _rarely(
    st.lists(st.sampled_from("abcde"), min_size=2, max_size=5, unique=True),
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
)
INTEGERS = _rarely(st.integers(-2, 2), SCALARS)


def _subset_key(labels):
    members = _rarely(
        st.lists(st.sampled_from(labels), max_size=3, unique=True),
        st.lists(st.sampled_from(labels + ["z", ""]), max_size=3),
    )
    return members.map(lambda m: ",".join(m) if m else "∅")


@st.composite
def _spoiled(draw, document: dict):
    how = draw(st.sampled_from(["keep"] * 5 + ["replace", "drop", "any"]))
    if how == "any":
        return draw(ANY_JSON)
    if how != "keep":
        field = draw(st.sampled_from(sorted(document)))
        if how == "drop":
            del document[field]
        else:
            document[field] = draw(ANY_JSON)
    return document


@st.composite
def graph_files(draw):
    labels = draw(LABELS)
    ends = _rarely(st.sampled_from(labels), st.sampled_from(["z", 1]))
    edges = draw(st.lists(st.lists(ends, min_size=2, max_size=2, unique=True), max_size=6))
    return draw(_spoiled({"labels": labels, "edges": edges}))


@st.composite
def imset_files(draw):
    labels = draw(LABELS)
    kind = draw(_rarely(st.sampled_from(["eta", "standard", "characteristic"]), ANY_JSON))
    keys = _subset_key(labels)
    if kind == "eta":
        keys = st.tuples(st.sampled_from(labels), keys).map(lambda p: f"{p[0]}|{p[1]}")
    entries = draw(st.dictionaries(keys, INTEGERS, max_size=6))
    return draw(_spoiled({"labels": labels, "kind": kind, "entries": entries}))


@st.composite
def dual_files(draw):
    labels = draw(LABELS)
    values = _rarely(st.fractions(0, 3, max_denominator=4).map(str), SCALARS)
    entries = draw(st.dictionaries(_subset_key(labels), values, max_size=6))
    return draw(_spoiled({"labels": labels, "entries": entries}))


def _run(argv_head, document):
    """Exit code and stdout of the command reading document from a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv_head + [path])
    return code, out.getvalue()


@PROPERTY
@given(graph_files(), st.sampled_from(["eta", "standard", "characteristic"]))
def test_encode_input_exits_0_or_2(document, kind):
    code, _ = _run(["encode", "--as", kind, "--graph"], document)
    assert code in (0, 2)


@PROPERTY
@given(imset_files(), st.sampled_from(["eta", "u", "c"]))
def test_transform_input_exits_0_or_2(document, target):
    code, _ = _run(["transform", "--to", target, "--in"], document)
    assert code in (0, 2)


@PROPERTY
@given(dual_files())
def test_decompose_input_exits_0_or_2(document):
    code, out = _run(["decompose", "--y"], document)
    # exit 1 is the verdict on a valid vector outside the dual cone
    assert code in (0, 2) or (code == 1 and json.loads(out)["in_cone"] is False)
