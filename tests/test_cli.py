"""Command-line interface: exit codes, output formats, and file round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from imsetpoly import cli
from imsetpoly.cli import main
from imsetpoly.constraint import ConeViolationError, ConstraintSystem, y_of_class
from imsetpoly.exactlin import (
    IntMatrix,
    build_matrix_A,
    is_totally_unimodular_small,
    is_unimodular_full_row_rank,
)
from imsetpoly.setfam import Antichain, GroundSet

G3 = GroundSet.of_size(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


CYCLIC_GRAPH = {"labels": ["a", "b", "c"], "edges": [["a", "b"], ["b", "a"], ["c", "b"]]}
DAG_GRAPH = {"labels": ["a", "b", "c"], "edges": [["a", "b"], ["c", "b"]]}


# ---------------------------------------------------------------------------
# experiment drivers


def test_census_command(capsys):
    code, data, err = run_json(capsys, "census", "--n", "3")
    assert code == 0
    assert data["counts"] == {"dags": 25, "classes": 11}
    assert "elapsed" in err


def test_package_runs_as_a_module(capsys, monkeypatch):
    # python -m imsetpoly is the console script, reading sys.argv: a line the
    # census parser takes runs, and one it refuses reads as the census parser
    # words it
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def module_run(*argv):
        argv = [sys.executable, "-m", "imsetpoly", *argv]
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    proc = module_run("census", "--n", "3")
    code, out, _ = run(capsys, "census", "--n", "3")
    assert proc.returncode == code == 0
    assert proc.stdout == out
    proc = module_run("census", "--n", "x")
    with pytest.raises(SystemExit) as exc:
        cli._command_parser("census").parse_args(["--n", "x"])
    assert proc.returncode == exc.value.code == 2
    assert (proc.stdout, proc.stderr) == ("", capsys.readouterr().err)


def test_scan_command(capsys):
    code, data, _ = run_json(
        capsys, "scan", "--n", "3", "--framework", "u", "--box", "01",
        "--families", "equality,specific,nonspecific",
    )
    assert code == 0
    assert data["counts"]["satisfying"] == 11


def test_scan_default_families_c(capsys):
    code, data, _ = run_json(capsys, "scan", "--n", "3", "--framework", "c")
    assert code == 0
    assert data["parameters"]["families"] == ["kappa-specific", "cluster-c"]


def test_scan_weak_families_exit_one(capsys):
    code, data, _ = run_json(
        capsys, "scan", "--n", "3", "--framework", "c", "--families", "cluster-c"
    )
    assert code == 1
    assert data["passed"] is False and data["witnesses"]


def test_scan_unknown_family_exit_two(capsys):
    code, out, err = run(
        capsys, "scan", "--n", "3", "--framework", "u", "--families", "bogus"
    )
    assert code == 2 and out == "" and "error:" in err


def test_rays_takes_no_long_run(capsys):
    # computed rays stop at n = 4, and no flag lifts that limit
    with pytest.raises(SystemExit) as exc:
        main(["rays", "--n", "5", "--method", "dd", "--long-run"])
    assert exc.value.code == 2


def test_scan_takes_no_long_run(capsys):
    # the scan budget counts the values the search tries, and no flag lifts it
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--n", "3", "--framework", "c", "--long-run"])
    assert exc.value.code == 2


def test_compare_relaxations_command(capsys):
    code, data, _ = run_json(capsys, "compare-relaxations", "--n", "3")
    assert code == 0 and data["counts"]["leaked"] == 0


def test_example_command(capsys):
    for example_id in range(1, 9):
        code, data, _ = run_json(capsys, "example", "--id", str(example_id))
        assert code == 0 and data["passed"] is True


def test_example_rejects_out_of_range_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "--id", "9"])
    assert exc.value.code == 2


def test_out_file_round_trip(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "census", "--n", "3", "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["counts"]["classes"] == 11


def test_rays_out_writes_what_stdout_prints(capsys, tmp_path):
    path = tmp_path / "rays.json"
    code, printed, _ = run(capsys, "rays", "--n", "4", "--method", "dd")
    assert code == 0 and len(json.loads(printed)) == 37
    code, out, _ = run(capsys, "rays", "--n", "4", "--method", "dd", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == printed.encode("utf-8")


# ---------------------------------------------------------------------------
# encoders


def test_encode_eta_of_cyclic_graph(capsys, tmp_path):
    graph = write_json(tmp_path / "g.json", CYCLIC_GRAPH)
    code, data, _ = run_json(capsys, "encode", "--graph", graph, "--as", "eta")
    assert code == 0
    assert data["acyclic"] is False
    assert data["entries"] == {"a|b": 1, "b|a,c": 1, "c|∅": 1}


def test_encode_standard_rejects_cyclic_graph(capsys, tmp_path):
    graph = write_json(tmp_path / "g.json", CYCLIC_GRAPH)
    code, out, err = run(capsys, "encode", "--graph", graph, "--as", "standard")
    assert code == 2 and "error:" in err


def test_encode_characteristic(capsys, tmp_path):
    graph = write_json(tmp_path / "g.json", DAG_GRAPH)
    code, data, _ = run_json(capsys, "encode", "--graph", graph, "--as", "characteristic")
    assert code == 0 and data["acyclic"] is True
    assert data["entries"] == {"a,b": 1, "b,c": 1, "a,b,c": 1}


def test_encode_missing_file(capsys, tmp_path):
    code, out, err = run(
        capsys, "encode", "--graph", str(tmp_path / "absent.json"), "--as", "eta"
    )
    assert code == 2 and "error:" in err


def test_transform_chain(capsys, tmp_path):
    graph = write_json(tmp_path / "g.json", DAG_GRAPH)
    eta_path = str(tmp_path / "eta.json")
    code, _, _ = run(capsys, "encode", "--graph", graph, "--as", "eta", "--out", eta_path)
    assert code == 0
    code, data, _ = run_json(
        capsys, "transform", "--from", "eta", "--to", "c", "--in", eta_path
    )
    assert code == 0 and data["kind"] == "characteristic"
    assert data["entries"] == {"a,b": 1, "b,c": 1, "a,b,c": 1}
    code, data, _ = run_json(capsys, "transform", "--to", "u", "--in", eta_path)
    assert code == 0 and data["kind"] == "standard"


def test_transform_kind_mismatch(capsys, tmp_path):
    graph = write_json(tmp_path / "g.json", DAG_GRAPH)
    u_path = str(tmp_path / "u.json")
    code, _, _ = run(
        capsys, "encode", "--graph", graph, "--as", "standard", "--out", u_path
    )
    assert code == 0
    code, out, err = run(
        capsys, "transform", "--from", "eta", "--to", "c", "--in", u_path
    )
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "transform", "--to", "eta", "--in", u_path)
    assert code == 2 and "does not determine" in err


def test_json_decimals_read_exactly(capsys, tmp_path):
    path = tmp_path / "c.json"
    head = '{"labels": ["a", "b", "c"], "kind": "characteristic", "entries": '
    path.write_text(head + '{"a,b": 1.0, "a,c": 1e2, "b,c": 2E+0}}', encoding="utf-8")
    code, data, _ = run_json(capsys, "transform", "--to", "c", "--in", str(path))
    assert code == 0 and data["entries"] == {"a,b": 1, "a,c": 100, "b,c": 2}
    path.write_text(head + '{"a,b": 1.7}}', encoding="utf-8")
    code, _, err = run(capsys, "transform", "--to", "c", "--in", str(path))
    assert code == 2 and "must be an integer, got 1.7\n" in err
    # a decimal is the rational it writes, down to the last exponent a double had
    path = tmp_path / "y.json"
    head = '{"labels": ["a", "b"], "entries": '
    for scale, one, two in ((10, "0.1", "0.2"), (10**308, "1e-308", "2E-308")):
        entries = '{"a": %s, "b": %s, "a,b": %s}}' % (one, one, two)
        path.write_text(head + entries, encoding="utf-8")
        code, data, _ = run_json(capsys, "decompose", "--y", str(path))
        assert code == 0 and data["reconstruction_exact"]
        assert sorted(t["weight"] for t in data["terms"]) == [f"1/{scale}", f"3/{scale}"]
    for text in ("1e309", "1.5e-309", "1e0000400", "1e99999999999999999999"):
        path.write_text(head + '{"a": %s}}' % text, encoding="utf-8")
        code, out, err = run(capsys, "decompose", "--y", str(path))
        assert code == 2 and out == ""
        assert f"error: JSON number {text} has an exponent outside ±308\n" in err


def test_digit_limit_is_the_interpreters(tmp_path):
    # the JSON check, the weight check and the output check read the limit
    # the interpreter runs under; 0 means no limit
    src = Path(cli.__file__).parents[1]
    path = tmp_path / "input.json"

    def run_under(limit, text, *argv):
        path.write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS=str(limit))
        argv = [sys.executable, "-m", "imsetpoly.cli", *argv, str(path)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("elapsed ")]
        return proc.returncode, errors

    def decompose(limit, entries):
        text = '{"labels": ["a", "b"], "entries": %s}' % entries
        return run_under(limit, text, "decompose", "--y")

    def transform(limit, digits):
        # u sums three of the four equal entries on the full set
        entries = ", ".join(f'"{k}": {"9" * digits}' for k in ("a,b", "a,c", "b,c", "a,b,c"))
        text = '{"labels": ["a", "b", "c"], "kind": "characteristic", "entries": {%s}}' % entries
        return run_under(limit, text, "transform", "--to", "u", "--in")

    assert decompose(640, '{"a": %s}' % ("1" * 640)) == (0, [])
    assert decompose(640, '{"a": %s}' % ("1" * 1000)) == (
        2,
        ["error: JSON number 11111111111111111111… has 1000 digits, more than 640"],
    )
    assert decompose(640, '{"a": %s, "b": 1e-308, "a,b": 1e-308}' % ("9" * 640)) == (
        2,
        ["error: the weight of class a has more than 640 digits, "
         "past the interpreter's limit for writing an int"],
    )
    assert decompose(0, '{"a": %s}' % ("1" * 5000)) == (0, [])
    assert transform(640, 639) == (0, [])
    assert transform(640, 640) == (
        2,
        ["error: the output holds an integer of more than 640 digits, "
         "past the interpreter's limit for writing an int"],
    )
    assert transform(0, 640) == (0, [])


# ---------------------------------------------------------------------------
# constraint and matrix catalogs


def test_constraints_json(capsys):
    code, data, _ = run_json(capsys, "constraints", "--n", "3", "--framework", "c")
    assert code == 0
    assert len(data["rows"]) == 22


def test_constraints_lp(capsys):
    code, out, _ = run(
        capsys, "constraints", "--n", "3", "--framework", "eta", "--format", "lp"
    )
    assert code == 0
    assert "Subject To" in out and "cluster_abc:" in out


# sha256 of the stdout of the two n = 5 catalogs (7 579 specific-type rows
# each), recorded before their rows were built from the mask-level walk
N5_CATALOG_DIGESTS = {
    "constraints --n 5 --framework c":
        "9f299e296cc01149140cd96b0db03cf3972fc730acf713a67ef33b4dd4e08da9",
    "constraints --n 5 --framework u --families equality,specific,cluster-u":
        "18e93bdba96b9c5ef8a585672b06c4c7a2b6026c1b7f549e3135a481c978e826",
}
# sha256 of the LP export of the n = 5 c catalog, recorded while its variable
# names and term signs were still computed afresh for every coefficient
N5_CATALOG_DIGESTS["constraints --n 5 --framework c --format lp"] = (
    "265ad3b2b97d662c008df5165763b9b3aaf595049eab3e30a4808c8d711a80b0"
)
# sha256 of the LP export of the n = 5 u catalog, recorded while the u rows'
# coefficient dicts were still built in ascending mask order
N5_CATALOG_DIGESTS[
    "constraints --n 5 --framework u --families equality,specific,cluster-u --format lp"
] = "8dbf0f49c8dbc574780a7986bafd92d3be598cd4dae9e960b499480a87ff5dd2"


@pytest.mark.parametrize("command", sorted(N5_CATALOG_DIGESTS))
def test_n5_catalog_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == N5_CATALOG_DIGESTS[command]


def test_json_catalog_is_written_without_a_system(capsys, monkeypatch):
    # both formats are written from the family builders' rows as they are
    # read: no ConstraintSystem is built, so one that refuses to be built
    # changes no byte of either
    golden = Path(__file__).parent / "golden"

    def refuse(self):
        raise AssertionError("ConstraintSystem built")

    monkeypatch.setattr(ConstraintSystem, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="^ConstraintSystem built$"):
        ConstraintSystem(G3, "c", ())
    for n, fmt in (("3", "lp"), ("4", "json")):
        for framework in ("c", "u"):
            argv = ["constraints", "--n", n, "--framework", framework, "--format", fmt]
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            recorded = golden / f"constraints-n{n}-{framework}-{fmt}.out"
            assert out == recorded.read_text(encoding="utf-8"), argv


class _ListStdout:
    """A stdout that keeps each written str as it is.  io.StringIO copies
    the text into a buffer of its own on CPython 3.12 and later (about 2.5
    bytes a character), which a peak reading would count as the program's."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def test_n5_catalog_peak_memory_is_a_few_times_its_text():
    # the n = 5 u catalog is about 3.0 M characters, one of them '∅', so the
    # joined text is stored at 2 bytes a character (about 6 MB) next to its
    # row parts (about 3 MB) at the join: 3.3 times the length, the walk's
    # state and the key tables included.  4.5 times leaves a third of that
    # as headroom.  A writer that holds every row, ranks the keys in a pass
    # of its own and copies the text again peaks near 7.6 times the length.
    # The LP exports are ASCII, one byte a character, and written as one
    # list of lines joined once: about 3.5 (c) and 3.1 (u) times the length,
    # under a bound of 6.  An export that holds the system of its rows and
    # copies the joined text again peaks near 10.6 (c) and 9.2 (u) times
    u_argv = "constraints --n 5 --framework u --families equality,specific,cluster-u".split()
    c_argv = "constraints --n 5 --framework c".split()
    cases = ((u_argv, 4.5), (c_argv + ["--format", "lp"], 6), (u_argv + ["--format", "lp"], 6))
    for argv, bound in cases:
        for traced in (False, True):
            # the first run fills the package's caches, which stay for later runs
            out = _ListStdout()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if traced:
                    tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        length = sum(map(len, out.parts))
        assert peak < bound * length, (argv, peak, length)


def test_matrix_json_and_csv(capsys):
    code, data, _ = run_json(capsys, "matrix", "--which", "D", "--n", "3")
    assert code == 0
    assert len(data["entries"]) == 7 and data["row_labels"][0] == "a"
    code, out, _ = run(capsys, "matrix", "--which", "D", "--n", "3", "--csv")
    assert code == 0
    assert out.splitlines()[0].startswith(',"a"')


def test_matrix_checks(capsys):
    code, data, _ = run_json(
        capsys, "matrix", "--which", "A", "--n", "3", "--check", "hnf"
    )
    assert code == 0 and data["detail"]["identity_then_zero_columns"] is True
    code, data, _ = run_json(
        capsys, "matrix", "--which", "A", "--n", "3", "--check", "unimodular"
    )
    assert code == 0 and data["detail"]["minors_checked"] == 792
    code, data, _ = run_json(
        capsys, "matrix", "--which", "A", "--n", "3", "--check", "tu"
    )
    assert code == 1 and abs(data["detail"]["witness_det"]) >= 2
    code, data, _ = run_json(
        capsys, "matrix", "--which", "C", "--n", "3", "--check", "products"
    )
    assert code == 0
    assert data["detail"] == {
        "B_equals_C_times_A": True,
        "C_times_D_is_identity": True,
    }
    code, data, _ = run_json(
        capsys, "matrix", "--which", "E", "--n", "3", "--check", "products"
    )
    assert code == 0
    assert data["detail"] == {"columns_have_one_plus_and_one_minus": True}


def test_verdict_check_prints_a_witness_only_when_set():
    # no catalog matrix has a unimodularity witness, so a 1 x 2 one stands in
    m = IntMatrix(((1, 2),), ("r",), ("x", "y"))
    assert cli._verdict_check(is_unimodular_full_row_rank(m)) == (False, {
        "mode": "exhaustive",
        "unimodular": False,
        "minors_checked": 2,
        "witness_cols": [1],
        "witness_det": 2,
    })
    assert cli._verdict_check(is_totally_unimodular_small(m)) == (False, {
        "totally_unimodular": False,
        "minors_checked": 2,
        "witness_rows": [0],
        "witness_cols": [1],
        "witness_det": 2,
    })
    # a clean sampled scan certifies nothing, and says so with null
    clean = is_unimodular_full_row_rank(build_matrix_A(G3), mode="sampled", samples=5)
    assert cli._verdict_check(clean) == (True, {
        "mode": "sampled",
        "unimodular": None,
        "minors_checked": 5,
    })


# ---------------------------------------------------------------------------
# dual-cone decomposition


def test_decompose_in_cone(capsys, tmp_path):
    y = y_of_class(Antichain(G3, (3, 5)))
    path = write_json(tmp_path / "y.json", y.to_json_dict())
    code, data, _ = run_json(capsys, "decompose", "--y", path)
    assert code == 0
    assert data["in_cone"] is True and data["reconstruction_exact"] is True
    assert data["terms"] == [{"class": "ab,ac", "weight": "1"}]


def test_decompose_outside_cone(capsys, tmp_path):
    path = write_json(
        tmp_path / "y.json",
        {"labels": ["a", "b", "c"], "entries": {"a": "-1"}},
    )
    code, data, _ = run_json(capsys, "decompose", "--y", path)
    assert code == 1 and data == {
        "in_cone": False,
        "terms": [],
        "violation": {"condition": "singleton", "set": "a"},
    }


@pytest.mark.parametrize(
    "entries, violation",
    [
        ({"a": "1/2", "a,b": "-1"}, {"condition": "pair", "set": "a,b", "variable": "a"}),
        ({"b": "1", "a,b": "-1"}, {"condition": "pair", "set": "a,b", "variable": "a"}),
        ({"a": "1", "a,b": "-1"}, {"condition": "pair", "set": "a,b", "variable": "b"}),
        (
            {"a": "1", "a,c": "1"},
            {"condition": "general", "set": "a,b,c", "variable": "b"},
        ),
    ],
)
def test_decompose_names_the_first_violated_condition(capsys, tmp_path, entries, violation):
    path = write_json(tmp_path / "y.json", {"labels": ["a", "b", "c"], "entries": entries})
    code, data, _ = run_json(capsys, "decompose", "--y", path)
    assert code == 1 and data["violation"] == violation


def test_runtime_error_exits_two_with_one_line(capsys, monkeypatch, tmp_path):
    # a residual leaving the cone is a program fault, not a failed
    # verification: one error line and exit 2, no traceback and no exit 1
    def broken(y):
        raise ConeViolationError("residual left the dual cone")

    monkeypatch.setattr(cli, "conic_decompose", broken)
    y = y_of_class(Antichain(G3, (3, 5)))
    path = write_json(tmp_path / "y.json", y.to_json_dict())
    code, out, err = run(capsys, "decompose", "--y", path)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if not line.startswith("elapsed ")]
    assert errors == ["error: residual left the dual cone"]


# ---------------------------------------------------------------------------
# the parsers, and the README against them

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
GOLDEN_CASES = json.loads(
    (Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8")
)


def test_readme_usage_lines_parse():
    lines = [line for line in README.splitlines() if line.startswith("imsetpoly ")]
    assert len(lines) >= 13
    argvs = [shlex.split(line, comments=True)[1:] for line in lines]
    argvs += [case["argv"].split() for case in GOLDEN_CASES]
    parser = cli.build_parser()
    for argv in argvs:
        # parse only: nothing runs
        args = parser.parse_args(argv)
        assert callable(args.func), argv
        # main parses the line with its command's parser alone, to the same
        # namespace
        alone = cli._command_parser(argv[0]).parse_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        assert alone == args, argv


# the refused lines whose command's parser words the refusal differently from
# the full parser: the full parser would show its own usage, listing every
# command; the value is what the refusal names
UNRECOGNIZED = {
    "census --n 3 extra": "extra",
    "scan --n 3 --framework u --bogus 1": "--bogus 1",
    "rays --n 5 --method dd --long-run": "--long-run",
}


def parse_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr lines (without `elapsed`) of a parse that
    exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines(keepends=True)
    return exc.value.code, captured.out, [e for e in err if not e.startswith("elapsed ")]


@pytest.mark.parametrize(
    "line",
    [
        "",
        "nope --n 3",
        "--help",
        "census -h",
        "census --n x",
        "example --id 9",
        "scan --n 3",
        *UNRECOGNIZED,
    ],
)
def test_refusals_and_help_read_as_the_full_parser_words_them(capsys, line):
    argv = line.split()
    outcome = parse_outcome(capsys, main, argv)
    # a line with a command reads as its command's parser words it, any
    # other line as the full parser does
    if argv and argv[0] in cli.COMMANDS:
        namespace = argparse.Namespace(command=argv[0])
        own = cli._command_parser(argv[0]).parse_args
        assert outcome == parse_outcome(capsys, lambda words: own(words, namespace), argv[1:])
    if line not in UNRECOGNIZED:
        assert outcome == parse_outcome(capsys, cli.build_parser().parse_args, argv)
        return
    code, out, err = outcome
    assert (code, out) == (2, "")
    assert err[0].startswith(f"usage: imsetpoly {argv[0]} ")
    assert err[-1] == f"imsetpoly {argv[0]}: error: unrecognized arguments: {UNRECOGNIZED[line]}\n"


def test_a_well_formed_line_builds_only_its_commands_parser(capsys, monkeypatch):
    # a line whose first word names a command never reaches the full parser,
    # refused or not
    def full_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", full_parser)
    code, data, _ = run_json(capsys, "census", "--n", "3")
    assert code == 0 and data["counts"] == {"dags": 25, "classes": 11}
    for line, code in [
        ("census --n x", 2),
        ("scan --n 3 --framework u --bogus 1", 2),
        ("census -h", 0),
    ]:
        assert parse_outcome(capsys, main, line.split())[0] == code, line


def test_readme_flags_are_subcommand_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings
    }
    text = "\n".join(line for line in README.splitlines() if "pip install" not in line)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert "--out" in named
    assert sorted(named - options) == []
