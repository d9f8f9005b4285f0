"""Golden CLI corpus: every case in golden/cases.json replays one command line
and must reproduce its recorded stdout byte for byte and its exit code.  Cases
that exit 2 also pin the one `error:` line on stderr.  The corpus itself is
linted: every recording names a case, every input file is read by one, and
every refusal pins its error line.

Run this file as a script to record the stdout of each case that has no
golden/<name>.out file yet; existing files are never rewritten, so a change
in output shows up as a failing test, not as a new recording.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from imsetpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def replay(case):
    # input files are named relative to the corpus directory, where the
    # command runs, so an error line that names one reads the same anywhere
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"].split())
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case):
    code, out, err = replay(case)
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert code == case["exit"]
    assert out == expected
    errors = [line for line in err.splitlines() if not line.startswith("elapsed ")]
    assert errors == ([case["error"]] if "error" in case else [])


def test_every_recording_names_a_case():
    names = {case["name"] for case in CASES}
    assert sorted(p.stem for p in GOLDEN.glob("*.out") if p.stem not in names) == []


def test_every_input_file_is_read_by_a_case():
    read = {a for case in CASES for a in case["argv"].split() if a.startswith("inputs/")}
    files = {p.relative_to(GOLDEN).as_posix() for p in (GOLDEN / "inputs").rglob("*")}
    assert sorted(files - read) == []


def test_every_refusal_pins_its_error_line():
    refusals = [case for case in CASES if case["exit"] == 2]
    assert refusals
    assert [c["name"] for c in refusals if not c.get("error", "").startswith("error: ")] == []


if __name__ == "__main__":
    for case in CASES:
        path = GOLDEN / f"{case['name']}.out"
        if not path.exists():
            code, out, _ = replay(case)
            path.write_text(out, encoding="utf-8")
            print(f"recorded {case['name']} (exit {code})", file=sys.stderr)
