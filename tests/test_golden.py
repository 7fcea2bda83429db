"""The CLI's bytes, pinned: exit code, stdout and stderr of fixed argv lists.

Each argv list runs with ``--no-stats`` in this process through
``davkit.cli.main`` and must reproduce ``golden/cli.json`` byte for byte,
so a change that is meant to keep the output the same is checked here.
The lists are the 40 jobs of the bench's ``cli-batch`` workload and 24
more that reach the other report paths: bounds of every shape, capped
searches, classification without a match, inverse and power checks,
text and CSV output, and usage errors raised by davkit itself.  No list
ends in an argparse message, whose wording varies between Python
versions.

Run this module as a script to rewrite the file from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from davkit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

ARGVS = [
    # the cli-batch workload
    ["bounds", "[-2,3]"],
    ["bounds", "[-4,6]"],
    ["bounds", "[-2,2]^2"],
    ["bounds", "[-1,1]^3"],
    ["bounds", "[-1,2]x[-1,1]"],
    ["bounds", "C3x[-2,2]"],
    ["bounds", "--group", "C2xC4"],
    ["bounds", "--group", "C2xC2xC2"],
    ["check-minimal", "[-2,3]", "--seq", "3^2*(-2)^3"],
    ["check-minimal", "[-3,3]", "--seq", "1*2*(-3)"],
    ["check-minimal", "[-3,3]", "--seq", "1^3*(-1)^3"],
    ["check-minimal", "[-1,1]^2", "--seq", "(1,1)*(-1,1)*(0,-1)^2"],
    ["check-minimal", "[-2,2]^2", "--seq", "(2,1)*(-1,0)^2*(0,-1)"],
    ["check-minimal", "C2x[-1,1]", "--seq", "(1|1)^2*(0|-1)^2"],
    ["check-minimal", "C3x[-1,1]", "--seq", "(1|0)^3"],
    ["check-minimal", "[-2,2]", "--seq", "(a,1)"],
    ["check-minimal", "C2x[-1,1]", "--seq", "(1,1|1)*(1|-1)"],
    ["reorder", "--seq", "3^2*(-2)^3", "--seed-element", "3"],
    ["reorder", "[-5,5]", "--seq", "5^4*(-4)^5", "--seed-element", "-4"],
    ["reorder", "--seq", "(1,1)*(-1,1)*(0,-1)^2"],
    ["reorder", "--seq", "(2,1)*(-1,0)^2*(0,-1)"],
    ["classify", "--m", "3", "--seq", "3^2*(-2)^3"],
    ["classify", "--m", "3", "--seq", "(-3)^2*2^3"],
    ["classify", "--m", "3", "--seq", "3*(-1)^3"],
    ["classify", "--m", "4", "--seq", "4^2*(-3)^3*1"],
    ["classify", "--m", "3", "--seq", "1^5"],
    ["classify", "--m", "2", "--M", "3", "--seq", "3^2*(-2)^3"],
    ["construct", "--kind", "interval-max", "--m", "2", "--M", "3"],
    ["construct", "--kind", "hypercube", "--m", "2", "--d", "2"],
    ["construct", "--kind", "hypercube", "--m", "1", "--d", "3"],
    ["construct", "--kind", "group-box", "--n", "3", "--m", "2", "--d", "1"],
    ["construct", "--kind", "group-box", "--n", "2", "--m", "1", "--d", "2"],
    ["verify", "--powers"],
    ["davenport", "[-2,3]"],
    ["davenport", "C3x[-1,1]"],
    ["davenport", "[-1,1]^2"],
    ["davenport", "{-3,-1,2}"],
    ["atoms", "[-3,3]", "--length", "4"],
    ["atoms", "[-2,3]", "--length", "5"],
    ["atoms", "[-2,2]", "--length", "2"],
    # bounds of the other shapes and tags
    ["bounds", "C1x[-2,3]"],
    ["bounds", "[-6,10]"],
    ["bounds", "--group", "C2xC2xC6"],
    ["bounds", "[-1,1]x[-2,2]"],
    ["bounds", "[-2,1]x[-1,2]x[-1,1]"],
    ["bounds", "[0,3]x[-1,1]"],
    # capped searches and text output
    ["davenport", "[-3,4]", "--cap", "3"],
    ["davenport", "[-2,2]^2", "--cap", "5", "--format", "text"],
    ["davenport", "C2x[-1,1]", "--cap", "3"],
    ["davenport", "[-2,3]", "--format", "text"],
    # classification: the interval family, no match, no family
    ["classify", "--m", "3", "--M", "2", "--seq", "2^3*(-3)^2"],
    ["classify", "--m", "2", "--M", "4", "--seq", "4^2*(-2)^4"],
    ["classify", "--m", "4", "--seq", "4^3*(-3)^4"],
    ["classify", "--m", "5", "--seq", "5^3*(-3)^5"],
    ["classify", "--m", "4", "--seq", "4*(-4)*3*(-3)*2*(-2)"],
    ["classify", "--m", "3", "--seq", "1^3"],
    # inverse and power checks
    ["verify", "--inverse", "--m", "1..5"],
    ["verify", "--powers", "--format", "text"],
    # CSV atom lists, exploration, witnesses and usage errors
    ["atoms", "[-2,3]", "--length", "5", "--format", "csv"],
    ["atoms", "C2x[-1,1]", "--length", "4", "--format", "csv"],
    ["hunt-chi-gap", "--abs", "2", "--max-size", "3"],
    ["check-minimal", "--seq", "1^2*(-1)^2"],
    ["construct", "--kind", "interval-max", "--m", "2", "--M", "4"],
    ["bounds", "[-2,3]", "--format", "csv"],
]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--no-stats"])
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return {" ".join(entry["argv"]): entry for entry in json.load(f)}


def test_golden_file_holds_every_argv_list():
    assert list(_golden()) == [" ".join(argv) for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_is_pinned(argv, monkeypatch):
    monkeypatch.delenv("DAVKIT_GUARD", raising=False)
    assert _run(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    os.environ.pop("DAVKIT_GUARD", None)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump([_run(argv) for argv in ARGVS], f, indent=1)
        f.write("\n")
    print(f"wrote {len(ARGVS)} argv lists to {GOLDEN}", file=sys.stderr)
