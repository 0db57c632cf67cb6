"""Byte-for-byte CLI output on a fixed corpus of graph, diameter, distance,
Farey, path, simplex and Seifert invocations, every help screen, argparse
errors, and inputs invalid in two ways (which pins the order of the
checks).

`golden/cases.json` lists each invocation with its exit code (and, when
nonempty, its stderr); `golden/<name>.out` holds its stdout.  The graph,
diameter, distance and Farey files were captured from the implementation
that predates the bitset graph layer, the path and simplex files from the
one that predates the closed-form certificate layer, so any drift in the
CLI's output shows up here.  The path files whose witnesses, middle vertex
or transform changed when certificates became size-reduced were captured
again from that version, after `bench/verify.py` and the sympy oracle of
`test_certificate_oracle.py` had accepted its certificates.  The help and
argparse-error files were captured before the CLI's dispatch moved onto
the parsers, and `help-torus-simplex` again when `torus simplex` lost its
`--dim` option; argparse wraps help to $COLUMNS, so the test fixes it at 80.
`seifert-48-fibers-json` (48 fibers of 30-digit alpha) was captured from
the Smith-reduction `h1` that predates its closed form.
`simplex-finegold-repeated-class` was captured when `finegold_minors`
took the wording of `torus path` (and of `--complex surface`) for a
repeated class.
"""

import json
from pathlib import Path

import pytest

from surfcomplex.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_text()
    assert captured.err == case.get("stderr", "")
