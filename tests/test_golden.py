"""Byte-exact reports: every command's output against a committed golden file.

The files under ``tests/data/golden/`` were written by ``entwit.cli.main``
with the argument lists below (plus ``--out``), each by the source as it
stood before the refactor that the case guards: the first eleven before the
geometry and traversal code was reshaped for speed, the vacuous,
window-insufficient and budget-truncated cases before the report writers
were rebuilt on the result objects, and the four ``--ks-set`` cases before
the loader read every part as an integer pair.  Those read two sets under
``tests/data/``: the bundled rays rescaled per vector and written over
``"denominator": "2"`` with ``"p/q"`` string parts, and the bundled rays
with one vector multiplied by i.  Any change to a report's bytes, or to
a command's exit code, fails here; a deliberate report change must
regenerate the file in the same commit.
"""

from pathlib import Path

import pytest

from entwit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
RATIONAL_SET = str(DATA / "ks_rational_entries.json")
IMAGINARY_SET = str(DATA / "ks_imaginary_vector.json")

# (file name, argv, exit code)
CASES = (
    ("verify-ks.txt", ["verify-ks"], 0),
    ("channel-info.txt", ["channel-info"], 0),
    ("quantum-run-t4.txt", ["quantum-run", "--t", "4"], 0),
    ("quantum-run-t39.txt", ["quantum-run", "--t", "39"], 0),
    ("quantum-run-t1000000-k7_3.txt", ["quantum-run", "--t", "1000000", "--k", "7/3"], 0),
    ("classical-search-t10-w2.txt", ["classical-search", "--t", "10", "--window", "2"], 0),
    (
        "classical-search-t4-k1_1000-w3.txt",
        ["classical-search", "--t", "4", "--k", "1/1000", "--window", "3"],
        0,
    ),
    ("certify-k1-bound7_2.txt", ["certify", "--k", "1", "--bound", "7/2"], 0),
    ("certify-k1-bound10.txt", ["certify", "--k", "1", "--bound", "10"], 0),
    ("sweep-t4_8_16-w2.csv", ["sweep", "--t", "4,8,16", "--window", "2"], 0),
    (
        "sweep-t4_8_16-w2.txt",
        ["sweep", "--t", "4,8,16", "--window", "2", "--format", "structured-text"],
        0,
    ),
    ("certify-k1-bound3.txt", ["certify", "--k", "1", "--bound", "3"], 4),
    (
        "certify-k1-bound7_2-w3.txt",
        ["certify", "--k", "1", "--bound", "7/2", "--window", "3"],
        1,
    ),
    (
        "certify-k1-bound7_2-budget50.txt",
        ["certify", "--k", "1", "--bound", "7/2", "--budget", "50"],
        3,
    ),
    (
        "classical-search-t39-w4-budget20.txt",
        ["classical-search", "--t", "39", "--window", "4", "--budget", "20"],
        3,
    ),
    (
        "sweep-t4_39-w4-budget30.csv",
        ["sweep", "--t", "4,39", "--window", "4", "--budget", "30"],
        3,
    ),
    ("verify-ks-rational.txt", ["verify-ks", "--ks-set", RATIONAL_SET], 0),
    (
        "quantum-run-t39-rational.txt",
        ["quantum-run", "--t", "39", "--ks-set", RATIONAL_SET],
        0,
    ),
    ("verify-ks-imaginary.txt", ["verify-ks", "--ks-set", IMAGINARY_SET], 0),
    (
        "quantum-run-t39-imaginary.txt",
        ["quantum-run", "--t", "39", "--ks-set", IMAGINARY_SET],
        0,
    ),
)


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
