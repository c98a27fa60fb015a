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
with one vector multiplied by i.  The four ``-cabello`` cases read the
18-ray, 9-basis set ``ks_9_4_cabello.json`` and were written by the source
as it stood when the set was added.  ``certify-k1-bound1000.txt`` (t = 634,
W = 78, 37 209 prefixes) was written by the search that scored every
out-of-form child, before a group bound ruled most of them out.  The two
``classical-search-t39-k1_1000-w3`` cases, on the bundled and the 18-ray
set, were written by the search that asked for that bound at every node,
before a node's check ruled out the later messages' out-of-form values for
its whole subtree.  The seven ``certify`` files and the three ``sweep``
files were rewritten, by deleting lines and columns only, when the square
roots printed as floats were dropped and the reduction's witness became
JSON.  Any change
to a report's bytes, or to a command's exit code, fails here; a deliberate
report change must regenerate the file in the same commit.

A unitary keeps every inner product, so the bundled rays under the
non-diagonal complex unitary of ``helpers.fixed_unitary``, committed as
``ks_6_4_unitary.json``, must print six of the golden reports apart from
their ``label:`` line (the sweep CSV has none, so it must match whole);
that runs the complex branch of every inner product through the whole
command line.  The file is re-derived from the bundled
set here, so it cannot drift, and one perturbed entry must fail
``verify-ks`` at the first pair it breaks.
"""

import json
from pathlib import Path

import pytest

from entwit.cli import main
from entwit.ks import load_basis_set
from helpers import (
    UNITARY_LABEL,
    bases_of,
    cf_dot,
    fixed_unitary,
    perturbed_unitary_json,
    rotated_set_json,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
RATIONAL_SET = str(DATA / "ks_rational_entries.json")
IMAGINARY_SET = str(DATA / "ks_imaginary_vector.json")
UNITARY_SET = str(DATA / "ks_6_4_unitary.json")
CABELLO_SET = str(DATA / "ks_9_4_cabello.json")

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
    ("verify-ks-cabello.txt", ["verify-ks", "--ks-set", CABELLO_SET], 0),
    ("channel-info-cabello.txt", ["channel-info", "--ks-set", CABELLO_SET], 0),
    ("quantum-run-t39-cabello.txt", ["quantum-run", "--t", "39", "--ks-set", CABELLO_SET], 0),
    ("certify-bound7_2-cabello.txt", ["certify", "--bound", "7/2", "--ks-set", CABELLO_SET], 0),
    ("certify-k1-bound1000.txt", ["certify", "--k", "1", "--bound", "1000"], 0),
    (
        "classical-search-t39-k1_1000-w3.txt",
        ["classical-search", "--t", "39", "--k", "1/1000", "--window", "3"],
        0,
    ),
    (
        "classical-search-t39-k1_1000-w3-cabello.txt",
        [
            "classical-search", "--t", "39", "--k", "1/1000", "--window", "3",
            "--ks-set", CABELLO_SET,
        ],
        0,
    ),
)


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# (golden file, argv): each prints that file's bytes, apart from the label
# line, on UNITARY_SET, and exits 0
UNITARY_CASES = (
    ("verify-ks.txt", ["verify-ks"]),
    ("channel-info.txt", ["channel-info"]),
    ("quantum-run-t39.txt", ["quantum-run", "--t", "39"]),
    ("certify-k1-bound7_2.txt", ["certify", "--bound", "7/2"]),
    ("classical-search-t10-w2.txt", ["classical-search", "--t", "10", "--window", "2"]),
    ("sweep-t4_8_16-w2.csv", ["sweep", "--t", "4,8,16", "--window", "2"]),
)


def unlabelled(report: bytes) -> tuple:
    """(the report without its label line, the label line); a report with
    no label line, such as a CSV, comes back whole, with None."""
    lines = report.decode().splitlines(keepends=True)
    at = [n for n, line in enumerate(lines) if line.startswith("label: ")]
    if not at:
        return "".join(lines), None
    (at,) = at
    return "".join(lines[:at] + lines[at + 1:]), lines[at]


def test_unitary_set_is_the_bundled_set_under_the_fixed_unitary(bundled):
    # regenerate with rotated_set_json(bundled, fixed_unitary(), UNITARY_LABEL)
    # if the bundled set or the unitary changes
    committed = json.loads(Path(UNITARY_SET).read_text())
    assert committed == rotated_set_json(bundled, fixed_unitary(), UNITARY_LABEL)
    assert not any(v.real for v in load_basis_set(UNITARY_SET).vectors)


@pytest.mark.parametrize("name,argv", UNITARY_CASES, ids=[c[0] for c in UNITARY_CASES])
def test_unitary_set_prints_the_golden_reports(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--ks-set", UNITARY_SET, "--out", str(out)]) == 0
    ours, label = unlabelled(out.read_bytes())
    golden, golden_label = unlabelled((GOLDEN / name).read_bytes())
    assert ours == golden
    if golden_label is None:
        assert label is None
    else:
        assert label == f"label: {UNITARY_LABEL}\n" != golden_label


def test_perturbed_unitary_set_fails_at_the_first_broken_pair(tmp_path):
    # 1/7 added to a zero imaginary part: the loader still normalizes the ray,
    # so the first violation is an orthogonality, found here by
    # ComplexFraction sums in basis order
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(perturbed_unitary_json()))
    broken = [
        (m, j, j2)
        for m, basis in enumerate(bases_of(load_basis_set(path)))
        for j in range(len(basis))
        for j2 in range(j + 1, len(basis))
        if cf_dot(basis[j], basis[j2])
    ]
    assert broken[0] == (4, 0, 3)
    out = tmp_path / "verify-ks.txt"
    assert main(["verify-ks", "--ks-set", str(path), "--out", str(out)]) == 1
    ours, _ = unlabelled(out.read_bytes())
    golden, _ = unlabelled((GOLDEN / "verify-ks.txt").read_bytes())
    head = golden.split("orthonormal:")[0]
    assert ours == head + (
        "orthonormal: fail\nfirst-violation: basis 4, vectors 0 and 3 are not orthogonal\n"
    )
