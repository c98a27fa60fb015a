"""The correctness gates hold under ``python -O``, which strips ``assert``.

No check the program relies on may be an ``assert``: one test here finds no
``assert`` statement in the package's source, and the other starts one
``python -O`` interpreter on this file, which refuses to go on unless asserts
are stripped and then runs the tests named in ``OPTIMIZED`` with pytest.  pytest rewrites the asserts of test modules into explicit
raises, so those tests still check under ``-O``; only the asserts of the
program and of the helper modules are gone.
"""

import ast
import re
import sys
from pathlib import Path

# no test module may be imported here: the child would import it before
# pytest rewrites asserts, and its asserts would be stripped
from helpers import SRC, run_python

TESTS = Path(__file__).resolve().parent

# every golden report, the unitary-set reports, the unitary set's
# re-derivation and the perturbed set; the help and usage exits of main; and
# the search re-check, the decode gate, the k*d^2 ceiling, the encoder
# probability and outcome gates, the decoder's refusal of ids outside the
# set, wire 0 reaching row 0, a channel's refusals of malformed masks,
# rows and graph edges, of an output past the grid, and make_instance's
# refusal of a channel on another grid, the packed
# orthogonality table and the loader's refusals of a zero vector and of an
# entry that is not a [re, im] pair
OPTIMIZED = (
    "test_golden.py",
    "test_cli.py::test_parser_errors_and_help_match_the_full_parser",
    "test_channel.py::test_channel_refuses_malformed_masks",
    "test_channel.py::test_validate_rejects_malformed_rows",
    "test_channel.py::test_graph_rejects_malformed_edges",
    "test_control.py::test_channel_with_an_output_off_the_inputs_rejected",
    "test_control.py::test_channel_off_the_grid_rejected",
    "test_control.py::test_search_mismatch_gate_raises",
    "test_control.py::test_quantum_decode_gate_raises",
    "test_control.py::test_quantum_ceiling_gate_raises",
    "test_control.py::test_quantum_encoder_probability_gate_raises",
    "test_control.py::test_quantum_encoder_outcome_gate_raises",
    "test_entangled.py::test_decoder_refuses_candidates_outside_the_set",
    "test_channel.py::test_input_zero_is_an_input",
    "test_exact.py::test_packed_table_matches_pairwise_oracle",
    "test_cli.py::test_malformed_set_names_the_file[zero-vector]",
    "test_cli.py::test_malformed_set_names_the_file[string-entry]",
    "test_cli.py::test_malformed_set_names_the_file[long-entry]",
)


def test_the_package_has_no_assert_statement():
    files = sorted((SRC / "entwit").rglob("*.py"))
    assert len(files) >= 8
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _float_construct(node) -> bool:
    """A float literal, ``import math``, a ``sqrt`` imported or looked up, or
    an f-string format spec such as ``:.12g``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Import):
        return any(alias.name == "math" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "sqrt" for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "sqrt"
    if isinstance(node, ast.FormattedValue):
        return node.format_spec is not None
    return False


def test_the_package_has_no_float_construct():
    # every cost, bound and scale is exact; math.isqrt stays, being integer
    files = sorted((SRC / "entwit").rglob("*.py"))
    assert len(files) >= 8
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _float_construct(node)
    ]
    assert found == []


def test_the_gates_and_reports_hold_under_python_O():
    proc = run_python("-O", __file__)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # 35 tests in test_golden.py, 18 parser exits, the mask refusals' 4
    # cases, the self-neighbor row, the graph's 2 edges, the output past the
    # grid, the grid check, the search and ceiling gates, the decode gate's
    # 2 cases, the encoder probability gate's 4 and outcome gate's 8, the
    # decoder's 4 refused ids, wire 0, the packed table's 2, the zero
    # vector's 1 and the two entries', so a renamed or deselected case fails
    # here
    assert re.search(r"^88 passed\b", proc.stdout, re.MULTILINE), proc.stdout


if __name__ == "__main__":
    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    import pytest

    # no cache plugin, so the child leaves the parent run's last-failed record alone
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *(str(TESTS / t) for t in OPTIMIZED)]))
