"""The correctness gates hold under ``python -O``, which strips ``assert``.

No check the program relies on may be an ``assert``.  The one test here
starts one ``python -O`` interpreter on this file, which refuses to go on
unless asserts are stripped and then runs the tests named in ``OPTIMIZED``
with pytest.  pytest rewrites the asserts of test modules into explicit
raises, so those tests still check under ``-O``; only the asserts of the
program and of the helper modules are gone.
"""

import re
import sys
from pathlib import Path

# no test module may be imported here: the child would import it before
# pytest rewrites asserts, and its asserts would be stripped
from helpers import run_python

TESTS = Path(__file__).resolve().parent

# every golden report, the unitary-set reports, the unitary set's
# re-derivation and the perturbed set; the help and usage exits of main; and
# the search re-check, the decode gate, the k*d^2 ceiling, the encoder
# probability and outcome gates and the channel check of make_instance
OPTIMIZED = (
    "test_golden.py",
    "test_cli.py::test_parser_errors_and_help_match_the_full_parser",
    "test_control.py::test_channel_with_a_row_that_is_not_uniform_rejected",
    "test_control.py::test_search_mismatch_gate_raises",
    "test_control.py::test_quantum_decode_gate_raises",
    "test_control.py::test_quantum_ceiling_gate_raises",
    "test_control.py::test_quantum_encoder_probability_gate_raises",
    "test_control.py::test_quantum_encoder_outcome_gate_raises",
)


def test_the_gates_and_reports_hold_under_python_O():
    proc = run_python("-O", __file__)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # 33 tests in test_golden.py, 15 parser exits, the channel check, the
    # search and ceiling gates, the decode gate's 2 cases and the encoder
    # probability and outcome gates' 4 each, so a renamed or deselected case
    # fails here
    assert re.search(r"^61 passed\b", proc.stdout, re.MULTILINE), proc.stdout


if __name__ == "__main__":
    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    import pytest

    # no cache plugin, so the child leaves the parent run's last-failed record alone
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *(str(TESTS / t) for t in OPTIMIZED)]))
