"""The integer checker behind every classical-cost oracle (``checker.py``).

Claims covered:
    - it loads in a fresh interpreter in which ``entwit`` cannot be
      imported, and loads no module of entwit and none outside the standard
      library
    - the neighbour table it reads from a ray file is the channel entwit
      builds, on the bundled set and on the 18-ray set
    - on sampled tables of the bundled set, at every t in 4..10 and three
      prices k, its cost equals that of ``bench/indep.py``, the benchmark's
      own checker, which shares no code with it
"""

import importlib.util
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from checker import Channel, Instance
from entwit.channel import build_ks_channel
from entwit.ks import load_basis_set
from helpers import BUNDLED_RAYS, CABELLO_SET, neighbors

TESTS = Path(__file__).resolve().parent


def test_checker_loads_without_entwit():
    code = """
import sys
sys.modules["entwit"] = None  # any import of entwit now raises ImportError
before = set(sys.modules)
import checker
new = {name.split(".")[0] for name in set(sys.modules) - before} - {"checker"}
outside = sorted(new - set(sys.stdlib_module_names))
assert not outside, f"modules outside the standard library: {outside}"
loaded = [name for name, mod in sys.modules.items() if name.split(".")[0] == "entwit" and mod]
assert not loaded, f"entwit modules loaded: {loaded}"
"""
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=TESTS, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("path", [BUNDLED_RAYS, CABELLO_SET], ids=["bundled", "cabello"])
def test_neighbour_table_from_rays_is_the_built_channel(path):
    table = Channel.from_rays(path)
    channel = build_ks_channel(load_basis_set(path))
    d = table.d
    assert len(table.neighbours) == len(channel.inputs)
    for i, row in enumerate(table.neighbours):
        assert [divmod(n, d) for n in row] == list(neighbors(channel, divmod(i, d)))


def _bench_checker():
    """``bench/indep.py``, imported from its file under a name of its own."""
    path = TESTS.parent / "bench" / "indep.py"
    spec = importlib.util.spec_from_file_location("bench_indep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cost_matches_the_benchmark_checker(rays):
    # values in [-t, t] put wires out of form, on other messages' inputs and
    # between inputs; the benchmark's checker takes uniform messages only
    indep = _bench_checker().Instance(BUNDLED_RAYS)
    rng = random.Random(2013)
    for t in range(4, 11):
        for k in (Fraction(1), Fraction(7, 3), Fraction(1, 1000)):
            oracle = Instance(rays, t, k)
            for _ in range(4):
                values = [rng.randint(-t, t) for _ in range(oracle.q)]
                assert oracle.cost(values) == indep.cost(t, k, values), (t, k, values)
