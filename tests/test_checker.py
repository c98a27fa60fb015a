"""The integer checker behind every classical-cost oracle (``checker.py``).

Claims covered:
    - it loads in a fresh interpreter in which ``entwit`` cannot be
      imported, and loads no module of entwit and none outside the standard
      library
    - the neighbour table it reads from a ray file is the partner masks of
      the channel entwit builds, on all five ray files
    - its own maximum independent set, found by plain recursion, is as
      large as channel-info's independence number on all five ray files
      (5 on the bundled set and its three variants, 8 on the 18-ray set)
    - on each of the 15 sets with one basis dropped (6 from the bundled set,
      9 from the 18-ray set), "independence number below q" agrees with
      verify-ks's verdict on the traversal property; each of them fails it,
      and the two whole sets, also checked, hold it
    - on sampled tables of the bundled set, at every t in 4..10 and three
      prices k, its cost equals that of ``bench/indep.py``, the benchmark's
      own checker, which shares no code with it
"""

import importlib.util
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from checker import Channel, Instance
from entwit.channel import build_ks_channel
from entwit.cli import main
from entwit.ks import load_basis_set
from helpers import BUNDLED_RAYS, CABELLO_SET, UNITARY_SET, partners

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
RAY_FILES = {
    "bundled": BUNDLED_RAYS,
    "cabello": CABELLO_SET,
    "unitary": UNITARY_SET,
    "imaginary": DATA / "ks_imaginary_vector.json",
    "rational": DATA / "ks_rational_entries.json",
}


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


@pytest.mark.parametrize("path", list(RAY_FILES.values()), ids=list(RAY_FILES))
def test_neighbour_table_from_rays_is_the_built_channel(path):
    table = Channel.from_rays(path)
    channel = build_ks_channel(load_basis_set(path))
    assert (channel.d, len(channel.masks)) == (table.d, len(table.neighbours))
    assert [partners(mask) for mask in channel.masks] == list(map(list, table.neighbours))


def _report(capsys, *argv):
    """(exit code, {field: value}) of a report on stdout."""
    code = main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    return code, dict(line.split(": ", 1) for line in lines)


@pytest.mark.parametrize(
    "name, alpha", [("bundled", 5), ("cabello", 8), ("unitary", 5), ("imaginary", 5), ("rational", 5)]
)
def test_independent_set_is_as_large_as_channel_infos(capsys, name, alpha):
    table = Channel.from_rays(RAY_FILES[name])
    found = table.independent_set()
    assert all(b not in table.neighbours[a] for a in found for b in found)
    _code, report = _report(capsys, "channel-info", "--ks-set", str(RAY_FILES[name]))
    assert len(found) == int(report["independence-number"]) == alpha


@pytest.mark.parametrize(
    "name, m",
    [("bundled", m) for m in (None, *range(6))] + [("cabello", m) for m in (None, *range(9))],
)
def test_independence_below_q_is_the_traversal_property(tmp_path, capsys, name, m):
    # a traversal, one vector per basis, is an independent set of size q
    # exactly when no two of its vectors are orthogonal, and no independent
    # set holds two vectors of one basis, so the property holds iff alpha < q
    data = json.loads(Path(RAY_FILES[name]).read_text(encoding="utf-8"))
    if m is not None:
        del data["bases"][m]
        data["q"] -= 1
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    alpha = len(Channel.from_rays(path).independent_set())
    code, report = _report(capsys, "verify-ks", "--ks-set", str(path))
    assert report["ks-property"] == ("holds" if code == 0 else "fails")
    assert (alpha < data["q"]) == (report["ks-property"] == "holds") == (m is None)


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
