"""The second real basis set: 18 rays in C^4 in 9 bases, each ray in two.

The set of Cabello, Estebaranz and Garcia-Alcaine (Phys. Lett. A 212, 183
(1996)) is committed as ``tests/data/ks_9_4_cabello.json``; it is not
bundled.  Its reports are golden files (``test_golden.py``).

Claims covered:
    - the naive product-order scan, on Gaussian integer dots of the rays as
      the checker reads them, finds an orthogonal pair in all 4^9 = 262 144
      traversals, as verify_ks_property does
    - at t = 4 and 5 with W = 1, the search scores the prefixes of the
      checker's plain depth-first search, 795 and 549, and ends at its cost
      and table
    - the checker, reading the ray file, scores the table that ``certify
      --bound 7/2`` prints (t = 55, W = 6) at the printed minimum 1051/42
    - with one ray swapped for a non-orthogonal one, ``verify-ks`` exits 1
      naming the pair that raw dots in basis order find broken first, and
      the naive traversal scan refuses the set too
"""

import json
from fractions import Fraction

import pytest

from checker import Channel, Instance, orthogonal, plain_dfs
from entwit.cli import main
from entwit.control import make_instance, search_deterministic
from entwit.ks import basis_set_from_json_dict, load_basis_set, verify_ks_property
from helpers import CABELLO_SET, bases_of, naive_ks_check, ray_bases, raw_dot

GOLDEN = CABELLO_SET.parent / "golden"


@pytest.fixture(scope="module")
def cabello():
    return load_basis_set(CABELLO_SET)


@pytest.fixture(scope="module")
def table():
    return Channel.from_rays(CABELLO_SET)


def test_every_traversal_holds_an_orthogonal_pair(cabello):
    found = naive_ks_check(ray_bases(CABELLO_SET))
    result = verify_ks_property(cabello)
    assert (result.holds, result.witness, result.traversals_checked) == found
    assert found == (True, None, 4**9)


@pytest.mark.parametrize("t, nodes", [(4, 795), (5, 549)])
def test_search_visits_the_nodes_of_a_plain_dfs(cabello, table, t, nodes):
    res = search_deterministic(make_instance(cabello, t, 1), 1)
    found = plain_dfs(Instance(table, t, 1), 1)
    values = tuple(v for _x, v in sorted(res.strategy.c1.items()))
    assert (res.candidates_evaluated, res.complete, res.cost, values) == found
    assert res.candidates_evaluated == nodes


def test_checker_scores_the_certified_winner(table):
    fields = dict(
        line.split(": ", 1)
        for line in (GOLDEN / "certify-bound7_2-cabello.txt").read_text().splitlines()
    )
    assert (fields["certified"], fields["t"], fields["window"]) == ("true", "55", "6")
    assert fields["search-candidates-evaluated"] == "4355"
    minimum = Fraction(fields["classical-in-window-minimum"].split()[0])
    assert minimum == Fraction(1051, 42)
    c1 = dict(json.loads(fields["best-strategy"]))
    oracle = Instance(table, 55, 1)
    values = [c1[x] for _m, x in oracle.support()]
    assert all(abs(v) <= 6 for v in values)
    assert oracle.cost(values) == minimum


def test_swapped_ray_fails_at_the_named_pair(tmp_path):
    # vector 0 of basis 0, (0, 0, 0, 1), becomes (1, 1, 0, 1): orthogonal to
    # vectors 1 and 3 of its basis, not to vector 2
    data = json.loads(CABELLO_SET.read_text())
    data["bases"][0][0] = [[1, 0], [1, 0], [0, 0], [1, 0]]
    twin = basis_set_from_json_dict(data)
    broken = [
        (m, j, j2)
        for m, basis in enumerate(bases_of(twin))
        for j in range(len(basis))
        for j2 in range(j + 1, len(basis))
        if raw_dot(basis[j], basis[j2])
    ]
    assert broken[0] == (0, 0, 2)
    path, out = tmp_path / "twin.json", tmp_path / "verify-ks.txt"
    path.write_text(json.dumps(data))
    assert main(["verify-ks", "--ks-set", str(path), "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[-2:] == [
        "orthonormal: fail",
        "first-violation: basis 0, vectors 0 and 2 are not orthogonal",
    ]
    rays = ray_bases(path)
    holds, witness, _count = naive_ks_check(rays)
    assert not holds
    chosen = [rays[m][j] for m, j in witness]
    assert not any(orthogonal(a, b) for n, a in enumerate(chosen) for b in chosen[n + 1:])
