"""Channel construction, confusability, exact capacity facts, codes, encoder.

Claims covered:
    - the bundled channel is the set's own orthogonality masks: 24 inputs,
      each with exactly 9 outputs of probability 1/9, and 108 outputs in all
    - the rows the instance builds from the masks equal those read off the
      checker's neighbour lists, output for output and in order, on every
      ray file
    - a channel refuses a row count that is not q*d, an empty row, a
      partner past the grid, a row holding its own input and a partner held
      one way only, from above or from below
    - the confusability graph is the channel's masks, and equals the
      shared-output relation re-derived from the rows
    - the independence number is exactly 5 with a verified witness code, and
      no 6-subset of inputs is independent (exhaustive scan)
    - zero-error verdicts distinguish collisions from incomplete decoders,
      and a code refuses an encoder that misses a message
    - the instance's integer encoder has unique decompositions for t >= d,
      wire 0 among them as input 0, and composes with the channel into exact
      output distributions
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from checker import Channel
from entwit.channel import (
    FiniteChannel,
    ZeroErrorCode,
    build_ks_channel,
    confusability_graph,
    independence_number,
    verify_zero_error,
)
from entwit.control import make_instance
from entwit.ks import KSBasisSet, load_basis_set

from helpers import (
    BUNDLED_RAYS,
    CABELLO_SET,
    UNITARY_SET,
    OnInputs,
    adjacent,
    channel_outputs,
    channel_rows,
    code_from_independent_set,
    degree,
    from_components,
    from_neighbor_sets,
    has_independent_subset,
    is_independent,
    output_pair,
    partners,
    raw_dot,
)


# -- construction -------------------------------------------------------------


def test_bundled_channel_structure(bundled, channel):
    assert channel.masks is bundled.masks
    assert channel.inputs == tuple((m, j) for m in range(6) for j in range(4))
    rows = channel_rows(channel)
    assert list(rows) == list(range(24))
    for row in rows.values():
        assert len(row) == 9
        assert set(row.values()) == {Fraction(1, 9)}
        assert sum(row.values(), Fraction(0)) == 1
    assert len(channel_outputs(channel)) == 108


def test_channel_matches_orthogonality(bundled, channel):
    flat = bundled.vectors
    for a, b in combinations(range(24), 2):
        orthogonal = not raw_dot(flat[a], flat[b])
        assert orthogonal == bool(channel.masks[a] >> b & 1) == bool(channel.masks[b] >> a & 1)


def test_build_rejects_non_ks_set():
    b0 = (from_components([1, 0]), from_components([0, 1]))
    b1 = (from_components([1, 1]), from_components([1, -1]))
    with pytest.raises(ValueError):
        build_ks_channel(KSBasisSet(q=2, d=2, bases=(b0, b1)))


DATA = Path(__file__).parent / "data"
RAY_FILES = [
    BUNDLED_RAYS, UNITARY_SET, DATA / "ks_imaginary_vector.json",
    DATA / "ks_rational_entries.json", CABELLO_SET,
]
RAY_IDS = ["bundled", "unitary", "imaginary", "rational", "cabello"]


@pytest.mark.parametrize("source", RAY_FILES, ids=RAY_IDS)
def test_direct_build_matches_the_neighbor_set_build(source):
    # the rows that evaluate_deterministic, strategy_to_code and
    # verify_zero_error read, built by the instance from the masks, are
    # those of the checker's neighbour lists, read from the ray file
    ks = load_basis_set(source)
    table = Channel.from_rays(source)
    inst = make_instance(ks, ks.d, 1, channel=build_ks_channel(ks))
    for i, row in enumerate(table.neighbours):
        expected = [(output_pair(i, n), Fraction(1, len(row))) for n in row]
        assert list(inst.output_distribution(i).items()) == expected  # y = i at t = d


def test_empty_neighbor_set_is_structural_error():
    with pytest.raises(ValueError, match="has no outputs"):
        from_neighbor_sets(1, {0: []})


# a 2 x 2 grid whose outputs are {0, 1} and {2, 3}
PAIRED = (0b0010, 0b0001, 0b1000, 0b0100)


@pytest.mark.parametrize(
    "d, masks, message",
    [
        (2, PAIRED[:3], r"3 rows are not q\*d rows for d = 2"),
        (2, (0, *PAIRED[1:]), "input 0 has no outputs"),
        (2, (0b0110, *PAIRED[1:]), "inputs 0 and 2 are not partners both ways"),
        (2, (*PAIRED[:2], 0b1001, PAIRED[3]), "inputs 0 and 2 are not partners both ways"),
    ],
    ids=["wrong-row-count", "empty-row", "one-sided-bit-above", "one-sided-bit-below"],
)
def test_channel_refuses_malformed_masks(d, masks, message):
    with pytest.raises(ValueError, match=message):
        FiniteChannel(d, masks)
    assert FiniteChannel(2, PAIRED).masks == PAIRED


# row 0 of the paired grid naming its own input as well as input 1
@pytest.mark.parametrize(
    "row, message", [(0b0011, "input 0 is its own partner")], ids=["self-neighbor"]
)
def test_validate_rejects_malformed_rows(row, message):
    with pytest.raises(ValueError, match=message):
        FiniteChannel(2, (row, *PAIRED[1:]))


# the graph with vertices {0, 1} and the one edge 0-1, as a channel with
# d = 1; each case adds to vertex 0 an edge that graph cannot hold
@pytest.mark.parametrize(
    "edge, message",
    [(0b001, "input 0 is its own partner"), (0b100, "input 0 has a partner past the grid")],
    ids=["self-loop", "unknown-vertex"],
)
def test_graph_rejects_malformed_edges(edge, message):
    with pytest.raises(ValueError, match=message):
        FiniteChannel(1, (0b010 | edge, 0b001))
    assert confusability_graph(FiniteChannel(1, (0b010, 0b001))) == (0b010, 0b001)


# input 0 of a d = 1 grid naming itself or input 1 twice
@pytest.mark.parametrize(
    "nbrs,message",
    [([0, 1], "not two distinct inputs"), ([1, 1], "duplicate neighbors")],
    ids=["self-neighbor", "duplicate-neighbor"],
)
def test_neighbor_sets_reject_malformed_rows(nbrs, message):
    with pytest.raises(ValueError, match=message):
        from_neighbor_sets(1, {0: nbrs})


def test_output_pair_canonical():
    assert output_pair(6, 3) == (3, 6)
    with pytest.raises(ValueError):
        output_pair(6, 6)


# -- confusability -------------------------------------------------------------


def _common_output():
    # both inputs map onto their shared pair with probability 1
    return from_neighbor_sets(2, {0: [1], 1: [0]})


def test_common_output_channel_is_complete():
    g = confusability_graph(_common_output())
    assert len(g) == 2
    assert adjacent(g, 0, 1) and adjacent(g, 1, 0)


@pytest.mark.parametrize("source", [BUNDLED_RAYS, CABELLO_SET], ids=["bundled", "cabello"])
def test_graph_is_the_shared_output_relation(source):
    # the generic definition: i and i' are joined iff some output has
    # positive probability under both, found by inverting the rows
    ch = build_ks_channel(load_basis_set(source))
    holders = {}
    for i, row in channel_rows(ch).items():
        for o, p in row.items():
            if p > 0:
                holders.setdefault(o, []).append(i)
    edges = {e for hold in holders.values() for e in combinations(sorted(hold), 2)}
    g = confusability_graph(ch)
    assert {(a, b) for a in range(len(g)) for b in partners(g[a]) if a < b} == edges


def test_bundled_graph_is_nine_regular(graph):
    assert len(graph) == 24
    assert sum(map(int.bit_count, graph)) == 2 * 108
    assert all(degree(graph, v) == 9 for v in range(24))


# -- independence and codes ------------------------------------------------------


def _plain_graph(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def test_code_rejects_an_encoder_that_misses_a_message():
    with pytest.raises(ValueError, match="encoder is not total: message 1 missing"):
        ZeroErrorCode(messages=(0, 1), encoder={0: 0}, decoder={})


def test_independence_number_edgeless():
    # 3000 vertices take one after another, deeper than the recursion limit
    for n in (7, 3000):
        size, witness = independence_number(_plain_graph(n, []))
        assert size == n
        assert witness == tuple(range(n))


def test_independence_number_complete():
    size, witness = independence_number(
        _plain_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    )
    assert size == 1
    assert len(witness) == 1


def test_bundled_independence_number(channel, graph):
    size, witness = independence_number(graph)
    assert size == 5
    assert is_independent(graph, witness)
    code = code_from_independent_set(channel, witness)
    assert len(code.messages) == 5
    assert verify_zero_error(OnInputs(channel), code).status == "zero_error"


def test_no_independent_six_subset(graph):
    found, witness, scanned = has_independent_subset(graph, 6)
    assert not found
    assert witness is None
    assert scanned == 134596  # C(24, 6)


def test_single_vertex_code(channel):
    code = code_from_independent_set(channel, [0])
    assert code.messages == (0,)
    assert verify_zero_error(OnInputs(channel), code).status == "zero_error"


def test_adjacent_set_rejected(channel, graph):
    with pytest.raises(ValueError):
        code_from_independent_set(channel, [0, partners(graph[0])[0]])


def test_collision_witness_for_confusable_codewords(channel, graph):
    a, b = 0, partners(graph[0])[0]
    shared = output_pair(a, b)
    rows = channel_rows(channel)
    decoder = {o: 0 for o in rows[a]}
    for o in rows[b]:
        if o != shared:
            decoder[o] = 1
    # the shared output decodes to message 0, so message 1 collides there
    code = ZeroErrorCode(messages=(0, 1), encoder={0: a, 1: b}, decoder=decoder)
    verdict = verify_zero_error(OnInputs(channel), code)
    assert verdict.status == "collision"
    assert verdict.witness == (1, shared, 0)


def test_incomplete_decoder_verdict(channel):
    i = 0
    some_output = sorted(channel_rows(channel)[i])[0]
    code = ZeroErrorCode(messages=(0,), encoder={0: i}, decoder={some_output: 0})
    verdict = verify_zero_error(OnInputs(channel), code)
    assert verdict.status == "incomplete_decoder"
    assert verdict.witness[2] is None


# -- the instance as the composed channel ---------------------------------------


def _instance(bundled, channel, t):
    return make_instance(bundled, t, 1, channel=channel)


def test_epsilon_point_mass(bundled, channel):
    inst = _instance(bundled, channel, 10)
    assert inst.decompose(2 * 10 + 3) == 2 * 4 + 3


def test_input_zero_is_an_input(bundled, channel):
    # id 0 is falsy: wire 0 must still reach row 0, not the uniform branch
    inst = _instance(bundled, channel, 10)
    assert inst.decompose(0) == 0
    dist = inst.output_distribution(0)
    assert dist == channel_rows(channel)[0]
    assert len(dist) == 9


def test_epsilon_uniform_branch(bundled, channel):
    inst = _instance(bundled, channel, 10)
    assert inst.decompose(7) is None  # 7 = 0*10 + 7 and 7 is not below d
    # the uniform branch weighs every one of the 24 inputs by 1/24
    dist = inst.output_distribution(7)
    rows = channel_rows(channel)
    for o, p in dist.items():
        holders = [i for i in rows if o in rows[i]]
        assert p == sum(Fraction(1, 24) * rows[i][o] for i in holders)
    assert sum(dist.values()) == 1


def test_epsilon_rejects_small_t(bundled, channel):
    with pytest.raises(ValueError, match="t=3 must be at least d=4"):
        _instance(bundled, channel, 3)


@pytest.mark.parametrize("t", [4, 7, 10])
def test_decomposition_unique_for_t_at_least_d(bundled, channel, t):
    inst = _instance(bundled, channel, t)
    for x in range(0, 6 * t + 1):
        forms = [
            (a, b) for a in range(6) for b in range(4) if x == a * t + b
        ]
        assert len(forms) <= 1
        hit = inst.decompose(x)
        if forms:
            assert hit == forms[0][0] * 4 + forms[0][1]
        else:
            assert hit is None


def test_nt_in_form_matches_channel_row(bundled, channel):
    y = 3 * 10 + 2
    dist = _instance(bundled, channel, 10).output_distribution(y)
    assert dist == channel_rows(channel)[3 * 4 + 2]
    assert set(dist.values()) == {Fraction(1, 9)}


def test_nt_out_of_form_is_uniform_over_edges(bundled, channel):
    dist = _instance(bundled, channel, 10).output_distribution(-5)
    assert len(dist) == 108
    assert set(dist.values()) == {Fraction(1, 108)}


def test_nt_sums_to_one_on_sampled_wire_values(bundled, channel):
    inst = _instance(bundled, channel, 17)
    rng = random.Random(20240817)
    span = 2 * 6 * 17
    for _ in range(1000):
        y = rng.randint(-span, span)
        dist = inst.output_distribution(y)
        assert sum(dist.values(), Fraction(0)) == 1


def test_output_distributions_are_read_only(bundled, channel):
    inst = _instance(bundled, channel, 10)
    views = [
        inst.output_distribution(3 * 10 + 2),
        inst.output_distribution(-5),
    ]
    for view in views:
        s = next(iter(view))
        with pytest.raises(TypeError):
            view[s] = Fraction(1)
        with pytest.raises(TypeError):
            del view[s]
    # the refused writes left the rows whole
    assert views[0] == channel_rows(channel)[3 * 4 + 2]
    assert views[1] == _instance(bundled, channel, 10).output_distribution(-5)
    assert sum(views[0].values()) == 1
