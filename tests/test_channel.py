"""Channel construction, confusability, exact capacity facts, codes, encoder.

Claims covered:
    - the bundled channel has 24 inputs, each with exactly 9 outputs of
      probability 1/9, and 108 positively-weighted outputs in total
    - confusability equals orthogonality for constructed channels, and the
      generic shared-output definition handles degenerate test channels
    - the independence number is exactly 5 with a verified witness code, and
      no 6-subset of inputs is independent (exhaustive scan)
    - zero-error verdicts distinguish collisions from incomplete decoders
    - a graph refuses a self loop, an unknown vertex and an edge out of
      order, and a code refuses an encoder that misses a message
    - the instance's integer encoder has unique decompositions for t >= d
      and composes with the channel into exact output distributions
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from entwit.channel import (
    ChannelInput,
    ConfusabilityGraph,
    FiniteChannel,
    ZeroErrorCode,
    build_ks_channel,
    confusability_graph,
    independence_number,
    verify_zero_error,
)
from entwit.control import make_instance
from entwit.ks import KSBasisSet, bundled_basis_set, load_basis_set

from helpers import (
    CABELLO_SET,
    UNITARY_SET,
    OnInputs,
    adjacent,
    code_from_independent_set,
    degree,
    from_components,
    from_neighbor_sets,
    has_independent_subset,
    is_independent,
    output_pair,
    raw_dot,
)


# -- construction -------------------------------------------------------------


def test_bundled_channel_structure(channel):
    assert len(channel.inputs) == 24
    for i in channel.inputs:
        row = channel.rows[i]
        assert len(row) == 9
        assert set(row.values()) == {Fraction(1, 9)}
        assert sum(row.values(), Fraction(0)) == 1
    assert len(channel.outputs) == 108


def test_channel_matches_orthogonality(bundled, channel):
    flat = {ChannelInput(m, j): bundled.bases[m][j]
            for m in range(6) for j in range(4)}
    for a, b in combinations(sorted(flat), 2):
        orthogonal = not raw_dot(flat[a], flat[b])
        shares = output_pair(a, b) in channel.rows[a]
        assert orthogonal == shares


def test_build_rejects_non_ks_set():
    b0 = (from_components([1, 0]), from_components([0, 1]))
    b1 = (from_components([1, 1]), from_components([1, -1]))
    with pytest.raises(ValueError):
        build_ks_channel(KSBasisSet(q=2, d=2, bases=(b0, b1)))


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "source",
    [None, UNITARY_SET, DATA / "ks_imaginary_vector.json",
     DATA / "ks_rational_entries.json", CABELLO_SET],
    ids=["bundled", "unitary", "imaginary", "rational", "cabello"],
)
def test_direct_build_matches_the_neighbor_set_build(source):
    ks = bundled_basis_set() if source is None else load_basis_set(source)
    ids = [ChannelInput(m, j) for m in range(ks.q) for j in range(ks.d)]
    # each input's neighbours, lowest mask bit first
    nbrs = {i: [ids[b] for b in range(len(ids)) if mask >> b & 1]
            for i, mask in zip(ids, ks.masks)}
    direct, reference = build_ks_channel(ks), from_neighbor_sets(nbrs)
    assert direct.inputs == reference.inputs == tuple(ids)
    for i in ids:
        assert list(direct.rows[i].items()) == list(reference.rows[i].items())


def test_empty_neighbor_set_is_structural_error():
    with pytest.raises(ValueError):
        from_neighbor_sets({ChannelInput(0, 0): []})


def _row_channel(row):
    # row (0, 0) under test; each other input it names is an input too, with
    # the valid row {((0, 0), x): 1}, so only row (0, 0) can fail
    a = ChannelInput(0, 0)
    others = sorted({x for o in row for x in o} - {a})
    rows = {a: row, **{x: {(a, x): Fraction(1)} for x in others}}
    return FiniteChannel(inputs=(a, *others), rows=rows)


A00, A10, A11 = ChannelInput(0, 0), ChannelInput(1, 0), ChannelInput(1, 1)
A12 = ChannelInput(1, 2)
# valid probability objects that validate checks once and then skips
THIRD, HALF = Fraction(1, 3), Fraction(1, 2)


@pytest.mark.parametrize(
    "row,message",
    [
        ({}, "no outputs"),
        ({(A00, A10): Fraction(1, 3), (A00, A11): Fraction(2, 3)}, "not uniform"),
        # equal probabilities that sum to 2/3
        ({(A00, A10): Fraction(1, 3), (A00, A11): Fraction(1, 3)}, "not uniform"),
        ({(A10, A11): Fraction(1)}, "does not contain"),
        ({(A00, A00): Fraction(1)}, "not two distinct inputs"),
        # one neighbor twice, once in each order
        ({(A00, A10): Fraction(1, 2), (A10, A00): Fraction(1, 2)}, "not two distinct"),
        ({(A00, A10): 0.5, (A00, A11): 0.5}, "not uniform"),
        # a wrong probability after an object already found valid
        ({(A00, A10): THIRD, (A00, A11): THIRD, (A00, A12): Fraction(1, 2)}, "not uniform"),
        ({(A00, A10): HALF, (A00, A11): 0.5}, "not uniform"),
        ({(A00, A10): Fraction(1)}, None),
    ],
    ids=[
        "empty", "non-uniform", "uniform-short-of-one", "without-own-input",
        "self-neighbor", "duplicate-neighbor", "float", "wrong-after-shared",
        "float-after-shared", "one-certain-output",
    ],
)
def test_validate_rejects_malformed_rows(row, message):
    if message is None:
        _row_channel(row).validate()
    else:
        with pytest.raises(ValueError, match=message):
            _row_channel(row).validate()


@pytest.mark.parametrize(
    "nbrs,message",
    [([A00, A10], "not two distinct inputs"), ([A10, A10], "duplicate neighbors")],
    ids=["self-neighbor", "duplicate-neighbor"],
)
def test_neighbor_sets_reject_malformed_rows(nbrs, message):
    with pytest.raises(ValueError, match=message):
        from_neighbor_sets({A00: nbrs})


def test_neighbor_sets_given_as_plain_tuples():
    ch = from_neighbor_sets({(0, 0): [(0, 1)], (0, 1): [(0, 0)]})
    assert all(type(i) is ChannelInput for i in ch.inputs)
    for row in ch.rows.values():
        for o in row:
            assert all(type(i) is ChannelInput for i in o)


def test_output_pair_canonical():
    a, b = ChannelInput(1, 2), ChannelInput(0, 3)
    assert output_pair(a, b) == (b, a)
    with pytest.raises(ValueError):
        output_pair(a, a)


# -- confusability -------------------------------------------------------------


def _identity_like():
    # disjoint outputs per input: each input pairs with the next around a
    # cycle, so no two inputs share anything
    a, b = ChannelInput(0, 0), ChannelInput(0, 1)
    fill1, fill2 = ChannelInput(9, 0), ChannelInput(9, 1)
    return from_neighbor_sets({a: [fill1], fill1: [b], b: [fill2], fill2: [a]})


def _common_output():
    # both inputs map onto their shared pair with probability 1
    a, b = ChannelInput(0, 0), ChannelInput(0, 1)
    return from_neighbor_sets({a: [b], b: [a]})


def test_identity_like_channel_is_edgeless():
    g = confusability_graph(_identity_like())
    assert len(g.edges) == 0


def test_common_output_channel_is_complete():
    g = confusability_graph(_common_output())
    assert len(g.edges) == 1
    assert adjacent(g, ChannelInput(0, 0), ChannelInput(0, 1))


def test_bundled_graph_is_nine_regular(graph):
    assert len(graph.vertices) == 24
    assert len(graph.edges) == 108
    assert all(degree(graph, v) == 9 for v in graph.vertices)


# -- independence and codes ------------------------------------------------------


def _plain_graph(n, edges):
    verts = tuple(ChannelInput(0, i) for i in range(n))
    canon = frozenset(
        output_pair(ChannelInput(0, a), ChannelInput(0, b)) for a, b in edges
    )
    return ConfusabilityGraph(vertices=verts, edges=canon)


_A, _B, _C = (ChannelInput(0, i) for i in range(3))


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(_A, _A)], "self loops are not allowed"),
        ([(_A, _C)], "uses an unknown vertex"),
        ([(_B, _A)], "is not canonically ordered"),
    ],
    ids=["self-loop", "unknown-vertex", "out-of-order"],
)
def test_graph_rejects_malformed_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        ConfusabilityGraph(vertices=(_A, _B), edges=frozenset(edges))


def test_code_rejects_an_encoder_that_misses_a_message():
    with pytest.raises(ValueError, match="encoder is not total: message 1 missing"):
        ZeroErrorCode(messages=(0, 1), encoder={0: _A}, decoder={})


def test_independence_number_edgeless():
    # 3000 vertices take one after another, deeper than the recursion limit
    for n in (7, 3000):
        size, witness = independence_number(_plain_graph(n, []))
        assert size == n
        assert len(witness) == n


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
    code = code_from_independent_set(channel, [ChannelInput(0, 0)])
    assert code.messages == (0,)
    assert verify_zero_error(OnInputs(channel), code).status == "zero_error"


def test_adjacent_set_rejected(channel, graph):
    some_edge = sorted(graph.edges)[0]
    with pytest.raises(ValueError):
        code_from_independent_set(channel, list(some_edge))


def test_collision_witness_for_confusable_codewords(channel, graph):
    a, b = sorted(graph.edges)[0]
    shared = output_pair(a, b)
    decoder = {o: 0 for o in channel.rows[a]}
    for o in channel.rows[b]:
        if o != shared:
            decoder[o] = 1
    # the shared output decodes to message 0, so message 1 collides there
    code = ZeroErrorCode(messages=(0, 1), encoder={0: a, 1: b}, decoder=decoder)
    verdict = verify_zero_error(OnInputs(channel), code)
    assert verdict.status == "collision"
    assert verdict.witness == (1, shared, 0)


def test_incomplete_decoder_verdict(channel):
    i = ChannelInput(0, 0)
    some_output = sorted(channel.rows[i])[0]
    code = ZeroErrorCode(messages=(0,), encoder={0: i}, decoder={some_output: 0})
    verdict = verify_zero_error(OnInputs(channel), code)
    assert verdict.status == "incomplete_decoder"
    assert verdict.witness[2] is None


# -- the instance as the composed channel ---------------------------------------


def _instance(bundled, channel, t):
    return make_instance(bundled, t, 1, channel=channel)


def test_epsilon_point_mass(bundled, channel):
    inst = _instance(bundled, channel, 10)
    assert inst.decompose(2 * 10 + 3) == ChannelInput(2, 3)
    assert inst.decompose(0) == ChannelInput(0, 0)


def test_epsilon_uniform_branch(bundled, channel):
    inst = _instance(bundled, channel, 10)
    assert inst.decompose(7) is None  # 7 = 0*10 + 7 and 7 is not below d
    # the uniform branch weighs every one of the 24 inputs by 1/24
    dist = inst.output_distribution(7)
    for o, p in dist.items():
        holders = [i for i in channel.inputs if o in channel.rows[i]]
        assert p == sum(Fraction(1, 24) * channel.rows[i][o] for i in holders)
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
            assert hit == ChannelInput(*forms[0])
        else:
            assert hit is None


def test_nt_in_form_matches_channel_row(bundled, channel):
    y = 3 * 10 + 2
    dist = _instance(bundled, channel, 10).output_distribution(y)
    assert dist == channel.rows[ChannelInput(3, 2)]
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
    # the views show the channel's own rows, which the refused writes left whole
    assert views[0] == channel.rows[ChannelInput(3, 2)]
    assert views[1] == _instance(bundled, channel, 10).output_distribution(-5)
    assert sum(channel.rows[ChannelInput(3, 2)].values()) == 1
