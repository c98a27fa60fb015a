"""Channel construction, confusability, exact capacity facts, codes, encoder.

Claims covered:
    - the bundled channel has 24 inputs, each with exactly 9 outputs of
      probability 1/9, and 108 positively-weighted outputs in total
    - confusability equals orthogonality for constructed channels, and the
      generic shared-output definition handles degenerate test channels
    - the independence number is exactly 5 with a verified witness code, and
      no 6-subset of inputs is independent (exhaustive scan)
    - zero-error verdicts distinguish collisions from incomplete decoders
    - the integer encoder has unique decompositions for t >= d and composes
      with the channel into exact output distributions
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from entwit.channel import (
    ChannelInput,
    ConfusabilityGraph,
    EncoderMap,
    FiniteChannel,
    NtChannel,
    ZeroErrorCode,
    build_ks_channel,
    confusability_graph,
    independence_number,
    output_pair,
    verify_zero_error,
)
from entwit.exact import Vector
from entwit.ks import KSBasisSet

from helpers import (
    adjacent,
    code_from_independent_set,
    degree,
    has_independent_subset,
    is_independent,
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
    b0 = (Vector.from_components([1, 0]), Vector.from_components([0, 1]))
    b1 = (Vector.from_components([1, 1]), Vector.from_components([1, -1]))
    with pytest.raises(ValueError):
        build_ks_channel(KSBasisSet(q=2, d=2, bases=(b0, b1)))


def test_empty_neighbor_set_is_structural_error():
    with pytest.raises(ValueError):
        FiniteChannel.from_neighbor_sets({ChannelInput(0, 0): []})


def test_output_pair_canonical():
    a, b = ChannelInput(1, 2), ChannelInput(0, 3)
    assert output_pair(a, b) == (b, a)
    with pytest.raises(ValueError):
        output_pair(a, a)


# -- confusability -------------------------------------------------------------


def _identity_like():
    # disjoint outputs per input: no two inputs share anything
    a, b = ChannelInput(0, 0), ChannelInput(0, 1)
    fill1, fill2 = ChannelInput(9, 0), ChannelInput(9, 1)
    return FiniteChannel.from_neighbor_sets({a: [fill1], b: [fill2]})


def _common_output():
    # both inputs map onto their shared pair with probability 1
    a, b = ChannelInput(0, 0), ChannelInput(0, 1)
    return FiniteChannel.from_neighbor_sets({a: [b], b: [a]})


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


def test_independence_number_edgeless():
    size, witness = independence_number(_plain_graph(7, []))
    assert size == 7
    assert len(witness) == 7


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
    assert verify_zero_error(channel, code).is_zero_error


def test_no_independent_six_subset(graph):
    found, witness, scanned = has_independent_subset(graph, 6)
    assert not found
    assert witness is None
    assert scanned == 134596  # C(24, 6)


def test_single_vertex_code(channel):
    code = code_from_independent_set(channel, [ChannelInput(0, 0)])
    assert code.messages == (0,)
    assert verify_zero_error(channel, code).is_zero_error


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
    verdict = verify_zero_error(channel, code)
    assert verdict.status == "collision"
    assert verdict.witness == (1, shared, 0)


def test_incomplete_decoder_verdict(channel):
    i = ChannelInput(0, 0)
    some_output = sorted(channel.rows[i])[0]
    code = ZeroErrorCode(messages=(0,), encoder={0: i}, decoder={some_output: 0})
    verdict = verify_zero_error(channel, code)
    assert verdict.status == "incomplete_decoder"
    assert verdict.witness[2] is None


# -- integer encoder -------------------------------------------------------------


def test_epsilon_point_mass():
    enc = EncoderMap(t=10, q=6, d=4)
    assert enc.decompose(2 * 10 + 3) == ChannelInput(2, 3)
    assert enc.decompose(0) == ChannelInput(0, 0)


def test_epsilon_uniform_branch(channel):
    enc = EncoderMap(t=10, q=6, d=4)
    assert enc.decompose(7) is None  # 7 = 0*10 + 7 and 7 is not below d
    # the uniform branch weighs every one of the 24 inputs by 1/24
    dist = NtChannel(enc, channel).output_distribution(7)
    for o, p in dist.items():
        holders = [i for i in channel.inputs if o in channel.rows[i]]
        assert p == sum(Fraction(1, 24) * channel.rows[i][o] for i in holders)
    assert sum(dist.values()) == 1


def test_epsilon_rejects_small_t():
    with pytest.raises(ValueError):
        EncoderMap(t=3, q=6, d=4)


@pytest.mark.parametrize("t", [4, 7, 10])
def test_decomposition_unique_for_t_at_least_d(t):
    enc = EncoderMap(t=t, q=6, d=4)
    for x in range(0, 6 * t + 1):
        forms = [
            (a, b) for a in range(6) for b in range(4) if x == a * t + b
        ]
        assert len(forms) <= 1
        hit = enc.decompose(x)
        if forms:
            assert hit == ChannelInput(*forms[0])
        else:
            assert hit is None


def test_nt_in_form_matches_channel_row(channel):
    enc = EncoderMap(t=10, q=6, d=4)
    y = 3 * 10 + 2
    dist = NtChannel(enc, channel).output_distribution(y)
    assert dist == channel.rows[ChannelInput(3, 2)]
    assert set(dist.values()) == {Fraction(1, 9)}


def test_nt_out_of_form_is_uniform_over_edges(channel):
    enc = EncoderMap(t=10, q=6, d=4)
    dist = NtChannel(enc, channel).output_distribution(-5)
    assert len(dist) == 108
    assert set(dist.values()) == {Fraction(1, 108)}


def test_nt_sums_to_one_on_sampled_wire_values(channel):
    enc = EncoderMap(t=17, q=6, d=4)
    rng = random.Random(20240817)
    span = 2 * 6 * 17
    for _ in range(1000):
        y = rng.randint(-span, span)
        dist = NtChannel(enc, channel).output_distribution(y)
        assert sum(dist.values(), Fraction(0)) == 1


def test_output_distributions_are_read_only(channel):
    nt = NtChannel(EncoderMap(t=10, q=6, d=4), channel)
    views = [
        channel.output_distribution(ChannelInput(3, 2)),
        nt.output_distribution(3 * 10 + 2),
        nt.output_distribution(-5),
    ]
    for view in views:
        s = next(iter(view))
        with pytest.raises(TypeError):
            view[s] = Fraction(1)
        with pytest.raises(TypeError):
            del view[s]
    # the views show the channel's own rows, which the refused writes left whole
    assert views[1] == channel.rows[ChannelInput(3, 2)]
    assert views[2] == NtChannel(nt.enc, channel).output_distribution(-5)
    assert sum(channel.rows[ChannelInput(3, 2)].values()) == 1
