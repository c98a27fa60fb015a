"""Instances, exact cost evaluation, the closed-form c2, and the search.

Claims covered:
    - instance construction enforces t >= d, k > 0 and a true distribution
    - deterministic evaluation is exact (440/3 zero-strategy oracle) and its
      report satisfies total = control + damping with trace mass 1
    - mixtures evaluate to the weighted average and never beat their best
      component; 100 seeded mixtures stay at or above the searched minimum
    - the entangled strategy costs exactly 7k/2: zero final signal on all 216
      branches, identical across t in {4, 10, 100, 10^6}, below k*d^2; a
      strategy that breaks the k*d^2 ceiling raises QuantumDecodeError
    - the per-output c2 minimizer matches an independent linear scan,
      including its half-even tie rule
    - an instance rejects a channel whose inputs are not the (m, j) grid
    - the branch-and-bound search returns the cost and the tie-broken c1
      table of a flat scan of every in-window table (plain enumeration at
      W=1, and on instances mixing k, t, W, skewed message distributions and
      channels that are irregular, have three distinct degrees or have
      asymmetric rows), is budget-truncatable, raises SearchMismatchError
      when its winner's re-evaluation disagrees, and its best in-window cost
      is non-decreasing in t for fixed W=4
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from entwit import control
from entwit.channel import ChannelInput, FiniteChannel
from entwit.control import (
    DeterministicStrategy,
    SearchMismatchError,
    _PrefixEvaluator,
    evaluate_deterministic,
    evaluate_quantum,
    make_instance,
    optimal_c2_for_c1,
    search_deterministic,
)
from entwit.entangled import QuantumDecodeError

from helpers import (
    SharedRandomnessStrategy,
    brute_force_c2,
    evaluate_sr,
    flat_scan,
    neighbors,
    oracle_cost,
    random_c1,
    random_strategy,
    random_weights,
)


@pytest.fixture(scope="module")
def inst4(bundled, channel):
    return make_instance(bundled, 4, 1, channel=channel)


@pytest.fixture(scope="module")
def inst10(bundled, channel):
    return make_instance(bundled, 10, 1, channel=channel)


def _zero_strategy(inst):
    return DeterministicStrategy(c1={x: 0 for _m, x in inst.support()}, c2={})


# -- instances -----------------------------------------------------------------


def test_instance_support(inst4):
    assert [x for _m, x in inst4.support()] == [0, 4, 8, 12, 16, 20]


def test_t_below_d_rejected(bundled, channel):
    with pytest.raises(ValueError):
        make_instance(bundled, 3, 1, channel=channel)


def test_nonpositive_k_rejected(bundled, channel):
    with pytest.raises(ValueError):
        make_instance(bundled, 4, 0, channel=channel)
    with pytest.raises(ValueError):
        make_instance(bundled, 4, Fraction(-1, 2), channel=channel)


def test_channel_off_the_grid_rejected(bundled, channel):
    # the bundled channel less input (5, 3): rows still name it, but it has
    # no row of its own, so the encoder's grid is not covered
    nbrs = {i: neighbors(channel, i) for i in channel.inputs}
    missing = dict(nbrs)
    del missing[ChannelInput(5, 3)]
    # ... and with one input beyond the grid, paired with (0, 0) both ways
    extra = dict(nbrs)
    extra[ChannelInput(6, 0)] = [ChannelInput(0, 0)]
    extra[ChannelInput(0, 0)] = nbrs[ChannelInput(0, 0)] + (ChannelInput(6, 0),)
    for rows in (missing, extra):
        ch = FiniteChannel.from_neighbor_sets(rows)
        with pytest.raises(ValueError, match=r"\(m, j\) grid"):
            make_instance(bundled, 4, 1, channel=ch)


def test_point_mass_support(bundled, channel):
    inst = make_instance(bundled, 4, 1, p_m=[1, 0, 0, 0, 0, 0], channel=channel)
    assert inst.support() == ((0, 0),)


def test_bad_distributions_rejected(bundled, channel):
    with pytest.raises(ValueError):
        make_instance(bundled, 4, 1, p_m=[1, 0, 0], channel=channel)
    with pytest.raises(ValueError):
        make_instance(bundled, 4, 1, p_m=[2, -1, 0, 0, 0, 0], channel=channel)
    with pytest.raises(ValueError):
        make_instance(
            bundled, 4, 1, p_m=[Fraction(1, 2)] * 6, channel=channel
        )


# -- deterministic evaluation -----------------------------------------------------


def test_point_mass_zero_strategy_costs_nothing(bundled, channel):
    inst = make_instance(bundled, 10, 1, p_m=[1, 0, 0, 0, 0, 0], channel=channel)
    report = evaluate_deterministic(inst, DeterministicStrategy(c1={0: 0}, c2={}))
    assert report.total == 0


def test_zero_strategy_oracle_value(inst4):
    # E[x^2] with x uniform on {0, 4, ..., 20}: (16/6) * (0+1+4+9+16+25)
    report = evaluate_deterministic(inst4, _zero_strategy(inst4))
    assert report.total == Fraction(440, 3)
    assert report.control == 0
    assert report.damping == Fraction(440, 3)


def test_report_invariants(inst10):
    rng = random.Random(11)
    for _ in range(10):
        strat = random_strategy(rng, inst10, 4, optimal=False)
        report = evaluate_deterministic(inst10, strat)
        assert report.total == report.control + report.damping
        assert sum(tr.probability for tr in report.traces) == 1
        for tr in report.traces:
            assert tr.z == tr.x + tr.c1_out + tr.c2_out
        assert report.max_abs_c1 == max(abs(v) for v in strat.c1.values())


def test_strategy_must_cover_support(inst4):
    with pytest.raises(ValueError):
        evaluate_deterministic(inst4, DeterministicStrategy(c1={0: 0}, c2={}))


# -- mixtures ---------------------------------------------------------------------


def test_singleton_mixture_equals_component(inst4):
    det = _zero_strategy(inst4)
    mix = SharedRandomnessStrategy(components=((Fraction(1), det),))
    assert evaluate_sr(inst4, mix).total == evaluate_deterministic(inst4, det).total


def test_even_mixture_averages(inst10):
    rng = random.Random(5)
    a = random_strategy(rng, inst10, 3)
    b = random_strategy(rng, inst10, 3)
    mix = SharedRandomnessStrategy(
        components=((Fraction(1, 2), a), (Fraction(1, 2), b))
    )
    ca = evaluate_deterministic(inst10, a).total
    cb = evaluate_deterministic(inst10, b).total
    assert evaluate_sr(inst10, mix).total == (ca + cb) / 2


def test_mixture_weights_validated(inst4):
    det = _zero_strategy(inst4)
    with pytest.raises(ValueError):
        SharedRandomnessStrategy(components=((Fraction(1, 2), det),))
    with pytest.raises(ValueError):
        SharedRandomnessStrategy(
            components=((Fraction(0), det), (Fraction(1), det))
        )


def test_hundred_mixtures_never_beat_searched_minimum(inst10):
    window = 3
    best = search_deterministic(inst10, window).cost
    rng = random.Random(20240601)
    for _ in range(100):
        n = rng.randint(1, 5)
        weights = random_weights(rng, n)
        comps = tuple(
            (w, random_strategy(rng, inst10, window, optimal=rng.random() < 0.7))
            for w in weights
        )
        cost = evaluate_sr(inst10, SharedRandomnessStrategy(components=comps)).total
        assert cost >= best  # exact rational comparison


# -- entangled strategy -------------------------------------------------------------


def test_quantum_cost_exact(bundled, channel):
    inst = make_instance(bundled, 10, 1, channel=channel)
    report = evaluate_quantum(inst)
    assert report.total == Fraction(7, 2)
    assert report.damping == 0
    assert report.max_abs_z == 0
    assert len(report.traces) == 216
    assert all(tr.z == 0 for tr in report.traces)
    assert sum(tr.probability for tr in report.traces) == 1


def test_quantum_cost_constant_in_t(bundled, channel):
    costs = {
        t: evaluate_quantum(make_instance(bundled, t, 1, channel=channel)).total
        for t in (4, 10, 100, 10**6)
    }
    assert set(costs.values()) == {Fraction(7, 2)}


def test_quantum_cost_scales_with_k_and_beats_ceiling(bundled, channel):
    k = Fraction(2, 3)
    inst = make_instance(bundled, 10, k, channel=channel)
    report = evaluate_quantum(inst)
    assert report.total == k * Fraction(7, 2)
    assert report.total < k * 16


def test_quantum_ceiling_gate_raises(monkeypatch, bundled, channel):
    # an encoder that reports outcome j + d, with a decoder that follows it:
    # every branch still cancels to a zero final signal, but each costs
    # (j + d)^2 >= d^2, so only the k*d^2 ceiling can catch the fault
    inst = make_instance(bundled, 10, 1, channel=channel)
    real_branches = control.encoder_branches
    decoded = {}

    def shifted_branches(ks, m):
        out = []
        for branch in real_branches(ks, m):
            outcome = ChannelInput(m, branch.outcome.j + ks.d)
            decoded[id(branch.residual)] = outcome
            out.append(replace(branch, outcome=outcome))
        return out

    monkeypatch.setattr(control, "encoder_branches", shifted_branches)
    monkeypatch.setattr(
        control, "decoder_decode",
        lambda ks, s, residual: (decoded[id(residual)], Fraction(1)),
    )
    with pytest.raises(QuantumDecodeError, match="not below"):
        evaluate_quantum(inst)


def test_quantum_cost_independent_of_message_distribution(bundled, channel):
    inst = make_instance(
        bundled, 10, 1,
        p_m=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0, 0, 0],
        channel=channel,
    )
    assert evaluate_quantum(inst).total == Fraction(7, 2)


# -- the per-output c2 minimizer ------------------------------------------------------


def test_point_posterior_cancels_exactly(bundled, channel):
    inst = make_instance(bundled, 10, 1, p_m=[0, 0, 1, 0, 0, 0], channel=channel)
    c1 = {20: 0}
    table = optimal_c2_for_c1(inst, c1)
    assert set(table.values()) == {-20}
    strat = DeterministicStrategy(c1=c1, c2=table)
    assert evaluate_deterministic(inst, strat).damping == 0


def test_two_point_posterior_rounds_half_to_even(bundled, channel):
    # route messages 0 and 1 onto the confusable vertices (0,0) and (1,2):
    # the shared edge sees wire values {0, 7}, mean 7/2, a half-integer tie
    # that must round to the even integer 4, giving c2 = -4 (not -3)
    inst = make_instance(
        bundled, 5, 1,
        p_m=[Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0],
        channel=channel,
    )
    c1 = {0: 0, 5: 2}
    table = optimal_c2_for_c1(inst, c1)
    from entwit.control import posterior_moments

    shared = [
        s
        for s, (mass, _ysum, _ysq) in posterior_moments(inst, c1).items()
        if mass == Fraction(1, 9)  # two contributors of 1/18 each
    ]
    assert shared
    for s in shared:
        assert table[s] == -4


def test_optimal_c2_matches_brute_force(inst10):
    rng = random.Random(99)
    for _ in range(6):
        c1 = random_c1(rng, inst10, 3)
        table = optimal_c2_for_c1(inst10, c1)
        span = 6 * 10 + 3
        brute = brute_force_c2(inst10, c1, -span, span)
        for s, (minimizers, _cost) in brute.items():
            assert table[s] in minimizers
            if len(minimizers) == 2:
                assert table[s] % 2 == 0


# -- the search -------------------------------------------------------------------


def test_window_zero_is_the_zero_strategy(inst10):
    res = search_deterministic(inst10, 0)
    c1 = {x: 0 for _m, x in inst10.support()}
    expected = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst10, c1))
    assert res.strategy == expected
    assert res.cost == evaluate_deterministic(inst10, expected).total
    assert res.complete


def test_search_matches_plain_enumeration_at_w1(inst10):
    # independent oracle: enumerate all 3^6 tables through the generic
    # fraction evaluator, tracking the lexicographically first minimum
    best_cost, best_vals = flat_scan(inst10, 1)
    res = search_deterministic(inst10, 1)
    assert res.cost == best_cost
    assert tuple(res.strategy.c1[x] for _m, x in inst10.support()) == best_vals


def _without(channel, drops):
    """The channel with neighbor b dropped from row a for each (a, b)."""
    nbrs = {i: list(neighbors(channel, i)) for i in channel.inputs}
    for a, b in drops:
        nbrs[ChannelInput(*a)].remove(ChannelInput(*b))
    return FiniteChannel.from_neighbor_sets(nbrs)


@pytest.fixture(scope="module")
def channels(channel):
    return {
        "regular": channel,
        # less one confusable pair: two inputs of degree 8 among 22 of 9
        "irregular": _without(channel, [((0, 0), (0, 1)), ((0, 1), (0, 0))]),
        # less three pairs at (0, 0) and (1, 0): degrees 7, 8 and 9
        "three-degree": _without(channel, [
            ((0, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (0, 2)),
            ((0, 2), (0, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 0)),
        ]),
        # three pairs dropped from one row only: each of those outputs
        # stays in the other endpoint's row, and the pairs sit between
        # inputs that neighbouring messages hit at t = 4 and t = 5
        "asymmetric": _without(channel, [
            ((0, 0), (0, 3)), ((0, 3), (1, 0)), ((1, 1), (0, 2)),
        ]),
    }


UNIFORM = None
SKEWED4 = (Fraction(1, 2), Fraction(1, 4), 0, Fraction(1, 8), Fraction(1, 8), 0)
SKEWED3 = (0, Fraction(1, 3), Fraction(1, 6), 0, Fraction(1, 2), 0)
# five tables tie for the minimum at t = 4, k = 1/1000, W = 1; the first in
# (|v|, v) visiting order, (0, 1, 0), is not the lexicographically first
TIED3 = (0, 0, Fraction(1, 6), Fraction(1, 2), 0, Fraction(1, 3))
P_M_IDS = {
    UNIFORM: "uniform", SKEWED4: "skewed4", SKEWED3: "skewed3", TIED3: "tied3"
}


@pytest.mark.parametrize(
    "kind, t, k, p_m, window",
    [
        # t = 4: the windows of neighbouring messages overlap
        ("regular", 4, Fraction(1, 1000), SKEWED4, 2),
        ("regular", 4, Fraction(1, 1000), TIED3, 1),
        ("irregular", 4, Fraction(1, 1000), TIED3, 1),
        ("regular", 4, Fraction(1), SKEWED3, 3),
        ("regular", 5, Fraction(7, 3), SKEWED3, 3),
        ("regular", 8, Fraction(1), SKEWED4, 1),
        ("regular", 39, Fraction(7, 3), SKEWED3, 2),
        ("irregular", 5, Fraction(7, 3), SKEWED3, 2),
        ("irregular", 39, Fraction(1), SKEWED3, 3),
        ("irregular", 4, Fraction(7, 3), UNIFORM, 1),
        ("three-degree", 4, Fraction(1, 1000), TIED3, 1),
        ("three-degree", 5, Fraction(7, 3), SKEWED3, 2),
        ("three-degree", 8, Fraction(1), SKEWED4, 1),
        ("asymmetric", 4, Fraction(1, 1000), SKEWED4, 2),
        ("asymmetric", 5, Fraction(7, 3), SKEWED3, 2),
        ("asymmetric", 4, Fraction(1), UNIFORM, 1),
    ],
    ids=lambda v: P_M_IDS.get(v, str(v)),
)
def test_search_matches_flat_scan(bundled, channels, kind, t, k, p_m, window):
    inst = make_instance(bundled, t, k, p_m=p_m, channel=channels[kind])
    best_cost, best_vals = flat_scan(inst, window)
    res = search_deterministic(inst, window)
    assert res.complete
    assert res.cost == best_cost
    assert tuple(res.strategy.c1[x] for _m, x in inst.support()) == best_vals


@pytest.mark.parametrize("kind", ["regular", "irregular", "three-degree", "asymmetric"])
def test_prefix_evaluator_matches_oracle_cost(bundled, channels, kind):
    # the search only compares costs, so a wrong score can still leave the
    # winner right; score full tables against the plain-Fraction oracle, with
    # every value pair on the first two messages (owners that share an
    # output, in either order, with and without wires out of form) and
    # random values on the rest
    rng = random.Random(20130)
    for t, k, p_m, window in [
        (4, Fraction(1), UNIFORM, 3),
        (5, Fraction(7, 3), SKEWED4, 3),
        (6, Fraction(1, 1000), UNIFORM, 3),
        (10, Fraction(1), SKEWED3, 3),
    ]:
        inst = make_instance(bundled, t, k, p_m=p_m, channel=channels[kind])
        evaluator = _PrefixEvaluator(inst, window)
        span = range(-window, window + 1)
        for first in product(span, span):
            rest = [rng.choice(span) for _ in inst.support()[2:]]
            values = [*first, *rest]
            scaled = evaluator.eval_scaled(values)
            assert evaluator.to_fraction(scaled) == oracle_cost(inst, values)


def test_search_mismatch_gate_raises(monkeypatch, inst10):
    monkeypatch.setattr(
        _PrefixEvaluator, "to_fraction",
        lambda self, scaled: Fraction(scaled + 1, self.scale_den),
    )
    with pytest.raises(SearchMismatchError, match="mismatch"):
        search_deterministic(inst10, 1)


def test_search_beats_any_supplied_strategy(inst10):
    res = search_deterministic(inst10, 3)
    rng = random.Random(17)
    for _ in range(20):
        strat = random_strategy(rng, inst10, 3)
        assert res.cost <= evaluate_deterministic(inst10, strat).total


def test_budget_truncation_flags_incomplete(inst10):
    res = search_deterministic(inst10, 2, node_budget=40)
    assert not res.complete
    assert res.candidates_evaluated == 40


def test_budget_must_cover_one_complete_table(inst10):
    with pytest.raises(ValueError, match="node budget"):
        search_deterministic(inst10, 1, node_budget=5)
    res = search_deterministic(inst10, 1, node_budget=6)  # the first dive
    assert not res.complete
    assert res.candidates_evaluated == 6
    assert all(v == 0 for v in res.strategy.c1.values())


def test_best_in_window_cost_non_decreasing_in_t(bundled, channel):
    costs = []
    for t in (4, 8, 16, 32, 64):
        inst = make_instance(bundled, t, 1, channel=channel)
        costs.append(search_deterministic(inst, 4).cost)
    assert all(a <= b for a, b in zip(costs, costs[1:]))
