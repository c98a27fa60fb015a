"""Instances, exact cost evaluation, the closed-form c2, and the search.

Claims covered:
    - instance construction enforces t >= d, k > 0 and a true distribution
    - deterministic evaluation is exact (440/3 zero-strategy oracle) and its
      report satisfies total = control + damping with trace mass 1
    - mixtures evaluate to the weighted average and never beat their best
      component; 100 seeded mixtures stay at or above the searched minimum
    - the entangled strategy costs exactly 7k/2 over all 216 branches,
      below k*d^2, and walks only the supported messages (108 branches for
      three); its whole report is the same at t = d, 39 and 10^6 on the
      unitary, imaginary, rational and 18-ray sets (504 branches on the last)
    - evaluate_quantum and run_zero_error_quantum read one walk, so each gate
      raises QuantumDecodeError in both: a decoder right with probability
      1/2 (through quantum-run), an encoder branch of probability 1/2 or of
      the float 0.25, and an encoder outcome off the grid or of another
      message, witness (m, j, None); an encoder that repeats its branches
      breaks only the k*d^2 ceiling, which raises too, and a decoder whose
      certain outcome carries a fresh Fraction(1) rather than the shared one
      leaves both reports unchanged
    - the per-output c2 minimizer matches an independent linear scan,
      including its half-even tie rule, on random tables with wires out of
      form and zero-probability messages, on all four test channels
    - an instance rejects a channel whose inputs are not the (m, j) grid,
      or one whose rows are not uniform
    - the branch-and-bound search returns the cost and the tie-broken c1
      table of a flat scan of every in-window table (plain enumeration at
      W=1, and on instances mixing k, t, W, skewed message distributions and
      channels that are irregular, have three distinct degrees or have
      asymmetric rows), is budget-truncatable, raises SearchMismatchError
      when its winner's re-evaluation disagrees (also through
      classical-search), and its best in-window cost
      is non-decreasing in t for fixed W=4
    - the search scores the prefixes a plain depth-first search scored by
      the integer checker scores, in the same number, complete and under
      node budgets 6, 40 and 300, and ends at its cost and table, also on
      121 seeded instances over both basis sets with skewed message
      probabilities and budgets, where the group bound sometimes equals the
      incumbent, and under budgets that end at the first child, inside, at
      the last child or just past each run of out-of-form children it
      counts in one step; its child scoring, walked down full tables,
      matches the checker's cost and takes every step back exactly; every
      child it scores in a search costs what the checker gives for the
      prefix the evaluator holds, and every child it rules out unscored, also in runs
      of four counted at once, is out of form and costs more on the checker
      than the incumbent when its node asked for the group bound
    - the group bound on a node's out-of-form children is the least of
      their checker costs with c2 relaxed to the reals, so never above the
      least of their exact costs
    - the per-row table that the search evaluator and the c2 minimizer share,
      built once per instance, gives each row's outputs, the other row that
      holds each (or none, on the asymmetric channel) and its beta_o as the
      checker's neighbour lists do, on all four test channels and the
      18-ray set, and its weights sum to q*d*D
    - the p_z_min lower bound, read from the largest row degree, equals the
      least message probability times the least row entry compared as
      Fractions, on all four test channels and the 18-ray set, under
      uniform, point-mass and mixed message probabilities; the default
      uniform distribution equals an explicit uniform list
    - every oracle here is the checker of ``tests/checker.py``, on the
      channel it derives from the ray file itself, or on the same plain
      neighbour table that entwit's channel is built from
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from entwit import control, entangled
from entwit.bounds import pxmin, pzmin_lower_bound
from entwit.channel import ChannelInput, FiniteChannel, build_ks_channel
from entwit.cli import main
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
from entwit.entangled import _ONE, QuantumDecodeError, run_zero_error_quantum
from entwit.ks import load_basis_set

from checker import Channel, Instance, flat_scan, plain_dfs
from helpers import (
    CABELLO_SET,
    SharedRandomnessStrategy,
    branch_signals,
    evaluate_sr,
    finite_channel,
    neighbors,
    random_c1,
    random_strategy,
    random_weights,
)

DATA = Path(__file__).parent / "data"

@pytest.fixture(scope="module")
def inst4(bundled, channel):
    return make_instance(bundled, 4, 1, channel=channel)


@pytest.fixture(scope="module")
def inst10(bundled, channel):
    return make_instance(bundled, 10, 1, channel=channel)


@pytest.fixture(scope="module")
def oracle4(rays):
    return Instance(rays, 4, 1)


@pytest.fixture(scope="module")
def oracle10(rays):
    return Instance(rays, 10, 1)


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


def test_channel_with_a_row_that_is_not_uniform_rejected(bundled, channel):
    # row (0, 0) of the bundled channel with two of its 1/9 entries moved to
    # 1/18 and 3/18: it still sums to 1, but the search's row table and
    # pzmin_lower_bound read 1/deg for every entry of a row
    rows = dict(channel.rows)
    row = dict(rows[ChannelInput(0, 0)])
    first, second = list(row)[:2]
    assert row[first] == row[second] == Fraction(1, 9)
    row[first], row[second] = Fraction(1, 18), Fraction(3, 18)
    assert sum(row.values()) == 1
    rows[ChannelInput(0, 0)] = row
    skewed = FiniteChannel(inputs=channel.inputs, rows=rows)
    with pytest.raises(ValueError, match="not uniform"):
        make_instance(bundled, 39, 1, channel=skewed)
    make_instance(bundled, 39, 1, channel=channel)  # the bundled one still passes


def test_point_mass_support(bundled, channel):
    inst = make_instance(bundled, 4, 1, p_m=[1, 0, 0, 0, 0, 0], channel=channel)
    assert inst.support() == ((0, 0),)


def test_bad_distributions_rejected(bundled, channel):
    # the default distribution is built uniform unchecked: it must be the
    # one an explicit uniform list gives, which goes through every check
    default = make_instance(bundled, 4, 1, channel=channel)
    explicit = make_instance(bundled, 4, 1, p_m=[Fraction(1, 6)] * 6, channel=channel)
    assert default.p_m == explicit.p_m == (Fraction(1, 6),) * 6
    assert all(type(p) is Fraction for p in default.p_m)
    assert default.support() == explicit.support()
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


def test_report_invariants(inst10, oracle10):
    rng = random.Random(11)
    for _ in range(10):
        strat = random_strategy(rng, oracle10, 4, optimal=False)
        report = evaluate_deterministic(inst10, strat)
        assert report.total == report.control + report.damping
        branches = branch_signals(oracle10, strat)
        assert sum(p for p, _z in branches) == 1
        assert report.damping == sum(p * z * z for p, z in branches)
        assert report.max_abs_z == max(abs(z) for _p, z in branches)


def test_deterministic_branch_count_matches_enumeration(inst10, oracle10):
    rng = random.Random(12)
    for _ in range(10):
        strat = random_strategy(rng, oracle10, 4, optimal=False)
        expected = len(branch_signals(oracle10, strat))
        assert evaluate_deterministic(inst10, strat).branches == expected


def test_strategy_must_cover_support(inst4):
    with pytest.raises(ValueError):
        evaluate_deterministic(inst4, DeterministicStrategy(c1={0: 0}, c2={}))


# -- mixtures ---------------------------------------------------------------------


def test_singleton_mixture_equals_component(inst4, oracle4):
    det = _zero_strategy(inst4)
    mix = SharedRandomnessStrategy(components=((Fraction(1), det),))
    assert evaluate_sr(oracle4, mix).total == evaluate_deterministic(inst4, det).total


def test_even_mixture_averages(inst10, oracle10):
    rng = random.Random(5)
    a = random_strategy(rng, oracle10, 3)
    b = random_strategy(rng, oracle10, 3)
    mix = SharedRandomnessStrategy(
        components=((Fraction(1, 2), a), (Fraction(1, 2), b))
    )
    ca = evaluate_deterministic(inst10, a).total
    cb = evaluate_deterministic(inst10, b).total
    assert evaluate_sr(oracle10, mix).total == (ca + cb) / 2


def test_mixture_weights_validated(inst4):
    det = _zero_strategy(inst4)
    with pytest.raises(ValueError):
        SharedRandomnessStrategy(components=((Fraction(1, 2), det),))
    with pytest.raises(ValueError):
        SharedRandomnessStrategy(
            components=((Fraction(0), det), (Fraction(1), det))
        )


def test_hundred_mixtures_never_beat_searched_minimum(inst10, oracle10):
    window = 3
    best = search_deterministic(inst10, window).cost
    rng = random.Random(20240601)
    for _ in range(100):
        n = rng.randint(1, 5)
        weights = random_weights(rng, n)
        comps = tuple(
            (w, random_strategy(rng, oracle10, window, optimal=rng.random() < 0.7))
            for w in weights
        )
        cost = evaluate_sr(oracle10, SharedRandomnessStrategy(components=comps)).total
        assert cost >= best  # exact rational comparison


# -- entangled strategy -------------------------------------------------------------


def test_quantum_cost_exact(bundled, channel):
    inst = make_instance(bundled, 10, 1, channel=channel)
    report = evaluate_quantum(inst)
    assert report.total == Fraction(7, 2)
    assert report.damping == 0
    assert report.max_abs_z == 0
    assert report.branches == 216


@pytest.mark.parametrize("t", [4, 39, 10**6])
def test_quantum_branch_count(bundled, channel, t):
    report = evaluate_quantum(make_instance(bundled, t, 1, channel=channel))
    assert report.branches == 216


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
    # an encoder that returns its d branches 5 times: each copy has
    # probability 1/d and decodes right, so only the k*d^2 ceiling can catch
    # the fault, at 5 * 7/2 = 35/2 >= 16
    inst = make_instance(bundled, 10, 1, channel=channel)
    real = entangled.encoder_branches
    monkeypatch.setattr(entangled, "encoder_branches", lambda ks, m: real(ks, m) * 5)
    with pytest.raises(QuantumDecodeError, match=r"35/2 not below k\*d\^2 = 16"):
        evaluate_quantum(inst)


RUNS = {
    "evaluate_quantum": lambda ks, ch: evaluate_quantum(make_instance(ks, 10, 1, channel=ch)),
    "run_zero_error_quantum": run_zero_error_quantum,
}


@pytest.mark.parametrize("run", [0, 1], ids=["evaluate_quantum", "run_zero_error_quantum"])
def test_quantum_decode_gate_raises(monkeypatch, bundled, channel, run):
    # a decoder that names the right candidate with probability 1/2 leaves
    # every final signal at zero, so only the decode gate can stop the run
    real = entangled.decoder_decode

    def halved(ks, s, residual):
        right, p = real(ks, s, residual)
        return right, p / 2

    monkeypatch.setattr(entangled, "decoder_decode", halved)
    runs = (
        lambda: main(["quantum-run", "--t", "10"]),
        lambda: run_zero_error_quantum(bundled, channel),
    )
    with pytest.raises(QuantumDecodeError, match="with probability 1/2"):
        runs[run]()


def _quantum_reports(bundled, channel):
    return tuple(run(bundled, channel) for run in RUNS.values())


@pytest.mark.parametrize("probability", [Fraction(1, 2), 0.25], ids=["half", "float"])
@pytest.mark.parametrize("run", list(RUNS))
def test_quantum_encoder_probability_gate_raises(monkeypatch, bundled, channel, run, probability):
    # branch (2, 1) announces a wrong probability; the float equals 1/d but
    # is not exact, and must meet the gate rather than an AttributeError
    real = entangled.encoder_branches

    def skewed(ks, m):
        branches = real(ks, m)
        if m == 2:
            branches[1] = branches[1]._replace(probability=probability)
        return branches

    monkeypatch.setattr(entangled, "encoder_branches", skewed)
    with pytest.raises(QuantumDecodeError, match="encoder branch probability") as info:
        RUNS[run](bundled, channel)
    assert info.value.witness == (2, 1, None)


@pytest.mark.parametrize(
    "outcome, witness",
    [(ChannelInput(2, 5), (2, 5, None)), (ChannelInput(3, 1), (2, 1, None))],
    ids=["off-the-grid", "another-message"],
)
@pytest.mark.parametrize("run", list(RUNS))
def test_quantum_encoder_outcome_gate_raises(monkeypatch, bundled, channel, run, outcome, witness):
    # branch (2, 1) of message 2 reports an outcome that is no channel input,
    # or the input of another message; both runs must stop at the encoder,
    # not with a KeyError or by decoding a row the branch never reached
    real = entangled.encoder_branches

    def misplaced(ks, m):
        branches = real(ks, m)
        if m == 2:
            branches[1] = branches[1]._replace(outcome=outcome)
        return branches

    monkeypatch.setattr(entangled, "encoder_branches", misplaced)
    with pytest.raises(QuantumDecodeError, match="is not an input of message 2") as info:
        RUNS[run](bundled, channel)
    assert info.value.witness == witness


def test_quantum_gates_accept_a_fresh_certain_decode(monkeypatch, bundled, channel):
    # the decode gate tests identity with the decoder's shared _ONE first; a
    # probability 1 held in another Fraction must pass it on its value
    expected = _quantum_reports(bundled, channel)
    real = entangled.decoder_decode
    fresh = []

    def fresh_one(ks, s, residual):
        right, p = real(ks, s, residual)
        assert p is _ONE
        fresh.append(Fraction(p.numerator, p.denominator))
        return right, fresh[-1]

    monkeypatch.setattr(entangled, "decoder_decode", fresh_one)
    assert _quantum_reports(bundled, channel) == expected
    assert len(fresh) == 2 * 216 and not any(p is _ONE for p in fresh)


def test_quantum_cost_independent_of_message_distribution(bundled, channel):
    # only the supported messages are walked: 3 of them, 4 * 9 branches each
    inst = make_instance(
        bundled, 10, 1,
        p_m=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0, 0, 0],
        channel=channel,
    )
    report = evaluate_quantum(inst)
    assert report.total == Fraction(7, 2)
    assert report.branches == 108


@pytest.mark.parametrize(
    "name, branches",
    [
        ("ks_6_4_unitary.json", 216),
        ("ks_imaginary_vector.json", 216),
        ("ks_rational_entries.json", 216),
        ("ks_9_4_cabello.json", 504),
    ],
)
def test_quantum_report_is_the_same_at_every_t(name, branches):
    # the walk reads the channel rows, never t, so the whole report at any
    # t >= d is the one at t = d
    ks = load_basis_set(DATA / name)
    ch = build_ks_channel(ks)
    reports = [evaluate_quantum(make_instance(ks, t, 1, channel=ch)) for t in (ks.d, 39, 10**6)]
    assert reports[1:] == reports[:1] * 2
    assert reports[0].branches == branches
    assert (reports[0].damping, reports[0].max_abs_z) == (0, 0)


# -- the per-output c2 minimizer ------------------------------------------------------


def test_point_posterior_cancels_exactly(bundled, channel):
    inst = make_instance(bundled, 10, 1, p_m=[0, 0, 1, 0, 0, 0], channel=channel)
    c1 = {20: 0}
    table = optimal_c2_for_c1(inst, c1)
    assert set(table.values()) == {-20}
    strat = DeterministicStrategy(c1=c1, c2=table)
    assert evaluate_deterministic(inst, strat).damping == 0


def test_two_point_posterior_rounds_half_to_even(bundled, channel, rays):
    # route messages 0 and 1 onto the confusable vertices (0,0) and (1,2):
    # the shared edge sees wire values {0, 7}, mean 7/2, a half-integer tie
    # that must round to the even integer 4, giving c2 = -4 (not -3)
    p_m = [Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0]
    inst = make_instance(bundled, 5, 1, p_m=p_m, channel=channel)
    oracle = Instance(rays, 5, 1, p_m)
    c1 = {0: 0, 5: 2}
    table = optimal_c2_for_c1(inst, c1)
    shared = [
        s
        for s, (mass, _ysum, _ysq) in oracle.moments(c1).items()
        if Fraction(mass, oracle.scale) == Fraction(1, 9)  # two contributors of 1/18 each
    ]
    assert shared
    for s in shared:
        assert table[s] == -4


def test_optimal_c2_matches_brute_force(inst10, oracle10):
    rng = random.Random(99)
    for _ in range(6):
        c1 = random_c1(rng, inst10, 3)
        table = optimal_c2_for_c1(inst10, c1)
        span = 6 * 10 + 3
        brute = oracle10.c2_scan(c1, -span, span)
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


def test_search_matches_plain_enumeration_at_w1(inst10, oracle10):
    # independent oracle: enumerate all 3^6 tables through the checker,
    # tracking the lexicographically first minimum
    best_cost, best_vals = flat_scan(oracle10, 1)
    res = search_deterministic(inst10, 1)
    assert res.cost == best_cost
    assert tuple(res.strategy.c1[x] for _m, x in inst10.support()) == best_vals


# per test channel, the neighbours (m', j') dropped from the rows (m, j) of
# the bundled channel
DROPS = {
    "regular": [],
    # less one confusable pair: two inputs of degree 8 among 22 of 9
    "irregular": [((0, 0), (0, 1)), ((0, 1), (0, 0))],
    # less three pairs at (0, 0) and (1, 0): degrees 7, 8 and 9
    "three-degree": [
        ((0, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (0, 2)),
        ((0, 2), (0, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 0)),
    ],
    # three pairs dropped from one row only: each of those outputs
    # stays in the other endpoint's row, and the pairs sit between
    # inputs that neighbouring messages hit at t = 4 and t = 5
    "asymmetric": [((0, 0), (0, 3)), ((0, 3), (1, 0)), ((1, 1), (0, 2))],
}


@pytest.fixture(scope="module")
def tables(rays):
    """The checker's neighbour table per test channel: the one it reads from
    the ray file, less the channel's dropped pairs."""
    d = rays.d
    return {
        kind: rays.without([(a * d + b, c * d + e) for (a, b), (c, e) in drops])
        for kind, drops in DROPS.items()
    }


@pytest.fixture(scope="module")
def channels(channel, tables):
    """entwit's channel per test channel: the bundled one as entwit builds
    it, and the others built from the checker's tables."""
    return {
        kind: channel if kind == "regular" else finite_channel(table)
        for kind, table in tables.items()
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
def test_search_matches_flat_scan(bundled, channels, tables, kind, t, k, p_m, window):
    inst = make_instance(bundled, t, k, p_m=p_m, channel=channels[kind])
    best_cost, best_vals = flat_scan(Instance(tables[kind], t, k, p_m), window)
    res = search_deterministic(inst, window)
    assert res.complete
    assert res.cost == best_cost
    assert tuple(res.strategy.c1[x] for _m, x in inst.support()) == best_vals


KINDS = ["regular", "irregular", "three-degree", "asymmetric"]


@pytest.mark.parametrize("kind", KINDS)
def test_prefix_evaluator_matches_oracle_cost(bundled, channels, tables, kind):
    # the search only compares costs, so a wrong score can still leave the
    # winner right; walk full tables down the search's own child scoring and
    # score the first two messages and the full table against the checker,
    # with every value pair on the first two (owners
    # that share an output, in either order, with and without wires out of
    # form) and random values on the rest
    rng = random.Random(20130)
    for t, k, p_m, window in [
        (4, Fraction(1), UNIFORM, 3),
        (5, Fraction(7, 3), SKEWED4, 3),
        (6, Fraction(1, 1000), UNIFORM, 3),
        (10, Fraction(1), SKEWED3, 3),
    ]:
        inst = make_instance(bundled, t, k, p_m=p_m, channel=channels[kind])
        oracle = Instance(tables[kind], t, k, p_m)
        evaluator = _PrefixEvaluator(inst, window)
        span = range(-window, window + 1)
        for first in product(span, span):
            values = (*first, *[rng.choice(span) for _ in inst.support()[2:]])
            scaled = 0
            for depth, v in enumerate(values):
                scaled = evaluator.score(depth, v, scaled)
                if depth == 1 or depth + 1 == len(values):
                    prefix = values[:depth + 1]
                    assert evaluator.to_fraction(scaled) == oracle.cost(prefix)
                evaluator.shift(depth, v, 1)
            for depth in reversed(range(len(values))):
                evaluator.shift(depth, values[depth], -1)
            assert (evaluator.ctrl, evaluator.owned, evaluator.out) == (0, {}, [0, 0, 0])


@pytest.mark.parametrize("kind", KINDS)
def test_search_scores_every_child_at_the_checkers_cost(
    monkeypatch, bundled, channels, tables, kind
):
    # the search compares costs only, so a wrong child score can still leave
    # the winner right; record every child it scores, with the prefix the
    # evaluator holds, and score each one again on the checker.  A child of
    # a node the search enters that it does not score is ruled out by the
    # group bound: it must be out of form, its node must have asked for the
    # bound, and it must cost more on the checker than the incumbent then,
    # the least checker cost of a full table scored so far.  At t = 5 every
    # fifth wire is out of form, and with W = 2 out-of-form children meet
    # nodes whose owners share outputs (the bound rules those out) and the
    # root (the bound lets those through to be scored); at t = 4, W = 5 and
    # k = 1/10 in-form children join an owner that shares an output with
    # another; at t = 9, W = 5 and k = 1 the values -4, 4, -5 and 5 are out
    # of form one after another, a run that the search counts in one step
    shift, score = _PrefixEvaluator.shift, _PrefixEvaluator.score
    bound = _PrefixEvaluator.out_of_form_bound
    prefix, scored, entered, asked = [], [], [], {}

    def tracked_shift(self, depth, v, sign):
        shift(self, depth, v, sign)
        if sign > 0:
            prefix.append(v)
            entered.append(tuple(prefix))
        else:
            prefix.pop()

    def recorded_score(self, depth, v, cost):
        got = score(self, depth, v, cost)
        assert depth == len(prefix)
        scored.append(((*prefix, v), self.to_fraction(got)))
        return got

    def recorded_bound(self, depth):
        assert depth == len(prefix) and tuple(prefix) not in asked
        full = [cost for values, cost in scored if len(values) == len(self.messages)]
        asked[tuple(prefix)] = min(full)
        return bound(self, depth)

    monkeypatch.setattr(_PrefixEvaluator, "shift", tracked_shift)
    monkeypatch.setattr(_PrefixEvaluator, "score", recorded_score)
    monkeypatch.setattr(_PrefixEvaluator, "out_of_form_bound", recorded_bound)
    neighbours = tables[kind].neighbours
    shares = joins = outside = ruled_out = longest = 0
    for t, window, k in [(5, 2, Fraction(1, 1000)), (4, 5, Fraction(1, 10)), (9, 5, Fraction(1))]:
        inst = make_instance(bundled, t, k, channel=channels[kind])
        oracle = Instance(tables[kind], t, k)
        scored.clear()
        entered[:] = [()]
        asked.clear()
        res = search_deterministic(inst, window)
        assert not prefix
        children = {}
        for values, cost in scored:
            assert cost == oracle.cost(values), values
            children.setdefault(values[:-1], set()).add(values[-1])
        skipped = []
        for node in entered:
            x = inst.support()[len(node)][1]
            run = 0  # children ruled out one after another in (|v|, v) order
            for v in sorted(range(-window, window + 1), key=lambda v: (abs(v), v)):
                if v in children.get(node, ()):
                    run = 0
                    continue
                assert oracle.input_of(x + v) is None and node in asked, (node, v)
                assert oracle.cost((*node, v)) > asked[node], (node, v)
                skipped.append((*node, v))
                run += 1
                longest = max(longest, run)
        assert len(scored) + len(skipped) == res.candidates_evaluated
        ruled_out += len(skipped)
        for values in [values for values, _cost in scored] + skipped:
            wires = [x + v for (_m, x), v in zip(inst.support(), values)]
            owners = {oracle.input_of(y) for y in wires[:-1]} - {None}
            child = oracle.input_of(wires[-1])
            if child is None:
                shares += any(n in owners for i in owners for n in neighbours[i])
                outside += values not in skipped
            elif child in owners:
                joins += any(n in owners for n in neighbours[child])
    assert shares and joins and outside and ruled_out and longest >= 4


@pytest.mark.parametrize("kind", KINDS)
def test_group_bound_is_the_least_relaxed_cost_of_the_out_of_form_children(
    bundled, channels, tables, kind
):
    # the bound must never exceed the cost of an out-of-form child, or the
    # search would rule out a child it must score; it is the least cost with
    # c2 over the reals, on the checker, over the depth's out-of-form
    # children, whichever side of the vertex that least value is on.  Random
    # prefixes put wires in and out of form, so owners that share outputs
    # meet with and without out-of-form mass
    rng = random.Random(7220)
    neighbours = tables[kind].neighbours
    sides, shares = set(), 0
    for t, k, p_m, window in [
        (4, Fraction(1), UNIFORM, 5),
        (5, Fraction(7, 3), SKEWED4, 4),
        (6, Fraction(1, 1000), UNIFORM, 7),
        (7, Fraction(1, 10), SKEWED3, 9),
        (10, Fraction(1), TIED3, 12),
    ]:
        inst = make_instance(bundled, t, k, p_m=p_m, channel=channels[kind])
        oracle = Instance(tables[kind], t, k, p_m)
        evaluator = _PrefixEvaluator(inst, window)
        support = inst.support()
        for _ in range(40):
            depth = rng.randrange(len(support))
            values = [rng.randint(-window, window) for _ in range(depth)]
            for at, v in enumerate(values):
                evaluator.shift(at, v, 1)
            x = support[depth][1]
            outside = [v for v in range(-window, window + 1) if oracle.input_of(x + v) is None]
            owners = {oracle.input_of(x + v) for (_m, x), v in zip(support, values)} - {None}
            if outside:
                shares += any(n in owners for i in owners for n in neighbours[i])
                num, den = evaluator.out_of_form_bound(depth)
                bound = Fraction(num, den * evaluator.scale_den)
                assert bound <= min(oracle.cost((*values, v)) for v in outside)
                relaxed = {v: oracle.relaxed_cost((*values, v)) for v in outside}
                assert bound == min(relaxed.values()), (t, values)
                least = min(relaxed, key=relaxed.get)
                sides.add((least > min(outside), least < max(outside)))
            for at in reversed(range(depth)):
                evaluator.shift(at, values[at], -1)
    # least values inside the range of out-of-form wires, and at either end
    assert {(True, True), (True, False), (False, True)} <= sides and shares


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t, window", [(4, 3), (5, 2)])
def test_search_visits_the_nodes_of_a_plain_dfs(bundled, channels, tables, kind, t, window):
    # the reports print the node count, so it must be the plain search's:
    # at t = 4 every wire in reach but message 0's is in form and messages
    # share owners; at t = 5 every fifth wire value is out of form
    inst = make_instance(bundled, t, Fraction(1, 1000), channel=channels[kind])
    oracle = Instance(tables[kind], t, Fraction(1, 1000))
    costs = {}
    for budget in (None, 6, 40, 300):
        res = search_deterministic(inst, window, node_budget=budget)
        nodes, complete, cost, values = plain_dfs(oracle, window, budget, costs)
        assert (res.candidates_evaluated, res.complete, res.cost) == (nodes, complete, cost)
        assert tuple(res.strategy.c1[x] for _m, x in inst.support()) == values
        assert complete == (budget is None)


def test_seeded_searches_visit_the_nodes_of_a_plain_dfs(bundled, channels, tables):
    # instances drawn from one seed: the four test channels and the 18-ray
    # set, two to four messages of random probability, t from 4 to 9, k from
    # 1/1000 to 10, and node budgets.  The reports print the node count and
    # the complete flag, so both must be the plain search's.  In some of
    # these the group bound equals the incumbent at a node, and an
    # out-of-form child that costs exactly the incumbent must still be
    # expanded, as at t = 5, k = 1, W = 1 on the asymmetric channel with
    # p = (0, 3/11, 2/11, 3/11, 0, 3/11)
    cabello = load_basis_set(CABELLO_SET)
    sets = {kind: (bundled, channels[kind], tables[kind]) for kind in KINDS}
    sets["cabello"] = (cabello, build_ks_channel(cabello), Channel.from_rays(CABELLO_SET))
    rng = random.Random(2013)
    cases = [("asymmetric", 5, Fraction(1), (0, 3, 2, 3, 0, 3), 1, None)]
    for _ in range(120):
        kind = rng.choice(sorted(sets))
        q = sets[kind][0].q
        weights = [0] * q
        for m in rng.sample(range(q), rng.randint(2, 4)):
            weights[m] = rng.randint(1, 4)
        k = rng.choice([Fraction(1, 1000), Fraction(1, 10), Fraction(1), Fraction(7, 3), 10])
        window = rng.randint(1, 4)
        budget = rng.choice([None, None, rng.randint(4, 300)])
        cases.append((kind, rng.randint(4, 9), k, weights, window, budget))
    incomplete = 0
    for kind, t, k, weights, window, budget in cases:
        ks, channel, table = sets[kind]
        p_m = [Fraction(w, sum(weights)) for w in weights]
        inst = make_instance(ks, t, k, p_m=p_m, channel=channel)
        res = search_deterministic(inst, window, node_budget=budget)
        nodes, complete, cost, values = plain_dfs(Instance(table, t, k, p_m), window, budget)
        assert (res.candidates_evaluated, res.complete, res.cost) == (nodes, complete, cost)
        assert tuple(res.strategy.c1[x] for _m, x in inst.support()) == values
        incomplete += not complete
    assert incomplete


@pytest.mark.parametrize("kind", KINDS)
def test_integer_c2_matches_brute_force(bundled, channels, tables, kind):
    # random tables whose wires land in and out of form, on message
    # distributions with zero-probability messages; at ties the minimizer
    # must be the even one of the two
    rng = random.Random(1212)
    window, outside, ties = 4, 0, 0
    for t, p_m in [(4, UNIFORM), (5, SKEWED4), (5, TIED3), (6, SKEWED3)]:
        inst = make_instance(bundled, t, 1, p_m=p_m, channel=channels[kind])
        oracle = Instance(tables[kind], t, 1, p_m)
        for _ in range(3):
            c1 = random_c1(rng, inst, window)
            outside += sum(oracle.input_of(x + v) is None for x, v in c1.items())
            table = optimal_c2_for_c1(inst, c1)
            # every wire value, so every posterior mean, lies in [-W, (q-1)t + W]
            brute = oracle.c2_scan(c1, -(inst.q - 1) * t - window - 1, window + 1)
            assert table.keys() == brute.keys()
            for s, (minimizers, _cost) in brute.items():
                even = [v for v in minimizers if v % 2 == 0]
                assert table[s] == (min(minimizers) if len(minimizers) == 1 else even[0])
                ties += len(minimizers) == 2
    assert outside and ties


@pytest.mark.parametrize("kind", KINDS)
def test_deterministic_cost_matches_a_fraction_sum(bundled, channels, tables, kind):
    # the re-check sums on integers; against plain Fraction sums over the
    # same branches, on random tables with wires out of form, message
    # distributions with zero-probability messages, and c2 optimal or random
    rng = random.Random(1414)
    outside = 0
    for t, k, p_m in [
        (4, Fraction(1), UNIFORM),
        (5, Fraction(7, 3), SKEWED4),
        (6, Fraction(1, 1000), SKEWED3),
    ]:
        inst = make_instance(bundled, t, k, p_m=p_m, channel=channels[kind])
        oracle = Instance(tables[kind], t, k, p_m)
        for optimal in (True, False):
            strat = random_strategy(rng, oracle, 4, optimal=optimal)
            outside += sum(oracle.input_of(x + v) is None for x, v in strat.c1.items())
            control = sum(
                (inst.p_m[m] * k * strat.c1[x] ** 2 for m, x in inst.support()),
                Fraction(0),
            )
            branches = branch_signals(oracle, strat)
            damping = sum((p * z * z for p, z in branches), Fraction(0))
            max_z = max(abs(z) for _p, z in branches)
            expected = (control + damping, control, damping, len(branches), max_z)
            assert evaluate_deterministic(inst, strat) == expected
    assert outside


def test_output_holder_table_is_built_once_per_instance(bundled, channels):
    # the search's evaluator and the c2 minimizer share one row table, built
    # by whichever comes first, and a second instance on another channel
    # builds its own
    tables = {}
    zeros = {x: 0 for x in range(0, 30, 5)}
    for kind in ("regular", "irregular"):
        inst = make_instance(bundled, 5, Fraction(1, 1000), channel=channels[kind])
        assert inst._table is None
        _PrefixEvaluator(inst, 1)
        table = inst._table
        assert table is not None
        optimal_c2_for_c1(inst, zeros)
        search_deterministic(inst, 1)
        assert inst._table is table
        fresh = make_instance(bundled, 5, 1, channel=channels[kind])
        optimal_c2_for_c1(fresh, zeros)
        built = fresh._table
        _PrefixEvaluator(fresh, 1)
        assert fresh._table is built
        assert built == table
        tables[kind] = table
    assert tables["regular"] != tables["irregular"]


@pytest.mark.parametrize("kind", KINDS + ["cabello"])
def test_row_table_matches_the_checker_neighbours(bundled, channels, tables, kind):
    # per row id i: D/deg(i), and per neighbour n the output {i, n}, n when
    # row n holds it too (else -1), and beta_o, the sum of D/deg over the
    # rows that hold it; the asymmetric channel has outputs of one holder
    if kind == "cabello":
        ks = load_basis_set(CABELLO_SET)
        inst = make_instance(ks, ks.d, 1, channel=build_ks_channel(ks))
        table = Channel.from_rays(CABELLO_SET)
    else:
        inst = make_instance(bundled, bundled.d, 1, channel=channels[kind])
        table = tables[kind]
    nbrs, d = table.neighbours, table.d
    big_d = lcm(*map(len, nbrs))
    share = [big_d // len(row) for row in nbrs]
    rows, got_d, _big_l, _weights = control._row_table(inst)
    assert got_d == big_d
    assert len(rows) == len(nbrs)
    one_holder = 0
    for i, (got_share, outs) in enumerate(rows):
        expected = []
        for n in nbrs[i]:
            other = n if i in nbrs[n] else -1
            one_holder += other < 0
            pair = tuple(ChannelInput(*divmod(e, d)) for e in sorted((i, n)))
            expected.append((pair, share[i] + (share[n] if other >= 0 else 0), other))
        assert (got_share, sorted(outs)) == (share[i], sorted(expected))
    assert (one_holder > 0) == (kind == "asymmetric")
    beta_total = _PrefixEvaluator(inst, 1).beta_total
    assert beta_total == inst.q * inst.d * big_d == sum(Instance(table, d, 1).beta)


@pytest.mark.parametrize("kind", KINDS + ["cabello"])
def test_pzmin_lower_bound_is_pxmin_times_the_least_row_entry(bundled, channels, kind):
    # pzmin_lower_bound reads the largest row degree; the definition it
    # stands for compares every row entry as a Fraction.  The irregular,
    # three-degree and asymmetric channels have rows of unequal degree
    if kind == "cabello":
        ks = load_basis_set(CABELLO_SET)
        ch = build_ks_channel(ks)
    else:
        ks, ch = bundled, channels[kind]
    least = min(min(row.values()) for row in ch.rows.values())
    point = [0] * ks.q
    point[1] = 1
    mixed = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)] + [0] * (ks.q - 3)
    for p_m in (None, point, mixed):
        inst = make_instance(ks, ks.d, 1, p_m=p_m, channel=ch)
        assert pzmin_lower_bound(inst) == pxmin(inst) * least


def test_search_mismatch_gate_raises(monkeypatch, inst10):
    monkeypatch.setattr(
        _PrefixEvaluator, "to_fraction",
        lambda self, scaled: Fraction(scaled + 1, self.scale_den),
    )
    with pytest.raises(SearchMismatchError, match="mismatch"):
        search_deterministic(inst10, 1)
    with pytest.raises(SearchMismatchError, match="mismatch"):
        main(["classical-search", "--t", "10", "--window", "1"])


def test_search_beats_any_supplied_strategy(inst10, oracle10):
    res = search_deterministic(inst10, 3)
    rng = random.Random(17)
    for _ in range(20):
        strat = random_strategy(rng, oracle10, 3)
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


@pytest.mark.parametrize("t,budget", [(4, 13), (39, 120)])
def test_budget_bounds_the_window_columns_not_the_result(bundled, channel, t, budget):
    # no depth gets past |v| <= budget within the budget, so any window past
    # it gives what the window equal to it gives; here the winner moves the
    # last message by -t, far enough that a narrower column range loses it
    inst = make_instance(bundled, t, Fraction(1, 1000), channel=channel)
    ref = search_deterministic(inst, budget, node_budget=budget)
    assert not ref.complete
    assert ref.strategy.c1[5 * t] == -t
    for window in (budget + 1, 3 * budget, 10**4):
        res = search_deterministic(inst, window, node_budget=budget)
        assert res == ref, window


def test_best_in_window_cost_non_decreasing_in_t(bundled, channel):
    costs = []
    for t in (4, 8, 16, 32, 64):
        inst = make_instance(bundled, t, 1, channel=channel)
        costs.append(search_deterministic(inst, 4).cost)
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_budgets_at_the_edges_of_the_runs_counted_in_one_step(bundled, channel, rays):
    # at t = 39, k = 1 and W = 12 a message's values past |v| = 3 are out of
    # form, 18 in a row, and the group bound rules most of them out, so the
    # search counts each such run with one addition.  A budget that ends at
    # a run's first child, one short of its end, at its end or one past must
    # stop the search where a plain depth-first search stops: the same
    # count, complete flag, cost and table.  The plain search scores each
    # prefix once, so its memo holds every prefix in the order it counts
    # them, and a run is a stretch of out-of-form siblings in that order.
    # At t = 6, k = 10 and W = 10 the root rules out its own out-of-form
    # children, so the search ends on a counted run: every budget is tried
    # there, and one of exactly the full count must leave the search complete
    for t, k, window in [(39, 1, 12), (6, 10, 10)]:
        inst = make_instance(bundled, t, k, channel=channel)
        oracle = Instance(rays, t, k)
        costs = {}
        total, complete, _cost, _values = plain_dfs(oracle, window, None, costs)
        visits = list(costs)
        assert complete and len(visits) == total

        def out_of_form(values):
            return oracle.input_of(oracle.support()[len(values) - 1][1] + values[-1]) is None

        # every budget when the search is small, else the edges of each run
        budgets = set(range(total + 2)) if total < 200 else {total - 1, total, total + 1}
        runs = start = 0
        while start < total:
            end = start
            while (
                end + 1 < total
                and out_of_form(visits[start])
                and out_of_form(visits[end + 1])
                and visits[end + 1][:-1] == visits[start][:-1]
            ):
                end += 1
            if end - start >= 2:
                # visits start .. end are counts start + 1 .. end + 1
                runs += 1
                budgets |= {start + 1, end, end + 1, end + 2}
            start = end + 1
        assert runs and out_of_form(visits[-1])
        for budget in sorted(b for b in budgets if b >= len(inst.support())):
            res = search_deterministic(inst, window, node_budget=budget)
            expected = plain_dfs(oracle, window, budget, costs)
            assert (res.candidates_evaluated, res.complete, res.cost) == expected[:3], budget
            assert tuple(res.strategy.c1[x] for _m, x in inst.support()) == expected[3], budget
