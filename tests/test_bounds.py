"""Bound formulas, the strategy-to-code reduction, and the certificate.

Claims covered:
    - minimum-probability extractors give 1/6 and 1/54 on the bundled
      uniform instance, and the latter lower-bounds every realized
      final-signal probability for strategies whose wire stays in form
    - the bound set satisfies its defining formulas exactly: M_X^2 = 6M and
      M_Z^2 = 54M at the concrete parameters, where the closed scale rule
      (t - 1)^2 >= 400*M never picks a smaller t than the general rule
    - encoding is m*t + c1(m*t); decoding rounds -c2(s)/t, flagging exact
      half-integer estimates as ties instead of resolving them silently; on
      seeded c2 in [-3t, 3t] at five scales the integer rounding and tie
      test agree with Fraction's round and denominator
    - whenever every branch has |m - eta| < 1/2 the reduction yields a
      verified zero-error code on all supported messages (non-vacuously
      exercised on a five-message sub-instance), and any full-support
      strategy's code fails, matching the capacity bound
    - certificates are deterministic across runs, and the
      vacuous / window-insufficient / budget-truncated paths never certify
    - the reduction's witness prints as JSON, a missing decoder entry as null
    - the certificate reaches M = 10, 20, 40 at their threshold scales, with
      each winning table's cost confirmed by the integer checker, and M =
      40000 at t = 4001, W = 490 after the 1 040 841 prefixes of the search
      that scored every child, at minimum 3996064/27, and M = 10^6 at t =
      20001, W = 2450 after its 24 411 881 prefixes, at minimum 11108896/3
"""

import math
import random
import time
from fractions import Fraction

import pytest

from entwit.bounds import (
    certify_separation,
    compute_bounds,
    format_certificate,
    pxmin,
    pzmin_lower_bound,
    strategy_to_code,
)
from entwit.channel import ZeroErrorVerdict, verify_zero_error
from entwit.control import (
    DeterministicStrategy,
    make_instance,
    optimal_c2_for_c1,
)

from checker import Instance
from helpers import (
    branch_signals,
    decoder_estimates_exact,
    random_c1,
    random_strategy,
)


@pytest.fixture(scope="module")
def inst10(bundled, channel):
    return make_instance(bundled, 10, 1, channel=channel)


@pytest.fixture(scope="module")
def oracle10(rays):
    return Instance(rays, 10, 1)


# -- minimum probabilities ----------------------------------------------------


def test_pxmin_values(bundled, channel, inst10):
    assert pxmin(inst10) == Fraction(1, 6)
    point = make_instance(bundled, 10, 1, p_m=[0, 1, 0, 0, 0, 0], channel=channel)
    assert pxmin(point) == 1
    mixed = make_instance(
        bundled, 10, 1,
        p_m=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0, 0, 0],
        channel=channel,
    )
    assert pxmin(mixed) == Fraction(1, 4)


def test_pzmin_lower_bound_values(bundled, channel, inst10):
    assert pzmin_lower_bound(inst10) == Fraction(1, 54)
    point = make_instance(bundled, 10, 1, p_m=[0, 1, 0, 0, 0, 0], channel=channel)
    assert pzmin_lower_bound(point) == Fraction(1, 9)
    mixed = make_instance(
        bundled, 10, 1,
        p_m=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0, 0, 0],
        channel=channel,
    )
    assert pzmin_lower_bound(mixed) == Fraction(1, 36)


def test_pzmin_bounds_realized_probabilities_in_form(inst10, oracle10):
    # random strategies whose wire stays in channel form (c1 values in [0, d))
    rng = random.Random(424242)
    bound = pzmin_lower_bound(inst10)
    for _ in range(20):
        strat = random_strategy(rng, oracle10, 3, optimal=rng.random() < 0.5, lo=0)
        z_mass = {}
        for probability, z in branch_signals(oracle10, strat):
            z_mass[z] = z_mass.get(z, Fraction(0)) + probability
        assert min(z_mass.values()) >= bound


# -- bound formulas --------------------------------------------------------------


def test_compute_bounds_direct_substitution():
    b = compute_bounds(6, 1, Fraction(1, 6), Fraction(1, 54))
    assert b.m_x_sq == 36
    assert b.window_required == 6
    assert b.window_default == 6


def test_compute_bounds_formulas_exact():
    for m in (Fraction(1), Fraction(7, 2), Fraction(6), Fraction(100)):
        b = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54))
        assert b.m_x_sq == m / (1 * Fraction(1, 6))
        assert b.m_z_sq == m / Fraction(1, 54)
        # the closed forms hold at these concrete parameters: M_X^2 = 6M,
        # M_Z^2 = 54M, and 2*(M_X + M_Z) + 1 <= 20*sqrt(M) + 1, squared twice
        # as 2*sqrt(a*z) <= 100*M - a - z
        a, z = b.m_x_sq, b.m_z_sq
        assert (a, z) == (6 * m, 54 * m)
        gap = 100 * m - a - z
        assert gap >= 0 and 4 * a * z <= gap * gap


def test_bounds_at_m_one():
    # 2*(sqrt(6) + sqrt(54)) + 1 = 8*sqrt(6) + 1 <= 21, as 384 <= 400
    b = compute_bounds(1, 1, Fraction(1, 6), Fraction(1, 54))
    assert (b.m_x_sq, b.m_z_sq) == (6, 54)
    assert _first_covering_t(4, _general_rule(b.m_x_sq, b.m_z_sq)) == 21
    assert b.suggested_t(4) == 21


def test_certificate_scale_for_m_three_and_a_half():
    # the closed rule asks (t - 1)^2 >= 1400, so 38^2 = 1444 gives t = 39
    b = compute_bounds(Fraction(7, 2), 1, Fraction(1, 6), Fraction(1, 54))
    assert (38**2 >= 400 * b.m_bound) and not (37**2 >= 400 * b.m_bound)
    assert b.suggested_t(4) == 39
    assert b.window_required == 4  # floor(sqrt(21))
    assert b.window_default == 5  # ceil(sqrt(21))


def test_no_closed_forms_off_the_concrete_parameters():
    b = compute_bounds(2, 2, Fraction(1, 6), Fraction(1, 54))
    general = _first_covering_t(4, _general_rule(b.m_x_sq, b.m_z_sq))
    closed = _first_covering_t(4, _closed_rule(b.m_bound))
    assert b.suggested_t(4) == general != closed


def _ceil_sqrt(x: Fraction) -> int:
    """Smallest integer r >= 0 with r^2 >= x, in integers."""
    n = -(-x.numerator // x.denominator)  # r^2 >= x iff r^2 >= ceil(x)
    return 0 if n <= 0 else math.isqrt(n - 1) + 1


def test_closed_path_scale_matches_integer_oracle():
    # the smallest t >= d with (t - 1)^2 >= 400*M; at M = n^2/400 that is n + 1
    rng = random.Random(2013)
    bounds = [Fraction(n * n, 400) for n in range(1, 2001)]
    bounds += [Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for _ in range(200)]
    for m in bounds:
        b = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54))
        assert b.suggested_t(4) == max(4, _ceil_sqrt(400 * m) + 1), m


def test_general_path_scale_matches_exact_threshold():
    # M = 54u^2 and k = (p/q)^2 make M_X = 18uq/p and M_Z = 54u rational, so
    # the threshold t0 = 2*(M_X + M_Z) + 1 is exact and t = max(d, ceil(t0))
    cases = [(Fraction(17, 90), 1, 12)]  # t0 = 2*(204/5 + 51/5) + 1 = 103
    cases += [
        (Fraction(a, b), p, q)
        for a in range(1, 8) for b in (1, 3, 10, 90)
        for p in range(1, 5) for q in range(1, 5) if p != q
    ]
    for u, p, q in cases:
        k = Fraction(p * p, q * q)
        b = compute_bounds(54 * u * u, k, Fraction(1, 6), Fraction(1, 54))
        t0 = 2 * (18 * u * q / p + 54 * u) + 1
        assert b.suggested_t(4) == max(4, math.ceil(t0)), (u, p, q)
    b = compute_bounds(Fraction(289, 150), Fraction(1, 144), Fraction(1, 6), Fraction(1, 54))
    assert b.suggested_t(4) == 103


def _first_covering_t(d, covers):
    t = d
    while not covers(t):
        t += 1
    return t


def _closed_rule(m):
    return lambda t: (t - 1) ** 2 >= 400 * m


def _general_rule(a, b):
    """(t - 1)/2 >= M_X + M_Z, squared as x^2 + a - b >= 2x*sqrt(a)."""

    def covers(t):
        x_sq = Fraction((t - 1) ** 2, 4)
        c = x_sq + a - b
        return x_sq >= a and c >= 0 and c * c >= 4 * x_sq * a

    return covers


def test_closed_rule_never_picks_a_smaller_scale_than_the_general_rule():
    # sqrt(6M) + sqrt(54M) = 4*sqrt(6M) <= 10*sqrt(M), so at k = 1 the
    # closed rule covers the general one and its t is never below it
    rng = random.Random(35)
    bounds = [Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for _ in range(200)]
    for m in bounds:
        b = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54))
        general = _first_covering_t(4, _general_rule(b.m_x_sq, b.m_z_sq))
        assert b.suggested_t(4) >= general, m


def test_scale_matches_brute_force_scan():
    # the smallest t >= d found by scanning t upward from d
    rng = random.Random(300)
    bounds = [Fraction(n, 7) for n in range(1, 150)]
    bounds += [Fraction(rng.randint(1, 2000), rng.randint(1, 50)) for _ in range(30)]
    for m in bounds:
        b = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54))
        assert b.suggested_t(4) == _first_covering_t(4, _closed_rule(m)), m
        for k in (Fraction(1, 10), Fraction(7, 3)):
            b = compute_bounds(m, k, Fraction(1, 6), Fraction(1, 54))
            covers = _general_rule(b.m_x_sq, b.m_z_sq)
            assert b.suggested_t(4) == _first_covering_t(4, covers), (m, k)


def test_scale_at_a_bound_of_ten_to_the_300():
    # a float seed put the walk about 10^135 steps from the answer
    m = Fraction(10**300)
    start = time.perf_counter()
    t = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54)).suggested_t(4)
    b = compute_bounds(m, 2, Fraction(1, 6), Fraction(1, 54))
    t_general = b.suggested_t(4)
    assert time.perf_counter() - start < 0.5
    assert (t - 1) ** 2 >= 400 * m > (t - 2) ** 2
    a, z = b.m_x_sq, b.m_z_sq
    for u, covered in ((t_general, True), (t_general - 1, False)):
        gap = Fraction((u - 1) ** 2, 4) - a - z
        assert (gap >= 0 and gap * gap >= 4 * a * z) is covered


def test_scale_unchanged_at_the_reference_bounds():
    ms = [Fraction(7, 2), 10, 20, 40, 1000]
    scales = [
        compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54)).suggested_t(4) for m in ms
    ]
    assert scales == [39, 65, 91, 128, 634]


def test_bounds_reject_nonpositive():
    with pytest.raises(ValueError):
        compute_bounds(0, 1, Fraction(1, 6), Fraction(1, 54))
    with pytest.raises(ValueError):
        compute_bounds(1, 1, Fraction(0), Fraction(1, 54))


# -- the reduction -----------------------------------------------------------------


def test_encoder_formula(inst10):
    c1 = {x: 0 for _m, x in inst10.support()}
    c1[30] = 2
    code = strategy_to_code(inst10, DeterministicStrategy(c1=c1, c2={}))
    assert code.encoder[3] == 32


def test_decoder_rounds_eta(bundled, channel, inst10):
    c1 = {x: 0 for _m, x in inst10.support()}
    some_output = sorted(inst10.output_distribution(0))[0]
    strat = DeterministicStrategy(c1=c1, c2={some_output: -31})
    code = strategy_to_code(inst10, strat)
    assert code.decoder[some_output] == 3  # eta = 3.1
    assert some_output not in code.ties


def test_half_integer_eta_is_flagged(inst10):
    c1 = {x: 0 for _m, x in inst10.support()}
    some_output = sorted(inst10.output_distribution(0))[0]
    strat = DeterministicStrategy(c1=c1, c2={some_output: -25})
    code = strategy_to_code(inst10, strat)
    assert some_output in code.ties  # eta = 2.5
    assert code.decoder[some_output] == 2  # half-even, surfaced above


@pytest.mark.parametrize("t", [4, 5, 8, 39, 40])
def test_decoder_and_ties_follow_the_fraction_rule(bundled, channel, t):
    # the decoder rounds -c2/t in integers; the rule it stands for is
    # Fraction's half-to-even round, with a tie wherever -c2/t has
    # denominator 2.  Seeded c2 in [-3t, 3t] on every reachable output, with
    # the ends, zero and (at even t) exact halves of both signs forced in
    inst = make_instance(bundled, t, 1, channel=channel)
    c1 = {x: 0 for _m, x in inst.support()}
    outputs = sorted({s for _m, x in inst.support() for s in inst.output_distribution(x)})
    rng = random.Random(2600 + t)
    forced = [-3 * t, 3 * t, 0, -1, 1]
    if t % 2 == 0:
        forced += [-t // 2, t // 2, -5 * t // 2, 3 * t // 2]
    values = forced + [rng.randint(-3 * t, 3 * t) for _ in outputs[len(forced):]]
    c2 = dict(zip(outputs, values))
    code = strategy_to_code(inst, DeterministicStrategy(c1=c1, c2=c2))
    eta = {s: Fraction(-c2[s], t) for s in outputs}
    assert code.decoder == {s: round(e) for s, e in eta.items()}
    assert code.ties == tuple(s for s in outputs if eta[s].denominator == 2)
    assert bool(code.ties) == (t % 2 == 0)


def test_exact_estimates_give_zero_error_code(bundled, channel, rays):
    # five messages routed onto the pairwise non-confusable vertices (m, 0),
    # m = 0..4: no shared outputs, so the posterior pins the wire exactly,
    # |m - eta| < 1/2 everywhere, and the reduction must verify
    p_m = [Fraction(1, 5)] * 5 + [0]
    inst = make_instance(bundled, 39, 1, p_m=p_m, channel=channel)
    c1 = {x: 0 for _m, x in inst.support()}
    strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
    assert decoder_estimates_exact(Instance(rays, 39, 1, p_m), strat)
    code = strategy_to_code(inst, strat)
    assert len(code.messages) == 5
    assert not code.ties
    assert verify_zero_error(inst, code).status == "zero_error"


def test_full_support_reduction_always_fails(bundled, channel, rays):
    # with all six messages, a zero-error code would need six pairwise
    # non-confusable codewords, one more than the independence number allows
    inst = make_instance(bundled, 39, 1, channel=channel)
    oracle = Instance(rays, 39, 1)
    rng = random.Random(7)
    for _ in range(10):
        c1 = random_c1(rng, inst, 4)
        strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
        assert not decoder_estimates_exact(oracle, strat)
        verdict = verify_zero_error(inst, strategy_to_code(inst, strat))
        assert verdict.status != "zero_error"


def test_reduction_soundness_on_random_sample(bundled, channel, rays):
    # the conditional form: anything passing the estimate premise verifies
    inst = make_instance(bundled, 39, 1, channel=channel)
    oracle = Instance(rays, 39, 1)
    rng = random.Random(123)
    for _ in range(25):
        c1 = random_c1(rng, inst, 4)
        strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
        if decoder_estimates_exact(oracle, strat):
            verdict = verify_zero_error(inst, strategy_to_code(inst, strat))
            assert verdict.status == "zero_error"


# -- certificates -------------------------------------------------------------------


def test_vacuous_bound_reported(bundled):
    cert = certify_separation(bundled, 1, 1)  # entangled cost is 3.5 > 1
    assert cert.status == "vacuous"
    assert not cert.certified
    assert cert.search is None


def test_window_override_below_requirement_never_certifies(bundled):
    cert = certify_separation(bundled, 1, Fraction(7, 2), window=2)
    assert cert.status == "window-insufficient"
    assert not cert.certified
    assert cert.search is not None and cert.search.complete


def test_budget_truncation_is_inconclusive(bundled):
    cert = certify_separation(bundled, 1, Fraction(7, 2), window=4, node_budget=500)
    assert cert.status == "inconclusive"
    assert not cert.certified
    # 500 prefixes found a table, not the minimum, and the report says so
    text = format_certificate(cert)
    assert "classical-in-window-minimum" not in text
    assert "has minimum" not in text
    assert f"classical-in-window-best-found: {cert.search.cost} " in text
    assert "stopped at the node budget after 500 prefixes" in text


def test_reduction_witness_is_printed_as_json(bundled):
    # a missing decoder entry is null; an output prints as its two
    # endpoints' (m, j) labels
    cert = certify_separation(bundled, 1, Fraction(7, 2), window=2)
    output = (3 * 4 + 1, 4 * 4 + 0)
    verdict = ZeroErrorVerdict("incomplete_decoder", (3, output, None))
    text = format_certificate(cert._replace(reduction=verdict))
    line = "reduction-verdict: incomplete_decoder witness=[3, [[3, 1], [4, 0]], null]"
    assert f"\n{line}\n" in text


def test_certificate_deterministic_across_runs_and_workers(bundled):
    a = certify_separation(bundled, 1, Fraction(7, 2), window=4)
    b = certify_separation(bundled, 1, Fraction(7, 2), window=4)
    assert a.certified and b.certified
    assert format_certificate(a) == format_certificate(b)
    assert a.search.strategy == b.search.strategy
    assert a.t == 39 and a.window == 4
    assert a.reduction is not None and a.reduction.status != "zero_error"


@pytest.mark.parametrize(
    "m_bound, t, window, minimum",
    [
        (10, 65, 8, Fraction(1024, 27)),
        (20, 91, 11, Fraction(1999, 27)),
        (40, 128, 16, Fraction(7939, 54)),
    ],
)
def test_certificate_reaches_larger_bounds(bundled, rays, m_bound, t, window, minimum):
    cert = certify_separation(bundled, 1, m_bound)
    assert cert.status == "certified" and cert.certified
    assert (cert.t, cert.window) == (t, window)
    assert cert.search.complete and cert.search.cost == minimum
    oracle = Instance(rays, t, 1)
    values = tuple(cert.search.strategy.c1[x] for _m, x in oracle.support())
    assert all(abs(v) <= window for v in values)
    assert oracle.cost(values) == minimum


def test_certificate_at_a_bound_of_forty_thousand(bundled, rays):
    # the search's node count is printed, so the group bound must leave it
    # at the count of the search that scored every child it ruled out
    cert = certify_separation(bundled, 1, 40000)
    assert cert.status == "certified" and cert.certified
    assert (cert.t, cert.window) == (4001, 490)
    assert cert.search.complete and cert.search.cost == Fraction(3996064, 27)
    assert cert.search.candidates_evaluated == 1040841
    oracle = Instance(rays, 4001, 1)
    values = tuple(cert.search.strategy.c1[x] for _m, x in oracle.support())
    assert values == (3, 0, 2, 0, 0, 1)
    assert oracle.cost(values) == cert.search.cost


def test_certificate_at_a_bound_of_a_million(bundled, rays):
    # most nodes here rule out runs of thousands of out-of-form children,
    # each counted in one step; the count stays that of the search that
    # scored every child (about 2 s before runs were counted at once)
    cert = certify_separation(bundled, 1, 10**6)
    assert cert.status == "certified" and cert.certified
    assert (cert.t, cert.window) == (20001, 2450)
    assert cert.search.complete and cert.search.cost == Fraction(11108896, 3)
    assert cert.search.candidates_evaluated == 24411881
    oracle = Instance(rays, 20001, 1)
    values = tuple(cert.search.strategy.c1[x] for _m, x in oracle.support())
    assert values == (3, 0, 2, 0, 0, 1)
    assert oracle.cost(values) == cert.search.cost
