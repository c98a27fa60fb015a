"""Bound formulas, the strategy-to-code reduction, and the certificate.

Claims covered:
    - minimum-probability extractors give 1/6 and 1/54 on the bundled
      uniform instance, and the latter lower-bounds every realized
      final-signal probability for strategies whose wire stays in form
    - the bound set satisfies its defining formulas exactly and reproduces
      the closed forms sqrt(6M), sqrt(54M), 20*sqrt(M)+1 for the concrete
      parameters
    - encoding is m*t + c1(m*t); decoding rounds -c2(s)/t, flagging exact
      half-integer estimates as ties instead of resolving them silently
    - whenever every branch has |m - eta| < 1/2 the reduction yields a
      verified zero-error code on all supported messages (non-vacuously
      exercised on a five-message sub-instance), and any full-support
      strategy's code fails, matching the capacity bound
    - certificates are deterministic across runs, and the
      vacuous / window-insufficient / budget-truncated paths never certify
    - the certificate reaches M = 10, 20, 40 at their threshold scales, with
      each winning table's cost confirmed by the oracle evaluator
"""

import math
import random
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
from entwit.channel import verify_zero_error
from entwit.control import (
    DeterministicStrategy,
    evaluate_deterministic,
    make_instance,
    optimal_c2_for_c1,
)

from helpers import decoder_estimates_exact, oracle_cost, random_c1, random_strategy


@pytest.fixture(scope="module")
def inst10(bundled, channel):
    return make_instance(bundled, 10, 1, channel=channel)


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


def test_pzmin_bounds_realized_probabilities_in_form(inst10):
    # random strategies whose wire stays in channel form (c1 values in [0, d))
    rng = random.Random(424242)
    bound = pzmin_lower_bound(inst10)
    for _ in range(20):
        strat = random_strategy(rng, inst10, 3, optimal=rng.random() < 0.5, lo=0)
        report = evaluate_deterministic(inst10, strat)
        z_mass = {}
        for tr in report.traces:
            z_mass[tr.z] = z_mass.get(tr.z, Fraction(0)) + tr.probability
        assert min(z_mass.values()) >= bound


# -- bound formulas --------------------------------------------------------------


def test_compute_bounds_direct_substitution():
    b = compute_bounds(6, 1, Fraction(1, 6), Fraction(1, 54))
    assert b.m_x_sq == 36
    assert b.m_x == 6.0
    assert b.window_required == 6
    assert b.window_default == 6


def test_compute_bounds_formulas_exact():
    for m in (Fraction(1), Fraction(7, 2), Fraction(6), Fraction(100)):
        b = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54))
        assert b.m_x_sq == m / (1 * Fraction(1, 6))
        assert b.m_z_sq == m / Fraction(1, 54)
        assert b.m_x == pytest.approx(math.sqrt(6 * m), abs=1e-12)
        assert b.m_z == pytest.approx(math.sqrt(54 * m), abs=1e-12)
        assert b.t0 == pytest.approx(2 * (b.m_x + b.m_z) + 1, abs=1e-12)
        # the closed forms hold at these concrete parameters
        assert b.m_x <= math.sqrt(6 * m) + 1e-12
        assert b.m_z <= math.sqrt(54 * m) + 1e-12
        assert b.t0 <= 20 * math.sqrt(m) + 1 + 1e-12
        assert b.closed_t0 == pytest.approx(20 * math.sqrt(m) + 1, abs=1e-12)


def test_bounds_at_m_one():
    b = compute_bounds(1, 1, Fraction(1, 6), Fraction(1, 54))
    assert b.m_x == pytest.approx(math.sqrt(6), abs=1e-12)
    assert b.m_z == pytest.approx(math.sqrt(54), abs=1e-12)
    assert b.t0 == pytest.approx(2 * (math.sqrt(6) + math.sqrt(54)) + 1, abs=1e-12)
    assert b.t0 <= 21


def test_certificate_scale_for_m_three_and_a_half():
    b = compute_bounds(Fraction(7, 2), 1, Fraction(1, 6), Fraction(1, 54))
    assert b.closed_t0 < 39
    assert b.suggested_t(4) == 39
    assert b.window_required == 4  # floor(sqrt(21))
    assert b.window_default == 5  # ceil(sqrt(21))


def test_no_closed_forms_off_the_concrete_parameters():
    b = compute_bounds(2, 2, Fraction(1, 6), Fraction(1, 54))
    assert b.closed_t0 is None
    assert b.suggested_t(4) == math.ceil(b.t0)


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
    some_output = sorted(inst10.nt.output_distribution(0))[0]
    strat = DeterministicStrategy(c1=c1, c2={some_output: -31})
    code = strategy_to_code(inst10, strat)
    assert code.decoder[some_output] == 3  # eta = 3.1
    assert some_output not in code.ties


def test_half_integer_eta_is_flagged(inst10):
    c1 = {x: 0 for _m, x in inst10.support()}
    some_output = sorted(inst10.nt.output_distribution(0))[0]
    strat = DeterministicStrategy(c1=c1, c2={some_output: -25})
    code = strategy_to_code(inst10, strat)
    assert some_output in code.ties  # eta = 2.5
    assert code.decoder[some_output] == 2  # half-even, surfaced above


def test_exact_estimates_give_zero_error_code(bundled, channel):
    # five messages routed onto the pairwise non-confusable vertices (m, 0),
    # m = 0..4: no shared outputs, so the posterior pins the wire exactly,
    # |m - eta| < 1/2 everywhere, and the reduction must verify
    inst = make_instance(
        bundled, 39, 1, p_m=[Fraction(1, 5)] * 5 + [0], channel=channel
    )
    c1 = {x: 0 for _m, x in inst.support()}
    strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
    assert decoder_estimates_exact(inst, strat)
    code = strategy_to_code(inst, strat)
    assert len(code.messages) == 5
    assert not code.ties
    assert verify_zero_error(inst.nt, code).is_zero_error


def test_full_support_reduction_always_fails(bundled, channel):
    # with all six messages, a zero-error code would need six pairwise
    # non-confusable codewords, one more than the independence number allows
    inst = make_instance(bundled, 39, 1, channel=channel)
    rng = random.Random(7)
    for _ in range(10):
        c1 = random_c1(rng, inst, 4)
        strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
        assert not decoder_estimates_exact(inst, strat)
        verdict = verify_zero_error(inst.nt, strategy_to_code(inst, strat))
        assert not verdict.is_zero_error


def test_reduction_soundness_on_random_sample(bundled, channel):
    # the conditional form: anything passing the estimate premise verifies
    inst = make_instance(bundled, 39, 1, channel=channel)
    rng = random.Random(123)
    for _ in range(25):
        c1 = random_c1(rng, inst, 4)
        strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
        if decoder_estimates_exact(inst, strat):
            assert verify_zero_error(inst.nt, strategy_to_code(inst, strat)).is_zero_error


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
def test_certificate_reaches_larger_bounds(
    bundled, channel, m_bound, t, window, minimum
):
    cert = certify_separation(bundled, 1, m_bound)
    assert cert.status == "certified" and cert.certified
    assert (cert.t, cert.window) == (t, window)
    assert cert.search.complete and cert.search.cost == minimum
    inst = make_instance(bundled, t, 1, channel=channel)
    values = tuple(cert.search.strategy.c1[x] for _m, x in inst.support())
    assert all(abs(v) <= window for v in values)
    assert oracle_cost(inst, values) == minimum
