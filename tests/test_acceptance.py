"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
every criterion asserts at its stated tolerance (exact rational comparisons
unless a float tolerance is named).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from entwit.bounds import certify_separation, compute_bounds, strategy_to_code
from entwit.channel import confusability_graph, independence_number, verify_zero_error
from entwit.control import (
    DeterministicStrategy,
    evaluate_deterministic,
    evaluate_quantum,
    make_instance,
    optimal_c2_for_c1,
)
from entwit.entangled import run_zero_error_quantum
from entwit.ks import validate_basis_set, verify_ks_property

from helpers import (
    SharedRandomnessStrategy,
    brute_force_c2,
    code_from_independent_set,
    decoder_estimates_exact,
    degree,
    evaluate_sr,
    has_independent_subset,
    random_c1,
    random_weights,
)


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def certificate(bundled):
    """The full default-parameter certificate, shared by criteria 7 - 9."""
    start = time.perf_counter()
    cert = certify_separation(bundled, 1, Fraction(7, 2))
    return cert, time.perf_counter() - start


def test_criterion_01_ks_verification(bundled):
    start = time.perf_counter()
    valid = validate_basis_set(bundled).passed
    result = verify_ks_property(bundled)
    elapsed = time.perf_counter() - start
    ok = (
        valid
        and result.holds
        and result.traversals_checked == 4096
        and elapsed < 1.0
    )
    _criterion(
        1, "bundled (6,4) set validates and has the traversal property",
        ok, f"4096 traversals in {elapsed:.3f}s",
    )


def test_criterion_02_channel_structure(channel):
    row_ok = all(
        len(channel.rows[i]) == 9
        and set(channel.rows[i].values()) == {Fraction(1, 9)}
        for i in channel.inputs
    )
    g = confusability_graph(channel)
    ok = (
        len(channel.inputs) == 24
        and row_ok
        and len(channel.outputs) == 108
        and len(g.edges) == 108
        and all(degree(g, v) == 9 for v in g.vertices)
    )
    _criterion(
        2, "channel: 24 inputs, 9 outputs each at 1/9, 108 edges, 9-regular", ok
    )


def test_criterion_03_classical_capacity(channel, graph):
    start = time.perf_counter()
    alpha, witness = independence_number(graph)
    code = code_from_independent_set(channel, witness)
    verdict = verify_zero_error(channel, code)
    found6, _w, scanned = has_independent_subset(graph, 6)
    elapsed = time.perf_counter() - start
    ok = (
        alpha == 5
        and len(code.messages) == 5
        and verdict.is_zero_error
        and not found6
        and scanned == 134596
        and elapsed < 10.0
    )
    _criterion(
        3, "independence number 5 = q-1, verified 5-message code, no 6-subset",
        ok, f"{scanned} subsets in {elapsed:.2f}s",
    )


def test_criterion_04_quantum_zero_error(bundled, channel):
    report = run_zero_error_quantum(bundled, channel)
    ok = (
        report.all_correct
        and report.total_branches == 216
        and report.messages_sent == 6
        and report.messages_sent > 5
        and set(report.per_message_mass) == {Fraction(1)}
    )
    _criterion(4, "entangled coding: all 216 branches decode, 6 > 5 messages", ok)


def test_criterion_05_quantum_control_cost(bundled, channel):
    costs = []
    zero_signal = True
    for t in (4, 10, 100, 10**6):
        report = evaluate_quantum(make_instance(bundled, t, 1, channel=channel))
        costs.append(report.total)
        zero_signal = zero_signal and report.max_abs_z == 0 and all(
            tr.z == 0 for tr in report.traces
        )
    ok = (
        zero_signal
        and set(costs) == {Fraction(7, 2)}
        and all(c < 16 for c in costs)
    )
    _criterion(
        5, "entangled cost exactly 7/2 with zero final signal, constant in t",
        ok, "t in {4, 10, 100, 10^6}",
    )


def test_criterion_06_bound_formulas():
    ok = True
    for m in (Fraction(1), Fraction(7, 2), Fraction(6), Fraction(100)):
        b = compute_bounds(m, 1, Fraction(1, 6), Fraction(1, 54))
        ok = ok and b.m_x_sq == 6 * m and b.m_z_sq == 54 * m
        ok = ok and abs(b.m_x - math.sqrt(6 * m)) <= 1e-12
        ok = ok and abs(b.m_z - math.sqrt(54 * m)) <= 1e-12
        ok = ok and b.t0 <= 20 * math.sqrt(m) + 1 + 1e-12
        ok = ok and abs(b.closed_t0 - (20 * math.sqrt(m) + 1)) <= 1e-12
    _criterion(
        6, "M_X = sqrt(6M), M_Z = sqrt(54M), t0 <= 20*sqrt(M)+1 for four M", ok
    )


def test_criterion_07_separation_certificate(certificate):
    cert, elapsed = certificate
    ok = (
        cert.certified
        and cert.status == "certified"
        and cert.t == 39
        and cert.window == 5  # ceil(sqrt(21))
        and cert.search.complete
        and cert.search.cost > Fraction(7, 2)
        and cert.quantum_cost == Fraction(7, 2)
        and elapsed < 300.0
    )
    detail = (
        f"t={cert.t}, W={cert.window}, classical minimum {cert.search.cost} "
        f"> 7/2, {elapsed:.1f}s single-worker"
    )
    _criterion(7, "exhaustive in-window search certifies the separation", ok, detail)


def test_criterion_08_mixtures_never_beat_deterministic(bundled, channel, certificate):
    cert, _elapsed = certificate
    inst = make_instance(bundled, cert.t, 1, channel=channel)
    best = cert.search.cost
    window = cert.window
    rng = random.Random(20240808)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        comps = []
        for w in random_weights(rng, n):
            c1 = random_c1(rng, inst, window)
            comps.append(
                (w, DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1)))
            )
        mixture = SharedRandomnessStrategy(components=tuple(comps))
        ok = ok and evaluate_sr(inst, mixture).total >= best
    _criterion(
        8, "100 seeded in-window mixtures cost at least the searched minimum",
        ok, f"exact comparison against {best}",
    )


def test_criterion_09_reduction_soundness(bundled, channel, certificate):
    cert, _elapsed = certificate
    inst = make_instance(bundled, cert.t, 1, channel=channel)
    rng = random.Random(19)
    implication_ok = True
    premise_count = 0
    for _ in range(50):
        c1 = random_c1(rng, inst, 4)
        strat = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
        if decoder_estimates_exact(inst, strat):
            premise_count += 1
            verdict = verify_zero_error(inst.nt, strategy_to_code(inst, strat))
            implication_ok = implication_ok and (
                verdict.is_zero_error and len(strategy_to_code(inst, strat).messages) == 6
            )
    best_verdict = verify_zero_error(
        inst.nt, strategy_to_code(inst, cert.search.strategy)
    )
    ok = implication_ok and not best_verdict.is_zero_error
    ok = ok and best_verdict.witness is not None
    _criterion(
        9, "exact-estimate strategies reduce to zero-error codes; the "
        "certified best strategy's code fails",
        ok,
        f"{premise_count}/50 sampled strategies met the premise; best-strategy "
        f"verdict {best_verdict.status} with witness",
    )


def test_criterion_10_c2_oracle_equivalence(bundled, channel):
    ok = True
    for t in range(4, 11):
        inst = make_instance(bundled, t, 1, channel=channel)
        span = 6 * t + 2
        for const in range(-2, 3):
            c1 = {x: const for _m, x in inst.support()}
            table = optimal_c2_for_c1(inst, c1)
            brute = brute_force_c2(inst, c1, -span, span)
            total_brute = Fraction(0)
            for s, (minimizers, best_cost) in brute.items():
                total_brute += best_cost
                ok = ok and table[s] in minimizers
                if len(minimizers) == 2:
                    ok = ok and table[s] % 2 == 0
            strat = DeterministicStrategy(c1=c1, c2=table)
            ok = ok and evaluate_deterministic(inst, strat).damping == total_brute
    _criterion(
        10, "closed-form c2 matches the brute-force scan on t <= 10, "
        "constant c1 in [-2, 2]", ok,
    )
