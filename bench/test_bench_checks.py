"""Fast tests of the benchmark's own parts: the independent checker, the
reference computation and the boundary spans.

    python3 -m pytest -q bench/test_bench_checks.py
"""

import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import indep  # noqa: E402
import refwork  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402

import entwit.cli  # noqa: E402
import entwit.control  # noqa: E402
from entwit import (  # noqa: E402
    DeterministicStrategy,
    bundled_basis_set,
    evaluate_deterministic,
    make_instance,
    optimal_c2_for_c1,
    search_deterministic,
)


def _checker():
    chk = indep.Instance(bench_run.RAYS)
    chk.alpha = chk.independence_number()
    return chk


def test_checker_agrees_with_program_on_full_enumeration():
    chk = _checker()
    t, k, w = 4, Fraction(1), 1
    inst = make_instance(bundled_basis_set(), t, k)
    costs = {}
    for values in product(range(-w, w + 1), repeat=chk.q):
        c1 = {m * t: v for m, v in enumerate(values)}
        program = evaluate_deterministic(
            inst, DeterministicStrategy(c1, optimal_c2_for_c1(inst, c1))
        ).total
        costs[values] = chk.cost(t, k, list(values))
        assert costs[values] == program, values
    result = search_deterministic(inst, w)
    assert result.cost == min(costs.values())
    best = tuple(result.strategy.c1[m * t] for m in range(chk.q))
    assert costs[best] == result.cost


def test_checker_channel_facts():
    chk = _checker()
    assert (chk.alpha, chk.branches, len(chk.outputs)) == (5, 216, 108)
    assert chk.quantum_cost(Fraction(1)) == Fraction(7, 2)
    assert indep.certify_scale(Fraction(7, 2)) == (39, 5)


def _search_report(tmp_path, workload):
    out = tmp_path / "report.txt"
    argv = ["classical-search", "--k", "1/1000", "--window", str(workload.window),
            "--t", "4", "--workers", "1", "--out", str(out)]
    assert entwit.cli.main(argv) == 0
    return out.read_text()


def _small_search():
    workload = bench_run.LowkSearch(_checker())
    workload.window = 1
    op = bench_run.Op("search", t=4, workers=1, sample=[[1, 0, -1, 0, 1, 0]])
    return workload, op


def test_checker_accepts_the_true_report(tmp_path):
    workload, op = _small_search()
    text = _search_report(tmp_path, workload)
    assert workload.check(op, {"rc": 0, "text": text}) == []


def test_checker_rejects_an_altered_cost(tmp_path):
    workload, op = _small_search()
    text = _search_report(tmp_path, workload)
    line = next(x for x in text.splitlines() if x.startswith("best-cost: "))
    cost = indep.exact_of(line.split(": ", 1)[1])
    tampered = text.replace(line, f"best-cost: {cost - Fraction(1, 10**6)} (0)")
    assert workload.check(op, {"rc": 0, "text": tampered})


def test_checker_rejects_an_altered_c1_entry(tmp_path):
    workload, op = _small_search()
    text = _search_report(tmp_path, workload)
    line = next(x for x in text.splitlines() if x.startswith("best-c1: "))
    pairs = json.loads(line.split(": ", 1)[1])
    pairs[2][1] = 1 if pairs[2][1] != 1 else 0
    tampered = text.replace(line, "best-c1: " + json.dumps(pairs))
    assert workload.check(op, {"rc": 0, "text": tampered})


def test_a_missing_report_fails_the_op(tmp_path):
    tally = bench_run.Tally()
    op = bench_run.Op("quantum-run", ["quantum-run", "--t", "39"], t=39)
    tally.record(bench_run.Quantum(_checker()), op, {"rc": 1}, tmp_path / "none.txt")
    assert (tally.failed, tally.correct) == (1, False)


def test_reference_work_is_fixed_whatever_the_seed():
    for seed in (1, 2, 12345):
        random.seed(seed)
        assert refwork.reference_work() == refwork.CHECKSUM
    wall, cpu = refwork.timed_call()
    assert wall > 0 and cpu > 0


def test_spans_count_one_quantum_run_and_restore_the_program(tmp_path):
    original = entwit.control.decoder_decode
    tracer = spans.Tracer()
    op = bench_run.Op("quantum-run", ["quantum-run", "--k", "1", "--t", "39"], t=39)
    with spans.instrument(tracer):
        result = bench_run.execute(op, tmp_path / "q.txt", tracer)
    assert result["rc"] == 0
    assert entwit.control.decoder_decode is original
    layers = bench_run.layer_metrics(tracer.spans, 0)
    assert layers["entangled.decodes"] == 216
    assert layers["entangled.encoder_calls"] == 6
    assert layers["ks.validate_calls"] == 8
    assert layers["cli.self_s"] > 0
    untraced = {"wall_s", "cpu_s", "trace.overhead_s"}
    assert set(layers) | untraced == set(bench_run.PER_LAYER_UNITS)
