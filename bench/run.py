"""The entwit benchmark: three workloads run through the ``entwit`` CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each operation is one call of ``entwit.cli.main`` in this process, writing
its report with ``--out``.  Every report is checked against the independent
computations in ``indep.py``; an operation whose check fails is counted
failed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload once untraced and once with spans at entwit's module boundaries and
prints the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RAYS = SRC / "entwit" / "data" / "ks_6_4_peres.json"
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))
import indep  # noqa: E402
import spans  # noqa: E402
from refwork import REPEATS, Sampler, timed_call  # noqa: E402

SETUP_PROBES = 9
# what every entwit command pays before its own work, timed in a fresh
# interpreter: import, load and validate the bundled set, check the
# traversal property, build the channel
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import entwit.cli
from entwit.channel import build_ks_channel
from entwit.ks import bundled_basis_set
channel = build_ks_channel(bundled_basis_set())
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "inputs": len(channel.inputs)}))
"""

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Op:
    """One operation: a CLI command (``argv``) or the zero-error comparison."""

    def __init__(self, name, argv=None, zero_error=False, known_fault=False, **meta):
        self.name = name
        self.argv = argv
        self.zero_error = zero_error
        self.known_fault = known_fault  # fails in every run; see LowkSearch
        self.meta = meta


# -- workloads -----------------------------------------------------------------


class Certify:
    """`entwit certify --k 1 --bound 7/2 --workers 1`: one certificate per op."""

    bound = Fraction(7, 2)
    k = Fraction(1)
    samples = 16

    def __init__(self, checker):
        self.checker = checker

    def round(self, rng):
        t, w = indep.certify_scale(self.bound)
        sample = [[rng.randint(-w, w) for _ in range(self.checker.q)]
                  for _ in range(self.samples)]
        return [Op("certify", ["certify", "--k", "1", "--bound", "7/2",
                               "--workers", "1"], sample=sample)]

    def check(self, op, result):
        chk, k, bound = self.checker, self.k, self.bound
        f = indep.parse_report(result["text"])
        t, w = indep.certify_scale(bound)
        problems = []
        expect = _expecter(problems)
        expect(result["rc"] == 0, f"exit code {result['rc']}")
        expect(f["status"] == "certified", f"status {f['status']}")
        expect(f["certified"] == "true", "certified is not true")
        expect(int(f["t"]) == t, f"t {f['t']} != {t}")
        expect(int(f["window"]) == w, f"window {f['window']} != {w}")
        expect(indep.exact_of(f["quantum-cost"]) == chk.quantum_cost(k),
               f"quantum-cost {f['quantum-cost']} != {chk.quantum_cost(k)}")
        expect(int(f["quantum-branches"]) == chk.branches, "quantum-branches")
        expect(f["search-complete"] == "true", "search incomplete")
        minimum = indep.exact_of(f["classical-in-window-minimum"])
        values = indep.c1_values(f["best-strategy"], t, chk.q)
        expect(all(abs(v) <= w for v in values), "best strategy leaves the window")
        expect(chk.cost(t, k, values) == minimum,
               f"best strategy costs {chk.cost(t, k, values)}, report says {minimum}")
        expect(minimum > bound, f"minimum {minimum} does not exceed {bound}")
        for table in op.meta["sample"]:
            expect(minimum <= chk.cost(t, k, table), f"table {table} beats the minimum")
        verdict = "collision" if chk.alpha < chk.q else "zero_error"
        expect(f["reduction-verdict"].split(" ")[0] == verdict,
               f"reduction verdict {f['reduction-verdict']}, expected {verdict}")
        return problems


class Quantum:
    """`entwit quantum-run --k 1 --t T` at seeded T, plus the zero-error run."""

    k = Fraction(1)
    scales = 6

    def __init__(self, checker):
        self.checker = checker

    def round(self, rng):
        ops = []
        for _ in range(self.scales):
            t = max(4, round(4 * 250_000 ** rng.random()))  # log-uniform 4..10^6
            ops.append(Op("quantum-run", ["quantum-run", "--k", "1", "--t", str(t)], t=t))
        ops.append(Op("zero-error", ["channel-info"], zero_error=True))
        return ops

    def check(self, op, result):
        chk = self.checker
        f = indep.parse_report(result["text"])
        problems = []
        expect = _expecter(problems)
        expect(result["rc"] == 0, f"exit code {result['rc']}")
        if op.zero_error:
            report = result["zero_error"]
            alpha = int(f["independence-number"])
            witness = json.loads(f["independent-set"])
            expect(alpha == chk.alpha, f"independence number {alpha} != {chk.alpha}")
            expect(len(witness) == alpha and chk.is_independent(witness),
                   f"independent set {witness} is not independent")
            expect(report.messages_sent == chk.q > chk.alpha,
                   f"{report.messages_sent} messages sent")
            expect(report.total_branches == chk.branches,
                   f"{report.total_branches} branches != {chk.branches}")
            expect(report.all_correct, "a branch decoded wrongly")
            expect(all(mass == 1 for mass in report.per_message_mass),
                   f"per-message mass {report.per_message_mass}")
            return problems
        expect(int(f["t"]) == op.meta["t"], f"t {f['t']}")
        expect(indep.exact_of(f["k"]) == self.k, f"k {f['k']}")
        expect(int(f["messages"]) == chk.q, f"messages {f['messages']}")
        expect(indep.exact_of(f["cost"]) == chk.quantum_cost(self.k),
               f"cost {f['cost']} != {chk.quantum_cost(self.k)}")
        expect(int(f["branches"]) == chk.branches, f"branches {f['branches']}")
        expect(f["max-final-signal"] == "0", f"max-final-signal {f['max-final-signal']}")
        expect(f["damping-term"] == "0", f"damping-term {f['damping-term']}")
        return problems


WORKER_MISMATCH = "report differs from --workers 1"


class LowkSearch:
    """`entwit classical-search --k 1/1000 --window 3` at t in {4, 8, 16, 39},
    each with --workers 1 and then --workers 2."""

    k = Fraction(1, 1000)
    window = 3
    scales = (4, 8, 16, 39)
    samples = 6

    def __init__(self, checker):
        self.checker = checker
        self.single_worker_text = {}

    def round(self, rng):
        ops = []
        w, q = self.window, self.checker.q
        for t in rng.sample(self.scales, len(self.scales)):
            for workers in (1, 2):
                sample = [[rng.randint(-w, w) for _ in range(q)]
                          for _ in range(self.samples)]
                # each pool worker prunes against its own incumbent, so the
                # candidate count differs from --workers 1 at t = 4
                ops.append(Op(f"classical-search t={t} workers={workers}",
                              ["classical-search", "--k", "1/1000", "--window", str(w),
                               "--t", str(t), "--workers", str(workers)],
                              known_fault=t == 4 and workers == 2,
                              t=t, workers=workers, sample=sample))
        return ops

    def check(self, op, result):
        chk, k, w = self.checker, self.k, self.window
        t, workers = op.meta["t"], op.meta["workers"]
        f = indep.parse_report(result["text"])
        problems = []
        expect = _expecter(problems)
        expect(result["rc"] == 0, f"exit code {result['rc']}")
        expect(f["complete"] == "true", "search incomplete")
        expect(int(f["t"]) == t and int(f["window"]) == w, "t or window")
        expect(indep.exact_of(f["k"]) == k, f"k {f['k']}")
        best = indep.exact_of(f["best-cost"])
        values = indep.c1_values(f["best-c1"], t, chk.q)
        expect(all(abs(v) <= w for v in values), "best-c1 leaves the window")
        expect(chk.cost(t, k, values) == best,
               f"best-c1 costs {chk.cost(t, k, values)}, report says {best}")
        expect(best <= chk.cost(t, k, [0] * chk.q), "the all-zero table beats best-cost")
        for table in op.meta["sample"]:
            expect(best <= chk.cost(t, k, table), f"table {table} beats best-cost")
        if workers == 1:
            self.single_worker_text[t] = result["text"]
        elif result["text"] != self.single_worker_text.get(t):
            ours = f.get("candidates-evaluated")
            theirs = indep.parse_report(self.single_worker_text.get(t, "")).get(
                "candidates-evaluated")
            problems.append(
                f"{WORKER_MISMATCH} (candidates-evaluated {ours} vs {theirs})"
            )
        return problems


WORKLOADS = {"certify": Certify, "quantum": Quantum, "lowk-search": LowkSearch}


def _expecter(problems):
    def expect(condition, message):
        if not condition:
            problems.append(message)

    return expect


# -- running operations --------------------------------------------------------


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def execute(op, out_path, tracer):
    """Run one operation; returns its exit code, report text and, for the
    zero-error comparison, the library's report."""
    import entwit.cli
    import entwit.channel
    import entwit.entangled
    import entwit.ks

    result = {}
    argv = op.argv + ["--out", str(out_path)]
    if tracer is None:
        result["rc"] = entwit.cli.main(argv)
    else:
        with tracer.span("cli.main"):
            result["rc"] = entwit.cli.main(argv)
    if op.zero_error:
        ks = entwit.ks.bundled_basis_set()
        channel = entwit.channel.build_ks_channel(ks)
        result["zero_error"] = entwit.entangled.run_zero_error_quantum(ks, channel)
    return result


class Tally:
    """Operation counts and the verdicts of their checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.report_bytes = 0
        self.sampler = Sampler()

    def run_round(self, workload, ops, tracer=None):
        """Run every op of a round, then check them.

        Returns one record per op: wall and CPU seconds, and both divided by
        the reference.  An op's reference is REPEATS times the mean time of
        the reference calls timed just before it, during it (untraced ops
        only) and just after it; the samples' own time is taken out of the
        op's.
        """
        records, done = [], []
        before, _ = timed_call()
        for index, op in enumerate(ops):
            out_path = WORK / f"report-{index}.txt"
            out_path.unlink(missing_ok=True)  # never check an earlier round's report
            cpu0, start = _cpu_seconds(), time.perf_counter()
            with self.sampler(enabled=tracer is None):
                try:
                    result = execute(op, out_path, tracer)
                except Exception as exc:  # a crash of the program fails the op
                    result = {"rc": None, "error": repr(exc)}
            samples = self.sampler.walls
            wall = time.perf_counter() - start - sum(samples)
            cpu = _cpu_seconds() - cpu0 - sum(self.sampler.cpus)
            after, _ = timed_call()
            reference = statistics.fmean([before, *samples, after]) * REPEATS
            before = after
            self.attempted += 1
            records.append({"op": op.name, "wall_s": wall, "cpu_s": cpu,
                            "wall_ref": wall / reference, "cpu_ref": cpu / reference,
                            "samples": len(samples)})
            done.append((op, result, out_path))
        for op, result, out_path in done:
            self.record(workload, op, result, out_path)
        return records

    def record(self, workload, op, result, out_path):
        if "error" in result:
            problems = [f"raised {result['error']}"]
        elif not out_path.exists():
            problems = [f"no report written (exit code {result['rc']})"]
        else:
            result["text"] = out_path.read_text(encoding="utf-8")
            self.report_bytes += len(result["text"].encode("utf-8"))
            try:
                problems = workload.check(op, result)
            except (KeyError, ValueError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        if not problems:
            return
        self.failed += 1
        if op.known_fault and len(problems) == 1 and problems[0].startswith(WORKER_MISMATCH):
            return
        self.correct = False
        print(f"FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["inputs"] != 24:
            raise RuntimeError(f"setup probe built {probe['inputs']} inputs")
        times.append(probe["setup_s"])
    return statistics.median(times)


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "ks.load_s": "s", "ks.traversal_s": "s", "ks.traversals": "count",
    "ks.validate_s": "s", "ks.validate_calls": "count",
    "channel.build_s": "s", "channel.alpha_s": "s", "channel.zero_error_check_s": "s",
    "entangled.encoder_s": "s", "entangled.encoder_calls": "count",
    "entangled.decode_s": "s", "entangled.decodes": "count",
    "entangled.decodes_per_s": "1/s", "entangled.zero_error_run_s": "s",
    "control.quantum_s": "s", "control.quantum_self_s": "s",
    "control.search_s": "s", "control.candidates": "count", "control.tables": "count",
    "control.candidates_per_table": "ratio", "control.candidates_per_s": "1/s",
    "control.recheck_s": "s", "control.search_w1_s": "s", "control.search_w2_s": "s",
    "bounds.certify_s": "s", "bounds.self_s": "s", "bounds.reduction_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "wall_s": "s", "cpu_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(recorded, report_bytes) -> dict:
    """Totals over one traced round.  Layers a workload never enters read 0."""
    by_name = defaultdict(list)
    covered = defaultdict(float)  # span id -> time covered by direct children
    by_id = {}
    for span in recorded:
        by_name[span["name"]].append(span)
        by_id[span["id"]] = span
        if span["parent"] is not None:
            covered[span["parent"]] += spans.duration(span)

    def total(name):
        return sum(spans.duration(s) for s in by_name[name])

    def self_time(name):
        return sum(spans.duration(s) - covered[s["id"]] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    searches = by_name["control.search"]
    candidates = sum(s["candidates"] for s in searches)
    tables = sum(s["tables"] for s in searches)
    reduction_checks = [
        s for s in by_name["channel.zero_error_check"]
        if s["parent"] is not None and by_id[s["parent"]]["name"] == "bounds.certify"
    ]
    decodes = len(by_name["entangled.decode"])
    return {
        "ks.load_s": total("ks.load"),
        "ks.traversal_s": total("ks.traversal"),
        "ks.traversals": sum(s["traversals"] for s in by_name["ks.traversal"]),
        "ks.validate_s": total("ks.validate"),
        "ks.validate_calls": len(by_name["ks.validate"]),
        "channel.build_s": total("channel.build"),
        "channel.alpha_s": total("channel.alpha"),
        "channel.zero_error_check_s": total("channel.zero_error_check"),
        "entangled.encoder_s": total("entangled.encoder"),
        "entangled.encoder_calls": len(by_name["entangled.encoder"]),
        "entangled.decode_s": total("entangled.decode"),
        "entangled.decodes": decodes,
        "entangled.decodes_per_s": ratio(decodes, total("entangled.decode")),
        "entangled.zero_error_run_s": total("entangled.zero_error_run"),
        "control.quantum_s": total("control.quantum"),
        "control.quantum_self_s": self_time("control.quantum"),
        "control.search_s": total("control.search"),
        "control.candidates": candidates,
        "control.tables": tables,
        "control.candidates_per_table": ratio(candidates, tables),
        "control.candidates_per_s": ratio(candidates, total("control.search")),
        "control.recheck_s": total("control.recheck"),
        "control.search_w1_s": sum(
            spans.duration(s) for s in searches if s["workers"] <= 1),
        "control.search_w2_s": sum(
            spans.duration(s) for s in searches if s["workers"] > 1),
        "bounds.certify_s": total("bounds.certify"),
        "bounds.self_s": self_time("bounds.certify"),
        "bounds.reduction_s": total("bounds.reduction")
        + sum(spans.duration(s) for s in reduction_checks),
        "cli.self_s": self_time("cli.main"),
        "cli.report_bytes": report_bytes,
    }


# -- the run ---------------------------------------------------------------------


def round_median(rounds, key) -> float:
    """Median over rounds of the mean per-op value in a round.

    A round is a fixed mix of operations, so its mean compares across runs;
    a median over single ops of a mixed round flips between op kinds.
    """
    return statistics.median(statistics.fmean(op[key] for op in r) for r in rounds)


def import_entwit() -> None:
    """Import entwit from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import entwit.cli

    if Path(entwit.cli.__file__).resolve().parent != (SRC / "entwit").resolve():
        raise ImportError(f"entwit imported from {entwit.cli.__file__}, not {SRC}")


def run(workload_name, seed, seconds, trace) -> dict:
    import_entwit()
    if not RAYS.is_file():
        raise FileNotFoundError(RAYS)
    WORK.mkdir(exist_ok=True)
    setup_s = measure_setup()
    checker = indep.Instance(RAYS)
    checker.alpha = checker.independence_number()
    workload = WORKLOADS[workload_name](checker)
    rng = random.Random(seed)
    tally = Tally()
    start = time.perf_counter()
    if not trace:
        rounds = []
        while True:
            rounds.append(tally.run_round(workload, workload.round(rng)))
            if time.perf_counter() - start >= seconds:
                break
        metrics = {
            "wall_ref": round_median(rounds, "wall_ref"),
            "cpu_ref": round_median(rounds, "cpu_ref"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        with open(WORK / f"ops-{workload_name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload_name, "seed": seed, "rounds": rounds}, fh)
        for name in ("wall_s", "cpu_s"):
            print(f"{workload_name} {name} = {round_median(rounds, name):.6g} s"
                  " (raw seconds; unbounded, see README)")
    else:
        # pairs of one untraced and one traced round; a new pair starts only
        # while it is expected to end within the run length
        plain, traced, layers, recorded = [], [], [], []
        while True:
            pair_start = time.perf_counter()
            plain.append(tally.run_round(workload, workload.round(rng)))
            tracer = spans.Tracer()
            bytes_before = tally.report_bytes
            with spans.instrument(tracer):
                traced.append(tally.run_round(workload, workload.round(rng), tracer))
            layers.append(layer_metrics(tracer.spans, tally.report_bytes - bytes_before))
            recorded.append(tracer.spans)
            now = time.perf_counter()
            if now - start + (now - pair_start) > seconds:
                break
        metrics = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        metrics["wall_s"] = round_median(plain, "wall_s")
        metrics["cpu_s"] = round_median(plain, "cpu_s")
        metrics["trace.overhead_s"] = statistics.median(
            sum(op["wall_s"] for op in r) for r in traced
        ) - statistics.median(sum(op["wall_s"] for op in r) for r in plain)
        units = PER_LAYER_UNITS
        trace_path = WORK / f"spans-{workload_name}-seed{seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"format": "entwit-bench-spans/1", "workload": workload_name,
                       "seed": seed, "rounds": recorded}, fh)
            fh.write("\n")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{workload_name} {name} = {value:.6g} {units[name]}")
    print(f"{workload_name} attempted = {tally.attempted}, failed = {tally.failed}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
