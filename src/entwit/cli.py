"""Command-line harness: reproducible experiments over file-based inputs.

Subcommands map one-to-one onto the library surface: verify-ks, channel-info,
quantum-run, classical-search, certify, and sweep.  All output is
deterministic (identical inputs give byte-identical artifacts; --workers is
accepted and changes neither the work nor the output).  Exit codes:
0 success/certified, 1 check failure or not-certified, 2 usage error,
3 budget-truncated (inconclusive), 4 vacuous cost bound.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from .bounds import bounds_for_instance, certify_separation, format_certificate
from .channel import (
    build_ks_channel,
    confusability_graph,
    independence_number,
)
from .control import evaluate_quantum, make_instance, search_deterministic
from .exact import decimal_str, fraction_str
from .ks import bundled_basis_set, load_basis_set, validate_basis_set, verify_ks_property

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_VACUOUS = 4


class UsageError(Exception):
    """A well-formed argument that the loaded basis set cannot take."""


def _load_set(path: Optional[str]):
    if path is None:
        return bundled_basis_set()
    return load_basis_set(path)


def _check_args(ks, scales=(), budget=None) -> None:
    """Reject well-formed arguments that the loaded basis set cannot take."""
    for t in scales:
        if t < ks.d:
            raise UsageError(f"--t {t} is below the dimension d = {ks.d}")
    if budget is not None and budget < ks.q:
        raise UsageError(
            f"--budget {budget} is below the {ks.q} prefixes of one complete "
            f"c1 table"
        )


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_verify_ks(args) -> int:
    ks = _load_set(args.ks_set)
    lines = [
        "report: verify-ks/1",
        f"label: {ks.label}",
        f"q: {ks.q}",
        f"d: {ks.d}",
    ]
    report = validate_basis_set(ks)
    lines.append(f"orthonormal: {'pass' if report.passed else 'fail'}")
    if not report.passed:
        issue = report.issues[0]
        lines.append(f"first-violation: basis {issue.m}, {issue.detail}")
        _write("\n".join(lines) + "\n", args.out)
        return EXIT_FAIL
    result = verify_ks_property(ks)
    lines.append(f"traversals-checked: {result.traversals_checked}")
    if result.holds:
        lines.append("ks-property: holds")
        _write("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    lines.append("ks-property: fails")
    lines.append(f"witness-traversal: {list(map(list, result.witness))}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_FAIL


def _cmd_channel_info(args) -> int:
    ks = _load_set(args.ks_set)
    ch = build_ks_channel(ks)
    g = confusability_graph(ch)
    alpha, witness = independence_number(g)
    degs = sorted(ch.degree_profile().items())
    lines = [
        "report: channel-info/1",
        f"label: {ks.label}",
        f"inputs: {len(ch.inputs)}",
        f"outputs: {len(ch.outputs)}",
        f"edges: {len(g.edges)}",
        "degree-profile: " + ", ".join(f"{d}x{n}" for d, n in degs),
        f"independence-number: {alpha}",
        f"independent-set: {[list(v) for v in witness]}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_quantum_run(args) -> int:
    ks = _load_set(args.ks_set)
    _check_args(ks, [args.t])
    inst = make_instance(ks, args.t, args.k)
    report = evaluate_quantum(inst)
    lines = [
        "report: quantum-run/1",
        f"label: {ks.label}",
        f"t: {args.t}",
        f"k: {fraction_str(inst.k, with_decimal=True)}",
        f"messages: {ks.q}",
        f"branches: {len(report.traces)}",
        f"cost: {fraction_str(report.total, with_decimal=True)}",
        f"control-term: {fraction_str(report.control)}",
        f"damping-term: {fraction_str(report.damping)}",
        f"max-final-signal: {report.max_abs_z}",
        f"below-kd2: {str(report.total < inst.k * inst.d * inst.d).lower()}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_classical_search(args) -> int:
    ks = _load_set(args.ks_set)
    _check_args(ks, [args.t], args.budget)
    inst = make_instance(ks, args.t, args.k)
    result = search_deterministic(inst, args.window, node_budget=args.budget)
    lines = [
        "report: classical-search/1",
        f"label: {ks.label}",
        f"t: {args.t}",
        f"k: {fraction_str(inst.k, with_decimal=True)}",
        f"window: {result.window}",
        f"complete: {str(result.complete).lower()}",
        f"candidates-evaluated: {result.candidates_evaluated}",
        f"best-cost: {fraction_str(result.cost, with_decimal=True)}",
        "best-c1: " + result.strategy.c1_json(),
    ]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK if result.complete else EXIT_INCONCLUSIVE


def _cmd_certify(args) -> int:
    ks = _load_set(args.ks_set)
    _check_args(ks, budget=args.budget)
    cert = certify_separation(
        ks,
        args.k,
        args.bound,
        window=args.window,
        node_budget=args.budget,
    )
    _write(format_certificate(cert), args.out)
    if cert.certified:
        return EXIT_OK
    if cert.status == "vacuous":
        return EXIT_VACUOUS
    if cert.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


SWEEP_COLUMNS = "t,quantum_cost,classical_best,window,M_X,M_Z,t0,certified"


def _cmd_sweep(args) -> int:
    ks = _load_set(args.ks_set)
    _check_args(ks, args.t_list, args.budget)
    ch = build_ks_channel(ks)
    rows = [SWEEP_COLUMNS]
    all_complete = True
    for t in args.t_list:
        inst = make_instance(ks, t, args.k, channel=ch)
        quantum = evaluate_quantum(inst)
        result = search_deterministic(inst, args.window, node_budget=args.budget)
        all_complete = all_complete and result.complete
        bounds = bounds_for_instance(inst, quantum.total)
        certified = (
            result.complete
            and args.window >= bounds.window_required
            and result.cost > quantum.total
        )
        rows.append(
            ",".join(
                [
                    str(t),
                    decimal_str(quantum.total),
                    decimal_str(result.cost),
                    str(args.window),
                    f"{bounds.m_x:.12g}",
                    f"{bounds.m_z:.12g}",
                    f"{bounds.t0:.12g}",
                    str(certified).lower(),
                ]
            )
        )
    text = "\n".join(rows) + "\n"
    if args.format == "structured-text":
        text = "report: sweep/1\n" + text
    _write(text, args.out)
    return EXIT_OK if all_complete else EXIT_INCONCLUSIVE


def _positive_fraction_arg(raw: str) -> Fraction:
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {raw!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {raw!r}")
    return value


def _int_arg(minimum: int):
    def integer(raw: str) -> int:
        value = int(raw)  # argparse reports a ValueError as an invalid integer
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {raw!r}")
        return value

    return integer


def _t_list_arg(raw: str) -> List[int]:
    try:
        values = [int(part) for part in raw.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad t list: {raw!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("t list must be non-empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwit",
        description="Exact channel construction, strategy evaluation and "
        "certified strategy search for the entangled-controller damping circuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, t=False, k=False, window=False, search=False):
        p.add_argument("--ks-set", help="basis-set JSON (default: bundled set)")
        p.add_argument("--out", help="output path (default: stdout)")
        if t:
            p.add_argument("--t", type=int, required=True, help="encoder scale")
        if k:
            p.add_argument(
                "--k", type=_positive_fraction_arg, default=Fraction(1),
                help="action price (rational, default 1)",
            )
        if window:
            p.add_argument(
                "--window", type=_int_arg(0), required=True,
                help="c1 search window W",
            )
        if search:
            p.add_argument(
                "--workers", type=_int_arg(1), default=1,
                help="accepted for compatibility; changes neither work nor output",
            )
            p.add_argument(
                "--budget", type=_int_arg(1), default=None,
                help="max c1 prefixes to score (truncation is inconclusive)",
            )

    p = sub.add_parser("verify-ks", help="validate the basis set and its property")
    common(p)
    p.set_defaults(func=_cmd_verify_ks)

    p = sub.add_parser("channel-info", help="channel structure and capacity facts")
    common(p)
    p.set_defaults(func=_cmd_channel_info)

    p = sub.add_parser("quantum-run", help="exact entangled-strategy evaluation")
    common(p, t=True, k=True)
    p.set_defaults(func=_cmd_quantum_run)

    p = sub.add_parser(
        "classical-search",
        help="exact in-window minimum at one t, by branch and bound",
    )
    common(p, t=True, k=True, window=True, search=True)
    p.set_defaults(func=_cmd_classical_search)

    p = sub.add_parser("certify", help="emit a separation certificate")
    common(p, k=True, search=True)
    p.add_argument(
        "--bound", type=_positive_fraction_arg, required=True, metavar="M",
        help="cost bound M to separate against (rational)",
    )
    p.add_argument(
        "--window", type=_int_arg(0), default=None,
        help="override the default search window ceil(M_X)",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="CSV of quantum vs classical cost across t")
    common(p, k=True, window=True, search=True)
    p.add_argument(
        "--t", dest="t_list", type=_t_list_arg, required=True,
        help="comma-separated scales, e.g. 4,8,16,32,64",
    )
    p.add_argument(
        "--format", choices=("csv", "structured-text"), default="csv",
        help="sweep output format (default csv)",
    )
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
