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
from functools import cache, partial
from typing import List, Optional

from .bounds import bounds_for_instance, certify_separation, format_certificate
from .channel import (
    build_ks_channel,
    confusability_graph,
    independence_number,
)
from .control import evaluate_quantum, make_instance, search_deterministic
from .exact import decimal_str, fraction_str
from .ks import (
    BasisSetError,
    bundled_basis_set,
    load_basis_set,
    validate_basis_set,
    verify_ks_property,
)

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
        with open(out, "wb") as fh:  # the bytes text mode with newline="" writes
            fh.write(text.encode("utf-8"))


def _cmd_verify_ks(args) -> int:
    ks = _load_set(args.ks_set)
    lines = [
        "report: verify-ks/1",
        f"label: {ks.label}",
        f"q: {ks.q}",
        f"d: {ks.d}",
    ]
    try:
        validate_basis_set(ks)
    except BasisSetError as exc:
        lines.append("orthonormal: fail")
        lines.append(f"first-violation: basis {exc.m}, {exc.detail}")
        _write("\n".join(lines) + "\n", args.out)
        return EXIT_FAIL
    lines.append("orthonormal: pass")
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
    alpha, witness = independence_number(confusability_graph(ch))
    degrees = [mask.bit_count() for mask in ch.masks]
    # an output is a pair of partners, and so is an edge of the graph
    pairs = sum(degrees) // 2
    lines = [
        "report: channel-info/1",
        f"label: {ks.label}",
        f"inputs: {len(degrees)}",
        f"outputs: {pairs}",
        f"edges: {pairs}",
        "degree-profile: "
        + ", ".join(f"{deg}x{degrees.count(deg)}" for deg in sorted(set(degrees))),
        f"independence-number: {alpha}",
        f"independent-set: {[list(ch.inputs[u]) for u in witness]}",
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
        f"branches: {report.branches}",
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
        f"window: {args.window}",
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


SWEEP_COLUMNS = "t,quantum_cost,classical_best,window,certified"


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


def _common(p, t=False, k=False, window=False, search=False) -> None:
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
            help="max c1 prefixes scored or ruled out (truncation is inconclusive)",
        )


def _args_certify(p) -> None:
    _common(p, k=True, search=True)
    p.add_argument(
        "--bound", type=_positive_fraction_arg, required=True, metavar="M",
        help="cost bound M to separate against (rational)",
    )
    p.add_argument(
        "--window", type=_int_arg(0), default=None,
        help="override the default search window ceil(M_X)",
    )


def _args_sweep(p) -> None:
    _common(p, k=True, window=True, search=True)
    p.add_argument(
        "--t", dest="t_list", type=_t_list_arg, required=True,
        help="comma-separated scales, e.g. 4,8,16,32,64",
    )
    p.add_argument(
        "--format", choices=("csv", "structured-text"), default="csv",
        help="sweep output format (default csv)",
    )


# (name, help, handler, argument builder), in the order --help lists them
SUBCOMMANDS = (
    ("verify-ks", "validate the basis set and its property", _cmd_verify_ks, _common),
    ("channel-info", "channel structure and capacity facts", _cmd_channel_info, _common),
    (
        "quantum-run",
        "exact entangled-strategy evaluation",
        _cmd_quantum_run,
        partial(_common, t=True, k=True),
    ),
    (
        "classical-search",
        "exact in-window minimum at one t, by branch and bound",
        _cmd_classical_search,
        partial(_common, t=True, k=True, window=True, search=True),
    ),
    ("certify", "emit a separation certificate", _cmd_certify, _args_certify),
    ("sweep", "CSV of quantum vs classical cost across t", _cmd_sweep, _args_sweep),
)


def _build_parsers():
    """A fresh entwit parser, with every subcommand and its arguments, and
    the parser of each subcommand by name: the object the full parser hands
    that subcommand's arguments to."""
    parser = argparse.ArgumentParser(
        prog="entwit",
        description="Exact channel construction, strategy evaluation and "
        "certified strategy search for the entangled-controller damping circuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, help_text, func, add_arguments in SUBCOMMANDS:
        p = subparsers[name] = sub.add_parser(name, help=help_text)
        add_arguments(p)
        # parsed alone, the subparser gives the full parser's namespace
        p.set_defaults(command=name, func=func)
    return parser, subparsers


@cache
def _main_parsers():
    """The parsers ``main`` uses, built on its first call.  argparse keeps
    no state between parse calls, so reuse changes no output."""
    return _build_parsers()


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """``main``'s namespace for ``argv`` (None parses ``sys.argv[1:]``), as
    the full parser's ``parse_args`` gives it.  A list led by a subcommand
    goes to that subcommand's own parser, which the full parser would hand
    the same tokens, so its help and errors are the full parser's bytes.
    With no token, another first token or a token left over, the full parser
    parses the list itself."""
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = _main_parsers()
    if argv and argv[0] in subparsers:
        args, rest = subparsers[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
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
