"""Two-controller damping instances, strategy classes and exact cost search.

An instance fixes a basis-set channel composed with the integer encoder at
scale t, an input distribution supported on the multiples m*t, and a price k
on the first controller's action.  The cost of a strategy is

    E[ k * c1(x)^2 + (x + c1(x) + c2(s))^2 ]

evaluated exactly over every positive-probability branch.  Three strategy
classes are covered: deterministic tables, finite shared-randomness mixtures
of deterministic tables, and the entangled strategy whose second term
vanishes identically.

The deterministic search is an exact branch and bound over c1 tables with
entries in a window [-W, W], pruning on the exact cost of c1 prefixes; c2 is
minimized per channel output in closed form (nearest integer to the negated
posterior mean), so it never has to be enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .channel import (
    ChannelInput,
    ChannelOutput,
    EncoderMap,
    FiniteChannel,
    NtChannel,
    build_ks_channel,
)
from .entangled import QuantumDecodeError, decoder_decode, encoder_branches
from .exact import as_fraction, decimal_str
from .ks import KSBasisSet


@dataclass(frozen=True)
class WitsenhausenInstance:
    """A channel-at-scale-t, input distribution and action price k."""

    ks: KSBasisSet
    channel: FiniteChannel
    enc: EncoderMap
    k: Fraction
    p_m: tuple  # Fraction per message m in [q]
    nt: NtChannel

    @property
    def q(self) -> int:
        return self.ks.q

    @property
    def d(self) -> int:
        return self.ks.d

    @property
    def t(self) -> int:
        return self.enc.t

    def support(self) -> tuple:
        """(m, x = m*t) for every message with positive probability."""
        return tuple((m, m * self.t) for m in range(self.q) if self.p_m[m] > 0)


def make_instance(
    ks: KSBasisSet,
    t: int,
    k,
    p_m: Optional[Sequence] = None,
    channel: Optional[FiniteChannel] = None,
) -> WitsenhausenInstance:
    """Build an instance; t below the ambient dimension or k <= 0 is rejected."""
    k = as_fraction(k)
    if k <= 0:
        raise ValueError(f"action price k must be positive, got {k}")
    if channel is None:
        channel = build_ks_channel(ks)
    enc = EncoderMap(t=t, q=ks.q, d=ks.d)  # enforces t >= d
    if p_m is None:
        p_m = [Fraction(1, ks.q)] * ks.q
    p_m = tuple(as_fraction(p) for p in p_m)
    if len(p_m) != ks.q:
        raise ValueError(f"message distribution must have length q = {ks.q}")
    if any(p < 0 for p in p_m):
        raise ValueError("message probabilities must be nonnegative")
    if sum(p_m, Fraction(0)) != 1:
        raise ValueError("message probabilities must sum to exactly 1")
    return WitsenhausenInstance(
        ks=ks, channel=channel, enc=enc, k=k, p_m=p_m, nt=NtChannel(enc, channel)
    )


# -- strategies ------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicStrategy:
    """c1 keyed by supported input x; c2 keyed by channel output, default 0."""

    c1: dict  # x -> int
    c2: dict  # ChannelOutput -> int

    def c1_at(self, x: int) -> int:
        try:
            return self.c1[x]
        except KeyError:
            raise ValueError(f"strategy c1 is not defined on supported input {x}")

    def c2_at(self, s: ChannelOutput) -> int:
        return self.c2.get(s, 0)


@dataclass(frozen=True)
class SharedRandomnessStrategy:
    """Finite mixture of deterministic strategies with positive weights."""

    components: tuple  # (weight: Fraction, DeterministicStrategy)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = Fraction(0)
        for w, _ in self.components:
            if w <= 0:
                raise ValueError("mixture weights must be positive")
            total += w
        if total != 1:
            raise ValueError(f"mixture weights sum to {total}, not 1")


class SignalTrace(NamedTuple):
    """One positive-probability branch of the circuit."""

    x: int
    m: int
    c1_out: int
    y: int
    s: ChannelOutput
    c2_out: int
    z: int
    probability: Fraction


@dataclass(frozen=True)
class CostReport:
    total: Fraction
    control: Fraction  # k * E[c1^2]
    damping: Fraction  # E[z^2]
    traces: tuple
    max_abs_c1: int
    max_abs_z: int


# -- exact evaluation -------------------------------------------------------


def evaluate_deterministic(
    inst: WitsenhausenInstance, strat: DeterministicStrategy
) -> CostReport:
    """Exact expected cost by enumerating every branch of the circuit."""
    control = Fraction(0)
    damping = Fraction(0)
    traces: List[SignalTrace] = []
    max_c1 = 0
    max_z = 0
    for m, x in inst.support():
        px = inst.p_m[m]
        a1 = strat.c1_at(x)
        y = x + a1
        control += px * inst.k * a1 * a1
        max_c1 = max(max_c1, abs(a1))
        for s, p_out in sorted(inst.nt.output_distribution(y).items()):
            a2 = strat.c2_at(s)
            z = y + a2
            prob = px * p_out
            damping += prob * z * z
            max_z = max(max_z, abs(z))
            traces.append(SignalTrace(x, m, a1, y, s, a2, z, prob))
    return CostReport(
        total=control + damping,
        control=control,
        damping=damping,
        traces=tuple(traces),
        max_abs_c1=max_c1,
        max_abs_z=max_z,
    )


def evaluate_sr(
    inst: WitsenhausenInstance, strat: SharedRandomnessStrategy
) -> CostReport:
    """Weight-convex combination of the component deterministic costs."""
    total = Fraction(0)
    control = Fraction(0)
    damping = Fraction(0)
    traces: List[SignalTrace] = []
    max_c1 = 0
    max_z = 0
    for weight, det in strat.components:
        report = evaluate_deterministic(inst, det)
        total += weight * report.total
        control += weight * report.control
        damping += weight * report.damping
        max_c1 = max(max_c1, report.max_abs_c1)
        max_z = max(max_z, report.max_abs_z)
        for tr in report.traces:
            traces.append(tr._replace(probability=weight * tr.probability))
    return CostReport(total, control, damping, tuple(traces), max_c1, max_z)


def evaluate_quantum(inst: WitsenhausenInstance) -> CostReport:
    """Exact cost of the entangled strategy by full branch enumeration.

    On every branch the first controller adds its measurement outcome j, the
    decoder identifies (m, j) with probability 1 and subtracts m*t + j, so
    the final signal is 0 and only the control term k * E[j^2] remains.  Any
    branch with a wrong decode or nonzero final signal is a hard failure, and
    the resulting cost is checked against the k*d^2 ceiling.
    """
    control = Fraction(0)
    traces: List[SignalTrace] = []
    max_c1 = 0
    inv_d = Fraction(1, inst.d)
    for m, x in inst.support():
        px = inst.p_m[m]
        for branch in encoder_branches(inst.ks, m):
            if branch.probability != inv_d:
                raise QuantumDecodeError(
                    f"encoder branch probability {branch.probability} != 1/{inst.d}",
                    witness=(m, branch.outcome.j, None),
                )
            j = branch.outcome.j
            y = x + j
            max_c1 = max(max_c1, abs(j))
            control += px * inv_d * inst.k * j * j
            for s, p_out in sorted(inst.nt.output_distribution(y).items()):
                decoded, p_dec = decoder_decode(inst.ks, s, branch.residual)
                if decoded != (m, j) or p_dec != 1:
                    raise QuantumDecodeError(
                        f"decoder returned {decoded} with probability {p_dec}",
                        witness=(m, j, s),
                    )
                a2 = -(decoded.m * inst.t + decoded.j)
                z = y + a2
                if z != 0:
                    raise QuantumDecodeError(
                        f"final signal {z} != 0 on a branch", witness=(m, j, s)
                    )
                prob = px * branch.probability * p_out
                traces.append(SignalTrace(x, m, j, y, s, a2, z, prob))
    report = CostReport(
        total=control,
        control=control,
        damping=Fraction(0),
        traces=tuple(traces),
        max_abs_c1=max_c1,
        max_abs_z=0,
    )
    bound = inst.k * inst.d * inst.d
    if not report.total < bound:
        raise QuantumDecodeError(
            f"entangled cost {report.total} not below k*d^2 = {bound}", witness=()
        )
    return report


def _round_half_even_ratio(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); exact halves go to the even one."""
    quo, rem = divmod(num, den)
    twice = 2 * rem
    if twice < den:
        return quo
    if twice > den:
        return quo + 1
    return quo if quo % 2 == 0 else quo + 1


def posterior_moments(inst: WitsenhausenInstance, c1: dict) -> dict:
    """Joint mass, first and second wire moments per reachable output.

    Returns {s: (mass, sum p*y, sum p*y^2)} over outputs with positive
    probability under the given c1 table.
    """
    wires = []
    for m, x in inst.support():
        if x not in c1:
            raise ValueError(f"c1 table is not defined on supported input {x}")
        wires.append((m, x + c1[x]))
    return _wire_moments(inst, wires)


def _wire_moments(inst: WitsenhausenInstance, wires) -> dict:
    """posterior_moments over the given (message, wire value) pairs only."""
    moments: Dict[ChannelOutput, Tuple[Fraction, Fraction, Fraction]] = {}
    for m, y in wires:
        px = inst.p_m[m]
        for s, p_out in inst.nt.output_distribution(y).items():
            w = px * p_out
            a, b, c = moments.get(s, (Fraction(0), Fraction(0), Fraction(0)))
            moments[s] = (a + w, b + w * y, c + w * y * y)
    return moments


def optimal_c2_for_c1(inst: WitsenhausenInstance, c1: dict) -> dict:
    """The exact integer minimizer of the damping term, separately per output.

    For each reachable output s the damping contribution is a quadratic in
    c2(s) whose integer minimum sits at the nearest integer to the negated
    posterior mean of the wire value; exact half-integer means round to the
    even integer.  Outputs of zero probability are left out (the strategy
    default of 0 applies there and never contributes to cost).
    """
    table: Dict[ChannelOutput, int] = {}
    for s, (mass, ysum, _) in sorted(posterior_moments(inst, c1).items()):
        mean = ysum / mass
        table[s] = _round_half_even_ratio(-mean.numerator, mean.denominator)
    return table


# -- deterministic search ---------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    strategy: DeterministicStrategy
    cost: Fraction
    complete: bool  # the search finished within the node budget
    candidates_evaluated: int  # c1 prefixes scored
    window: int


class SearchMismatchError(AssertionError):
    """The search's cost for its winner differs from the exact re-evaluation."""


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise AssertionError(f"expected an integer-valued fraction, got {x}")
    return x.numerator


def _q_min(a: int, b: int, c: int) -> int:
    """min over integers v of a*v^2 + 2*b*v + c for a > 0 (half-even at ties)."""
    v = _round_half_even_ratio(-b, a)
    return a * v * v + 2 * b * v + c


class _FastEvaluator:
    """Scaled-integer costs of c1 prefixes for regular pair-output channels.

    Requires every input's outputs to be pairs of inputs shared with exactly
    the partner input, all degrees equal, and the input grid complete; the
    bundled construction satisfies all three.  Costs are returned as exact
    integers: true cost times the fixed common denominator ``scale_den``.

    Cost decomposition per prefix (v_m per assigned message): messages
    whose shifted wire value decomposes as (a, b) put weight on the edges at
    that vertex; all others spread uniformly over every edge.  Grouping edges
    by their contributor profile (one owner / an adjacent owner pair / none)
    collapses the per-edge minimization to a handful of closed-form calls.
    """

    def __init__(self, inst: WitsenhausenInstance, window: int):
        ch = inst.channel
        q, d = inst.q, inst.d
        grid = [ChannelInput(m, j) for m in range(q) for j in range(d)]
        if sorted(ch.inputs) != grid:
            raise ValueError("channel inputs do not form the full (m, j) grid")
        degrees = {len(ch.rows[i]) for i in ch.inputs}
        if len(degrees) != 1:
            raise ValueError("channel is not regular")
        self.r = degrees.pop()
        vid = {i: n for n, i in enumerate(grid)}
        self.adj = [0] * len(grid)
        for i in ch.inputs:
            for o in ch.rows[i]:
                other = o[1] if o[0] == i else o[0]
                if other not in vid:
                    raise ValueError("output pair leaves the input grid")
                if o not in ch.rows[other]:
                    raise ValueError("output is not shared with its partner input")
                self.adj[vid[i]] |= 1 << vid[other]
        self.edge_count = sum(bin(m).count("1") for m in self.adj) // 2

        support = inst.support()
        self.window = window
        big_l = lcm(*[inst.p_m[m].denominator for m, _ in support])
        k_den = inst.k.denominator
        self.damp_unit = k_den  # converts damping scale to the cost scale
        self.scale_den = big_l * q * d * self.r * k_den

        self.ctrl_tab: List[List[int]] = []
        self.uid_tab: List[List[int]] = []
        self.in_a: List[int] = []
        self.in_b: List[List[int]] = []
        self.in_c: List[List[int]] = []
        self.out_a: List[int] = []
        self.out_b: List[List[int]] = []
        self.out_c: List[List[int]] = []
        for m, x in support:
            pm_int = _exact_int(inst.p_m[m] * big_l)
            a_ctrl = _exact_int(inst.k * inst.p_m[m] * self.scale_den)
            w_in = pm_int * q * d
            w_out = 2 * pm_int
            ctrl_row, uid_row = [], []
            ib_row, ic_row, ob_row, oc_row = [], [], [], []
            for v in range(-window, window + 1):
                y = x + v
                hit = inst.enc.decompose(y)
                ctrl_row.append(a_ctrl * v * v)
                uid_row.append(vid[hit] if hit is not None else -1)
                ib_row.append(w_in * y)
                ic_row.append(w_in * y * y)
                ob_row.append(w_out * y)
                oc_row.append(w_out * y * y)
            self.ctrl_tab.append(ctrl_row)
            self.uid_tab.append(uid_row)
            self.in_a.append(w_in)
            self.in_b.append(ib_row)
            self.in_c.append(ic_row)
            self.out_a.append(w_out)
            self.out_b.append(ob_row)
            self.out_c.append(oc_row)

    def to_fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale_den)

    def eval_scaled(self, values: Sequence[int]) -> int:
        """Scaled cost of the c1 prefix giving the first len(values) supported
        messages these values; the unassigned messages contribute nothing."""
        w = self.window
        ctrl = 0
        ctrl_tab = self.ctrl_tab
        for mi in range(len(values)):
            ctrl += ctrl_tab[mi][values[mi] + w]

        owners: List[list] = []
        seen: Dict[int, int] = {}
        oa = ob = oc = 0
        uid_tab = self.uid_tab
        for mi, v in enumerate(values):
            col = v + w
            u = uid_tab[mi][col]
            if u < 0:
                oa += self.out_a[mi]
                ob += self.out_b[mi][col]
                oc += self.out_c[mi][col]
            elif u in seen:
                own = owners[seen[u]]
                own[1] += self.in_a[mi]
                own[2] += self.in_b[mi][col]
                own[3] += self.in_c[mi][col]
            else:
                seen[u] = len(owners)
                owners.append(
                    [u, self.in_a[mi], self.in_b[mi][col], self.in_c[mi][col]]
                )

        damp = 0
        n_pairs = 0
        adj = self.adj
        r = self.r
        for idx, (u1, a1, b1, c1) in enumerate(owners):
            for u2, a2, b2, c2 in owners[idx + 1:]:
                if adj[u1] >> u2 & 1:
                    n_pairs += 1
                    damp += _q_min(a1 + a2 + oa, b1 + b2 + ob, c1 + c2 + oc)
            if oa:
                partners = 0
                for u2, _a, _b, _c in owners:
                    if u2 != u1 and adj[u1] >> u2 & 1:
                        partners += 1
                damp += (r - partners) * _q_min(a1 + oa, b1 + ob, c1 + oc)
        if oa:
            rest = self.edge_count - r * len(owners) + n_pairs
            damp += rest * _q_min(oa, ob, oc)
        return ctrl + damp * self.damp_unit


class _GenericEvaluator:
    """Fallback prefix costs straight from the posterior moments.

    Used when the channel lacks the regular pair structure; exact Fractions
    throughout, over the assigned messages only, like the fast path.
    """

    def __init__(self, inst: WitsenhausenInstance):
        self.inst = inst
        self.support = inst.support()

    def to_fraction(self, cost: Fraction) -> Fraction:
        return cost

    def eval_scaled(self, values: Sequence[int]) -> Fraction:
        inst = self.inst
        assigned = list(zip(self.support, values))
        cost = Fraction(0)
        for (m, _x), v in assigned:
            cost += inst.p_m[m] * inst.k * v * v
        wires = [(m, x + v) for (m, x), v in assigned]
        for mass, ysum, ysq in _wire_moments(inst, wires).values():
            mean = ysum / mass
            v = _round_half_even_ratio(-mean.numerator, mean.denominator)
            cost += mass * v * v + 2 * ysum * v + ysq
        return cost


def search_deterministic(
    inst: WitsenhausenInstance,
    window: int,
    workers: int = 1,
    node_budget: Optional[int] = None,
) -> SearchResult:
    """Exact minimum over c1 tables with entries in [-window, window], each
    paired with its optimal c2, by depth-first branch and bound.

    Supported messages are assigned in order, values tried in (|v|, v) order.
    The exact cost of a prefix bounds every completion from below: the control
    term is a sum over messages, and each output's damping term is a minimum
    over integer c2 of a sum of nonnegative quadratics that a further message
    can only add to.  A prefix is pruned only when that bound strictly exceeds
    the incumbent, and equal-cost tables break toward the lexicographically
    smallest, so the winner is the one a flat scan of all tables would pick.
    It is re-checked through the generic branch evaluator.

    ``candidates_evaluated`` counts the prefixes scored; if ``node_budget`` of
    them runs out the result is incomplete and must never certify anything.
    ``workers`` must be at least 1 and changes neither the work nor the result.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    support = inst.support()
    if not support:
        raise ValueError("instance has empty support")
    if node_budget is not None and node_budget < len(support):
        # below this the search cannot finish its first dive to a full table
        raise ValueError(
            f"node budget {node_budget} is below the {len(support)} prefixes "
            f"of one complete c1 table"
        )
    try:
        evaluator = _FastEvaluator(inst, window)
    except ValueError:
        evaluator = _GenericEvaluator(inst)

    order = sorted(range(-window, window + 1), key=lambda v: (abs(v), v))
    best_cost, best_vals = None, None
    nodes = 0

    def descend(prefix: tuple) -> bool:
        """Search every completion of ``prefix``; False once the budget is out."""
        nonlocal best_cost, best_vals, nodes
        for v in order:
            if node_budget is not None and nodes >= node_budget:
                return False
            nodes += 1
            values = prefix + (v,)
            cost = evaluator.eval_scaled(values)
            if best_cost is not None and cost > best_cost:
                continue
            if len(values) < len(support):
                if not descend(values):
                    return False
            elif best_cost is None or cost < best_cost or values < best_vals:
                best_cost, best_vals = cost, values
        return True

    complete = descend(())
    c1 = {x: v for (_m, x), v in zip(support, best_vals)}
    strategy = DeterministicStrategy(c1=c1, c2=optimal_c2_for_c1(inst, c1))
    report = evaluate_deterministic(inst, strategy)
    expected = evaluator.to_fraction(best_cost)
    if report.total != expected:
        raise SearchMismatchError(
            f"search arithmetic mismatch: search said {expected}, "
            f"re-evaluation said {report.total}"
        )
    return SearchResult(
        strategy=strategy,
        cost=report.total,
        complete=complete,
        candidates_evaluated=nodes,
        window=window,
    )


# -- serialization ---------------------------------------------------------

STRATEGY_FORMAT_TAG = "strategy/1"


def _frac_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}" if p.denominator != 1 else str(p.numerator)


def strategy_to_json_dict(strat: DeterministicStrategy) -> dict:
    return {
        "format": STRATEGY_FORMAT_TAG,
        "c1": [[x, v] for x, v in sorted(strat.c1.items())],
        "c2": [[[list(s[0]), list(s[1])], v] for s, v in sorted(strat.c2.items())],
    }


def strategy_from_json_dict(data: dict) -> DeterministicStrategy:
    if data.get("format") != STRATEGY_FORMAT_TAG:
        raise ValueError(f"unrecognized strategy format: {data.get('format')!r}")
    from .channel import output_pair

    c1 = {int(x): int(v) for x, v in data["c1"]}
    c2 = {
        output_pair(ChannelInput(*a), ChannelInput(*b)): int(v)
        for (a, b), v in data["c2"]
    }
    return DeterministicStrategy(c1=c1, c2=c2)


def cost_report_to_json_dict(report: CostReport, include_traces: bool = False) -> dict:
    data = {
        "total": _frac_str(report.total),
        "total_decimal": decimal_str(report.total),
        "control": _frac_str(report.control),
        "damping": _frac_str(report.damping),
        "max_abs_c1": report.max_abs_c1,
        "max_abs_z": report.max_abs_z,
        "trace_count": len(report.traces),
    }
    if include_traces:
        data["traces"] = [
            {
                "x": tr.x,
                "m": tr.m,
                "c1": tr.c1_out,
                "y": tr.y,
                "s": [list(tr.s[0]), list(tr.s[1])],
                "c2": tr.c2_out,
                "z": tr.z,
                "probability": _frac_str(tr.probability),
            }
            for tr in report.traces
        ]
    return data
