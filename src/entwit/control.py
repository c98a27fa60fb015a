"""Two-controller damping instances, strategy classes and exact cost search.

An instance fixes a basis-set channel, the integer encoder at scale t (the
instance is the two composed), an input distribution supported on the
multiples m*t, and a price k on the first controller's action.  The cost of
a strategy is

    E[ k * c1(x)^2 + (x + c1(x) + c2(s))^2 ]

evaluated exactly over every positive-probability branch.  A cost report
keeps the total, its two terms, the number of branches walked and the
largest final signal; no per-branch record is kept.  Two strategy classes
are evaluated: deterministic tables, and the entangled strategy whose
second term vanishes identically.  A finite shared-randomness mixture
of deterministic tables costs the weighted average of its components, so it
never beats the best one; the certificate states that in words (clause (d)),
and the test suite keeps a mixture evaluator as an oracle for it.

The deterministic search is an exact branch and bound over c1 tables with
entries in a window [-W, W], pruning on the exact cost of c1 prefixes; c2 is
minimized per channel output in closed form (nearest integer to the negated
posterior mean), so it never has to be enumerated.  One scaled-integer
evaluator scores the prefixes for any channel whose inputs are the (m, j)
grid, and the winner is re-checked branch by branch.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .channel import ChannelInput, ChannelOutput, FiniteChannel, build_ks_channel
from .entangled import QuantumDecodeError, decoder_decode, encoder_branches
from .exact import as_fraction
from .ks import KSBasisSet


class WitsenhausenInstance:
    """A channel at scale t, an input distribution and an action price k.

    The instance is also the composed channel: the encoder at scale t
    followed by the basis-set channel, with all of Z as its input domain.
    A wire value y = a*t + b with a in [0, q) and b in [0, d) goes to row
    (a, b); every other y goes to the uniform mixture of all rows, built on
    first use and held.
    """

    __slots__ = ("ks", "channel", "t", "k", "p_m", "_uniform_branch")

    def __init__(
        self, *, ks: KSBasisSet, channel: FiniteChannel, t: int, k: Fraction, p_m: tuple
    ):
        self.ks = ks
        self.channel = channel
        self.t = t
        self.k = k
        self.p_m = p_m  # Fraction per message m in [q]
        self._uniform_branch = {}  # one per instance: it depends on the channel

    @property
    def q(self) -> int:
        return self.ks.q

    @property
    def d(self) -> int:
        return self.ks.d

    def support(self) -> tuple:
        """(m, x = m*t) for every message with positive probability."""
        return tuple((m, m * self.t) for m in range(self.q) if self.p_m[m] > 0)

    def decompose(self, y: int) -> Optional[ChannelInput]:
        """The input (a, b) with y = a*t + b, or None when y is out of form;
        unique since t >= d."""
        a, b = divmod(y, self.t)
        if 0 <= a < self.ks.q and b < self.ks.d:
            return ChannelInput(a, b)
        return None

    def output_distribution(self, y: int) -> MappingProxyType:
        """Read-only view of the distribution on wire value y; nothing is copied."""
        hit = self.decompose(y)
        if hit is not None:
            return MappingProxyType(self.channel.rows[hit])
        if not self._uniform_branch:
            # any out-of-form y gives the same mixture: the encoder's uniform
            # weight 1/(q*d) on every input, composed with its row, summed in
            # (a, b) grid order
            w = Fraction(1, self.q * self.d)
            dist: Dict[ChannelOutput, Fraction] = {}
            for a in range(self.q):
                for b in range(self.d):
                    for o, p in self.channel.rows[ChannelInput(a, b)].items():
                        dist[o] = dist.get(o, 0) + w * p
            self._uniform_branch.update(dist)
        return MappingProxyType(self._uniform_branch)


def make_instance(
    ks: KSBasisSet,
    t: int,
    k,
    p_m: Optional[Sequence] = None,
    channel: Optional[FiniteChannel] = None,
) -> WitsenhausenInstance:
    """Build an instance; t below the ambient dimension, k <= 0 or a channel
    whose inputs are not the encoder's (m, j) grid is rejected."""
    k = as_fraction(k)
    if k <= 0:
        raise ValueError(f"action price k must be positive, got {k}")
    if channel is None:
        channel = build_ks_channel(ks)
    grid = [ChannelInput(m, j) for m in range(ks.q) for j in range(ks.d)]
    if sorted(channel.inputs) != grid:
        raise ValueError("channel inputs do not form the full (m, j) grid")
    if t < ks.d:
        raise ValueError(f"encoder scale t={t} must be at least d={ks.d}")
    if p_m is None:
        p_m = [Fraction(1, ks.q)] * ks.q
    p_m = tuple(as_fraction(p) for p in p_m)
    if len(p_m) != ks.q:
        raise ValueError(f"message distribution must have length q = {ks.q}")
    if any(p < 0 for p in p_m):
        raise ValueError("message probabilities must be nonnegative")
    if sum(p_m, Fraction(0)) != 1:
        raise ValueError("message probabilities must sum to exactly 1")
    return WitsenhausenInstance(ks=ks, channel=channel, t=t, k=k, p_m=p_m)


# -- strategies ------------------------------------------------------------


class DeterministicStrategy(NamedTuple):
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

    def c1_json(self) -> str:
        """The c1 table as a JSON list of [x, c1(x)] pairs, sorted by x."""
        return json.dumps([[x, v] for x, v in sorted(self.c1.items())])


class CostReport(NamedTuple):
    """Exact cost of a strategy, split into its two terms, with the number of
    positive-probability branches walked and the largest |z| on them."""

    total: Fraction
    control: Fraction  # k * E[c1^2]
    damping: Fraction  # E[z^2]
    branches: int
    max_abs_z: int


# -- exact evaluation -------------------------------------------------------


def evaluate_deterministic(
    inst: WitsenhausenInstance, strat: DeterministicStrategy
) -> CostReport:
    """Exact expected cost by enumerating every branch of the circuit."""
    control = Fraction(0)
    damping = Fraction(0)
    branches = 0
    max_z = 0
    for m, x in inst.support():
        px = inst.p_m[m]
        a1 = strat.c1_at(x)
        y = x + a1
        control += px * inst.k * a1 * a1
        for s, p_out in inst.output_distribution(y).items():
            z = y + strat.c2_at(s)
            damping += px * p_out * z * z
            branches += 1
            max_z = max(max_z, abs(z))
    return CostReport(control + damping, control, damping, branches, max_z)


def evaluate_quantum(inst: WitsenhausenInstance) -> CostReport:
    """Exact cost of the entangled strategy by full branch enumeration.

    On every branch the first controller adds its measurement outcome j, the
    decoder identifies (m, j) with probability 1 and subtracts m*t + j, so
    the final signal is 0 and only the control term k * E[j^2] remains.  A
    branch probability other than 1/d, a wrong decode or a nonzero final
    signal is a hard failure, and the resulting cost is checked against the
    k*d^2 ceiling.
    """
    weighted = Fraction(0)  # sum over messages of p_m * (sum of j^2 over branches)
    branches = 0
    inv_d = Fraction(1, inst.d)
    for m, x in inst.support():
        j_sq = 0
        for branch in encoder_branches(inst.ks, m):
            if branch.probability != inv_d:
                raise QuantumDecodeError(
                    f"encoder branch probability {branch.probability} != 1/{inst.d}",
                    witness=(m, branch.outcome.j, None),
                )
            j = branch.outcome.j
            y = x + j
            j_sq += j * j
            for s in inst.output_distribution(y):
                decoded, p_dec = decoder_decode(inst.ks, s, branch.residual)
                if decoded != (m, j) or p_dec != 1:
                    raise QuantumDecodeError(
                        f"decoder returned {decoded} with probability {p_dec}",
                        witness=(m, j, s),
                    )
                z = y - (decoded.m * inst.t + decoded.j)
                if z != 0:
                    raise QuantumDecodeError(
                        f"final signal {z} != 0 on a branch", witness=(m, j, s)
                    )
                branches += 1
        weighted += inst.p_m[m] * j_sq
    control = weighted * inst.k / inst.d  # every branch has probability 1/d
    bound = inst.k * inst.d * inst.d
    if not control < bound:
        raise QuantumDecodeError(
            f"entangled cost {control} not below k*d^2 = {bound}", witness=()
        )
    return CostReport(control, control, Fraction(0), branches, 0)


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
    moments: Dict[ChannelOutput, Tuple[Fraction, Fraction, Fraction]] = {}
    for m, x in inst.support():
        if x not in c1:
            raise ValueError(f"c1 table is not defined on supported input {x}")
        y = x + c1[x]
        px = inst.p_m[m]
        for s, p_out in inst.output_distribution(y).items():
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


class SearchResult(NamedTuple):
    strategy: DeterministicStrategy
    cost: Fraction
    complete: bool  # the search finished within the node budget
    candidates_evaluated: int  # c1 prefixes scored


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


class _PrefixEvaluator:
    """Scaled-integer costs of c1 prefixes, for any channel on the (m, j) grid.

    Costs are exact integers: true cost times the fixed common denominator
    ``scale_den``, which clears k, the message probabilities, 1/(q*d) and the
    lcm D of the row degrees.  On that scale row u puts weight D/deg(u) on
    each of its outputs, and the uniform out-of-form branch puts beta_o, the
    sum of D/deg(i) over the endpoints i whose row holds o.

    A message whose wire value decomposes as input u gives its weight to the
    outputs of row u, and u becomes an *owner*.  A validated channel holds
    each output only in the rows of its two endpoints, so an output takes
    in-form weight from at most two owners.  Damping then comes in three
    groups, each a handful of closed-form minima: outputs in the rows of two
    owners, one by one; each owner's other outputs, grouped by beta_o; and
    every unowned output at once, as the out-of-form moments times the sum
    of their beta_o.  All of one owner's messages share its wire value, so
    with no message out of form an owner's other outputs cost nothing.
    """

    def __init__(self, inst: WitsenhausenInstance, window: int):
        q, d = inst.q, inst.d
        grid = [ChannelInput(m, j) for m in range(q) for j in range(d)]
        rows = [inst.channel.rows[u] for u in grid]  # input id u = m*d + j
        degree = [len(row) for row in rows]
        big_d = lcm(*degree)
        # shared[u][u2]: beta of the output in both rows of u and u2, else 0
        self.shared = [[0] * len(grid) for _ in grid]
        beta: Dict[ChannelOutput, int] = {}
        holder: Dict[ChannelOutput, int] = {}  # the first row to hold o
        for u, row in enumerate(rows):
            for o in row:
                if o in holder:  # the second and last row to hold o
                    u0 = holder[o]
                    beta[o] += big_d // degree[u]
                    self.shared[u0][u] = self.shared[u][u0] = beta[o]
                else:
                    holder[o] = u
                    beta[o] = big_d // degree[u]
        self.beta_total = sum(beta.values())
        self.groups: List[tuple] = []  # per input, (beta, count) over its row
        self.row_beta: List[int] = []
        for row in rows:
            row_betas = [beta[o] for o in row]
            self.groups.append(
                tuple((b, row_betas.count(b)) for b in sorted(set(row_betas)))
            )
            self.row_beta.append(sum(row_betas))

        support = inst.support()
        self.window = window
        big_l = lcm(*[inst.p_m[m].denominator for m, _ in support])
        k_den = inst.k.denominator
        self.damp_unit = k_den  # converts damping scale to the cost scale
        self.scale_den = big_l * q * d * big_d * k_den

        # per supported message and window column: the control cost, and
        # (owner id or -1 when out of form, weight, weight*y, weight*y^2)
        self.ctrl_tab: List[List[int]] = []
        self.terms: List[List[tuple]] = []
        for m, x in support:
            pm_int = _exact_int(inst.p_m[m] * big_l)
            a_ctrl = _exact_int(inst.k * inst.p_m[m] * self.scale_den)
            ctrl_row, term_row = [], []
            for v in range(-window, window + 1):
                y = x + v
                hit = inst.decompose(y)
                if hit is None:
                    u, w = -1, pm_int
                else:
                    u = hit.m * d + hit.j
                    w = pm_int * q * d * (big_d // degree[u])
                ctrl_row.append(a_ctrl * v * v)
                term_row.append((u, w, w * y, w * y * y))
            self.ctrl_tab.append(ctrl_row)
            self.terms.append(term_row)

    def to_fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale_den)

    def eval_scaled(self, values: Sequence[int]) -> int:
        """Scaled cost of the c1 prefix giving the first len(values) supported
        messages these values; the unassigned messages contribute nothing."""
        w = self.window
        ctrl = 0
        owned: Dict[int, list] = {}
        oa = ob = oc = 0
        for ctrl_row, term_row, v in zip(self.ctrl_tab, self.terms, values):
            col = v + w
            ctrl += ctrl_row[col]
            u, a, b, c = term_row[col]
            if u < 0:
                oa += a
                ob += b
                oc += c
            elif u in owned:
                own = owned[u]
                own[1] += a
                own[2] += b
                own[3] += c
            else:
                owned[u] = [u, a, b, c]

        owners = list(owned.values())
        damp = 0
        pair_betas = []  # (owner, beta) for each end of a two-owner output
        for idx, (u1, a1, b1, c1) in enumerate(owners):
            shared = self.shared[u1]
            for u2, a2, b2, c2 in owners[idx + 1:]:
                beta = shared[u2]
                if beta:
                    damp += _q_min(
                        a1 + a2 + beta * oa, b1 + b2 + beta * ob, c1 + c2 + beta * oc
                    )
                    pair_betas += ((u1, beta), (u2, beta))
        if oa:
            unowned = self.beta_total + sum(b for _u, b in pair_betas) // 2
            for u1, a1, b1, c1 in owners:
                unowned -= self.row_beta[u1]
                for beta, count in self.groups[u1]:
                    count -= pair_betas.count((u1, beta))
                    if count:
                        damp += count * _q_min(
                            a1 + beta * oa, b1 + beta * ob, c1 + beta * oc
                        )
            damp += unowned * _q_min(oa, ob, oc)
        return ctrl + damp * self.damp_unit


def search_deterministic(
    inst: WitsenhausenInstance,
    window: int,
    *,
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
    Prefixes are scored in scaled integers by one evaluator that takes any
    channel; the winner is re-checked through the branch-by-branch
    evaluation.

    ``candidates_evaluated`` counts the prefixes scored; if ``node_budget`` of
    them runs out the result is incomplete and must never certify anything.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    support = inst.support()
    if not support:
        raise ValueError("instance has empty support")
    if node_budget is not None and node_budget < len(support):
        # below this the search cannot finish its first dive to a full table
        raise ValueError(
            f"node budget {node_budget} is below the {len(support)} prefixes "
            f"of one complete c1 table"
        )
    # Values go in (|v|, v) order, and each one tried is a prefix scored, so
    # within a budget of B prefixes no depth gets past |v| <= B.  Columns are
    # built only that far: a huge window with a small budget costs O(B), and a
    # truncated order can never finish before the budget does.
    reach = window if node_budget is None else min(window, node_budget)
    evaluator = _PrefixEvaluator(inst, reach)

    order = sorted(range(-reach, reach + 1), key=lambda v: (abs(v), v))
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
    )
