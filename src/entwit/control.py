"""Two-controller damping instances, strategy classes and exact cost search.

An instance fixes a basis-set channel, the integer encoder at scale t (the
instance is the two composed), an input distribution supported on the
multiples m*t, and a price k on the first controller's action.  The cost of
a strategy is

    E[ k * c1(x)^2 + (x + c1(x) + c2(s))^2 ]

evaluated exactly over every positive-probability branch.  A cost report
keeps the total, its two terms, the number of branches walked and the
largest final signal; no per-branch record is kept.  Two strategy classes
are evaluated: deterministic tables, and the entangled strategy, whose
second term vanishes on every branch of ``entangled.walk_entangled``.  A
finite shared-randomness mixture of deterministic tables costs the weighted
average of its components, so it never beats the best one; the certificate
states that in words (clause (d)), and the test suite keeps a mixture
evaluator as an oracle for it.

The deterministic search is an exact branch and bound over c1 tables with
entries in a window [-W, W] (``search_deterministic``); c2 is minimized per
channel output in closed form (``optimal_c2_for_c1``), so it is never
enumerated.  Both score against one integer table of the composed channel,
built once per instance (``_row_table``).  The winner is re-checked branch
by branch by ``evaluate_deterministic``, which does not read that table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence

from .channel import ChannelInput, ChannelOutput, FiniteChannel, build_ks_channel
# nothing here calls decoder_decode; the benchmark's span test reads it from this module
from .entangled import QuantumDecodeError, decoder_decode, walk_entangled
from .exact import as_fraction
from .ks import KSBasisSet


class WitsenhausenInstance:
    """A channel at scale t, an input distribution and an action price k.

    The instance is also the composed channel: the encoder at scale t
    followed by the basis-set channel, with all of Z as its input domain.
    A wire value y = a*t + b with a in [0, q) and b in [0, d) goes to row
    (a, b); every other y goes to the uniform mixture of all rows, built on
    first use and held, as is the search's integer table of its rows.  The
    support is found once, when the instance is made.
    """

    __slots__ = ("ks", "channel", "t", "k", "p_m", "_support", "_uniform_branch", "_table")

    def __init__(
        self, *, ks: KSBasisSet, channel: FiniteChannel, t: int, k: Fraction, p_m: tuple
    ):
        self.ks = ks
        self.channel = channel
        self.t = t
        self.k = k
        self.p_m = p_m  # Fraction per message m in [q]
        self._support = tuple((m, m * t) for m in range(ks.q) if p_m[m] > 0)
        self._uniform_branch = {}  # one per instance: it depends on the channel
        self._table = None  # the same, for _row_table

    @property
    def q(self) -> int:
        return self.ks.q

    @property
    def d(self) -> int:
        return self.ks.d

    def support(self) -> tuple:
        """(m, x = m*t) for every message with positive probability."""
        return self._support

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
    """Build an instance; t below the ambient dimension, k <= 0, or a passed
    channel that fails ``FiniteChannel.validate`` or whose inputs are not the
    encoder's (m, j) grid is rejected."""
    k = as_fraction(k)
    if k <= 0:
        raise ValueError(f"action price k must be positive, got {k}")
    if channel is None:
        channel = build_ks_channel(ks)  # validated where it is built
    else:
        channel.validate()  # the search's row table assumes uniform rows
    grid = [ChannelInput(m, j) for m in range(ks.q) for j in range(ks.d)]
    if sorted(channel.inputs) != grid:
        raise ValueError("channel inputs do not form the full (m, j) grid")
    if t < ks.d:
        raise ValueError(f"encoder scale t={t} must be at least d={ks.d}")
    if p_m is None:  # uniform, correct by construction
        p_m = (Fraction(1, ks.q),) * ks.q
    else:
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
    """Exact expected cost by enumerating every branch of the circuit, as
    integer sums over common denominators: L, the lcm of the message
    probabilities', for control, and L times that of the outputs' so far."""
    support = inst.support()
    big_l = lcm(*[inst.p_m[m].denominator for m, _ in support])
    control = damping = branches = max_z = 0  # control * L / k, damping * L * den
    den = 1
    for m, x in support:
        px = inst.p_m[m]
        w = px.numerator * (big_l // px.denominator)  # p_m * L
        a1 = strat.c1_at(x)
        y = x + a1
        control += w * a1 * a1
        for s, p_out in inst.output_distribution(y).items():
            z = y + strat.c2_at(s)
            pn, pd = p_out.numerator, p_out.denominator
            common = lcm(den, pd)
            damping = damping * (common // den) + w * pn * (common // pd) * z * z
            den = common
            branches += 1
            max_z = max(max_z, abs(z))
    control = Fraction(control * inst.k.numerator, big_l * inst.k.denominator)
    damping = Fraction(damping, big_l * den)
    return CostReport(control + damping, control, damping, branches, max_z)


def evaluate_quantum(inst: WitsenhausenInstance) -> CostReport:
    """Exact cost of the entangled strategy, read from ``walk_entangled``.

    On every branch the first controller adds its measurement outcome j and
    the decoder, certain of (m, j), subtracts m*t + j, so the final signal is
    0 and only the control term k * E[j^2] remains.  Only the supported
    messages are walked, each branch has probability 1/d, and the cost is
    checked against the k*d^2 ceiling.
    """
    d, p_m = inst.d, inst.p_m
    messages = [m for m, _x in inst.support()]
    walked = walk_entangled(inst.ks, inst.channel.rows, messages)
    weighted = sum(p_m[m] * j_sq for m, (_n, j_sq) in zip(messages, walked))
    control = weighted * inst.k / d
    bound = inst.k * d * d
    if not control < bound:
        raise QuantumDecodeError(
            f"entangled cost {control} not below k*d^2 = {bound}", witness=()
        )
    return CostReport(control, control, Fraction(0), sum(n for n, _ in walked), 0)


def _round_half_even_ratio(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); exact halves go to the even one."""
    quo, rem = divmod(num, den)
    twice = 2 * rem
    if twice < den:
        return quo
    if twice > den:
        return quo + 1
    return quo if quo % 2 == 0 else quo + 1


def _exact_int(num: int, den: int) -> int:
    """num/den, which must be an integer."""
    quo, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"expected an integer-valued fraction, got {Fraction(num, den)}")
    return quo


def _row_table(inst: WitsenhausenInstance) -> tuple:
    """The integer form of the composed channel that the search and the c2
    rounding score against, built once per instance on first use.

    Per row id u = m*d + j: (D/deg(u), its outputs as (o, beta_o, u2)),
    with D the lcm of the row degrees, so row u puts D/deg(u) on each of its
    outputs; u2 is the id of o's other endpoint when that row holds o too,
    else -1 (a validated channel holds o only in its endpoints' rows), and
    beta_o is the sum of D/deg over the rows that hold o.  Then D, the lcm L
    of the supported messages' probability denominators, and p_m*L per
    supported message, in support order."""
    if inst._table is None:
        d = inst.d
        grid = [ChannelInput(m, j) for m in range(inst.q) for j in range(d)]
        rows = [inst.channel.rows[i] for i in grid]
        big_d = lcm(*map(len, rows))
        shares = [big_d // len(row) for row in rows]
        table = []
        for i, row, share in zip(grid, rows, shares):
            outs = []
            for o in row:
                m, j = o[1] if o[0] == i else o[0]
                u2 = m * d + j
                outs.append((o, share + shares[u2], u2) if o in rows[u2] else (o, share, -1))
            table.append((share, outs))
        probs = [inst.p_m[m] for m, _ in inst.support()]
        big_l = lcm(*[p.denominator for p in probs])
        weights = [_exact_int(p.numerator * big_l, p.denominator) for p in probs]
        inst._table = table, big_d, big_l, weights
    return inst._table


def optimal_c2_for_c1(inst: WitsenhausenInstance, c1: dict) -> dict:
    """The exact integer minimizer of the damping term, separately per output.

    For each reachable output s the damping contribution is a quadratic in
    c2(s) whose integer minimum sits at the nearest integer to the negated
    posterior mean of the wire value; exact half-integer means round to the
    even integer.  Outputs of zero probability are left out (the strategy
    default of 0 applies there and never contributes to cost).

    Mass and first moment are integers on the search's scale: an in-form
    message puts p_m*L*q*d*D/deg(u) on each output of its row u, and the
    messages out of form, summed once, put their total times beta_o on o.
    With no message out of form, only the outputs of the in-form messages'
    rows have mass.
    """
    table, _big_d, _big_l, weights = _row_table(inst)
    qd = inst.q * inst.d
    owned = [[0, 0] for _ in table]  # per row: weight and weight*y on each output
    out = [0, 0]  # the same, over the messages out of form, per unit of beta_o
    for (_m, x), w in zip(inst.support(), weights):
        if x not in c1:
            raise ValueError(f"c1 table is not defined on supported input {x}")
        y = x + c1[x]
        hit = inst.decompose(y)
        if hit is None:
            own = out
        else:
            u = hit.m * inst.d + hit.j
            own, w = owned[u], w * qd * table[u][0]
        own[0] += w
        own[1] += w * y
    oa, ob = out
    c2: Dict[ChannelOutput, int] = {}
    for u, (a, b) in enumerate(owned):
        if not (a or oa):
            continue
        # each output once, at the first row with mass that holds it
        for s, beta, u2 in table[u][1]:
            mass, ysum = a + beta * oa, b + beta * ob
            if u2 >= 0:
                a2, b2 = owned[u2]
                if u2 < u and (a2 or oa):
                    continue
                mass, ysum = mass + a2, ysum + b2
            c2[s] = _round_half_even_ratio(-ysum, mass)
    return c2


# -- deterministic search ---------------------------------------------------


class SearchResult(NamedTuple):
    strategy: DeterministicStrategy
    cost: Fraction
    complete: bool  # the search finished within the node budget
    candidates_evaluated: int  # c1 prefixes scored or ruled out by the group bound


class SearchMismatchError(AssertionError):
    """The search's cost for its winner differs from the exact re-evaluation."""


def _least(a: int, b: int) -> int:
    """min over integers v of a*v^2 + 2*b*v, for a > 0.  The minimum sits at
    the integer nearest -b/a; at an exact half both neighbours give it, so v
    rounds half up here."""
    v = (a - 2 * b) // (2 * a)
    return (a * v + 2 * b) * v


def _value_at(pos: int) -> int:
    """The value at position ``pos`` of the (|v|, v) order 0, -1, 1, -2, 2, ..."""
    return -((pos + 1) >> 1) if pos & 1 else pos >> 1


def _position_of(v: int) -> int:
    """The position of v in the (|v|, v) order."""
    return 2 * v if v >= 0 else -2 * v - 1


class _PrefixEvaluator:
    """Scaled-integer costs of c1 prefixes, for any channel on the (m, j) grid,
    scored child by child as a depth-first search moves.

    Costs are exact integers: true cost times ``scale_den``, which clears k
    and the denominators of ``_row_table``'s scale.  An output whose moments
    are (a, b, c) = (weight, weight*y, weight*y^2) costs ``_least(a, b) + c``.

    A message takes values v in [-window, window].  The evaluator holds only
    its in-form columns, the v whose wire x + v decomposes as an input; there
    are at most q*d of them, so it is built in O(q*d) per message whatever
    the window.  Every other v is out of form, and its moments follow from
    the message's weight and its wire alone.

    A message in form at input u gives its weight to the outputs of row u,
    and u becomes an *owner*.  An output takes in-form weight from at most
    two owners, its endpoints; per row the evaluator holds its partners (the
    rows that hold one of its outputs too) as a bitmask and as a map to that
    output's beta_o, and its outputs counted by beta_o.  The owners are a
    bitmask too, so the owners that share an output with row u are one AND.
    All of one owner's messages share its wire value, so with no message out
    of form an output held by one owner costs nothing.

    ``shift`` moves the current prefix one message at a time: its control
    cost, per owner the moments, and the out-of-form moments.  ``score``
    gives the cost of one child.  A child in form at row u changes only the
    outputs of row u, so it adds to its parent's cost one difference of
    closed-form minima per output that u shares with another owner and,
    when there is out-of-form mass, one per beta group of u's other outputs.
    The out-of-form children of a prefix keep its owners and add the same
    weight, so they share the output groups of ``_group_outputs``, built
    once per node on first use, which ``out_of_form_bound`` reads too.
    """

    def __init__(self, inst: WitsenhausenInstance, window: int):
        q, d, t = inst.q, inst.d, inst.t
        table, big_d, big_l, weights = _row_table(inst)
        self.partners: List[Dict[int, int]] = []  # per row, other holder -> beta_o
        self.mates: List[int] = []  # per row, the bitmask of its partners
        self.row_beta: List[int] = []  # per row, the sum of its beta_o
        self.groups: List[tuple] = []  # per row, (beta, count) per beta_o value
        for _share, outs in table:
            partners, mask, counts = {}, 0, {}
            for _o, beta, u2 in outs:
                counts[beta] = counts.get(beta, 0) + 1
                if u2 >= 0:
                    partners[u2] = beta
                    mask |= 1 << u2
            self.partners.append(partners)
            self.mates.append(mask)
            self.row_beta.append(sum(beta * n for beta, n in counts.items()))
            self.groups.append(tuple(counts.items()))
        self.beta_total = q * d * big_d  # each row puts D in all on its outputs
        self.t, self.d, self.qt, self.window = t, d, q * t, window

        support = inst.support()
        k_num, k_den = inst.k.numerator, inst.k.denominator
        self.damp_unit = k_den  # converts damping scale to the cost scale
        self.scale_den = big_l * q * d * big_d * k_den

        # per supported message: its x, k * p_m * scale_den (the control cost
        # of |v| = 1) and the weight of an out-of-form value; and its in-form
        # columns, v -> (owner id, weight, weight*y, weight*y^2, control cost)
        self.messages: List[tuple] = []
        self.columns: List[Dict[int, tuple]] = []
        for (_m, x), pm_int in zip(support, weights):
            a_ctrl = k_num * pm_int * q * d * big_d  # k * p_m * scale_den
            cols = {}
            for a in range(max(0, (x - window) // t), min(q - 1, (x + window) // t) + 1):
                for j in range(d):
                    y = a * t + j
                    v = y - x
                    if -window <= v <= window:
                        u = a * d + j
                        w = pm_int * q * d * table[u][0]
                        cols[v] = (u, w, w * y, w * y * y, a_ctrl * v * v)
            self.messages.append((x, a_ctrl, pm_int))
            self.columns.append(cols)

        # the current prefix, empty to begin with
        self.ctrl = 0
        self.owned: Dict[int, list] = {}  # owner -> [weight, weight*y, weight*y^2]
        self.mask = 0  # bit u set for each owner u
        self.out = [0, 0, 0]  # the same over the messages out of form
        # per prefix length, the current prefix's out-of-form groups once
        # built, as [base, quads, term list or None until a child is scored]
        self._built: List[Optional[list]] = [None] * (len(support) + 1)

    def to_fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale_den)

    def shift(self, depth: int, v: int, sign: int) -> None:
        """Give message ``depth``, the next one, the value v (sign 1), or take
        that value back (sign -1)."""
        col = self.columns[depth].get(v)
        if col is None:
            x, a_ctrl, w = self.messages[depth]
            y = x + v
            self.ctrl += sign * a_ctrl * v * v
            out = self.out
            out[0] += sign * w
            out[1] += sign * w * y
            out[2] += sign * w * y * y
        else:
            u, a, b, c, ctrl = col
            self.ctrl += sign * ctrl
            own = self.owned.get(u)
            if own is None:
                own = self.owned[u] = [0, 0, 0]
                self.mask |= 1 << u
            own[0] += sign * a
            own[1] += sign * b
            own[2] += sign * c
            if not own[0]:
                del self.owned[u]
                self.mask ^= 1 << u
        if sign > 0:
            self._built[depth + 1] = None

    def score(self, depth: int, v: int, cost: int) -> int:
        """The scaled cost of the child that gives message ``depth`` the value
        v, the current prefix being the first ``depth`` messages at scaled
        cost ``cost``."""
        col = self.columns[depth].get(v)
        if col is None:
            x, a_ctrl, w = self.messages[depth]
            y = x + v
            b = w * y
            built = self._built[depth] or self._group_outputs(depth)
            base, quads, terms = built
            if terms is None:
                # mult*_least(pa, pb + beta*b) is (qa*z + lin)*z at z = (qa -
                # lin) // 2qa, with qa = mult*pa and lin = 2*mult*(pb + beta*b)
                terms = built[2] = [
                    (m * pa, 2 * m * pa, 2 * m * pb, 2 * m * beta) for m, pa, pb, beta in quads
                ]
            damping = base + self.beta_total * b * y
            for qa, qa2, lin, slope in terms:
                lin += slope * b
                z = (qa - lin) // qa2
                damping += (qa * z + lin) * z
            return self.ctrl + a_ctrl * v * v + self.damp_unit * damping
        u, a, b, c, ctrl = col
        mates = self.mask & self.mates[u]  # the owners that share an output with u
        oa = self.out[0]
        if not (mates or oa):
            return cost + ctrl
        ob = self.out[1]
        owned = self.owned
        own = owned.get(u)
        a0, b0 = (own[0], own[1]) if own else (0, 0)
        delta = 0
        shared = []  # beta of each of u's outputs that another owner holds
        partners = self.partners[u]
        while mates:
            bit = mates & -mates
            mates ^= bit
            u2 = bit.bit_length() - 1
            a2, b2, _c2 = owned[u2]
            beta = partners[u2]
            shared.append(beta)
            # _least(pa + a, pb + b) - _least(pa, pb), inlined in this hot loop
            pa, pb = a2 + a0 + beta * oa, b2 + b0 + beta * ob
            z = (pa - 2 * pb) // (2 * pa)
            delta -= (pa * z + 2 * pb) * z
            pa, pb = pa + a, pb + b
            z = (pa - 2 * pb) // (2 * pa)
            delta += (pa * z + 2 * pb) * z + c
        if oa:
            for beta, count in self.groups[u]:
                count -= shared.count(beta)
                if count:
                    pa, pb = a0 + beta * oa, b0 + beta * ob
                    delta += count * (_least(pa + a, pb + b) - _least(pa, pb) + c)
        return cost + ctrl + self.damp_unit * delta

    def out_of_form_bound(self, depth: int) -> tuple:
        """(num, den) with num/den at most the scaled cost of every
        out-of-form child of the current prefix, the first ``depth`` messages.

        It is a child's cost with c2 relaxed to the reals: a group's
        mult*_least(pa, pb + beta*b) is at least -mult*(pb + beta*w*y)^2/pa,
        for a child of weight w on wire y.  So the bound is a quadratic
        A*y^2 + B*y + C over den, the lcm of the groups' pa, with integer
        coefficients.  It is convex, since k > 0 and the least over real c2
        of quadratics convex in (y, c2) is convex in y, so its least value
        over the out-of-form wires is at the last one at or below the vertex
        -B/2A or the first one above it.  An in-form wire a*t + j steps to
        a*t - 1 below and a*t + d above, the nearest wires out of form (when
        t = d, to -1 and q*t)."""
        x, a_ctrl, w = self.messages[depth]
        base, quads, _terms = self._built[depth] or self._group_outputs(depth)
        den = lcm(*[pa for _m, pa, _pb, _beta in quads])
        sa = sb = sc = 0
        for m, pa, pb, beta in quads:
            r, bw = m * (den // pa), beta * w
            sa += r * bw * bw
            sb += r * pb * bw
            sc += r * pb * pb
        du = self.damp_unit
        big_a = den * (a_ctrl + du * self.beta_total * w) - du * sa
        big_b = -2 * (den * a_ctrl * x + du * sb)
        big_c = den * (self.ctrl + a_ctrl * x * x + du * base) - du * sc
        t, d, qt = self.t, self.d, self.qt
        lo, hi = x - self.window, x + self.window
        vertex = -big_b // (2 * big_a)
        below = vertex if vertex < hi else hi
        if 0 <= below < qt and below % t < d:
            below = below - below % t - 1 if t > d else -1
        above = vertex + 1 if vertex >= lo else lo
        if 0 <= above < qt and above % t < d:
            above = above - above % t + d if t > d else qt
        num = None
        for y in (below, above):
            if lo <= y <= hi:
                value = (big_a * y + big_b) * y + big_c
                if num is None or value < num:
                    num = value
        return num, den

    def _group_outputs(self, depth: int) -> list:
        """[base, quads, None] for the current prefix's out-of-form children,
        built and held for ``depth``: a child of moments (a, b, c) has
        damping base + beta_total*c plus, over the quad (mult, pa, pb, beta)
        of each group of outputs, mult*_least(pa, pb + beta*b).

        The groups are one per output two owners share, each owner's other
        outputs by beta_o, and every unowned output at once (beta 1, mult
        the sum of their beta_o: beta_total less the owners' row sums plus
        each shared output's beta_o, counted in both rows).  A group's
        moments include the out-of-form mass and the weight of a child at
        this depth; ``score`` fills in the term list on the first child."""
        oa, ob, oc = self.out
        oa += self.messages[depth][2]
        owned, mask = self.owned, self.mask
        quads, base, rest = [], 0, self.beta_total
        for u, (a1, b1, c1) in owned.items():
            shared = []  # beta of each of u's outputs that another owner holds
            mates, partners = mask & self.mates[u], self.partners[u]
            while mates:
                low = mates & -mates
                mates ^= low
                u2 = low.bit_length() - 1
                beta = partners[u2]
                shared.append(beta)
                if u2 > u:
                    a2, b2, c2 = owned[u2]
                    quads.append((1, a1 + a2 + beta * oa, b1 + b2 + beta * ob, beta))
                    base += c1 + c2 + beta * oc
                    rest += beta  # the output is in both rows' sums
            rest -= self.row_beta[u]
            for beta, count in self.groups[u]:
                count -= shared.count(beta)
                if count:
                    quads.append((count, a1 + beta * oa, b1 + beta * ob, beta))
                    base += count * (c1 + beta * oc)
        if rest:
            quads.append((rest, oa, ob, 1))
            base += rest * oc
        built = self._built[depth] = [base, quads, None]
        return built


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
    Prefixes are scored by ``_PrefixEvaluator``; the winner is re-checked by
    ``evaluate_deterministic``.

    A node's first child, v = 0, is in form, and below it the search
    completes a table if it has none yet, so a node reaches its out-of-form
    children with an incumbent.  It asks the evaluator, at the first of
    them, for the group bound on all of them.  If that bound strictly
    exceeds the incumbent, each of them would be pruned anyway, so they are
    passed over unscored, and each run of them between two in-form children
    is counted with one addition, checked against the budget as a whole;
    otherwise each is scored.  The same prefixes are expanded in the same
    order.  A depth holds its children as its in-form values and the runs
    between them, no more than 2*q*d + 1 entries whatever the window, and
    the budget stops the search within its first ``node_budget`` values at
    every depth, so a huge window with a small budget costs O(node_budget).

    ``candidates_evaluated`` counts the prefixes scored or ruled out by the
    group bound, child by child; if ``node_budget`` of them runs out the
    result is incomplete and must never certify anything.
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
    evaluator = _PrefixEvaluator(inst, window)
    score, shift, bound = evaluator.score, evaluator.shift, evaluator.out_of_form_bound
    n = len(support)
    # Per depth, the children in (|v|, v) order: each in-form value as (v, 0),
    # and each run of out-of-form values between two in-form ones as (its
    # first v, its length)
    end = 2 * window + 1  # the number of positions
    entries = []
    for cols in evaluator.columns:
        row, at = [], 0
        for pos in sorted(map(_position_of, cols)) + [end]:
            if pos > at:
                row.append((_value_at(at), pos - at))
            if pos < end:
                row.append((_value_at(pos), 0))
            at = pos + 1
        entries.append(row)
    # with no budget, past the number of prefixes there are
    limit = node_budget if node_budget is not None else (end + 1) ** n
    best_cost, best_vals = None, None
    nodes = 0

    def descend(prefix: tuple, prefix_cost: int) -> bool:
        """Search every completion of ``prefix``, the evaluator's current
        prefix; False once the budget is out."""
        nonlocal nodes
        depth = len(prefix)
        ruled_out = None  # asked once, at the first out-of-form child
        for v, run in entries[depth]:
            if nodes >= limit:
                return False
            nodes += 1
            if run:
                if ruled_out is None:  # there is an incumbent by now
                    num, den = bound(depth)
                    ruled_out = num > best_cost * den
                if ruled_out:
                    # the rest of the run, counted in one step
                    nodes += run - 1
                    if nodes > limit:
                        nodes = limit
                        return False
                    continue
            cost = score(depth, v, prefix_cost)
            if (best_cost is None or cost <= best_cost) and not expand(prefix, v, cost):
                return False
            if run > 1:
                # the rest of a run the bound let through, child by child
                at = _position_of(v)
                for pos in range(at + 1, at + run):
                    if nodes >= limit:
                        return False
                    nodes += 1
                    v = _value_at(pos)
                    cost = score(depth, v, prefix_cost)
                    if cost <= best_cost and not expand(prefix, v, cost):
                        return False
        return True

    def expand(prefix: tuple, v: int, cost: int) -> bool:
        """Take the child ``prefix + (v,)`` of scaled cost ``cost``, which is
        not pruned: search its completions, or keep it if it is a complete
        table the incumbent does not beat; False once the budget is out."""
        nonlocal best_cost, best_vals
        values = prefix + (v,)
        depth = len(prefix)
        if depth + 1 < n:
            shift(depth, v, 1)
            if not descend(values, cost):
                return False
            shift(depth, v, -1)
        elif best_cost is None or cost < best_cost or values < best_vals:
            best_cost, best_vals = cost, values
        return True

    complete = descend((), 0)
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
