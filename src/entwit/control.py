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
enumerated.  Both read the channel's partner masks and one integer scale,
D/deg per row, built once per instance (``_row_table``).  The winner is
re-checked branch by branch by ``evaluate_deterministic``, which reads
neither: it walks the rows that ``output_distribution`` builds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence

from .channel import FiniteChannel, build_ks_channel
# nothing here calls decoder_decode; the benchmark's span test reads it from this module
from .entangled import QuantumDecodeError, decoder_decode, walk_entangled
from .exact import as_fraction
from .ks import KSBasisSet


class WitsenhausenInstance:
    """A channel at scale t, an input distribution and an action price k.

    The instance is also the composed channel: the encoder at scale t
    followed by the basis-set channel, with all of Z as its input domain.
    A wire value y = a*t + b with a in [0, q) and b in [0, d) goes to row
    u = a*d + b; every other y goes to the uniform mixture of all rows, built
    on first use and held, as is the search's integer scale of its rows.  The
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

    def decompose(self, y: int) -> Optional[int]:
        """The input u = a*d + b with y = a*t + b, or None when y is out of
        form; unique since t >= d.  Input 0 is an input: test for None."""
        a, b = divmod(y, self.t)
        if 0 <= a < self.ks.q and b < self.ks.d:
            return a * self.ks.d + b
        return None

    def output_distribution(self, y: int) -> MappingProxyType:
        """Read-only view of the distribution on wire value y, built from the
        channel's masks: an in-form y gives its row, 1/deg on each output,
        lowest partner first."""
        u = self.decompose(y)
        if u is not None:
            return MappingProxyType(self._row(u))
        if not self._uniform_branch:
            # any out-of-form y gives the same mixture: the encoder's uniform
            # weight 1/(q*d) on every input, composed with its row, summed in
            # input order
            w = Fraction(1, self.q * self.d)
            dist: Dict[tuple, Fraction] = {}
            for u in range(self.q * self.d):
                for o, p in self._row(u).items():
                    dist[o] = dist.get(o, 0) + w * p
            self._uniform_branch.update(dist)
        return MappingProxyType(self._uniform_branch)

    def _row(self, u: int) -> Dict[tuple, Fraction]:
        """Row u of the channel: each output {u, u2} of its mask, lowest u2
        first, with probability 1/deg(u)."""
        mask = self.channel.masks[u]
        p, row = Fraction(1, mask.bit_count()), {}
        while mask:
            bit = mask & -mask
            mask ^= bit
            u2 = bit.bit_length() - 1
            row[(u2, u) if u2 < u else (u, u2)] = p
        return row


def make_instance(
    ks: KSBasisSet,
    t: int,
    k,
    p_m: Optional[Sequence] = None,
    channel: Optional[FiniteChannel] = None,
) -> WitsenhausenInstance:
    """Build an instance; t below the ambient dimension, k <= 0, or a passed
    channel of another grid than the set's q x d one is rejected (a channel
    checks its own masks when it is made)."""
    k = as_fraction(k)
    if k <= 0:
        raise ValueError(f"action price k must be positive, got {k}")
    if channel is None:
        channel = build_ks_channel(ks)
    elif channel.d != ks.d or len(channel.masks) != ks.q * ks.d:
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
    c2: dict  # output (u, u2) -> int

    def c1_at(self, x: int) -> int:
        try:
            return self.c1[x]
        except KeyError:
            raise ValueError(f"strategy c1 is not defined on supported input {x}")

    def c2_at(self, s: tuple) -> int:
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
    the decoder, certain of input m*d + j, subtracts m*t + j, so the final
    signal is 0 and only the control term k * E[j^2] remains.  Only the supported
    messages are walked, each branch has probability 1/d, and the cost is
    checked against the k*d^2 ceiling.  E[j^2] is an integer sum over the lcm
    of the supported p_m's denominators, so one Fraction is built.
    """
    d, p_m, k = inst.d, inst.p_m, inst.k
    messages = [m for m, _x in inst.support()]
    walked = walk_entangled(inst.ks, inst.channel, messages)
    den = lcm(*[p_m[m].denominator for m in messages])
    num = k.numerator * sum([p_m[m].numerator * (den // p_m[m].denominator) * j_sq
                             for m, (_n, j_sq, _in) in zip(messages, walked)])
    control = Fraction(num, den * d * k.denominator)
    if not num < den * d**3 * k.numerator:  # control < k*d^2, as den*d*k.denominator > 0
        raise QuantumDecodeError(
            f"entangled cost {control} not below k*d^2 = {k * d * d}", witness=()
        )
    return CostReport(control, control, Fraction(0), sum(n for n, _j_sq, _in in walked), 0)


def _round_half_even_ratio(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); exact halves go to the even one."""
    quo, rem = divmod(num, den)
    twice = 2 * rem
    if twice < den:
        return quo
    if twice > den:
        return quo + 1
    return quo if quo % 2 == 0 else quo + 1


def _row_table(inst: WitsenhausenInstance) -> tuple:
    """The integer scale of the composed channel that the search and the c2
    rounding score against, built once per instance on first use.

    Per row id u = m*d + j its share D/deg(u), deg(u) being the popcount of
    its mask and D the lcm of the row degrees, so row u puts D/deg(u) on
    each of its outputs; an output {u, u2} is in those two rows only, so it
    takes beta_o = share(u) + share(u2) in all.  Then D, the lcm L of the
    supported messages' probability denominators, and p_m*L per supported
    message, in support order."""
    if inst._table is None:
        degrees = [mask.bit_count() for mask in inst.channel.masks]
        big_d = lcm(*degrees)
        shares = [big_d // deg for deg in degrees]
        probs = [inst.p_m[m] for m, _ in inst.support()]
        big_l = lcm(*[p.denominator for p in probs])
        weights = [p.numerator * (big_l // p.denominator) for p in probs]
        inst._table = shares, big_d, big_l, weights
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
    shares, _big_d, _big_l, weights = _row_table(inst)
    masks = inst.channel.masks
    qd = inst.q * inst.d
    owned = [[0, 0] for _ in shares]  # per row: weight and weight*y on each output
    out = [0, 0]  # the same, over the messages out of form, per unit of beta_o
    for (_m, x), w in zip(inst.support(), weights):
        if x not in c1:
            raise ValueError(f"c1 table is not defined on supported input {x}")
        y = x + c1[x]
        u = inst.decompose(y)
        if u is None:
            own = out
        else:
            own, w = owned[u], w * qd * shares[u]
        own[0] += w
        own[1] += w * y
    oa, ob = out
    c2: Dict[tuple, int] = {}
    for u, (a, b) in enumerate(owned):
        if not (a or oa):
            continue
        # each output once, at the first row with mass that holds it
        mask, share = masks[u], shares[u]
        while mask:
            bit = mask & -mask
            mask ^= bit
            u2 = bit.bit_length() - 1
            a2, b2 = owned[u2]
            if u2 < u and (a2 or oa):
                continue
            beta = share + shares[u2]
            s = (u2, u) if u2 < u else (u, u2)
            c2[s] = _round_half_even_ratio(-(b + b2 + beta * ob), a + a2 + beta * oa)
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
    two owners, its endpoints; row u's partners are its channel mask, the
    output it shares with partner u2 has beta_o = share(u) + share(u2), and
    per row the evaluator holds its outputs counted by beta_o.  The owners
    are a bitmask too, so the owners that share an output with row u are one
    AND.
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
    once per node on first use, which ``out_of_form_bound`` reads too, for
    the node's own message or a later one.
    """

    def __init__(self, inst: WitsenhausenInstance, window: int):
        q, d, t = inst.q, inst.d, inst.t
        shares, big_d, big_l, weights = _row_table(inst)
        self.shares = shares  # per row, D/deg
        self.mates = inst.channel.masks  # per row, the bitmask of its partners
        by_share: Dict[int, int] = {}  # per share, the bitmask of the rows with it
        for u, share in enumerate(shares):
            by_share[share] = by_share.get(share, 0) | 1 << u
        self.groups: List[tuple] = []  # per row, (beta, count) per beta_o value
        self.row_beta: List[int] = []  # per row, the sum of its beta_o
        for mask, share in zip(self.mates, shares):
            groups = tuple(
                (share + other, n)
                for other, rows in by_share.items()
                if (n := (mask & rows).bit_count())
            )
            self.groups.append(groups)
            self.row_beta.append(sum(beta * n for beta, n in groups))
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
                        w = pm_int * q * d * shares[u]
                        cols[v] = (u, w, w * y, w * y * y, a_ctrl * v * v)
            self.messages.append((x, a_ctrl, pm_int))
            self.columns.append(cols)

        # the current prefix, empty to begin with
        self.ctrl = 0
        self.owned: Dict[int, list] = {}  # owner -> [weight, weight*y, weight*y^2]
        self.mask = 0  # bit u set for each owner u
        self.out = [0, 0, 0]  # the same over the messages out of form
        # per prefix length, the current prefix's out-of-form groups once
        # built, as [base, quads, term list or None until a child is scored,
        # the bound's sums per child weight]
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
            base, quads, terms, _held = built
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
        shares = self.shares
        share = shares[u]
        while mates:
            bit = mates & -mates
            mates ^= bit
            u2 = bit.bit_length() - 1
            a2, b2, _c2 = owned[u2]
            beta = share + shares[u2]
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

    def out_of_form_bound(self, depth: int, m: Optional[int] = None) -> tuple:
        """(num, den) with num/den at most the scaled cost of every child that
        gives message m, by default ``depth``, a value out of form, the
        current prefix being the first ``depth`` messages.

        It is a child's cost with c2 relaxed to the reals: a group's
        mult*_least(pa, pb + beta*b) is at least -mult*(pb + beta*w*y)^2/pa,
        for a child of weight w on wire y.  So the bound is a quadratic
        A*y^2 + B*y + C over den, the lcm of the groups' pa, with integer
        coefficients.  It is convex, since k > 0 and the least over real c2
        of quadratics convex in (y, c2) is convex in y, so its least value
        over the out-of-form wires is at the last one at or below the vertex
        -B/2A or the first one above it.  An in-form wire a*t + j steps to
        a*t - 1 below and a*t + d above, the nearest wires out of form (when
        t = d, to -1 and q*t).  The groups are built for message ``depth``'s
        weight; another weight moves each group's pa by beta times the
        difference, and den and the sums over the groups are held per weight."""
        x, a_ctrl, w = self.messages[depth if m is None else m]
        built = self._built[depth] or self._group_outputs(depth)
        held = built[3].get(w)
        if held is None:
            quads, step = built[1], w - self.messages[depth][2]
            if step:
                quads = [(mult, pa + beta * step, pb, beta) for mult, pa, pb, beta in quads]
            den = lcm(*[pa for _m, pa, _pb, _beta in quads])
            sa = sb = sc = 0
            for mult, pa, pb, beta in quads:
                r, bw = mult * (den // pa), beta * w
                sa += r * bw * bw
                sb += r * pb * bw
                sc += r * pb * pb
            held = built[3][w] = den, sa, sb, sc
        den, sa, sb, sc = held
        du = self.damp_unit
        big_a = den * (a_ctrl + du * self.beta_total * w) - du * sa
        big_b = -2 * (den * a_ctrl * x + du * sb)
        big_c = den * (self.ctrl + a_ctrl * x * x + du * built[0]) - du * sc
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
        """[base, quads, None, {}] for the current prefix's out-of-form children,
        built and held for ``depth``: a child of moments (a, b, c) has
        damping base + beta_total*c plus, over the quad (mult, pa, pb, beta)
        of each group of outputs, mult*_least(pa, pb + beta*b).

        The groups are one per output two owners share, each owner's other
        outputs by beta_o, and every unowned output at once (beta 1, mult
        the sum of their beta_o: beta_total less the owners' row sums plus
        each shared output's beta_o, counted in both rows).  A group's
        moments include the out-of-form mass and the weight of a child at
        this depth; ``score`` fills in the term list on the first child, and
        ``out_of_form_bound`` its sums per weight."""
        oa, ob, oc = self.out
        oa += self.messages[depth][2]
        owned, mask = self.owned, self.mask
        quads, base, rest, shares = [], 0, self.beta_total, self.shares
        for u, (a1, b1, c1) in owned.items():
            shared = []  # beta of each of u's outputs that another owner holds
            mates, share = mask & self.mates[u], shares[u]
            while mates:
                low = mates & -mates
                mates ^= low
                u2 = low.bit_length() - 1
                beta = share + shares[u2]
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
        built = self._built[depth] = [base, quads, None, {}]
        return built


def search_deterministic(
    inst: WitsenhausenInstance,
    window: int,
    *,
    node_budget: Optional[int] = None,
) -> SearchResult:
    """Exact minimum over c1 tables with entries in [-window, window], each
    paired with its optimal c2, by depth-first branch and bound in one loop.

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
    order.  A prefix's cost only grows as messages are added, in any order,
    and an incumbent only falls, so the bound on a later message's
    out-of-form values, taken as the next child, holds at every extension
    of the prefix.  A node asks once, at its first child expanded with an
    incumbent, whether its bound rules out those of every later message
    with any in the window; if so, its whole subtree counts its runs in one
    step and never asks.  A depth holds its children as its in-form values
    and the runs between them, no more than 2*q*d + 1 entries whatever the
    window, and the budget stops the search within its first
    ``node_budget`` values at every depth, so a huge window with a small
    budget costs O(node_budget).

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
    # per depth, the later messages that have out-of-form values in the window
    later = [
        [m for m in range(depth + 1, n) if len(entries[m]) > len(evaluator.columns[m])]
        for depth in range(n)
    ]
    # with no budget, past the number of prefixes there are
    limit = node_budget if node_budget is not None else (end + 1) ** n
    best_cost, best_vals = None, None
    nodes, stopped = 0, False

    def clears(depth: int) -> bool:
        """Whether the group bound on the current prefix, the first ``depth``
        messages, rules out the out-of-form values of every later message."""
        for m in later[depth]:
            num, den = bound(depth, m)
            if num <= best_cost * den:
                return False
        return True

    def children(depth: int, cleared: Optional[bool]):
        """Yield, in order, the values of the current prefix's children that
        are not ruled out, the prefix being the first ``depth`` messages and
        ``cleared`` when an ancestor's bound ruled out the out-of-form values
        of its message and every later one.  Every child is counted, a run
        ruled out in one step; once the budget is out, set ``stopped``."""
        nonlocal nodes, stopped
        ruled_out = cleared or None  # asked once, at the first out-of-form child
        for v, run in entries[depth]:
            if nodes >= limit:
                stopped = True
                return
            if not run:
                nodes += 1
                yield v
                continue
            if ruled_out is None:  # there is an incumbent by now
                num, den = bound(depth)
                ruled_out = num > best_cost * den
            if ruled_out:
                nodes += run
                if nodes > limit:
                    nodes, stopped = limit, True
                    return
                continue
            # a run the bound let through, child by child
            at = _position_of(v)
            for pos in range(at, at + run):
                if nodes >= limit:
                    stopped = True
                    return
                nodes += 1
                yield _value_at(pos)

    # the current node's depth, prefix cost and children, and ``below``:
    # whether its bound rules out every later message's out-of-form values,
    # asked at its first child expanded with an incumbent, never at the last
    # depth; ``stack`` holds the same for each ancestor
    depth, prefix_cost, kids, below = 0, 0, children(0, False), None if n > 1 else False
    values, stack = [0] * n, []  # the current prefix, then the child taken
    while True:
        for v in kids:
            cost = score(depth, v, prefix_cost)
            if best_cost is not None and cost > best_cost:
                continue
            values[depth] = v
            if depth + 1 == n:
                table = tuple(values)
                if best_cost is None or cost < best_cost or table < best_vals:
                    best_cost, best_vals = cost, table
                continue
            if below is None and best_cost is not None:
                below = clears(depth)
            shift(depth, v, 1)
            stack.append((prefix_cost, kids, below))
            depth, prefix_cost, kids = depth + 1, cost, children(depth + 1, below)
            below = below or (None if depth + 1 < n else False)
            break
        else:
            if stopped or not stack:
                break
            depth -= 1
            prefix_cost, kids, below = stack.pop()
            shift(depth, values[depth], -1)

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
        complete=not stopped,
        candidates_evaluated=nodes,
    )
