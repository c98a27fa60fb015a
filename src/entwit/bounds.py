"""Cost-bound implications, the strategy-to-code reduction, and certificates.

If some strategy achieved cost at most M, its control outputs would be bounded,
|c1| <= M_X with M_X^2 = M / (k * p_x_min), and p_x_min independent of the
scale t (clause (b)); c1 tables are integer-valued, so every such strategy lies
in the window floor(M_X), and an exact in-window search whose minimum exceeds M
(clause (c)) rules out every deterministic strategy, and finite mixtures with
them.  Soundness rests on (b) and (c) alone.  M_Z^2 = M / p_z_min only picks t:
p_z_min bounds the mass of in-form branches, and the uniform branch can go
below it (``pzmin_lower_bound``).  Both bounds are kept as exact squares; t and
the window come from integer square roots and exact comparisons.  The search is
a branch and bound over c1 prefixes that prunes a prefix only when its exact
partial cost, a lower bound on every completion, strictly exceeds the best
complete table so far.  The certificate emitted here records exactly that
chain, and also runs the reduction that powers it: any strategy whose decoder
estimate -c2(s)/t always lands within 1/2 of the sent message would be a
q-message zero-error code, which the channel cannot support.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from .channel import FiniteChannel, ZeroErrorCode, ZeroErrorVerdict, verify_zero_error
from .control import (
    CostReport,
    DeterministicStrategy,
    SearchResult,
    WitsenhausenInstance,
    _round_half_even_ratio,
    evaluate_quantum,
    make_instance,
    search_deterministic,
)
from .exact import as_fraction, fraction_str
from .ks import KSBasisSet


def pxmin(inst: WitsenhausenInstance) -> Fraction:
    """Minimum positive message probability."""
    positive = [p for p in inst.p_m if p > 0]
    if not positive:
        raise ValueError("instance has empty support")
    return min(positive)


def pzmin_lower_bound(inst: WitsenhausenInstance) -> Fraction:
    """Strategy-independent lower bound on the minimum positive final-signal
    probability: the minimum positive message probability times the minimum
    positive channel row entry.

    Row u puts 1/deg(u) on each of its outputs, deg(u) being the popcount
    of its partner mask, so the least entry is one over the largest degree.

    Valid whenever the shifted wire value stays in channel form (each branch
    then carries at least this much mass); the uniform fallback branch can
    dilute below it, which only ever makes the scale that M_Z picks
    conservative for strategies that stay in form.
    """
    return pxmin(inst) / max(map(int.bit_count, inst.channel.masks))


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative Fraction, in integers."""
    return isqrt(x.numerator // x.denominator)


class BoundSet(NamedTuple):
    """Uniform bounds implied by a cost bound M, independent of the scale t."""

    m_bound: Fraction
    k: Fraction
    p_x_min: Fraction
    p_z_min_lower: Fraction
    m_x_sq: Fraction  # M / (k * p_x_min)
    m_z_sq: Fraction  # M / p_z_min_lower

    @property
    def window_required(self) -> int:
        """Largest |c1| an integer strategy of cost <= M can use: floor(M_X)."""
        return _floor_sqrt(self.m_x_sq)

    @property
    def window_default(self) -> int:
        """ceil(M_X), the window the certificate search uses by default."""
        floor = self.window_required
        if Fraction(floor * floor) == self.m_x_sq:
            return floor
        return floor + 1

    def suggested_t(self, d: int) -> int:
        """Smallest integer scale t >= d with (t - 1)/2 >= M_X + M_Z, decided
        exactly.  At the concrete parameters (p_x_min, p_z_min, k) =
        (1/6, 1/54, 1), where M_X + M_Z = sqrt(6M) + sqrt(54M) <= 10*sqrt(M),
        the closed rule (t - 1)^2 >= 400*M is used; otherwise the general rule
        is squared twice in Fraction.  The walk starts from integer square
        roots of the exact bounds, never above the answer and at most a few
        steps below it, so it ends at once for any M."""
        closed = (Fraction(1, 6), Fraction(1, 54), 1)
        if (self.p_x_min, self.p_z_min_lower, self.k) == closed:
            seed = 1 + _floor_sqrt(400 * self.m_bound)

            def covers(t: int) -> bool:
                return (t - 1) ** 2 >= 400 * self.m_bound
        else:
            a, b = self.m_x_sq, self.m_z_sq
            seed = 1 + 2 * (_floor_sqrt(a) + _floor_sqrt(b))

            def covers(t: int) -> bool:
                gap = Fraction((t - 1) ** 2, 4) - a - b
                return gap >= 0 and gap * gap >= 4 * a * b
        t = max(d, seed)
        while not covers(t):
            t += 1
        return t


def compute_bounds(m_bound, k, p_x_min, p_z_min) -> BoundSet:
    """The exact squared bounds on |c1| and |z| under an assumed cost bound:
    M_X^2 = M / (k * p_x_min) and M_Z^2 = M / p_z_min."""
    m_bound = as_fraction(m_bound)
    k = as_fraction(k)
    p_x_min = as_fraction(p_x_min)
    p_z_min = as_fraction(p_z_min)
    if m_bound <= 0 or k <= 0 or p_x_min <= 0 or p_z_min <= 0:
        raise ValueError("all bound parameters must be positive")
    m_x_sq = m_bound / (k * p_x_min)
    return BoundSet(m_bound, k, p_x_min, p_z_min, m_x_sq, m_bound / p_z_min)


def bounds_for_instance(inst: WitsenhausenInstance, m_bound) -> BoundSet:
    return compute_bounds(m_bound, inst.k, pxmin(inst), pzmin_lower_bound(inst))


# -- the reduction -----------------------------------------------------------


def strategy_to_code(
    inst: WitsenhausenInstance, strat: DeterministicStrategy
) -> ZeroErrorCode:
    """Turn a control strategy into a candidate code for the scaled channel.

    Message m is encoded as the wire value m*t + c1(m*t); an output s decodes
    to the nearest integer to eta = -c2(s) / t.  Exact half-integer eta is
    rounded to even and the output is flagged as a tie, never resolved
    silently.
    """
    t = inst.t
    messages = tuple(m for m, _x in inst.support())
    encoder = {m: x + strat.c1_at(x) for m, x in inst.support()}
    reachable = set()
    for wire in encoder.values():
        reachable.update(inst.output_distribution(wire))
    decoder = {}
    ties = []
    for s in sorted(reachable):
        c2 = strat.c2_at(s)
        decoder[s] = _round_half_even_ratio(-c2, t)
        if 2 * (-c2 % t) == t:  # eta is an exact half-integer
            ties.append(s)
    return ZeroErrorCode(
        messages=messages, encoder=encoder, decoder=decoder, ties=tuple(ties)
    )


# -- certificates ------------------------------------------------------------


class SeparationCertificate(NamedTuple):
    """Machine-checkable record that the in-window classical minimum exceeds
    the cost bound while the entangled strategy stays below it."""

    ks: KSBasisSet
    channel: FiniteChannel  # its labels name the reduction witness's inputs
    bounds: BoundSet  # holds k and the cost bound M
    t: int
    window: int
    quantum: CostReport
    status: str  # certified | not-separated | vacuous | inconclusive | window-insufficient
    search: Optional[SearchResult]
    code: Optional[ZeroErrorCode]  # the best in-window strategy as a code
    reduction: Optional[ZeroErrorVerdict]
    notes: tuple
    clauses: tuple

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify_separation(
    ks: KSBasisSet,
    k,
    m_bound,
    window: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> SeparationCertificate:
    """Run the full certificate pipeline at a scale justified by the bounds.

    Picks t at the threshold suggested by the bound set, finds the exact
    minimum over every in-window c1 table by branch and bound, and certifies
    when that minimum exceeds M:
    (a) the entangled strategy costs at most M, (b) any strategy of cost at
    most M is in-window, (c) no in-window strategy reaches cost M, and (d)
    finite mixtures cannot beat their best component.  A budget-truncated
    search reports inconclusive rather than certifying; a bound below the
    entangled cost is vacuous.  The best in-window strategy is additionally
    pushed through the code reduction to display where its decoding fails.
    """
    k = as_fraction(k)
    m_bound = as_fraction(m_bound)
    probe = make_instance(ks, ks.d, k)  # smallest legal scale, same channel
    bounds = bounds_for_instance(probe, m_bound)
    t = bounds.suggested_t(ks.d)
    inst = make_instance(ks, t, k, channel=probe.channel)

    quantum = evaluate_quantum(inst)
    w_required = bounds.window_required
    w_default = bounds.window_default
    w = window if window is not None else w_default

    notes = []
    if window is not None and window != w_default:
        notes.append(
            f"window override {window} in place of the default {w_default}"
        )

    search = code = reduction = None
    clauses = ()
    if m_bound < quantum.total:
        status = "vacuous"
        notes.append(
            f"cost bound {m_bound} is below the entangled cost "
            f"{quantum.total}; nothing to separate"
        )
    else:
        search = search_deterministic(inst, w, node_budget=node_budget)
        code = strategy_to_code(inst, search.strategy)
        reduction = verify_zero_error(inst, code)
        if not search.complete:
            status = "inconclusive"
            notes.append("search truncated by the node budget; no certificate")
        elif w < w_required:
            status = "window-insufficient"
            notes.append(
                f"window {w} does not cover every strategy of cost <= {m_bound} "
                f"(needs {w_required})"
            )
        elif search.cost > m_bound:
            status = "certified"
        else:
            status = "not-separated"
        tables = (2 * w + 1) ** len(inst.support())
        if search.complete:
            searched = (
                f"(c) the branch-and-bound search over all {tables} in-window c1 "
                f"tables (optimal c2 per table), pruning only prefixes whose exact "
                f"partial cost already exceeds the incumbent, has minimum "
                f"{search.cost} {'>' if search.cost > m_bound else '<='} {m_bound}"
            )
        else:
            searched = (
                f"(c) the branch-and-bound search over the {tables} in-window c1 "
                f"tables (optimal c2 per table) stopped at the node budget after "
                f"{search.candidates_evaluated} prefixes; the best table found "
                f"costs {search.cost}, which is only an upper bound on the minimum"
            )
        clauses = (
            f"(a) the entangled strategy achieves cost {quantum.total} "
            f"<= {m_bound} at t = {t}, verified over {quantum.branches} branches",
            f"(b) any deterministic strategy with cost <= {m_bound} satisfies "
            f"|c1| <= M_X = sqrt({bounds.m_x_sq}) < {w_required + 1}, hence lies "
            f"in the window [{-w}, {w}]",
            searched,
            "(d) a finite shared-randomness mixture is a convex combination of "
            "deterministic strategies, so it cannot go below the deterministic "
            "minimum",
        )
    return SeparationCertificate(
        ks=ks,
        channel=inst.channel,
        bounds=bounds,
        t=t,
        window=w,
        quantum=quantum,
        status=status,
        search=search,
        code=code,
        reduction=reduction,
        notes=tuple(notes),
        clauses=clauses,
    )


def format_certificate(cert: SeparationCertificate) -> str:
    """Deterministic structured-text rendering, designed for re-checking."""
    ks, b = cert.ks, cert.bounds
    lines = [
        "report: separation-certificate/1",
        f"status: {cert.status}",
        f"certified: {str(cert.certified).lower()}",
        f"label: {ks.label}",
        f"q: {ks.q}",
        f"d: {ks.d}",
        f"k: {fraction_str(b.k, with_decimal=True)}",
        f"cost-bound: {fraction_str(b.m_bound, with_decimal=True)}",
        f"p-x-min: {fraction_str(b.p_x_min, with_decimal=True)}",
        f"p-z-min-lower: {fraction_str(b.p_z_min_lower, with_decimal=True)}",
        f"m-x-squared: {fraction_str(b.m_x_sq, with_decimal=True)}",
        f"m-z-squared: {fraction_str(b.m_z_sq, with_decimal=True)}",
        f"t: {cert.t}",
        f"window: {cert.window}",
        f"window-required: {b.window_required}",
        f"window-default: {b.window_default}",
        f"quantum-cost: {fraction_str(cert.quantum.total, with_decimal=True)}",
        f"quantum-branches: {cert.quantum.branches}",
    ]
    if cert.search is not None:
        # a truncated search has found a table, not the minimum
        found = "minimum" if cert.search.complete else "best-found"
        lines += [
            f"search-complete: {str(cert.search.complete).lower()}",
            f"search-candidates-evaluated: {cert.search.candidates_evaluated}",
            f"classical-in-window-{found}: "
            + fraction_str(cert.search.cost, with_decimal=True),
            "best-strategy: " + cert.search.strategy.c1_json(),
        ]
    if cert.reduction is not None:
        verdict = f"reduction-verdict: {cert.reduction.status}"
        if cert.reduction.witness is not None:
            # the output's two inputs print as their (m, j) labels
            msg, (u, u2), decoded = cert.reduction.witness
            labels = cert.channel.inputs
            verdict += f" witness={json.dumps([msg, [labels[u], labels[u2]], decoded])}"
        lines.append(verdict)
        lines.append(f"reduction-ties: {len(cert.code.ties)}")
    for clause in cert.clauses:
        lines.append(f"clause: {clause}")
    for note in cert.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
