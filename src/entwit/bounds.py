"""Cost-bound implications, the strategy-to-code reduction, and certificates.

If some strategy achieved cost at most M, its control outputs and final
signals would be uniformly bounded: |c1| <= M_X = sqrt(M / (k * p_x_min)) and
|z| <= M_Z = sqrt(M / p_z_min), with the minimum probabilities independent of
the scale t.  Since c1 tables are integer-valued, every such strategy lies in
the window floor(M_X); an exact in-window search whose minimum exceeds M
therefore rules out every deterministic strategy, and finite mixtures with
them.  The search is a branch and bound over c1 prefixes that prunes a prefix
only when its exact partial cost, a lower bound on every completion, strictly
exceeds the best complete table so far.  The certificate emitted here records
exactly that chain, and also runs the reduction that powers it: any strategy
whose decoder estimate -c2(s)/t always lands within 1/2 of the sent message
would be a q-message zero-error code, which the channel cannot support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .channel import ZeroErrorCode, ZeroErrorVerdict, verify_zero_error
from .control import (
    DeterministicStrategy,
    SearchResult,
    WitsenhausenInstance,
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

    Valid whenever the shifted wire value stays in channel form (each branch
    then carries at least this much mass); the uniform fallback branch can
    dilute below it, which only ever makes the derived scale threshold t0
    conservative for strategies that stay in form.
    """
    min_row = min(
        min(row.values()) for row in inst.channel.rows.values()
    )
    return pxmin(inst) * min_row


@dataclass(frozen=True)
class BoundSet:
    """Uniform bounds implied by a cost bound M, independent of the scale t."""

    m_bound: Fraction
    k: Fraction
    p_x_min: Fraction
    p_z_min_lower: Fraction
    m_x_sq: Fraction  # M / (k * p_x_min)
    m_z_sq: Fraction  # M / p_z_min_lower
    m_x: float
    m_z: float
    t0: float  # 2 * (m_x + m_z) + 1
    closed_m_x: Optional[float]  # sqrt(6M) family, when parameters match
    closed_m_z: Optional[float]
    closed_t0: Optional[float]  # 20 * sqrt(M) + 1

    @property
    def window_required(self) -> int:
        """Largest |c1| an integer strategy of cost <= M can use: floor(M_X)."""
        a, b = self.m_x_sq.numerator, self.m_x_sq.denominator
        return isqrt(a * b) // b

    @property
    def window_default(self) -> int:
        """ceil(M_X), the window the certificate search uses by default."""
        floor = self.window_required
        if Fraction(floor * floor) == self.m_x_sq:
            return floor
        return floor + 1

    def suggested_t(self, d: int) -> int:
        """Smallest integer scale at or above the t0 formula (closed form
        preferred when it applies) and at or above d."""
        t0 = self.closed_t0 if self.closed_t0 is not None else self.t0
        return max(d, math.ceil(t0))


def compute_bounds(m_bound, k, p_x_min, p_z_min) -> BoundSet:
    """Bound |c1| and |z| under an assumed cost bound, and the scale threshold.

    m_x_sq and m_z_sq are exact; the square roots and the threshold
    t0 = 2 * (M_X + M_Z) + 1 are reported as floats.  When the parameters are
    the concrete ones (p_x_min, p_z_min, k) = (1/6, 1/54, 1) the closed forms
    sqrt(6M), sqrt(54M) and 20 * sqrt(M) + 1 are reported alongside.
    """
    m_bound = as_fraction(m_bound)
    k = as_fraction(k)
    p_x_min = as_fraction(p_x_min)
    p_z_min = as_fraction(p_z_min)
    if m_bound <= 0 or k <= 0 or p_x_min <= 0 or p_z_min <= 0:
        raise ValueError("all bound parameters must be positive")
    m_x_sq = m_bound / (k * p_x_min)
    m_z_sq = m_bound / p_z_min
    m_x = math.sqrt(m_x_sq)
    m_z = math.sqrt(m_z_sq)
    closed = (p_x_min, p_z_min, k) == (Fraction(1, 6), Fraction(1, 54), Fraction(1))
    root_m = math.sqrt(m_bound) if closed else None
    return BoundSet(
        m_bound=m_bound,
        k=k,
        p_x_min=p_x_min,
        p_z_min_lower=p_z_min,
        m_x_sq=m_x_sq,
        m_z_sq=m_z_sq,
        m_x=m_x,
        m_z=m_z,
        t0=2 * (m_x + m_z) + 1,
        closed_m_x=math.sqrt(6 * m_bound) if closed else None,
        closed_m_z=math.sqrt(54 * m_bound) if closed else None,
        closed_t0=20 * root_m + 1 if closed else None,
    )


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
        reachable.update(inst.nt.output_distribution(wire))
    decoder = {}
    ties = []
    for s in sorted(reachable):
        eta = Fraction(-strat.c2_at(s), t)
        decoder[s] = round(eta)  # Fraction.__round__ is half-to-even
        if eta.denominator == 2:
            ties.append(s)
    return ZeroErrorCode(
        messages=messages, encoder=encoder, decoder=decoder, ties=tuple(ties)
    )


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
    """Machine-checkable record that the in-window classical minimum exceeds
    the cost bound while the entangled strategy stays below it."""

    label: str
    q: int
    d: int
    k: Fraction
    m_bound: Fraction
    bounds: BoundSet
    t: int
    window: int
    window_required: int
    window_default: int
    quantum_cost: Fraction
    quantum_branches: int
    status: str  # certified | not-separated | vacuous | inconclusive | window-insufficient
    search: Optional[SearchResult]
    reduction: Optional[ZeroErrorVerdict]
    reduction_ties: int
    notes: tuple
    clauses: tuple

    @property
    def certified(self) -> bool:
        return self.status == "certified"


T0_SYMBOL_NOTE = (
    "the scale threshold uses t0 = 2*(M_X + M_Z) + 1; the second summand is "
    "read as the final-signal bound M_Z"
)


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
    bounds = compute_bounds(m_bound, k, pxmin(probe), pzmin_lower_bound(probe))
    t = bounds.suggested_t(ks.d)
    inst = make_instance(ks, t, k, channel=probe.channel)

    quantum = evaluate_quantum(inst)
    w_required = bounds.window_required
    w_default = bounds.window_default
    w = window if window is not None else w_default

    notes = [T0_SYMBOL_NOTE]
    if window is not None and window != w_default:
        notes.append(
            f"window override {window} in place of the default {w_default}"
        )

    search = reduction = None
    ties = 0
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
        reduction = verify_zero_error(inst.nt, code)
        ties = len(code.ties)
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
        clauses = (
            f"(a) the entangled strategy achieves cost {quantum.total} "
            f"<= {m_bound} at t = {t}, verified over {len(quantum.traces)} branches",
            f"(b) any deterministic strategy with cost <= {m_bound} satisfies "
            f"|c1| <= M_X = sqrt({bounds.m_x_sq}) < {w_required + 1}, hence lies "
            f"in the window [{-w}, {w}]",
            f"(c) the branch-and-bound search over all "
            f"{(2 * w + 1) ** len(inst.support())} in-window c1 tables (optimal "
            f"c2 per table), pruning only prefixes whose exact partial cost "
            f"already exceeds the incumbent, has minimum "
            f"{search.cost} {'>' if search.cost > m_bound else '<='} {m_bound}",
            "(d) a finite shared-randomness mixture is a convex combination of "
            "deterministic strategies, so it cannot go below the deterministic "
            "minimum",
        )
    return SeparationCertificate(
        label=ks.label,
        q=ks.q,
        d=ks.d,
        k=k,
        m_bound=m_bound,
        bounds=bounds,
        t=t,
        window=w,
        window_required=w_required,
        window_default=w_default,
        quantum_cost=quantum.total,
        quantum_branches=len(quantum.traces),
        status=status,
        search=search,
        reduction=reduction,
        reduction_ties=ties,
        notes=tuple(notes),
        clauses=clauses,
    )


def format_certificate(cert: SeparationCertificate) -> str:
    """Deterministic structured-text rendering, designed for re-checking."""
    lines = [
        "report: separation-certificate/1",
        f"status: {cert.status}",
        f"certified: {str(cert.certified).lower()}",
        f"label: {cert.label}",
        f"q: {cert.q}",
        f"d: {cert.d}",
        f"k: {fraction_str(cert.k, with_decimal=True)}",
        f"cost-bound: {fraction_str(cert.m_bound, with_decimal=True)}",
        f"p-x-min: {fraction_str(cert.bounds.p_x_min, with_decimal=True)}",
        f"p-z-min-lower: {fraction_str(cert.bounds.p_z_min_lower, with_decimal=True)}",
        f"m-x-squared: {fraction_str(cert.bounds.m_x_sq, with_decimal=True)}",
        f"m-z-squared: {fraction_str(cert.bounds.m_z_sq, with_decimal=True)}",
        f"m-x: {cert.bounds.m_x:.12g}",
        f"m-z: {cert.bounds.m_z:.12g}",
        f"t0: {cert.bounds.t0:.12g}",
    ]
    if cert.bounds.closed_t0 is not None:
        lines += [
            f"m-x-closed-form: sqrt(6M) = {cert.bounds.closed_m_x:.12g}",
            f"m-z-closed-form: sqrt(54M) = {cert.bounds.closed_m_z:.12g}",
            f"t0-closed-form: 20*sqrt(M) + 1 = {cert.bounds.closed_t0:.12g}",
        ]
    lines += [
        f"t: {cert.t}",
        f"window: {cert.window}",
        f"window-required: {cert.window_required}",
        f"window-default: {cert.window_default}",
        f"quantum-cost: {fraction_str(cert.quantum_cost, with_decimal=True)}",
        f"quantum-branches: {cert.quantum_branches}",
    ]
    if cert.search is not None:
        lines += [
            f"search-complete: {str(cert.search.complete).lower()}",
            f"search-candidates-evaluated: {cert.search.candidates_evaluated}",
            "classical-in-window-minimum: "
            + fraction_str(cert.search.cost, with_decimal=True),
            "best-strategy: " + cert.search.strategy.c1_json(),
        ]
    if cert.reduction is not None:
        lines.append(
            f"reduction-verdict: {cert.reduction.status}"
            + (
                f" witness={cert.reduction.witness}"
                if cert.reduction.witness is not None
                else ""
            )
        )
        lines.append(f"reduction-ties: {cert.reduction_ties}")
    for clause in cert.clauses:
        lines.append(f"clause: {clause}")
    for note in cert.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
