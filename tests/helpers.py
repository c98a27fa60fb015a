"""Independent oracles and strategy generators shared across the test suite.

Everything here deliberately re-derives results by the dumbest available
method (direct inner products, plain enumeration, linear scans) so the
package code is checked against computations that share none of its shortcuts.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import floor

from entwit.channel import ChannelInput, ZeroErrorCode, confusability_graph
from entwit.control import (
    CostReport,
    DeterministicStrategy,
    evaluate_deterministic,
    optimal_c2_for_c1,
    posterior_moments,
)
from entwit.exact import ComplexFraction, Vector


def naive_ks_check(ks):
    """Re-derive the one-per-basis orthogonality property from raw dots.

    Walks every traversal with itertools.product and tests each pair by a
    direct inner product; no bitmasks, no precomputation, no pruning.
    Returns (holds, witness_or_None, traversals visited in product order).
    """
    count = 0
    for combo in product(range(ks.d), repeat=ks.q):
        count += 1
        chosen = [ks.bases[m][j] for m, j in enumerate(combo)]
        if not any(
            not raw_dot(a, b) for a, b in combinations(chosen, 2)
        ):
            return False, tuple(enumerate(combo)), count
    return True, None, count


def brute_force_c2(inst, c1, lo, hi):
    """Per-output linear scan for the best integer c2 in [lo, hi].

    Returns {s: (set of minimizing values, minimal damping contribution)}.
    """
    tables = {}
    for s, (mass, ysum, ysq) in posterior_moments(inst, c1).items():
        best_vals, best_cost = None, None
        for c in range(lo, hi + 1):
            cost = mass * c * c + 2 * ysum * c + ysq
            if best_cost is None or cost < best_cost:
                best_vals, best_cost = {c}, cost
            elif cost == best_cost:
                best_vals.add(c)
        tables[s] = (best_vals, best_cost)
    return tables


def oracle_cost(inst, values):
    """Exact cost of the c1 table with these values on the supported messages,
    each output paired with its best integer c2, in plain Fractions: the
    control term message by message, and per output the smaller of the
    quadratic's values at the two integers around its real minimum."""
    c1 = {}
    cost = Fraction(0)
    for (m, x), v in zip(inst.support(), values):
        c1[x] = v
        cost += inst.p_m[m] * inst.k * v * v
    for mass, ysum, ysq in posterior_moments(inst, c1).values():
        low = floor(-ysum / mass)
        cost += min(mass * c * c + 2 * ysum * c + ysq for c in (low, low + 1))
    return cost


def flat_scan(inst, window):
    """(minimum cost, lexicographically first minimizing c1 values) over all
    (2W+1)^n in-window tables, by plain enumeration: no pruning, no order
    tricks, every table scored by oracle_cost."""
    best_cost, best_vals = None, None
    for values in product(range(-window, window + 1), repeat=len(inst.support())):
        cost = oracle_cost(inst, values)
        if best_cost is None or cost < best_cost:
            best_cost, best_vals = cost, values
    return best_cost, best_vals


# -- channel and graph oracles -------------------------------------------------


def neighbors(ch, i):
    """The inputs i' appearing with i in its positive outputs, sorted."""
    i = ChannelInput(*i)
    return tuple(sorted(o[1] if o[0] == i else o[0] for o in ch.rows[i]))


def adjacent(g, a, b):
    return a != b and ((a, b) if a < b else (b, a)) in g.edges


def degree(g, v):
    return sum(1 for e in g.edges if v in e)


def is_independent(g, subset):
    """True iff no two members of ``subset`` are adjacent in graph g."""
    return not any(adjacent(g, a, b) for a, b in combinations(subset, 2))


def has_independent_subset(g, size):
    """Exhaustive scan over all ``size``-subsets of vertices.

    Returns (found, witness_or_None, subsets_scanned).  Intentionally naive:
    this is the enumeration oracle the independence number is checked against.
    """
    verts = sorted(g.vertices)
    scanned = 0
    for subset in combinations(verts, size):
        scanned += 1
        if is_independent(g, subset):
            return True, subset, scanned
    return False, None, scanned


def code_from_independent_set(ch, independent):
    """Messages 0..|S|-1 on an independent set; decode each output to its owner."""
    codewords = sorted(ChannelInput(*i) for i in independent)
    g = confusability_graph(ch)
    for a, b in combinations(codewords, 2):
        if a == b:
            raise ValueError(f"independent set contains {a} twice")
        if adjacent(g, a, b):
            raise ValueError(f"set is not independent: {a} and {b} are confusable")
    encoder = dict(enumerate(codewords))
    decoder = {o: msg for msg, cw in encoder.items() for o in ch.rows[cw]}
    return ZeroErrorCode(
        messages=tuple(range(len(codewords))), encoder=encoder, decoder=decoder
    )


# -- strategy oracles ----------------------------------------------------------


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


def evaluate_sr(inst, strat):
    """Weight-convex combination of the component deterministic costs."""
    total = control = damping = Fraction(0)
    traces = []
    max_c1 = max_z = 0
    for weight, det in strat.components:
        report = evaluate_deterministic(inst, det)
        total += weight * report.total
        control += weight * report.control
        damping += weight * report.damping
        max_c1 = max(max_c1, report.max_abs_c1)
        max_z = max(max_z, report.max_abs_z)
        traces += [tr._replace(probability=weight * tr.probability) for tr in report.traces]
    return CostReport(total, control, damping, tuple(traces), max_c1, max_z)


def decoder_estimates_exact(inst, strat):
    """True iff |m - eta| < 1/2 on every positive-probability branch, where
    eta = -c2(s)/t: the premise under which the reduction yields a zero-error
    code on all supported messages."""
    for m, x in inst.support():
        y = x + strat.c1_at(x)
        for s in inst.nt.output_distribution(y):
            if abs(m - Fraction(-strat.c2_at(s), inst.t)) >= Fraction(1, 2):
                return False
    return True


def random_c1(rng, inst, window, lo=None):
    low = -window if lo is None else lo
    return {x: rng.randint(low, window) for _m, x in inst.support()}


def random_strategy(rng, inst, window, optimal=True, lo=None):
    c1 = random_c1(rng, inst, window, lo=lo)
    if optimal:
        c2 = optimal_c2_for_c1(inst, c1)
    else:
        c2 = {
            s: rng.randint(-inst.q * inst.t, inst.q * inst.t)
            for s in posterior_moments(inst, c1)
        }
    return DeterministicStrategy(c1=c1, c2=c2)


def random_weights(rng, n):
    """n positive random Fractions summing to exactly 1."""
    raws = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
    total = sum(raws, Fraction(0))
    return [w / total for w in raws]


# -- test-only geometry helpers ------------------------------------------------


def abs_sq(c):
    """|c|^2 of a ComplexFraction."""
    return c.re * c.re + c.im * c.im


def is_zero(v):
    return not any(v.entries)


def same_ray(v, w):
    """True iff the two vectors agree up to a global phase."""
    return v.overlap_sq(w) == 1


def standard_basis_vector(index, dim):
    return Vector([1 if i == index else 0 for i in range(dim)])


def raw_dot(v, w):
    """Sesquilinear sum(conj(v_k) * w_k) over the raw entries, from the
    integer kernel; the denoted inner product is this over
    sqrt(v.scale * w.scale), so it is zero iff this is zero."""
    re, im = v._dot(w)
    den = v._den * w._den
    return ComplexFraction(Fraction(re, den), Fraction(im, den))


# -- exact geometry by ComplexFraction sums ------------------------------------


def cf_dot(v, w):
    """sum(conj(v_k) * w_k) over the entries, by ComplexFraction arithmetic."""
    if v.dim != w.dim:
        raise ValueError("dimension mismatch")
    acc = ComplexFraction(0)
    for a, b in zip(v.entries, w.entries):
        acc = acc + a.conjugate() * b
    return acc


def cf_raw_norm_sq(v):
    return sum((abs_sq(c) for c in v.entries), Fraction(0))


def cf_norm_sq(v):
    return cf_raw_norm_sq(v) / v.scale


def cf_overlap_sq(v, w):
    """|<v|w>|^2 between the normalized rays, from the denoted vectors."""
    nsq = cf_norm_sq(v) * cf_norm_sq(w)
    if nsq == 0:
        raise ValueError("overlap with a zero vector is undefined")
    return abs_sq(cf_dot(v, w)) / (v.scale * w.scale * nsq)


def cf_normalized(v):
    """(entries, scale) of v normalized: same entries, scale = raw norm."""
    nsq = cf_raw_norm_sq(v)
    if nsq == 0:
        raise ValueError("cannot normalize the zero vector")
    return v.entries, nsq


def cf_measure_first_subsystem(state, basis):
    """[(j, probability, residual entries, residual scale)] for each branch of
    positive probability, projecting subsystem 1 onto each basis vector."""
    a = len(basis)
    b = state.dim // a
    st = state.entries
    out = []
    for j, u in enumerate(basis):
        raw = []
        for i2 in range(b):
            acc = ComplexFraction(0)
            for i1 in range(a):
                acc = acc + u.entries[i1].conjugate() * st[i1 * b + i2]
            raw.append(acc)
        raw_nsq = sum((abs_sq(c) for c in raw), Fraction(0))
        prob = raw_nsq / (u.scale * state.scale)
        if prob:
            out.append((j, prob, tuple(raw), raw_nsq))
    return out


def complete_orthonormal_basis(seeds, dim):
    """Extend pairwise-orthogonal unit seed vectors to an orthonormal basis.

    Orthogonalizes the standard basis against the seeds (Gram-Schmidt in the
    raw-entry gauge, by ComplexFraction sums; every intermediate stays
    Gaussian-rational) and drops exactly-dependent vectors.  Raises if the
    seeds are not orthonormal.  The decoder's oracle: it builds the whole
    basis that the decoder never needs.
    """
    for s in seeds:
        if s.dim != dim:
            raise ValueError("seed dimension mismatch")
        if cf_norm_sq(s) != 1:
            raise ValueError("seed vectors must be unit norm")
    for v, w in combinations(seeds, 2):
        if cf_dot(v, w):
            raise ValueError("seed vectors must be pairwise orthogonal")

    basis = list(seeds)
    for k in range(dim):
        if len(basis) == dim:
            break
        w = standard_basis_vector(k, dim)
        residual = list(w.entries)
        for u in basis:
            # projection coefficient of w on unit u, in w's raw gauge
            coeff = cf_dot(u, w)
            inv = Fraction(1) / u.scale
            for idx, e in enumerate(u.entries):
                residual[idx] = residual[idx] - coeff * e * inv
        if not any(residual):
            continue  # dependent on the span so far
        basis.append(Vector(residual, scale=cf_raw_norm_sq(Vector(residual))))
    if len(basis) != dim:
        raise ValueError("basis completion failed to reach full dimension")
    return basis


def measurement_probabilities(state, basis):
    """Born probabilities of a unit state in an orthonormal basis, exact."""
    return [cf_overlap_sq(b, state) for b in basis]
