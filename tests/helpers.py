"""Independent oracles and strategy generators shared across the test suite.

Everything here deliberately re-derives results by the dumbest available
method (direct inner products, plain enumeration, linear scans) so the
package code is checked against computations that share none of its shortcuts.
Classical costs, moments, c2 values and branch signals come from
``checker``, which imports nothing from ``entwit``; the helpers here adapt
it to entwit's strategy objects.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from checker import orthogonal, read_rays
from entwit.channel import FiniteChannel, ZeroErrorCode, confusability_graph
from entwit.control import CostReport, DeterministicStrategy
from entwit.exact import Vector, _gauss_dot, as_fraction

SRC = Path(__file__).resolve().parents[1] / "src"
# the bundled ray file, which the checker reads without entwit's loader
BUNDLED_RAYS = SRC / "entwit/data/ks_6_4_peres.json"
# the 18 rays in 9 bases of C^4 of Cabello, Estebaranz and Garcia-Alcaine
CABELLO_SET = Path(__file__).parent / "data" / "ks_9_4_cabello.json"


def run_python(*args, timeout=120, text=True):
    """Run a fresh interpreter that imports entwit from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=text, env=env, timeout=timeout,
    )


def ray_bases(path):
    """The bases of a ``ks-basis-set/1`` file as ``checker.read_rays`` reads
    it: q lists of d rays, each a list of (re, im) Gaussian integer pairs."""
    q, d, rays = read_rays(path)
    return [rays[m * d:(m + 1) * d] for m in range(q)]


def naive_ks_check(bases):
    """Re-derive the one-per-basis orthogonality property from Gaussian
    integer dots, with nothing from entwit.

    ``bases`` lists each basis's rays as ``ray_bases`` gives them.  Walks
    every traversal with itertools.product and tests its pairs by
    ``checker.orthogonal``, each pair of rays computed once; no bitmasks,
    no pruning.  Returns (holds, witness_or_None, traversals visited in
    product order), the witness as (m, j) per basis.
    """
    rays = [ray for basis in bases for ray in basis]
    orth = [[orthogonal(u, v) for v in rays] for u in rays]
    starts = [0]
    for basis in bases:
        starts.append(starts[-1] + len(basis))
    count = 0
    for combo in product(*[range(len(basis)) for basis in bases]):
        count += 1
        ids = [start + j for start, j in zip(starts, combo)]
        if not any(orth[a][b] for a, b in combinations(ids, 2)):
            return False, tuple(enumerate(combo)), count
    return True, None, count


# -- channel and graph oracles -------------------------------------------------


def bases_of(ks):
    """The set's bases, basis m read as ks.vectors[m*d:(m+1)*d]."""
    d = ks.d
    return [ks.vectors[m * d:(m + 1) * d] for m in range(ks.q)]


def output_pair(a, b):
    """The output {a, b} of two distinct input ids, stored in order."""
    if a == b:
        raise ValueError(f"output pair must contain two distinct inputs, got {a} twice")
    return (a, b) if a < b else (b, a)


def from_neighbor_sets(d, neighbors):
    """entwit's channel on the given neighbour sets {id: ids}, one row for
    each id 0 .. len(neighbors) - 1."""
    if sorted(neighbors) != list(range(len(neighbors))):
        raise ValueError("the inputs are not the ids 0 .. n - 1")
    masks = [0] * len(neighbors)
    for i, nbrs in neighbors.items():
        for n in nbrs:
            if n == i:
                raise ValueError(f"output {(i, n)} is not two distinct inputs")
            if masks[i] >> n & 1:
                raise ValueError(f"duplicate neighbors for input {i}")
            masks[i] |= 1 << n
    return FiniteChannel(d, tuple(masks))


def finite_channel(table):
    """entwit's channel on the checker's plain neighbour table."""
    return FiniteChannel(table.d, tuple(sum(1 << n for n in row) for row in table.neighbours))


def partners(mask):
    """The set bits of a mask, lowest first."""
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def channel_rows(ch):
    """{input id: {output: probability}} of a channel, row by row from its
    masks: input i sends {i, n} with probability 1/deg(i) for each of its
    partners n, lowest first."""
    rows = {}
    for i, mask in enumerate(ch.masks):
        nbrs = partners(mask)
        rows[i] = {output_pair(i, n): Fraction(1, len(nbrs)) for n in nbrs}
    return rows


def channel_outputs(ch):
    """Every output of a channel, sorted."""
    return sorted({o for row in channel_rows(ch).values() for o in row})


def adjacent(g, a, b):
    """Whether vertices a and b are joined in the adjacency masks g."""
    return a != b and bool(g[a] >> b & 1)


def degree(g, v):
    return sum(adjacent(g, v, w) for w in range(len(g)))


def is_independent(g, subset):
    """True iff no two members of ``subset`` are adjacent in graph g."""
    return not any(adjacent(g, a, b) for a, b in combinations(subset, 2))


def has_independent_subset(g, size):
    """Exhaustive scan over all ``size``-subsets of vertices.

    Returns (found, witness_or_None, subsets_scanned).  Intentionally naive:
    this is the enumeration oracle the independence number is checked against.
    """
    scanned = 0
    for subset in combinations(range(len(g)), size):
        scanned += 1
        if is_independent(g, subset):
            return True, subset, scanned
    return False, None, scanned


class OnInputs:
    """A channel read as ``verify_zero_error`` reads a codeword channel, with
    the channel's input ids as codewords: ``output_distribution(i)`` is a
    read-only view of row i."""

    def __init__(self, channel):
        self.rows = channel_rows(channel)

    def output_distribution(self, i):
        return MappingProxyType(self.rows[i])


def code_from_independent_set(ch, independent):
    """Messages 0..|S|-1 on a set of input numbers, independent in the
    confusability graph; decode each output to its owner."""
    g = confusability_graph(ch)
    for a, b in combinations(sorted(independent), 2):
        if a == b:
            raise ValueError(f"independent set contains {a} twice")
        if adjacent(g, a, b):
            raise ValueError(f"set is not independent: {a} and {b} are confusable")
    encoder = dict(enumerate(sorted(independent)))
    rows = channel_rows(ch)
    decoder = {o: msg for msg, cw in encoder.items() for o in rows[cw]}
    return ZeroErrorCode(
        messages=tuple(range(len(encoder))), encoder=encoder, decoder=decoder
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


def branch_signals(oracle, strat):
    """(probability, final signal z) for every positive-probability branch of
    a deterministic strategy, enumerated by the checker's composed channel."""
    return [(Fraction(w, oracle.scale), z) for w, z in oracle.branches(strat.c1, strat.c2)]


def evaluate_sr(oracle, strat):
    """Weight-convex combination of the component deterministic costs, each
    evaluated branch by branch by the checker."""
    total = control = damping = Fraction(0)
    branches = max_z = 0
    for weight, det in strat.components:
        report = CostReport(*oracle.evaluate(det.c1, det.c2))
        total += weight * report.total
        control += weight * report.control
        damping += weight * report.damping
        branches += report.branches
        max_z = max(max_z, report.max_abs_z)
    return CostReport(total, control, damping, branches, max_z)


def decoder_estimates_exact(oracle, strat):
    """True iff |m - eta| < 1/2 on every positive-probability branch, where
    eta = -c2(s)/t: the premise under which the reduction yields a zero-error
    code on all supported messages."""
    for m, x in oracle.support():
        for s, _mult in oracle.reach(x + strat.c1_at(x)):
            if abs(m - Fraction(-strat.c2_at(s), oracle.t)) >= Fraction(1, 2):
                return False
    return True


def random_c1(rng, inst, window, lo=None):
    """Random c1 values in [lo, window] (lo = -window when left out) on the
    supported messages of an instance or of the checker's."""
    low = -window if lo is None else lo
    return {x: rng.randint(low, window) for _m, x in inst.support()}


def random_strategy(rng, oracle, window, optimal=True, lo=None):
    """A random c1 table with the checker's best c2, or with random c2 values
    on its reachable outputs."""
    c1 = random_c1(rng, oracle, window, lo=lo)
    if optimal:
        c2 = oracle.best_c2(c1)
    else:
        c2 = {
            s: rng.randint(-oracle.q * oracle.t, oracle.q * oracle.t)
            for s in oracle.moments(c1)
        }
    return DeterministicStrategy(c1=c1, c2=c2)


def random_weights(rng, n):
    """n positive random Fractions summing to exactly 1."""
    raws = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
    total = sum(raws, Fraction(0))
    return [w / total for w in raws]


# -- Gaussian rationals and vectors built from them ---------------------------


class ComplexFraction:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexFraction is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, ComplexFraction):
            return x
        return ComplexFraction(as_fraction(x))

    def __add__(self, other):
        other = ComplexFraction.coerce(other)
        return ComplexFraction(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexFraction.coerce(other)
        return ComplexFraction(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexFraction.coerce(other) - self

    def __mul__(self, other):
        other = ComplexFraction.coerce(other)
        return ComplexFraction(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexFraction(-self.re, -self.im)

    def conjugate(self):
        return ComplexFraction(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexFraction(other)
        if not isinstance(other, ComplexFraction):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _numerators(values):
    """Gaussian-integer numerators (re, im): the values times the least
    common denominator of their parts."""
    cs = [ComplexFraction.coerce(x) for x in values]
    den = lcm(*(c.re.denominator for c in cs), *(c.im.denominator for c in cs))
    return (
        [c.re.numerator * (den // c.re.denominator) for c in cs],
        [c.im.numerator * (den // c.im.denominator) for c in cs],
    )


def vector(values):
    """The unit vector along values, given as ComplexFractions or anything
    they coerce from."""
    return Vector(*_numerators(values))


def from_components(components, denominator=1):
    """Unit vector along components / denominator: each component divided by
    the denominator in ComplexFraction arithmetic, then normalized by the
    constructor."""
    den = as_fraction(denominator)
    if den == 0:
        raise ValueError("denominator must be nonzero")
    inv = ComplexFraction(1 / den)
    return Vector(*_numerators([ComplexFraction.coerce(c) * inv for c in components]))


def entries(v):
    """The vector's entries before the 1/sqrt(nsq), its numerators, as
    ComplexFractions."""
    return tuple(ComplexFraction(r, i) for r, i in zip(v.re, v.im))


def lowest_terms(v):
    """The numerators over their positive gcd: equal for two vectors iff they
    denote the same unit vector."""
    g = gcd(*v.re, *v.im)
    return tuple(r // g for r in v.re), tuple(i // g for i in v.im)


def overlap_sq(v, w):
    """Squared fidelity |<v|w>|^2 as a Fraction, from the integer kernel."""
    ((re, im),) = _gauss_dot(v, [w])
    return Fraction(re * re + im * im, v.nsq * w.nsq)


# -- test-only geometry helpers ------------------------------------------------


def abs_sq(c):
    """|c|^2 of a ComplexFraction."""
    return c.re * c.re + c.im * c.im


def same_ray(v, w):
    """True iff the two vectors agree up to a global phase."""
    return overlap_sq(v, w) == 1


def standard_basis_vector(index, dim):
    return vector([1 if i == index else 0 for i in range(dim)])


def raw_dot(v, w):
    """Sesquilinear sum(conj(v_k) * w_k) over the raw entries, from the
    integer kernel; the denoted inner product is this over
    sqrt(v.nsq * w.nsq), so it is zero iff this is zero."""
    ((re, im),) = _gauss_dot(v, [w])
    return ComplexFraction(re, im)


def is_orthogonal(v, w):
    """True iff <v|w> = 0, decided exactly on the integer numerators."""
    return _gauss_dot(v, [w]) == [(0, 0)]


class Parts(NamedTuple):
    """Integer numerators and whether the imaginary ones are all zero: the
    fields the dot kernel and the orthogonality table read, with the flag
    free to be false on real numerators."""

    re: tuple
    im: tuple
    real: bool


def conjugate(v):
    """The entrywise complex conjugate of a vector."""
    return Vector(v.re, tuple(-i for i in v.im))


def conjugate_basis(basis):
    """Entrywise complex conjugate of each vector; orthonormality is preserved."""
    return tuple(map(conjugate, basis))


def maximally_entangled(d):
    """(1/sqrt(d)) sum_j |j>|j> on C^(d*d), built from its entries."""
    return vector([1 if i // d == i % d else 0 for i in range(d * d)])


# -- exact geometry by ComplexFraction sums ------------------------------------


def cf_dot(v, w):
    """sum(conj(v_k) * w_k) over the entries, by ComplexFraction arithmetic."""
    if v.dim != w.dim:
        raise ValueError("dimension mismatch")
    acc = ComplexFraction(0)
    for a, b in zip(entries(v), entries(w)):
        acc = acc + a.conjugate() * b
    return acc


def cf_raw_norm_sq(v):
    return sum((abs_sq(c) for c in entries(v)), Fraction(0))


def cf_norm_sq(v):
    """The denoted vector's squared norm: the entries' ComplexFraction sum
    over the held ``nsq``, so 1 iff that was held right."""
    return cf_raw_norm_sq(v) / v.nsq


def cf_overlap_sq(v, w):
    """|<v|w>|^2 between the normalized rays, from the denoted vectors."""
    nsq = cf_norm_sq(v) * cf_norm_sq(w)
    return abs_sq(cf_dot(v, w)) / (v.nsq * w.nsq * nsq)


def cf_decoder_decode(ks, s, residual):
    """decoder_decode by ComplexFraction sums: the same gates in the same
    order and the same tie rule, every comparison made on Fractions."""
    a, b = s
    if not all(0 <= u < ks.q * ks.d for u in s):
        raise ValueError(f"output {s} names a vector outside [0, {ks.q * ks.d})")
    cand1, cand2 = ks.vectors[a], ks.vectors[b]
    if cf_dot(cand1, cand2):
        raise ValueError(f"candidates {s} are not orthogonal")
    p1 = cf_overlap_sq(residual, cand1)
    p2 = cf_overlap_sq(residual, cand2)
    if p1 == 0 and p2 == 0:
        raise ValueError("residual state is orthogonal to both candidates")
    if p1 >= p2:
        return a, p1
    return b, p2


def cf_measure_first_subsystem(state, basis):
    """[(j, probability, residual entries, their squared norm)] for each branch
    of positive probability, projecting subsystem 1 onto each basis vector."""
    a = len(basis)
    b = state.dim // a
    st = entries(state)
    out = []
    for j, u in enumerate(basis):
        ue = entries(u)
        raw = []
        for i2 in range(b):
            acc = ComplexFraction(0)
            for i1 in range(a):
                acc = acc + ue[i1].conjugate() * st[i1 * b + i2]
            raw.append(acc)
        raw_nsq = sum((abs_sq(c) for c in raw), Fraction(0))
        prob = raw_nsq / (u.nsq * state.nsq)
        if prob:
            out.append((j, prob, tuple(raw), raw_nsq))
    return out


def complete_orthonormal_basis(seeds, dim):
    """Extend pairwise-orthogonal seed vectors to an orthonormal basis.

    Orthogonalizes the standard basis against the seeds (Gram-Schmidt in the
    raw-entry gauge, by ComplexFraction sums; every intermediate stays
    Gaussian-rational) and drops exactly-dependent vectors.  Raises if the
    seeds are not pairwise orthogonal.  The decoder's oracle: it builds the
    whole basis that the decoder never needs.
    """
    for s in seeds:
        if s.dim != dim:
            raise ValueError("seed dimension mismatch")
    for v, w in combinations(seeds, 2):
        if cf_dot(v, w):
            raise ValueError("seed vectors must be pairwise orthogonal")

    basis = list(seeds)
    for k in range(dim):
        if len(basis) == dim:
            break
        w = standard_basis_vector(k, dim)
        residual = list(entries(w))
        for u in basis:
            # projection coefficient of w on unit u, in w's raw gauge
            coeff = cf_dot(u, w)
            inv = Fraction(1, u.nsq)
            for idx, e in enumerate(entries(u)):
                residual[idx] = residual[idx] - coeff * e * inv
        if not any(residual):
            continue  # dependent on the span so far
        basis.append(vector(residual))
    if len(basis) != dim:
        raise ValueError("basis completion failed to reach full dimension")
    return basis


def measurement_probabilities(state, basis):
    """Born probabilities of a unit state in an orthonormal basis, exact."""
    return [cf_overlap_sq(b, state) for b in basis]


# -- the basis set under a Gaussian-rational unitary ----------------------------

# unit-modulus Gaussian rationals from Pythagorean triples, and the units
UNIT_PHASES = tuple(
    ComplexFraction(Fraction(a, c), Fraction(b, c))
    for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17), (4, -3, 5), (0, 1, 1), (-1, 0, 1))
)
# diag((3+4i)/5, 1, (5+12i)/13, 1)
FIXED_PHASES = (UNIT_PHASES[0], ComplexFraction(1), UNIT_PHASES[1], ComplexFraction(1))


def rotation_phases(seed, dim):
    """FIXED_PHASES for no seed, else a seeded diagonal of ``dim`` unit
    phases, at least two of them not real."""
    if seed is None:
        return FIXED_PHASES
    rng = random.Random(seed)
    while True:
        phases = tuple(rng.choice(UNIT_PHASES) for _ in range(dim))
        if sum(1 for p in phases if p.im) >= 2:
            return phases


def diagonal(phases):
    """The diagonal matrix with these entries, as rows."""
    return [[p if i == j else 0 for j in range(len(phases))] for i, p in enumerate(phases)]


def matmul(x, y):
    """The product of two matrices given as rows, in ComplexFractions."""
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(len(y))), ComplexFraction(0))
              for j in range(len(y[0])))
        for i in range(len(x))
    )


def rotated_set_json(ks, u, label):
    """The basis set with every ray multiplied by the unitary matrix ``u``, as
    ``ks-basis-set/1`` JSON with "p/q" parts.  A unitary keeps every inner
    product, and with it every orthogonality, norm and the channel, while a
    complex one makes the rays genuinely complex."""
    bases = []
    for basis in bases_of(ks):
        images = [matmul(u, [[e] for e in entries(v)]) for v in basis]  # columns
        bases.append([[[str(c.re), str(c.im)] for (c,) in image] for image in images])
    return {"format": "ks-basis-set/1", "label": label, "q": ks.q, "d": ks.d, "bases": bases}


# the 4x4 Hadamard matrix; H/2 is real orthogonal
HADAMARD_4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def left_quaternion(a, b, c, d):
    """The matrix of x -> (a + bi + cj + dk) x on R^4, coordinates in the
    order 1, i, j, k; orthogonal when a^2 + b^2 + c^2 + d^2 = 1."""
    return ((a, -b, -c, -d), (b, a, -d, c), (c, d, a, -b), (d, -c, b, a))


def fixed_unitary():
    """U = D·Q·(H/2): D = diag(FIXED_PHASES), Q left multiplication by the
    unit quaternion (1, 2, 2, 4)/5, H the Hadamard matrix.  Q·(H/2) is real
    orthogonal and mixes every coordinate, and D makes it complex."""
    q = [[Fraction(x, 5) for x in row] for row in left_quaternion(1, 2, 2, 4)]
    h = [[Fraction(x, 2) for x in row] for row in HADAMARD_4]
    return matmul(matmul(diagonal(FIXED_PHASES), q), h)


UNITARY_LABEL = (
    "the bundled rays under U = D Q H/2: D = diag((3+4i)/5, 1, (5+12i)/13, 1),"
    " Q = left multiplication by (1+2i+2j+4k)/5, H = the 4x4 Hadamard matrix"
)

UNITARY_SET = Path(__file__).parent / "data" / "ks_6_4_unitary.json"


def perturbed_unitary_json():
    """The committed unitary set with 1/7 added to one zero imaginary part
    (basis 4, vector 3, entry 1).  The loader still normalizes the ray, so
    the set fails on orthogonality, first at basis 4, vectors 0 and 3."""
    data = json.loads(UNITARY_SET.read_text())
    entry = data["bases"][4][3][1]
    if entry[1] != "0":
        raise ValueError(f"expected a zero imaginary part, got {entry[1]!r}")
    entry[1] = str(Fraction(entry[1]) + Fraction(1, 7))
    return data



def fraction_masses(ks, ch):
    """Per message, the total probability of its (branch, output) pairs, summed
    one Fraction product at a time; the branch probabilities come from the
    ComplexFraction measurement of the maximally entangled state."""
    psi = maximally_entangled(ks.d)
    rows = channel_rows(ch)
    masses = []
    for m, basis in enumerate(bases_of(ks)):
        mass = Fraction(0)
        for j, prob, _raw, _nsq in cf_measure_first_subsystem(psi, conjugate_basis(basis)):
            for p_out in rows[m * ks.d + j].values():
                mass += prob * p_out
        masses.append(mass)
    return tuple(masses)
