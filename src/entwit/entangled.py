"""Exact simulation of the entanglement-assisted zero-error strategy.

The encoder and decoder share a maximally entangled pair of d-level systems,
|Phi> = (1/sqrt(d)) sum_j |j>|j>.  To send basis index m, the encoder
measures its half in the conjugated basis; since
(<conj(u)| x I)|Phi> = |u>/sqrt(d) for every vector u, outcome j has
probability exactly 1/d and leaves the decoder holding exactly vector
u = m*d + j, so no state vector is built.  The channel then reveals an
output (u, u2) of two orthogonal candidates, and the decoder measures in any
orthonormal basis containing both candidate vectors, identifying its
residual with certainty; the outcome probabilities of the two candidates are
squared overlaps, so that basis is never completed.  One walk,
``walk_entangled``, enumerates every (message, encoder branch, channel
output) branch, the outputs read off the channel's partner masks, with
exact probabilities for both the cost and the zero-error run; nothing is
sampled, and a Fraction is built only for a result.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .channel import FiniteChannel
from .exact import Vector, _gauss_dot
from .ks import KSBasisSet, validate_basis_set

_ONE = Fraction(1)


class QuantumDecodeError(AssertionError):
    """A branch of the exact simulation decoded incorrectly; carries a witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class QuantumZeroErrorReport(NamedTuple):
    messages_sent: int
    total_branches: int
    all_correct: bool
    per_message_mass: tuple  # Fraction per message; each must be 1


def encoder_branches(ks: KSBasisSet, m: int) -> list:
    """The d branches of the encoder's measurement in the conjugate of basis
    m, from the identity (<conj(u)| x I)|Phi> = |u>/sqrt(d): per outcome j,
    the triple (u, 1/d, vector u) for input u = m*d + j, the d probabilities
    one shared Fraction.
    """
    validate_basis_set(ks)
    if not 0 <= m < ks.q:
        raise ValueError(f"message {m} outside [0, {ks.q})")
    d, vectors = ks.d, ks.vectors
    p = Fraction(1, d)
    return [(u, p, vectors[u]) for u in range(m * d, m * d + d)]


def decoder_decode(ks: KSBasisSet, s: tuple, residual: Vector) -> tuple:
    """Measure the residual in an orthonormal basis containing both candidates.

    ``s`` is the channel output (u, u2) of two vectors of the set, which
    must be orthogonal (read from ``ks.masks``; every vector is a unit
    vector); the residual must overlap one of them.  In any orthonormal basis
    holding the candidates, the Born probability of candidate i is the
    residual's squared overlap with it, so the rest of the basis is never built.
    Returns (outcome, probability), the outcome being the candidate id of
    ``s``; under the strategy's preconditions the probability is exactly 1.
    """
    a, b = s
    masks, d = ks.masks, ks.d
    # a negative id would read a row from the end of the masks
    if not (0 <= a < len(masks) and 0 <= b < len(masks)):
        raise ValueError(f"output {s} names a vector outside [0, {len(masks)})")
    if not masks[a] >> b & 1:
        raise ValueError(f"candidates {s} are not orthogonal")
    cand1, cand2 = ks.vectors[a], ks.vectors[b]
    v_re = residual.re
    if len(v_re) != d:  # the set's vectors have d entries; a sum over map would cut it
        raise ValueError(f"dimension mismatch: {len(v_re)} vs {d}")
    # the squared overlaps |<residual|cand>|^2 over the numerators' squared
    # norms are compared as integer ratios, summed directly for three real
    # vectors; a Fraction is built only for the one returned, and a certain
    # outcome shares _ONE
    if residual.real and cand1.real and cand2.real:
        x, y = sum(map(mul, v_re, cand1.re)), sum(map(mul, v_re, cand2.re))
        n1, n2 = x * x, y * y
    else:
        (re1, im1), (re2, im2) = _gauss_dot(residual, (cand1, cand2))
        n1, n2 = re1 * re1 + im1 * im1, re2 * re2 + im2 * im2
    nsq = residual.nsq
    d1, d2 = nsq * cand1.nsq, nsq * cand2.nsq
    if n1 == 0 and n2 == 0:
        raise ValueError("residual state is orthogonal to both candidates")
    if n1 * d2 >= n2 * d1:
        return s[0], _ONE if n1 == d1 else Fraction(n1, d1)
    return s[1], _ONE if n2 == d2 else Fraction(n2, d2)


def walk_entangled(ks: KSBasisSet, ch: FiniteChannel, messages) -> list:
    """Walk every (message, encoder branch, channel output) branch of the
    given messages over the channel's partner masks, each row's outputs
    lowest partner first; t is never read.

    An encoder branch whose probability is not the Fraction 1/d, or whose
    outcome u is not an input of its message, one of m*d .. m*d + d - 1,
    raises ``QuantumDecodeError`` with witness (m, j, None), j = u - m*d; a
    decode other than u with probability 1 raises with (m, j, output).
    Returns (branch count, sum of j^2, encoder branches walked) per message.
    """
    d, masks, walked = ks.d, ch.masks, []
    decode = decoder_decode  # read once: a replaced module attribute still sees every decode
    for m in messages:
        count = j_sq = landed = 0
        for u, p, residual in encoder_branches(ks, m):
            j = u - m * d
            if type(p) is not Fraction or p.numerator != 1 or p.denominator != d:
                raise QuantumDecodeError(
                    f"encoder branch probability {p} != 1/{d}", witness=(m, j, None)
                )
            if not 0 <= j < d:
                raise QuantumDecodeError(
                    f"outcome {u} is not an input of message {m}", witness=(m, j, None)
                )
            mask = masks[u]
            count += mask.bit_count()
            while mask:
                bit = mask & -mask
                mask ^= bit
                u2 = bit.bit_length() - 1
                s = (u2, u) if u2 < u else (u, u2)
                decoded, p_dec = decode(ks, s, residual)
                if decoded != u or (p_dec is not _ONE and p_dec != 1):
                    raise QuantumDecodeError(
                        f"branch decoded {decoded} with probability {p_dec}, "
                        f"expected {u} with probability 1",
                        witness=(m, j, s),
                    )
            j_sq += j * j
            landed += 1
        walked.append((count, j_sq, landed))
    return walked


def run_zero_error_quantum(ks: KSBasisSet, ch: FiniteChannel) -> QuantumZeroErrorReport:
    """Walk every message, so all q go through with zero error although only
    q - 1 fit classically.  A message's mass sums, over the encoder branches
    the walk checked, 1/d times its row's total, which is 1: a row is uniform
    over its outputs.
    """
    total, masses = 0, []
    for count, _j_sq, landed in walk_entangled(ks, ch, range(ks.q)):
        total += count
        masses.append(Fraction(landed, ks.d))
    return QuantumZeroErrorReport(ks.q, total, True, tuple(masses))
