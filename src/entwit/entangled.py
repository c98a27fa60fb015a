"""Exact simulation of the entanglement-assisted zero-error strategy.

The encoder and decoder share a maximally entangled pair of d-level systems.
To send basis index m, the encoder measures its half in the conjugated basis;
outcome j leaves the decoder holding exactly vector (m, j).  The channel then
reveals an unordered pair {(m, j), (m', j')} of orthogonal candidates, and the
decoder measures in any orthonormal basis containing both candidate vectors,
identifying its residual with certainty; the outcome probabilities of the two
candidates are squared overlaps, so that basis is never completed.  One
walk, ``walk_entangled``, enumerates every (message, encoder branch,
channel output) branch with exact probabilities for both the cost and the
zero-error run; nothing is sampled, and a Fraction is built only for a
result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import NamedTuple

from .channel import ChannelInput, ChannelOutput, FiniteChannel
from .exact import Vector, measure_first_subsystem, overlap_sq_numerators
from .ks import KSBasisSet, validate_basis_set

_ONE = Fraction(1)


class MeasurementBranch(NamedTuple):
    """One projective outcome: its label, exact probability, and the residual
    state left on the unmeasured subsystem."""

    outcome: ChannelInput
    probability: Fraction
    residual: Vector


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


@cache  # a Vector is immutable, so every encoder call shares one per d
def maximally_entangled_state(d: int) -> Vector:
    """(1/sqrt(d)) sum_j |j>|j> as an exact vector on C^(d*d)."""
    if d < 2:
        raise ValueError("need dimension at least 2")
    entries = [1 if (i // d) == (i % d) else 0 for i in range(d * d)]
    return Vector(entries, [0] * (d * d), 1, scale=d)


def encoder_branches(ks: KSBasisSet, m: int) -> list:
    """Measure the encoder half of the shared state in the conjugate of basis m.

    Each of the d branches has probability exactly 1/d, and its residual on
    the decoder side matches vector (m, j) with fidelity 1 (global phase is
    quotiented out by comparing squared overlaps, never raw amplitudes).
    """
    validate_basis_set(ks)
    if not 0 <= m < ks.q:
        raise ValueError(f"message {m} outside [0, {ks.q})")
    psi = maximally_entangled_state(ks.d)
    measured = [v.conjugate() for v in ks.bases[m]]  # still orthonormal
    return [
        MeasurementBranch(ChannelInput(m, j), prob, residual)
        for j, prob, residual in measure_first_subsystem(psi, measured)
    ]


def decoder_decode(ks: KSBasisSet, s: ChannelOutput, residual: Vector) -> tuple:
    """Measure the residual in an orthonormal basis containing both candidates.

    ``s`` is the channel output {(m, j), (m', j')} of two vectors of the set,
    which must be orthonormal (read from ``ks.masks`` and the held ``unit``);
    the residual must overlap one of them.  In any orthonormal basis holding
    the candidates, the Born probability of candidate i is the residual's
    squared overlap with it, so the rest of the basis is never built.
    Returns (outcome, probability), the outcome being the candidate of ``s``
    itself; under the strategy's preconditions the probability is exactly 1.
    """
    (m1, j1), (m2, j2) = s
    q, d = ks.q, ks.d
    if not (0 <= m1 < q and 0 <= m2 < q and 0 <= j1 < d and 0 <= j2 < d):
        raise ValueError(f"output {s} names a vector outside [0, {q}) x [0, {d})")
    if not ks.masks[m1 * d + j1] >> (m2 * d + j2) & 1:
        raise ValueError(f"candidates {s} are not orthogonal")
    cand1, cand2 = ks.bases[m1][j1], ks.bases[m2][j2]
    if not (cand1.unit and cand2.unit):
        raise ValueError(f"candidates {s} are not unit vectors")
    # the two squared overlaps |<residual|cand>|^2 over the numerators'
    # squared norms are compared as integer ratios; a Fraction is built only
    # for the one returned, and a certain outcome shares _ONE
    n1, n2 = overlap_sq_numerators(residual, cand1, cand2)
    nsq = residual.nsq
    d1, d2 = nsq * cand1.nsq, nsq * cand2.nsq
    if n1 == 0 and n2 == 0:
        raise ValueError("residual state is orthogonal to both candidates")
    if n1 * d2 >= n2 * d1:
        return s[0], _ONE if n1 == d1 else Fraction(n1, d1)
    return s[1], _ONE if n2 == d2 else Fraction(n2, d2)


def walk_entangled(ks: KSBasisSet, rows, messages) -> list:
    """Walk every (message, encoder branch, channel output) branch of the
    given messages over ``rows``, the channel's; t is never read.

    An encoder branch whose probability is not the Fraction 1/d, or whose
    outcome is not a channel input of its message, raises
    ``QuantumDecodeError`` with witness (m, j, None); a decode other than
    that input with probability 1 raises with (m, j, output).  Returns
    (branch count, sum of j^2) per message.
    """
    d, walked = ks.d, []
    for m in messages:
        count = j_sq = 0
        for sent, p, residual in encoder_branches(ks, m):
            j = sent.j
            if type(p) is not Fraction or p.numerator != 1 or p.denominator != d:
                raise QuantumDecodeError(
                    f"encoder branch probability {p} != 1/{d}", witness=(m, j, None)
                )
            row = rows.get(sent) if sent.m == m else None
            if row is None:
                raise QuantumDecodeError(
                    f"outcome {sent} is not an input of message {m}", witness=(m, j, None)
                )
            for s in row:
                decoded, p_dec = decoder_decode(ks, s, residual)
                if decoded != sent or (p_dec is not _ONE and p_dec != 1):
                    raise QuantumDecodeError(
                        f"branch decoded {decoded} with probability {p_dec}, "
                        f"expected {sent} with probability 1",
                        witness=(m, j, s),
                    )
            count += len(row)
            j_sq += j * j
        walked.append((count, j_sq))
    return walked


def run_zero_error_quantum(ks: KSBasisSet, ch: FiniteChannel) -> QuantumZeroErrorReport:
    """Walk every message, so all q go through with zero error although only
    q - 1 fit classically, and average each one's d row sums, taken as
    integers over one common denominator: exact on rows never validated.
    """
    d, rows = ks.d, ch.rows
    total = sum(n for n, _j_sq in walk_entangled(ks, rows, range(ks.q)))
    masses = []
    for m in range(ks.q):
        probs = [p for j in range(d) for p in rows[ChannelInput(m, j)].values()]
        den = lcm(*[p.denominator for p in probs])
        num = sum(p.numerator * (den // p.denominator) for p in probs)
        masses.append(Fraction(num, den * d))
    return QuantumZeroErrorReport(ks.q, total, True, tuple(masses))
