"""Exact simulation of the entanglement-assisted zero-error strategy.

The encoder and decoder share a maximally entangled pair of d-level systems.
To send basis index m, the encoder measures its half in the conjugated basis;
outcome j leaves the decoder holding exactly vector (m, j).  The channel then
reveals an unordered pair {(m, j), (m', j')} of orthogonal candidates, and the
decoder measures in any orthonormal basis containing both candidate vectors,
identifying its residual with certainty; the outcome probabilities of the two
candidates are squared overlaps, so that basis is never completed.  The
simulation enumerates every branch with exact probabilities; nothing is
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import ChannelInput, ChannelOutput, FiniteChannel
from .exact import Vector, is_orthogonal, measure_first_subsystem
from .ks import KSBasisSet, conjugate_basis, validate_basis_set


@dataclass(frozen=True)
class MeasurementBranch:
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


@dataclass(frozen=True)
class QuantumZeroErrorReport:
    messages_sent: int
    total_branches: int
    all_correct: bool
    per_message_mass: tuple  # Fraction per message; each must be 1


def maximally_entangled_state(d: int) -> Vector:
    """(1/sqrt(d)) sum_j |j>|j> as an exact vector on C^(d*d)."""
    if d < 2:
        raise ValueError("need dimension at least 2")
    entries = [1 if (i // d) == (i % d) else 0 for i in range(d * d)]
    return Vector._from_ints(entries, [0] * (d * d), 1, Fraction(d))


def encoder_branches(ks: KSBasisSet, m: int) -> list:
    """Measure the encoder half of the shared state in the conjugate of basis m.

    Each of the d branches has probability exactly 1/d, and its residual on
    the decoder side matches vector (m, j) with fidelity 1 (global phase is
    quotiented out by comparing squared overlaps, never raw amplitudes).
    """
    report = validate_basis_set(ks)
    if not report.passed:
        raise ValueError(f"basis set fails validation: {report.issues[0].detail}")
    if not 0 <= m < ks.q:
        raise ValueError(f"message {m} outside [0, {ks.q})")
    psi = maximally_entangled_state(ks.d)
    measured = conjugate_basis(ks.bases[m])
    branches = []
    for j, prob, residual in measure_first_subsystem(psi, measured):
        branches.append(
            MeasurementBranch(
                outcome=ChannelInput(m, j), probability=prob, residual=residual
            )
        )
    return branches


def decoder_decode(
    ks: KSBasisSet, s: ChannelOutput, residual: Vector
) -> tuple:
    """Measure the residual in an orthonormal basis containing both candidates.

    ``s`` is the channel output {(m, j), (m', j')}; the two candidate vectors
    must be orthonormal and the residual must overlap at least one of them.
    In any orthonormal basis that contains the candidates, the Born
    probability of candidate i is the squared overlap of the residual with
    it, so the rest of the basis is never built.  Returns (outcome,
    probability); under the strategy's preconditions the probability is
    exactly 1.
    """
    (m1, j1), (m2, j2) = s
    cand1 = ks.vector(m1, j1)
    cand2 = ks.vector(m2, j2)
    if not is_orthogonal(cand1, cand2):
        raise ValueError(f"candidates {s} are not orthogonal")
    if not (cand1.is_unit() and cand2.is_unit()):
        raise ValueError(f"candidates {s} are not unit vectors")
    p1 = residual.overlap_sq(cand1)
    p2 = residual.overlap_sq(cand2)
    if p1 == 0 and p2 == 0:
        raise ValueError("residual state is orthogonal to both candidates")
    if p1 >= p2:
        return ChannelInput(m1, j1), p1
    return ChannelInput(m2, j2), p2


def run_zero_error_quantum(ks: KSBasisSet, ch: FiniteChannel) -> QuantumZeroErrorReport:
    """Enumerate every (message, encoder branch, channel output) triple.

    Asserts that the decoder recovers the encoder's (m, j) with probability 1
    on every branch, i.e. all q messages go through with zero error even
    though only q - 1 fit classically.  Any wrong decode raises with the
    witness triple.
    """
    total = 0
    masses = []
    for m in range(ks.q):
        mass = Fraction(0)
        for branch in encoder_branches(ks, m):
            sent = branch.outcome
            for s, p_out in ch.rows[sent].items():
                total += 1
                mass += branch.probability * p_out
                decoded, p_dec = decoder_decode(ks, s, branch.residual)
                if decoded != sent or p_dec != 1:
                    raise QuantumDecodeError(
                        f"branch decoded {decoded} with probability {p_dec}, "
                        f"expected {sent} with probability 1",
                        witness=(m, sent.j, s),
                    )
        masses.append(mass)
    return QuantumZeroErrorReport(
        messages_sent=ks.q,
        total_branches=total,
        all_correct=True,
        per_message_mass=tuple(masses),
    )
