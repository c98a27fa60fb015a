"""Entangled-strategy simulation: shared state, measurement branches, decoding.

Claims covered:
    - the shared state has amplitude 1/sqrt(d) on each |jj> and unit norm
    - encoder branches have probability exactly 1/d and residual fidelity 1
      with the basis vector they announce (complex bases exercise the
      conjugation; skipping it is caught)
    - the decoder's completed basis is orthonormal however the candidates are
      ordered, and it identifies the residual with probability exactly 1
    - the closed-form decode equals a measurement in the completed basis on
      every one of the 216 branches, in both candidate orders
    - misuse (non-orthogonal candidates, residual orthogonal to both) raises
    - the full branch enumeration decodes all q*d*9 = 216 branches correctly,
      sending q = 6 messages where classical codes stop at 5
"""

from fractions import Fraction

import pytest

from entwit.channel import ChannelInput, output_pair
from entwit.entangled import (
    decoder_decode,
    encoder_branches,
    maximally_entangled_state,
    run_zero_error_quantum,
)
from entwit.exact import ComplexFraction, Vector
from entwit.ks import KSBasisSet
from helpers import complete_orthonormal_basis, measurement_probabilities, raw_dot


def _complex_single_basis():
    """One complex basis of C^2; its conjugate differs from itself."""
    b = (
        Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)]),
        Vector.from_components([ComplexFraction(1), ComplexFraction(0, -1)]),
    )
    return KSBasisSet(q=1, d=2, bases=(b,), label="complex single basis")


def test_maximally_entangled_state_d2():
    psi = maximally_entangled_state(2)
    assert psi.norm_sq() == 1
    zero_zero = Vector([1, 0, 0, 0])
    one_one = Vector([0, 0, 0, 1])
    crossed = Vector([0, 1, 0, 0])
    assert psi.overlap_sq(zero_zero) == Fraction(1, 2)
    assert psi.overlap_sq(one_one) == Fraction(1, 2)
    assert psi.overlap_sq(crossed) == 0


def test_maximally_entangled_state_d4_amplitudes():
    psi = maximally_entangled_state(4)
    assert psi.norm_sq() == 1
    # four equal amplitudes of squared magnitude 1/4 on the diagonal kets
    for j in range(4):
        ket = Vector([1 if i == j * 4 + j else 0 for i in range(16)])
        assert psi.overlap_sq(ket) == Fraction(1, 4)


def test_maximally_entangled_state_matches_the_coerced_construction():
    for d in range(2, 6):
        entries = [1 if (i // d) == (i % d) else 0 for i in range(d * d)]
        assert maximally_entangled_state(d) == Vector(entries, scale=d)


def test_encoder_branches_uniform_with_unit_fidelity(bundled):
    for m in range(bundled.q):
        branches = encoder_branches(bundled, m)
        assert [b.probability for b in branches] == [Fraction(1, 4)] * 4
        assert sum(b.probability for b in branches) == 1
        for b in branches:
            assert b.outcome.m == m
            assert b.residual.overlap_sq(bundled.vector(m, b.outcome.j)) == 1


def test_encoder_branches_conjugate_complex_basis():
    ks = _complex_single_basis()
    for b in encoder_branches(ks, 0):
        # residual equals the basis vector itself, not its conjugate
        assert b.residual.overlap_sq(ks.vector(0, b.outcome.j)) == 1
        assert b.residual.overlap_sq(ks.vector(0, b.outcome.j).conjugate()) != 1


def test_encoder_rejects_bad_message(bundled):
    with pytest.raises(ValueError):
        encoder_branches(bundled, bundled.q)


def test_decoder_identifies_either_candidate(bundled, channel):
    s = sorted(channel.rows[ChannelInput(0, 0)])[0]
    (m1, j1), (m2, j2) = s
    out1, p1 = decoder_decode(bundled, s, bundled.vector(m1, j1))
    assert (out1, p1) == (ChannelInput(m1, j1), Fraction(1))
    out2, p2 = decoder_decode(bundled, s, bundled.vector(m2, j2))
    assert (out2, p2) == (ChannelInput(m2, j2), Fraction(1))


def test_decoder_completion_is_orthonormal_either_order(bundled, channel):
    s = sorted(channel.rows[ChannelInput(2, 1)])[3]
    (m1, j1), (m2, j2) = s
    for pair in ([bundled.vector(m1, j1), bundled.vector(m2, j2)],
                 [bundled.vector(m2, j2), bundled.vector(m1, j1)]):
        basis = complete_orthonormal_basis(pair, bundled.d)
        assert len(basis) == 4
        for i, a in enumerate(basis):
            assert a.norm_sq() == 1
            for b in basis[i + 1:]:
                assert not raw_dot(a, b)


def test_decode_equals_measurement_in_completed_basis(bundled, channel):
    branches = 0
    for m in range(bundled.q):
        for branch in encoder_branches(bundled, m):
            for s in channel.rows[branch.outcome]:
                for order in (s, s[::-1]):
                    (m1, j1), (m2, j2) = order
                    basis = complete_orthonormal_basis(
                        [bundled.vector(m1, j1), bundled.vector(m2, j2)], bundled.d
                    )
                    probs = measurement_probabilities(branch.residual, basis)
                    assert sum(probs, Fraction(0)) == 1
                    i = 0 if probs[0] >= probs[1] else 1
                    expected = (ChannelInput(*order[i]), probs[i])
                    assert decoder_decode(bundled, order, branch.residual) == expected
                    assert expected == (branch.outcome, Fraction(1))
                branches += 1
    assert branches == 216


def test_decoder_rejects_non_unit_candidates():
    basis = (Vector([2, 0]), Vector([0, 1]))
    ks = KSBasisSet(q=1, d=2, bases=(basis,))
    s = output_pair(ChannelInput(0, 0), ChannelInput(0, 1))
    with pytest.raises(ValueError, match="unit"):
        decoder_decode(ks, s, Vector([0, 1]))


def test_decoder_rejects_non_orthogonal_candidates(bundled):
    fake = output_pair(ChannelInput(0, 0), ChannelInput(1, 0))
    assert raw_dot(bundled.vector(0, 0), bundled.vector(1, 0))
    with pytest.raises(ValueError):
        decoder_decode(bundled, fake, bundled.vector(0, 0))


def test_decoder_rejects_residual_orthogonal_to_both(bundled, channel):
    # {(0,1), (0,2)} is a same-basis output; (0,0) is orthogonal to both
    s = output_pair(ChannelInput(0, 1), ChannelInput(0, 2))
    assert s in channel.rows[ChannelInput(0, 1)]
    with pytest.raises(ValueError):
        decoder_decode(bundled, s, bundled.vector(0, 0))


def test_full_run_all_branches_correct(bundled, channel):
    report = run_zero_error_quantum(bundled, channel)
    assert report.all_correct
    assert report.messages_sent == 6
    assert report.total_branches == 6 * 4 * 9
    assert set(report.per_message_mass) == {Fraction(1)}
