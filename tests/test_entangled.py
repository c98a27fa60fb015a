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
    - misuse (non-orthogonal candidates, residual orthogonal to both, a
      candidate index outside the set) raises
    - the decoder's integer comparison agrees with a Fraction oracle on every
      branch, on ties, on seeded complex residuals and on every misuse
    - the full branch enumeration decodes all q*d*9 = 216 branches correctly,
      sending q = 6 messages where classical codes stop at 5, also on the
      set rotated by a diagonal complex unitary
    - each message's zero-error mass equals a Fraction oracle, and stays
      exact on an unvalidated channel whose rows sum to 8/9
"""

from fractions import Fraction

import random

import pytest

from entwit import entangled
from entwit.channel import ChannelInput, FiniteChannel, build_ks_channel
from entwit.entangled import (
    decoder_decode,
    encoder_branches,
    maximally_entangled_state,
    run_zero_error_quantum,
)
from entwit.ks import KSBasisSet, basis_set_from_json_dict
from helpers import (
    ComplexFraction,
    all_vectors,
    cf_decoder_decode,
    complete_orthonormal_basis,
    diagonal,
    fraction_masses,
    from_components,
    measurement_probabilities,
    output_pair,
    overlap_sq,
    raw_dot,
    rotated_set_json,
    rotation_phases,
    vector,
)


def _complex_single_basis():
    """One complex basis of C^2; its conjugate differs from itself."""
    b = (
        from_components([ComplexFraction(1), ComplexFraction(0, 1)]),
        from_components([ComplexFraction(1), ComplexFraction(0, -1)]),
    )
    return KSBasisSet(q=1, d=2, bases=(b,), label="complex single basis")


def test_maximally_entangled_state_d2():
    psi = maximally_entangled_state(2)
    assert psi.norm_sq() == 1
    zero_zero = vector([1, 0, 0, 0])
    one_one = vector([0, 0, 0, 1])
    crossed = vector([0, 1, 0, 0])
    assert overlap_sq(psi, zero_zero) == Fraction(1, 2)
    assert overlap_sq(psi, one_one) == Fraction(1, 2)
    assert overlap_sq(psi, crossed) == 0


def test_maximally_entangled_state_d4_amplitudes():
    psi = maximally_entangled_state(4)
    assert psi.norm_sq() == 1
    # four equal amplitudes of squared magnitude 1/4 on the diagonal kets
    for j in range(4):
        ket = vector([1 if i == j * 4 + j else 0 for i in range(16)])
        assert overlap_sq(psi, ket) == Fraction(1, 4)


def test_maximally_entangled_state_matches_the_coerced_construction():
    for d in range(2, 6):
        entries = [1 if (i // d) == (i % d) else 0 for i in range(d * d)]
        assert maximally_entangled_state(d) == vector(entries, scale=d)


def test_encoder_branches_uniform_with_unit_fidelity(bundled):
    for m in range(bundled.q):
        branches = encoder_branches(bundled, m)
        assert [b.probability for b in branches] == [Fraction(1, 4)] * 4
        assert sum(b.probability for b in branches) == 1
        for b in branches:
            assert b.outcome.m == m
            assert overlap_sq(b.residual, bundled.bases[m][b.outcome.j]) == 1


def test_encoder_branches_conjugate_complex_basis():
    ks = _complex_single_basis()
    for b in encoder_branches(ks, 0):
        # residual equals the basis vector itself, not its conjugate
        assert overlap_sq(b.residual, ks.bases[0][b.outcome.j]) == 1
        assert overlap_sq(b.residual, ks.bases[0][b.outcome.j].conjugate()) != 1


def test_encoder_rejects_bad_message(bundled):
    with pytest.raises(ValueError):
        encoder_branches(bundled, bundled.q)


def test_decoder_identifies_either_candidate(bundled, channel):
    s = sorted(channel.rows[ChannelInput(0, 0)])[0]
    (m1, j1), (m2, j2) = s
    out1, p1 = decoder_decode(bundled, s, bundled.bases[m1][j1])
    assert (out1, p1) == (ChannelInput(m1, j1), Fraction(1))
    out2, p2 = decoder_decode(bundled, s, bundled.bases[m2][j2])
    assert (out2, p2) == (ChannelInput(m2, j2), Fraction(1))


def test_decoder_completion_is_orthonormal_either_order(bundled, channel):
    s = sorted(channel.rows[ChannelInput(2, 1)])[3]
    (m1, j1), (m2, j2) = s
    for pair in ([bundled.bases[m1][j1], bundled.bases[m2][j2]],
                 [bundled.bases[m2][j2], bundled.bases[m1][j1]]):
        basis = complete_orthonormal_basis(pair, bundled.d)
        assert len(basis) == 4
        for i, a in enumerate(basis):
            assert a.norm_sq() == 1
            for b in basis[i + 1:]:
                assert not raw_dot(a, b)


def test_decode_equals_measurement_in_completed_basis(bundled, channel):
    # a completed basis depends only on the ordered candidate pair, and each
    # output is reached from the branches of both its endpoints
    branches = 0
    completed = {}  # ordered candidate pair -> its completed basis
    for m in range(bundled.q):
        for branch in encoder_branches(bundled, m):
            for s in channel.rows[branch.outcome]:
                for order in (s, s[::-1]):
                    if order not in completed:
                        (m1, j1), (m2, j2) = order
                        completed[order] = complete_orthonormal_basis(
                            [bundled.bases[m1][j1], bundled.bases[m2][j2]], bundled.d
                        )
                    basis = completed[order]
                    probs = measurement_probabilities(branch.residual, basis)
                    assert sum(probs, Fraction(0)) == 1
                    i = 0 if probs[0] >= probs[1] else 1
                    expected = (ChannelInput(*order[i]), probs[i])
                    assert decoder_decode(bundled, order, branch.residual) == expected
                    assert expected == (branch.outcome, Fraction(1))
                branches += 1
    assert branches == 216 and len(completed) == 216


def test_decoder_rejects_non_unit_candidates():
    basis = (vector([2, 0]), vector([0, 1]))
    ks = KSBasisSet(q=1, d=2, bases=(basis,))
    s = output_pair(ChannelInput(0, 0), ChannelInput(0, 1))
    with pytest.raises(ValueError, match="unit"):
        decoder_decode(ks, s, vector([0, 1]))


def test_decoder_rejects_non_orthogonal_candidates(bundled):
    fake = output_pair(ChannelInput(0, 0), ChannelInput(1, 0))
    assert raw_dot(bundled.bases[0][0], bundled.bases[1][0])
    with pytest.raises(ValueError):
        decoder_decode(bundled, fake, bundled.bases[0][0])


@pytest.mark.parametrize(
    "s",
    [((-1, 0), (3, 0)), ((0, 0), (0, 4)), ((0, -1), (2, 0)), ((1, 2), (6, 0))],
    ids=["negative-basis", "vector-past-d", "negative-vector", "basis-past-q"],
)
def test_decoder_refuses_candidates_outside_the_set(bundled, s):
    # Python indexing would read basis 5 for m = -1 and decode
    # ((-1, 0), (3, 0)) to (-1, 0) with probability 1, and raise IndexError
    # past the end; both are refused as not vectors of the set
    residual = bundled.bases[5][0]
    message = f"output {s} names a vector outside [0, 6) x [0, 4)"
    with pytest.raises(ValueError) as info:
        decoder_decode(bundled, s, residual)
    assert str(info.value) == message
    assert _agrees_with_oracle(bundled, s, residual) == message


def test_decoder_rejects_residual_orthogonal_to_both(bundled, channel):
    # {(0,1), (0,2)} is a same-basis output; (0,0) is orthogonal to both
    s = output_pair(ChannelInput(0, 1), ChannelInput(0, 2))
    assert s in channel.rows[ChannelInput(0, 1)]
    with pytest.raises(ValueError):
        decoder_decode(bundled, s, bundled.bases[0][0])


def _outcome(decode, ks, s, residual):
    try:
        return decode(ks, s, residual)
    except ValueError as exc:
        return str(exc)


def _agrees_with_oracle(ks, s, residual):
    got = _outcome(decoder_decode, ks, s, residual)
    assert got == _outcome(cf_decoder_decode, ks, s, residual)
    return got


def test_decoder_agrees_with_fraction_oracle_on_every_branch(bundled, channel):
    pairs = 0
    for m in range(bundled.q):
        for branch in encoder_branches(bundled, m):
            for s in channel.rows[branch.outcome]:
                for order in (s, s[::-1]):
                    got = _agrees_with_oracle(bundled, order, branch.residual)
                    assert got == (branch.outcome, Fraction(1))
                pairs += 1
    assert pairs == 216


def test_decoder_tie_goes_to_the_first_candidate(bundled):
    # (1, 1, 0, 0) / sqrt(2) overlaps e0 and e1 with 1/2 each
    residual = vector([1, 1, 0, 0], scale=2)
    for first, second in ((0, 1), (1, 0)):
        s = (ChannelInput(0, first), ChannelInput(0, second))
        got = _agrees_with_oracle(bundled, s, residual)
        assert got == (ChannelInput(0, first), Fraction(1, 2))


def test_decoder_agrees_with_fraction_oracle_on_random_residuals(bundled, channel):
    rng = random.Random(20130)
    outputs = channel.outputs
    parts = [Fraction(n, den) for n in range(-3, 4) for den in (1, 2, 3)]
    wins = set()
    for _ in range(300):
        entries = [
            ComplexFraction(rng.choice(parts), rng.choice(parts)) for _ in range(4)
        ]
        if not any(entries):
            continue
        residual = vector(entries, scale=Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        s = rng.choice(outputs)
        for order in (s, s[::-1]):
            got = _agrees_with_oracle(bundled, order, residual)
            if isinstance(got, tuple):
                wins.add(got[0] == ChannelInput(*order[0]))
    assert wins == {True, False}


def test_decoder_misuse_agrees_with_fraction_oracle(bundled):
    orthogonal_to_both = (
        output_pair(ChannelInput(0, 1), ChannelInput(0, 2)), bundled.bases[0][0]
    )
    not_orthogonal = (
        output_pair(ChannelInput(0, 0), ChannelInput(1, 0)), bundled.bases[0][0]
    )
    for s, residual in (orthogonal_to_both, not_orthogonal):
        assert isinstance(_agrees_with_oracle(bundled, s, residual), str)
    non_unit = KSBasisSet(q=1, d=2, bases=((vector([2, 0]), vector([0, 1])),))
    s = output_pair(ChannelInput(0, 0), ChannelInput(0, 1))
    assert "unit" in _agrees_with_oracle(non_unit, s, vector([0, 1]))


def test_full_run_all_branches_correct(bundled, channel):
    report = run_zero_error_quantum(bundled, channel)
    assert report.all_correct
    assert report.messages_sent == 6
    assert report.total_branches == 6 * 4 * 9
    assert set(report.per_message_mass) == {Fraction(1)}


@pytest.mark.parametrize("seed", [None, 20137])
def test_full_run_on_a_complex_rotation_of_the_set(bundled, channel, seed):
    phases = rotation_phases(seed, bundled.d)
    ks = basis_set_from_json_dict(rotated_set_json(bundled, diagonal(phases), "rotated"))
    assert sum(any(v.im) for v in all_vectors(ks)) >= 20
    ch = build_ks_channel(ks)
    assert ch.rows == channel.rows
    report = run_zero_error_quantum(ks, ch)
    assert report.all_correct and report.total_branches == 216
    for m in range(ks.q):
        for branch in encoder_branches(ks, m):
            for s in ch.rows[branch.outcome]:
                assert _agrees_with_oracle(ks, s, branch.residual) == (branch.outcome, 1)
    assert report.per_message_mass == fraction_masses(ks, ch) == (Fraction(1),) * 6


def test_zero_error_mass_matches_the_fraction_oracle(bundled, channel):
    report = run_zero_error_quantum(bundled, channel)
    assert report.per_message_mass == fraction_masses(bundled, channel)


def _short_rows(channel, inputs):
    """The channel with each given input's row reweighted to sum to 8/9, over
    denominators that share no factor, and left unvalidated."""
    rows = dict(channel.rows)
    for i in inputs:
        outputs = list(rows[i])
        probs = [Fraction(1, p) for p in (5, 7, 11, 13, 17, 19, 23, 29)]
        probs.append(Fraction(8, 9) - sum(probs))
        assert probs[-1] > 0 and len(probs) == len(outputs)
        rows[i] = dict(zip(outputs, probs))
    return FiniteChannel(inputs=channel.inputs, rows=rows)


def test_zero_error_mass_is_exact_on_rows_short_of_one(bundled, channel):
    # the mass of message m averages its d rows, each with weight 1/d
    one_row = _short_rows(channel, [ChannelInput(0, 0)])
    masses = run_zero_error_quantum(bundled, one_row).per_message_mass
    assert masses == fraction_masses(bundled, one_row)
    assert masses == (Fraction(3 + Fraction(8, 9), 4),) + (Fraction(1),) * 5
    whole_message = _short_rows(channel, [ChannelInput(0, j) for j in range(4)])
    masses = run_zero_error_quantum(bundled, whole_message).per_message_mass
    assert masses == (Fraction(8, 9),) + (Fraction(1),) * 5


def test_zero_error_mass_traces_the_encoder_branches(monkeypatch, bundled, channel):
    # an encoder that returns its d branches 5 times lands on each row 5
    # times, each branch of weight 1/d, so every message carries mass 5
    real = entangled.encoder_branches
    monkeypatch.setattr(entangled, "encoder_branches", lambda ks, m: real(ks, m) * 5)
    report = run_zero_error_quantum(bundled, channel)
    assert report.total_branches == 5 * 216
    assert report.per_message_mass == (Fraction(5),) * 6
