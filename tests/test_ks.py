"""Basis-set validation, the traversal property, conjugation, file format.

Claims covered:
    - orthogonality decisions are exact on the bundled data
    - validate_basis_set flags duplicate vectors and non-unit norms by pair
    - verify_ks_property's pruned depth-first walk agrees with a naive
      product-order scan (holds, witness and traversal count) on every set
      small enough to cross-check, failing subsets included
    - a single basis and a pair of mutually unbiased bases both lack the
      property, with witnesses
    - conjugation is an involution, fixes real bases, preserves overlaps
    - the JSON reader takes rational-string entries and a common denominator
"""

from itertools import combinations

import pytest

from entwit.exact import ComplexFraction, Vector, is_orthogonal
from entwit.ks import (
    KSBasisSet,
    basis_set_from_json_dict,
    conjugate_basis,
    validate_basis_set,
    verify_ks_property,
)

from helpers import naive_ks_check, raw_dot, same_ray


def _mub_d2():
    """Two mutually unbiased bases of C^2: no inter-basis orthogonality."""
    b0 = (Vector.from_components([1, 0]), Vector.from_components([0, 1]))
    b1 = (Vector.from_components([1, 1]), Vector.from_components([1, -1]))
    return KSBasisSet(q=2, d=2, bases=(b0, b1), label="two MUBs in d=2")


def _single_basis_d2():
    b0 = (Vector.from_components([1, 0]), Vector.from_components([0, 1]))
    return KSBasisSet(q=1, d=2, bases=(b0,), label="one basis")


# -- orthogonality ------------------------------------------------------------


def test_is_orthogonal_standard_basis():
    e0 = Vector.from_components([1, 0, 0, 0])
    e1 = Vector.from_components([0, 1, 0, 0])
    assert is_orthogonal(e0, e1)
    assert not is_orthogonal(e0, e0)  # self inner product is 1


def test_every_intra_basis_pair_is_orthogonal(bundled):
    for basis in bundled.bases:
        for v, w in combinations(basis, 2):
            assert is_orthogonal(v, w)


# -- validation ---------------------------------------------------------------


def test_bundled_set_validates(bundled):
    assert validate_basis_set(bundled).passed


def test_repeated_vector_names_the_duplicate_pair():
    v = Vector.from_components([1, 0])
    basis = (v, v)
    report = validate_basis_set(KSBasisSet(q=1, d=2, bases=(basis,)))
    assert not report.passed
    assert report.issues[0].pair == (0, 1)


def test_non_unit_vector_fails_validation():
    basis = (Vector([2, 0]), Vector.from_components([0, 1]))
    report = validate_basis_set(KSBasisSet(q=1, d=2, bases=(basis,)))
    assert not report.passed
    issue = report.issues[0]
    assert issue.pair == (0, 0)
    assert "norm" in issue.detail


def test_shape_violations_rejected():
    b0 = (Vector.from_components([1, 0]), Vector.from_components([0, 1]))
    with pytest.raises(ValueError):
        KSBasisSet(q=2, d=2, bases=(b0,))
    with pytest.raises(ValueError):
        KSBasisSet(q=1, d=1, bases=((Vector.from_components([1]),),))


# -- the traversal property ----------------------------------------------------


def test_bundled_set_has_the_property(bundled):
    result = verify_ks_property(bundled)
    assert result.holds
    assert result.traversals_checked == 4 ** 6
    assert result.witness is None


def test_single_basis_fails_with_singleton_witness():
    result = verify_ks_property(_single_basis_d2())
    assert not result.holds
    assert len(result.witness) == 1


def test_mub_pair_fails():
    result = verify_ks_property(_mub_d2())
    assert not result.holds
    # the witness mixes the two bases and has no orthogonal pair
    (m0, j0), (m1, j1) = result.witness
    ks = _mub_d2()
    assert raw_dot(ks.bases[m0][j0], ks.bases[m1][j1])


def test_verify_requires_validation():
    v = Vector.from_components([1, 0])
    with pytest.raises(ValueError):
        verify_ks_property(KSBasisSet(q=1, d=2, bases=((v, v),)))


def _naive_agrees(ks):
    holds, witness, count = naive_ks_check(ks)
    result = verify_ks_property(ks)
    assert (result.holds, result.witness, result.traversals_checked) == (holds, witness, count)
    return result


def test_agrees_with_naive_reimplementation(bundled):
    # every set in the suite has d^q <= 1e5, so cross-check them all
    for ks in (bundled, _mub_d2(), _single_basis_d2()):
        _naive_agrees(ks)
    reversed_set = KSBasisSet(q=6, d=4, bases=bundled.bases[::-1])
    assert _naive_agrees(reversed_set).traversals_checked == 4096


def test_pruned_walk_counts_like_the_flat_scan_on_failing_sets(bundled):
    # five of the six bases never suffice; a prefix that already holds an
    # orthogonal pair settles its completions at once, and the count and
    # witness must still be those of the product-order scan
    counts = []
    for drop in range(6):
        bases = tuple(b for m, b in enumerate(bundled.bases) if m != drop)
        result = _naive_agrees(KSBasisSet(q=5, d=4, bases=bases))
        assert not result.holds
        counts.append(result.traversals_checked)
        # the same subset listed backwards fails at other positions
        flipped = tuple(b[::-1] for b in bases[::-1])
        assert not _naive_agrees(KSBasisSet(q=5, d=4, bases=flipped)).holds
    assert counts == [33, 3, 2, 1, 5, 1]


def test_check_result_carries_the_orthogonality_table(bundled):
    masks = verify_ks_property(bundled).masks
    flat = bundled.all_vectors()
    assert len(masks) == 24
    for a, b in combinations(range(24), 2):
        orthogonal = is_orthogonal(flat[a], flat[b])
        assert bool(masks[a] >> b & 1) == bool(masks[b] >> a & 1) == orthogonal
    assert not any(mask >> a & 1 for a, mask in enumerate(masks))


# -- conjugation ----------------------------------------------------------------


def test_conjugate_fixes_real_bases(bundled):
    for basis in bundled.bases:
        assert conjugate_basis(basis) == tuple(basis)


def test_conjugate_is_an_involution():
    basis = (
        Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)]),
        Vector.from_components([ComplexFraction(1), ComplexFraction(0, -1)]),
    )
    assert conjugate_basis(conjugate_basis(basis)) == basis


def test_conjugate_entrywise():
    v = Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    (w,) = conjugate_basis((v,))
    assert w.entries == (ComplexFraction(1), ComplexFraction(0, -1))


def test_conjugation_preserves_overlap_magnitudes(bundled):
    basis = (
        Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)]),
        Vector.from_components([ComplexFraction(2), ComplexFraction(1, 1)]),
    )
    conj = conjugate_basis(basis)
    for a, b in combinations(range(len(basis)), 2):
        assert basis[a].overlap_sq(basis[b]) == conj[a].overlap_sq(conj[b])


# -- file format -----------------------------------------------------------------


def test_rejects_unknown_format():
    with pytest.raises(ValueError):
        basis_set_from_json_dict({"format": "something-else", "q": 1, "d": 2, "bases": []})


def test_common_denominator_is_cosmetic():
    data = {
        "format": "ks-basis-set/1",
        "q": 2,
        "d": 2,
        "denominator": 3,  # directions are normalized, so the rays agree
        "bases": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]],
        ],
    }
    loaded = basis_set_from_json_dict(data)
    reference = _mub_d2()
    assert (loaded.q, loaded.d) == (reference.q, reference.d)
    for basis_a, basis_b in zip(loaded.bases, reference.bases):
        for va, vb in zip(basis_a, basis_b):
            assert same_ray(va, vb)


def test_rational_string_entries():
    data = {
        "format": "ks-basis-set/1",
        "q": 1,
        "d": 2,
        "bases": [[[["1/2", 0], ["1/2", 0]], [[1, 0], [-1, 0]]]],
    }
    ks = basis_set_from_json_dict(data)
    assert validate_basis_set(ks).passed
