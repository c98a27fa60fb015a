"""Basis-set validation, the traversal property, conjugation, file format.

Claims covered:
    - orthogonality decisions are exact on the bundled data
    - validate_basis_set raises at the first pair of a basis that is not
      orthogonal, in basis order, naming the basis and the pair; numerators
      of any length denote a unit vector and pass; the verdict the
      constructor holds raises what a per-call scan finds, on every set here
    - verify_ks_property's pruned depth-first walk agrees with a naive
      product-order scan of Gaussian integer dots, on the rays as the
      checker reads them (holds, witness and traversal count), on every set
      small enough to cross-check, failing subsets included
    - a single basis and a pair of mutually unbiased bases both lack the
      property, with witnesses
    - the orthogonality table a set holds from its constructor equals a
      fresh one and the ComplexFraction sums, on valid and broken sets, and
      the set refuses every assignment and deletion, so the table cannot go
      stale
    - conjugation is an involution, fixes real bases, preserves overlaps
    - the JSON reader takes rational-string entries and a common denominator,
      and its integer path builds every vector along the from_components
      oracle, which divides ComplexFraction parts, on the same parts (bundled
      set, the two rational/imaginary test sets, and a negative rational
      denominator with imaginary parts)
"""

import json
from importlib import resources
from itertools import combinations, product
from pathlib import Path

import pytest

from entwit.exact import as_fraction, orthogonality_masks
from entwit.ks import (
    BasisSetError,
    KSBasisSet,
    basis_set_from_json_dict,
    load_basis_set,
    validate_basis_set,
    verify_ks_property,
)

from helpers import (
    BUNDLED_RAYS,
    ComplexFraction,
    bases_of,
    cf_dot,
    conjugate_basis,
    entries,
    from_components,
    is_orthogonal,
    lowest_terms,
    naive_ks_check,
    overlap_sq,
    perturbed_unitary_json,
    raw_dot,
    ray_bases,
    same_ray,
    vector,
)


def _mub_d2():
    """Two mutually unbiased bases of C^2: no inter-basis orthogonality."""
    b0 = (from_components([1, 0]), from_components([0, 1]))
    b1 = (from_components([1, 1]), from_components([1, -1]))
    return KSBasisSet(q=2, d=2, bases=(b0, b1), label="two MUBs in d=2")


def _single_basis_d2():
    b0 = (from_components([1, 0]), from_components([0, 1]))
    return KSBasisSet(q=1, d=2, bases=(b0,), label="one basis")


# -- orthogonality ------------------------------------------------------------


def test_is_orthogonal_standard_basis():
    e0 = from_components([1, 0, 0, 0])
    e1 = from_components([0, 1, 0, 0])
    assert is_orthogonal(e0, e1)
    assert not is_orthogonal(e0, e0)  # self inner product is 1


def test_every_intra_basis_pair_is_orthogonal(bundled):
    for basis in bases_of(bundled):
        for v, w in combinations(basis, 2):
            assert is_orthogonal(v, w)


# -- validation ---------------------------------------------------------------


def test_bundled_set_validates(bundled):
    validate_basis_set(bundled)  # raises BasisSetError at a violation


def test_repeated_vector_names_the_duplicate_pair():
    v = from_components([1, 0])
    basis = (v, v)
    with pytest.raises(BasisSetError) as info:
        validate_basis_set(KSBasisSet(q=1, d=2, bases=(basis,)))
    assert info.value.pair == (0, 1)


def test_validation_reports_the_first_violation_in_basis_order():
    e0 = from_components([1, 0])
    e1 = from_components([0, 1])
    good = (e0, e1)
    skew = (e0, from_components([1, 1]))  # unit, not orthogonal to e0
    long = (vector([2, 0]), e0)  # e0 twice, once written at length 2
    ks = KSBasisSet(q=4, d=2, bases=(good, skew, long, skew))
    with pytest.raises(BasisSetError) as info:
        validate_basis_set(ks)
    assert (info.value.m, info.value.pair) == (1, (0, 1))
    assert "basis 1," in str(info.value)
    with pytest.raises(BasisSetError) as info:
        validate_basis_set(KSBasisSet(q=3, d=2, bases=(good, long, skew)))
    assert (info.value.m, info.value.pair) == (1, (0, 1))
    assert "basis 1," in str(info.value)


def test_shape_violations_rejected():
    b0 = (from_components([1, 0]), from_components([0, 1]))
    with pytest.raises(ValueError):
        KSBasisSet(q=2, d=2, bases=(b0,))
    with pytest.raises(ValueError):
        KSBasisSet(q=1, d=1, bases=((from_components([1]),),))


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
    assert raw_dot(ks.vectors[m0 * ks.d + j0], ks.vectors[m1 * ks.d + j1])


def test_verify_requires_validation():
    v = from_components([1, 0])
    with pytest.raises(ValueError):
        verify_ks_property(KSBasisSet(q=1, d=2, bases=((v, v),)))


# the two bases of _mub_d2 as the naive check takes them, Gaussian integers
MUB_D2_RAYS = [[[(1, 0), (0, 0)], [(0, 0), (1, 0)]], [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]]]


def _naive_agrees(ks, rays):
    """verify_ks_property on ``ks`` against the naive check on ``rays``, the
    same bases as Gaussian integers."""
    holds, witness, count = naive_ks_check(rays)
    result = verify_ks_property(ks)
    assert (result.holds, result.witness, result.traversals_checked) == (holds, witness, count)
    return result


def test_agrees_with_naive_reimplementation(bundled):
    # every set here has d^q <= 1e5, so cross-check them all; the 18-ray
    # set is checked in test_cabello
    rays = ray_bases(BUNDLED_RAYS)
    _naive_agrees(bundled, rays)
    _naive_agrees(_mub_d2(), MUB_D2_RAYS)
    _naive_agrees(_single_basis_d2(), MUB_D2_RAYS[:1])
    reversed_set = KSBasisSet(q=6, d=4, bases=bases_of(bundled)[::-1])
    assert _naive_agrees(reversed_set, rays[::-1]).traversals_checked == 4096


def test_pruned_walk_counts_like_the_flat_scan_on_failing_sets(bundled):
    # five of the six bases never suffice; a prefix that already holds an
    # orthogonal pair settles its completions at once, and the count and
    # witness must still be those of the product-order scan
    counts = []
    all_rays = ray_bases(BUNDLED_RAYS)
    for drop in range(6):
        bases = tuple(b for m, b in enumerate(bases_of(bundled)) if m != drop)
        rays = [b for m, b in enumerate(all_rays) if m != drop]
        result = _naive_agrees(KSBasisSet(q=5, d=4, bases=bases), rays)
        assert not result.holds
        counts.append(result.traversals_checked)
        # the same subset listed backwards fails at other positions
        flipped = tuple(b[::-1] for b in bases[::-1])
        flipped_rays = [b[::-1] for b in rays[::-1]]
        assert not _naive_agrees(KSBasisSet(q=5, d=4, bases=flipped), flipped_rays).holds
    assert counts == [33, 3, 2, 1, 5, 1]


# -- the held orthogonality table -------------------------------------------------


def _held_table_set(source, bundled):
    e0, e1 = from_components([1, 0]), from_components([0, 1])
    good, skew, long = (e0, e1), (e0, from_components([1, 1])), (vector([2, 0]), e0)
    if source == "bundled":
        return bundled
    if source == "unitary":
        return load_basis_set(DATA / "ks_6_4_unitary.json")
    if source == "perturbed-unitary":
        return basis_set_from_json_dict(perturbed_unitary_json())
    if source == "mub":
        return _mub_d2()
    if source == "single-basis":
        return _single_basis_d2()
    if source == "repeated":
        return KSBasisSet(q=1, d=2, bases=((e0, e0),))
    if source == "non-unit":  # numerators of squared norm 4: still a unit vector
        return KSBasisSet(q=1, d=2, bases=((vector([2, 0]), e1),))
    if source in ("ks_rational_entries.json", "ks_imaginary_vector.json", "ks_9_4_cabello.json"):
        return load_basis_set(DATA / source)
    if source == "long-before-skew":
        return KSBasisSet(q=3, d=2, bases=(good, long, skew))
    return KSBasisSet(q=4, d=2, bases=(good, skew, long, skew))


HELD_TABLE_SOURCES = (
    "bundled", "unitary", "perturbed-unitary", "mub", "single-basis", "repeated",
    "non-unit", "first-violation",
)


@pytest.mark.parametrize("source", HELD_TABLE_SOURCES)
def test_held_masks_match_fresh_sums(bundled, source):
    # the table the constructor held equals a fresh one and the plain
    # ComplexFraction sums: bit b of masks[a] iff a != b and <a|b> = 0
    ks = _held_table_set(source, bundled)
    flat = ks.vectors
    assert len(ks.masks) == len(flat) == ks.q * ks.d
    assert ks.masks == tuple(orthogonality_masks(flat))
    for a, b in product(range(len(flat)), repeat=2):
        orthogonal = a != b and not cf_dot(flat[a], flat[b])
        assert bool(ks.masks[a] >> b & 1) == orthogonal
    assert all(mask >> len(flat) == 0 for mask in ks.masks)


def _scanned_violation(ks):
    """The first orthonormality violation as ``validate_basis_set`` scanned
    for it on every call before the set held its verdict: bases, then
    vectors, then partners, on the held ``masks``."""
    d, masks = ks.d, ks.masks
    for m, basis in enumerate(bases_of(ks)):
        for j in range(len(basis)):
            missing = ((1 << (d - j - 1)) - 1) << (m * d + j + 1) & ~masks[m * d + j]
            if missing:
                j2 = (missing & -missing).bit_length() - 1 - m * d
                return BasisSetError(m, (j, j2), f"vectors {j} and {j2} are not orthogonal")
    return None


@pytest.mark.parametrize("source", HELD_TABLE_SOURCES + (
    "ks_rational_entries.json", "ks_imaginary_vector.json", "ks_9_4_cabello.json",
    "long-before-skew",
))
def test_held_verdict_matches_the_scan(bundled, source):
    # the verdict the constructor held raises what the scan finds, on every
    # call
    ks = _held_table_set(source, bundled)
    expected = _scanned_violation(ks)
    for _ in range(2):
        if expected is None:
            validate_basis_set(ks)  # raises BasisSetError at a violation
            continue
        with pytest.raises(BasisSetError) as info:
            validate_basis_set(ks)
        got = info.value
        assert got.pair[0] < got.pair[1]  # always two distinct vectors of the basis
        assert (got.m, got.pair, got.detail, str(got)) == (
            expected.m, expected.pair, expected.detail, str(expected)
        )
    if source in ("perturbed-unitary", "repeated", "first-violation", "long-before-skew"):
        assert expected is not None
    if source == "non-unit":
        assert expected is None


@pytest.mark.parametrize("name", ["q", "d", "bases", "label", "masks", "other"])
def test_basis_set_refuses_assignment(name):
    ks = _mub_d2()
    before = ks.masks
    with pytest.raises(AttributeError):
        setattr(ks, name, getattr(ks, name, None))
    assert ks.masks == before


@pytest.mark.parametrize("name", list(KSBasisSet.__slots__) + ["other"])
def test_basis_set_refuses_deletion(name):
    ks = _mub_d2()
    held = tuple(getattr(ks, slot) for slot in KSBasisSet.__slots__)
    with pytest.raises(AttributeError, match="KSBasisSet is immutable"):
        delattr(ks, name)
    assert tuple(getattr(ks, slot) for slot in KSBasisSet.__slots__) == held


def test_basis_set_holds_its_own_bases():
    # lists are copied into tuples, so changing them later leaves the set,
    # and its table, as built
    e0, e1 = from_components([1, 0]), from_components([0, 1])
    basis = [e0, e1]
    ks = KSBasisSet(q=1, d=2, bases=[basis])
    basis[1] = e0
    assert ks.vectors == (e0, e1)
    validate_basis_set(ks)  # raises BasisSetError at a violation


# -- conjugation ----------------------------------------------------------------


def test_conjugate_fixes_real_bases(bundled):
    for basis in bases_of(bundled):
        assert conjugate_basis(basis) == tuple(basis)


def test_conjugate_is_an_involution():
    basis = (
        from_components([ComplexFraction(1), ComplexFraction(0, 1)]),
        from_components([ComplexFraction(1), ComplexFraction(0, -1)]),
    )
    assert conjugate_basis(conjugate_basis(basis)) == basis


def test_conjugate_entrywise():
    v = from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    (w,) = conjugate_basis((v,))
    assert entries(w) == (ComplexFraction(1), ComplexFraction(0, -1))


def test_conjugation_preserves_overlap_magnitudes(bundled):
    basis = (
        from_components([ComplexFraction(1), ComplexFraction(0, 1)]),
        from_components([ComplexFraction(2), ComplexFraction(1, 1)]),
    )
    conj = conjugate_basis(basis)
    for a, b in combinations(range(len(basis)), 2):
        assert overlap_sq(basis[a], basis[b]) == overlap_sq(conj[a], conj[b])


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
    for basis_a, basis_b in zip(bases_of(loaded), bases_of(reference)):
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
    validate_basis_set(ks)  # raises BasisSetError at a violation


DATA = Path(__file__).parent / "data"

# two bases of C^2 with no structure: the reader does not validate
MIXED_PARTS = {
    "format": "ks-basis-set/1",
    "q": 2,
    "d": 2,
    "denominator": "-3/2",
    "bases": [
        [[["1/2", "1/3"], ["-2/5", 0]], [[0, "7/4"], [3, "-1/6"]]],
        [[["4/6", 0], [0, "-9/12"]], [["0/5", "5/7"], ["11/13", 2]]],
    ],
}


# whole parts written as strings, with no denominator field: every part has
# denominator 1, and each must reach the vector as an int
WHOLE_STRINGS = {
    "format": "ks-basis-set/1",
    "q": 1,
    "d": 2,
    "bases": [[[["3", 0], [0, "-8/2"]], [["0/7", "2"], [1, "-1"]]]],
}


def _from_components(data):
    """Every vector as the from_components oracle builds it from
    ComplexFraction parts and the denominator field."""
    den = as_fraction(data.get("denominator", 1))
    return [
        [
            from_components(
                [ComplexFraction(as_fraction(re), as_fraction(im)) for re, im in raw_vec],
                denominator=den,
            )
            for raw_vec in basis
        ]
        for basis in data["bases"]
    ]


@pytest.mark.parametrize(
    "source",
    [
        "bundled", "ks_rational_entries.json", "ks_imaginary_vector.json", "mixed-parts",
        "whole-strings",
    ],
)
def test_reader_matches_from_components(source):
    if source == "bundled":
        data = json.loads(
            resources.files("entwit.data").joinpath("ks_6_4_peres.json").read_text()
        )
    elif source == "mixed-parts":
        data = MIXED_PARTS
    elif source == "whole-strings":
        data = WHOLE_STRINGS
    else:
        data = json.loads((DATA / source).read_text())
    loaded = basis_set_from_json_dict(data)
    expected = _from_components(data)
    assert [list(map(lowest_terms, basis)) for basis in bases_of(loaded)] == [
        list(map(lowest_terms, basis)) for basis in expected
    ]
    assert all(type(x) is int for v in loaded.vectors for x in v.re + v.im)


def test_rational_test_set_denotes_the_bundled_rays(bundled):
    rational = load_basis_set(DATA / "ks_rational_entries.json")
    imaginary = load_basis_set(DATA / "ks_imaginary_vector.json")
    for v, w, u in zip(bundled.vectors, rational.vectors, imaginary.vectors):
        assert overlap_sq(v, w) == 1 and overlap_sq(v, u) == 1
    assert sum(v != u for v, u in zip(bundled.vectors, imaginary.vectors)) == 1


def test_reader_refuses_zero_denominator():
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        basis_set_from_json_dict(dict(MIXED_PARTS, denominator="0/3"))


@pytest.mark.parametrize("part", [0.5, True, None])
def test_reader_refuses_inexact_parts(part):
    data = json.loads(json.dumps(MIXED_PARTS))
    data["bases"][1][0][1][1] = part
    with pytest.raises(TypeError):
        basis_set_from_json_dict(data)
