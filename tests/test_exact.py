"""Exact scalar/vector layer: arithmetic, normalization, completion, Born probabilities.

Every inner product reads the two vectors' held real flags, so a product
whose real part is zero and whose imaginary part is not, as (1, 0) against
(i, 0), is checked through each caller that reads them.  Where the flags
let a caller sum the real numerators directly, its answer is also checked
against the Gaussian kernel on the same numerators.  The packed
orthogonality table is checked bit by bit against plain pairwise sums, at
the edges of its field width.
"""

import decimal
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit.exact import Vector, _gauss_dot, as_fraction, decimal_str, orthogonality_masks
from entwit.entangled import decoder_decode
from entwit.ks import BasisSetError, KSBasisSet, basis_set_from_json_dict, validate_basis_set
from helpers import (
    ComplexFraction,
    Parts,
    abs_sq,
    cf_dot,
    cf_norm_sq,
    cf_overlap_sq,
    complete_orthonormal_basis,
    conjugate,
    entries,
    from_components,
    is_orthogonal,
    lowest_terms,
    measurement_probabilities,
    overlap_sq,
    raw_dot,
    same_ray,
    vector,
)

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
small_cf = st.builds(ComplexFraction, small_fractions, small_fractions)


# -- scalars ----------------------------------------------------------------


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction("2.5") == Fraction(5, 2)


def test_complex_fraction_basics():
    a = ComplexFraction(1, 2)
    b = ComplexFraction(Fraction(1, 3), -1)
    assert (a + b).re == Fraction(4, 3)
    assert (a - b).im == 3
    assert a * b == ComplexFraction(Fraction(7, 3), Fraction(-1, 3))
    assert a.conjugate().im == -2
    assert abs_sq(a) == 5
    assert not ComplexFraction(0, 0)
    assert ComplexFraction(2) == 2


@settings(max_examples=60, deadline=None)
@given(small_cf, small_cf, small_cf)
def test_complex_fraction_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a * a.conjugate()).im == 0


def test_decimal_str():
    assert decimal_str(Fraction(7, 2)) == "3.5"
    assert decimal_str(Fraction(440, 3)) == "146.666666667"
    assert decimal_str(Fraction(-1, 4)) == "-0.25"
    assert decimal_str(Fraction(0)) == "0"
    assert decimal_str(Fraction(21)) == "21"


def test_decimal_str_ignores_the_callers_decimal_context():
    # a rounding or a trap set by the caller reaches no report
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        ctx.traps[decimal.Inexact] = True
        assert decimal_str(Fraction(2, 3)) == "0.666666666667"
        assert decimal_str(Fraction(440, 3)) == "146.666666667"
    assert decimal.getcontext().rounding == decimal.ROUND_HALF_EVEN
    assert not decimal.getcontext().traps[decimal.Inexact]


# -- vectors ----------------------------------------------------------------


def test_from_components_is_exactly_normalized():
    v = from_components([1, 1, 0, 0])
    assert cf_norm_sq(v) == 1
    assert v.nsq == 2
    w = from_components([1, -1, 1, -1])
    assert cf_norm_sq(w) == 1
    assert raw_dot(v, w) == ComplexFraction(0)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        from_components([0, 0, 0])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        raw_dot(vector([1, 0]), vector([1, 0, 0]))
    with pytest.raises(ValueError):
        is_orthogonal(vector([1, 0]), vector([1, 0, 0]))


def test_overlap_and_same_ray_mod_phase():
    v = from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    # i * v is the same ray even though the entries differ
    w = from_components([ComplexFraction(0, 1), ComplexFraction(-1)])
    assert overlap_sq(v, w) == 1
    assert same_ray(v, w)
    assert not same_ray(v, conjugate(v))


def test_conjugate_preserves_overlap_magnitude():
    v = from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    w = from_components([ComplexFraction(1), ComplexFraction(1, 1)])
    assert overlap_sq(conjugate(v), conjugate(w)) == overlap_sq(v, w)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_cf, min_size=3, max_size=3), st.lists(small_cf, min_size=3, max_size=3))
def test_raw_dot_conjugate_symmetry(xs, ys):
    if not any(xs) or not any(ys):
        return
    v, w = vector(xs), vector(ys)
    assert raw_dot(v, w) == raw_dot(w, v).conjugate()


def _random_gaussian_rational(rng):
    """An entry with mixed denominators; zero about one time in six."""
    if rng.randrange(6) == 0:
        return ComplexFraction(0)
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return ComplexFraction(re, im)


def _random_values(rng, dim):
    """``dim`` entries of mixed denominators, not all zero."""
    while True:
        values = [_random_gaussian_rational(rng) for _ in range(dim)]
        if any(values):
            return values


def test_integer_kernel_matches_complex_fraction_sums():
    # the kernel works on Gaussian-integer numerators; every quantity must
    # equal the plain ComplexFraction sums over the denoted entries
    rng = random.Random(20131)
    seen = {"dims": set(), "mixed_den": 0, "imag": 0}
    for _ in range(300):
        dim = rng.randint(2, 5)
        values = _random_values(rng, dim)
        v, w = vector(values), vector(_random_values(rng, dim))
        seen["dims"].add(dim)
        dens = {c.re.denominator for c in values} | {c.im.denominator for c in values}
        seen["mixed_den"] += len(dens) > 1
        seen["imag"] += any(v.im)
        assert raw_dot(v, w) == cf_dot(v, w)
        assert cf_norm_sq(v) == 1
        assert _held_is_fresh(v)
        assert is_orthogonal(v, w) == (not cf_dot(v, w))
        assert overlap_sq(v, w) == cf_overlap_sq(v, w)
    assert seen["dims"] == {2, 3, 4, 5}
    assert min(seen["mixed_den"], seen["imag"]) > 20


def _gaussian_integers(rng, dim, imaginary):
    """(re, im) integer tuples; ``imaginary`` of the im entries nonzero."""
    re = tuple(rng.randint(-9, 9) for _ in range(dim))
    im = [0] * dim
    for k in rng.sample(range(dim), imaginary):
        im[k] = rng.choice([-3, -2, -1, 1, 2, 3])
    return re, tuple(im)


def _cf_sum(a_re, a_im, b_re, b_im):
    acc = ComplexFraction(0)
    for ar, ai, br, bi in zip(a_re, a_im, b_re, b_im):
        acc = acc + ComplexFraction(ar, ai).conjugate() * ComplexFraction(br, bi)
    return acc.re, acc.im


def _abs_sq(dot):
    re, im = dot
    return re * re + im * im


@pytest.mark.parametrize("left,right", [(0, 0), (1, 0), (0, 1), (2, 3)])
def test_dot_kernel_matches_complex_fraction_sums_on_either_branch(left, right):
    # (0, 0) may take the real sum; one nonzero imaginary entry on either side
    # must take the Gaussian loop, whose cross-terms it then needs, and the
    # loop is also right on real parts.  A row of two, as the decoder's two
    # candidates, takes each pair's branch on its own flags
    rng = random.Random(20134 + 10 * left + right)
    nonzero_im = 0
    for _ in range(200):
        dim = rng.randint(max(left, right, 1), 6)
        a = _gaussian_integers(rng, dim, left)
        b = _gaussian_integers(rng, dim, right)
        c = _gaussian_integers(rng, dim, 0)
        ((re, im),) = _gauss_dot(Parts(*a, not left), [Parts(*b, not right)])
        assert (re, im) == _cf_sum(*a, *b)
        assert [(re, im)] == _gauss_dot(Parts(*a, False), [Parts(*b, False)])
        assert type(re) is int and type(im) is int
        nonzero_im += im != 0
        sq = [_abs_sq(_cf_sum(*a, *b)), _abs_sq(_cf_sum(*a, *c))]
        pair = _gauss_dot(Parts(*a, not left), [Parts(*b, not right), Parts(*c, True)])
        assert list(map(_abs_sq, pair)) == sq
        pair = _gauss_dot(Parts(*a, False), [Parts(*b, False), Parts(*c, False)])
        assert list(map(_abs_sq, pair)) == sq
        longer = _gaussian_integers(rng, dim + 1, min(left, 1))
        for real in (True, False):  # the length is checked before either branch
            with pytest.raises(ValueError, match="dimension mismatch"):
                _gauss_dot(Parts(*a, real), [Parts(*longer, real)])
            with pytest.raises(ValueError, match="dimension mismatch"):
                _gauss_dot(Parts(*longer, real), [Parts(*b, real)])
            for pair in ((longer, c), (c, longer)):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    _gauss_dot(Parts(*c, real), [Parts(*x, real) for x in pair])
            with pytest.raises(ValueError, match="dimension mismatch"):
                _gauss_dot(Parts(*longer, real), [Parts(*c, real), Parts(*c, real)])
    if left + right:
        assert nonzero_im > 100
    else:
        assert nonzero_im == 0


def test_row_kernel_takes_each_pair_as_its_own_call_would():
    # one call against a row mixing real and complex vectors gives, in order,
    # what one call per pair gives, each pair on its own flags; a vector of
    # another dimension anywhere in the row is refused
    rng = random.Random(20150)
    flags = set()
    for _ in range(100):
        dim = rng.randint(1, 5)
        left = rng.randint(0, 1)
        a = Parts(*_gaussian_integers(rng, dim, left), not left)
        rows = []
        for _ in range(rng.randint(0, 6)):
            right = rng.randint(0, min(dim, 2))
            rows.append(Parts(*_gaussian_integers(rng, dim, right), not right))
            flags.add((not left, not right))
        dots = _gauss_dot(a, rows)
        assert dots == [_gauss_dot(a, [row])[0] for row in rows]
        assert dots == [_cf_sum(a.re, a.im, row.re, row.im) for row in rows]
        if rows:
            at = rng.randrange(len(rows) + 1)
            longer = Parts(*_gaussian_integers(rng, dim + 1, 0), True)
            with pytest.raises(ValueError, match="dimension mismatch"):
                _gauss_dot(a, rows[:at] + [longer] + rows[at:])
    assert flags == set(product((True, False), repeat=2))


@pytest.mark.parametrize("complex_vectors", [0, 1, 5])
def test_orthogonality_masks_match_complex_fraction_sums(complex_vectors):
    # entries in {-1, 0, 1} make many pairs orthogonal; a set with a complex
    # vector must test the imaginary sums too, since a pair can have a zero
    # real part and a nonzero imaginary one, as (1, 0) and (i, 0) have
    rng = random.Random(20140 + complex_vectors)
    imaginary_only = orthogonal = 0
    for _ in range(40):
        dim = rng.randint(2, 4)
        parts = []
        for n in range(8):
            while True:
                re = tuple(rng.randint(-1, 1) for _ in range(dim))
                im = tuple(rng.randint(-1, 1) if n < complex_vectors else 0 for _ in range(dim))
                if any(re + im):
                    break
            parts.append((re, im))
        masks = orthogonality_masks([Vector(re, im) for re, im in parts])
        # the same pairs with every flag false all take the complex path
        assert masks == orthogonality_masks([Parts(re, im, False) for re, im in parts])
        for a, b in product(range(len(parts)), repeat=2):
            dot = _cf_sum(*parts[a], *parts[b])
            assert (masks[a] >> b & 1) == (a != b and dot == (0, 0))
            orthogonal += a != b and dot == (0, 0)
            imaginary_only += dot[0] == 0 != dot[1]
    assert orthogonal > 100
    assert imaginary_only > 0 if complex_vectors else imaginary_only == 0


@pytest.mark.parametrize("im", [(0, 0), (1, 0)], ids=["real", "complex"])
def test_orthogonality_masks_refuse_mixed_dimensions(im):
    # a real sum over zip would stop at the shorter vector and find (1, 0)
    # orthogonal to (0, 1, 1); the kernel refuses, and so must the table,
    # whose packed columns would also run short
    vectors = [Vector((1, 0), im), Vector((0, 1, 1), (0, 0, 0))]
    with pytest.raises(ValueError, match="dimension mismatch"):
        orthogonality_masks(vectors)


def _edge_set(rng, n, dim, k, complex_set):
    """n ``Parts`` of numerators in {0, +-1, +-(2^k - 1), +-2^k}, the edges of
    the table's field width; about half are built orthogonal to the vector
    before them, some are +-1 times it, whose dot is the largest the field
    holds, and some, in a complex set, i times it: <v|iv> = i|v|^2 has a
    zero real part.  A zero vector joins sets of three or more."""
    edges = (0, 1, -1, 2**k - 1, 1 - 2**k, 2**k, -(2**k))
    vectors = []
    for a in range(n):
        re = [rng.choice(edges) for _ in range(dim)]
        im = [rng.choice(edges) if complex_set and rng.random() < 0.7 else 0 for _ in range(dim)]
        pr, pi = vectors[-1][:2] if a else ((), ())
        if a and dim > 1 and rng.random() < 0.5:
            # (-conj(v1), conj(v0), 0, ...) is orthogonal to v
            re[:2], im[:2] = [-pr[1], pr[0]], [pi[1], -pi[0]]
        elif a and rng.random() < 0.3:
            sign = rng.choice((1, -1))
            re, im = [sign * x for x in pr], [sign * x for x in pi]
        elif a and complex_set and rng.random() < 0.3:
            re, im = [-x for x in pi], list(pr)
        vectors.append(Parts(tuple(re), tuple(im), not any(im)))
    if n > 2:
        vectors[rng.randrange(n)] = Parts((0,) * dim, (0,) * dim, True)
    return vectors


@pytest.mark.parametrize("complex_set", [False, True], ids=["real", "complex"])
def test_packed_table_matches_pairwise_oracle(complex_set):
    # every bit of the packed table against plain pairwise Gaussian-integer
    # sums, on sets of 1 to 12 vectors in dimensions 1 to 8, and on one set
    # of 100 vectors with 60-bit numerators, read off in more than one block
    rng = random.Random(3200 + complex_set)
    sets = [_edge_set(rng, n, rng.randint(1, 8), rng.randint(0, 12), complex_set)
            for n in [1, 2] * 10 + [rng.randint(3, 12) for _ in range(100)]]
    sets.append(_edge_set(rng, 100, 8, 60, complex_set))
    orthogonal = imaginary_only = 0
    for vectors in sets:
        masks = orthogonality_masks(vectors)
        assert len(masks) == len(vectors)
        for (a, v), (b, w) in product(enumerate(vectors), repeat=2):
            re = sum(vr * wr + vi * wi for vr, vi, wr, wi in zip(v.re, v.im, w.re, w.im))
            im = sum(vr * wi - vi * wr for vr, vi, wr, wi in zip(v.re, v.im, w.re, w.im))
            assert masks[a] >> b & 1 == (a != b and re == im == 0)
            assert masks[a] >> b & 1 == masks[b] >> a & 1
            orthogonal += a != b and re == im == 0
            imaginary_only += re == 0 != im
        assert all(mask >> len(vectors) == 0 for mask in masks)
    assert orthogonal > 1000
    assert imaginary_only > 100 if complex_set else imaginary_only == 0


def _held_is_fresh(v):
    """The squared norm and real flag held since construction equal what the
    numerators give, recomputed."""
    nsq = sum(r * r for r in v.re) + sum(i * i for i in v.im)
    return v.nsq == nsq and v.real is (not any(v.im))


def _loaded(parts, den):
    """The basis set reader's vectors for these parts and denominator field
    (the reader does not validate, so the basis need not be orthonormal)."""
    data = {
        "format": "ks-basis-set/1",
        "q": 1,
        "d": 3,
        "denominator": den,
        "bases": [[[[str(c.re), str(c.im)] for c in row] for row in parts]],
    }
    return basis_set_from_json_dict(data).vectors


def test_held_norm_is_fresh_on_every_construction_path():
    w = Vector((6, 0, -3), (3, 9, 0))
    r = Vector((6, 0, -3), (0, 0, 0))
    made = {
        "constructor/complex": w,
        "constructor/real": r,
        "constructor/whole": Vector((1, -2), (0, 2)),
    }
    rows = [
        [ComplexFraction(1, 2), ComplexFraction("1/3", -1), ComplexFraction(3)],
        [ComplexFraction(0, "-5/4"), ComplexFraction(2), ComplexFraction(0)],
        [ComplexFraction("7/6"), ComplexFraction(0), ComplexFraction(-1, 1)],
    ]
    real_rows = [
        [ComplexFraction(x) for x in row] for row in ((1, "-2/3", 0), (0, 3, "1/2"), (5, 0, 0))
    ]
    loaded = {}
    for den in (1, -3, "3/2", "-3/2"):
        # the reader's numerators must equal dividing the entries and normalizing
        loaded[den] = _loaded(rows, den)
        for kind, parts in (("complex", rows), ("real", real_rows)):
            vectors = loaded[den] if kind == "complex" else _loaded(real_rows, den)
            for n, (got, row) in enumerate(zip(vectors, parts)):
                made[f"loader/{kind}/{den}/{n}"] = got
                assert lowest_terms(got) == lowest_terms(from_components(row, denominator=den))
    for path, u in made.items():
        assert _held_is_fresh(u), path
        assert cf_norm_sq(u) == 1, path
    assert made["constructor/whole"].nsq == 9
    # every path makes both real and complex vectors
    kinds = {(path.split("/")[0], u.real) for path, u in made.items()}
    assert kinds == set(product(("constructor", "loader"), (True, False)))
    assert w == vector(entries(w)) and w.re == (6, 0, -3)  # kept as given, not reduced by 3
    # a negative denominator flips the direction; it is not the same vector
    assert loaded["-3/2"] == _loaded([[-c for c in row] for row in rows], "3/2")
    assert loaded["-3/2"] != loaded["3/2"]


# the names of the fields a vector no longer has are refused as any other name
FORMER_FIELDS = ["den", "scale", "unit"]


@pytest.mark.parametrize("name", list(Vector.__slots__) + FORMER_FIELDS + ["other"])
def test_vector_refuses_assignment(name):
    v = Vector((6, 0, -3), (3, 9, 0))
    held = tuple(getattr(v, slot) for slot in Vector.__slots__)
    with pytest.raises(AttributeError, match="Vector is immutable"):
        setattr(v, name, getattr(v, name, None))
    assert tuple(getattr(v, slot) for slot in Vector.__slots__) == held
    assert _held_is_fresh(v)


@pytest.mark.parametrize("name", list(Vector.__slots__) + FORMER_FIELDS + ["other"])
def test_vector_refuses_deletion(name):
    # a deleted slot would leave nsq or real missing under the kernel
    v = Vector((6, 0, -3), (3, 9, 0))
    held = tuple(getattr(v, slot) for slot in Vector.__slots__)
    with pytest.raises(AttributeError, match="Vector is immutable"):
        delattr(v, name)
    assert tuple(getattr(v, slot) for slot in Vector.__slots__) == held
    assert _held_is_fresh(v)


def test_vector_stores_entries_in_lowest_terms():
    # the helper's numerators are the entries over their least common
    # denominator, so equal entries give one vector however they were written
    v = vector([Fraction(2, 4), ComplexFraction(Fraction(1, 3), -2), 0])
    assert entries(v) == (ComplexFraction(3), ComplexFraction(2, -12), ComplexFraction(0))
    same = vector([Fraction(1, 2), ComplexFraction("2/6", "-4/2"), 0])
    assert v == same and hash(v) == hash(same)
    # twice the numerators denote the same unit vector, but are not reduced
    # to compare equal
    double = Vector([2 * x for x in v.re], [2 * x for x in v.im])
    assert double != v and lowest_terms(double) == lowest_terms(v) and same_ray(double, v)
    assert conjugate(conjugate(v)) == v


@pytest.mark.parametrize(
    "args, stored",
    [
        (((2, 4), (0, 6)), ((2, 4), (0, 6), 56)),
        (((1, 0), (0,)), "matching nonempty parts"),
        (((), ()), "matching nonempty parts"),
        (((0, 0), (0, 0)), "cannot normalize the zero vector"),
    ],
    ids=["den-one-keeps-numerators", "mismatched", "empty", "zero-unit"],
)
def test_constructor_refuses_or_stores_lowest_terms(args, stored):
    # numerators are stored as given, never reduced: a vector given in
    # lowest terms stays so, and (2, 4) is not taken to (1, 2)
    if isinstance(stored, str):
        with pytest.raises(ValueError, match=stored):
            Vector(*args)
        return
    v = Vector(*args)
    assert (v.re, v.im, v.nsq) == stored
    assert _held_is_fresh(v)
    assert v == eval(repr(v), {"Vector": Vector})


# (1, 0) against (i, 0): the inner product is i, so the pair is not
# orthogonal and the squared overlap is 1; (1, 0) against (0, 1) is the real
# pair that takes the real sums
E0 = Vector((1, 0), (0, 0))
E1 = Vector((0, 1), (0, 0))
I_E0 = Vector((0, 0), (1, 0))


@pytest.mark.parametrize("caller", ["validate", "decode", "overlap", "masks"])
def test_a_product_with_only_an_imaginary_part_is_not_zero(caller):
    ks = KSBasisSet(q=1, d=2, bases=((E0, I_E0),))
    real_ks = KSBasisSet(q=1, d=2, bases=((E0, E1),))
    if caller == "validate":
        with pytest.raises(BasisSetError) as info:
            validate_basis_set(ks)
        assert info.value.pair == (0, 1) and "not orthogonal" in info.value.detail
        validate_basis_set(real_ks)
    elif caller == "decode":
        with pytest.raises(ValueError, match="not orthogonal"):
            decoder_decode(ks, (0, 1), E0)
        # the residual i(1, 0) against the real candidates: only the
        # Gaussian branch sees its overlap with (1, 0)
        for residual in (E0, I_E0):
            assert decoder_decode(real_ks, (0, 1), residual) == (0, 1)
    elif caller == "overlap":
        assert _gauss_dot(E0, [I_E0]) == [(0, 1)] and _gauss_dot(I_E0, [E0]) == [(0, -1)]
        assert overlap_sq(E0, I_E0) == overlap_sq(I_E0, E0) == 1
        # the decoder's squared overlaps: (1, 0) against the candidates
        # i(1, 0) and (0, 1) as against (1, 0) and (0, 1), either way round
        phase_ks = KSBasisSet(q=1, d=2, bases=((I_E0, E1),))
        for cands, residual in ((phase_ks, E0), (real_ks, I_E0), (real_ks, E0)):
            assert decoder_decode(cands, (0, 1), residual) == (0, 1)
    else:
        assert orthogonality_masks([E0, I_E0]) == [0, 0]
        assert orthogonality_masks([E0, E1]) == [0b10, 0b01]


# -- completion and measurement ----------------------------------------------


def _orthonormal_exact(vectors):
    for i, a in enumerate(vectors):
        if cf_norm_sq(a) != 1:
            return False
        for b in vectors[i + 1:]:
            if raw_dot(a, b):
                return False
    return True


def test_completion_produces_orthonormal_basis():
    b1 = from_components([1, 0, 0, 1])
    b2 = from_components([1, 1, 1, -1])
    basis = complete_orthonormal_basis([b1, b2], 4)
    assert len(basis) == 4
    assert _orthonormal_exact(basis)
    # candidate ordering does not affect orthonormality
    assert _orthonormal_exact(complete_orthonormal_basis([b2, b1], 4))


def test_completion_with_complex_seeds():
    b1 = from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    b2 = from_components([ComplexFraction(1), ComplexFraction(0, -1)])
    basis = complete_orthonormal_basis([b1, b2], 2)
    assert len(basis) == 2
    assert _orthonormal_exact(basis)


def test_completion_rejects_bad_seeds():
    v = from_components([1, 0])
    w = from_components([1, 1])
    with pytest.raises(ValueError):
        complete_orthonormal_basis([v, w], 2)  # not orthogonal


def test_measurement_probabilities_sum_to_one():
    basis = complete_orthonormal_basis([from_components([1, 1, 0, 0])], 4)
    state = from_components([1, 2, 3, -1])
    probs = measurement_probabilities(state, basis)
    assert sum(probs, Fraction(0)) == 1
    assert all(p >= 0 for p in probs)
