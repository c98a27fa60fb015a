"""Exact scalar/vector layer: arithmetic, normalization, completion, measurement."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit.exact import (
    ComplexFraction,
    Vector,
    as_fraction,
    decimal_str,
    is_orthogonal,
    measure_first_subsystem,
)
from helpers import (
    abs_sq,
    cf_dot,
    cf_measure_first_subsystem,
    cf_norm_sq,
    cf_normalized,
    cf_overlap_sq,
    complete_orthonormal_basis,
    is_zero,
    measurement_probabilities,
    raw_dot,
    same_ray,
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


# -- vectors ----------------------------------------------------------------


def test_from_components_is_exactly_normalized():
    v = Vector.from_components([1, 1, 0, 0])
    assert v.norm_sq() == 1
    assert v.scale == 2
    w = Vector.from_components([1, -1, 1, -1])
    assert w.norm_sq() == 1
    assert raw_dot(v, w) == ComplexFraction(0)


def test_literal_keeps_raw_norm():
    v = Vector([2, 0, 0, 0])
    assert v.norm_sq() == 4
    assert v.normalized().norm_sq() == 1


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        Vector.from_components([0, 0, 0])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        raw_dot(Vector([1, 0]), Vector([1, 0, 0]))
    with pytest.raises(ValueError):
        is_orthogonal(Vector([1, 0]), Vector([1, 0, 0]))


def test_overlap_and_same_ray_mod_phase():
    v = Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    # i * v is the same ray even though the entries differ
    w = Vector.from_components([ComplexFraction(0, 1), ComplexFraction(-1)])
    assert v.overlap_sq(w) == 1
    assert same_ray(v, w)
    assert not same_ray(v, v.conjugate())


def test_conjugate_preserves_overlap_magnitude():
    v = Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    w = Vector.from_components([ComplexFraction(1), ComplexFraction(1, 1)])
    assert v.conjugate().overlap_sq(w.conjugate()) == v.overlap_sq(w)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_cf, min_size=3, max_size=3), st.lists(small_cf, min_size=3, max_size=3))
def test_raw_dot_conjugate_symmetry(xs, ys):
    if not any(xs) or not any(ys):
        return
    v, w = Vector(xs), Vector(ys)
    assert raw_dot(v, w) == raw_dot(w, v).conjugate()


def _random_gaussian_rational(rng):
    """An entry with mixed denominators; zero about one time in six."""
    if rng.randrange(6) == 0:
        return ComplexFraction(0)
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return ComplexFraction(re, im)


def _random_vector(rng, dim):
    entries = [_random_gaussian_rational(rng) for _ in range(dim)]
    scale = Fraction(rng.randint(1, 20), rng.randint(1, 20))
    return Vector(entries, scale=scale)


def test_integer_kernel_matches_complex_fraction_sums():
    # the kernel works on Gaussian-integer numerators; every quantity must
    # equal the plain ComplexFraction sums over the denoted entries
    rng = random.Random(20131)
    seen = {"dims": set(), "mixed_den": 0, "imag": 0, "non_unit_scale": 0,
            "dropped_branch": 0}
    for _ in range(300):
        dim = rng.randint(2, 5)
        v, w = _random_vector(rng, dim), _random_vector(rng, dim)
        seen["dims"].add(dim)
        dens = {c.re.denominator for c in v.entries} | {c.im.denominator for c in v.entries}
        seen["mixed_den"] += len(dens) > 1
        seen["imag"] += any(c.im for c in v.entries)
        seen["non_unit_scale"] += v.scale != 1
        assert raw_dot(v, w) == cf_dot(v, w)
        assert v.norm_sq() == cf_norm_sq(v)
        assert v.is_unit() == (v.norm_sq() == 1)
        assert _held_norm_is_fresh(v)
        assert is_orthogonal(v, w) == (not cf_dot(v, w))
        if is_zero(v) or is_zero(w):
            with pytest.raises(ValueError):
                v.overlap_sq(w)
            continue
        assert v.overlap_sq(w) == cf_overlap_sq(v, w)
        n = v.normalized()
        assert (n.entries, n.scale) == cf_normalized(v)
        assert n.is_unit() and n.norm_sq() == 1
        assert n == Vector(*cf_normalized(v))
        # measurement of a state on C^a x C^b along a random local basis
        a, b = dim, rng.randint(1, 3)
        state = _random_vector(rng, a * b)
        basis = [_random_vector(rng, a) for _ in range(a)]
        if rng.randrange(4) == 0:
            basis[rng.randrange(a)] = Vector([0] * a)  # a zero-probability branch
        if is_zero(state):
            continue
        got = [(j, p, r.entries, r.scale) for j, p, r in measure_first_subsystem(state, basis)]
        expected = cf_measure_first_subsystem(state, basis)
        assert got == expected
        seen["dropped_branch"] += len(expected) < a
    assert seen["dims"] == {2, 3, 4, 5}
    assert min(seen["mixed_den"], seen["imag"], seen["non_unit_scale"],
               seen["dropped_branch"]) > 20


def _held_norm_is_fresh(v):
    """The norm held since construction equals the numerators' sum, recomputed."""
    return v._nsq == sum(r * r for r in v._re) + sum(i * i for i in v._im)


def test_held_norm_is_fresh_on_every_construction_path():
    v = Vector([Fraction(2, 4), ComplexFraction(Fraction(1, 3), -2), ComplexFraction(0, 5)], scale=3)
    w = Vector._from_ints((6, 0, -3), (3, 9, 0), 12, Fraction(2, 7))  # reduced by 3
    made = {
        "init": v,
        "from_ints": w,
        "conjugate": v.conjugate(),
        "conjugate_from_ints": w.conjugate(),
        "normalized": v.normalized(),
        "pickle": pickle.loads(pickle.dumps(w)),
    }
    parts = [ComplexFraction(1, 2), ComplexFraction("1/3", -1), 3]
    for den in (1, -3, "3/2", "-3/2"):
        # the direct numerators must equal dividing the entries and normalizing
        made[f"from_components/{den}"] = got = Vector.from_components(parts, denominator=den)
        divided = [ComplexFraction(c.re / Fraction(den), c.im / Fraction(den))
                   for c in map(ComplexFraction.coerce, parts)]
        assert got == Vector(divided).normalized()
        assert got.is_unit()
    for path, u in made.items():
        assert _held_norm_is_fresh(u), path
        assert u.norm_sq() == cf_norm_sq(u), path
    assert w == Vector(w.entries, w.scale) and w._den == 4
    # a negative denominator flips the direction; it is not the same vector
    assert Vector.from_components(parts, -1) == Vector.from_components(
        [-ComplexFraction.coerce(c) for c in parts]
    ) != Vector.from_components(parts)


def test_vector_stores_entries_in_lowest_terms():
    v = Vector([Fraction(2, 4), ComplexFraction(Fraction(1, 3), -2), 0], scale=3)
    assert v.entries == (
        ComplexFraction(Fraction(1, 2)),
        ComplexFraction(Fraction(1, 3), -2),
        ComplexFraction(0),
    )
    # equal entries and scale however they were written
    same = Vector([Fraction(1, 2), ComplexFraction("2/6", "-4/2"), 0], scale="6/2")
    assert v == same and hash(v) == hash(same)
    assert v != Vector(v.entries, scale=2)
    assert v.conjugate().conjugate() == v


# -- completion and measurement ----------------------------------------------


def _orthonormal_exact(vectors):
    for i, a in enumerate(vectors):
        if a.norm_sq() != 1:
            return False
        for b in vectors[i + 1:]:
            if raw_dot(a, b):
                return False
    return True


def test_completion_produces_orthonormal_basis():
    b1 = Vector.from_components([1, 0, 0, 1])
    b2 = Vector.from_components([1, 1, 1, -1])
    basis = complete_orthonormal_basis([b1, b2], 4)
    assert len(basis) == 4
    assert _orthonormal_exact(basis)
    # candidate ordering does not affect orthonormality
    assert _orthonormal_exact(complete_orthonormal_basis([b2, b1], 4))


def test_completion_with_complex_seeds():
    b1 = Vector.from_components([ComplexFraction(1), ComplexFraction(0, 1)])
    b2 = Vector.from_components([ComplexFraction(1), ComplexFraction(0, -1)])
    basis = complete_orthonormal_basis([b1, b2], 2)
    assert len(basis) == 2
    assert _orthonormal_exact(basis)


def test_completion_rejects_bad_seeds():
    v = Vector.from_components([1, 0])
    w = Vector.from_components([1, 1])
    with pytest.raises(ValueError):
        complete_orthonormal_basis([v, w], 2)  # not orthogonal
    with pytest.raises(ValueError):
        complete_orthonormal_basis([Vector([2, 0])], 2)  # not unit


def test_measurement_probabilities_sum_to_one():
    basis = complete_orthonormal_basis([Vector.from_components([1, 1, 0, 0])], 4)
    state = Vector.from_components([1, 2, 3, -1])
    probs = measurement_probabilities(state, basis)
    assert sum(probs, Fraction(0)) == 1
    assert all(p >= 0 for p in probs)


def test_measure_first_subsystem_of_entangled_pair():
    # (|00> + |11>) / sqrt(2), measured along {(|0>+|1>)/sqrt2, (|0>-|1>)/sqrt2}
    state = Vector([1, 0, 0, 1], scale=2)
    plus = Vector.from_components([1, 1])
    minus = Vector.from_components([1, -1])
    branches = measure_first_subsystem(state, [plus, minus])
    assert [b[1] for b in branches] == [Fraction(1, 2), Fraction(1, 2)]
    # residuals are the conjugates (= themselves here, real data)
    assert same_ray(branches[0][2], plus)
    assert same_ray(branches[1][2], minus)
