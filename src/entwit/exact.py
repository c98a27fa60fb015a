"""Exact complex-rational scalars and vectors.

All geometry in this package runs on exact arithmetic: a vector is stored as
Gaussian-integer numerators over one positive common denominator, together
with a rational ``scale`` s, and denotes (numerators / denominator) /
sqrt(s).  Inner products, squared norms and squared overlaps are integer
sums, so orthogonality and measurement probabilities are decided exactly,
with no tolerances; a Fraction is formed only from the final sums.  Floats
never enter.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, str]


def as_fraction(x) -> Fraction:
    """Coerce to Fraction, rejecting floats (they would poison exactness)."""
    if isinstance(x, bool):
        raise TypeError("cannot convert bool to an exact scalar")
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass int, Fraction or string")
    return Fraction(x)


class ComplexFraction:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexFraction is immutable")

    @staticmethod
    def coerce(x) -> "ComplexFraction":
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

    def conjugate(self) -> "ComplexFraction":
        return ComplexFraction(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ComplexFraction(other)
        if not isinstance(other, ComplexFraction):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __reduce__(self):
        return (ComplexFraction, (self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _numerators(entries: Sequence[ComplexFraction]) -> tuple:
    """Gaussian-integer numerators (re, im) over the least common denominator."""
    den = lcm(*(c.re.denominator for c in entries), *(c.im.denominator for c in entries))
    return (
        tuple(c.re.numerator * (den // c.re.denominator) for c in entries),
        tuple(c.im.numerator * (den // c.im.denominator) for c in entries),
        den,
    )


def _gauss_dot(a_re, a_im, b_re, b_im) -> tuple:
    """Integer (re, im) of sum(conj(a_k) * b_k) over Gaussian integers."""
    re = im = 0
    for ar, ai, br, bi in zip(a_re, a_im, b_re, b_im):
        re += ar * br + ai * bi
        im += ar * bi - ai * br
    return re, im


class Vector:
    """An exact vector ``entries / sqrt(scale)`` over Gaussian-rational entries.

    The entries are held as Gaussian-integer numerators (``_re``, ``_im``)
    over the least positive common denominator ``_den``; ``entries`` rebuilds
    them as ComplexFractions.  The object is immutable, so the integer
    squared norm of the numerators is computed once, when they are stored,
    and held in ``_nsq``.  The sqrt never has to be evaluated: every
    quantity this package consumes (orthogonality, squared overlaps, squared
    norms, measurement probabilities) is rational in the entries and the
    scale.
    """

    __slots__ = ("_re", "_im", "_den", "scale", "_nsq")

    def __init__(self, entries: Iterable, scale: RationalLike = 1):
        coerced = [ComplexFraction.coerce(e) for e in entries]
        s = as_fraction(scale)
        if s <= 0:
            raise ValueError(f"vector scale must be positive, got {s}")
        if not coerced:
            raise ValueError("vector must have at least one entry")
        self._set(*_numerators(coerced), s)

    def _set(self, re: tuple, im: tuple, den: int, scale=None) -> None:
        """Store lowest-terms numerators and hold their integer squared norm
        in ``_nsq``; with no scale, the vector is the unit vector along them."""
        nsq = sum(r * r for r in re) + sum(i * i for i in im)
        if scale is None:
            if nsq == 0:
                raise ValueError("cannot normalize the zero vector")
            scale = Fraction(nsq, den * den)
        for name, value in zip(Vector.__slots__, (re, im, den, scale, nsq)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_ints(cls, re: Sequence[int], im: Sequence[int], den: int, scale=None) -> "Vector":
        """Vector (re + i*im) / den / sqrt(scale) in lowest terms; unit if no scale."""
        g = gcd(den, *re, *im)
        v = object.__new__(cls)
        v._set(tuple(x // g for x in re), tuple(x // g for x in im), den // g, scale)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def from_components(cls, components: Sequence, denominator: RationalLike = 1) -> "Vector":
        """Unit vector in the direction of ``components / denominator``.

        The numerators come straight from the parsed fractions, and the
        scale is set to their squared norm, so the result is exactly
        normalized without evaluating any square root.
        """
        den = as_fraction(denominator)
        if den == 0:
            raise ValueError("denominator must be nonzero")
        re, im, common = _numerators([ComplexFraction.coerce(c) for c in components])
        # (x / common) / (p / q) = (x * q * sign(p)) / (common * |p|)
        mult = den.denominator if den > 0 else -den.denominator
        return cls._from_ints(
            [x * mult for x in re], [x * mult for x in im], common * abs(den.numerator)
        )

    @property
    def entries(self) -> tuple:
        den = self._den
        return tuple(
            ComplexFraction(Fraction(r, den), Fraction(i, den))
            for r, i in zip(self._re, self._im)
        )

    @property
    def dim(self) -> int:
        return len(self._re)

    def _dot(self, other: "Vector") -> tuple:
        if len(self._re) != len(other._re):
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return _gauss_dot(self._re, self._im, other._re, other._im)

    def norm_sq(self) -> Fraction:
        s = self.scale
        return Fraction(self._nsq * s.denominator, self._den ** 2 * s.numerator)

    def is_unit(self) -> bool:
        """norm_sq() == 1, decided on integers; no Fraction is built."""
        s = self.scale
        return self._nsq * s.denominator == self._den * self._den * s.numerator

    def overlap_sq_ratio(self, other: "Vector") -> tuple:
        """Squared fidelity |<self|other>|^2 between the normalized rays, as
        an integer (numerator, positive denominator) pair, not reduced.

        Denominators and scales cancel: it is |numerator dot|^2 over the
        product of the numerators' squared norms.
        """
        nsq = self._nsq * other._nsq
        if nsq == 0:
            raise ValueError("overlap with a zero vector is undefined")
        re, im = self._dot(other)
        return re * re + im * im, nsq

    def overlap_sq(self, other: "Vector") -> Fraction:
        """Squared fidelity |<self|other>|^2 as a Fraction."""
        return Fraction(*self.overlap_sq_ratio(other))

    def conjugate(self) -> "Vector":
        return Vector._from_ints(self._re, tuple(-i for i in self._im), self._den, self.scale)

    def normalized(self) -> "Vector":
        return Vector._from_ints(self._re, self._im, self._den)

    def __reduce__(self):
        return (Vector, (self.entries, self.scale))

    def __eq__(self, other) -> bool:
        # the numerators are in lowest terms, so this is equality of the
        # entries and of the scale
        if not isinstance(other, Vector):
            return NotImplemented
        return (self._re, self._im, self._den, self.scale) == (
            other._re, other._im, other._den, other.scale
        )

    def __hash__(self):
        return hash((self._re, self._im, self._den, self.scale))

    def __repr__(self) -> str:
        body = ", ".join(repr(c) for c in self.entries)
        if self.scale == 1:
            return f"Vector([{body}])"
        return f"Vector([{body}] / sqrt({self.scale}))"


DECIMAL_SIGFIGS = 12


def decimal_str(x: Fraction) -> str:
    """Deterministic decimal rendering of an exact fraction to DECIMAL_SIGFIGS
    significant figures (trimmed zeros)."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = DECIMAL_SIGFIGS
        dec = Decimal(x.numerator) / Decimal(x.denominator)
    text = format(dec, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def fraction_str(x: Fraction, with_decimal: bool = False) -> str:
    """'p/q' in lowest terms, or 'p' for an integer; ``with_decimal`` appends
    ' (decimal)' as rendered by decimal_str."""
    body = f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return f"{body} ({decimal_str(x)})" if with_decimal else body


def is_orthogonal(v: Vector, w: Vector) -> bool:
    """True iff <v|w> = 0, decided exactly on the integer numerators."""
    return v._dot(w) == (0, 0)


def measure_first_subsystem(state: Vector, basis: Sequence[Vector]) -> list:
    """Project subsystem 1 of a bipartite pure state onto a local basis.

    ``state`` lives on C^a x C^b (entries indexed i1*b + i2) and ``basis``
    is an orthonormal basis of C^a.  Returns a list of
    (outcome_index, probability, residual_on_subsystem_2) with residuals
    normalized; zero-probability branches are dropped.
    """
    a = len(basis)
    if a == 0 or any(u.dim != a for u in basis):
        raise ValueError("basis must be a full orthonormal basis of subsystem 1")
    if state.dim % a != 0:
        raise ValueError("state dimension is not a multiple of the basis dimension")
    b = state.dim // a
    s_re, s_im = state._re, state._im
    branches = []
    for j, u in enumerate(basis):
        # residual entry i2 is sum over i1 of conj(u_i1) * state_(i1*b + i2)
        res_re, res_im = zip(
            *(_gauss_dot(u._re, u._im, s_re[i2::b], s_im[i2::b]) for i2 in range(b))
        )
        # the residual is (res / den) / sqrt(u.scale * state.scale); its squared
        # norm is the branch probability, and only its direction is kept
        nsq = sum(r * r for r in res_re) + sum(i * i for i in res_im)
        if nsq == 0:
            continue
        den = u._den * state._den
        scale = u.scale * state.scale
        prob = Fraction(nsq * scale.denominator, den * den * scale.numerator)
        branches.append((j, prob, Vector._from_ints(res_re, res_im, den)))
    return branches
