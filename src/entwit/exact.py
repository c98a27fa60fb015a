"""Exact unit vectors over Gaussian integers, and exact number formatting.

All geometry in this package runs on exact arithmetic: the one vector type
holds Gaussian-integer numerators and denotes the unit vector along them,
numerators / sqrt(their squared norm).  Inner products, squared norms and
squared overlaps are integer sums, so orthogonality and overlaps are decided
exactly, with no tolerances; a Fraction is formed only from the final sums.
Floats never enter.

Whether a vector is real and its integer squared norm are decided in its one
constructor and held; only this module and ``entangled.decoder_decode`` read
the ``real`` flags.  Both sum a real pair's integer products directly and
send any other through the Gaussian-integer kernel ``_gauss_dot``.
``orthogonality_masks`` decides all of a basis set's pairs in whole-set
integer passes, once per ``KSBasisSet``.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from operator import lshift, mul, neg
from typing import Sequence


def as_fraction(x) -> Fraction:
    """Coerce to Fraction, rejecting floats (they would poison exactness)."""
    if isinstance(x, bool):
        raise TypeError("cannot convert bool to an exact scalar")
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass int, Fraction or string")
    return Fraction(x)


def _gauss_dot(a, rows) -> list:
    """Integer (re, im) of sum(conj(a_k) * b_k) over Gaussian integers, for
    ``a`` against each b of ``rows``, in order; of each, only ``.re``,
    ``.im`` and ``.real`` are read.

    A pair whose two ``real`` flags are both true takes the real sum, so a
    flag may be true only when that vector's imaginary parts are all zero;
    the held flags are exact, and the kernel does not check them.
    """
    a_re, a_im, a_real = a.re, a.im, a.real
    dim = len(a_re)
    dots = []
    for b in rows:
        b_re = b.re
        if len(b_re) != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {len(b_re)}")
        if a_real and b.real:
            dots.append((sum(map(mul, a_re, b_re)), 0))
            continue
        re = im = 0
        for ar, ai, br, bi in zip(a_re, a_im, b_re, b.im):
            re += ar * br + ai * bi
            im += ar * bi - ai * br
        dots.append((re, im))
    return dots


def orthogonality_masks(vectors: Sequence["Vector"]) -> list:
    """Per vector, the bitmask of the others orthogonal to it.  Entry k of
    every vector is packed into one integer, a signed field per vector, so a
    vector's entries times these columns hold its dot product with every
    vector, one per field, offset so none borrows from the next.  A complex
    set takes <a|b> as two real dots, (a.re, a.im) with (b.re, b.im) and with
    (b.im, -b.re); a pair is orthogonal when both are 0."""
    n = len(vectors)
    if not n:
        return []
    rights = [[v.re for v in vectors]]
    dim = len(rights[0][0])
    for row in rights[0]:  # refused as the kernel does, before a sum over zip cuts it
        if len(row) != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {len(row)}")
    if not all(v.real for v in vectors):
        rights = [[v.re + v.im for v in vectors], [v.im + tuple(map(neg, v.re)) for v in vectors]]
    left = rights[0]
    # |dot| is at most the largest squared norm, so below 2^(width - 2)
    width = max([sum(map(mul, row, row)) for row in left]).bit_length() + 2
    bits = n * width
    ones = ((1 << bits) - 1) // ((1 << width) - 1)
    # a field holds dot + half; xor half, then add fill: its top bit is set iff
    # dot != 0, and fill's leading 1 fixes the text's length
    half, fill = (1 << width - 2) * ones, ((1 << width - 1) - 1) * ones + (1 << bits)
    nonzero = [0] * n
    for right in rights:
        cols = [sum(map(lshift, col, range(0, bits, width))) for col in zip(*right)]
        for a, row in enumerate(left):
            nonzero[a] |= int(bin((sum(map(mul, row, cols)) + half ^ half) + fill)[3::width], 2)
    full = (1 << n) - 1
    return [full ^ (nz | 1 << a) for a, nz in enumerate(nonzero)]


class Vector:
    """The unit vector ``(re + i*im) / sqrt(nsq)``.

    ``re`` and ``im`` are Gaussian-integer numerators, kept as given, and
    ``nsq`` is their integer squared norm, so the vector is the unit vector
    along them.  The object is immutable and this is its one constructor, so
    what it decides about the numerators cannot go stale: ``nsq``, and every
    imaginary numerator being zero in ``real``.  The sqrt never has to be
    evaluated: every quantity this package consumes (orthogonality, squared
    overlaps, measurement probabilities) is rational in the numerators.
    """

    __slots__ = ("re", "im", "nsq", "real")

    def __init__(self, re: Sequence[int], im: Sequence[int]):
        if not re or len(re) != len(im):
            raise ValueError(
                f"vector needs matching nonempty parts, got {len(re)} and {len(im)}"
            )
        re, im = tuple(re), tuple(im)
        real = not any(im)
        nsq = sum(map(mul, re, re))
        if not real:
            nsq += sum(map(mul, im, im))
        if nsq == 0:
            raise ValueError("cannot normalize the zero vector")
        # immutable: the slots are set here only, through their descriptors
        _set_re(self, re)
        _set_im(self, im)
        _set_nsq(self, nsq)
        _set_real(self, real)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __delattr__(self, name):
        raise AttributeError("Vector is immutable")

    @property
    def dim(self) -> int:
        return len(self.re)

    def __eq__(self, other) -> bool:
        # equal numerators; numerators that differ by a positive factor denote
        # the same unit vector but are not reduced to compare equal
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Vector({self.re}, {self.im})"


# the slot setters the constructor writes through, bound once
_set_re, _set_im, _set_nsq, _set_real = (
    Vector.__dict__[name].__set__ for name in Vector.__slots__
)


DECIMAL_SIGFIGS = 12
# held, so the caller's decimal context (its rounding, its traps) cannot
# change or stop a report
_DECIMAL_CONTEXT = Context(prec=DECIMAL_SIGFIGS, rounding=ROUND_HALF_EVEN)


def decimal_str(x: Fraction) -> str:
    """Deterministic decimal rendering of an exact fraction to DECIMAL_SIGFIGS
    significant figures (trimmed zeros)."""
    dec = _DECIMAL_CONTEXT.divide(Decimal(x.numerator), Decimal(x.denominator))
    text = format(dec, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def fraction_str(x: Fraction, with_decimal: bool = False) -> str:
    """'p/q' in lowest terms, or 'p' for an integer; ``with_decimal`` appends
    ' (decimal)' as rendered by decimal_str."""
    body = f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return f"{body} ({decimal_str(x)})" if with_decimal else body
