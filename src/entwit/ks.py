"""Bundles of orthonormal bases with the one-per-basis orthogonality property.

A basis set here is q orthonormal bases of C^d.  The property that drives the
whole channel construction: every traversal that picks one vector from each
basis contains at least one orthogonal pair.  ``verify_ks_property`` decides
this for all d^q minimal traversals (any superset of a traversal inherits
the property, so minimal traversals suffice).  The ``KSBasisSet``
constructor decides every pair's orthogonality in whole-set integer passes
and finds the first orthogonality violation within a basis, once; every
``Vector`` is a unit vector, so that is the only way a basis can fail.
Validation, the traversal walk, the channel build and the decoder read those
held answers and compute no basis-pair inner product.

The bundled instance is the classic set of 24 real rays in C^4 (components in
{0, +-1}) partitioned into six orthonormal bases; it ships as data under
``entwit/data`` and is re-verified by the test suite, never trusted.
"""

from __future__ import annotations

import json
from importlib import resources
from math import lcm
from typing import NamedTuple, Optional

from .exact import Vector, as_fraction, orthogonality_masks

BUNDLED_SET_RESOURCE = "ks_6_4_peres.json"
# resolved once; the file is still read and parsed on every load
_BUNDLED_SET = resources.files("entwit.data").joinpath(BUNDLED_SET_RESOURCE)


class KSBasisSet:
    """q orthonormal bases of C^d, given as ``bases``: q lists of d vectors.
    ``vectors[u]`` is vector j of basis m for u = m*d + j, bit b of
    ``masks[u]`` is set iff vector u is orthogonal to vector b, and
    ``violation`` is what ``validate_basis_set`` raises."""

    __slots__ = ("q", "d", "label", "vectors", "masks", "violation")

    def __init__(self, *, q: int, d: int, bases: tuple, label: str = ""):
        if q < 1:
            raise ValueError("need at least one basis")
        if d < 2:
            raise ValueError("ambient dimension must be at least 2")
        bases = tuple(map(tuple, bases))
        if len(bases) != q:
            raise ValueError("basis count does not match q")
        for basis in bases:
            if len(basis) != d:
                raise ValueError("each basis must contain exactly d vectors")
            for v in basis:
                if v.dim != d:
                    raise ValueError("vector dimension does not match d")
        # every report prints the label as one line
        if not isinstance(label, str) or "".join(label.splitlines()) != label:
            raise ValueError(f"label must be a one-line string, got {label!r}")
        put = object.__setattr__  # immutable: attributes are set here only
        put(self, "q", q)
        put(self, "d", d)
        put(self, "label", label)
        put(self, "vectors", vectors := tuple(v for b in bases for v in b))
        put(self, "masks", masks := tuple(orthogonality_masks(vectors)))
        put(self, "violation", _first_violation(d, masks))

    def __setattr__(self, name, value):
        raise AttributeError("KSBasisSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("KSBasisSet is immutable")


class BasisSetError(ValueError):
    """The first orthonormality violation of a basis set, in basis order."""

    def __init__(self, m: int, pair: tuple, detail: str):
        super().__init__(f"basis set fails validation: basis {m}, {detail}")
        self.m = m
        self.pair = pair  # (j, j') with j < j', the first pair not orthogonal
        self.detail = detail


class KSCheckResult(NamedTuple):
    holds: bool
    traversals_checked: int
    witness: Optional[tuple]  # traversal (m, j) pairs with no orthogonal pair


def _first_violation(d: int, masks: tuple) -> Optional[tuple]:
    """(m, pair, detail) of the first non-orthogonal pair of a basis, taking
    bases, then vectors, then partners in order, or None; every vector is a
    unit vector, so orthogonality within each basis is orthonormality."""
    for a, mask in enumerate(masks):
        m, j = divmod(a, d)
        # partners j + 1 .. d - 1 of this basis that are not orthogonal
        missing = ~mask >> a + 1 & (1 << d - j - 1) - 1
        if missing:
            j2 = j + (missing & -missing).bit_length()
            return m, (j, j2), f"vectors {j} and {j2} are not orthogonal"
    return None


def validate_basis_set(ks: KSBasisSet) -> None:
    """Check that every basis is orthonormal; raise ``BasisSetError`` at the
    first violation, as the set's constructor found and held it."""
    if ks.violation is not None:
        raise BasisSetError(*ks.violation)


def verify_ks_property(ks: KSBasisSet) -> KSCheckResult:
    """Decide whether every one-per-basis traversal holds an orthogonal pair.

    Walks the d^q traversals depth first, in ``itertools.product`` order and one
    loop; a prefix that already holds an orthogonal pair is not extended, and its
    d^(q - len) completions are counted at once.  So ``traversals_checked`` is
    what a flat scan in that order counts: d^q when the property holds, else the
    position of the first traversal with no orthogonal pair, which is the
    witness.  Requires the set to validate first (orthogonality is only
    meaningful between unit vectors); a violation raises ``BasisSetError``.
    """
    validate_basis_set(ks)
    q, d, masks = ks.q, ks.d, ks.masks
    # per basis, (j, mask, bit) of each vector; per depth, a prefix's completions
    levels = [[(j, masks[m * d + j], 1 << m * d + j) for j in range(d)] for m in range(q)]
    weight = [d ** (q - m - 1) for m in range(q)]
    checked = 0
    # per basis above the current one: its vectors left, the bits before it, its choice
    rests, chosens, path = [None] * q, [0] * q, [0] * q
    m, chosen, rest = 0, 0, iter(levels[0])
    while True:
        for j, mask, bit in rest:
            if mask & chosen:
                checked += weight[m]
            elif m + 1 == q:
                path[m] = j
                return KSCheckResult(False, checked + 1, tuple(enumerate(path)))
            else:
                rests[m], chosens[m], path[m] = rest, chosen, j
                m, chosen, rest = m + 1, chosen | bit, iter(levels[m + 1])
                break
        else:
            if not m:
                return KSCheckResult(True, checked, None)
            m -= 1
            rest, chosen = rests[m], chosens[m]


# -- file format ---------------------------------------------------------
#
# JSON with fields:
#   format: "ks-basis-set/1"
#   label:  free-form provenance string, on one line
#   q, d:   counts, as JSON integers
#   denominator: optional rational (int or "p/q") dividing every entry
#   bases:  q arrays of d vectors; a vector is d entries [re, im] with
#           int or "p/q" rational parts
# Vectors are stored as unnormalized directions, and each becomes the unit
# vector along its entries.  Every part is read as an int, or a Fraction when
# it is not one; all parts are brought to the common denominator of the
# Fractions, and the Gaussian-integer numerators become each vector directly.  A
# positive factor leaves a unit vector as it is, so of the denominator field
# only its sign, which flips every vector, is folded in.

FORMAT_TAG = "ks-basis-set/1"


def _part(x):
    """A part as an int when it is whole, else as a Fraction; floats and
    bools are refused, as ``as_fraction`` refuses them."""
    try:
        f = as_fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    return f.numerator if f.denominator == 1 else f


def basis_set_from_json_dict(data: dict) -> KSBasisSet:
    tag = data.get("format") if isinstance(data, dict) else None
    if tag != FORMAT_TAG:
        raise ValueError(f"unrecognized basis-set format: {tag!r}")
    q, d = data["q"], data["d"]
    if type(q) is not int or type(d) is not int:  # refuses floats, strings, bools
        raise ValueError(f"q and d must be integers, got {q!r} and {d!r}")
    field = _part(data.get("denominator", 1))
    if field == 0:
        raise ValueError("denominator must be nonzero")
    # per vector, its re and im parts; only a vector with a part that is not
    # an int has its parts read by ``_part``, and their denominators kept
    parts, denominators = [], set()
    for basis in data["bases"]:
        row = []
        for vec in basis:
            # zip would take a string's characters as parts and cut a longer
            # entry to the shortest
            for entry in vec:
                if type(entry) is not list or len(entry) != 2:
                    raise ValueError(f"entry {entry!r} is not a [re, im] pair")
            re, im = zip(*vec) if vec else ((), ())
            for x in re + im:
                if type(x) is not int:
                    re, im = tuple(map(_part, re)), tuple(map(_part, im))
                    denominators.update(p.denominator for p in re + im)
                    break
            row.append((re, im))
        parts.append(row)
    # x / field is x * common * sign(field) over a positive factor
    common = lcm(*denominators)
    mult = common if field > 0 else -common
    if mult != 1:  # else every part is an int already
        parts = [
            [[[(x * mult).numerator for x in xs] for xs in vec] for vec in basis]
            for basis in parts
        ]
    bases = [[Vector(re, im) for re, im in basis] for basis in parts]
    return KSBasisSet(q=q, d=d, bases=bases, label=data.get("label", ""))


def load_basis_set(path) -> KSBasisSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return basis_set_from_json_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"malformed basis set {path}: missing field {exc}") from exc
        # not JSON or nested past the parser's recursion limit, a float, a wrong shape
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed basis set {path}: {exc}") from exc


def bundled_basis_set() -> KSBasisSet:
    """The packaged (q, d) = (6, 4) set of 24 real rays in six bases."""
    return basis_set_from_json_dict(json.loads(_BUNDLED_SET.read_bytes()))
