"""Bundles of orthonormal bases with the one-per-basis orthogonality property.

A basis set here is q orthonormal bases of C^d.  The property that drives the
whole channel construction: every traversal that picks one vector from each
basis contains at least one orthogonal pair.  ``verify_ks_property`` decides
this for all d^q minimal traversals (any superset of a traversal inherits
the property, so minimal traversals suffice) by a depth-first walk that
settles every completion of a prefix holding an orthogonal pair at once.

The bundled instance is the classic set of 24 real rays in C^4 (components in
{0, +-1}) partitioned into six orthonormal bases; it ships as data under
``entwit/data`` and is re-verified by the test suite, never trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .exact import ComplexFraction, Vector, as_fraction, is_orthogonal

BUNDLED_SET_RESOURCE = "ks_6_4_peres.json"


@dataclass(frozen=True)
class KSBasisSet:
    """q orthonormal bases of C^d; ``bases[m][j]`` is vector j of basis m."""

    q: int
    d: int
    bases: tuple
    label: str = ""

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one basis")
        if self.d < 2:
            raise ValueError("ambient dimension must be at least 2")
        if len(self.bases) != self.q:
            raise ValueError("basis count does not match q")
        for basis in self.bases:
            if len(basis) != self.d:
                raise ValueError("each basis must contain exactly d vectors")
            for v in basis:
                if v.dim != self.d:
                    raise ValueError("vector dimension does not match d")

    def vector(self, m: int, j: int) -> Vector:
        return self.bases[m][j]

    def all_vectors(self) -> list:
        return [v for basis in self.bases for v in basis]


@dataclass(frozen=True)
class BasisIssue:
    """First orthonormality violation found in one basis."""

    m: int
    pair: tuple  # (j, j'); j == j' flags a norm violation
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    issues: tuple  # BasisIssue per failing basis, first violation only


@dataclass(frozen=True)
class KSCheckResult:
    holds: bool
    traversals_checked: int
    witness: Optional[tuple]  # traversal (m, j) pairs with no orthogonal pair
    # orthogonality bitmask per vector id m*d + j: bit b set iff orthogonal to b
    masks: tuple = field(default=(), repr=False, compare=False)


def validate_basis_set(ks: KSBasisSet) -> ValidationReport:
    """Check that every basis is orthonormal; report first violation per basis."""
    issues = []
    for m, basis in enumerate(ks.bases):
        issue = None
        for j, v in enumerate(basis):
            if not v.is_unit():
                issue = BasisIssue(m, (j, j), f"vector {j} has squared norm {v.norm_sq()}")
                break
            for j2 in range(j + 1, len(basis)):
                if not is_orthogonal(v, basis[j2]):
                    issue = BasisIssue(
                        m, (j, j2), f"vectors {j} and {j2} are not orthogonal"
                    )
                    break
            if issue:
                break
        if issue:
            issues.append(issue)
    return ValidationReport(passed=not issues, issues=tuple(issues))


def verify_ks_property(ks: KSBasisSet) -> KSCheckResult:
    """Decide whether every one-per-basis traversal holds an orthogonal pair.

    Walks the d^q traversals depth first in ``itertools.product`` order; a
    prefix that already holds an orthogonal pair is not extended, and its
    d^(q - len) completions are counted at once.  So ``traversals_checked``
    is what a flat scan in that order counts: d^q when the property holds,
    else the position of the first traversal with no orthogonal pair, which
    is the witness.  The result carries the orthogonality bitmasks.  Requires
    the set to validate first (orthogonality is only meaningful between unit
    vectors).
    """
    report = validate_basis_set(ks)
    if not report.passed:
        raise ValueError(f"basis set fails validation: {report.issues[0].detail}")
    q, d = ks.q, ks.d
    flat = ks.all_vectors()
    n = q * d
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if is_orthogonal(flat[a], flat[b]):
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    masks = tuple(masks)
    checked = 0

    def walk(m: int, chosen: int, prefix: tuple) -> Optional[tuple]:
        nonlocal checked
        for j in range(d):
            vid = m * d + j
            if masks[vid] & chosen:
                checked += d ** (q - m - 1)
            elif m + 1 == q:
                checked += 1
                return prefix + ((m, j),)
            elif found := walk(m + 1, chosen | 1 << vid, prefix + ((m, j),)):
                return found
        return None

    witness = walk(0, 0, ())
    return KSCheckResult(witness is None, checked, witness, masks)


def conjugate_basis(basis: Sequence[Vector]) -> tuple:
    """Entrywise complex conjugate of each vector; orthonormality is preserved."""
    return tuple(v.conjugate() for v in basis)


# -- file format ---------------------------------------------------------
#
# JSON with fields:
#   format: "ks-basis-set/1"
#   label:  free-form provenance string
#   q, d:   counts
#   denominator: optional rational (int or "p/q") dividing every entry
#   bases:  q arrays of d vectors; a vector is d entries [re, im] with
#           int or "p/q" rational parts
# Vectors are stored as unnormalized directions; the loader normalizes each
# one exactly (components divided by their own norm).

FORMAT_TAG = "ks-basis-set/1"


def basis_set_from_json_dict(data: dict) -> KSBasisSet:
    tag = data.get("format") if isinstance(data, dict) else None
    if tag != FORMAT_TAG:
        raise ValueError(f"unrecognized basis-set format: {tag!r}")
    q = int(data["q"])
    d = int(data["d"])
    den = as_fraction(data.get("denominator", 1))
    bases = []
    for raw_basis in data["bases"]:
        vectors = []
        for raw_vec in raw_basis:
            comps = [ComplexFraction(as_fraction(re), as_fraction(im)) for re, im in raw_vec]
            vectors.append(Vector.from_components(comps, denominator=den))
        bases.append(tuple(vectors))
    return KSBasisSet(q=q, d=d, bases=tuple(bases), label=data.get("label", ""))


def load_basis_set(path) -> KSBasisSet:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return basis_set_from_json_dict(data)
    except TypeError as exc:  # a float entry, or a field of the wrong shape
        raise ValueError(f"malformed basis set {path}: {exc}") from exc


def bundled_basis_set() -> KSBasisSet:
    """The packaged (q, d) = (6, 4) set of 24 real rays in six bases."""
    text = resources.files("entwit.data").joinpath(BUNDLED_SET_RESOURCE).read_text()
    return basis_set_from_json_dict(json.loads(text))
