"""Finite noisy channels built from basis-set orthogonality, and their codes.

The core construction: channel inputs are the basis/vector index pairs (m, j),
outputs are unordered pairs of such inputs, and input (m, j) maps uniformly
onto the pairs {(m, j), (m', j')} whose vectors are orthogonal.  Everything
downstream (confusability graph, independence number, zero-error codes, the
integer encoder that scales messages by t) is exact: probabilities are
Fractions, graph facts come from exhaustive or branch-and-bound search, and
zero-error verdicts enumerate every positive-probability branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ks import KSBasisSet, validate_basis_set, verify_ks_property


class ChannelInput(NamedTuple):
    """Input symbol (m, j): vector j of basis m."""

    m: int
    j: int


# An output is an unordered pair of distinct inputs, stored lexicographically.
ChannelOutput = Tuple[ChannelInput, ChannelInput]


def output_pair(a: ChannelInput, b: ChannelInput) -> ChannelOutput:
    a, b = ChannelInput(*a), ChannelInput(*b)
    if a == b:
        raise ValueError(f"output pair must contain two distinct inputs, got {a} twice")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class FiniteChannel:
    """Conditional distribution N(o | i) with exact rational probabilities.

    Each row is uniform over its positive-output set, every positive output
    contains its own input, and rows sum to exactly 1.
    """

    inputs: tuple
    rows: dict  # ChannelInput -> {ChannelOutput: Fraction}

    @classmethod
    def from_neighbor_sets(cls, neighbors: dict) -> "FiniteChannel":
        """Uniform channel i -> {i, i'} over the given neighbor sets."""
        rows = {}
        for i, nbrs in neighbors.items():
            i = ChannelInput(*i)
            nbrs = [ChannelInput(*n) for n in nbrs]
            if not nbrs:
                raise ValueError(f"input {i} has an empty neighbor set")
            p = Fraction(1, len(nbrs))
            rows[i] = {output_pair(i, n): p for n in nbrs}
            if len(rows[i]) != len(nbrs):
                raise ValueError(f"duplicate neighbors for input {i}")
        ch = cls(inputs=tuple(sorted(rows)), rows=rows)
        ch.validate()
        return ch

    def validate(self) -> None:
        for i in self.inputs:
            row = self.rows[i]
            if not row:
                raise ValueError(f"input {i} has no outputs")
            total = sum(row.values(), Fraction(0))
            if total != 1:
                raise ValueError(f"row for {i} sums to {total}, not 1")
            uniform = Fraction(1, len(row))
            for o, p in row.items():
                if i not in o:
                    raise ValueError(f"positive output {o} does not contain input {i}")
                if p != uniform:
                    raise ValueError(f"row for {i} is not uniform over its support")

    @property
    def outputs(self) -> tuple:
        seen = set()
        for row in self.rows.values():
            seen.update(row)
        return tuple(sorted(seen))

    def output_distribution(self, i: ChannelInput) -> MappingProxyType:
        """Read-only view of row i; nothing is copied."""
        return MappingProxyType(self.rows[ChannelInput(*i)])

    def degree_profile(self) -> dict:
        profile: Dict[int, int] = {}
        for i in self.inputs:
            deg = len(self.rows[i])
            profile[deg] = profile.get(deg, 0) + 1
        return profile


def build_ks_channel(ks: KSBasisSet) -> FiniteChannel:
    """Channel whose input (m, j) maps uniformly onto its orthogonal pairs.

    Requires the basis set to validate and to have the one-per-basis
    orthogonality property; an input with no orthogonal partner anywhere in
    the set would have an empty row, which is rejected as degenerate.
    """
    report = validate_basis_set(ks)
    if not report.passed:
        raise ValueError(f"basis set fails validation: {report.issues[0].detail}")
    check = verify_ks_property(ks)
    if not check.holds:
        raise ValueError(
            f"basis set lacks the one-per-basis orthogonality property; "
            f"witness traversal {check.witness}"
        )
    # the traversal check's orthogonality bitmasks, indexed by id m*d + j
    ids = [ChannelInput(m, j) for m in range(ks.q) for j in range(ks.d)]
    neighbors = {
        i: [ids[b] for b in range(len(ids)) if mask >> b & 1]
        for i, mask in zip(ids, check.masks)
    }
    for i, nbrs in neighbors.items():
        if not nbrs:
            raise ValueError(f"degenerate set: input {i} has no orthogonal partner")
    return FiniteChannel.from_neighbor_sets(neighbors)


# -- confusability -------------------------------------------------------


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Simple undirected graph on channel inputs; edges join confusable pairs."""

    vertices: tuple
    edges: frozenset  # canonical (lo, hi) vertex pairs

    def __post_init__(self):
        vset = set(self.vertices)
        for a, b in self.edges:
            if a == b:
                raise ValueError("self loops are not allowed")
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a}, {b}) uses an unknown vertex")
            if not a < b:
                raise ValueError(f"edge ({a}, {b}) is not canonically ordered")


def confusability_graph(ch: FiniteChannel) -> ConfusabilityGraph:
    """Edge (i, i') iff some output has positive probability under both inputs."""
    by_output: Dict[ChannelOutput, List[ChannelInput]] = {}
    for i in ch.inputs:
        for o in ch.rows[i]:
            by_output.setdefault(o, []).append(i)
    edges = set()
    for sharers in by_output.values():
        for a, b in combinations(sorted(sharers), 2):
            edges.add((a, b))
    return ConfusabilityGraph(vertices=tuple(ch.inputs), edges=frozenset(edges))


def independence_number(g: ConfusabilityGraph) -> tuple:
    """Exact maximum independent set via branch and bound with a witness.

    Upper bounds come from a greedy clique cover of the remaining candidates
    (an independent set meets each clique at most once).  Deterministic:
    vertices are processed in sorted order and the first optimum found wins.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for a, b in g.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    full = (1 << n) - 1

    def clique_cover_bound(cand: int) -> int:
        cliques: List[Tuple[int, int]] = []  # (member mask, common adjacency mask)
        rest = cand
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            for idx, (members, common) in enumerate(cliques):
                if common & bit:
                    cliques[idx] = (members | bit, common & adj[v])
                    break
            else:
                cliques.append((bit, adj[v]))
        return len(cliques)

    best_size = 0
    best_mask = 0

    def expand(cand: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if not cand:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        if size + bin(cand).count("1") <= best_size:
            return
        if size + clique_cover_bound(cand) <= best_size:
            return
        bit = cand & -cand
        v = bit.bit_length() - 1
        expand(cand & ~(adj[v] | bit), chosen | bit, size + 1)  # take v
        expand(cand & ~bit, chosen, size)  # skip v

    expand(full, 0, 0)
    witness = tuple(verts[i] for i in range(n) if best_mask >> i & 1)
    return best_size, witness


# -- zero-error codes -----------------------------------------------------


@dataclass(frozen=True)
class ZeroErrorCode:
    """Messages with an encoder to codewords and a decoder from outputs.

    Codewords are channel inputs for a FiniteChannel, or integer wire values
    for the integer-input composed channel.  ``ties`` lists outputs whose
    decoder value came from rounding an exact half-integer estimate; they are
    surfaced for reporting, never silently dropped.
    """

    messages: tuple
    encoder: dict  # message -> codeword
    decoder: dict  # ChannelOutput -> message
    ties: tuple = ()

    def __post_init__(self):
        for msg in self.messages:
            if msg not in self.encoder:
                raise ValueError(f"encoder is not total: message {msg} missing")


@dataclass(frozen=True)
class ZeroErrorVerdict:
    status: str  # "zero_error" | "collision" | "incomplete_decoder"
    branches_checked: int
    witness: Optional[tuple] = None  # (message, output, decoded message or None)

    @property
    def is_zero_error(self) -> bool:
        return self.status == "zero_error"


def verify_zero_error(channel_like, code: ZeroErrorCode) -> ZeroErrorVerdict:
    """Enumerate every (message, positive-probability output) branch.

    ``channel_like`` is anything with output_distribution(codeword): a
    FiniteChannel (codewords are inputs) or an integer-input composed channel
    (codewords are wire values).  Zero error iff decoding returns the sent
    message on every branch; an undefined decoder entry is its own verdict.
    """
    checked = 0
    for msg in code.messages:
        cw = code.encoder[msg]
        for o, p in channel_like.output_distribution(cw).items():
            if p <= 0:
                continue
            checked += 1
            if o not in code.decoder:
                return ZeroErrorVerdict("incomplete_decoder", checked, (msg, o, None))
            decoded = code.decoder[o]
            if decoded != msg:
                return ZeroErrorVerdict("collision", checked, (msg, o, decoded))
    return ZeroErrorVerdict("zero_error", checked)


# -- integer encoder and the composed channel ------------------------------


@dataclass(frozen=True)
class EncoderMap:
    """Integer-to-input encoder at scale t: x = a*t + b maps to (a, b).

    For t >= d the decomposition with a in [0, q) and b in [0, d) is unique
    when it exists; all other integers map to the uniform distribution.
    """

    t: int
    q: int
    d: int

    def __post_init__(self):
        if self.t < self.d:
            raise ValueError(f"encoder scale t={self.t} must be at least d={self.d}")
        if self.q < 1 or self.d < 1:
            raise ValueError("q and d must be positive")

    def decompose(self, x: int) -> Optional[ChannelInput]:
        a, b = divmod(x, self.t)
        if 0 <= a < self.q and b < self.d:
            return ChannelInput(a, b)
        return None


@dataclass(frozen=True)
class NtChannel:
    """The composed channel: the encoder at scale t followed by the channel.

    Its input domain is all of Z.  A wire value y = a*t + b in form goes to
    row (a, b); every other y goes to the uniform mixture of all rows, which
    is built once and cached.  Used functionally, never as a table.
    """

    enc: EncoderMap
    ch: FiniteChannel
    _uniform_branch: dict = field(default_factory=dict, compare=False, repr=False)

    def output_distribution(self, y: int) -> MappingProxyType:
        """Read-only view of the distribution on wire value y; nothing is copied."""
        hit = self.enc.decompose(y)
        if hit is not None:
            return MappingProxyType(self.ch.rows[hit])
        if not self._uniform_branch:
            # any out-of-form y gives the same mixture, the encoder's uniform
            # weight 1/(q*d) on every input composed with its row; cache it once
            w = Fraction(1, self.enc.q * self.enc.d)
            dist: Dict[ChannelOutput, Fraction] = {}
            for a in range(self.enc.q):
                for b in range(self.enc.d):
                    for o, p in self.ch.rows[ChannelInput(a, b)].items():
                        dist[o] = dist.get(o, 0) + w * p
            self._uniform_branch.update(dist)
        return MappingProxyType(self._uniform_branch)
