"""Finite noisy channels built from basis-set orthogonality, and their codes.

The core construction: channel inputs are the basis/vector index pairs (m, j),
outputs are unordered pairs of such inputs, and input (m, j) maps uniformly
onto the pairs {(m, j), (m', j')} whose vectors are orthogonal.  Everything
downstream (confusability graph, independence number, zero-error codes) is
exact: probabilities are Fractions, graph facts come from exhaustive or
branch-and-bound search, and zero-error verdicts enumerate every
positive-probability branch.  The integer encoder that scales messages by t,
composed with the channel, is the instance in ``entwit.control``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ks import KSBasisSet, validate_basis_set, verify_ks_property


class ChannelInput(NamedTuple):
    """Input symbol (m, j): vector j of basis m."""

    m: int
    j: int


# An output is an unordered pair of distinct inputs, stored lexicographically.
ChannelOutput = Tuple[ChannelInput, ChannelInput]


class FiniteChannel(NamedTuple):
    """Conditional distribution N(o | i) with exact rational probabilities.

    Each row is uniform over its positive outputs, each a pair of distinct
    inputs in order holding the row's own input; rows sum to exactly 1.
    """

    inputs: tuple
    rows: dict  # ChannelInput -> {ChannelOutput: Fraction}

    def validate(self) -> None:
        """Check every row: nonempty, each output a pair (a, b) with a < b
        holding the row's own input and another channel input, and every
        probability of numerator 1 and denominator len(row), so the row sums
        to exactly 1 unsummed; the probability object checked last in the
        row is not checked again."""
        known = set(self.inputs)
        for i in self.inputs:
            row = self.rows[i]
            if not row:
                raise ValueError(f"input {i} has no outputs")
            n, uniform = len(row), None
            for (a, b), p in row.items():
                if not a < b:
                    raise ValueError(f"output {(a, b)} is not two distinct inputs in order")
                # the endpoint other than i must be an input; None if i is neither
                if (b if a == i else a if b == i else None) not in known:
                    if i not in (a, b):
                        raise ValueError(f"positive output {(a, b)} does not contain input {i}")
                    raise ValueError(f"output {(a, b)} holds {a if b == i else b}, not an input")
                if p is not uniform:
                    if type(p) is not Fraction or p.numerator != 1 or p.denominator != n:
                        raise ValueError(f"row for {i} is not uniform over its support")
                    uniform = p

    @property
    def outputs(self) -> tuple:
        seen = set()
        for row in self.rows.values():
            seen.update(row)
        return tuple(sorted(seen))

    def degree_profile(self) -> dict:
        profile: Dict[int, int] = {}
        for i in self.inputs:
            deg = len(self.rows[i])
            profile[deg] = profile.get(deg, 0) + 1
        return profile


def build_ks_channel(ks: KSBasisSet) -> FiniteChannel:
    """Channel whose input (m, j) maps uniformly onto its orthogonal pairs.

    Requires the basis set to validate (so no row is empty: d >= 2) and to
    have the one-per-basis orthogonality property.
    """
    validate_basis_set(ks)
    check = verify_ks_property(ks)
    if not check.holds:
        raise ValueError(
            f"basis set lacks the one-per-basis orthogonality property; "
            f"witness traversal {check.witness}"
        )
    # each output (a, b), a < b, of the masks is built once into both rows
    ids = tuple(ChannelInput(m, j) for m in range(ks.q) for j in range(ks.d))
    outs = [[] for _ in ids]
    for a, (i, mask) in enumerate(zip(ids, ks.masks)):
        mask >>= a + 1
        while mask:  # lowest set bit first
            b = a + (mask & -mask).bit_length()
            outs[a].append(o := (i, ids[b]))
            outs[b].append(o)
            mask &= mask - 1
    uniform = {n: Fraction(1, n) for n in set(map(len, outs))}  # one per row degree
    rows = {i: dict.fromkeys(row, uniform[len(row)]) for i, row in zip(ids, outs)}
    ch = FiniteChannel(inputs=ids, rows=rows)
    ch.validate()
    return ch


# -- confusability -------------------------------------------------------


class ConfusabilityGraph:
    """Simple undirected graph on channel inputs; edges join confusable pairs."""

    __slots__ = ("vertices", "edges")

    def __init__(self, *, vertices: tuple, edges: frozenset):
        vset = set(vertices)
        for a, b in edges:
            if a == b:
                raise ValueError("self loops are not allowed")
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a}, {b}) uses an unknown vertex")
            if not a < b:
                raise ValueError(f"edge ({a}, {b}) is not canonically ordered")
        self.vertices = vertices
        self.edges = edges  # canonical (lo, hi) vertex pairs


def confusability_graph(ch: FiniteChannel) -> ConfusabilityGraph:
    """Edge (i, i') iff some output has positive probability under both inputs."""
    by_output: Dict[ChannelOutput, List[ChannelInput]] = {}
    for i in ch.inputs:
        for o in ch.rows[i]:
            by_output.setdefault(o, []).append(i)
    edges = frozenset(e for o in by_output.values() for e in combinations(sorted(o), 2))
    return ConfusabilityGraph(vertices=tuple(ch.inputs), edges=edges)


def independence_number(g: ConfusabilityGraph) -> tuple:
    """Exact maximum independent set via branch and bound with a witness.

    A branch is cut when its size plus all of its remaining candidates
    cannot beat the best set so far.  Deterministic: vertices are processed
    in sorted order, each taken before it is skipped, and the first optimum
    found wins; no sound bound can cut the path to it, since the best size
    stays below its size until it is reached.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for a, b in g.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]

    best_size = best_mask = 0
    stack = [((1 << n) - 1, 0, 0)]  # branches still to search: (candidates, chosen, size)
    while stack:
        cand, chosen, size = stack.pop()
        # take the lowest candidate until none is left, each time keeping the
        # branch that skips it for later
        while cand:
            if size + cand.bit_count() <= best_size:
                break
            bit = cand & -cand
            stack.append((cand & ~bit, chosen, size))
            cand &= ~(adj[bit.bit_length() - 1] | bit)
            chosen |= bit
            size += 1
        else:
            if size > best_size:
                best_size, best_mask = size, chosen
    witness = tuple(verts[i] for i in range(n) if best_mask >> i & 1)
    return best_size, witness


# -- zero-error codes -----------------------------------------------------


class ZeroErrorCode:
    """Messages with an encoder to codewords and a decoder from outputs.

    Codewords are channel inputs for a FiniteChannel, or integer wire values
    for an instance (the channel composed with the integer encoder).
    ``ties`` lists outputs whose decoder value came from rounding an exact
    half-integer estimate; they are surfaced for reporting, never silently
    dropped.
    """

    __slots__ = ("messages", "encoder", "decoder", "ties")

    def __init__(
        self, *, messages: tuple, encoder: dict, decoder: dict, ties: tuple = ()
    ):
        for msg in messages:
            if msg not in encoder:
                raise ValueError(f"encoder is not total: message {msg} missing")
        self.messages = messages
        self.encoder = encoder  # message -> codeword
        self.decoder = decoder  # ChannelOutput -> message
        self.ties = ties


class ZeroErrorVerdict(NamedTuple):
    status: str  # "zero_error" | "collision" | "incomplete_decoder"
    witness: Optional[tuple] = None  # (message, output, decoded message or None)


def verify_zero_error(channel_like, code: ZeroErrorCode) -> ZeroErrorVerdict:
    """Enumerate every (message, positive-probability output) branch.

    ``channel_like`` is anything with output_distribution(codeword), such as
    a ``WitsenhausenInstance``: the channel composed with the integer
    encoder, whose codewords are wire values.
    Zero error iff decoding returns the sent message on every branch; an
    undefined decoder entry is its own verdict.
    """
    for msg in code.messages:
        cw = code.encoder[msg]
        for o, p in channel_like.output_distribution(cw).items():
            if p.numerator <= 0:  # the sign test for a Fraction or an int
                continue
            if o not in code.decoder:
                return ZeroErrorVerdict("incomplete_decoder", (msg, o, None))
            decoded = code.decoder[o]
            if decoded != msg:
                return ZeroErrorVerdict("collision", (msg, o, decoded))
    return ZeroErrorVerdict("zero_error")
