"""The pair channel of a basis set, its confusability graph, and codes.

Channel input u = m*d + j is vector j of basis m, an output is the id pair
(u, u2) with u < u2, and input u maps uniformly onto the pairs {u, u2} whose
vectors are orthogonal.  The channel is one neighbour table: bit u2 of
``masks[u]`` is set iff {u, u2} is an output of input u, each with
probability 1/popcount(masks[u]).  Two inputs share an output exactly when
they are partners, so that table is also the confusability graph.
Everything is exact: graph facts come from branch-and-bound search, and
zero-error verdicts enumerate every positive-probability branch.  The
integer encoder that scales messages by t, composed with the channel, is the
instance in ``entwit.control``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .ks import KSBasisSet, validate_basis_set, verify_ks_property


class FiniteChannel:
    """The uniform pair channel on a q x d grid of inputs, as partner masks.

    ``masks[u]`` holds the partners of input u = m*d + j; ``inputs[u]`` is
    its label (m, j), for reports.  The masks are checked once, here:
    q*d of them for some q >= 1, none empty, none holding its own input or
    an input past the grid, and every partner held both ways, so each output
    {u, u2} is in exactly the rows of its two endpoints.
    """

    __slots__ = ("d", "masks", "inputs")

    def __init__(self, d: int, masks: tuple):
        n = len(masks)
        if d < 1 or n == 0 or n % d:
            raise ValueError(f"{n} rows are not q*d rows for d = {d}")
        below = [0] * n  # per row, the partners that rows before it named
        for u, mask in enumerate(masks):
            if not mask:
                raise ValueError(f"input {u} has no outputs")
            if mask >> n:  # a negative mask too
                raise ValueError(f"input {u} has a partner past the grid")
            if mask >> u & 1:
                raise ValueError(f"input {u} is its own partner")
            one_sided = (mask & (1 << u) - 1) ^ below[u]
            if one_sided:
                u2 = (one_sided & -one_sided).bit_length() - 1
                raise ValueError(f"inputs {u2} and {u} are not partners both ways")
            above = mask >> u + 1
            while above:  # lowest set bit first
                bit = above & -above
                below[u + bit.bit_length()] |= 1 << u
                above ^= bit
        self.d = d
        self.masks = tuple(masks)
        self.inputs = tuple(divmod(u, d) for u in range(n))


def build_ks_channel(ks: KSBasisSet) -> FiniteChannel:
    """Channel whose input u maps uniformly onto its orthogonal pairs:
    the set's orthogonality masks themselves.

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
    return FiniteChannel(ks.d, ks.masks)


# -- confusability -------------------------------------------------------


def confusability_graph(ch: FiniteChannel) -> tuple:
    """The adjacency masks of the graph joining inputs that share an output
    with positive probability: an output {u, u2} is held by the rows of its
    two endpoints only, so they are the channel's own masks."""
    return ch.masks


def independence_number(adj: tuple) -> tuple:
    """Exact maximum independent set via branch and bound with a witness.

    ``adj[u]`` is the adjacency mask of vertex u; the witness lists vertex
    numbers in increasing order.  A branch is cut when its size plus all of
    its remaining candidates cannot beat the best set so far.
    Deterministic: vertices are processed in increasing order, each taken
    before it is skipped, and the first optimum found wins; no sound bound
    can cut the path to it, since the best size stays below its size until
    it is reached.
    """
    n = len(adj)
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
    return best_size, tuple(u for u in range(n) if best_mask >> u & 1)


# -- zero-error codes -----------------------------------------------------


class ZeroErrorCode:
    """Messages with an encoder to codewords and a decoder from outputs.

    Codewords are whatever the channel read by ``verify_zero_error`` takes:
    integer wire values for an instance (the channel composed with the
    integer encoder).
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
        self.decoder = decoder  # output (u, u2) -> message
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
