"""The classical cost of a scaled basis-set channel, checked in integers.

This module uses the standard library only and imports nothing from
``entwit``, so every test oracle built on it is a second code path: it reads
the ray file itself, or takes a plain neighbour table, composes the channel
with the integer encoder at scale t, and scores c1 tables from integer
moments.

Inputs are the ids i = m*d + j, for vector j of basis m.  Input i sends
output {i, n} with probability 1/deg(i) for each n in its neighbour list,
and an output is named by its two endpoint ids in increasing order.
Message m goes on the wire as y = m*t + c1(m*t).  A wire y in [0, q*t) with
y mod t below d is the input (y div t)*d + y mod t; any other wire is every
input at once, each with weight 1/(q*d).

Everything is an integer over one common denominator, ``scale`` =
L*q*d*D, with L the lcm of the message probabilities' denominators and D
that of the row degrees.  On it message m has weight w = p_m*L; in form at
input i it puts w*q*d*D/deg(i) on each output of row i, and out of form it
puts w*beta_o on output o, beta_o being the sum of D/deg(i) over the rows i
that hold o.  An output with moments (a, b, c) = (weight, weight*y,
weight*y^2) costs min over integers v of a*v^2 + 2*b*v + c, which sits at
floor(-b/a) or the integer after it.
"""

import json
from fractions import Fraction
from itertools import product
from math import lcm


def read_rays(path):
    """(q, d, rays) from a ``ks-basis-set/1`` file: ray m*d + j is vector j of
    basis m, as (re, im) integer pairs, its parts multiplied by the lcm of
    their denominators.  A nonzero multiple of a ray is orthogonal to what the
    ray is orthogonal to, so the file's ``denominator`` field and the
    normalization are left out."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    q, d = data["q"], data["d"]
    if len(data["bases"]) != q or any(len(basis) != d for basis in data["bases"]):
        raise ValueError("the file does not hold q bases of d rays")
    rays = []
    for basis in data["bases"]:
        for ray in basis:
            parts = [Fraction(x) for entry in ray for x in entry]
            mult = lcm(*(x.denominator for x in parts))
            ints = [int(x * mult) for x in parts]
            if len(ints) != 2 * d or not any(ints):
                raise ValueError(f"ray {len(rays)} is not a nonzero vector of C^{d}")
            rays.append(list(zip(ints[0::2], ints[1::2])))
    return q, d, rays


def orthogonal(u, v):
    """True iff sum over k of conj(u_k)*v_k is zero, on Gaussian integers."""
    re = im = 0
    for (a, b), (c, e) in zip(u, v):
        re += a * c + b * e
        im += a * e - b * c
    return re == 0 and im == 0


class Channel:
    """The basis-set channel on the ids 0 .. q*d - 1: ``neighbours[i]`` lists,
    in increasing order, the ids n to which input i sends output {i, n}."""

    def __init__(self, q, d, table):
        """From a plain neighbour table {id: ids}, one row per id."""
        if sorted(table) != list(range(q * d)):
            raise ValueError(f"the table needs one row for each id 0 .. {q * d - 1}")
        rows = []
        for i in range(q * d):
            row = sorted(table[i])
            if not row or i in row or len(set(row)) != len(row):
                raise ValueError(f"row {i} must list distinct ids other than {i}")
            if row[0] < 0 or row[-1] >= q * d:
                raise ValueError(f"row {i} names an id outside the grid")
            rows.append(tuple(row))
        self.q, self.d, self.neighbours = q, d, tuple(rows)

    @classmethod
    def from_rays(cls, path):
        """Input i's neighbours are the rays orthogonal to ray i."""
        q, d, rays = read_rays(path)
        return cls(q, d, {
            i: [n for n, v in enumerate(rays) if n != i and orthogonal(u, v)]
            for i, u in enumerate(rays)
        })

    def independent_set(self):
        """A largest set of inputs no two of which are neighbours, so no two
        share an output, as a sorted tuple of ids.  Plain recursion over
        sets of ids: the best set on the remaining inputs either leaves the
        first one out or takes it and drops its neighbours."""
        neighbours = [set(row) for row in self.neighbours]

        def best(remaining):
            if not remaining:
                return ()
            first, rest = remaining[0], remaining[1:]
            left_out = best(rest)
            taken = (first, *best(tuple(i for i in rest if i not in neighbours[first])))
            return taken if len(taken) > len(left_out) else left_out

        return best(tuple(range(self.q * self.d)))

    def without(self, drops):
        """This channel with id b taken from row a, for each (a, b)."""
        table = {i: list(row) for i, row in enumerate(self.neighbours)}
        for a, b in drops:
            table[a].remove(b)
        return Channel(self.q, self.d, table)


def nearest(a, b):
    """The integer v minimizing a*v^2 + 2*b*v, a > 0; of two, the even one."""
    v = -b // a
    here, after = (a * v + 2 * b) * v, (a * v + a + 2 * b) * (v + 1)
    return v if here < after or (here == after and v % 2 == 0) else v + 1


def least(a, b, c):
    """min over integers v of a*v^2 + 2*b*v + c, for a > 0."""
    v = nearest(a, b)
    return (a * v + 2 * b) * v + c


class Instance:
    """The channel behind the encoder at scale t, with message probabilities
    ``p_m`` (uniform when left out) and the price k on c1.  A c1 table is a
    dict keyed by the supported x = m*t; a message it leaves out adds
    nothing, so a partial table is a prefix."""

    def __init__(self, channel, t, k, p_m=None):
        q, d = channel.q, channel.d
        if t < d:
            raise ValueError(f"scale t={t} is below d={d}, so wires are not unique")
        self.q, self.d, self.t, self.k = q, d, t, Fraction(k)
        p_m = [Fraction(1, q)] * q if p_m is None else [Fraction(p) for p in p_m]
        if len(p_m) != q or min(p_m) < 0 or sum(p_m) != 1:
            raise ValueError("p_m is not a distribution on the q messages")
        self._support = tuple((m, m * t) for m in range(q) if p_m[m])
        big_l = lcm(*(p_m[m].denominator for m, _x in self._support))
        self.weight = [int(p * big_l) for p in p_m]
        degrees = [len(row) for row in channel.neighbours]
        big_d = lcm(*degrees)
        self.unit = q * d * big_d  # scale / L
        self.scale = big_l * self.unit
        self.share = [self.unit // deg for deg in degrees]
        # outputs numbered in the order they first appear, row by row
        number = {}
        self.rows = [
            [number.setdefault((min(i, n), max(i, n)), len(number)) for n in row]
            for i, row in enumerate(channel.neighbours)
        ]
        self.outputs = list(number)
        self.beta = [0] * len(number)
        for i, row in enumerate(self.rows):
            for o in row:
                self.beta[o] += big_d // degrees[i]

    def support(self):
        """(m, x = m*t) for every message of positive probability."""
        return self._support

    def input_of(self, y):
        """The input id that wire y hits, or None when y is out of form."""
        if 0 <= y < self.q * self.t and y % self.t < self.d:
            return y // self.t * self.d + y % self.t
        return None

    def _moments(self, c1):
        """{output number: [a, b, c]} over ``scale`` for the table, in the
        order the outputs first get weight."""
        acc = {}
        out_a = out_b = out_c = 0
        for m, x in self._support:
            if x not in c1:
                continue
            y = x + c1[x]
            w = self.weight[m]
            i = self.input_of(y)
            if i is None:
                if not out_a:
                    for o in range(len(self.outputs)):
                        acc.setdefault(o, [0, 0, 0])
                out_a, out_b, out_c = out_a + w, out_b + w * y, out_c + w * y * y
                continue
            w *= self.share[i]
            for o in self.rows[i]:
                mo = acc.setdefault(o, [0, 0, 0])
                mo[0] += w
                mo[1] += w * y
                mo[2] += w * y * y
        if out_a:
            for o, mo in acc.items():
                beta = self.beta[o]
                mo[0] += beta * out_a
                mo[1] += beta * out_b
                mo[2] += beta * out_c
        return acc

    def moments(self, c1):
        """{output: (weight, weight*y, weight*y^2)} over ``scale``, for the
        outputs of positive weight."""
        return {self.outputs[o]: tuple(mo) for o, mo in self._moments(c1).items()}

    def cost(self, values):
        """Exact cost of c1 values on the first len(values) supported
        messages, each output paired with its best integer c2."""
        c1 = {x: v for (_m, x), v in zip(self._support, values)}
        control = sum(self.weight[m] * v * v for (m, _x), v in zip(self._support, values))
        damping = sum(least(*mo) for mo in self._moments(c1).values())
        k = self.k
        return Fraction(
            control * self.unit * k.numerator + damping * k.denominator,
            self.scale * k.denominator,
        )

    def relaxed_cost(self, values):
        """``cost`` with each c2 taken over the reals, not the integers: an
        output of moments (a, b, c) then costs c - b^2/a.  A value of None
        leaves its message out."""
        c1 = {x: v for (_m, x), v in zip(self._support, values) if v is not None}
        control = sum(self.weight[m] * c1[x] ** 2 for m, x in self._support if x in c1)
        damping = sum(Fraction(a * c - b * b, a) for a, b, c in self._moments(c1).values())
        return (self.k * control * self.unit + damping) / self.scale

    def best_c2(self, c1):
        """{output: the integer c2 of least damping}, half-integer posterior
        means going to the even integer, for the outputs of positive weight."""
        return {
            self.outputs[o]: nearest(a, b) for o, (a, b, _c) in self._moments(c1).items()
        }

    def c2_scan(self, c1, lo, hi):
        """{output: (set of minimizing c2 in [lo, hi], least damping)}, by a
        linear scan over every integer of the range."""
        found = {}
        for s, (a, b, c) in self.moments(c1).items():
            vals = {v: a * v * v + 2 * b * v + c for v in range(lo, hi + 1)}
            best = min(vals.values())
            found[s] = ({v for v, val in vals.items() if val == best}, Fraction(best, self.scale))
        return found

    def reach(self, y):
        """(output, mult) for every output that wire y reaches: a message of
        weight w on the wire puts w*mult over ``scale`` on the output."""
        i = self.input_of(y)
        if i is None:
            return zip(self.outputs, self.beta)
        return ((self.outputs[o], self.share[i]) for o in self.rows[i])

    def branches(self, c1, c2):
        """[(weight over ``scale``, final signal z)] for every branch of
        positive probability, message by message; c2 defaults to 0."""
        return [
            (self.weight[m] * mult, x + c1[x] + c2.get(s, 0))
            for m, x in self._support
            for s, mult in self.reach(x + c1[x])
        ]

    def evaluate(self, c1, c2):
        """(total, control, damping, branches, max |z|) of a complete
        strategy, branch by branch."""
        branches = self.branches(c1, c2)
        control = self.k * Fraction(
            sum(self.weight[m] * c1[x] * c1[x] for m, x in self._support) * self.unit,
            self.scale,
        )
        damping = Fraction(sum(w * z * z for w, z in branches), self.scale)
        max_z = max(abs(z) for _w, z in branches)
        return control + damping, control, damping, len(branches), max_z


def flat_scan(inst, window):
    """(minimum cost, lexicographically first minimizing c1 values) over all
    (2W+1)^n in-window tables, by plain enumeration."""
    best_cost, best_vals = None, None
    span = range(-window, window + 1)
    for values in product(span, repeat=len(inst.support())):
        cost = inst.cost(values)
        if best_cost is None or cost < best_cost:
            best_cost, best_vals = cost, values
    return best_cost, best_vals


def plain_dfs(inst, window, node_budget=None, costs=None):
    """(prefixes scored, complete, best cost, best c1 values) of a branch and
    bound by plain recursion, every prefix scored from scratch: values in
    (|v|, v) order, a prefix pruned only when its cost strictly exceeds the
    best complete table's, equal costs broken toward the lexicographically
    smallest table, and the budget checked before each prefix is scored.
    ``costs`` memoizes the scores by prefix across calls on one instance."""
    costs = {} if costs is None else costs
    n = len(inst.support())
    order = sorted(range(-window, window + 1), key=lambda v: (abs(v), v))
    nodes, best_cost, best_vals = 0, None, None

    def descend(prefix):
        nonlocal nodes, best_cost, best_vals
        for v in order:
            if node_budget is not None and nodes >= node_budget:
                return False
            nodes += 1
            values = prefix + (v,)
            if values not in costs:
                costs[values] = inst.cost(values)
            cost = costs[values]
            if best_cost is not None and cost > best_cost:
                continue
            if len(values) < n:
                if not descend(values):
                    return False
            elif best_cost is None or cost < best_cost or values < best_vals:
                best_cost, best_vals = cost, values
        return True

    complete = descend(())
    return nodes, complete, best_cost, best_vals
