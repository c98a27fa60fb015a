"""Independent re-derivation of every fact the benchmark checks in a report.

Nothing here imports ``entwit``.  The checker reads the basis-set JSON
itself, finds orthogonal ray pairs from integer dot products, composes the
scaled channel, evaluates a ``c1`` table with each ``c2(s)`` found by a
linear scan over integers, uses the closed form k*(d-1)*(2d-1)/6 for the
entangled cost, finds the independence number by brute force over subsets,
and derives the certificate's scale and window with integer arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm


def _rational(raw) -> Fraction:
    return Fraction(raw) if isinstance(raw, str) else Fraction(int(raw))


class Instance:
    """The bundled channel, rebuilt from the ray file with integer geometry."""

    def __init__(self, ray_path):
        with open(ray_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        self.q = int(data["q"])
        self.d = int(data["d"])
        rays = []
        for basis in data["bases"]:
            if len(basis) != self.d:
                raise ValueError("basis does not hold d rays")
            for ray in basis:
                parts = [(_rational(re), _rational(im)) for re, im in ray]
                scale = lcm(*[p.denominator for pair in parts for p in pair])
                rays.append([(int(re * scale), int(im * scale)) for re, im in parts])
        if len(rays) != self.q * self.d:
            raise ValueError("ray count is not q*d")
        self.inputs = [(m, j) for m in range(self.q) for j in range(self.d)]
        n = len(rays)
        self.orth = [[False] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if self._dot_is_zero(rays[a], rays[b]):
                    self.orth[a][b] = self.orth[b][a] = True
        for m in range(self.q):
            ids = range(m * self.d, (m + 1) * self.d)
            if not all(self.orth[a][b] for a, b in combinations(ids, 2)):
                raise ValueError(f"basis {m} is not orthogonal")
        self.neighbors = [[b for b in range(n) if self.orth[a][b]] for a in range(n)]
        if not all(self.neighbors):
            raise ValueError("a ray has no orthogonal partner")
        # the channel: input a -> output {a, b} with probability 1/deg(a)
        self.branches = sum(len(nb) for nb in self.neighbors)
        self.outputs = sorted(
            {(min(a, b), max(a, b)) for a in range(n) for b in self.neighbors[a]}
        )

    @staticmethod
    def _dot_is_zero(u, v) -> bool:
        re = sum(ur * vr + ui * vi for (ur, ui), (vr, vi) in zip(u, v))
        im = sum(ur * vi - ui * vr for (ur, ui), (vr, vi) in zip(u, v))
        return re == 0 and im == 0

    # -- facts about the channel --------------------------------------------

    def independence_number(self) -> int:
        """Largest set of pairwise non-confusable inputs, by brute force.

        Two inputs are confusable when an output has positive probability
        under both, which here means they are orthogonal.  Every subset of
        each size is tried until a size has no independent subset.
        """
        n = len(self.inputs)
        best = 0
        for size in range(1, n + 1):
            found = any(
                not any(self.orth[a][b] for a, b in combinations(subset, 2))
                for subset in combinations(range(n), size)
            )
            if not found:
                return best
            best = size
        return best

    def is_independent(self, members) -> bool:
        ids = [m * self.d + j for m, j in members]
        return len(set(ids)) == len(ids) and not any(
            self.orth[a][b] for a, b in combinations(ids, 2)
        )

    def quantum_cost(self, k: Fraction) -> Fraction:
        """E[k j^2] for j uniform on [0, d): k*(d-1)*(2d-1)/6."""
        d = self.d
        return k * Fraction((d - 1) * (2 * d - 1), 6)

    # -- the classical cost of one c1 table ---------------------------------

    def _wire_distribution(self, t: int, y: int) -> dict:
        """Output -> probability for wire value y at scale t."""
        a, b = divmod(y, t)
        if 0 <= a < self.q and 0 <= b < self.d:
            sources = [(a * self.d + b, Fraction(1))]
        else:
            w = Fraction(1, self.q * self.d)
            sources = [(i, w) for i in range(len(self.inputs))]
        dist = {}
        for i, w in sources:
            p = w / len(self.neighbors[i])
            for o in self.neighbors[i]:
                key = (min(i, o), max(i, o))
                dist[key] = dist.get(key, Fraction(0)) + p
        return dist

    def cost(self, t: int, k: Fraction, values) -> Fraction:
        """Exact cost of the table c1(m*t) = values[m] under uniform messages.

        For every output the damping term is minimised over integer c2 by a
        linear scan upward from -max(y); the scan stops once the (convex)
        sum starts to rise.
        """
        if len(values) != self.q:
            raise ValueError("c1 table must give one value per message")
        p_m = Fraction(1, self.q)
        control = sum((p_m * k * v * v for v in values), Fraction(0))
        per_output = {}
        for m, v in enumerate(values):
            y = m * t + v
            for s, p in self._wire_distribution(t, y).items():
                per_output.setdefault(s, []).append((p_m * p, y))
        den = lcm(*[w.denominator for terms in per_output.values() for w, _ in terms])
        damping = 0
        for terms in per_output.values():
            ints = [(int(w * den), y) for w, y in terms]
            lo = -max(y for _, y in ints)
            hi = -min(y for _, y in ints)
            best = None
            for c in range(lo, hi + 1):
                val = sum(w * (y + c) * (y + c) for w, y in ints)
                if best is not None and val > best:
                    break
                best = val
            damping += best
        return control + Fraction(damping, den)


def certify_scale(bound: Fraction) -> tuple:
    """(t, window) for cost bound M: the smallest t with (t-1)^2 >= 400*M and
    the smallest window w with w^2 >= 6*M."""
    t = 1
    while Fraction((t - 1) ** 2) < 400 * bound:
        t += 1
    w = 0
    while Fraction(w * w) < 6 * bound:
        w += 1
    return t, w


# -- report parsing ------------------------------------------------------------


def parse_report(text: str) -> dict:
    """``key: value`` lines; repeated keys (clauses, notes) keep the first."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def exact_of(value: str) -> Fraction:
    """The exact part of a rendered cost such as ``7/2 (3.5)``."""
    return Fraction(value.split(" ", 1)[0])


def c1_values(raw: str, t: int, q: int) -> list:
    """``best-c1``/``best-strategy`` JSON -> values indexed by message."""
    pairs = json.loads(raw)
    table = {int(x): int(v) for x, v in pairs}
    if sorted(table) != [m * t for m in range(q)]:
        raise ValueError(f"c1 table keys {sorted(table)} are not the multiples of {t}")
    return [table[m * t] for m in range(q)]
