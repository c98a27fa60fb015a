"""Independent oracles and strategy generators shared across the test suite.

Everything here deliberately re-derives results by the dumbest available
method (direct inner products, plain enumeration, linear scans) so the
package code is checked against computations that share none of its shortcuts.
"""

from fractions import Fraction
from itertools import combinations, product

from entwit import (
    DeterministicStrategy,
    optimal_c2_for_c1,
)
from entwit.control import _GenericEvaluator, posterior_moments


def naive_ks_check(ks):
    """Re-derive the one-per-basis orthogonality property from raw dots.

    Walks every traversal with itertools.product and tests each pair by a
    direct inner product; no bitmasks, no precomputation.
    """
    for combo in product(range(ks.d), repeat=ks.q):
        chosen = [ks.bases[m][j] for m, j in enumerate(combo)]
        if not any(
            not a.raw_dot(b) for a, b in combinations(chosen, 2)
        ):
            return False, tuple(enumerate(combo))
    return True, None


def brute_force_c2(inst, c1, lo, hi):
    """Per-output linear scan for the best integer c2 in [lo, hi].

    Returns {s: (set of minimizing values, minimal damping contribution)}.
    """
    tables = {}
    for s, (mass, ysum, ysq) in posterior_moments(inst, c1).items():
        best_vals, best_cost = None, None
        for c in range(lo, hi + 1):
            cost = mass * c * c + 2 * ysum * c + ysq
            if best_cost is None or cost < best_cost:
                best_vals, best_cost = {c}, cost
            elif cost == best_cost:
                best_vals.add(c)
        tables[s] = (best_vals, best_cost)
    return tables


def oracle_cost(inst, values):
    """Exact cost of the c1 table with these values on the supported messages,
    each output paired with its optimal c2, through the generic evaluator."""
    return _GenericEvaluator(inst).eval_scaled(values)


def flat_scan(inst, window):
    """(minimum cost, lexicographically first minimizing c1 values) over all
    (2W+1)^n in-window tables, by plain enumeration: no pruning, no order
    tricks, every table scored through the generic evaluator."""
    best_cost, best_vals = None, None
    for values in product(range(-window, window + 1), repeat=len(inst.support())):
        cost = oracle_cost(inst, values)
        if best_cost is None or cost < best_cost:
            best_cost, best_vals = cost, values
    return best_cost, best_vals


def random_c1(rng, inst, window, lo=None):
    low = -window if lo is None else lo
    return {x: rng.randint(low, window) for _m, x in inst.support()}


def random_strategy(rng, inst, window, optimal=True, lo=None):
    c1 = random_c1(rng, inst, window, lo=lo)
    if optimal:
        c2 = optimal_c2_for_c1(inst, c1)
    else:
        c2 = {
            s: rng.randint(-inst.q * inst.t, inst.q * inst.t)
            for s in posterior_moments(inst, c1)
        }
    return DeterministicStrategy(c1=c1, c2=c2)


def random_weights(rng, n):
    """n positive random Fractions summing to exactly 1."""
    raws = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
    total = sum(raws, Fraction(0))
    return [w / total for w in raws]
