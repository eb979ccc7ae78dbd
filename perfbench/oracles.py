"""Exact reference computations for the benchmark's output checks.

Nothing here imports contractlab.  Each function recomputes a quantity from
its definition in Fractions, so a check compares two independent routes to
the same number.  An instance is given as (F, r, c): outcome distributions
per action, rewards per outcome, unit costs per action.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

Vector = Sequence[Fraction]
Matrix = Sequence[Sequence[Fraction]]


def payments(F: Matrix, p: Vector) -> list[Fraction]:
    """Expected payment F[a] . p of every action."""
    return [sum((f * x for f, x in zip(row, p)), Fraction(0)) for row in F]


def principal_utilities(F: Matrix, r: Vector, p: Vector) -> list[Fraction]:
    """Expected reward minus expected payment of every action."""
    return [
        sum((f * (rw - x) for f, rw, x in zip(row, r, p)), Fraction(0)) for row in F
    ]


def best_response(pay: Vector, pu: Vector, c: Vector, theta: Fraction) -> int:
    """Brute-force best response at type theta: scan every action, keep the
    agent's maximizers, then the best for the principal, then the lowest
    index."""
    au = [x - theta * cost for x, cost in zip(pay, c)]
    top = max(au)
    tied = [a for a, u in enumerate(au) if u == top]
    best = max(pu[a] for a in tied)
    return min(a for a in tied if pu[a] == best)


def discrete_value(
    F: Matrix, r: Vector, c: Vector, types: Vector, weights: Vector, p: Vector
) -> Fraction:
    """Expected principal utility of contract p over a finite type grid."""
    pay, pu = payments(F, p), principal_utilities(F, r, p)
    return sum(
        (w * pu[best_response(pay, pu, c, t)] for t, w in zip(types, weights)),
        Fraction(0),
    )


def segment_sum_value(
    F: Matrix, r: Vector, c: Vector, breakpoints: Vector, densities: Vector, p: Vector
) -> Fraction:
    """Expected principal utility of p under a piecewise-constant density.

    Between consecutive density breakpoints and crossings of two agent
    utilities the density and the best response are constant, so the
    expectation is a finite sum of density x length x utility with the
    response taken at each segment's midpoint.  Exact on rational inputs.
    """
    pay, pu = payments(F, p), principal_utilities(F, r, p)
    cuts = set(breakpoints)
    for a, b in itertools.combinations(range(len(F)), 2):
        if c[a] != c[b]:
            t = (pay[a] - pay[b]) / (c[a] - c[b])
            if 0 < t < 1:
                cuts.add(t)
    pts = sorted(cuts)
    total = Fraction(0)
    piece = 0
    for lo, hi in zip(pts, pts[1:]):
        mid = (lo + hi) / 2
        while breakpoints[piece + 1] <= mid:
            piece += 1
        total += densities[piece] * (hi - lo) * pu[best_response(pay, pu, c, mid)]
    return total


def discretize(
    breakpoints: Vector, densities: Vector, delta: Fraction
) -> tuple[list[Fraction], list[Fraction]]:
    """Half-offset grid (i - 1/2) delta, i = 1..ceil(1/delta), last point
    clamped to 1, each weighted by the density mass of ((i-1) delta, i delta]
    clipped to [0, 1]."""
    k = math.ceil(1 / delta)
    types = [min((i - Fraction(1, 2)) * delta, Fraction(1)) for i in range(1, k + 1)]
    weights = []
    for i in range(1, k + 1):
        lo, hi = (i - 1) * delta, min(i * delta, Fraction(1))
        mass = Fraction(0)
        for dens, a, b in zip(densities, breakpoints, breakpoints[1:]):
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0:
                mass += dens * overlap
        weights.append(mass)
    return types, weights


def payment_grid(m: int, steps: int) -> list[tuple[Fraction, ...]]:
    """Every contract in {0, 1/steps, ..., 1}^m."""
    axis = [Fraction(j, steps) for j in range(steps + 1)]
    return list(itertools.product(axis, repeat=m))


def grid_optimum_discrete(
    F: Matrix, r: Vector, c: Vector, types: Vector, weights: Vector, steps: int
) -> Fraction:
    """Best discrete-type value over the payment grid."""
    return max(
        discrete_value(F, r, c, types, weights, p)
        for p in payment_grid(len(r), steps)
    )


def grid_optimum_continuous(
    F: Matrix, r: Vector, c: Vector, breakpoints: Vector, densities: Vector, steps: int
) -> Fraction:
    """Best continuous-density value over the payment grid."""
    return max(
        segment_sum_value(F, r, c, breakpoints, densities, p)
        for p in payment_grid(len(r), steps)
    )


# The DESK instance (idle/work, cost 1/2, rewards (0, 1)) under the uniform
# density: the agent works for theta <= 2 (p1 - p0), so the principal gets
# 1 - p1 on that share of types and -p0 on the rest.  The optimum pays
# p = (0, 1/2) and earns 1/2.
DESK_OPT = Fraction(1, 2)


def desk_mean(p0: Fraction, p1: Fraction) -> Fraction:
    """Expected principal utility of (p0, p1) on DESK under the uniform
    density: t (1 - p1) - (1 - t) p0 with t = clip(2 (p1 - p0), 0, 1)."""
    t = min(max(2 * (p1 - p0), Fraction(0)), Fraction(1))
    return t * (1 - p1) - (1 - t) * p0


def cover_value(n: int, m: int, k: int) -> Fraction:
    """Closed-form value l(n, m, k) of the contract paying 1/n on the witness
    outcomes of a size-k cover, with rho = 1/n^6, eps = 1/(n^8 m) and
    mu = 1/(n^9 m): each positive type i/n earns mu/(2 i n) with weight
    (1 - rho)/n, and the zero type earns (1 - m eps - k eps)/n with weight
    rho."""
    rho = Fraction(1, n**6)
    eps = Fraction(1, n**8 * m)
    mu = Fraction(1, n**9 * m)
    positive = sum(Fraction(1, i) for i in range(1, n + 1)) * mu / (2 * n)
    return (1 - rho) * positive / n + rho * (1 - m * eps - k * eps) / n


def block_constant(d: int) -> int:
    """First block length of phased elimination, ceil(4 d llog2(d) + 16),
    with llog2(d) = max(0, log2 log2 d) and 0 for d <= 2."""
    llog2 = max(0.0, math.log2(math.log2(d))) if d > 2 else 0.0
    return math.ceil(4 * d * llog2 + 16)
