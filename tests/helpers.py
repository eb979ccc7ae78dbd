"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: brute-force
grids, direct enumeration, and closed-form recomputation, so every check
compares two independent routes to the same number.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from contractlab import (
    Instance,
    agent_utility,
    best_response,
    expected_principal_utility,
    principal_utility,
)
from contractlab.bandit import (
    _DESIGN_MAX_ITERS,
    _DESIGN_REFRESH,
    _RANK_TOL,
    ArmSet,
    Environment,
    _greedy_basis,
    _solve_estimate,
    block_constant,
)
from contractlab.core import TIE_TOL, BestResponse, ResponseTable, stacked_actions
from contractlab.dist import (
    Discrete,
    PiecewiseConstant,
    TypeDistribution,
    grid_points,
    interval_mass,
    sample_many,
)
from contractlab.errors import UsageError
from contractlab.hardness import SetCoverInput, is_cover
from contractlab.numerics import LPResult, Num, RationalLP, as_fraction, is_exact
from contractlab.solver import SolveReport, contract_for_tuple


# ---------------------------------------------------------------------------
# Exact linear algebra on Fraction tableaus: the slow path of the library's
# fraction-free simplex and solve
# ---------------------------------------------------------------------------


def _fraction_pivot(rows, basis, r, col):
    piv = rows[r][col]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f != 0:
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    basis[r] = col


def _fraction_simplex_phase(rows, basis, cost, pivots):
    """Bland's rule: entering = lowest improving column, leaving = lowest
    basic index on ratio ties. Every (row, column) pivot is appended to
    pivots."""
    ncols = len(rows[0]) - 1
    while True:
        cb = [cost[b] for b in basis]
        entering = -1
        for j in range(ncols):
            if j in basis:
                continue
            dj = cost[j] - sum(cbi * rows[i][j] for i, cbi in enumerate(cb) if rows[i][j] != 0)
            if dj > 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best_ratio = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        pivots.append((leaving, entering))
        _fraction_pivot(rows, basis, leaving, entering)


def fraction_lp_solve(lp: RationalLP, pivots: list | None = None) -> LPResult:
    """Slow reference for numerics.lp_solve: the same two-phase Bland
    simplex on a tableau of Fractions, each pivot dividing the pivot row.
    Records its (row, column) pivots in pivots when given."""
    pivots = [] if pivots is None else pivots
    zero, one = Fraction(0), Fraction(1)
    n = len(lp.objective)
    m = len(lp.constraints)
    slack_cols = n + m
    art_needed = []
    rows = []
    basis = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        row = list(coeffs) + [zero] * m
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<="}[rel]
        if rel == "<=":
            row[n + i] = one
            basis.append(n + i)
            art_needed.append(False)
        else:
            row[n + i] = -one
            basis.append(-1)
            art_needed.append(True)
        row.append(rhs)
        rows.append(row)

    n_art = sum(art_needed)
    total = slack_cols + n_art
    ai = 0
    for i in range(m):
        rows[i] = rows[i][:-1] + [zero] * n_art + [rows[i][-1]]
        if art_needed[i]:
            rows[i][slack_cols + ai] = one
            basis[i] = slack_cols + ai
            ai += 1

    if n_art:
        cost1 = [zero] * slack_cols + [-one] * n_art
        status = _fraction_simplex_phase(rows, basis, cost1, pivots)
        assert status == "optimal"
        infeas = sum(rows[i][-1] for i in range(m) if basis[i] >= slack_cols)
        if infeas != 0:
            return LPResult("infeasible", None, None)
        for i in range(m):
            if basis[i] >= slack_cols:
                col = next((j for j in range(slack_cols) if rows[i][j] != 0), None)
                if col is not None:
                    pivots.append((i, col))
                    _fraction_pivot(rows, basis, i, col)
        keep = [i for i in range(m) if basis[i] < slack_cols]
        rows = [rows[i][:slack_cols] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
        total = slack_cols

    cost2 = list(lp.objective) + [zero] * (total - n)
    if rows:
        status = _fraction_simplex_phase(rows, basis, cost2, pivots)
    else:
        status = "unbounded" if any(c > 0 for c in lp.objective) else "optimal"
    if status == "unbounded":
        return LPResult("unbounded", None, None)

    y = [zero] * total
    for i, b in enumerate(basis):
        y[b] = rows[i][-1]
    point = tuple(y[:n])
    value = sum((c * v for c, v in zip(lp.objective, point)), start=zero) + lp.constant
    return LPResult("optimal", point, value)


def fraction_solve(matrix, rhs) -> tuple[Fraction, ...] | None:
    """Slow reference for numerics.rational_solve: Gauss-Jordan on Fractions
    with row swaps; None when the matrix is singular."""
    n = len(rhs)
    aug = [[as_fraction(v) for v in row] + [as_fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(aug[i][-1] for i in range(n))


# ---------------------------------------------------------------------------
# Random rational objects (small denominators keep exact LPs fast)
# ---------------------------------------------------------------------------


def random_instance(
    gen: random.Random, n: int, m: int, denom: int = 12
) -> Instance:
    rows = []
    for _ in range(n):
        cuts = sorted(gen.randrange(0, denom + 1) for _ in range(m - 1))
        row = []
        prev = 0
        for cut in cuts + [denom]:
            row.append(Fraction(cut - prev, denom))
            prev = cut
        rows.append(tuple(row))
    c = [Fraction(gen.randrange(0, denom + 1), denom) for _ in range(n)]
    c[gen.randrange(n)] = Fraction(0)
    r = tuple(Fraction(gen.randrange(0, denom + 1), denom) for _ in range(m))
    return Instance(F=tuple(rows), r=r, c=tuple(c))


def float_instance(inst: Instance) -> Instance:
    """The instance read in float mode: every entry of F, r and c a float."""
    return Instance(
        F=tuple(tuple(float(x) for x in row) for row in inst.F),
        r=tuple(float(x) for x in inst.r),
        c=tuple(float(x) for x in inst.c),
    )


def random_atoms(gen: random.Random, k: int, denom: int = 12) -> Discrete:
    types = sorted(gen.sample(range(denom + 1), k))
    w = [gen.randrange(1, 5) for _ in range(k)]
    s = sum(w)
    return Discrete(
        points=tuple(Fraction(t, denom) for t in types),
        weights=tuple(Fraction(x, s) for x in w),
    )


def random_contract(
    gen: random.Random, m: int, denom: int = 24, hi: int = 1
) -> tuple[Fraction, ...]:
    return tuple(Fraction(gen.randrange(0, hi * denom + 1), denom) for _ in range(m))


def random_piecewise(
    gen: random.Random, pieces: int = 3, denom: int = 8
) -> PiecewiseConstant:
    cuts = sorted(gen.sample(range(1, denom), pieces - 1))
    bps = [Fraction(0)] + [Fraction(x, denom) for x in cuts] + [Fraction(1)]
    raw = [Fraction(gen.randrange(1, 6)) for _ in range(pieces)]
    total = sum(w * (b - a) for w, a, b in zip(raw, bps, bps[1:]))
    dens = tuple(w / total for w in raw)
    return PiecewiseConstant(breakpoints=tuple(bps), densities=dens)


def random_setcover(gen: random.Random) -> SetCoverInput:
    """Random covered system: n in 2..4, m in 1..5, union equals universe."""
    while True:
        n = gen.randrange(2, 5)
        m = gen.randrange(1, 6)
        sets = []
        for _ in range(m):
            size = gen.randrange(1, n + 1)
            sets.append(tuple(sorted(gen.sample(range(1, n + 1), size))))
        if set().union(*map(set, sets)) == set(range(1, n + 1)):
            return SetCoverInput(n=n, sets=tuple(sets))


def min_cover(sc: SetCoverInput) -> tuple[int, ...]:
    """Smallest cover by exhaustive subset search (independent of the
    library's own cover routines). Returns 1-based set ids."""
    universe = set(range(1, sc.n + 1))
    for size in range(1, sc.m + 1):
        for ids in itertools.combinations(range(1, sc.m + 1), size):
            if set().union(*(set(sc.sets[i - 1]) for i in ids)) == universe:
                return ids
    raise AssertionError("system does not cover its universe")


def min_cover_size(sc: SetCoverInput) -> int | None:
    """Smallest cover size by exhaustive search, or None if no cover exists."""
    for k in range(1, sc.m + 1):
        for combo in itertools.combinations(range(1, sc.m + 1), k):
            if is_cover(sc, combo):
                return k
    return None


def three_element_setcover() -> SetCoverInput:
    return SetCoverInput(n=3, sets=((1, 2), (2,), (1, 3), (3,)))


# ---------------------------------------------------------------------------
# Brute-force value oracles
# ---------------------------------------------------------------------------


def cdf(d: TypeDistribution, x: "float | np.ndarray") -> "float | np.ndarray":
    """P[theta <= x], float arithmetic, vectorized over numpy inputs."""
    xs = np.asarray(x, dtype=float)
    if isinstance(d, Discrete):
        pts = np.asarray(d.points, dtype=float)
        idx = np.searchsorted(pts, xs, side="right")
        cum = np.concatenate(([0.0], d._cum))
        out = cum[idx]
    else:
        bp = np.asarray(d.breakpoints, dtype=float)
        dens = np.asarray(d.densities, dtype=float)
        seg = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(dens) - 1)
        out = d._cum[seg] + dens[seg] * (xs - bp[seg])
        out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def float_arrays(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F, r and c of an instance as float arrays, converted here."""
    return tuple(np.asarray(x, dtype=float) for x in (inst.F, inst.r, inst.c))


def payment_grid(m: int, step: float) -> np.ndarray:
    pts = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    mesh = np.meshgrid(*([pts] * m), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def grid_values(
    inst: Instance, gamma: Discrete, P: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Expected principal utility of every payment row of P, recomputed from
    scratch: agent utilities, favorable tie-break within tol, weighted sum."""
    F, r, c = float_arrays(inst)
    pay = P @ F.T
    base = F @ r
    total = np.zeros(len(P))
    for theta, w in zip(
        np.asarray(gamma.points, dtype=float), np.asarray(gamma.weights, dtype=float)
    ):
        au = pay - theta * c
        eligible = au >= au.max(axis=1, keepdims=True) - tol
        total += w * np.where(eligible, base - pay, -np.inf).max(axis=1)
    return total


def grid_best(inst: Instance, gamma: Discrete, step: float = 0.01) -> float:
    return float(grid_values(inst, gamma, payment_grid(inst.n_outcomes, step)).max())


def grid_best_continuous(
    inst: Instance, gamma, step: float = 0.01, cells: int = 2000
) -> float:
    """Best grid-contract value against a continuous distribution: the same
    per-cell quantity as ``grid_best_continuous_loop``, summed per payment
    row over the sub-intervals between the types where eligibility can
    change.

    Action a stays within 1e-9 of action b's agent utility exactly while
    pay_a - pay_b + 1e-9 >= theta (c_a - c_b), so the eligible set, and with
    it the principal value, is constant between consecutive cuts
    (pay_a - pay_b + 1e-9) / (c_a - c_b).  Each sub-interval tests
    eligibility once, at its midpoint, by the loop's own rule, and takes the
    mass of the cells whose midpoints it holds from the cumulative cell
    masses.  The two agree up to float summation order.
    """
    edges = np.linspace(0.0, 1.0, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    cum = np.concatenate(([0.0], np.cumsum(np.diff(cdf(gamma, edges)))))
    P = payment_grid(inst.n_outcomes, step)
    F, r, c = float_arrays(inst)
    pay = P @ F.T
    base = F @ r
    cuts = [np.zeros(len(P)), np.ones(len(P))]
    for a, b in itertools.permutations(range(inst.n_actions), 2):
        if c[a] != c[b]:
            t = (pay[:, a] - pay[:, b] + 1e-9) / (c[a] - c[b])
            cuts.append(np.clip(t, 0.0, 1.0))
    pts = np.sort(np.stack(cuts, axis=1), axis=1)
    lo, hi = pts[:, :-1], pts[:, 1:]
    au = pay[:, None, :] - (0.5 * (lo + hi))[:, :, None] * c
    eligible = au >= au.max(axis=2, keepdims=True) - 1e-9
    value = np.where(eligible, (base - pay)[:, None, :], -np.inf).max(axis=2)
    mass = (
        cum[np.searchsorted(mids, hi, side="right")]
        - cum[np.searchsorted(mids, lo, side="right")]
    )
    return float((mass * value).sum(axis=1).max())


def grid_best_continuous_loop(
    inst: Instance, gamma, step: float = 0.01, cells: int = 2000
) -> float:
    """Slow reference for ``grid_best_continuous``: best grid-contract value
    against a continuous distribution, using a fine type discretization
    (cell masses from the distribution's CDF), one type cell at a time."""
    edges = np.linspace(0.0, 1.0, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    masses = np.diff(cdf(gamma, edges))
    P = payment_grid(inst.n_outcomes, step)
    F, r, c = float_arrays(inst)
    pay = P @ F.T
    base = F @ r
    total = np.zeros(len(P))
    for theta, w in zip(mids, masses):
        if w == 0.0:
            continue
        au = pay - theta * c
        eligible = au >= au.max(axis=1, keepdims=True) - 1e-9
        total += w * np.where(eligible, base - pay, -np.inf).max(axis=1)
    return float(total.max())


def per_type_expectation(inst: Instance, gamma: Discrete, p):
    """Slow reference for the expectation on atoms: the per-type loop the
    library used before ``ResponseTable.expected_utility``, one response per
    type with positive weight, summed in type order."""
    table = ResponseTable(inst, p)
    total = 0
    for theta, w in zip(gamma.points, gamma.weights):
        if w == 0:
            continue
        total += w * table.respond(theta).principal_utility
    return total


def fraction_crossings(inst: Instance, p) -> list[Fraction]:
    """Slow reference for the exact ``ResponseTable.breakpoints``: every
    t = (F_a.p - F_b.p) / (c_a - c_b) in (0, 1), in Fractions, sorted."""
    table = ResponseTable(inst, p)
    fp, c = table.fp, [as_fraction(x) for x in inst.c]
    cuts = set()
    for a, b in itertools.combinations(range(inst.n_actions), 2):
        if c[a] != c[b]:
            t = (fp[a] - fp[b]) / (c[a] - c[b])
            if 0 < t < 1:
                cuts.add(t)
    return sorted(cuts)


def float_crossings(inst: Instance, p) -> list[float]:
    """Slow reference for the float ``ResponseTable.breakpoints``: the pair
    loop the table ran before ``_crossings``.  Every t = (fp[a] - fp[b]) /
    (c[a] - c[b]) in (0, 1) from the floats of the table's fp and of the
    costs, sorted."""
    fp = [float(x) for x in ResponseTable(inst, p).fp]
    c = [float(x) for x in inst.c]
    pts = set()
    n = len(fp)
    for a in range(n):
        for b in range(a + 1, n):
            if c[a] != c[b]:
                t = (fp[a] - fp[b]) / (c[a] - c[b])
                if 0 < t < 1:
                    pts.add(t)
    return sorted(pts)


def segment_sum_expectation(inst: Instance, gamma: PiecewiseConstant, p) -> Fraction:
    """Slow reference for the exact density path of
    ``ResponseTable.expected_utility``: the Fraction segment sum the library
    computed before its integer sweep. Cuts at 0, 1, the density breakpoints
    and every crossing in (0, 1), as Fractions; each segment adds its
    ``interval_mass`` times the principal utility of the best response at
    its midpoint."""
    table = ResponseTable(inst, p)
    pts = sorted({
        Fraction(0), Fraction(1), *map(as_fraction, gamma.breakpoints),
        *fraction_crossings(inst, p),
    })
    total = Fraction(0)
    for lo, hi in zip(pts, pts[1:]):
        mass = interval_mass(gamma, lo, hi)
        if mass != 0:
            total += mass * table.respond((lo + hi) / 2).principal_utility
    return total


def float_segment_expectation(inst: Instance, gamma: PiecewiseConstant, p) -> float:
    """Slow reference for the float density path of
    ``ResponseTable.expected_utility``: the segment loop it ran before its
    one weighted sum.  Cuts at 0, 1, the density breakpoints and every
    crossing, as floats; each segment adds its ``interval_mass`` times the
    principal utility of the best response at its float midpoint, from 0.0."""
    table = ResponseTable(inst, p)
    cuts = {0, 1, *gamma.breakpoints, *table.breakpoints()}
    pts = sorted(float(x) for x in cuts)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        mass = interval_mass(gamma, lo, hi)
        if mass != 0:
            total += mass * table.respond((lo + hi) / 2).principal_utility
    return total


def cellwise_discretize(gamma, delta) -> Discrete:
    """Slow reference for ``dist.discretize``: one ``interval_mass`` per cell
    ((i-1) delta, i delta], the first closed at 0 and the last clipped at 1."""
    pts = grid_points(delta)
    cells = [(i * delta, min((i + 1) * delta, 1)) for i in range(len(pts))]
    masses = [interval_mass(gamma, lo, hi, closed_lo=(i == 0)) for i, (lo, hi) in enumerate(cells)]
    return Discrete(pts, tuple(masses))


def verify_discretization_identity(
    inst: Instance,
    gamma: TypeDistribution,
    cells: Sequence[tuple[Num, Num]],
    cell_actions: Sequence[int],
    p: Sequence[Num],
) -> tuple[Num, Num]:
    """Both sides of the exchange between integrating a per-cell-constant
    action map against the distribution and weighting per-cell representative
    types by cell masses. The two sides are computed through independent
    integration routines and agree exactly on exact inputs."""
    if len(cells) != len(cell_actions):
        raise UsageError("one action per cell required")
    if not cells:
        raise UsageError("cell list must be nonempty")
    lo0, hi_last = cells[0][0], cells[-1][1]
    if lo0 != 0 or hi_last != 1:
        raise UsageError("cells must cover [0,1]")
    for (_, hi_a), (lo_b, _) in zip(cells, cells[1:]):
        if hi_a != lo_b:
            raise UsageError("cells must tile [0,1] without gaps or overlaps")

    utilities = [principal_utility(inst, p, a) for a in cell_actions]

    # route 1: direct integration of the piecewise-constant composition
    # (its own sum, not ResponseTable.expected_utility, so the routes stay independent)
    lhs = 0
    if isinstance(gamma, Discrete):
        for point, w in zip(gamma.points, gamma.weights):
            for j, (lo, hi) in enumerate(cells):
                if (lo < point or (j == 0 and point == lo)) and point <= hi:
                    lhs += w * utilities[j]
                    break
    else:
        for dens, a, b in zip(
            gamma.densities, gamma.breakpoints, gamma.breakpoints[1:]
        ):
            for j, (lo, hi) in enumerate(cells):
                left = max(lo, a)
                right = min(hi, b)
                if right > left:
                    lhs += dens * (right - left) * utilities[j]

    # route 2: cell masses through the interval oracle
    rhs = 0
    for j, (lo, hi) in enumerate(cells):
        rhs += interval_mass(gamma, lo, hi, closed_lo=(j == 0)) * utilities[j]
    return lhs, rhs


def quadrature_expectation(inst: Instance, gamma, p, resolution: float = 1e-5) -> float:
    """Slow float reference for the continuous expectation: composite midpoint
    quadrature at the given resolution, with cells also split at density
    breakpoints and at agent-utility crossings so the piecewise-constant
    integrand is hit exactly up to float rounding."""
    if isinstance(gamma, Discrete):  # atoms: the expectation is a finite sum
        return float(
            sum(
                float(w) * float(best_response(inst, p, float(t)).principal_utility)
                for t, w in zip(gamma.points, gamma.weights)
            )
        )
    pv = np.asarray(p, dtype=float)
    F, r, c = float_arrays(inst)
    fp = F @ pv
    fq = F @ (r - pv)
    edges = set(np.linspace(0.0, 1.0, int(math.ceil(1.0 / resolution)) + 1))
    edges.update(float(b) for b in gamma.breakpoints)
    for a, b in itertools.combinations(range(inst.n_actions), 2):
        dc = float(c[a] - c[b])
        if dc != 0.0:
            edges.add(float(fp[a] - fp[b]) / dc)
    grid = np.array(sorted(edges))
    grid = grid[(grid >= 0.0) & (grid <= 1.0)]
    mids = 0.5 * (grid[:-1] + grid[1:])

    ua = fp[:, None] - c[:, None] * mids[None, :]
    top = ua.max(axis=0)
    eligible = ua >= top[None, :] - 1e-9
    vals = np.where(eligible, fq[:, None], -np.inf).max(axis=0)

    masses = np.diff(cdf(gamma, grid))
    return float(np.dot(masses, vals))


def full_product_solve(
    inst: Instance, gamma: Discrete, bounded: bool = False
) -> tuple[Fraction, tuple[Fraction, ...], dict[tuple[int, ...], str]]:
    """Slow reference for the discrete solver: the LP of every one of the n^k
    action tuples in itertools.product order, the first optimum of largest
    value winning. Returns the winner's re-evaluated value, its contract, and
    the LP status of every tuple."""
    best_value = None
    best_point = None
    statuses = {}
    for tup in itertools.product(range(inst.n_actions), repeat=len(gamma.points)):
        res = contract_for_tuple(inst, gamma, tup, bounded)
        statuses[tup] = res.status
        if res.status == "optimal" and (best_value is None or res.value > best_value):
            best_value, best_point = res.value, res.point
    assert best_point is not None, "no feasible action tuple"
    return expected_principal_utility(inst, gamma, best_point), best_point, statuses


def iter_chains(costs, k: int):
    """Action tuples over k types whose costs do not increase with type, in
    lexicographic order: a prefix filter on itertools.product (every other
    tuple has an infeasible LP), kept as the library enumerated them before
    its branch-and-bound."""
    n = len(costs)
    cheaper = [[b for b in range(n) if costs[b] <= costs[a]] for a in range(n)]
    tup: list[int] = []
    options = [iter(range(n))]
    while options:
        a = next(options[-1], None)
        if a is None:
            options.pop()
            if tup:
                tup.pop()
        elif len(tup) == k - 1:
            yield (*tup, a)
        else:
            tup.append(a)
            options.append(iter(cheaper[a]))


def scan_discrete_optimal(
    inst: Instance, gamma: Discrete, bounded: bool = False
) -> SolveReport:
    """Slow reference for ``solve_discrete_optimal``: the LP of every
    cost-monotone chain in lexicographic order, the first optimum of largest
    value winning, with no bound and no pruning; tuples_solved counts the
    chains."""
    best_value = None
    best_point = None
    count = 0
    for tup in iter_chains([as_fraction(x) for x in inst.c], len(gamma.points)):
        count += 1
        res = contract_for_tuple(inst, gamma, tup, bounded)
        if res.status == "optimal" and (best_value is None or res.value > best_value):
            best_value, best_point = res.value, res.point
    assert best_point is not None, "no feasible action tuple"
    value = expected_principal_utility(inst, gamma, best_point)
    return SolveReport(
        best_contract=best_point,
        value=as_fraction(value) if is_exact(value) else value,
        tuples_solved=count,
    )


def per_type_tuple_lp(inst: Instance, gamma: Discrete, actions, bounded: bool) -> RationalLP:
    """Slow reference for the LP that contract_for_tuple hands to lp_solve:
    the objective built type by type, F_a - F_b recomputed for every
    incentive row, and in the bounded regime the box rows p_w <= 1 after
    them."""
    m = inst.n_outcomes
    F = [[as_fraction(x) for x in row] for row in inst.F]
    r = [as_fraction(x) for x in inst.r]
    c = [as_fraction(x) for x in inst.c]
    weight = [Fraction(0)] * m
    const = Fraction(0)
    for w, a in zip(gamma.weights, actions):
        mass = as_fraction(w)
        const += mass * sum(f * rw for f, rw in zip(F[a], r))
        for j in range(m):
            weight[j] += mass * F[a][j]
    rows = []
    for theta, a in zip(gamma.points, actions):
        for b in range(inst.n_actions):
            if b != a:
                coeffs = tuple(F[a][j] - F[b][j] for j in range(m))
                rows.append((coeffs, ">=", as_fraction(theta) * (c[a] - c[b])))
    if bounded:
        for w in range(m):
            unit = tuple(Fraction(int(j == w)) for j in range(m))
            rows.append((unit, "<=", Fraction(1)))
    return RationalLP(
        objective=tuple(-x for x in weight), constraints=tuple(rows), constant=const
    )


def _row_vertices(inst: Instance, types, box: bool) -> tuple[tuple[Fraction, ...], ...]:
    """Every m-subset of the deduplicated constraint rows (each incentive row
    scaled so its first nonzero coefficient is 1, then the facets x_w = 0 and,
    with box, x_w = 1) solved on its own; nonsingular solutions with x >= 0
    (and x <= 1 with box) are kept, sorted and deduplicated."""
    m = inst.n_outcomes
    F = [[as_fraction(x) for x in row] for row in inst.F]
    c = [as_fraction(x) for x in inst.c]
    pool = {}
    for a in range(inst.n_actions):
        for b in range(a + 1, inst.n_actions):
            coeffs = tuple(F[a][w] - F[b][w] for w in range(m))
            lead = next((x for x in coeffs if x != 0), None)
            if lead is None:
                continue
            for t in types:
                rhs = as_fraction(t) * (c[a] - c[b])
                pool.setdefault((tuple(x / lead for x in coeffs), rhs / lead), None)
    for w in range(m):
        unit = tuple(Fraction(int(j == w)) for j in range(m))
        pool.setdefault((unit, Fraction(0)), None)
        if box:
            pool.setdefault((unit, Fraction(1)), None)
    seen = {}
    for chosen in itertools.combinations(pool, m):
        point = fraction_solve([row for row, _ in chosen], [rhs for _, rhs in chosen])
        if point is not None and all(0 <= x and (x <= 1 or not box) for x in point):
            seen.setdefault(point, None)
    return tuple(sorted(seen))


def candidate_contracts_by_rows(inst: Instance, types) -> tuple[tuple[Fraction, ...], ...]:
    """Slow reference for the candidate contract set: the basic solutions of
    the incentive rows and the box facets that lie in [0,1]^m."""
    return _row_vertices(inst, types, box=True)


def fraction_candidate_contract_set(inst: Instance, types) -> tuple[tuple[Fraction, ...], ...]:
    """Slow reference for ``solver.candidate_contract_set``: the same
    direction classes, one inverse per direction set and one product per
    choice of right-hand sides, all in Fractions, as the library computed
    them before its integer products."""
    m = inst.n_outcomes
    thetas = [as_fraction(t) for t in types]
    F = [[as_fraction(x) for x in row] for row in inst.F]
    c = [as_fraction(x) for x in inst.c]
    classes: dict = {}
    for a in range(inst.n_actions):
        for b in range(a + 1, inst.n_actions):
            coeffs, dc = [x - y for x, y in zip(F[a], F[b])], c[a] - c[b]
            lead = next((x for x in coeffs if x != 0), None)
            if lead is None:
                continue
            direction = tuple(x / lead for x in coeffs)
            for t in thetas:
                classes.setdefault(direction, {}).setdefault(t * dc / lead, None)
    units = [tuple(Fraction(int(j == w)) for j in range(m)) for w in range(m)]
    for unit in units:
        classes.setdefault(unit, {}).update({Fraction(0): None, Fraction(1): None})
    seen = {}
    for dirs in itertools.combinations(classes, m):
        # column j of the inverse solves the system for the unit vector e_j
        cols = [fraction_solve(dirs, unit) for unit in units]
        if cols[0] is None:
            continue
        for rhs in itertools.product(*(classes[d] for d in dirs)):
            point = tuple(sum(col[i] * b for col, b in zip(cols, rhs)) for i in range(m))
            if all(0 <= x <= 1 for x in point):
                seen.setdefault(point, None)
    return tuple(sorted(seen))


def vertex_oracle(inst: Instance, gamma: Discrete) -> Fraction:
    """Independent exact optimum of the unbounded regime (p >= 0): the best
    expected utility over the vertices of the arrangement of the incentive
    hyperplanes and the facets p_w = 0, each type answered by
    ``brute_best_response``.

    Exact because on each closed cell of the arrangement every type keeps
    one agent-best action, so the expected utility is at least one linear
    function there and equal to it inside (ties go the principal's way);
    that function is bounded above by sum_i w_i F_a.r, and the cell is
    pointed since p >= 0, so its maximum over the cell sits at a vertex."""
    return max(
        sum(
            as_fraction(w) * brute_best_response(inst, p, as_fraction(t))[2]
            for t, w in zip(gamma.points, gamma.weights)
        )
        for p in _row_vertices(inst, gamma.points, box=False)
    )


def brute_best_response(
    inst: Instance, p, theta
) -> tuple[int, object, object, frozenset[int]]:
    """Exact-arithmetic reference: scan all actions, keep agent maximizers,
    break ties by principal utility then lowest index.  Returns the action,
    its agent and principal utilities, and the set of agent maximizers."""
    scored = []
    for a in range(inst.n_actions):
        au = sum(f * x for f, x in zip(inst.F[a], p)) - theta * inst.c[a]
        pu = sum(f * (rw - x) for f, rw, x in zip(inst.F[a], inst.r, p))
        scored.append((a, au, pu))
    top = max(s[1] for s in scored)
    tied = [s for s in scored if s[1] == top]
    best_pu = max(s[2] for s in tied)
    winner = min(s[0] for s in tied if s[2] == best_pu)
    au = scored[winner][1]
    pu = scored[winner][2]
    return winner, au, pu, frozenset(s[0] for s in tied)


def per_action_best_response(inst: Instance, p, theta) -> BestResponse:
    """Slow reference for ``best_response``: the per-action scan the library
    used before its response table, recomputing F_a.p through
    ``agent_utility`` for every action, with the same tie rule (exact on
    rational data, TIE_TOL otherwise, then principal utility, then the lowest
    index)."""
    exact = inst.exact and is_exact(theta, *p)
    tol = 0 if exact else TIE_TOL
    utils = [agent_utility(inst, p, a, theta) for a in range(inst.n_actions)]
    cutoff = max(utils) - tol
    ic = [a for a, u in enumerate(utils) if u >= cutoff]
    pus = {a: principal_utility(inst, p, a) for a in ic}
    best = max(pus.values())
    action = min(a for a in ic if pus[a] >= best - tol)
    return BestResponse(
        action=action,
        agent_utility=agent_utility(inst, p, action, theta),
        principal_utility=pus[action],
        ic_set=frozenset(ic),
    )


class FractionResponseTable:
    """Slow reference for the exact path of ``core.ResponseTable``: the
    Fraction sums F_a.p and F_a.(r - p), and the scan and tie rule on
    Fraction agent utilities, as the library computed them before its
    integer kernel."""

    def __init__(self, inst: Instance, p) -> None:
        self.inst = inst
        self.rp = [rw - x for rw, x in zip(inst.r, p)]
        self.fp = [sum(f * x for f, x in zip(row, p)) for row in inst.F]
        self.pu = [sum(f * d for f, d in zip(row, self.rp)) for row in inst.F]

    def eps_set(self, theta, eps) -> tuple[list, list[int]]:
        """Agent utilities at theta and the actions within eps of the best."""
        c = self.inst.c
        utils = [f - theta * c[a] for a, f in enumerate(self.fp)]
        cutoff = max(utils) - eps
        return utils, [a for a, u in enumerate(utils) if u >= cutoff]

    def respond(self, theta) -> BestResponse:
        utils, ic = self.eps_set(theta, 0)
        best = max(self.pu[a] for a in ic)
        action = min(a for a in ic if self.pu[a] >= best)
        return BestResponse(
            action=action,
            agent_utility=utils[action],
            principal_utility=self.pu[action],
            ic_set=frozenset(ic),
        )


def _full_inverse_max_leverage(Z: np.ndarray, w: np.ndarray) -> float:
    G = Z.T @ (Z * w[:, None])
    try:
        M = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return math.inf
    return float(np.einsum("ij,jl,il->i", Z, M, Z).max())


def full_inverse_design(X: ArmSet, tol: float = 0.05) -> np.ndarray:
    """Slow reference for ``g_optimal_design``: the same Frank-Wolfe steps,
    stopping rule and pruning order, but leverages by a 3-operand einsum at
    every step and a full inverse for every pruning trial."""
    if tol <= 0:
        raise UsageError(f"design tolerance must be positive, got {tol}")
    A = X.matrix
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int((s > max(s[0], 1.0) * _RANK_TOL).sum()) if s.size else 0
    if rank == 0:
        raise UsageError("all arms are zero vectors; no design exists")
    Z = A @ Vt[:rank].T
    k = X.k

    w = np.zeros(k)
    basis = _greedy_basis(Z, rank)
    w[basis] = 1.0 / len(basis)
    G = Z.T @ (Z * w[:, None])
    M = np.linalg.inv(G)
    target = (1.0 + tol) * rank
    for it in range(_DESIGN_MAX_ITERS):
        lev = np.einsum("ij,jl,il->i", Z, M, Z)
        i = int(np.argmax(lev))
        lmax = float(lev[i])
        if lmax <= target:
            break
        gamma = (lmax / rank - 1.0) / (lmax - 1.0)
        w *= 1.0 - gamma
        w[i] += gamma
        if (it + 1) % _DESIGN_REFRESH == 0:
            M = np.linalg.inv(Z.T @ (Z * w[:, None]))
        else:
            x = Z[i]
            Mx = M @ x
            a = 1.0 - gamma
            M = M / a - (gamma / (a * a)) * np.outer(Mx, Mx) / (
                1.0 + (gamma / a) * float(x @ Mx)
            )
    w = np.clip(w, 0.0, None)
    w /= w.sum()

    cap = max(block_constant(X.dim), rank)
    support = [int(i) for i in np.argsort(w) if w[i] > 0]
    for i in support:
        if int((w > 0).sum()) <= max(rank, 1):
            break
        trial = w.copy()
        trial[i] = 0.0
        total = trial.sum()
        if total <= 0:
            continue
        trial /= total
        if _full_inverse_max_leverage(Z, trial) <= target:
            w = trial
    if int((w > 0).sum()) > cap:
        # keep the cap's heaviest arms only if the bound still holds
        order = np.argsort(w)[::-1]
        trial = np.zeros_like(w)
        trial[order[:cap]] = w[order[:cap]]
        trial /= trial.sum()
        if _full_inverse_max_leverage(Z, trial) <= target:
            w = trial
    return w


# ---------------------------------------------------------------------------
# A synthetic linear bandit
# ---------------------------------------------------------------------------


class LinearGaussianEnvironment(Environment):
    """Gaussian rewards around linear means, with optional per-arm offsets
    modelling misspecification: a synthetic bandit for the elimination and
    PAC tests, whose true means are known in closed form."""

    def __init__(
        self,
        arms: ArmSet,
        phi: Sequence[float],
        sigma: float = 0.1,
        offsets: Sequence[float] | None = None,
    ) -> None:
        if len(phi) != arms.dim:
            raise UsageError(
                f"parameter length {len(phi)} does not match arm dimension {arms.dim}"
            )
        if sigma < 0:
            raise UsageError(f"noise scale must be nonnegative, got {sigma}")
        self.arms = arms
        self.phi = np.asarray(phi, dtype=float)
        self.sigma = float(sigma)
        self._means = self.arms.matrix @ self.phi
        if offsets is not None:
            if len(offsets) != arms.k:
                raise UsageError("offsets must match arm count")
            self._means = self._means + np.asarray(offsets, dtype=float)

    def pull_sums(
        self, arms: Sequence[int], counts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """One standard normal z per pair with a positive count, in pair
        order, and the sum count * mean + (sigma * sqrt(count)) * z; a count
        of 0 draws nothing and sums to 0.0."""
        n = np.asarray(counts, dtype=np.intp)
        pulled = n > 0
        z = np.zeros(n.size)
        if pulled.any():
            z[pulled] = rng.standard_normal(int(pulled.sum()))
        loc = n * self._means[np.asarray(arms, dtype=np.intp)]
        return np.where(pulled, loc + self.sigma * np.sqrt(n) * z, 0.0).tolist()

    def pull_sum(self, arm: int, count: int, rng: np.random.Generator) -> float:
        """Sum of `count` independent rewards from one arm."""
        return self.pull_sums([arm], [count], rng)[0]

    def true_mean(self, arm: int) -> float:
        return float(self._means[arm])


# ---------------------------------------------------------------------------
# Reward sampling one pair at a time: the slow path of the environments'
# batched ``pull_sums``
# ---------------------------------------------------------------------------


def table_actions(table: ResponseTable, thetas: np.ndarray) -> np.ndarray:
    """``table.respond(theta).action`` for each float theta, through
    ``stacked_actions`` on the one table."""
    return stacked_actions(
        table.fp_arr[None], table.pu_arr[None], table.near_arr[None],
        table.inst.c_arr, np.zeros(thetas.shape, dtype=np.intp), thetas,
    )


def contract_pull_sum(env, arm: int, count: int, rng: np.random.Generator) -> float:
    """Sum of `count` rewards of one arm of a ``ContractEnvironment``, drawn
    alone: count type uniforms, then one draw of outcome uniforms for each
    best-response action in ascending order, each group summed by numpy and
    added as a Python float."""
    if count == 0:
        return 0.0
    table = env.tables[arm]
    thetas = sample_many(env.gamma, rng, count)
    actions = table_actions(table, thetas)
    cum_f = np.cumsum(np.asarray(env.inst.F, dtype=float), axis=1)
    last = env.inst.n_outcomes - 1
    total = 0.0
    for a in np.unique(actions):
        u = rng.random(int((actions == a).sum()))
        omegas = np.minimum(np.searchsorted(cum_f[a], u, side="right"), last)
        total += float(table.rp_arr[omegas].sum())
    return total


def gaussian_pull_sum(env, arm: int, count: int, rng: np.random.Generator) -> float:
    """Sum of `count` rewards of one arm of a ``LinearGaussianEnvironment``,
    drawn alone: one standard normal, scaled by sigma sqrt(count)."""
    if count == 0:
        return 0.0
    loc = count * env.true_mean(arm)
    scale = env.sigma * math.sqrt(count)
    return float(loc + scale * rng.standard_normal())


def pairwise_block_fit(
    A: np.ndarray, arms: Sequence[int], counts: Sequence[int], sums: Sequence[float]
) -> np.ndarray:
    """A block's least-squares estimate with G and b accumulated one outer
    product per (arm, count, sum) in pull order: the slow path of
    ``phased_elimination``'s one-product fit."""
    d = A.shape[1]
    G = np.zeros((d, d))
    b = np.zeros(d)
    for arm, count, reward_sum in zip(arms, counts, sums):
        x = A[arm]
        G += count * np.outer(x, x)
        b += reward_sum * x
    return _solve_estimate(G, b)


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """max |empirical CDF - model CDF| over the sample points; cdf_values
    must correspond to the sorted samples."""
    n = len(samples)
    upper = np.arange(1, n + 1) / n - cdf_values
    lower = cdf_values - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def chi_square(counts: np.ndarray, expected: np.ndarray) -> float:
    return float(((counts - expected) ** 2 / expected).sum())
