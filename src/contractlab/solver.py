"""Exact optimal contracts for discrete-type instances by branch-and-bound
over action chains under a virtual-cost bound, and the finite
distribution-free candidate contract set."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import core
from .core import Contract, Instance
from .dist import Discrete
from .errors import ResourceGuardError, UsageError
from .numerics import (
    LPResult,
    Num,
    RationalLP,
    as_fraction,
    integer_row,
    integer_solve,
    is_exact,
    lp_solve,
)

TUPLE_GUARD = 10**7
BASIS_GUARD = 10**7

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SolveReport:
    """Optimum of a discrete-type instance. tuples_solved is the number of
    cost-monotone action chains the search covers, each one either solved
    as a per-tuple LP or ruled out by the virtual-cost bound."""

    best_contract: Contract
    value: Num
    tuples_solved: int


def contract_for_tuple(
    inst: Instance,
    gamma: Discrete,
    actions: Sequence[int],
    bounded: bool = False,
) -> LPResult:
    """LP for one action-per-type assignment: maximize expected principal
    utility subject to every assigned action being incentive compatible for
    its type, payments >= 0 (and <= 1 in the bounded regime)."""
    # both checks come before any indexing: a negative index would wrap
    k = len(gamma.points)
    if len(actions) != k:
        raise UsageError(f"tuple has {len(actions)} entries, expected {k}")
    for a in actions:
        if not 0 <= a < inst.n_actions:
            raise UsageError(f"action index {a} out of range")
    m, s = inst.n_outcomes, inst.scaled
    thetas = [as_fraction(t) for t in gamma.points]

    # objective: const - sum_w (sum_i gamma_i F[a_i, w]) p_w, with the type
    # masses summed per action first, as integers over one denominator dw:
    # gamma_i = g_i / dw, F = s.F / dF and F_a.r = s.Fr[a] / (dF dr). The
    # regrouping is exact, so each coefficient and the constant are the
    # Fractions of the per-type sum, the RationalLP is the per-type one field
    # for field, and Bland's rule makes the same pivots.
    g, dw = integer_row(gamma.weights)
    mass: dict[int, int] = {}
    for a, ga in zip(actions, g):
        mass[a] = mass.get(a, 0) + ga
    den = dw * s.dF
    weight = [sum(ga * s.F[a][w] for a, ga in mass.items()) for w in range(m)]
    const = Fraction(sum(ga * s.Fr[a] for a, ga in mass.items()), den * s.dr)

    # type theta weakly prefers a to b under p exactly when
    # (F_a - F_b).p >= theta (c_a - c_b)
    diffs = {
        a: [
            (tuple(Fraction(x - y, s.dF) for x, y in zip(s.F[a], fb)),
             Fraction(s.c[a] - cb, s.dc))
            for b, (fb, cb) in enumerate(zip(s.F, s.c))
            if b != a
        ]
        for a in mass
    }
    rows = [
        (coeffs, ">=", theta * dc)
        for theta, a in zip(thetas, actions)
        for coeffs, dc in diffs[a]
    ]
    if bounded:
        for w in range(m):
            unit = tuple(_ONE if j == w else _ZERO for j in range(m))
            rows.append((unit, "<=", _ONE))
    lp = RationalLP(
        objective=tuple(Fraction(-x, den) for x in weight),
        constraints=tuple(rows),
        constant=const,
    )
    return lp_solve(lp)


def chain_count(costs: Sequence[Num], k: int) -> int:
    """Number of action tuples over k types whose costs do not increase with
    type. A DP over the distinct cost levels, costliest first: counts[l] is
    the number of prefixes whose last action costs levels[l], and the next
    position may take any action at that level or a cheaper one."""
    levels = sorted(Counter(costs).items(), reverse=True)
    counts = [mult for _, mult in levels]
    for _ in range(k - 1):
        running = 0
        nxt = []
        for (_, mult), cnt in zip(levels, counts):
            running += cnt
            nxt.append(mult * running)
        counts = nxt
    return sum(counts)


def _chain_gains(inst: Instance, gamma: Discrete) -> tuple[list[list[int]], int]:
    """The chain bound as integers over one denominator: (gain, scale), where
    gain[j][b] / scale = w_j F_b.r - v_j c_b is the virtual-cost term of type
    j playing b, with v_j = theta_j G_j - theta_{j-1} G_{j-1} and G_j = w_0 +
    ... + w_j (G_{-1} = 0). A chain's LP value is at most the sum of its terms.

    Proof. Let U_i = F_{a_i}.p - theta_i c_{a_i} be type i's agent utility.
    The chain LP keeps type i's IC row against a_{i+1}, so U_i >= U_{i+1} +
    (theta_{i+1} - theta_i) c_{a_{i+1}} (trivially when a_{i+1} = a_i); and
    U_{k-1} >= F_z.p >= 0 by IC against the free action z, as p >= 0. Hence
    U_i >= sum_{j>i} (theta_j - theta_{j-1}) c_{a_j}, and the value
    sum_i w_i F_{a_i}.(r - p) = sum_i w_i (F_{a_i}.r - theta_i c_{a_i} - U_i)
    is at most sum_j [w_j (F_{a_j}.r - theta_j c_{a_j}) - (theta_j -
    theta_{j-1}) G_{j-1} c_{a_j}], whose j-th term is gain[j][a_j] / scale,
    as w_j theta_j + (theta_j - theta_{j-1}) G_{j-1} = v_j.
    The box rows of the bounded regime only lower the LP value, so the bound
    holds in both regimes. Myerson's (1981) virtual values, for costs: each
    lower type is left the rent of the types above it.

    Exact in float mode too: every input enters at its binary value."""
    s = inst.scaled
    w = [as_fraction(x) for x in gamma.weights]
    tg = [as_fraction(t) * g for t, g in zip(gamma.points, itertools.accumulate(w))]
    v = [x - y for x, y in zip(tg, [_ZERO, *tg])]
    num_wv, d_wv = integer_row(w + v)
    k = len(w)
    # w_j = num_wv[j] / d_wv, v_j = num_wv[k + j] / d_wv, F_b.r = s.Fr[b] /
    # (dF dr) and c_b = s.c[b] / dc, so each term is an integer over scale
    fr_part = [x * s.dc for x in s.Fr]
    c_part = [x * s.dF * s.dr for x in s.c]
    gain = [
        [wj * x - vj * y for x, y in zip(fr_part, c_part)]
        for wj, vj in zip(num_wv[:k], num_wv[k:])
    ]
    return gain, d_wv * s.dF * s.dr * s.dc


def solve_discrete_optimal(
    inst: Instance, gamma: Discrete, bounded: bool = False
) -> SolveReport:
    """Exact maximum over the per-tuple LPs of the cost-monotone action
    chains, by depth-first branch-and-bound over chain prefixes.

    Every other tuple is infeasible: if types theta_i < theta_j play a and b,
    the IC row of i against b plus the IC row of j against a give
    (theta_j - theta_i)(c_a - c_b) >= 0, so c_a >= c_b, and as types
    strictly increase, adjacent positions suffice. A chain's LP value is at
    most the sum of its virtual-cost terms (``_chain_gains``), and a suffix
    maximum over the cost-allowed actions bounds every completion of a
    prefix. Children are expanded in decreasing order of that bound, ties by
    action index, and a prefix is pruned only when its bound is strictly
    below the best LP value found; the bound is kept on integers over one
    denominator. Every optimal chain has bound >= OPT >= that value, so all
    of them are solved, and the lexicographically smallest wins: the chain
    of a scan of every chain in lexicographic order, first optimum winning. On
    rational inputs the reported value is the winning LP value, which equals
    the model evaluation of the contract (the proof is at the code); on other
    inputs it is that evaluation, with float ties decided within TIE_TOL. It
    is a Fraction on rational inputs and a float on float inputs."""
    n, k = inst.n_actions, len(gamma.points)
    # the integer costs c_b dc keep the order and ties of the costs
    costs = inst.scaled.c
    count = chain_count(costs, k)
    if count > TUPLE_GUARD:
        raise ResourceGuardError(
            f"action-chain enumeration would solve {count} LPs "
            f"({n} actions, {k} types), above the guard of {TUPLE_GUARD}"
        )

    gain, scale = _chain_gains(inst, gamma)
    cheaper = [[b for b in range(n) if costs[b] <= costs[a]] for a in range(n)]
    # rest[i][a], the best sum over positions i.. after action a, is the max
    # over b with c_b <= c_a of gain[i][b] + rest[i + 1][b]
    rest = [[0] * n for _ in range(k + 1)]
    for i in range(k - 1, 0, -1):
        rest[i] = [max(gain[i][b] + rest[i + 1][b] for b in cheaper[a]) for a in range(n)]

    def children(i: int, base: int, allowed: Sequence[int]) -> list:
        # ascending (bound, -b), so pop() takes the best bound, then lowest b
        return sorted((base + gain[i][b] + rest[i + 1][b], -b) for b in allowed)

    best_value: Fraction | None = None
    best_point: tuple[Fraction, ...] | None = None
    best_chain: tuple[int, ...] = ()
    # A bound is an integer x over scale, and for an integer x, x < y exactly
    # when x < ceil(y); so x / scale < best_value exactly when x < cut =
    # ceil(best_value * scale), the strict rule unchanged. No incumbent yet:
    # nothing is pruned.
    cut: float = -math.inf
    # one frame of at most n children per position: O(n k) entries
    prefix: list[int] = []
    sums = [0]
    stack = [children(0, 0, range(n))]
    while stack:
        frame = stack[-1]
        if not frame or frame[-1][0] < cut:
            # the frame is sorted, so every sibling left is pruned too
            stack.pop()
            if prefix:
                prefix.pop()
                sums.pop()
            continue
        b = -frame.pop()[1]
        i = len(prefix)
        if i < k - 1:
            prefix.append(b)
            sums.append(sums[-1] + gain[i][b])
            stack.append(children(i + 1, sums[-1], cheaper[b]))
            continue
        chain = (*prefix, b)
        res = contract_for_tuple(inst, gamma, chain, bounded)
        if res.status != "optimal":
            continue
        assert res.value is not None and res.point is not None
        # a larger value, or an equal value from an earlier chain
        if best_value is None or (res.value, best_chain) > (best_value, chain):
            best_value, best_point, best_chain = res.value, res.point, chain
            cut = math.ceil(best_value * scale)
    # An incumbent always exists. With z a free action, p = 0 meets every IC
    # row of the all-z chain (0 >= -theta c_b) and every box row, and the
    # objective const - weight.p (weight >= 0) is bounded, so that chain's LP
    # is optimal; nothing is pruned before the first incumbent, so it is solved.
    if inst.exact and is_exact(*gamma.points, *gamma.weights):
        # The evaluation of best_point equals best_value. At least: each type
        # i is IC for its chain action a_i at best_point, so a_i is among its
        # agent maximizers, and the principal-favourable tie-break picks an
        # action whose principal utility is at least a_i's. At most: the
        # actions played form a tuple whose LP best_point is feasible for,
        # with the evaluation as its objective, so it is at most that LP's
        # value, which is at most OPT = best_value.
        value: Num = best_value
    else:
        # float ties are decided within TIE_TOL, so evaluate the contract
        value = core.expected_principal_utility(inst, gamma, best_point)
    return SolveReport(
        best_contract=best_point,
        value=value,
        tuples_solved=count,
    )


def candidate_contract_set(
    inst: Instance, types: Sequence[Num]
) -> tuple[Contract, ...]:
    """Finite set of contracts in [0,1]^m containing an expected-utility
    maximizer for every weight vector over the given types: all basic
    solutions of m constraints drawn from the incentive hyperplanes and the
    box facets, filtered to the box and deduplicated exactly.

    The constraints are grouped by direction (canonical coefficient vector),
    each direction holding its right-hand sides; a pair of actions gives one
    direction, from the integer rows of ``Instance.scaled``. Every m-set of
    distinct directions costs one exact inverse, from one elimination on
    [D | I], and each choice of one right-hand side per direction is then one
    matrix-vector product. BASIS_GUARD bounds that work: the sum, over
    m-sets of distinct directions, of the product of their class sizes,
    which is at least the number of direction sets. The products run on
    integers: right-hand sides over one denominator L, each inverse over its
    own D > 0, so a basic solution is x / (D L) and 0 <= x <= D L is the box
    test; only the points that pass become Fractions."""
    m = inst.n_outcomes
    nums, dt = integer_row(types)

    # each type nums[i] / dt gives the rhs theta q, q = (c_a - c_b) / lead;
    # L = dt lq. With F = s.F / dF and c = s.c / dc, the direction is the
    # integer difference over its lead and q = (c'_a - c'_b) dF / (dc lead')
    s = inst.scaled
    ratios: dict[tuple[Fraction, ...], list[Fraction]] = {}
    for a in range(inst.n_actions):
        for b in range(a + 1, inst.n_actions):
            diff = [x - y for x, y in zip(s.F[a], s.F[b])]
            lead = next((x for x in diff if x != 0), None)
            if lead is not None and nums:  # no type, no incentive row
                ratios.setdefault(tuple(Fraction(x, lead) for x in diff), []).append(
                    Fraction((s.c[a] - s.c[b]) * s.dF, s.dc * lead)
                )
    lq = math.lcm(*(q.denominator for qs in ratios.values() for q in qs))
    scale = dt * lq
    classes: dict[tuple[Fraction, ...], dict[int, None]] = {}
    for direction, qs in ratios.items():
        rhs = classes[direction] = {}
        for q in qs:
            f = q.numerator * (lq // q.denominator)
            rhs.update(dict.fromkeys(t * f for t in nums))
    units = [tuple(_ONE if j == w else _ZERO for j in range(m)) for w in range(m)]
    for unit in units:
        classes.setdefault(unit, {}).update({0: None, scale: None})

    # work = e_m(class sizes), the elementary symmetric polynomial, by DP
    sums = [1] + [0] * m
    for rhs in classes.values():
        for j in range(m, 0, -1):
            sums[j] += sums[j - 1] * len(rhs)
    work = sums[m]
    if work > BASIS_GUARD:
        raise ResourceGuardError(
            f"candidate enumeration would test {work} bases ({len(classes)} "
            f"directions, {m} per basis), above the guard of {BASIS_GUARD}"
        )

    # Skipping is exact. Rows with equal canonical coefficients are parallel,
    # so an m-subset of rows holding two of them is singular and has no basic
    # solution. The matrix of a subset of distinct directions depends only on
    # those directions, so it is singular exactly when the direction set is,
    # and then no choice of right-hand sides has a basic solution either.
    seen: dict[tuple[Fraction, ...], None] = {}
    for dirs in itertools.combinations(classes, m):
        solved = integer_solve(dirs, units)
        if solved is None:
            continue
        inverse, den = solved
        top = den * scale
        for rhs in itertools.product(*(classes[d] for d in dirs)):
            point = [sum(map(mul, row, rhs)) for row in inverse]
            if all(0 <= x <= top for x in point):
                seen.setdefault(tuple(Fraction(x, top) for x in point), None)
    return tuple(sorted(seen))
