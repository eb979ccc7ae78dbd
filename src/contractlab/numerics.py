"""Exact-rational simplex LP solving, exact linear solves, and the seeded
RNG used by every stochastic component."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence, TypeAlias

import numpy as np

from .errors import UsageError

Num: TypeAlias = "int | float | Fraction"
Relation: TypeAlias = Literal["<=", ">=", "=="]
LPStatus: TypeAlias = Literal["optimal", "infeasible", "unbounded"]


def as_fraction(x: Num) -> Fraction:
    """Exact conversion; floats map to their exact binary value."""
    return x if isinstance(x, Fraction) else Fraction(x)


def is_exact(*values: object) -> bool:
    """True when every scalar (recursing into sequences) is an int or Fraction."""
    for v in values:
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            continue
        if isinstance(v, (list, tuple)):
            if not is_exact(*v):
                return False
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# Exact rational LP (tiny dense problems; Bland's rule for determinism)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalLP:
    """maximize objective . x  subject to rows, x >= 0.

    constraints: (coefficients, relation, rhs) rows. upper_bounds entries may
    be None for free-above variables. constant is added to the optimal value.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Relation, Fraction], ...]
    upper_bounds: tuple[Fraction | None, ...] | None = None
    constant: Fraction = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    point: tuple[Fraction, ...] | None
    value: Fraction | None


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows: list[list[Fraction]], basis: list[int], r: int, col: int) -> None:
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


def _simplex_phase(
    rows: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
) -> LPStatus:
    """Maximize cost . x over the tableau in place. Bland's rule throughout:
    entering = lowest improving column, leaving = lowest basic index on ratio
    ties, which guarantees termination on degenerate tableaus."""
    ncols = len(rows[0]) - 1
    while True:
        # reduced costs d_j = c_j - c_B . column_j
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
        best_ratio: Fraction | None = None
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
        _pivot(rows, basis, leaving, entering)


def lp_solve(lp: RationalLP) -> LPResult:
    """Exact two-phase simplex. Returns a basic feasible optimum (a vertex of
    the feasible region) with every constraint satisfied exactly."""
    n = len(lp.objective)
    for coeffs, rel, _ in lp.constraints:
        if len(coeffs) != n:
            raise UsageError("constraint dimension mismatch")
        if rel not in ("<=", ">=", "=="):
            raise UsageError(f"unknown relation {rel!r}")
    if lp.upper_bounds is not None and len(lp.upper_bounds) != n:
        raise UsageError("upper_bounds length mismatch")

    # fold upper bounds in as rows x_j <= ub_j
    rows_in: list[tuple[list[Fraction], Relation, Fraction]] = [
        (list(coeffs), rel, rhs) for coeffs, rel, rhs in lp.constraints
    ]
    if lp.upper_bounds is not None:
        for j, ub in enumerate(lp.upper_bounds):
            if ub is None:
                continue
            if ub < 0:
                return LPResult("infeasible", None, None)
            unit = [_ZERO] * n
            unit[j] = _ONE
            rows_in.append((unit, "<=", ub))

    m = len(rows_in)
    n_slack = sum(1 for _, rel, _ in rows_in if rel != "==")
    slack_cols = n + n_slack
    art_needed = []
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    si = 0
    for coeffs, rel, rhs in rows_in:
        row = list(coeffs) + [_ZERO] * n_slack
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        if rel == "<=":
            row[n + si] = _ONE
            basis.append(n + si)
            art_needed.append(False)
            si += 1
        elif rel == ">=":
            row[n + si] = -_ONE
            basis.append(-1)  # placeholder, artificial assigned below
            art_needed.append(True)
            si += 1
        else:
            basis.append(-1)
            art_needed.append(True)
        row.append(rhs)
        rows.append(row)

    n_art = sum(art_needed)
    total = slack_cols + n_art
    ai = 0
    for i in range(m):
        rows[i] = rows[i][:-1] + [_ZERO] * n_art + [rows[i][-1]]
        if art_needed[i]:
            rows[i][slack_cols + ai] = _ONE
            basis[i] = slack_cols + ai
            ai += 1

    if n_art:
        cost1 = [_ZERO] * total
        for j in range(slack_cols, total):
            cost1[j] = -_ONE
        status = _simplex_phase(rows, basis, cost1)
        assert status == "optimal"  # phase 1 is always bounded
        infeas = sum(rows[i][-1] for i in range(m) if basis[i] >= slack_cols)
        if infeas != 0:
            return LPResult("infeasible", None, None)
        # drive leftover zero-valued artificials out of the basis
        for i in range(m):
            if basis[i] >= slack_cols:
                col = next(
                    (j for j in range(slack_cols) if rows[i][j] != 0), None
                )
                if col is not None:
                    _pivot(rows, basis, i, col)
        keep = [i for i in range(m) if basis[i] < slack_cols]
        rows = [rows[i][:slack_cols] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
        total = slack_cols

    cost2 = [_ZERO] * total
    for j in range(n):
        cost2[j] = lp.objective[j]
    if rows:
        status = _simplex_phase(rows, basis, cost2)
    else:
        status = "unbounded" if any(c > 0 for c in lp.objective) else "optimal"
    if status == "unbounded":
        return LPResult("unbounded", None, None)

    y = [_ZERO] * total
    for i, b in enumerate(basis):
        y[b] = rows[i][-1]
    point = tuple(y[:n])
    value = sum(
        (c * v for c, v in zip(lp.objective, point)), start=_ZERO
    ) + lp.constant
    return LPResult("optimal", point, value)


def rational_solve(
    matrix: Sequence[Sequence[Num]], rhs: Sequence[Num]
) -> tuple[Fraction, ...] | None:
    """Solve a square system exactly; None when the matrix is singular."""
    n = len(rhs)
    aug = [
        [as_fraction(v) for v in row] + [as_fraction(b)]
        for row, b in zip(matrix, rhs)
    ]
    if any(len(row) != n + 1 for row in aug) or len(aug) != n:
        raise UsageError("rational_solve needs a square system")
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        inv = _ONE / prow[col]
        aug[col] = [v * inv for v in prow]
        prow = aug[col]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
    return tuple(aug[i][-1] for i in range(n))


# ---------------------------------------------------------------------------
# Seeded RNG (counter-based Philox core)
# ---------------------------------------------------------------------------


def rng_new(seed: int) -> np.random.Generator:
    """Seeded random stream on numpy's counter-based Philox bit generator;
    one seed always reproduces one draw sequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def llog2(d: int) -> float:
    """max(0, log2 log2 d), clamped to 0 for d <= 2 where the double log
    is zero or undefined."""
    if d <= 2:
        return 0.0
    return max(0.0, math.log2(math.log2(d)))
