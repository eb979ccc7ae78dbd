"""Exact-rational simplex LP solving, exact linear solves, and the seeded
RNG used by every stochastic component."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from types import ModuleType
from typing import Iterable, Literal, NamedTuple, Sequence, TypeAlias

from .errors import UsageError


def _lazy_numpy() -> ModuleType:
    """numpy, executed on its first attribute access (the LazyLoader recipe
    of the importlib docs), so the exact paths, which never touch an array,
    start without it.  A numpy already imported is used as it is; a missing
    numpy still fails here, at import time.

    Once this module sits in sys.modules, any ``import numpy`` statement
    loads it in full, because the import system reads its ``__spec__``: this
    function is the one numpy import in the package, and no module may touch
    an ``np`` attribute at import time (annotations are strings under
    ``from __future__ import annotations``).  On older Pythons LazyLoader's
    first load takes no lock; contractlab starts no threads.  After that
    load the module's class is plain ModuleType again, so attribute access
    costs what it always did."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

Num: TypeAlias = "int | float | Fraction"
Relation: TypeAlias = Literal["<=", ">="]
LPStatus: TypeAlias = Literal["optimal", "infeasible", "unbounded"]


def as_fraction(x: Num) -> Fraction:
    """Exact conversion; floats map to their exact binary value."""
    return x if isinstance(x, Fraction) else Fraction(x)


def check_finite(**fields: Sequence[Num]) -> None:
    """UsageError naming the first field that holds a NaN or infinite float.
    Exact values are finite at any size (math.isfinite would overflow)."""
    for what, values in fields.items():
        if not all(math.isfinite(x) for x in values if isinstance(x, float)):
            raise UsageError(f"{what} must be finite")


def check_float_range(**fields: Sequence[Num]) -> None:
    """UsageError naming the first field that holds an exact value with no
    finite float, for the float kernel, which rounds every entry."""
    for what, values in fields.items():
        try:
            list(map(float, values))
        except OverflowError:
            raise UsageError(f"{what} must lie within the float range") from None


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


def checked_make(cls: type, iterable: Iterable) -> tuple:
    """``_make`` of a NamedTuple subclass whose ``__new__`` checks the
    fields: the inherited one, which ``_replace`` calls, builds through
    ``tuple.__new__`` and would skip the checks."""
    return cls(*iterable)


def read_only(self: object, name: str, value: object) -> None:
    """``__setattr__`` of a record whose cached values sit in its
    ``__dict__``: neither a field nor a cache can be set after it is built
    (``cached_property`` stores into ``__dict__`` directly)."""
    raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is read-only")


# ---------------------------------------------------------------------------
# Exact rational LP (tiny dense problems; Bland's rule for determinism)
# ---------------------------------------------------------------------------


class RationalLP(NamedTuple):
    """maximize objective . x  subject to rows, x >= 0.

    constraints: (coefficients, relation, rhs) rows, relation "<=" or ">=".
    constant is added to the optimal value.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Relation, Fraction], ...]
    constant: Fraction = Fraction(0)


class LPResult(NamedTuple):
    status: LPStatus
    point: tuple[Fraction, ...] | None
    value: Fraction | None


_ZERO = Fraction(0)


def integer_row(values: Sequence[Num], scale: int = 0) -> tuple[list[int], int]:
    """The row times scale, by default the lcm of its denominators, and that
    scale (a common multiple of the denominators when given)."""
    ratios = [as_fraction(v).as_integer_ratio() for v in values]
    scale = scale or math.lcm(*(d for _, d in ratios))
    return [x * (scale // d) for x, d in ratios], scale


def _pivot(rows: list[list[int]], r: int, s: int, d: int) -> int:
    """One fraction-free (Bareiss 1968) elimination step on column s with
    pivot row r; returns the new denominator p = rows[r][s].

    rows / d is the rational tableau before the step and rows / p after it:
    row r is kept and every other row becomes (row * p - row[s] * rows[r]) / d.
    The division is exact. Started from an integer matrix whose basic
    columns are unit columns with d = 1, each entry equals, up to one common
    sign, a minor of the starting matrix (the adjugate of the basis times
    that matrix), and d is the basis determinant."""
    p = rows[r][s]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[s]
        if f:
            rows[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        elif p != d:
            rows[i] = [a * p // d for a in row]
    return p


def _simplex_phase(
    rows: list[list[int]], basis: list[int], cost: list[int], d: int
) -> tuple[LPStatus, int]:
    """Maximize cost . x over the integer tableau rows / d (d > 0) in place;
    returns the status and the final denominator. Bland's rule throughout:
    entering = lowest improving column, leaving = lowest basic index on ratio
    ties, which guarantees termination on degenerate tableaus. cost has one
    entry per column, so with no rows a positive cost is unbounded."""
    while True:
        # d times the reduced cost c_j - c_B . column_j / d, same sign as d > 0
        priced = [(cost[b], row) for b, row in zip(basis, rows) if cost[b]]
        in_basis = set(basis)
        entering = -1
        for j in range(len(cost)):
            if j in in_basis:
                continue
            if cost[j] * d - sum(c * row[j] for c, row in priced if row[j]) > 0:
                entering = j
                break
        if entering < 0:
            return "optimal", d
        # the ratio rows[i][-1] / rows[i][s], compared by cross-multiplying
        # the positive pivot candidates
        leaving = -1
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = row[-1] * rows[leaving][entering]
                rhs = rows[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return "unbounded", d
        d = _pivot(rows, leaving, entering, d)
        basis[leaving] = entering


def lp_solve(lp: RationalLP) -> LPResult:
    """Exact two-phase simplex. Returns a basic feasible optimum (a vertex of
    the feasible region) with every constraint satisfied exactly.

    The tableau is kept fraction-free: integers T and a denominator D > 0
    with T / D the rational tableau. Each input row, after the rhs < 0 flip,
    is scaled by the lcm L_i of its denominators, and its slack and
    artificial entries are set to +-1, which scales those columns by 1/L_i.
    So the starting basis is the identity with D = 1, phase 1 maximizes
    -sum a_i / L_i (costs -lcm / L_i over the rescaled artificials, a
    positive multiple) and phase 2 an integer positive multiple of the
    objective. The tableau then equals the plain rational one of the input
    up to positive row scaling and positive column scaling (slacks and
    artificials only), and that scaling keeps the sign of every reduced cost
    and the order of every ratio. So Bland's rule picks the same entering
    and leaving pair at every step, and the vertex, status and value are
    those of the unscaled simplex."""
    n = len(lp.objective)
    for coeffs, rel, _ in lp.constraints:
        if len(coeffs) != n:
            raise UsageError("constraint dimension mismatch")
        if rel not in ("<=", ">="):
            raise UsageError(f"unknown relation {rel!r}")

    # every row gets a slack column; a ">=" row (after the flip) also gets
    # an artificial column, which starts in the basis
    m = len(lp.constraints)
    slack_cols = n + m
    rows: list[list[int]] = []
    basis: list[int] = []
    art_scales: list[int] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        ints, scale = integer_row([*coeffs, rhs])
        if ints[-1] < 0:
            ints = [-v for v in ints]
            rel = ">=" if rel == "<=" else "<="
        row = ints[:-1] + [0] * m + [ints[-1]]
        if rel == "<=":
            row[n + i] = 1
            basis.append(n + i)
        else:
            row[n + i] = -1
            basis.append(slack_cols + len(art_scales))
            art_scales.append(scale)
        rows.append(row)
    n_art = len(art_scales)
    for row, b in zip(rows, basis):  # the artificial columns, before the rhs
        row[-1:-1] = [int(b == slack_cols + j) for j in range(n_art)]

    d = 1
    if n_art:
        big = math.lcm(*art_scales)
        cost1 = [0] * slack_cols + [-(big // scale) for scale in art_scales]
        status, d = _simplex_phase(rows, basis, cost1, d)
        assert status == "optimal"  # phase 1 is always bounded
        if any(rows[i][-1] for i in range(m) if basis[i] >= slack_cols):
            return LPResult("infeasible", None, None)
        # drive leftover zero-valued artificials out of the basis (a ">="
        # row with rhs 0 can leave one there); a negative pivot here flips
        # the sign of T and D together to keep D > 0. A column is always
        # found and no row is dropped: an artificial's column and its row's
        # surplus column start as exact negatives and every pivot is a row
        # operation, so a basic artificial's row holds -d != 0 in a column
        # below slack_cols.
        for i in range(m):
            if basis[i] >= slack_cols:
                col = next(j for j in range(slack_cols) if rows[i][j])
                d = _pivot(rows, i, col, d)
                basis[i] = col
                if d < 0:
                    rows = [[-v for v in row] for row in rows]
                    d = -d
        rows = [row[:slack_cols] + [row[-1]] for row in rows]

    objective, _ = integer_row(lp.objective)
    status, d = _simplex_phase(rows, basis, objective + [0] * m, d)
    if status == "unbounded":
        return LPResult("unbounded", None, None)

    y = [_ZERO] * n
    for row, b in zip(rows, basis):
        if b < n:
            y[b] = Fraction(row[-1], d)
    point = tuple(y)
    value = sum(
        (c * v for c, v in zip(lp.objective, point)), start=_ZERO
    ) + lp.constant
    return LPResult("optimal", point, value)


def integer_solve(
    matrix: Sequence[Sequence[Num]], rhs: Sequence[Sequence[Num]]
) -> tuple[list[list[int]], int] | None:
    """Solve matrix . X = rhs exactly as integers over one denominator:
    (rows, d) with X = rows / d and d > 0; row i of rhs holds equation i's
    right-hand sides (any number of columns), and the unit rows give the
    inverse. None when the square matrix is singular. Gauss-Jordan on the
    augmented rows scaled to integers, with the simplex's fraction-free
    step; scaling an augmented row leaves every column's solution unchanged."""
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise UsageError("an exact solve needs a square system")
    aug = [integer_row([*row, *b])[0] for row, b in zip(matrix, rhs)]
    d = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        d = _pivot(aug, col, col, d)
    # every pivot row ends with d on its diagonal
    sign = 1 if d > 0 else -1
    return [[sign * v for v in row[n:]] for row in aug], sign * d


def rational_solve(
    matrix: Sequence[Sequence[Num]], rhs: Sequence[Sequence[Num]]
) -> tuple[tuple[Fraction, ...], ...] | None:
    """``integer_solve`` as Fractions: X as rows, None when singular."""
    solved = integer_solve(matrix, rhs)
    if solved is None:
        return None
    rows, d = solved
    return tuple(tuple(Fraction(v, d) for v in row) for row in rows)


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
