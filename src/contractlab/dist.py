"""Type distributions over [0,1]: interval-mass oracle, density bound,
inverse-CDF sampling, and the half-offset discretization grid."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence, TypeAlias, Union

from .errors import UsageError
from .numerics import (
    Num,
    as_fraction,
    check_finite,
    checked_make,
    integer_row,
    is_exact,
    np,
    read_only,
)

_SUM_TOL = 1e-12


def _check_simplex(weights: tuple, what: str) -> None:
    if any(w < 0 for w in weights):
        raise UsageError(f"{what} must be nonnegative")
    total = sum(weights)
    if is_exact(*weights):
        if total != 1:
            raise UsageError(f"{what} must sum to 1 exactly, got {total}")
    elif abs(total - 1.0) > _SUM_TOL:
        raise UsageError(f"{what} must sum to 1, got {total!r}")


class _DiscreteFields(NamedTuple):
    points: tuple[Num, ...]
    weights: tuple[Num, ...]


class Discrete(_DiscreteFields):
    """Finite support on [0,1]; points strictly increasing, weights a simplex."""

    def __new__(cls, points: tuple[Num, ...], weights: tuple[Num, ...]) -> Discrete:
        self = super().__new__(cls, points, weights)
        if len(self.points) != len(self.weights) or not self.points:
            raise UsageError("points and weights must be equal nonzero length")
        check_finite(points=self.points, weights=self.weights)
        if any(p < 0 or p > 1 for p in self.points):
            raise UsageError("points must lie in [0,1]")
        if any(a <= b for a, b in zip(self.points[1:], self.points)):
            raise UsageError("points must be strictly increasing")
        _check_simplex(self.weights, "weights")
        return self

    _make = classmethod(checked_make)
    __setattr__ = read_only

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.weights, dtype=float))


class _PiecewiseFields(NamedTuple):
    breakpoints: tuple[Num, ...]
    densities: tuple[Num, ...]


class PiecewiseConstant(_PiecewiseFields):
    """Density constant on [b_j, b_{j+1}) with 0 = b_0 < ... < b_K = 1."""

    def __new__(
        cls, breakpoints: tuple[Num, ...], densities: tuple[Num, ...]
    ) -> PiecewiseConstant:
        self = super().__new__(cls, breakpoints, densities)
        bp, dens = self.breakpoints, self.densities
        if len(bp) < 2 or len(dens) != len(bp) - 1:
            raise UsageError("need K+1 breakpoints for K densities")
        check_finite(breakpoints=bp, densities=dens)
        if bp[0] != 0 or bp[-1] != 1:
            raise UsageError("breakpoints must start at 0 and end at 1")
        if any(a <= b for a, b in zip(bp[1:], bp)):
            raise UsageError("breakpoints must be strictly increasing")
        if any(d < 0 for d in dens):
            raise UsageError("densities must be nonnegative")
        total = sum(d * (hi - lo) for d, lo, hi in zip(dens, bp, bp[1:]))
        if is_exact(*bp, *dens):
            if total != 1:
                raise UsageError(f"density must integrate to 1 exactly, got {total}")
        elif abs(total - 1.0) > _SUM_TOL:
            raise UsageError(f"density must integrate to 1, got {total!r}")
        return self

    _make = classmethod(checked_make)
    __setattr__ = read_only

    @cached_property
    def _cum(self) -> np.ndarray:
        bp = np.asarray(self.breakpoints, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        return np.concatenate(([0.0], np.cumsum(dens * np.diff(bp))))


TypeDistribution: TypeAlias = Union[Discrete, PiecewiseConstant]


def uniform_distribution() -> PiecewiseConstant:
    return PiecewiseConstant((Fraction(0), Fraction(1)), (Fraction(1),))


def density_bound(d: TypeDistribution) -> Num:
    """sup of the density; defined only for the continuous variant."""
    if isinstance(d, Discrete):
        raise UsageError("density_bound requires a continuous distribution")
    return max(d.densities)


def interval_mass(
    d: TypeDistribution, lo: Num, hi: Num, closed_lo: bool = False
) -> Num:
    """P[theta in (lo, hi]], or [lo, hi] when closed_lo. Exact on exact inputs."""
    if lo < 0 or hi > 1 or lo > hi:
        raise UsageError(f"need 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    if isinstance(d, Discrete):
        total = 0
        for p, w in zip(d.points, d.weights):
            if (lo < p or (closed_lo and p == lo)) and p <= hi:
                total += w
        return total
    total = 0
    for dens, a, b in zip(d.densities, d.breakpoints, d.breakpoints[1:]):
        left = lo if lo > a else a
        right = hi if hi < b else b
        if right > left:
            total += dens * (right - left)
    return total


def grid_size(delta: Num) -> int:
    """Number of half-offset grid points for width delta: ceil(1/delta),
    exact on exact widths, with a 1e-12 slack on float widths."""
    if not 0 < delta <= 1:
        raise UsageError(f"grid width must lie in (0,1], got {delta}")
    if is_exact(delta):
        return math.ceil(Fraction(1) / as_fraction(delta))
    return math.ceil(1.0 / float(delta) - 1e-12)


def grid_points(delta: Num) -> tuple[Num, ...]:
    """Half-offset grid theta_i = (i - 1/2) * delta for i = 1..grid_size(delta),
    with the last point clamped to 1 when it would overshoot."""
    k = grid_size(delta)
    if is_exact(delta):
        dlt = as_fraction(delta)
        pts = [(Fraction(2 * i - 1, 2)) * dlt for i in range(1, k + 1)]
    else:
        pts = [(i - 0.5) * float(delta) for i in range(1, k + 1)]
    if pts[-1] > 1:
        pts[-1] = Fraction(1) if is_exact(delta) else 1.0
    return tuple(pts)


def segment_masses(
    d: PiecewiseConstant, cuts: Sequence[int], den: int
) -> tuple[list[int], int]:
    """The ``interval_mass`` of each segment between consecutive cuts, as
    integers over one returned denominator, in one O(len(cuts) + K) sweep.
    Cuts are integers over den, nondecreasing from 0 to den, and den is a
    multiple of the (exact) breakpoints' denominators."""
    dens, dd = integer_row(d.densities)
    bps = [b.numerator * (den // b.denominator) for b in map(as_fraction, d.breakpoints)]
    masses = []
    j = 0
    for lo, hi in zip(cuts, cuts[1:]):
        # piece j starts at or before lo and ends at or after it; each later
        # piece the segment reaches starts inside the segment
        total = dens[j] * (min(hi, bps[j + 1]) - lo)
        while bps[j + 1] < hi:
            j += 1
            total += dens[j] * (min(hi, bps[j + 1]) - bps[j])
        masses.append(total)
    return masses, den * dd


def discretize(d: TypeDistribution, delta: Num) -> Discrete:
    """Cell masses on the tiling ((i-1)*delta, i*delta] (first cell closed at
    0, last cell clipped at 1) attached to the half-offset grid points, so the
    weights always sum to the full mass: one ``segment_masses`` sweep on an
    exact width and density, else one ``interval_mass`` per cell."""
    pts = grid_points(delta)
    k = len(pts)
    if isinstance(d, PiecewiseConstant) and is_exact(delta, *d.breakpoints, *d.densities):
        dlt = as_fraction(delta)
        den = math.lcm(dlt.denominator, *(as_fraction(b).denominator for b in d.breakpoints))
        step = dlt.numerator * (den // dlt.denominator)
        # (k - 1) delta < 1 <= k delta, so the last cell ends at 1
        masses, total = segment_masses(d, [i * step for i in range(k)] + [den], den)
        return Discrete(pts, tuple(Fraction(x, total) for x in masses))
    one = Fraction(1) if is_exact(delta) else 1.0
    weights = []
    for i in range(1, k + 1):
        lo = (i - 1) * delta
        hi = i * delta
        if hi > 1:
            hi = one
        weights.append(interval_mass(d, lo, hi, closed_lo=(i == 1)))
    return Discrete(tuple(pts), tuple(weights))


def quantile(d: TypeDistribution, u: np.ndarray) -> np.ndarray:
    """Inverse CDF at each uniform in u.  Elementwise: each type depends on
    its own uniform alone, so types drawn in one batch equal those drawn one
    by one."""
    if isinstance(d, Discrete):
        pts = np.asarray(d.points, dtype=float)
        idx = np.searchsorted(d._cum, u, side="left")
        idx = np.clip(idx, 0, len(pts) - 1)
        return pts[idx]
    bp = np.asarray(d.breakpoints, dtype=float)
    dens = np.asarray(d.densities, dtype=float)
    cum = d._cum
    seg = np.clip(np.searchsorted(cum, u, side="left") - 1, 0, len(dens) - 1)
    # zero-density segments carry no mass, so u > cum[seg] implies dens > 0
    safe = np.where(dens[seg] > 0, dens[seg], 1.0)
    return bp[seg] + (u - cum[seg]) / safe


def sample_many(d: TypeDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized inverse-CDF sampling; empirical interval frequencies
    converge to interval_mass at the usual 1/sqrt(N) rate."""
    return quantile(d, rng.random(size))
