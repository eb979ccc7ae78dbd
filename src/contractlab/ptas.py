"""Additive approximation for continuous type distributions: discretize the
distribution on the half-offset grid, solve the discrete instance exactly,
then robustify the winning contract toward the reward vector."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import core, solver
from .core import Contract, Instance
from .dist import Discrete, TypeDistribution, discretize, interval_mass
from .errors import UsageError
from .numerics import Num, as_fraction, is_exact


def _exact_sqrt(x: Fraction) -> Num:
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return math.sqrt(x)


@dataclass(frozen=True)
class PtasConfig:
    """Resolved approximation knobs: grid width delta (default eps^2/16) and
    robustification weight alpha (default sqrt(delta)), giving the additive
    error bound 2(delta/alpha + alpha) = eps at the defaults."""

    eps: Num
    delta: Num
    alpha: Num

    def __post_init__(self) -> None:
        if not 0 < self.delta <= 1:
            raise UsageError(f"delta must lie in (0,1], got {self.delta}")
        if not 0 < self.alpha <= 1:
            raise UsageError(f"alpha must lie in (0,1], got {self.alpha}")
        if self.eps <= 0:
            raise UsageError(f"eps must be positive, got {self.eps}")

    @staticmethod
    def from_eps(
        eps: Num, delta: Num | None = None, alpha: Num | None = None
    ) -> "PtasConfig":
        if eps <= 0 or eps > 1:
            raise UsageError(f"eps must lie in (0,1], got {eps}")
        if delta is None:
            delta = as_fraction(eps) ** 2 / 16 if is_exact(eps) else eps * eps / 16
        if alpha is None:
            alpha = (
                _exact_sqrt(as_fraction(delta))
                if is_exact(delta)
                else math.sqrt(delta)
            )
        return PtasConfig(eps=eps, delta=delta, alpha=alpha)

    @property
    def error_bound(self) -> Num:
        return 2 * (self.delta / self.alpha + self.alpha)


@dataclass(frozen=True)
class PtasDiagnostics:
    """The discrete stage; the knobs and the error bound are on PtasConfig."""

    k: int
    discrete_value: Num
    discrete_contract: Contract


def ptas_contract(
    inst: Instance, gamma: TypeDistribution, cfg: PtasConfig
) -> tuple[Contract, PtasDiagnostics]:
    """Grid-solve-robustify pipeline. The returned contract is within
    2(delta/alpha + alpha) of the optimum against the continuous
    distribution; diagnostics carry the grid and the discrete-stage value."""
    grid = discretize(gamma, cfg.delta)
    report = solver.solve_discrete_optimal(inst, grid, bounded=False)
    contract = core.robustify(inst, report.best_contract, cfg.alpha)
    diag = PtasDiagnostics(
        k=len(grid.points),
        discrete_value=report.value,
        discrete_contract=report.best_contract,
    )
    return contract, diag


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

    utilities = [core.principal_utility(inst, p, a) for a in cell_actions]

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


__all__ = [
    "PtasConfig",
    "PtasDiagnostics",
    "ptas_contract",
    "verify_discretization_identity",
]
