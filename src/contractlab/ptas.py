"""Additive approximation for continuous type distributions: discretize the
distribution on the half-offset grid, solve the discrete instance exactly,
then robustify the winning contract toward the reward vector."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import core, solver
from .core import Contract, Instance
from .dist import TypeDistribution, discretize, grid_size
from .errors import ResourceGuardError, UsageError
from .numerics import Num, as_fraction, checked_make, is_exact


def _exact_sqrt(x: Fraction) -> Num:
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return math.sqrt(x)


def _check_knobs(**knobs: Num | None) -> None:
    """UsageError naming the first given knob outside (0,1]."""
    for name, x in knobs.items():
        if x is not None and not 0 < x <= 1:
            raise UsageError(f"{name} must lie in (0,1], got {x}")


class _PtasFields(NamedTuple):
    eps: Num
    delta: Num
    alpha: Num


class PtasConfig(_PtasFields):
    """Resolved approximation knobs: grid width delta (default eps^2/16) and
    robustification weight alpha (default sqrt(delta)), giving the additive
    error bound 2(delta/alpha + alpha) = eps at the defaults."""

    __slots__ = ()

    def __new__(cls, eps: Num, delta: Num, alpha: Num) -> PtasConfig:
        _check_knobs(eps=eps, delta=delta, alpha=alpha)
        return super().__new__(cls, eps, delta, alpha)

    _make = classmethod(checked_make)

    @staticmethod
    def from_eps(
        eps: Num, delta: Num | None = None, alpha: Num | None = None
    ) -> "PtasConfig":
        # the defaults square eps and take the root of delta: check first
        _check_knobs(eps=eps, delta=delta)
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


class PtasDiagnostics(NamedTuple):
    """The discrete stage; the knobs and the error bound are on PtasConfig."""

    k: int
    discrete_value: Num
    discrete_contract: Contract


def ptas_contract(
    inst: Instance, gamma: TypeDistribution, cfg: PtasConfig
) -> tuple[Contract, PtasDiagnostics]:
    """Grid-solve-robustify pipeline. The returned contract is within
    2(delta/alpha + alpha) of the optimum against the continuous
    distribution; diagnostics carry the grid and the discrete-stage value.

    The guard runs before the grid is built, and refuses k + 1 above
    ``solver.TUPLE_GUARD`` for every action count. With two or more actions
    there are at least k + 1 cost-monotone chains over k types: all actions
    free gives n^k >= k + 1 chains, and otherwise the switch from a costly
    action to a free one may come at any of k + 1 positions. With one action
    there is one chain, but the grid and its LP still grow with k."""
    k = grid_size(cfg.delta)
    if k + 1 > solver.TUPLE_GUARD:
        if inst.n_actions == 1:
            raise ResourceGuardError(
                f"the grid would hold {k} types (1 action), and {k + 1} is "
                f"above the guard of {solver.TUPLE_GUARD}"
            )
        raise ResourceGuardError(
            f"action-chain enumeration would solve at least {k + 1} LPs "
            f"({inst.n_actions} actions, {k} types), above the guard of "
            f"{solver.TUPLE_GUARD}"
        )
    grid = discretize(gamma, cfg.delta)
    report = solver.solve_discrete_optimal(inst, grid, bounded=False)
    contract = core.robustify(inst, report.best_contract, cfg.alpha)
    diag = PtasDiagnostics(
        k=k,
        discrete_value=report.value,
        discrete_contract=report.best_contract,
    )
    return contract, diag


__all__ = [
    "PtasConfig",
    "PtasDiagnostics",
    "ptas_contract",
]
