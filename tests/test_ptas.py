"""Approximation pipeline: config algebra, grid-solve-robustify, identity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from contractlab import (
    Discrete,
    Instance,
    PtasConfig,
    ResourceGuardError,
    UsageError,
    expected_principal_utility_continuous,
    ptas_contract,
    uniform_distribution,
)
from contractlab import ptas, solver
from helpers import (
    grid_best_continuous,
    random_contract,
    random_instance,
    random_piecewise,
    verify_discretization_identity,
)

F = Fraction


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_from_eps_exact_defaults():
    cfg = PtasConfig.from_eps(F(1, 2))
    assert cfg.delta == F(1, 64)
    assert cfg.alpha == F(1, 8)
    assert cfg.error_bound == F(1, 2)  # 2(delta/alpha + alpha) == eps


def test_from_eps_float_defaults():
    cfg = PtasConfig.from_eps(0.3)
    assert cfg.delta == pytest.approx(0.005625)
    assert cfg.alpha == pytest.approx(0.075)
    assert cfg.error_bound == pytest.approx(0.3)


def test_error_bound_is_four_root_delta():
    # with alpha = sqrt(delta): 2(delta/alpha + alpha) = 4 sqrt(delta)
    cfg = PtasConfig.from_eps(F(1, 2), delta=F(1, 16))
    assert cfg.alpha == F(1, 4)
    assert cfg.error_bound == F(1)


def test_config_overrides_and_validation():
    cfg = PtasConfig.from_eps(F(2, 5), delta=F(1, 4), alpha=F(1, 2))
    assert (cfg.delta, cfg.alpha) == (F(1, 4), F(1, 2))
    assert cfg.error_bound == 2 * (F(1, 2) + F(1, 2))
    with pytest.raises(UsageError):
        PtasConfig.from_eps(F(3, 2))
    with pytest.raises(UsageError):
        PtasConfig.from_eps(F(1, 2), delta=F(2))
    with pytest.raises(UsageError):
        PtasConfig.from_eps(F(1, 2), alpha=F(0))


@pytest.mark.parametrize(
    "eps, delta, alpha, message",
    [
        # the defaults take a square root of delta: a negative one is refused first
        (F(1, 2), F(-1), None, "delta must lie in (0,1], got -1"),
        (0.5, -1.0, None, "delta must lie in (0,1], got -1.0"),
        (F(0), F(-1), None, "eps must lie in (0,1], got 0"),
        (F(1, 2), F(1, 4), F(3, 2), "alpha must lie in (0,1], got 3/2"),
    ],
)
def test_config_checks_come_before_defaults(eps, delta, alpha, message):
    with pytest.raises(UsageError) as err:
        PtasConfig.from_eps(eps, delta, alpha)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def test_ptas_desk_uniform_frozen(desk_instance, uniform_gamma):
    cfg = PtasConfig.from_eps(F(2, 5), delta=F(1, 4), alpha=F(1, 2))
    contract, diag = ptas_contract(desk_instance, uniform_gamma, cfg)
    # grid types (1/8, 3/8, 5/8, 7/8): all four work at price 7/16, and the
    # robustified payment is (7/16 + 1)/2
    assert diag.k == 4
    assert diag.discrete_contract == (F(0), F(7, 16))
    assert diag.discrete_value == F(9, 16)
    assert contract == (F(0), F(23, 32))
    assert cfg.error_bound == 2


def test_ptas_single_cell_degenerate(desk_instance, uniform_gamma):
    cfg = PtasConfig.from_eps(F(1), delta=F(1), alpha=F(1, 2))
    contract, diag = ptas_contract(desk_instance, uniform_gamma, cfg)
    # one grid type 1/2: one-type optimum (0, 1/4), then mixed toward r
    assert diag.k == 1
    assert diag.discrete_contract == (F(0), F(1, 4))
    assert contract == (F(0), F(5, 8))


def test_ptas_guarantee_on_random_instances():
    gen = random.Random(61)
    cfg = PtasConfig.from_eps(F(2, 5), delta=F(1, 4), alpha=F(1, 2))
    for _ in range(3):
        inst = random_instance(gen, 3, 2)
        gamma = random_piecewise(gen)
        contract, diag = ptas_contract(inst, gamma, cfg)
        achieved = expected_principal_utility_continuous(inst, gamma, contract)
        opt_grid = grid_best_continuous(inst, gamma, step=0.02, cells=500)
        assert achieved >= opt_grid - float(cfg.error_bound) - 0.05


def test_chain_guard_runs_before_the_grid(desk_instance, uniform_gamma, monkeypatch):
    # DESK has exactly k + 1 cost-monotone chains over k types, so the guard
    # before the grid refuses exactly what the solver's guard would refuse
    monkeypatch.setattr(solver, "TUPLE_GUARD", 100)
    _, diag = ptas_contract(desk_instance, uniform_gamma, PtasConfig.from_eps(F(1), F(1, 99)))
    assert diag.k == 99

    def no_grid(gamma, delta):
        raise AssertionError("the chain guard must not build the grid")

    monkeypatch.setattr(ptas, "discretize", no_grid)
    with pytest.raises(ResourceGuardError) as err:
        ptas_contract(desk_instance, uniform_gamma, PtasConfig.from_eps(F(1), F(1, 100)))
    assert str(err.value) == (
        "action-chain enumeration would solve at least 101 LPs "
        "(2 actions, 100 types), above the guard of 100"
    )


def test_grid_guard_on_one_action(uniform_gamma, monkeypatch):
    # one action has one chain at any k, so the guard bounds the grid itself
    inst = Instance(F=((F(1), F(0)),), r=(F(0), F(1)), c=(F(0),))
    monkeypatch.setattr(solver, "TUPLE_GUARD", 100)
    _, diag = ptas_contract(inst, uniform_gamma, PtasConfig.from_eps(F(1), F(1, 99)))
    assert diag.k == 99

    def no_grid(gamma, delta):
        raise AssertionError("the grid guard must not build the grid")

    monkeypatch.setattr(ptas, "discretize", no_grid)
    with pytest.raises(ResourceGuardError) as err:
        ptas_contract(inst, uniform_gamma, PtasConfig.from_eps(F(1), F(1, 100)))
    assert str(err.value) == (
        "the grid would hold 100 types (1 action), and 101 is above the guard of 100"
    )


# ---------------------------------------------------------------------------
# Discretization identity
# ---------------------------------------------------------------------------


def test_identity_single_cell(desk_instance, uniform_gamma):
    p = (F(1, 5), F(2, 5))
    lhs, rhs = verify_discretization_identity(
        desk_instance, uniform_gamma, [(F(0), F(1))], [1], p
    )
    assert lhs == rhs


def test_identity_uniform_four_cells(desk_instance, uniform_gamma):
    gen = random.Random(67)
    cells = [
        (F(0), F(1, 4)),
        (F(1, 4), F(1, 2)),
        (F(1, 2), F(3, 4)),
        (F(3, 4), F(1)),
    ]
    for _ in range(10):
        actions = [gen.randrange(2) for _ in cells]
        p = random_contract(gen, 2)
        lhs, rhs = verify_discretization_identity(
            desk_instance, uniform_gamma, cells, actions, p
        )
        assert lhs == rhs


def test_identity_piecewise_and_discrete(desk_instance):
    gen = random.Random(71)
    cells = [(F(0), F(1, 3)), (F(1, 3), F(5, 8)), (F(5, 8), F(1))]
    for _ in range(10):
        gamma = random_piecewise(gen)
        actions = [gen.randrange(2) for _ in cells]
        p = random_contract(gen, 2)
        lhs, rhs = verify_discretization_identity(
            desk_instance, gamma, cells, actions, p
        )
        assert lhs == rhs
    atoms = Discrete(
        points=(F(0), F(1, 3), F(2, 3)), weights=(F(1, 4), F(1, 4), F(1, 2))
    )
    lhs, rhs = verify_discretization_identity(
        desk_instance, atoms, cells, [1, 0, 1], (F(0), F(1, 2))
    )
    assert lhs == rhs


def test_identity_validation(desk_instance, uniform_gamma):
    with pytest.raises(UsageError):
        verify_discretization_identity(
            desk_instance, uniform_gamma, [(F(0), F(1, 2))], [0], (F(0), F(0))
        )
    with pytest.raises(UsageError):
        verify_discretization_identity(
            desk_instance,
            uniform_gamma,
            [(F(0), F(1, 2)), (F(2, 3), F(1))],
            [0, 0],
            (F(0), F(0)),
        )
    with pytest.raises(UsageError):
        verify_discretization_identity(
            desk_instance, uniform_gamma, [(F(0), F(1))], [0, 1], (F(0), F(0))
        )
