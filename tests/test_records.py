"""The library's records are NamedTuples with fixed fields.

Their fields, order and defaults are pinned here.  The types that check
their input check it on every way of building one: keywords, positions,
``_make`` and ``_replace``.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from contractlab.bandit import (
    ArmSet,
    BlockRecord,
    EliminationState,
    PacContractResult,
    PacResult,
    RegretRun,
)
from contractlab.core import BestResponse, Instance, ScaledInstance
from contractlab.dist import Discrete, PiecewiseConstant
from contractlab.errors import UsageError
from contractlab.hardness import (
    IfDirectionReport,
    OnlyIfReport,
    OnlyIfTypeCheck,
    ReducedInstance,
    ReductionParams,
    SetCoverInput,
    TypeCheck,
    TypePartition,
)
from contractlab.numerics import LPResult, RationalLP
from contractlab.ptas import PtasConfig, PtasDiagnostics
from contractlab.solver import SolveReport

F = Fraction

# Each record's fields in order: callers unpack records and build them by
# position, so the order is part of the interface.
FIELDS = {
    Instance: ("F", "r", "c", "labels"),
    BestResponse: ("action", "agent_utility", "principal_utility", "ic_set"),
    Discrete: ("points", "weights"),
    PiecewiseConstant: ("breakpoints", "densities"),
    RationalLP: ("objective", "constraints", "constant"),
    LPResult: ("status", "point", "value"),
    SetCoverInput: ("n", "sets"),
    ReductionParams: ("rho", "eta", "eps_r", "mu"),
    ReducedInstance: ("sc", "params", "inst", "gamma", "interior_actions", "star_action"),
    TypeCheck: (
        "theta", "action", "agent_utility", "principal_utility", "in_target_family",
        "value_matches",
    ),
    IfDirectionReport: (
        "ok", "total", "ell", "total_matches_ell", "per_type", "interior_utility_capped",
        "star_payment", "star_payment_dominates",
    ),
    TypePartition: ("e1", "e2"),
    OnlyIfTypeCheck: ("element", "klass", "action", "principal_utility", "bound", "within_bound"),
    OnlyIfReport: (
        "ok", "partition", "per_type", "theta0_action", "theta0_utility", "theta0_plays_star",
        "theta0_matches_formula", "theta0_within_formula", "sbar", "e1_covered_by_sbar",
        "total", "aggregate_bound", "total_le_aggregate", "pstar_coefficient",
        "pstar_coefficient_nonpositive", "pstar_zero_bound", "coefficient_chain_value",
        "coefficient_chain_negative", "small_gap_step_holds",
    ),
    ArmSet: ("arms", "contracts"),
    BlockRecord: (
        "ell", "t_ell", "active_before", "pulls", "phi_hat", "threshold", "active_after",
        "complete",
    ),
    EliminationState: ("active", "phi_hat", "history", "blocks"),
    RegretRun: ("opt_ref", "curve", "state"),
    PacResult: ("arm", "blocks", "samples", "state"),
    PacContractResult: ("contract", "samples", "blocks", "eps", "alpha", "dimension", "n_arms"),
    PtasConfig: ("eps", "delta", "alpha"),
    PtasDiagnostics: ("k", "discrete_value", "discrete_contract"),
    SolveReport: ("best_contract", "value", "tuples_solved"),
}
DEFAULTS = {Instance: {"labels": None}, RationalLP: {"constant": F(0)}, ArmSet: {"contracts": None}}

DESK = {"F": ((F(1), F(0)), (F(0), F(1))), "r": (F(0), F(1)), "c": (F(0), F(1, 2)), "labels": None}
TWO_TYPES = {"points": (F(1, 4), F(3, 4)), "weights": (F(1, 2), F(1, 2))}
UNIFORM = {"breakpoints": (F(0), F(1)), "densities": (F(1),)}
SYSTEM = {"n": 3, "sets": ((1, 2), (2, 3))}
KNOBS = {"eps": F(1), "delta": F(1, 16), "alpha": F(1, 4)}
ARMS = {"arms": ((0.5, 1.0), (-1.0, 0.0)), "contracts": None}

# Valid keywords of the types that check their input; the other records
# take any values.
VALID = {
    Instance: DESK,
    Discrete: TWO_TYPES,
    PiecewiseConstant: UNIFORM,
    SetCoverInput: SYSTEM,
    PtasConfig: KNOBS,
    ArmSet: ARMS,
}


def keywords(cls: type) -> dict:
    return VALID.get(cls) or {name: f"<{name}>" for name in FIELDS[cls]}


def test_every_record_is_pinned():
    modules = ["bandit", "core", "dist", "hardness", "numerics", "ptas", "solver"]
    found = {
        obj
        for mod in modules
        for name, obj in vars(importlib.import_module(f"contractlab.{mod}")).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and not name.startswith("_")
        and obj.__module__ == f"contractlab.{mod}"
    }
    assert found == set(FIELDS) | {ScaledInstance}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_shape(cls):
    assert cls._fields == FIELDS[cls]
    assert cls._field_defaults == DEFAULTS.get(cls, {})
    kw = keywords(cls)
    record = cls(**kw)
    assert type(record) is cls
    assert record == cls(*kw.values()) == tuple(kw.values())
    shown = ", ".join(f"{name}={value!r}" for name, value in kw.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    # read-only: no field is set, and no new attribute is added
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


# (type, field, bad value, the UsageError message)
BAD = [
    (Instance, "c", (F(1, 2), F(1, 2)), "at least one action must have zero cost"),
    (Instance, "F", ((F(1), F(0)), (F(1, 2), F(1, 4))), "F row 1 sums to 3/4, expected 1"),
    (Instance, "labels", ("idle",), "labels length must match action count"),
    (Discrete, "points", (0.1, 0.2, 0.3), "points and weights must be equal nonzero length"),
    (Discrete, "weights", (F(1, 2), F(1, 4)), "weights must sum to 1 exactly, got 3/4"),
    (PiecewiseConstant, "densities", (F(2),), "density must integrate to 1 exactly, got 2"),
    (PiecewiseConstant, "breakpoints", (F(1), F(0)), "breakpoints must start at 0 and end at 1"),
    (SetCoverInput, "n", 1, "universe size must be at least 2, got 1"),
    (SetCoverInput, "sets", ((1, 4),), "subset 1 has elements outside 1..3"),
    (SetCoverInput, "sets", ((1,), ()), "subset 2 is empty"),
    (PtasConfig, "alpha", F(2), "alpha must lie in (0,1], got 2"),
    (PtasConfig, "delta", 0, "delta must lie in (0,1], got 0"),
    (ArmSet, "arms", ((0.5,), (2.0,)), "arm 1 has coordinates outside [-1,1]"),
    (ArmSet, "contracts", ((F(0),),), "contract tags must match arm count"),
]


BAD_IDS = [f"{cls.__name__}.{field}-{i}" for i, (cls, field, _, _) in enumerate(BAD)]


@pytest.mark.parametrize("cls, field, value, message", BAD, ids=BAD_IDS)
def test_checks_hold_on_every_construction_path(cls, field, value, message):
    good = cls(**VALID[cls])
    bad = {**VALID[cls], field: value}
    builds = [
        lambda: cls(**bad),
        lambda: cls(*bad.values()),
        lambda: cls._make(bad.values()),
        lambda: good._replace(**{field: value}),
    ]
    for build in builds:
        with pytest.raises(UsageError) as info:
            build()
        assert str(info.value) == message


def test_set_cover_sets_normalised_on_every_path():
    sc = SetCoverInput(3, ((2, 1, 2), (3,)))
    assert sc.sets == ((1, 2), (3,))
    assert SetCoverInput(n=3, sets=[[3, 3, 1]]).sets == ((1, 3),)
    assert SetCoverInput._make((3, [(3, 2, 3)])).sets == ((2, 3),)
    assert sc._replace(sets=((3, 1, 3),)) == (3, ((1, 3),))
    assert sc._replace(n=4) == (4, ((1, 2), (3,)))


def test_replace_starts_a_fresh_cache():
    inst = Instance(**DESK)
    assert inst.scaled.c == [0, 1] and inst.exact
    cheaper = inst._replace(c=(F(0), F(1, 3)))
    assert type(cheaper) is Instance
    assert cheaper.scaled.c == [0, 1] and cheaper.scaled.dc == 3
    floats = inst._replace(c=(0.0, 0.5))
    assert not floats.exact
    # the cached forms sit beside the fields, and are as read-only as they are
    assert set(vars(inst)) >= {"exact", "scaled"}
    with pytest.raises(AttributeError):
        inst.exact = False
    assert inst.exact
