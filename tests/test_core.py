"""Instance model, best responses, robustification, expected utilities."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import (
    Discrete,
    Instance,
    UsageError,
    agent_utility,
    best_response,
    core,
    eps_best_responses,
    expected_principal_utility,
    expected_principal_utility_continuous,
    principal_utility,
    robustify,
)
from contractlab.bandit import ArmSet, g_optimal_design
from contractlab.core import TIE_TOL, ResponseTable, stacked_actions
from contractlab.dist import PiecewiseConstant
from contractlab.hardness import cover_contract, reduce
from helpers import (
    FractionResponseTable,
    brute_best_response,
    cdf,
    float_crossings,
    float_instance,
    float_segment_expectation,
    fraction_crossings,
    min_cover,
    per_action_best_response,
    per_type_expectation,
    quadrature_expectation,
    random_atoms,
    random_contract,
    random_instance,
    random_piecewise,
    random_setcover,
    segment_sum_expectation,
    table_actions,
)

F = Fraction


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


def test_instance_validation():
    good = dict(F=((F(1, 2), F(1, 2)),), r=(F(0), F(1)), c=(F(0),))
    Instance(**good)
    with pytest.raises(UsageError):
        Instance(F=((F(1, 2), F(1, 4)),), r=(F(0), F(1)), c=(F(0),))  # row sum
    with pytest.raises(UsageError):
        Instance(F=((F(1, 2), F(1, 2)),), r=(F(0), F(2)), c=(F(0),))  # r > 1
    with pytest.raises(UsageError):
        Instance(F=((F(1, 2), F(1, 2)),), r=(F(0), F(1)), c=(F(-1),))  # c < 0
    with pytest.raises(UsageError):
        Instance(F=((F(1, 2), F(1, 2)),), r=(F(0), F(1)), c=(F(1),))  # no free action
    with pytest.raises(UsageError):
        Instance(F=((F(1, 2), F(1, 2)),), r=(F(0), F(1)), c=(F(0), F(1)))  # shape


def _row_error(*rows) -> str:
    with pytest.raises(UsageError) as err:
        Instance(F=rows, r=(F(0), F(1)), c=(F(0),) * len(rows))
    return str(err.value)


def test_instance_row_messages_pinned(monkeypatch):
    # the exact-row messages, and which row and which check speaks first
    assert _row_error((F(-1, 2), F(3, 2))) == "F row 0 has entries outside [0,1]"
    assert _row_error((F(3, 2), F(0))) == "F row 0 has entries outside [0,1]"
    assert _row_error((F(1, 2), F(1))) == "F row 0 sums to 3/2, expected 1"
    assert _row_error((1, 1)) == "F row 0 sums to 2, expected 1"
    assert _row_error((0, 1), (1, F(1, 2))) == "F row 1 sums to 3/2, expected 1"
    assert _row_error((1, F(1, 4)), (F(1),)) == "F row 0 sums to 5/4, expected 1"
    assert _row_error((F(1), F(0)), (F(1), F(0), F(0))) == (
        "F row 1 has length 3, expected 2"
    )
    assert _row_error((F(1, 2), F(1, 3)), (F(2), F(-1))) == (
        "F row 0 sums to 5/6, expected 1"
    )
    Instance(F=((0, 1), (1, F(0)), (F(1, 3), F(2, 3))), r=(0, 1), c=(0, F(1), 1))
    # a float row, alone or beside exact rows, is held to _ROW_SUM_TOL
    near = (0.5, 0.5 + 1e-13)
    Instance(F=(near, (F(1), F(0))), r=(F(0), F(1)), c=(F(0), F(1)))
    assert _row_error((0.5, 0.5 + 1e-11)) == (
        f"F row 0 sums to {0.5 + (0.5 + 1e-11)!r}, expected 1"
    )
    assert _row_error((F(1), F(0)), (0.5, F(1, 4))) == "F row 1 sums to 0.75, expected 1"
    monkeypatch.setattr(core, "_ROW_SUM_TOL", 0.0)
    assert _row_error(near) == f"F row 0 sums to {0.5 + (0.5 + 1e-13)!r}, expected 1"


@st.composite
def mixed_instances(draw) -> Instance:
    """Random instances whose entries are all exact, all floats, or each one
    either; float rewards and costs may be any float in [0, 1]."""
    gen = random.Random(draw(st.integers(0, 2**32)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = random_instance(gen, n, m, denom=draw(st.sampled_from((1, 7, 12, 10**6))))
    kind = draw(st.sampled_from(("rational", "float", "mixed")))

    def enter(x, any_float=False):
        if kind == "rational" or (kind == "mixed" and draw(st.booleans())):
            return x
        return draw(st.floats(0, 1)) if any_float and draw(st.booleans()) else float(x)

    c = [enter(x, any_float=True) if x else x for x in base.c]
    return Instance(
        F=tuple(tuple(enter(x) for x in row) for row in base.F),
        r=tuple(enter(x, any_float=True) for x in base.r),
        c=tuple(c),
    )


@settings(max_examples=200)
@given(inst=mixed_instances())
def test_scaled_holds_every_entry_at_its_binary_value(inst):
    # one exact form for every instance: floats enter at their binary value,
    # and F_a.r is the exact dot product of those values
    s = inst.scaled
    exact_F = [[Fraction(x) for x in row] for row in inst.F]
    exact_r = [Fraction(x) for x in inst.r]
    assert min(s.dF, s.dr, s.dc) > 0
    assert [[Fraction(x, s.dF) for x in row] for row in s.F] == exact_F
    assert [Fraction(x, s.dr) for x in s.r] == exact_r
    assert [Fraction(x, s.dc) for x in s.c] == [Fraction(x) for x in inst.c]
    assert [Fraction(x, s.dF * s.dr) for x in s.Fr] == [
        sum(f * rw for f, rw in zip(row, exact_r)) for row in exact_F
    ]


# ---------------------------------------------------------------------------
# Pointwise utilities
# ---------------------------------------------------------------------------


def test_utilities_closed_form(desk_instance):
    p = (F(0), F(1, 2))
    assert agent_utility(desk_instance, p, 0, F(1, 3)) == 0
    assert agent_utility(desk_instance, p, 1, F(1, 3)) == F(1, 2) - F(1, 6)
    assert principal_utility(desk_instance, p, 0) == 0
    assert principal_utility(desk_instance, p, 1) == F(1, 2)


def test_full_reward_payment_zeroes_principal(desk_instance):
    p = desk_instance.r
    for a in range(desk_instance.n_actions):
        assert principal_utility(desk_instance, p, a) == 0


def test_null_contract_pays_reward_mean():
    gen = random.Random(1)
    inst = random_instance(gen, 3, 3)
    zero = (F(0),) * 3
    for a in range(3):
        expect = sum(f * rw for f, rw in zip(inst.F[a], inst.r))
        assert principal_utility(inst, zero, a) == expect


def test_contract_validation(desk_instance):
    with pytest.raises(UsageError):
        agent_utility(desk_instance, (F(0),), 0, F(0))
    with pytest.raises(UsageError):
        principal_utility(desk_instance, (F(0), F(-1, 2)), 0)
    with pytest.raises(UsageError):
        agent_utility(desk_instance, (F(0), F(0)), 5, F(0))


# A comparison with NaN is false, so range checks alone let NaN through, and
# an infinite cost or payment is nonnegative.  Every float input must be
# finite, and the error names the field.  Exact entries are finite at any
# size, even beyond the float range.

_NAN, _INF = float("nan"), float("inf")
_FLOAT_DESK = Instance(F=((1.0, 0.0), (0.0, 1.0)), r=(0.0, 1.0), c=(0.0, 0.5))
_EXACT_DESK = Instance(F=((F(1), F(0)), (F(0), F(1))), r=(F(0), F(1)), c=(F(0), F(1, 2)))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Instance(F=((1.0, 0.0), (0.0, 1.0)), r=(0.0, _NAN), c=(0.0, 0.5)),
         "rewards"),
        (lambda: Instance(F=((1.0, 0.0), (_NAN, 1.0)), r=(0.0, 1.0), c=(0.0, 0.5)),
         "F must be finite"),
        (lambda: Instance(F=((1.0, 0.0), (0.0, 1.0)), r=(0.0, 1.0), c=(0.0, _INF)),
         "costs"),
        (lambda: Discrete((0.5,), (_NAN,)), "weights"),
        (lambda: Discrete((_NAN,), (1.0,)), "points"),
        (lambda: PiecewiseConstant((0.0, 1.0), (_NAN,)), "densities"),
        (lambda: PiecewiseConstant((0.0, _NAN, 1.0), (1.0, 1.0)), "breakpoints"),
        (lambda: best_response(_FLOAT_DESK, (0.0, _NAN), 0.5), "payments"),
        (lambda: ResponseTable(_FLOAT_DESK, (0.0, _INF)), "payments"),
        (lambda: robustify(_FLOAT_DESK, (0.0, 0.5), _NAN), "alpha"),
        (lambda: eps_best_responses(_FLOAT_DESK, (0.0, 0.5), 0.5, _NAN), "eps"),
        (lambda: eps_best_responses(_EXACT_DESK, (F(0), F(1, 2)), F(1, 2), _INF), "eps"),
        (lambda: g_optimal_design(ArmSet(arms=((1.0, 0.0), (0.0, 1.0))), tol=_NAN),
         "design tolerance"),
        (lambda: g_optimal_design(ArmSet(arms=((1.0, 0.0), (0.0, 1.0))), tol=_INF),
         "design tolerance"),
    ],
)
def test_non_finite_floats_rejected(build, field):
    with pytest.raises(UsageError, match=field):
        build()


def test_exact_entries_beyond_float_range_accepted():
    big = 10**400
    inst = Instance(F=((F(1), F(0)), (F(0), F(1))), r=(F(0), F(1)), c=(F(0), F(big)))
    assert best_response(inst, (F(0), F(big, 2)), F(1, 2)).action == 0
    Instance(F=((1.0, 0.0), (0.0, 1.0)), r=(0.0, 1.0), c=(0, big))
    Discrete((F(1, 2),), (F(1),))


@pytest.mark.parametrize(
    "c, p, field",
    [
        ((0, 10**400), (0.0, 0.5), "costs"),
        ((0, F(10**400)), (0.0, 0.5), "costs"),
        ((0.0, 0.5), (0.0, 10**400), "payments"),
        ((0.0, 0.5), (F(0), F(10**400, 3)), "payments"),
    ],
)
def test_float_kernel_rejects_exact_entries_beyond_float_range(c, p, field):
    # the instance stays valid; a float table cannot round the entry
    inst = Instance(F=((1.0, 0.0), (0.0, 1.0)), r=(0.0, 1.0), c=c)
    with pytest.raises(UsageError, match=field):
        best_response(inst, p, 0.5)


def test_float_type_on_exact_entries_beyond_float_range():
    # an exact table answers an exact type on integers at any size; a float
    # type takes the float branch, which cannot round the cost
    inst = Instance(F=((F(1), F(0)), (F(0), F(1))), r=(F(0), F(1)), c=(F(0), 10**400))
    assert best_response(inst, (F(0), F(1, 2)), F(1, 2)).action == 0
    with pytest.raises(UsageError) as err:
        best_response(inst, (F(0), F(1, 2)), 0.5)
    assert str(err.value) == "costs must lie within the float range"
    with pytest.raises(UsageError) as err:
        best_response(_EXACT_DESK, (F(0), F(10**400)), 0.5)
    assert str(err.value) == "payments must lie within the float range"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Instance(F=(), r=(F(1),), c=()),
                     "instance needs at least one action and outcome", id="no-action"),
        pytest.param(lambda: Instance(F=((),), r=(), c=(F(0),)),
                     "instance needs at least one action and outcome", id="no-outcome"),
        pytest.param(lambda: Instance(F=_EXACT_DESK.F, r=_EXACT_DESK.r, c=_EXACT_DESK.c,
                                      labels=("idle",)),
                     "labels length must match action count", id="labels"),
    ],
)
def test_instance_shape_checks(build, message):
    with pytest.raises(UsageError) as err:
        build()
    assert type(err.value) is UsageError
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Best response and tie-breaking
# ---------------------------------------------------------------------------


def test_best_response_tie_favors_principal(desk_instance):
    # theta = 1/2, p = (0, 1/4): idle gives 0, work gives 1/4 - 1/4 = 0 (tie);
    # work pays the principal 3/4 vs 0, so the tie resolves to work.
    br = best_response(desk_instance, (F(0), F(1, 4)), F(1, 2))
    assert br.action == 1
    assert br.agent_utility == 0
    assert br.principal_utility == F(3, 4)
    assert br.ic_set == frozenset({0, 1})


def test_best_response_tie_then_lowest_index():
    # two identical rows: agent and principal utilities tie, index 0 wins
    inst = Instance(
        F=((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        r=(F(0), F(1)),
        c=(F(0), F(0)),
    )
    br = best_response(inst, (F(0), F(1, 3)), F(1, 2))
    assert br.action == 0


def test_best_response_float_tolerance(desk_instance):
    # utilities differing by less than 1e-9 on float data count as tied,
    # so the principal-favorable action wins despite the tiny deficit
    br = best_response(desk_instance, (0.0, 0.25 - 1e-12), 0.5)
    assert br.action == 1


def test_best_response_matches_bruteforce():
    gen = random.Random(7)
    for _ in range(60):
        inst = random_instance(gen, gen.randrange(2, 5), gen.randrange(2, 4))
        p = random_contract(gen, inst.n_outcomes)
        theta = F(gen.randrange(0, 13), 12)
        got = best_response(inst, p, theta)
        want_action, want_au, want_pu, _ = brute_best_response(inst, p, theta)
        assert got.action == want_action
        assert got.agent_utility == want_au
        assert got.principal_utility == want_pu


def test_eps_best_responses_brute_filter():
    gen = random.Random(13)
    for _ in range(40):
        inst = random_instance(gen, gen.randrange(2, 5), gen.randrange(2, 4))
        p = random_contract(gen, inst.n_outcomes)
        theta = F(gen.randrange(0, 13), 12)
        eps = F(gen.randrange(0, 4), 20)
        got = eps_best_responses(inst, p, theta, eps)
        utils = [agent_utility(inst, p, a, theta) for a in range(inst.n_actions)]
        top = max(utils)
        want = [a for a, u in enumerate(utils) if u >= top - eps]
        assert got == want


def test_eps_monotone_and_extremes(desk_instance):
    p = (F(0), F(1, 8))
    theta = F(3, 4)
    small = eps_best_responses(desk_instance, p, theta, F(1, 100))
    large = eps_best_responses(desk_instance, p, theta, F(2))
    assert set(small) <= set(large)
    assert large == [0, 1]  # eps above the utility spread admits everything
    zero_p = (F(0), F(0))
    assert eps_best_responses(desk_instance, zero_p, F(1, 2), 0) == [0]


def test_float_eps_on_an_exact_type_is_taken_at_its_binary_value(desk_instance):
    # at theta = 16/27 idle gives 1 and work 8/7 - 8/27, 29/189 below it;
    # float(29/189) is smaller than 29/189, so work is not within eps
    eps = float(F(29, 189))
    assert F(eps) < F(29, 189)
    assert eps_best_responses(desk_instance, (1, F(8, 7)), F(16, 27), eps) == [0]


def test_eps_negative_rejected(desk_instance):
    with pytest.raises(UsageError):
        eps_best_responses(desk_instance, (F(0), F(0)), F(0), F(-1))


def test_membership_transfers_with_type_shift():
    # an exact best response at a nearby type stays eps-best at distance eps
    gen = random.Random(19)
    for _ in range(40):
        inst = random_instance(gen, 3, 2)
        p = random_contract(gen, 2)
        theta = F(gen.randrange(0, 25), 24)
        diam = F(1, gen.randrange(4, 12))
        shift = F(gen.randrange(-2, 3), 24)
        other = min(max(theta + shift, F(0)), F(1))
        if abs(other - theta) > diam:
            continue
        a = best_response(inst, p, other).action
        assert a in eps_best_responses(inst, p, theta, diam)


def test_best_response_interval_structure():
    gen = random.Random(23)
    for _ in range(10):
        inst = random_instance(gen, 4, 3)
        p = random_contract(gen, 3)
        grid = [F(i, 200) for i in range(201)]
        chosen = [best_response(inst, p, t).action for t in grid]
        for a in set(chosen):
            hits = [i for i, b in enumerate(chosen) if b == a]
            assert hits == list(range(hits[0], hits[-1] + 1))


# ---------------------------------------------------------------------------
# Robustification
# ---------------------------------------------------------------------------


def test_robustify_identity_and_full(desk_instance):
    p = (F(1, 5), F(3, 5))
    assert robustify(desk_instance, p, F(0)) == p
    assert robustify(desk_instance, p, F(1)) == desk_instance.r


def test_robustify_componentwise():
    inst = Instance(
        F=((F(1, 2), F(1, 2)),), r=(F(1), F(0)), c=(F(0),)
    )
    assert robustify(inst, (F(1, 5), F(3, 5)), F(1, 2)) == (F(3, 5), F(3, 10))


def test_robustify_may_exceed_one(desk_instance):
    # contracts are unbounded, so the mix of a payment above 1 stays above 1
    assert robustify(desk_instance, (F(0), F(3, 2)), F(1, 2)) == (F(0), F(5, 4))


def test_robustify_alpha_validation(desk_instance):
    with pytest.raises(UsageError):
        robustify(desk_instance, (F(0), F(0)), F(3, 2))


# ---------------------------------------------------------------------------
# Expected utilities
# ---------------------------------------------------------------------------


def test_expected_utility_matches_per_type_loop():
    gen = random.Random(29)
    for _ in range(20):
        inst = random_instance(gen, 3, 3)
        gamma = random_atoms(gen, 3)
        p = random_contract(gen, 3)
        got = expected_principal_utility(inst, gamma, p)
        want = sum(
            w * best_response(inst, p, t).principal_utility
            for t, w in zip(gamma.points, gamma.weights)
        )
        assert got == want


def test_expected_utility_full_reward_is_zero(desk_instance):
    gen = random.Random(31)
    gamma = random_atoms(gen, 2)
    assert expected_principal_utility(desk_instance, gamma, desk_instance.r) == 0


def test_breakpoints_desk(desk_instance):
    # work beats idle iff p2 - theta/2 >= 0, crossing at theta = 2 p2
    assert ResponseTable(desk_instance, (F(0), F(1, 4))).breakpoints() == [0.5]
    assert ResponseTable(desk_instance, (F(0), F(3, 4))).breakpoints() == []


def test_continuous_value_closed_form(desk_instance, uniform_gamma):
    # uniform types: value of p = (0, x) is (1 - x) * min(1, 2x)
    for x in (0.2, 0.375, 0.6):
        got = expected_principal_utility_continuous(
            desk_instance, uniform_gamma, (0.0, x)
        )
        assert got == pytest.approx((1 - x) * min(1.0, 2 * x), abs=1e-9)


def test_continuous_value_piecewise_closed_form(desk_instance):
    gen = random.Random(37)
    for _ in range(5):
        gamma = random_piecewise(gen)
        x = gen.randrange(1, 10) / 20
        got = expected_principal_utility_continuous(desk_instance, gamma, (0.0, x))
        want = (1 - x) * float(cdf(gamma, min(1.0, 2 * x)))
        assert got == pytest.approx(want, abs=1e-9)


def test_continuous_value_discrete_atoms(desk_instance):
    gamma = Discrete(points=(F(1, 4), F(3, 4)), weights=(F(1, 2), F(1, 2)))
    got = expected_principal_utility_continuous(desk_instance, gamma, (0.0, 0.25))
    # theta = 1/4 works (utility 1/8), theta = 3/4 idles: value = (1 - 1/4)/2
    assert got == pytest.approx(0.375)


def test_continuous_value_desk_exact_closed_form(desk_instance):
    # p = (0, x): the agent works iff theta <= 2x, so the value is
    # (1 - x) * CDF(2x), here with the CDF summed by hand in Fractions
    gen = random.Random(41)
    for _ in range(5):
        gamma = random_piecewise(gen)
        for x in (F(1, 20), F(3, 16), F(1, 3), F(1, 2), F(7, 10)):
            t = min(2 * x, F(1))
            cdf_t = sum(
                d * (min(t, b) - a)
                for d, a, b in zip(
                    gamma.densities, gamma.breakpoints, gamma.breakpoints[1:]
                )
                if a < t
            )
            got = expected_principal_utility_continuous(
                desk_instance, gamma, (F(0), x)
            )
            assert isinstance(got, Fraction)
            assert got == (1 - x) * cdf_t


@st.composite
def rational_instances(draw, denom: int = 12) -> Instance:
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 3))
    units = st.integers(0, denom)
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(units, min_size=m - 1, max_size=m - 1)))
        rows.append(
            tuple(F(hi - lo, denom) for lo, hi in zip([0] + cuts, cuts + [denom]))
        )
    c = [F(x, denom) for x in draw(st.lists(units, min_size=n, max_size=n))]
    c[draw(st.integers(0, n - 1))] = F(0)
    r = tuple(F(x, denom) for x in draw(st.lists(units, min_size=m, max_size=m)))
    return Instance(F=tuple(rows), r=r, c=tuple(c))


@st.composite
def piecewise_densities(draw, denom: int = 16) -> PiecewiseConstant:
    cuts = draw(st.lists(st.integers(1, denom - 1), max_size=4, unique=True))
    bps = [F(0)] + [F(x, denom) for x in sorted(cuts)] + [F(1)]
    raw = draw(
        st.lists(st.integers(0, 5), min_size=len(bps) - 1, max_size=len(bps) - 1)
        .filter(any)
    )
    total = sum(w * (b - a) for w, a, b in zip(raw, bps, bps[1:]))
    return PiecewiseConstant(tuple(bps), tuple(w / total for w in raw))


@st.composite
def atom_distributions(draw, denom: int = 12) -> Discrete:
    pts = draw(st.lists(st.integers(0, denom), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 4), min_size=len(pts), max_size=len(pts)))
    return Discrete(
        tuple(F(x, denom) for x in sorted(pts)), tuple(F(w, sum(raw)) for w in raw)
    )


def _contract(data, m: int) -> tuple[Fraction, ...]:
    return data.draw(st.tuples(*[st.integers(0, 24).map(lambda x: F(x, 24))] * m))


@settings(max_examples=60)
@given(
    inst=rational_instances(),
    gamma=piecewise_densities(),
    atoms=atom_distributions(),
    data=st.data(),
)
def test_continuous_value_segment_sum_property(inst, gamma, atoms, data):
    p = _contract(data, inst.n_outcomes)
    got = expected_principal_utility_continuous(inst, gamma, p)
    assert isinstance(got, Fraction)
    assert abs(float(got) - quadrature_expectation(inst, gamma, p)) <= 1e-9
    on_atoms = expected_principal_utility_continuous(inst, atoms, p)
    assert on_atoms == per_type_expectation(inst, atoms, p)


@st.composite
def mean_cases(draw) -> tuple[Instance, PiecewiseConstant, tuple]:
    """An instance with tied costs or a duplicate action now and then, a
    density with zero pieces allowed, and a contract of small Fractions or
    of floats entered at their binary value."""
    inst = draw(rational_instances())
    n, F_, c = inst.n_actions, list(inst.F), list(inst.c)
    if draw(st.booleans()):
        c[1] = c[0]  # tied costs: the pair never crosses
    if draw(st.booleans()):
        F_[n - 1], c[n - 1] = F_[0], c[0]  # a duplicate action
    if 0 in c:
        inst = Instance(F=tuple(F_), r=inst.r, c=tuple(c))
    gamma = draw(piecewise_densities(draw(st.sampled_from((16, 15, 2**40)))))
    m = inst.n_outcomes
    if draw(st.booleans()):
        p = tuple(F(x) for x in draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
    else:
        p = draw(st.tuples(*[st.integers(0, 24).map(lambda x: F(x, 24))] * m))
    return inst, gamma, p


@settings(max_examples=150)
@given(case=mean_cases())
def test_exact_density_mean_matches_fraction_segment_sum(case):
    # the integer sweep adds the same masses times the same principal
    # utilities as the Fraction segment sum, so the Fraction is the same
    inst, gamma, p = case
    table = ResponseTable(inst, p)
    got = table.expected_utility(gamma)
    assert type(got) is Fraction
    assert got == segment_sum_expectation(inst, gamma, p)
    assert table.breakpoints() == fraction_crossings(inst, p)


# One pair loop finds the crossings of both kinds of table.  A float table's
# (num, den) pairs, signs flipped to make den > 0, must give the quotients of
# the loop it replaced (``helpers.float_crossings``) bit for bit, and an exact
# table's the Fraction crossings.  Tied costs and duplicate rows come from
# ``mean_cases``; the float tables take the case's contract as floats, or
# arbitrary floats, under the float instance or the exact one.


@settings(max_examples=150)
@given(case=mean_cases(), data=st.data())
def test_breakpoints_match_independent_crossing_scans(case, data):
    inst, _, p = case
    assert ResponseTable(inst, p).breakpoints() == fraction_crossings(inst, p)
    m = inst.n_outcomes
    drawn = tuple(data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
    for model in (float_instance(inst), inst):
        for q in (tuple(float(x) for x in p), drawn):
            got = ResponseTable(model, q).breakpoints()
            assert [t.hex() for t in got] == [t.hex() for t in float_crossings(model, q)]


# A float density, or a float table under any density, takes the float
# segment sum.  It must be the segment loop it replaced
# (``helpers.float_segment_expectation``) bit for bit: the same segments,
# masses and principal utilities, summed in the same order.


@settings(max_examples=100)
@given(case=mean_cases(), data=st.data())
def test_float_density_mean_matches_segment_loop(case, data):
    inst, gamma, p = case
    finst = Instance(
        F=tuple(tuple(float(f) for f in row) for row in inst.F),
        r=tuple(float(x) for x in inst.r),
        c=tuple(float(x) for x in inst.c),
    )
    fgamma = PiecewiseConstant(
        tuple(float(b) for b in gamma.breakpoints)
        if data.draw(st.booleans()) else gamma.breakpoints,
        tuple(float(d) for d in gamma.densities),
    )
    fp = tuple(float(x) for x in p)
    for model, density, q in (
        (inst, fgamma, p),  # an exact table under a float density
        (finst, fgamma, fp),
        (finst, gamma, fp),  # a float table under an exact density
    ):
        got = ResponseTable(model, q).expected_utility(density)
        want = float_segment_expectation(model, density, q)
        assert type(got) is type(want) is float
        assert got.hex() == want.hex()


@st.composite
def weighted_atoms(draw, denom: int = 12) -> Discrete:
    """Atoms whose weights may be zero, at least one of them positive."""
    pts = draw(st.lists(st.integers(0, denom), min_size=1, max_size=5, unique=True))
    raw = draw(
        st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts)).filter(any)
    )
    return Discrete(
        tuple(F(x, denom) for x in sorted(pts)), tuple(F(w, sum(raw)) for w in raw)
    )


# On atoms the expectation is the per-type loop it replaced: one response per
# type of positive weight, summed in type order.  So it must agree exactly on
# Fractions and bit for bit on floats, where the summation order matters.


@settings(max_examples=60)
@given(inst=rational_instances(), atoms=weighted_atoms(), data=st.data())
def test_expected_utility_on_atoms_matches_per_type_loop(inst, atoms, data):
    p = _contract(data, inst.n_outcomes)
    got = ResponseTable(inst, p).expected_utility(atoms)
    assert isinstance(got, Fraction)
    assert got == per_type_expectation(inst, atoms, p)

    finst = Instance(
        F=tuple(tuple(float(f) for f in row) for row in inst.F),
        r=tuple(float(x) for x in inst.r),
        c=tuple(float(x) for x in inst.c),
    )
    fatoms = Discrete(
        tuple(float(x) for x in atoms.points), tuple(float(w) for w in atoms.weights)
    )
    fp = tuple(float(x) for x in p)
    got = ResponseTable(finst, fp).expected_utility(fatoms)
    want = per_type_expectation(finst, fatoms, fp)
    assert type(got) is type(want) is float
    assert got.hex() == want.hex()


# One table per contract serves every type: with p fixed, the agent utility
# F_a.p - theta c_a is affine in theta and depends on p only through F_a.p,
# and the principal utility F_a.(r - p) does not depend on theta at all.  So
# the table's fp, pu and c decide the best response of any type, ties
# included.  The types below are a grid plus every pairwise crossing of the
# agent utilities, where two of them are equal, so ties are common.


@settings(max_examples=60)
@given(inst=rational_instances(), data=st.data())
def test_response_table_matches_bruteforce(inst, data):
    p = _contract(data, inst.n_outcomes)
    table = ResponseTable(inst, p)
    crossings = table.breakpoints()
    for theta in [F(k, 12) for k in range(13)] + crossings:
        got = table.respond(theta)
        action, au, pu, ic = brute_best_response(inst, p, theta)
        assert (got.action, got.agent_utility, got.principal_utility) == (action, au, pu)
        assert got.ic_set == ic
        assert isinstance(got.agent_utility, Fraction)
        assert isinstance(got.principal_utility, Fraction)


# On exact inputs the table forms F.p and F.(r - p) as integer dot products
# and scans integer agent utilities over one denominator.  It must give the
# very values of the Fraction sums and scan it replaced
# (``helpers.FractionResponseTable``): fp, pu and rp, every field of
# ``respond`` and the eps-set, all Fractions.  Tied costs and duplicated rows
# make agent and principal ties common; the types are 0, 1, the instance's
# own types and every crossing; eps is 0, 1/24 or the gap from the best
# agent utility to another, which puts that action on the cutoff.


@st.composite
def exact_tables(draw) -> tuple[Instance, tuple[Fraction, ...], list[Fraction]]:
    gen = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        sc = random_setcover(gen)
        ri = reduce(sc)
        cover = cover_contract(ri, min_cover(sc))
        p = draw(st.sampled_from([cover, random_contract(gen, ri.inst.n_outcomes)]))
        return ri.inst, p, list(ri.gamma.points)
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    inst = random_instance(gen, n, m, denom=draw(st.sampled_from([2, 4, 12])))
    rows, c = list(inst.F), list(inst.c)
    a, b = gen.sample(range(n), 2)
    if draw(st.booleans()):
        c[b] = c[a]
        if 0 not in c:
            c[a] = c[b] = F(0)
    if draw(st.booleans()):
        rows[b] = rows[a]
    return Instance(F=tuple(rows), r=inst.r, c=tuple(c)), random_contract(gen, m), []


@settings(max_examples=60)
@given(case=exact_tables(), data=st.data())
def test_integer_kernel_matches_fraction_reference(case, data):
    inst, p, types = case
    table, ref = ResponseTable(inst, p), FractionResponseTable(inst, p)
    assert table.exact
    for got, want in ((table.fp, ref.fp), (table.pu, ref.pu), (table.rp, ref.rp)):
        assert got == want
        assert all(isinstance(x, Fraction) for x in got)
    for theta in [0, 1, *types, *table.breakpoints()]:
        got = table.respond(theta)
        assert got == ref.respond(theta)
        assert isinstance(got.agent_utility, Fraction)
        assert isinstance(got.principal_utility, Fraction)
        utils = ref.eps_set(theta, 0)[0]
        gap = max(utils) - utils[data.draw(st.integers(0, len(utils) - 1))]
        for eps in (0, F(1, 24), gap):
            assert table.eps_set(theta, eps)[1] == ref.eps_set(theta, eps)[1]


@settings(max_examples=100)
@given(case=exact_tables(), data=st.data())
def test_float_eps_next_to_a_gap_matches_fraction_rule(case, data):
    # an exact table and type take a float eps at its exact binary value,
    # also when eps is one float step from an agent-utility gap
    inst, p, types = case
    ref = FractionResponseTable(inst, p)
    theta = data.draw(st.sampled_from([0, 1, *types, *ResponseTable(inst, p).breakpoints()]))
    utils = ref.eps_set(theta, 0)[0]
    gap = float(max(utils) - data.draw(st.sampled_from(utils)))
    eps = data.draw(st.sampled_from([gap, math.nextafter(gap, 0), math.nextafter(gap, 1)]))
    assert eps_best_responses(inst, p, theta, eps) == ref.eps_set(theta, F(eps))[1]


# An exact table keeps integer numerators only.  respond builds the one
# principal utility it returns, fp, pu and rp are built on first read, and
# each entry of fp_arr, pu_arr and rp_arr is one int / int.  Python rounds
# that quotient correctly, so the arrays equal numpy's conversion of the
# Fraction lists bit for bit: also for huge, tiny and subnormal values,
# negative ones, and denominators far from powers of two.

_DENOMINATORS = (1, 3, 7, 2**61 - 1, 10**30 + 7, 3 * 10**40)
_SCALES = (F(1), F(10**300, 7), F(2**1000, 3), F(1, 10**300), F(1, 3 * 10**315))


@st.composite
def wide_exact_tables(draw) -> tuple[Instance, tuple[Fraction, ...]]:
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    dens = st.sampled_from(_DENOMINATORS)
    rows = []
    for _ in range(n):
        d = draw(dens)
        cuts = sorted(draw(st.integers(0, d)) for _ in range(m - 1))
        rows.append(tuple(F(b - a, d) for a, b in zip([0, *cuts], [*cuts, d])))
    r = []
    for _ in range(m):
        d = draw(dens)
        r.append(F(draw(st.integers(0, d)), d))
    c = (F(0),) + tuple(F(draw(st.integers(0, 5)), draw(dens)) for _ in range(n - 1))
    p = tuple(
        draw(st.sampled_from(_SCALES)) * F(draw(st.integers(0, 10**6)), draw(dens))
        for _ in range(m)
    )
    return Instance(F=tuple(rows), r=tuple(r), c=c), p


@settings(max_examples=100)
@given(case=wide_exact_tables())
def test_exact_table_arrays_match_fraction_conversion(case):
    inst, p = case
    table, ref = ResponseTable(inst, p), FractionResponseTable(inst, p)
    assert table.exact
    assert table.respond(F(1, 2)) == ref.respond(F(1, 2))
    for got, want in ((table.fp_arr, ref.fp), (table.pu_arr, ref.pu), (table.rp_arr, ref.rp)):
        want = np.asarray(want, dtype=float)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not {"fp", "pu", "rp"} & vars(table).keys()
    assert (table.fp, table.pu, table.rp) == (ref.fp, ref.pu, ref.rp)


def test_exact_table_arrays_overflow_as_fraction_conversion():
    # beyond the float range both conversions raise OverflowError
    table = ResponseTable(_EXACT_DESK, (F(0), F(10**400, 3)))
    for name in ("fp", "pu", "rp"):
        with pytest.raises(OverflowError):
            np.asarray(getattr(table, name), dtype=float)
        with pytest.raises(OverflowError):
            getattr(table, f"{name}_arr")


@settings(max_examples=60)
@given(inst=rational_instances(), data=st.data())
def test_response_table_float_mode_matches_per_action_scan(inst, data):
    finst = Instance(
        F=tuple(tuple(float(f) for f in row) for row in inst.F),
        r=tuple(float(x) for x in inst.r),
        c=tuple(float(x) for x in inst.c),
    )
    p = tuple(float(x) for x in _contract(data, inst.n_outcomes))
    table = ResponseTable(finst, p)
    thetas = [k / 12 for k in range(13)] + table.breakpoints()
    for theta in thetas:
        want = per_action_best_response(finst, p, theta)
        got = table.respond(theta)
        assert got == want
        assert type(got.agent_utility) is type(want.agent_utility) is float
        assert type(got.principal_utility) is type(want.principal_utility) is float
        assert best_response(finst, p, theta) == want


def test_response_table_actions_compare_principal_utilities_exactly():
    # Both actions tie for the agent at theta = 1/2.  pu[0] lies 1e-18 below
    # the float y = 0.5 - TIE_TOL that respond compares it with, so respond
    # drops action 0, although float(pu[0]) rounds up to y.  The vectorised
    # answer must follow respond's exact comparison, not the rounded one.
    y = F(0.5 - TIE_TOL)
    inst = Instance(
        F=((F(1), F(0)), (F(0), F(1))), r=(y - F(1, 10**18), F(3, 4)), c=(F(0), F(1, 2))
    )
    table = ResponseTable(inst, (F(0), F(1, 4)))
    assert float(table.pu[0]) == 0.5 - TIE_TOL
    assert table.respond(0.5).action == 1
    assert table_actions(table, np.array([0.5])).tolist() == [1]


# The vectorised actions (``stacked_actions`` on one table) must equal
# ``respond(float(theta)).action`` at every type, ties included, on the
# rational table, on its float copy, and on a float copy with one reward
# nudged by 5e-10, where equal principal utilities become near-ties that
# TIE_TOL must still treat as ties.  The types are the same grid and
# crossings as above, as floats.


@settings(max_examples=60)
@given(inst=rational_instances(), data=st.data())
def test_response_table_actions_match_respond(inst, data):
    r = [float(x) for x in inst.r]
    w = data.draw(st.integers(0, inst.n_outcomes - 1))
    nudged = list(r)
    nudged[w] += 5e-10 if r[w] < 1 else -5e-10
    F_float = tuple(tuple(float(f) for f in row) for row in inst.F)
    c_float = tuple(float(x) for x in inst.c)
    p = _contract(data, inst.n_outcomes)
    for model in (
        inst,
        Instance(F=F_float, r=tuple(r), c=c_float),
        Instance(F=F_float, r=tuple(nudged), c=c_float),
    ):
        table = ResponseTable(model, p)
        crossings = table.breakpoints()
        thetas = [k / 12 for k in range(13)] + [float(t) for t in crossings]
        got = table_actions(table, np.asarray(thetas))
        assert got.tolist() == [table.respond(t).action for t in thetas]


# The stacked rule answers each row from its own table: rows of several
# tables, interleaved at random over the types and crossings of all of them,
# each give ``respond(float(theta)).action`` of their table, on the same
# three models as above.


@settings(max_examples=40)
@given(inst=rational_instances(), data=st.data())
def test_stacked_actions_answer_each_row_from_its_table(inst, data):
    r = [float(x) for x in inst.r]
    nudged = list(r)
    nudged[0] += 5e-10 if r[0] < 1 else -5e-10
    F_float = tuple(tuple(float(f) for f in row) for row in inst.F)
    c_float = tuple(float(x) for x in inst.c)
    k = data.draw(st.integers(1, 4))
    contracts = [_contract(data, inst.n_outcomes) for _ in range(k)]
    for model in (
        inst,
        Instance(F=F_float, r=tuple(r), c=c_float),
        Instance(F=F_float, r=tuple(nudged), c=c_float),
    ):
        tables = [ResponseTable(model, p) for p in contracts]
        thetas = [k / 12 for k in range(13)]
        thetas += [float(t) for table in tables for t in table.breakpoints()]
        rows = data.draw(
            st.lists(
                st.integers(0, len(tables) - 1), min_size=len(thetas), max_size=len(thetas)
            )
        )
        got = stacked_actions(
            np.array([t.fp_arr for t in tables]),
            np.array([t.pu_arr for t in tables]),
            np.array([t.near_arr for t in tables]),
            model.c_arr,
            np.array(rows, dtype=np.intp),
            np.asarray(thetas),
        )
        assert got.tolist() == [tables[i].respond(t).action for i, t in zip(rows, thetas)]
