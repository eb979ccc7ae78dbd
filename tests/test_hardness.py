"""Set-cover reduction: construction, exact values, and both verifiers."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import UsageError, agent_utility, eps_best_responses, solve_discrete_optimal
from contractlab.hardness import (
    ReductionParams,
    SetCoverInput,
    classify_types,
    cover_contract,
    ell_value,
    gap_value,
    is_cover,
    reduce,
    verify_if_direction,
    verify_onlyif_bounds,
)
from helpers import (
    fraction_reduce,
    fraction_verify_if_direction,
    fraction_verify_onlyif_bounds,
    min_cover,
    min_cover_size,
    per_action_best_response,
    random_contract,
    random_setcover,
    three_element_setcover,
)

F = Fraction


# ---------------------------------------------------------------------------
# Inputs and parameters
# ---------------------------------------------------------------------------


def test_setcover_input_normalization():
    sc = SetCoverInput(n=3, sets=((2, 1, 2), (3,)))
    assert sc.sets == ((1, 2), (3,))
    assert sc.m == 2
    with pytest.raises(UsageError):
        SetCoverInput(n=1, sets=((1,),))
    with pytest.raises(UsageError):
        SetCoverInput(n=3, sets=((),))
    with pytest.raises(UsageError):
        SetCoverInput(n=3, sets=((4,),))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda ri: SetCoverInput(n=3, sets=()), "need at least one subset",
                     id="no-subsets"),
        pytest.param(lambda ri: ReductionParams.for_size(3, 0),
                     "need at least one subset, got 0", id="params-no-subsets"),
    ],
)
def test_input_checks(three_element_reduced, build, message):
    with pytest.raises(UsageError) as err:
        build(three_element_reduced)
    assert type(err.value) is UsageError
    assert str(err.value) == message


def test_reduction_params_frozen():
    params = ReductionParams.for_size(3, 4)
    assert params.rho == F(1, 729)
    assert params.eta == F(1, 9)
    assert params.eps_r == F(1, 26244)
    assert params.mu == F(1, 78732)


def test_cover_predicates():
    sc = three_element_setcover()
    assert is_cover(sc, (2, 3))
    assert is_cover(sc, (1, 3))
    assert not is_cover(sc, (2, 4))
    assert min_cover_size(sc) == 2
    assert min_cover_size(SetCoverInput(n=2, sets=((1,),))) is None


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_reduce_shape_and_labels(three_element_reduced):
    ri = three_element_reduced
    inst, gamma = ri.inst, ri.gamma
    # one productive action and one shadow per (element, containing set) pair
    pairs = sum(len(s) for s in ri.sc.sets)
    assert inst.n_actions == 2 * pairs + 2 == 14
    assert inst.n_outcomes == 4 + 2
    assert gamma.points == (F(0), F(1, 3), F(2, 3), F(1))
    assert gamma.weights == (F(1, 729), F(728, 2187), F(728, 2187), F(728, 2187))
    assert sum(gamma.weights) == 1
    labels = inst.labels
    assert labels is not None
    assert labels[ri.star_action] == "astar"
    assert labels[ri.interior_actions[(1, 3)]] == "a[1,S3]"
    # the shadow and null rows are named by their labels alone
    assert labels.count("abar[1,S3]") == labels.count("anull") == 1


def test_reduce_rows_and_costs(three_element_reduced):
    ri = three_element_reduced
    inst = ri.inst
    mu, eta, eps = ri.params.mu, ri.params.eta, ri.params.eps_r
    m = ri.sc.m
    for row in inst.F:
        assert sum(row) == 1
    # interior action for element i = 2, set S2 = {2}
    a = ri.interior_actions[(2, 2)]
    row = inst.F[a]
    assert row[2 - 1] == mu / 4  # set j has outcome j - 1; mu / (2 i)
    assert row[ri.star_outcome] == mu / 2
    assert inst.c[a] == mu / 16  # mu / (4 i^2)
    # its shadow carries slightly less mass and cost, and no star mass
    s = inst.labels.index("abar[2,S2]")
    srow = inst.F[s]
    assert srow[2 - 1] == (mu / 4) * (1 - eta / 2)
    assert srow[ri.star_outcome] == 0
    assert inst.c[s] == (mu / 16) * (1 - eta)
    # the always-succeeding action and the free sink
    star = inst.F[ri.star_action]
    assert all(star[j - 1] == eps for j in range(1, m + 1))
    assert star[ri.star_outcome] == 1 - m * eps
    assert inst.c[ri.star_action] == 1
    null = inst.labels.index("anull")
    assert inst.F[null][ri.bar_outcome] == 1
    assert inst.c[null] == 0
    # rewards: only the star outcome pays, 1/n
    assert inst.r[ri.star_outcome] == F(1, 3)
    assert sum(inst.r) == F(1, 3)


def test_cover_contract_payments(three_element_reduced):
    p = cover_contract(three_element_reduced, (2, 3))
    assert p == (F(0), F(1, 3), F(1, 3), F(0), F(0), F(0))
    assert cover_contract(three_element_reduced, (2, 3, 2)) == p  # duplicates collapse
    with pytest.raises(UsageError):
        cover_contract(three_element_reduced, (9,))


# ---------------------------------------------------------------------------
# Exact target values
# ---------------------------------------------------------------------------


def _ell_reference(n: int, m: int, k: int) -> Fraction:
    # independent recomputation from the defining sum
    params = ReductionParams.for_size(n, m)
    interior = sum(F(1, i) for i in range(1, n + 1)) * params.mu / (2 * n * n)
    star = (1 - m * params.eps_r - params.eps_r * k) * F(1, n)
    return (1 - params.rho) * interior + params.rho * star


def test_ell_value_frozen_and_reference():
    assert ell_value(3, 4, 2) == F(177607, 387420489)
    for n, m, k in ((2, 1, 1), (3, 4, 2), (4, 5, 3)):
        assert ell_value(n, m, k) == _ell_reference(n, m, k)
    with pytest.raises(UsageError):
        ell_value(3, 4, 5)


def test_gap_value_frozen():
    assert gap_value(3, 4) == F(1, 57395628)
    assert gap_value(2, 1) == F(1, 32768)
    for n, m in ((2, 1), (3, 4), (4, 5)):
        params = ReductionParams.for_size(n, m)
        assert gap_value(n, m) == params.rho * params.eps_r / n
        assert gap_value(n, m) == F(1, n**15 * m)
    for n, m in ((1, 1), (3, 0)):
        with pytest.raises(UsageError):
            gap_value(n, m)


# ---------------------------------------------------------------------------
# If direction
# ---------------------------------------------------------------------------


def test_if_direction_three_element_system(three_element_reduced):
    rep = verify_if_direction(three_element_reduced, (2, 3))
    assert rep.ok
    assert rep.total == rep.ell == ell_value(3, 4, 2)
    assert rep.total_matches_ell
    assert rep.interior_utility_capped
    assert rep.star_payment == F(1, 39366)
    assert rep.star_payment_dominates
    assert rep.per_type[0].theta == 0
    labels = three_element_reduced.inst.labels
    chosen = [labels[t.action] for t in rep.per_type]
    assert chosen == ["astar", "a[1,S3]", "a[2,S2]", "a[3,S3]"]
    assert all(t.in_target_family and t.value_matches for t in rep.per_type)


def test_if_direction_tie_structure(three_element_reduced):
    # each positive type is exactly indifferent between the productive
    # actions and their shadows over the covering sets
    ri = three_element_reduced
    p = cover_contract(ri, (2, 3))
    ic = eps_best_responses(ri.inst, p, F(1, 3), 0)
    covered = {ri.interior_actions[(1, 3)], ri.inst.labels.index("abar[1,S3]")}
    assert covered <= set(ic)
    assert ri.interior_actions[(1, 1)] not in ic  # S1 gets no payment


def test_if_direction_requires_cover(three_element_reduced):
    with pytest.raises(UsageError):
        verify_if_direction(three_element_reduced, (2,))


def test_if_direction_random_systems():
    gen = random.Random(73)
    for _ in range(5):
        sc = random_setcover(gen)
        ri = reduce(sc)
        cover = min_cover(sc)
        rep = verify_if_direction(ri, cover)
        assert rep.ok
        assert rep.total == ell_value(sc.n, sc.m, len(cover))


def test_if_direction_matches_per_action_scan():
    gen = random.Random(89)
    for _ in range(4):
        sc = random_setcover(gen)
        ri = reduce(sc)
        cover = min_cover(sc)
        p = cover_contract(ri, cover)
        rep = verify_if_direction(ri, cover)
        slow = [per_action_best_response(ri.inst, p, t) for t in ri.gamma.points]
        assert [t.action for t in rep.per_type] == [b.action for b in slow]
        assert [t.agent_utility for t in rep.per_type] == [b.agent_utility for b in slow]
        assert rep.total == sum(
            w * b.principal_utility for w, b in zip(ri.gamma.weights, slow)
        )
        capped = all(
            agent_utility(ri.inst, p, a, F(i, sc.n)) <= ri.params.mu / (4 * i * sc.n)
            for i in range(1, sc.n + 1)
            for a in ri.interior_actions.values()
        )
        assert rep.interior_utility_capped == capped


def test_interior_cap_fails_on_a_cheaper_paid_interior_action(three_element_reduced):
    # Under a cover contract type i/n gets exactly mu/(4in) from a paid
    # interior action (i, s), so the cap holds with equality.  Halving that
    # action's cost lifts it above the cap; an unpaid one stays at most 0.
    ri, cover = three_element_reduced, (2, 3)
    p = cover_contract(ri, cover)
    n, mu = ri.sc.n, ri.params.mu
    for (_, s), a in ri.interior_actions.items():
        c = list(ri.inst.c)
        c[a] /= 2
        low = ri._replace(inst=ri.inst._replace(c=tuple(c)))
        scan = all(
            agent_utility(low.inst, p, b, F(i, n)) <= mu / (4 * i * n)
            for i in range(1, n + 1)
            for b in low.interior_actions.values()
        )
        assert verify_if_direction(low, cover).interior_utility_capped == scan
        assert scan == (s not in cover)


# ---------------------------------------------------------------------------
# Only-if direction
# ---------------------------------------------------------------------------


def test_classify_types_on_cover_contract(three_element_reduced):
    part = classify_types(three_element_reduced, cover_contract(three_element_reduced, (2, 3)))
    assert part.e1 == frozenset({1, 2, 3})
    assert part.e2 == frozenset()


def test_onlyif_cover_contract(three_element_reduced):
    p = cover_contract(three_element_reduced, (2, 3))
    rep = verify_onlyif_bounds(three_element_reduced, p)
    assert rep.ok
    assert rep.theta0_plays_star
    assert rep.theta0_matches_formula
    assert rep.sbar == frozenset({2, 3})
    assert rep.e1_covered_by_sbar
    assert rep.total == ell_value(3, 4, 2)
    assert rep.total_le_aggregate
    assert rep.total == rep.aggregate_bound  # tight at the cover contract
    assert rep.pstar_coefficient == F(-159617, 129140163)
    # small-universe caveats are reported, not asserted
    assert not rep.coefficient_chain_negative
    assert not rep.small_gap_step_holds


def test_onlyif_random_contract_stress(three_element_reduced):
    gen = random.Random(79)
    m_out = three_element_reduced.inst.n_outcomes
    for _ in range(50):
        p = tuple(F(gen.randrange(0, 25), 72) for _ in range(m_out))
        rep = verify_onlyif_bounds(three_element_reduced, p)
        assert rep.ok
        assert all(t.within_bound for t in rep.per_type)
        assert rep.theta0_within_formula


def test_onlyif_matches_per_action_scan():
    # one table answers each type once; the report must agree with an
    # independent per-type scan on actions, utilities, classes and total
    gen = random.Random(83)
    for _ in range(4):
        sc = random_setcover(gen)
        ri = reduce(sc)
        for _ in range(10):
            q = random_contract(gen, sc.m + 2)
            rep = verify_onlyif_bounds(ri, q)
            slow = [per_action_best_response(ri.inst, q, t) for t in ri.gamma.points]
            assert rep.theta0_action == slow[0].action
            assert rep.theta0_utility == slow[0].principal_utility
            assert [t.action for t in rep.per_type] == [b.action for b in slow[1:]]
            assert [t.principal_utility for t in rep.per_type] == [
                b.principal_utility for b in slow[1:]
            ]
            assert rep.total == sum(
                w * b.principal_utility for w, b in zip(ri.gamma.weights, slow)
            )
            assert rep.partition == classify_types(ri, q)


# The aggregate bound is affine in p*: the zero type's term and each class
# cap are a constant plus a slope times p*, so aggregate_bound equals
# pstar_zero_bound + pstar_coefficient p* exactly.  The caps and the
# aggregate are written out below as the only-if argument states them.

_ONLYIF_SYSTEMS = (
    reduce(SetCoverInput(n=3, sets=((1, 2), (2, 3), (1, 3), (3,)))),
    reduce(SetCoverInput(n=4, sets=((1, 2), (2, 3), (3, 4), (1, 4)))),
)


@st.composite
def onlyif_contracts(draw):
    """A reduced system and a cover contract, or random payments on one of
    the scales 1/n, mu and eps_r, with p* on those scales too."""
    ri = draw(st.sampled_from(_ONLYIF_SYSTEMS))
    m = ri.sc.m
    scales = st.sampled_from((F(1, ri.sc.n), ri.params.mu, ri.params.eps_r))
    if draw(st.booleans()):
        p = list(cover_contract(ri, draw(st.sets(st.integers(1, m), min_size=1))))
    else:
        scale = draw(scales)
        p = [scale * F(draw(st.integers(0, 8)), 4) for _ in range(m + 2)]
    p[ri.star_outcome] = draw(scales) * F(draw(st.integers(0, 8)), 8)
    return ri, tuple(p)


@settings(max_examples=80, deadline=None)
@given(case=onlyif_contracts())
def test_onlyif_caps_and_aggregate_are_affine_in_pstar(case):
    ri, q = case
    rep = verify_onlyif_bounds(ri, q)
    n, m = ri.sc.n, ri.sc.m
    mu, eta, eps, rho = ri.params.mu, ri.params.eta, ri.params.eps_r, ri.params.rho
    pstar = q[ri.star_outcome]
    for t in rep.per_type:
        i = t.element
        cap = {
            "E1": mu / (2 * i * n) + (mu / i) * pstar * (2 / eta - 1),
            "E2": mu * (F(1, 2 * i * n) - F(1, 8 * n**4) + 2 * pstar / eta),
            "E3": F(0),
        }[t.klass]
        assert type(t.bound) is Fraction and t.bound == cap
    floor = F(1, n) - 4 * pstar / eta
    zero_term = rho * (1 - m * eps) * (F(1, n) - pstar) - eps * rho * len(rep.sbar) * floor
    weight = (1 - rho) / n
    assert rep.aggregate_bound == zero_term + sum(weight * t.bound for t in rep.per_type)
    assert rep.aggregate_bound == rep.pstar_zero_bound + rep.pstar_coefficient * pstar
    for value in (rep.aggregate_bound, rep.pstar_zero_bound, rep.pstar_coefficient):
        assert type(value) is Fraction


# The reduction and both verifiers give the very values of their Fraction
# references (``helpers.fraction_reduce`` and ``fraction_verify_*``): every
# field of the reduced instance and of both reports, value and type, on
# covered systems with n = 2..6.  The only-if contracts are the benchmark's
# family (0, 1/(2n) or 1/n on the witnesses, 0..2/n^3 on the rewarded
# outcome, 0 or 1/n^4 on the sink), the scales of ``onlyif_contracts`` and
# cover contracts; the last cover contract checked is also the if
# direction's, whose table both verifiers share.


@st.composite
def covered_systems(draw) -> SetCoverInput:
    n = draw(st.integers(2, 6))
    universe = range(1, n + 1)
    sets = [draw(st.sets(st.sampled_from(universe), min_size=1))
            for _ in range(draw(st.integers(1, 6)))]
    missing = set(universe).difference(*sets)
    if missing:
        sets.append(missing)
    return SetCoverInput(n=n, sets=tuple(tuple(sorted(s)) for s in sets))


@st.composite
def reduction_contracts(draw, ri):
    n, m = ri.sc.n, ri.sc.m
    family = draw(st.sampled_from(["benchmark", "scales", "cover"]))
    if family == "benchmark":
        p = [F(draw(st.sampled_from((0, 1, 2))), 2 * n) for _ in range(m)]
        return (*p, F(draw(st.integers(0, 2)), n**3), F(draw(st.integers(0, 1)), n**4))
    if family == "cover":
        return cover_contract(ri, draw(st.sets(st.integers(1, m), min_size=1)))
    scales = st.sampled_from((F(1, n), ri.params.mu, ri.params.eps_r))
    scale = draw(scales)
    p = [scale * F(draw(st.integers(0, 8)), 4) for _ in range(m + 2)]
    p[ri.star_outcome] = draw(scales) * F(draw(st.integers(0, 8)), 8)
    return tuple(p)


def assert_same(got, want, where="value"):
    """Equal values of the same types, field by field and item by item."""
    assert type(got) is type(want), where
    if hasattr(got, "_fields"):  # a record, field by field
        for name in got._fields:
            assert_same(getattr(got, name), getattr(want, name), f"{where}.{name}")
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{k}]")
    elif isinstance(got, dict):
        assert list(got) == list(want), where
        for key in got:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert got == want, where


@settings(max_examples=100)
@given(sc=covered_systems(), data=st.data())
def test_reduction_and_verifiers_match_fraction_references(sc, data):
    ri, ref = reduce(sc), fraction_reduce(sc)
    assert_same(ri, ref, "reduce")
    for _ in range(3):
        q = data.draw(reduction_contracts(ri))
        assert_same(verify_onlyif_bounds(ri, q), fraction_verify_onlyif_bounds(ref, q), "only-if")
    cover = min_cover(sc)
    assert_same(verify_if_direction(ri, cover), fraction_verify_if_direction(ref, cover), "if")
    q = cover_contract(ri, cover)
    assert_same(verify_onlyif_bounds(ri, q), fraction_verify_onlyif_bounds(ref, q), "only-if")


def test_onlyif_witness_floor_counts_the_sink_payment():
    # With the shadows priced out (cost 1), type 1/2 of a two-element system
    # plays its productive action in S1 below the witness-payment floor
    # 1/(j n) - 4 p*/eta + (4/eta + 1) pbar.  At p* = pbar = 1/100 and j = 1
    # the floor is 1/2 + 1/100: ok holds on it and fails 1/1000 below it,
    # where every other check of ok holds.
    ri = reduce(SetCoverInput(n=2, sets=((1, 2),)))
    labels = ri.inst.labels
    c = tuple(F(1) if label.startswith("abar") else x for label, x in zip(labels, ri.inst.c))
    priced = ri._replace(inst=ri.inst._replace(c=c))
    pay = F(1, 100)
    for below, ok in ((F(0), True), (F(1, 1000), False)):
        q = (F(1, 2) + pay - below, pay, pay)
        rep = verify_onlyif_bounds(priced, q)
        assert_same(rep, fraction_verify_onlyif_bounds(priced, q))
        assert priced.inst.labels[rep.per_type[0].action] == "a[1,S1]"
        assert all(t.within_bound for t in rep.per_type)
        assert rep.theta0_within_formula and rep.e1_covered_by_sbar and rep.total_le_aggregate
        assert rep.ok is ok


def test_onlyif_chain_sign_flips_at_larger_universe():
    small = reduce(SetCoverInput(n=3, sets=((1, 2, 3),)))
    large = reduce(SetCoverInput(n=5, sets=((1, 2, 3, 4, 5),)))
    zero_small = (F(0),) * small.inst.n_outcomes
    zero_large = (F(0),) * large.inst.n_outcomes
    assert not verify_onlyif_bounds(small, zero_small).coefficient_chain_negative
    assert verify_onlyif_bounds(large, zero_large).coefficient_chain_negative


def test_onlyif_contract_validation(three_element_reduced):
    with pytest.raises(UsageError):
        verify_onlyif_bounds(three_element_reduced, (F(0),) * 3)
    with pytest.raises(UsageError):
        verify_onlyif_bounds(three_element_reduced, (F(-1),) + (F(0),) * 5)


def test_n3_reduction_solved_exactly():
    # the exact optimum of a reduced n = 3 system, whose minimum cover has
    # two sets, lands on the cover value; the only-if caps hold there, and
    # the fields guaranteed only for n >= 16 are printed, not asserted
    sc = SetCoverInput(n=3, sets=((1, 2), (2, 3), (1, 3)))
    ri = reduce(sc)
    start = time.perf_counter()
    rep = solve_discrete_optimal(ri.inst, ri.gamma, bounded=False)
    only = verify_onlyif_bounds(ri, rep.best_contract)
    product_s = time.perf_counter() - start
    start = time.perf_counter()
    cover = min_cover(sc)
    oracle_s = time.perf_counter() - start
    ell = ell_value(sc.n, sc.m, len(cover))
    assert len(cover) == 2
    assert rep.tuples_solved == 3217
    assert rep.value == ell
    assert only.ok
    print(
        f"n=3 m=3: OPT - ell(3, 3, 2) = {rep.value - ell}, "
        f"gap_value(3, 3) = {gap_value(sc.n, sc.m)}, "
        f"ell(3, 3, 1) - OPT = {ell_value(sc.n, sc.m, 1) - rep.value}, "
        f"small_gap_step_holds = {only.small_gap_step_holds} "
        f"(product {product_s:.2f}s, min-cover oracle {oracle_s:.4f}s)",
        flush=True,
    )
