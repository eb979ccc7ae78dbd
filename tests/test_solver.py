"""Per-tuple LPs, exact discrete solving, and the candidate contract set."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractlab import (
    Discrete,
    Instance,
    ResourceGuardError,
    UsageError,
    expected_principal_utility,
    solve_discrete_optimal,
    solver,
    uniform_distribution,
)
from contractlab.dist import discretize, grid_points
from contractlab.hardness import ell_value
from contractlab.numerics import integer_solve
from contractlab.solver import candidate_contract_set, chain_count, contract_for_tuple
from helpers import (
    candidate_contracts_by_rows,
    float_instance,
    fraction_candidate_contract_set,
    fraction_lp_solve,
    full_product_solve,
    grid_best,
    grid_values,
    iter_chains,
    payment_grid,
    per_type_tuple_lp,
    random_atoms,
    random_instance,
    scan_discrete_optimal,
    vertex_oracle,
)

F = Fraction


def one_type(theta) -> Discrete:
    return Discrete(points=(theta,), weights=(F(1),))


# ---------------------------------------------------------------------------
# Single-tuple LPs
# ---------------------------------------------------------------------------


def test_tuple_lp_two_action_single_type(desk_instance):
    # unit-cost work: the IC price at theta = 1/2 is exactly 1/2
    inst = Instance(
        F=((F(1), F(0)), (F(0), F(1))), r=(F(0), F(1)), c=(F(0), F(1))
    )
    res = contract_for_tuple(inst, one_type(F(1, 2)), (1,))
    assert res.status == "optimal"
    assert res.value == F(1, 2)
    assert res.point == (F(0), F(1, 2))
    # brute-force payment grid confirms no better contract overall
    vals = grid_values(inst, one_type(F(1, 2)), payment_grid(2, 0.01))
    assert float(res.value) >= vals.max() - 1e-9
    # half-cost work lowers the IC price to 1/4
    half = contract_for_tuple(desk_instance, one_type(F(1, 2)), (1,))
    assert half.value == F(3, 4)
    assert half.point == (F(0), F(1, 4))


def test_tuple_lp_zero_cost_no_payment_needed():
    gen = random.Random(41)
    inst = random_instance(gen, 3, 2)
    free = [a for a in range(3) if inst.c[a] == 0]
    mean_reward = [
        sum(f * rw for f, rw in zip(inst.F[a], inst.r)) for a in range(3)
    ]
    best_free = max(free, key=lambda a: mean_reward[a])
    if any(mean_reward[a] > mean_reward[best_free] for a in range(3)):
        pytest.skip("sampled instance has no zero-cost maximizer")
    res = contract_for_tuple(inst, one_type(F(0)), (best_free,))
    assert res.status == "optimal"
    assert res.value == mean_reward[best_free]


def test_tuple_lp_infeasible_when_bounded():
    # outcome mix cannot reward the costly action enough within [0,1]
    inst = Instance(
        F=((F(1), F(0)), (F(1, 2), F(1, 2))),
        r=(F(0), F(1)),
        c=(F(0), F(1)),
    )
    bounded = contract_for_tuple(inst, one_type(F(1)), (1,), bounded=True)
    assert bounded.status == "infeasible"
    free = contract_for_tuple(inst, one_type(F(1)), (1,), bounded=False)
    assert free.status == "optimal"
    assert free.point == (F(0), F(2))


def test_tuple_lp_validation(desk_instance):
    with pytest.raises(UsageError):
        contract_for_tuple(desk_instance, one_type(F(0)), (0, 1))
    with pytest.raises(UsageError):
        contract_for_tuple(desk_instance, one_type(F(0)), (7,))


# ---------------------------------------------------------------------------
# Full discrete solve
# ---------------------------------------------------------------------------


def test_solve_single_free_action():
    inst = Instance(F=((F(1, 3), F(2, 3)),), r=(F(1, 2), F(1)), c=(F(0),))
    rep = solve_discrete_optimal(inst, one_type(F(1, 2)))
    assert rep.best_contract == (F(0), F(0))
    assert rep.value == F(1, 3) * F(1, 2) + F(2, 3)
    assert rep.tuples_solved == 1


def test_solve_desk_two_types_vs_grid(desk_instance):
    gamma = Discrete(points=(F(1, 4), F(3, 4)), weights=(F(1, 2), F(1, 2)))
    rep = solve_discrete_optimal(desk_instance, gamma, bounded=True)
    assert rep.value == F(5, 8)
    assert rep.best_contract == (F(0), F(3, 8))
    assert abs(float(rep.value) - grid_best(desk_instance, gamma)) <= 0.02


def test_solve_reports_consistent_value_and_log(desk_instance):
    gamma = Discrete(points=(F(1, 4), F(3, 4)), weights=(F(1, 2), F(1, 2)))
    rep = solve_discrete_optimal(desk_instance, gamma)
    # (idle, work) is the one tuple whose cost rises with type
    chains = list(iter_chains(desk_instance.c, 2))
    assert chains == [(0, 0), (1, 0), (1, 1)]
    assert rep.tuples_solved == len(chains)
    results = [contract_for_tuple(desk_instance, gamma, tup) for tup in chains]
    feasible = [res.value for res in results if res.status == "optimal"]
    assert max(feasible) == rep.value
    # the reported value re-evaluates the winning contract via best responses
    assert expected_principal_utility(desk_instance, gamma, rep.best_contract) == rep.value


def test_solve_unbounded_at_least_bounded():
    gen = random.Random(43)
    for _ in range(5):
        inst = random_instance(gen, 3, 2)
        gamma = random_atoms(gen, 2)
        lo = solve_discrete_optimal(inst, gamma, bounded=True)
        hi = solve_discrete_optimal(inst, gamma, bounded=False)
        assert hi.value >= lo.value


def test_solve_tuple_guard(monkeypatch):
    # 7 distinct costs: C(k+6, 6) chains over k types
    inst = Instance(
        F=((F(1), F(0)),) * 7, r=(F(0), F(1)), c=tuple(F(i, 7) for i in range(7))
    )
    assert chain_count(inst.c, 9) == math.comb(15, 9) == 5005  # under the guard
    types = tuple(F(2 * i + 1, 120) for i in range(60))
    gamma = Discrete(points=types, weights=(F(1, 60),) * 60)
    assert chain_count(inst.c, 60) == math.comb(66, 6) > solver.TUPLE_GUARD

    def no_lp(*args, **kwargs):
        raise AssertionError("the guard must refuse before any LP is solved")

    monkeypatch.setattr(solver, "contract_for_tuple", no_lp)
    with pytest.raises(ResourceGuardError):
        solve_discrete_optimal(inst, gamma)


def test_chain_count_matches_lps_solved():
    gen = random.Random(61)
    for _ in range(12):
        n, k = gen.randrange(1, 5), gen.randrange(1, 5)
        inst = random_instance(gen, n, 2)
        # costs from {0, 1/2, 1}, so equal costs are common
        c = [F(gen.randrange(0, 3), 2) for _ in range(n)]
        c[gen.randrange(n)] = F(0)
        inst = Instance(F=inst.F, r=inst.r, c=tuple(c))
        gamma = random_atoms(gen, k)
        monotone = sum(
            all(inst.c[a] >= inst.c[b] for a, b in zip(t, t[1:]))
            for t in itertools.product(range(n), repeat=k)
        )
        rep = solve_discrete_optimal(inst, gamma, bounded=gen.random() < 0.5)
        assert chain_count(inst.c, k) == monotone == rep.tuples_solved


@st.composite
def tied_cost_instances(draw) -> Instance:
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 3))
    units = st.integers(0, 6)
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(units, min_size=m - 1, max_size=m - 1)))
        rows.append(tuple(F(hi - lo, 6) for lo, hi in zip([0] + cuts, cuts + [6])))
    # costs on a coarse grid, so several actions often share one cost
    c = [F(x, 3) for x in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    c[draw(st.integers(0, n - 1))] = F(0)
    r = tuple(F(x, 6) for x in draw(st.lists(units, min_size=m, max_size=m)))
    return Instance(F=tuple(rows), r=r, c=tuple(c))


@st.composite
def rational_type_grids(draw, max_types: int) -> Discrete:
    pts = draw(
        st.lists(st.integers(0, 12), min_size=1, max_size=max_types, unique=True)
    )
    raw = draw(st.lists(st.integers(1, 4), min_size=len(pts), max_size=len(pts)))
    return Discrete(
        tuple(F(x, 12) for x in sorted(pts)), tuple(F(w, sum(raw)) for w in raw)
    )


@settings(max_examples=40)
@given(inst=tied_cost_instances(), bounded=st.booleans(), data=st.data())
def test_chain_enumeration_matches_full_product(inst, bounded, data):
    # four actions get at most four types: with all four costs equal, the
    # 4^5 tuples are all chains and their degenerate LPs take about a minute
    gamma = data.draw(rational_type_grids(5 if inst.n_actions <= 3 else 4))
    value, contract, statuses = full_product_solve(inst, gamma, bounded)
    rep = solve_discrete_optimal(inst, gamma, bounded=bounded)
    assert rep.value == value
    assert rep.best_contract == contract
    chains = list(iter_chains(inst.c, len(gamma.points)))
    assert rep.tuples_solved == len(chains)
    assert chains == sorted(chains)
    chain_set = set(chains)
    assert all(
        status != "optimal" for tup, status in statuses.items() if tup not in chain_set
    )


@st.composite
def scan_cases(draw) -> tuple[Instance, Discrete]:
    inst = draw(tied_cost_instances())
    n = inst.n_actions
    if draw(st.booleans()):
        # a duplicate action: one action's row and cost copied onto another
        src, dst = draw(st.permutations(range(n)))[:2]
        rows, c = list(inst.F), list(inst.c)
        rows[dst], c[dst] = rows[src], c[src]
        if 0 in c:
            inst = Instance(F=tuple(rows), r=inst.r, c=tuple(c))
    gamma = draw(rational_type_grids(5 if n <= 3 else 4))
    if draw(st.booleans()):
        inst = float_instance(inst)
        gamma = Discrete(tuple(map(float, gamma.points)), tuple(map(float, gamma.weights)))
    return inst, gamma


# Two one-type chains of LP value 1/2 with different contracts: (1,) has the
# larger bound (3/4 against 1/2), so the search solves it first, yet the
# scan's winner is (0,) at p = (0, 0).
TIED_CHAINS = (
    Instance(F=((F(1, 2), F(1, 2)), (F(0), F(1))), r=(F(0), F(1)), c=(F(0), F(1, 2))),
    Discrete((F(1, 2),), (F(1),)),
)


@settings(max_examples=200)
@given(case=scan_cases(), bounded=st.booleans())
@example(case=TIED_CHAINS, bounded=False)
def test_branch_and_bound_matches_chain_scan(case, bounded):
    # tied and zero costs and duplicate actions give chains of equal LP
    # value: the search must solve all of them and keep the first in
    # lexicographic order, as the scan of every chain does
    inst, gamma = case
    rep = solve_discrete_optimal(inst, gamma, bounded=bounded)
    slow = scan_discrete_optimal(inst, gamma, bounded)
    assert rep.best_contract == slow.best_contract
    assert type(rep.value) is type(slow.value)
    assert rep.value == slow.value
    assert rep.tuples_solved == slow.tuples_solved


def test_exact_solve_reports_the_lp_value_unevaluated(desk_instance, monkeypatch):
    # on rational inputs the winner's LP value is the reported value, with no
    # evaluation of the contract; float mode still evaluates it
    gamma = discretize(uniform_distribution(), F(1, 9))
    calls = []
    evaluate = solver.core.expected_principal_utility

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(solver.core, "expected_principal_utility", counted)
    rep = solve_discrete_optimal(desk_instance, gamma)
    assert calls == []
    monkeypatch.undo()
    assert type(rep.value) is F
    assert rep.value == expected_principal_utility(desk_instance, gamma, rep.best_contract)
    monkeypatch.setattr(solver.core, "expected_principal_utility", counted)
    flt = float_instance(desk_instance)
    rep = solve_discrete_optimal(flt, Discrete(tuple(map(float, gamma.points)), gamma.weights))
    assert len(calls) == 1


def test_welfare_bound_prunes_chains(desk_instance, uniform_gamma, n2_reduced, monkeypatch):
    # the chains handed to the LP, counted where the tracer counts them
    solved = []

    def counted(*args, **kwargs):
        solved.append(args[2])
        return contract_for_tuple(*args, **kwargs)

    monkeypatch.setattr(solver, "contract_for_tuple", counted)
    rep = solve_discrete_optimal(desk_instance, discretize(uniform_gamma, F(1, 9)))
    # the virtual-cost bound leaves only the optimal chain to solve
    assert (len(solved), rep.tuples_solved) == (1, 10)
    solved.clear()
    rep = solve_discrete_optimal(n2_reduced.inst, n2_reduced.gamma)
    assert rep.tuples_solved == 56
    assert len(solved) < 56


@settings(max_examples=200)
@given(case=scan_cases(), bounded=st.booleans())
@example(case=TIED_CHAINS, bounded=False)
def test_virtual_cost_bound_holds_on_every_chain(case, bounded):
    # the pruning rule is sound only if no chain's LP beats its bound
    inst, gamma = case
    gain, scale = solver._chain_gains(inst, gamma)
    for chain in iter_chains(inst.c, len(gamma.points)):
        res = contract_for_tuple(inst, gamma, chain, bounded)
        if res.status == "optimal":
            assert res.value * scale <= sum(g[a] for g, a in zip(gain, chain))


@st.composite
def unbounded_cases(draw) -> tuple[Instance, Discrete]:
    gen = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        inst = draw(tied_cost_instances())
    else:
        inst = random_instance(gen, draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    return inst, random_atoms(gen, draw(st.integers(1, 4)))


@settings(max_examples=60)
@given(case=unbounded_cases())
def test_unbounded_optimum_matches_vertex_oracle(case):
    inst, gamma = case
    assert solve_discrete_optimal(inst, gamma, bounded=False).value == vertex_oracle(inst, gamma)


@st.composite
def tuple_lp_cases(draw) -> tuple[Instance, Discrete, tuple[int, ...]]:
    inst, _ = draw(candidate_cases())
    k = draw(st.integers(1, 4))
    pts = sorted(draw(st.lists(st.integers(0, 12), min_size=k, max_size=k, unique=True)))
    scale = draw(st.sampled_from((F(1, 12), 1 / 12)))
    raw = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    gamma = Discrete(tuple(t * scale for t in pts), tuple(F(w, sum(raw)) for w in raw))
    actions = draw(st.tuples(*(st.integers(0, inst.n_actions - 1) for _ in range(k))))
    return inst, gamma, actions


@settings(max_examples=150)
@given(case=tuple_lp_cases(), bounded=st.booleans())
def test_contract_for_tuple_matches_fraction_simplex(case, bounded):
    # any action tuple, chain or not: equal costs give IC rows with rhs 0,
    # and float types enter the LP as their exact binary values
    inst, gamma, actions = case
    res = contract_for_tuple(inst, gamma, actions, bounded)
    with mock.patch.object(solver, "lp_solve", fraction_lp_solve):
        assert res == contract_for_tuple(inst, gamma, actions, bounded)


@st.composite
def lp_capture_cases(draw) -> tuple[Instance, Discrete, tuple[int, ...]]:
    kind = draw(st.sampled_from(("random", "tied", "float")))
    if kind == "tied":
        inst = draw(tied_cost_instances())
    else:
        gen = random.Random(draw(st.integers(0, 2**32)))
        inst = random_instance(gen, draw(st.integers(2, 4)), draw(st.integers(2, 3)))
        if kind == "float":
            # float entries of F, r and c enter the LP at their binary values
            inst = float_instance(inst)
    k = draw(st.integers(1, 4))
    gamma = random_atoms(random.Random(draw(st.integers(0, 2**32))), k)
    if kind == "float":
        gamma = Discrete(tuple(map(float, gamma.points)), tuple(map(float, gamma.weights)))
    # any tuple, chain or not, repeated actions included
    actions = draw(st.tuples(*(st.integers(0, inst.n_actions - 1) for _ in range(k))))
    return inst, gamma, actions


@settings(max_examples=150)
@given(case=lp_capture_cases(), bounded=st.booleans())
def test_contract_for_tuple_builds_the_per_type_lp(case, bounded):
    # the type masses are summed per action over one denominator and the
    # incentive rows come from the integers of Instance.scaled, yet the LP
    # handed to lp_solve is the per-type one field for field
    inst, gamma, actions = case
    with mock.patch.object(solver, "lp_solve", lambda lp: lp):
        lp = contract_for_tuple(inst, gamma, actions, bounded)
    assert lp == per_type_tuple_lp(inst, gamma, actions, bounded)


@st.composite
def dyadic_cases(draw) -> tuple[Instance, Discrete]:
    # every entry a multiple of 1/8, so float mode reads each one exactly
    n = draw(st.integers(2, 3))
    m = draw(st.integers(2, 3))
    eighths = st.integers(0, 8)
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(eighths, min_size=m - 1, max_size=m - 1)))
        rows.append(tuple(F(hi - lo, 8) for lo, hi in zip([0] + cuts, cuts + [8])))
    c = [F(x, 8) for x in draw(st.lists(eighths, min_size=n, max_size=n))]
    c[draw(st.integers(0, n - 1))] = F(0)
    r = tuple(F(x, 8) for x in draw(st.lists(eighths, min_size=m, max_size=m)))
    k = draw(st.integers(1, 3))
    pts = sorted(draw(st.lists(eighths, min_size=k, max_size=k, unique=True)))
    inner = st.integers(1, 7)
    cuts = sorted(draw(st.lists(inner, min_size=k - 1, max_size=k - 1, unique=True)))
    weights = tuple(F(hi - lo, 8) for lo, hi in zip([0] + cuts, cuts + [8]))
    gamma = Discrete(tuple(F(t, 8) for t in pts), weights)
    return Instance(F=tuple(rows), r=r, c=tuple(c)), gamma


@settings(max_examples=100)
@given(case=dyadic_cases(), bounded=st.booleans())
def test_float_mode_matches_rational_mode_on_dyadic_instances(case, bounded):
    # float mode converts each float at its binary value, which here is the
    # rational entry itself, so both modes solve the same chain LPs; only
    # the reported value is re-evaluated in floats
    inst, gamma = case
    exact = solve_discrete_optimal(inst, gamma, bounded=bounded)
    floats = solve_discrete_optimal(
        float_instance(inst),
        Discrete(tuple(map(float, gamma.points)), tuple(map(float, gamma.weights))),
        bounded=bounded,
    )
    assert floats.best_contract == exact.best_contract
    assert floats.tuples_solved == exact.tuples_solved
    assert type(floats.value) is float
    assert abs(floats.value - float(exact.value)) <= 1e-12


def test_reduction_optimum_reaches_cover_value(three_element_reduced):
    # the action tuple induced by the cover {S2, S3} certifies that the
    # overall optimum is at least the cover contract's exact value
    from contractlab.hardness import verify_if_direction

    rep = verify_if_direction(three_element_reduced, (2, 3))
    tup = tuple(t.action for t in rep.per_type)
    res = contract_for_tuple(three_element_reduced.inst, three_element_reduced.gamma, tup, bounded=False)
    assert res.status == "optimal"
    assert res.value >= ell_value(3, 4, 2)


def test_small_reduction_full_solve_equals_cover_value(n2_reduced):
    # two-element universe, single covering set: the exact solve lands
    # exactly on the cover contract's value
    rep = solve_discrete_optimal(n2_reduced.inst, n2_reduced.gamma, bounded=False)
    assert rep.value == ell_value(2, 1, 1)
    # six distinct costs over three types: C(8, 3) = 56 chains of 6**3 tuples
    assert rep.tuples_solved == math.comb(8, 3)


# ---------------------------------------------------------------------------
# Candidate contract set
# ---------------------------------------------------------------------------


def test_candidates_single_action_box_corners():
    inst = Instance(F=((F(1, 2), F(1, 2)),), r=(F(0), F(1)), c=(F(0),))
    pts = candidate_contract_set(inst, (F(1, 2),))
    assert set(pts) == {
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    }


def test_candidates_cover_optimal_contracts():
    gen = random.Random(53)
    for _ in range(4):
        inst = random_instance(gen, 3, 2)
        types = tuple(sorted({F(gen.randrange(0, 13), 12) for _ in range(3)}))
        pts = candidate_contract_set(inst, types)
        assert all(all(0 <= x <= 1 for x in p) for p in pts)
        for _ in range(5):
            w = [gen.randrange(1, 5) for _ in types]
            s = sum(w)
            gamma = Discrete(points=types, weights=tuple(F(x, s) for x in w))
            rep = solve_discrete_optimal(inst, gamma, bounded=True)
            best_over_pts = max(
                expected_principal_utility(inst, gamma, p) for p in pts
            )
            assert best_over_pts == rep.value
            assert rep.best_contract in pts


def test_candidates_guards():
    # no guard refuses an instance by its outcome count: BASIS_GUARD alone
    # bounds the work, and 5- and 6-outcome sets match the reference
    gen = random.Random(59)
    for n, m, k in ((2, 5, 1), (2, 5, 2), (3, 5, 1), (2, 6, 1)):
        inst = random_instance(gen, n, m)
        types = [F(gen.randrange(0, 13), 12) for _ in range(k)]
        assert candidate_contract_set(inst, types) == candidate_contracts_by_rows(inst, types)


@st.composite
def candidate_cases(draw) -> tuple[Instance, list]:
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    units = st.integers(0, 6)
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(units, min_size=m - 1, max_size=m - 1)))
        rows.append(tuple(F(hi - lo, 6) for lo, hi in zip([0] + cuts, cuts + [6])))
    c = [F(x, 3) for x in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    if n >= 2 and draw(st.booleans()):
        rows[1] = rows[0]  # identical F rows: the pair has no incentive row
    equal = n >= 2 and draw(st.booleans())
    if equal:
        c[1] = c[0]  # equal costs: every right-hand side of the pair is 0
    zero = draw(st.integers(0, n - 1))
    for a in (0, 1) if equal and zero < 2 else (zero,):
        c[a] = F(0)
    r = tuple(F(x, 6) for x in draw(st.lists(units, min_size=m, max_size=m)))
    # Fraction or float types, duplicates allowed
    types = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    scale = draw(st.sampled_from((F(1, 12), 1 / 12)))
    return Instance(F=tuple(rows), r=r, c=tuple(c)), [t * scale for t in types]


@settings(max_examples=60)
@given(case=candidate_cases())
def test_candidates_match_subsets_of_rows(case):
    inst, types = case
    assert candidate_contract_set(inst, types) == candidate_contracts_by_rows(inst, types)


# Float grids: types enter at their binary value, so a grid of width
# 1/sqrt(N) has denominators near 2^60 and arbitrary floats reach far beyond
_FLOAT_GRIDS = st.one_of(
    st.integers(2, 40).map(lambda n: list(grid_points(1 / math.sqrt(n)))),
    st.lists(st.floats(0, 1), min_size=1, max_size=4),
)


@settings(max_examples=80)
@given(case=candidate_cases(), floats=st.one_of(st.none(), _FLOAT_GRIDS))
def test_integer_candidates_match_fraction_products(case, floats):
    # the integer products over D L keep every point, box test and
    # duplicate of the Fraction products, so the sorted tuple is the same
    inst, types = case
    if floats is not None:
        types = floats
    got = candidate_contract_set(inst, types)
    assert got == fraction_candidate_contract_set(inst, types)
    assert all(type(x) is F for p in got for x in p)
    if len(types) <= 6:
        assert got == candidate_contracts_by_rows(inst, types)


def test_integer_candidates_on_the_learn_regret_grid(desk_instance):
    # the grid of width 1/sqrt(2000): 45 float types, 94 candidates
    types = grid_points(1 / math.sqrt(2000))
    got = candidate_contract_set(desk_instance, types)
    assert len(types) == 45 and len(got) == 94
    assert got == fraction_candidate_contract_set(desk_instance, types)
    assert got == candidate_contracts_by_rows(desk_instance, types)


def test_candidates_solve_once_per_direction_set(desk_instance, monkeypatch):
    # DESK on the learn_pac grid (d = 93) has 3 directions: work minus idle
    # and the two box facets, so at most C(3, m) = 3 eliminations, each
    # inverting one direction set at once
    calls = []

    def counted(matrix, rhs):
        calls.append(matrix)
        return integer_solve(matrix, rhs)

    types = grid_points(F(5, 48) ** 2)
    assert len(types) == 93
    monkeypatch.setattr(solver, "integer_solve", counted)
    pts = candidate_contract_set(desk_instance, types)
    assert len(pts) == 190
    assert len(calls) <= math.comb(3, 2)
    assert pts == candidate_contracts_by_rows(desk_instance, types)


def test_candidates_guard_counts_real_work(desk_instance, monkeypatch):
    # 93 incentive right-hand sides, 2 per box facet: the direction pairs do
    # 93 * 2 + 93 * 2 + 2 * 2 = 376 products, not C(97, 2) = 4656 solves
    types = grid_points(F(5, 48) ** 2)
    work = 93 * 2 + 93 * 2 + 2 * 2
    monkeypatch.setattr(solver, "BASIS_GUARD", work - 1)
    with pytest.raises(ResourceGuardError, match=f"would test {work} bases"):
        candidate_contract_set(desk_instance, types)
    monkeypatch.setattr(solver, "BASIS_GUARD", work)
    assert len(candidate_contract_set(desk_instance, types)) == 190
