"""Exact LP, exact linear solves, and the seeded RNG."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractlab import Instance, LPResult, RationalLP, UsageError, lp_solve, numerics, rng_new
from contractlab.numerics import (
    as_fraction,
    integer_solve,
    is_exact,
    llog2,
    rational_solve,
)
from helpers import (
    fraction_lp_solve,
    fraction_solve,
    per_type_tuple_lp,
    random_atoms,
    random_instance,
)

F = Fraction


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def test_as_fraction_exactness():
    assert as_fraction(F(2, 7)) == F(2, 7)
    assert as_fraction(3) == F(3)
    assert as_fraction(0.5) == F(1, 2)
    # floats convert to their exact binary value, not a decimal reading
    assert as_fraction(0.1) == F(0.1)
    assert as_fraction(0.1) != F(1, 10)


def test_is_exact():
    assert is_exact(F(1, 3), 2, [F(1), 4])
    assert not is_exact(F(1, 3), 0.5)
    assert not is_exact("1/7")
    assert not is_exact(True)


def test_llog2_values():
    assert llog2(1) == 0.0
    assert llog2(2) == 0.0
    assert llog2(3) == pytest.approx(0.6644487074538995)
    assert llog2(4) == 1.0
    assert llog2(16) == 2.0
    assert llog2(65536) == 4.0


# ---------------------------------------------------------------------------
# Exact LP: frozen examples
# ---------------------------------------------------------------------------


def test_lp_ceiling():
    lp = RationalLP(objective=(F(1),), constraints=(((F(1),), "<=", F(3, 7)),))
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == F(3, 7)
    assert res.point == (F(3, 7),)


def test_lp_degenerate_tie_vertex():
    lp = RationalLP(objective=(F(1), F(1)), constraints=(((F(1), F(1)), "<=", F(1)),))
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == 1
    assert res.point == (F(1), F(0))  # lowest-index pivot enters first


def test_lp_beale_cycling_terminates():
    # Classic degenerate tableau that cycles under naive pivoting; the
    # anti-cycling pivot rule must terminate at the optimum. Optimal vertex
    # x = (1/25, 0, 1, 0), value 3/100 + 1/50 = 1/20 (checked by hand).
    lp = RationalLP(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        constraints=(
            ((F(1, 4), F(-60), F(-1, 25), F(9)), "<=", F(0)),
            ((F(1, 2), F(-90), F(-1, 50), F(3)), "<=", F(0)),
            ((F(0), F(0), F(1), F(0)), "<=", F(1)),
        ),
    )
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == F(1, 20)


def test_lp_infeasible_and_unbounded():
    infeasible = RationalLP(
        objective=(F(1),),
        constraints=(((F(1),), "<=", F(1)), ((F(1),), ">=", F(2))),
    )
    assert lp_solve(infeasible).status == "infeasible"
    unbounded = RationalLP(objective=(F(1),), constraints=(((F(1),), ">=", F(0)),))
    assert lp_solve(unbounded).status == "unbounded"


def test_lp_solve_validation():
    one = (F(1),)
    with pytest.raises(UsageError, match="dimension"):
        lp_solve(RationalLP(objective=one, constraints=(((F(1), F(2)), "<=", F(1)),)))
    # an unknown relation is refused, not solved as an equality
    with pytest.raises(UsageError, match="unknown relation '<'"):
        lp_solve(RationalLP(objective=one, constraints=((one, "<", F(1)),)))
    # equality rows are not supported: "==" is an unknown relation too
    with pytest.raises(UsageError, match="unknown relation '=='"):
        lp_solve(RationalLP(objective=one, constraints=((one, "==", F(1)),)))


# ---------------------------------------------------------------------------
# Exact LP: basis-enumeration oracle on random problems
# ---------------------------------------------------------------------------


def _oracle_lp(objective, rows):
    """Enumerate all vertices (choices of nv tight constraints among the
    rows and the facets x_j = 0), keep the feasible ones, return (status,
    best value). The rows must bound the feasible region."""
    nv = len(objective)
    pool = [(list(co), rhs) for co, _, rhs in rows]
    for j in range(nv):
        e = [F(0)] * nv
        e[j] = F(1)
        pool.append((e, F(0)))
    best = None
    for chosen in itertools.combinations(pool, nv):
        x = fraction_solve([co for co, _ in chosen], [rhs for _, rhs in chosen])
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        feasible = True
        for co, rel, rhs in rows:
            lhs = sum(a * b for a, b in zip(co, x))
            if rel == "<=" and lhs > rhs:
                feasible = False
            if rel == ">=" and lhs < rhs:
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        val = sum(a * b for a, b in zip(objective, x))
        if best is None or val > best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def test_lp_matches_basis_enumeration_oracle():
    gen = random.Random(2024)
    upper = F(2)
    for trial in range(40):
        nv = 3
        objective = [F(gen.randrange(-3, 4)) for _ in range(nv)]
        rows = []
        for _ in range(5):
            co = [F(gen.randrange(-3, 4), gen.choice([1, 2])) for _ in range(nv)]
            rel = gen.choice(["<=", ">="])
            rhs = F(gen.randrange(-2, 5), gen.choice([1, 2]))
            rows.append((tuple(co), rel, rhs))
        # the box x_j <= upper, stated as rows
        for j in range(nv):
            rows.append((tuple(F(int(i == j)) for i in range(nv)), "<=", upper))
        lp = RationalLP(objective=tuple(objective), constraints=tuple(rows))
        res = lp_solve(lp)
        status, value = _oracle_lp(objective, rows)
        assert res.status == status, (trial, res.status, status)
        if status == "optimal":
            assert res.value == value, (trial, res.value, value)


# ---------------------------------------------------------------------------
# Exact LP: the fraction-free tableau against the Fraction simplex
# ---------------------------------------------------------------------------


def small_fractions(lo: int = -4, hi: int = 4):
    return st.builds(F, st.integers(lo, hi), st.sampled_from((1, 2, 3, 7)))


@st.composite
def random_lps(draw) -> RationalLP:
    n = draw(st.integers(1, 4))
    row = st.tuples(
        st.tuples(*(small_fractions() for _ in range(n))),
        st.sampled_from(("<=", ">=")),
        st.one_of(st.just(F(0)), small_fractions(-5, 5)),
    )
    return RationalLP(
        objective=draw(st.tuples(*(small_fractions() for _ in range(n)))),
        constraints=tuple(draw(st.lists(row, max_size=8))),
        constant=draw(small_fractions()),
    )


def _matches_fraction_simplex(lp: RationalLP) -> LPResult:
    """lp_solve's result, asserted equal to the Fraction simplex's with the
    same pivot sequence.  The integer tableau is the Fraction tableau up to
    positive scaling, so Bland's rule makes the same pivots and returns the
    same result; every pivot works on Python ints."""
    pivots: list[tuple[int, int]] = []
    step = numerics._pivot

    def recorded(rows, r, s, d):
        assert type(d) is int and all(type(v) is int for row in rows for v in row)
        pivots.append((r, s))
        return step(rows, r, s, d)

    with mock.patch.object(numerics, "_pivot", recorded):
        res = lp_solve(lp)
    reference: list[tuple[int, int]] = []
    assert res == fraction_lp_solve(lp, reference)
    assert pivots == reference
    return res


@settings(max_examples=300)
@given(lp=random_lps())
@example(lp=RationalLP(objective=(F(0), F(1, 2)), constraints=(), constant=F(-3, 7)))
@example(lp=RationalLP(objective=(F(0), F(-1, 2)), constraints=(), constant=F(-3, 7)))
@example(lp=RationalLP(objective=(F(0),), constraints=(), constant=F(2)))
def test_lp_matches_fraction_simplex(lp):
    # the pivots work on ints, and the returned point is rational
    res = _matches_fraction_simplex(lp)
    if res.point is not None:
        assert all(type(x) is F for x in res.point)
    if not lp.constraints:  # only the objective's sign can bound x >= 0
        assert res.status == ("unbounded" if max(lp.objective) > 0 else "optimal")
        assert res.value in (None, lp.constant)


@st.composite
def chain_lps(draw) -> RationalLP:
    """The LP of one cost-monotone chain, built as contract_for_tuple builds
    it: k <= 10 types of a random instance with n <= 5 actions and m <= 3
    outcomes, so up to 40 incentive rows, plus m box rows when bounded.
    Types playing the same action give parallel rows, and costs drawn from
    {0, 1/4, 1/2} tie often, which gives rows with right-hand side 0."""
    gen = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, m, k = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 10))
    base = random_instance(gen, n, m)
    costs = draw(st.lists(st.sampled_from((F(0), F(1, 4), F(1, 2))), min_size=n, max_size=n))
    costs[draw(st.integers(0, n - 1))] = F(0)
    inst = Instance(F=base.F, r=base.r, c=tuple(costs))
    actions = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    # a stable sort by falling cost leaves a cost-monotone chain as it is, so
    # every chain can be drawn
    chain = sorted(actions, key=lambda a: -costs[a])
    return per_type_tuple_lp(inst, random_atoms(gen, k), chain, draw(st.booleans()))


@settings(max_examples=60)
@given(lp=chain_lps())
def test_chain_lp_matches_fraction_simplex(lp):
    _matches_fraction_simplex(lp)


# ---------------------------------------------------------------------------
# Exact linear systems
# ---------------------------------------------------------------------------


def test_rational_solve_exact():
    assert rational_solve([[2, 0], [0, 4]], [[1], [1]]) == ((F(1, 2),), (F(1, 4),))
    assert rational_solve([[1, 1], [1, -1]], [[1], [0]]) == ((F(1, 2),), (F(1, 2),))
    assert rational_solve([[1, 2], [2, 4]], [[1], [2]]) is None  # singular
    # two right-hand-side columns in one elimination
    assert rational_solve([[1, 1], [1, -1]], [[1, 2], [0, 4]]) == (
        (F(1, 2), F(3)),
        (F(1, 2), F(-1)),
    )


def test_rational_solve_random_roundtrip():
    gen = random.Random(5)
    for _ in range(20):
        n = gen.randrange(2, 5)
        a = [[F(gen.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
        x = [F(gen.randrange(-3, 4), 2) for _ in range(n)]
        b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
        sol = rational_solve(a, [[v] for v in b])
        if sol is not None:
            back = [sum(ai * xi[0] for ai, xi in zip(row, sol)) for row in a]
            assert back == b


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 4), cols=st.integers(1, 3))
def test_rational_solve_matches_fraction_solve(data, n, cols):
    entries = st.lists(small_fractions(-3, 3), min_size=n, max_size=n)
    matrix = data.draw(st.lists(entries, min_size=n, max_size=n))
    if n >= 2 and data.draw(st.booleans()):
        matrix[-1] = [2 * v for v in matrix[0]]  # singular
    columns = [data.draw(entries) for _ in range(cols)]
    rhs = [list(row) for row in zip(*columns)]
    got = rational_solve(matrix, rhs)
    expected = [fraction_solve(matrix, col) for col in columns]
    if expected[0] is None:
        assert got is None
    else:
        assert [tuple(col) for col in zip(*got)] == expected


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(1, 4))
def test_rational_solve_unit_rows_give_inverse(data, n):
    entries = st.lists(small_fractions(-3, 3), min_size=n, max_size=n)
    matrix = data.draw(st.lists(entries, min_size=n, max_size=n))
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = rational_solve(matrix, units)
    if inverse is None:
        assert fraction_solve(matrix, [1] * n) is None
        return
    product = [
        [sum(a * x[j] for a, x in zip(row, inverse)) for j in range(n)] for row in matrix
    ]
    assert product == units


def test_rational_solve_shape_validation():
    # the candidate set calls integer_solve directly, so the message names
    # neither entry point
    for solve in (integer_solve, rational_solve):
        for matrix, rhs in (([[1, 2]], [[1]]), ([[1, 0], [0, 1]], [[1]])):
            with pytest.raises(UsageError, match="^an exact solve needs a square system$"):
                solve(matrix, rhs)


# ---------------------------------------------------------------------------
# Seeded RNG
# ---------------------------------------------------------------------------


def test_rng_determinism():
    a = rng_new(42).random(100)
    b = rng_new(42).random(100)
    assert np.array_equal(a, b)


def test_rng_frozen_draws():
    # the Philox stream of SeedSequence(seed): these draws fix every seeded
    # run of the learners
    assert tuple(rng_new(42).random(3)) == (
        0.08607763073528474,
        0.14155732377913233,
        0.27009303504774695,
    )
    assert rng_new(7).standard_normal() == -1.4035643350339762


def test_rng_uniform_chi_square():
    u = rng_new(123).random(100_000)
    counts = np.bincount((u * 16).astype(int), minlength=16)
    expected = np.full(16, len(u) / 16)
    stat = float(((counts - expected) ** 2 / expected).sum())
    # chi-square critical value, 15 degrees of freedom, p = 0.001
    assert stat < 37.697
