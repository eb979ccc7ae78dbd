"""Linear-bandit layer: designs, block schedule, elimination, PAC search."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractlab import (
    ArmSet,
    ResourceGuardError,
    UsageError,
    algorithm1_regret,
    best_response,
    contract_environment,
    expected_principal_utility_continuous,
    g_optimal_design,
    pac_best_arm,
    pac_best_contract,
    phased_elimination,
    rng_new,
    uniform_distribution,
    utility_map,
)
from contractlab.bandit import (
    _RANK_TOL,
    ContractEnvironment,
    _greedy_basis,
    _inverse_leverages,
    _removal_trials,
    block_constant,
    block_length,
    pac_blocks,
)
from contractlab import bandit, core
from contractlab.core import Instance
from contractlab.dist import Discrete, PiecewiseConstant, grid_points
from contractlab.solver import candidate_contract_set
from helpers import (
    LinearGaussianEnvironment,
    contract_pull_sum,
    float_instance,
    full_inverse_design,
    gaussian_pull_sum,
    pairwise_block_fit,
    random_instance,
    random_piecewise,
    rank_one_design,
    reference_greedy_basis,
)

F = Fraction


def synthetic_env(sigma: float = 0.1) -> tuple[LinearGaussianEnvironment, ArmSet]:
    """d=2, k=10, best arm first, every suboptimal gap >= 0.3."""
    arms = tuple(
        [(1.0, 0.0)] + [(0.6 - 0.15 * j, 0.4) for j in range(9)]
    )
    X = ArmSet(arms=arms)
    return LinearGaussianEnvironment(X, phi=(1.0, 0.0), sigma=sigma), X


# ---------------------------------------------------------------------------
# Utility map and arm containers
# ---------------------------------------------------------------------------


def test_utility_map_values(desk_instance):
    # grid types 1/8..7/8 at eps = 1/4; work while p2 >= theta/2
    vec = utility_map(desk_instance, (0.0, 0.25), 0.25)
    assert vec.shape == (4,)
    assert np.allclose(vec, [0.75, 0.75, 0.0, 0.0])
    full = utility_map(desk_instance, (0.0, 1.0), 0.5)
    assert np.allclose(full, [0.0, 0.0])
    with pytest.raises(UsageError):
        utility_map(desk_instance, (0.0, 0.0), 0.0)


def test_utility_map_near_tie_takes_lower_index():
    # At theta = 1/2 both actions give the agent 0, and the principal
    # utilities 0.5 and 0.5 + 5e-10 lie within TIE_TOL, so the best response
    # takes the lower index; the arm coordinate must be its utility.
    inst = Instance(F=((1.0, 0.0), (0.0, 1.0)), r=(0.5, 0.75 + 5e-10), c=(0.0, 0.5))
    p = (0.0, 0.25)
    assert best_response(inst, p, 0.5).principal_utility == 0.5
    assert utility_map(inst, p, 1.0)[0] == 0.5


def test_armset_validation():
    X = ArmSet(arms=((0.5, -0.5), (1.0, 0.0)))
    assert X.k == 2 and X.dim == 2
    assert X.matrix.shape == (2, 2)
    with pytest.raises(UsageError):
        ArmSet(arms=((1.5, 0.0),))
    with pytest.raises(UsageError, match="arm 2 has coordinates"):
        ArmSet(arms=((0.5, 0.5), (1.0, -1.0), (0.0, -1.5), (2.0, 0.0)))
    with pytest.raises(UsageError, match="arm 1 has coordinates"):
        ArmSet(arms=((0.5, 0.5), (math.nan, 0.0)))
    with pytest.raises(UsageError):
        ArmSet(arms=((1.0, 0.0), (1.0,)))


# ---------------------------------------------------------------------------
# Block schedule
# ---------------------------------------------------------------------------


def test_block_constants_frozen():
    assert block_constant(1) == 16
    assert block_constant(2) == 16
    assert block_constant(3) == 24
    assert block_constant(142) == 1628
    assert [block_length(2, ell) for ell in (1, 2, 3, 4)] == [16, 32, 64, 128]
    assert block_length(142, 1) == 1628


# ---------------------------------------------------------------------------
# G-optimal design
# ---------------------------------------------------------------------------


def _leverages(X: ArmSet, w: np.ndarray, rcond: float = 1e-15) -> np.ndarray:
    """Reference leverage computation; arms outside the span of the weighted
    Gram matrix have unbounded leverage."""
    Z = X.matrix
    G = (Z * w[:, None]).T @ Z
    Ginv = np.linalg.pinv(G, rcond=rcond)
    lev = np.einsum("ij,jk,ik->i", Z, Ginv, Z)
    residual = Z - Z @ (Ginv @ G)
    lev[np.linalg.norm(residual, axis=1) > 1e-8] = np.inf
    return lev


def test_design_basis_uniform():
    X = ArmSet(arms=((1.0, 0.0), (0.0, 1.0)))
    w = g_optimal_design(X)
    assert np.allclose(w, [0.5, 0.5])
    assert _leverages(X, w).max() == pytest.approx(2.0)


def test_design_three_arms_matches_grid_search():
    X = ArmSet(arms=((1.0, 0.0), (0.0, 1.0), (0.9, 0.9)))
    w = g_optimal_design(X, tol=0.01)
    got = _leverages(X, w).max()
    best = math.inf
    steps = np.arange(0.0, 1.0 + 1e-12, 0.01)
    for w1, w2 in itertools.product(steps, steps):
        if w1 + w2 > 1.0 + 1e-12:
            continue
        trial = np.array([w1, w2, 1.0 - w1 - w2])
        best = min(best, _leverages(X, trial).max())
    assert got <= best * 1.02 + 1e-9


def test_design_quality_and_support_random():
    gen = np.random.default_rng(5)
    for d, k in ((3, 20), (4, 40)):
        arms = tuple(tuple(row) for row in gen.uniform(-1, 1, size=(k, d)))
        X = ArmSet(arms=arms)
        w = g_optimal_design(X, tol=0.05)
        assert abs(w.sum() - 1.0) < 1e-9
        assert sum(w > 0) <= block_constant(d)
        assert _leverages(X, w).max() <= 1.05 * d + 1e-6


def test_design_rank_deficient_arms():
    # collinear arms span a 1-dimensional subspace: leverage approaches 1
    X = ArmSet(arms=((1.0, 1.0), (0.5, 0.5), (-0.25, -0.25)))
    w = g_optimal_design(X, tol=0.01)
    assert _leverages(X, w).max() <= 1.01 + 1e-6


def test_design_zero_arm_handling():
    X = ArmSet(arms=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    w = g_optimal_design(X)
    assert w[0] == 0.0
    with pytest.raises(UsageError):
        g_optimal_design(ArmSet(arms=((0.0, 0.0), (0.0, 0.0))))


def test_removal_leverages_match_fresh_inverse():
    gen = np.random.default_rng(11)
    Z = gen.uniform(-1, 1, size=(12, 4))
    w = gen.uniform(0.5, 1.5, size=12)
    w /= w.sum()
    M, lev = _inverse_leverages(Z, w)
    trials = _removal_trials(Z, M, lev, w, list(range(12)))
    for i in range(12):
        got = trials[:, i]
        trial = w.copy()
        trial[i] = 0.0
        trial /= trial.sum()
        Ginv = np.linalg.inv(Z.T @ (Z * trial[:, None]))
        want = np.einsum("ij,jk,ik->i", Z, Ginv, Z)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_removal_of_sole_cover_rejected():
    # (0, 1) is the only arm with a second coordinate: dropping it leaves a
    # singular Gram matrix, so the trial is rejected and pruning keeps it
    X = ArmSet(arms=((1.0, 0.0), (0.5, 0.0), (0.0, 1.0)))
    w = np.array([0.25, 0.25, 0.5])
    M, lev = _inverse_leverages(X.matrix, w)
    trials = _removal_trials(X.matrix, M, lev, w, [0, 1, 2])
    assert np.isposinf(trials[:, 2]).all()
    assert np.isfinite(trials[:, :2]).all()
    design = g_optimal_design(X, tol=0.01)
    assert design[2] > 0
    assert _leverages(X, design).max() <= 1.01 * 2 + 1e-9


def test_design_pruning_keeps_span_on_desk_subset(desk_instance):
    # ten DESK candidate contracts at grid width 1/8 span 7 of 8 dimensions;
    # dropping the arm of (29/32, 1) from the full-inverse design leaves a
    # singular Gram matrix whose float inverse does not fail and whose
    # leverages (max 6.99) pass the target 7.35, so that design loses a
    # direction
    pays = [(0, j / 32) for j in (0, 1, 5, 7, 11, 13)]
    pays += [(0, 1), (29 / 32, 1), (31 / 32, 1), (1, 0)]
    X = ArmSet(arms=tuple(tuple(utility_map(desk_instance, p, 0.125)) for p in pays))
    w = g_optimal_design(X)
    assert _leverages(X, w, rcond=1e-10).max() <= 1.05 * 7 * (1 + 1e-9)
    assert _leverages(X, full_inverse_design(X)).max() == math.inf


def test_design_cap_trial_kept_and_rejected(monkeypatch):
    # block_constant(d) = 1 makes the cap the rank, 2, below both supports
    def at_cap(X: ArmSet) -> np.ndarray:
        with monkeypatch.context() as m:
            m.setattr(bandit, "block_constant", lambda d: 1)
            return g_optimal_design(X)

    # kept: the two heaviest of four support arms hold leverage 2.07 <= 2.1
    X = ArmSet(arms=((-0.97, 0.15), (-0.9, -0.7), (0.54, 0.95),
                     (0.19, 0.61), (-0.52, 0.65), (-0.31, -0.45)))
    free = g_optimal_design(X)
    assert int((free > 0).sum()) == 4
    w = at_cap(X)
    heaviest = np.argsort(free)[::-1][:2]
    assert sorted(np.flatnonzero(w)) == sorted(heaviest)
    assert np.allclose(w[heaviest], free[heaviest] / free[heaviest].sum())
    assert _leverages(X, w).max() <= 1.05 * 2
    # rejected: three arms 120 degrees apart; any two leave the third at
    # leverage 4 > 2.1, so the uniform design stays
    X = ArmSet(arms=tuple(
        (math.cos(2 * math.pi * j / 3), math.sin(2 * math.pi * j / 3)) for j in range(3)
    ))
    free = g_optimal_design(X)
    assert int((free > 0).sum()) == 3
    assert np.array_equal(at_cap(X), free)


@st.composite
def design_arm_sets(draw) -> ArmSet:
    """Arm sets with d = 1..6 and k = d..4d: rows are integer combinations
    of r <= d integer basis rows (rank-deficient when r < d), some rows
    zeroed, some copied from others, all scaled into [-1, 1]."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(d, 4 * d))
    r = draw(st.integers(1, d))

    def matrix(rows: int, cols: int) -> np.ndarray:
        row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)))

    A = (matrix(k, r) @ matrix(r, d)).astype(float)
    index = st.integers(0, k - 1)
    for i in draw(st.lists(index, max_size=k // 3)):
        A[i] = 0.0
    for i, j in draw(st.lists(st.tuples(index, index), max_size=k // 2)):
        A[i] = A[j]
    if not A.any():
        A[0, 0] = 1.0
    A /= np.abs(A).max()
    return ArmSet(arms=tuple(tuple(row) for row in A))


def _check_design(X: ArmSet, w: np.ndarray, tol: float, rank: int) -> None:
    assert w.shape == (X.k,)
    assert (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9
    assert sum(w > 0) <= max(block_constant(X.dim), rank)
    assert _leverages(X, w, rcond=1e-10).max() <= (1 + tol) * rank * (1 + 1e-9)


@settings(max_examples=40)
@given(X=design_arm_sets(), tol=st.sampled_from((0.01, 0.05)))
def test_design_bound_property(X, tol):
    rank = int(np.linalg.matrix_rank(X.matrix))
    w = g_optimal_design(X, tol=tol)
    _check_design(X, w, tol, rank)
    # the full-inverse oracle can accept a removal whose Gram matrix is
    # singular but whose float inverse does not fail (see the DESK subset
    # test above); it is held to the same bound whenever its design spans
    oracle = full_inverse_design(X, tol=tol)
    if np.isfinite(_leverages(X, oracle, rcond=1e-10)).all():
        _check_design(X, oracle, tol, rank)
    # every pruning trial on the returned support: rejected exactly when
    # the remaining Gram matrix is singular, else the fresh-inverse leverages
    Z = X.matrix @ np.linalg.svd(X.matrix)[2][:rank].T
    M, lev = _inverse_leverages(Z, w)
    support = [int(i) for i in np.flatnonzero(w)]
    trials = _removal_trials(Z, M, lev, w, support)
    for j, i in enumerate(support):
        got = trials[:, j]
        trial = w.copy()
        trial[i] = 0.0
        G = Z.T @ (Z * trial[:, None])
        if np.linalg.matrix_rank(G) < rank:
            assert np.isposinf(got).all()
            continue
        assert np.isfinite(got).all()
        want = np.einsum("ij,jk,ik->i", Z, np.linalg.inv(G / trial.sum()), Z)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@st.composite
def tie_free_arm_sets(draw) -> ArmSet:
    """Arm sets with d = 1..12 and k = d..4d, uniform on [-1, 1]^d from a
    drawn seed: leverages and weights tie with probability 0, so both
    designs take the same arm at every step."""
    d = draw(st.integers(1, 12))
    k = draw(st.integers(d, 4 * d))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ArmSet(arms=tuple(tuple(row) for row in gen.uniform(-1.0, 1.0, size=(k, d))))


@settings(max_examples=60, deadline=None)
@given(X=tie_free_arm_sets(), tol=st.sampled_from((0.01, 0.05)))
def test_design_matches_rank_one_reference(X, tol):
    # the product-form inverse and the blocked trials change only rounding:
    # the same support, and weights within 1e-9 of the largest
    w = g_optimal_design(X, tol=tol)
    want = rank_one_design(X, tol=tol)
    assert np.array_equal(w > 0, want > 0)
    assert np.abs(w - want).max() <= 1e-9 * want.max()


def test_design_plans_match_rank_one_reference_on_desk(desk_instance, uniform_gamma):
    # the first block of the benchmark's PAC run, eta = 5: 190 arms at
    # d = 93, about 270 Frank-Wolfe steps and one refresh; every block's
    # plan ceil(T_ell w) is the reference's
    X = contract_environment(desk_instance, uniform_gamma, F(5, 48) ** 2).arms
    assert (X.k, X.dim) == (190, 93)
    w = g_optimal_design(X)
    want = rank_one_design(X)
    for ell in range(1, 8):
        t_ell = block_length(X.dim, ell)
        assert [math.ceil(t_ell * v) for v in w] == [math.ceil(t_ell * v) for v in want]


def _projected_arms(X: ArmSet) -> tuple[np.ndarray, int]:
    """The arms in the span coordinates ``g_optimal_design`` builds its
    basis in, and the rank."""
    s, Vt = np.linalg.svd(X.matrix, full_matrices=False)[1:]
    rank = int((s > max(s[0], 1.0) * _RANK_TOL).sum())
    return X.matrix @ Vt[:rank].T, rank


@settings(max_examples=100, deadline=None)
@given(X=st.one_of(design_arm_sets(), tie_free_arm_sets()))
def test_greedy_basis_matches_reference(X):
    # the buffered update makes the same floats, so the same arms in the
    # same order, ties and early stops included
    Z, rank = _projected_arms(X)
    assert _greedy_basis(Z, rank) == reference_greedy_basis(Z, rank)
    assert _greedy_basis(X.matrix, X.dim) == reference_greedy_basis(X.matrix, X.dim)


def test_greedy_basis_matches_reference_on_desk(desk_instance, uniform_gamma):
    # the benchmark's first PAC design at eta = 5: 93 steps on 190 arms
    X = contract_environment(desk_instance, uniform_gamma, F(5, 48) ** 2).arms
    Z, rank = _projected_arms(X)
    assert (Z.shape, rank) == ((190, 93), 93)
    assert _greedy_basis(Z, rank) == reference_greedy_basis(Z, rank)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


def test_linear_gaussian_env_statistics():
    env, _ = synthetic_env()
    assert env.arms.k == 10
    assert env.true_mean(0) == pytest.approx(1.0)
    assert env.true_mean(1) == pytest.approx(0.6)
    rng = rng_new(0)
    total = env.pull_sum(0, 4000, rng)
    assert abs(total / 4000 - 1.0) < 0.01
    # misspecification offsets shift the pulled mean but not the linear model
    off = LinearGaussianEnvironment(
        ArmSet(arms=((1.0, 0.0),)), phi=(1.0, 0.0), sigma=0.0, offsets=(0.25,)
    )
    assert off.pull_sum(0, 1, rng_new(1)) == pytest.approx(1.25)
    assert off.true_mean(0) == pytest.approx(1.25)


def test_contract_environment_exact_mean():
    inst = Instance(F=((F(1, 2), F(1, 2)),), r=(F(0), F(1)), c=(F(0),))
    env = ContractEnvironment(inst, uniform_distribution(), 1.0, [(F(0), F(1, 2))])
    assert env.arms == ArmSet(arms=((0.25,),), contracts=((F(0), F(1, 2)),))
    assert env.true_mean(0) == pytest.approx(0.25)
    rng = rng_new(7)
    total = env.pull_sum(0, 4000, rng)
    assert abs(total / 4000 - 0.25) < 0.02


_TRIO = Instance(
    F=(
        (F(3, 4), F(1, 4), F(0)),
        (F(1, 4), F(1, 2), F(1, 4)),
        (F(0), F(1, 4), F(3, 4)),
    ),
    r=(F(0), F(1, 2), F(1)),
    c=(F(0), F(1, 4), F(1, 2)),
)


def test_true_mean_reads_the_arm_table(desk_instance, monkeypatch):
    # true_mean answers from the response table that pull_sum samples from,
    # building none, and gives the public expectation of the arm's contract
    half_heavy = PiecewiseConstant((F(0), F(1, 2), F(1)), (F(3, 2), F(1, 2)))
    init = core.ResponseTable.__init__
    built = []

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    for inst, gamma in ((desk_instance, uniform_distribution()), (_TRIO, half_heavy)):
        env = contract_environment(inst, gamma, F(1, 8))
        monkeypatch.setattr(core.ResponseTable, "__init__", counted_init)
        means = [env.true_mean(a) for a in range(env.arms.k)]
        monkeypatch.undo()
        assert built == []
        assert means == [
            float(expected_principal_utility_continuous(inst, gamma, p))
            for p in env.arms.contracts
        ]


def _bits(rows) -> list[list[str]]:
    return [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize("chunk", [1, 7, 45, 500, None])
@pytest.mark.parametrize("case", ["desk", "trio", "float"])
def test_arm_rows_match_per_table_rows(desk_instance, monkeypatch, chunk, case):
    # one stacked_actions call per chunk of whole arms gives each entry the
    # principal utility of its own table's response at its type, bit for
    # bit; DESK on the learn regret grid (94 arms of 45 types, 2 actions)
    # spans three chunks at the default bound, and smaller bounds cut every
    # arm set into many
    inst, eps = {
        "desk": (desk_instance, 1 / math.sqrt(2000)),
        "trio": (_TRIO, F(1, 9)),
        "float": (float_instance(_TRIO), 0.15),
    }[case]
    if chunk is not None:
        monkeypatch.setattr(bandit, "_CHUNK_PULLS", chunk)
    contracts = None
    if case == "float":
        exact = candidate_contract_set(_TRIO, grid_points(F(3, 20)))
        contracts = [tuple(float(x) for x in p) for p in exact]
    env = ContractEnvironment(inst, uniform_distribution(), eps, contracts)
    grid = np.asarray(grid_points(eps), dtype=float)
    want = [
        [float(t.respond(float(theta)).principal_utility) for theta in grid]
        for t in env.tables
    ]
    assert _bits(env.arms.arms) == _bits(want)
    if case == "desk" and chunk is None:
        assert (env.arms.k, env.arms.dim) == (94, 45)
        assert env.arms.k * env.arms.dim * 2 > 2 * bandit._CHUNK_PULLS


def test_contract_environment_builder(desk_instance):
    env = contract_environment(desk_instance, uniform_distribution(), 0.25)
    assert env.arms.dim == 4
    assert env.arms.k >= 4
    means = [env.true_mean(i) for i in range(env.arms.k)]
    # the best candidate contract must beat the null contract's value 0
    assert max(means) > 0.4
    # one table per arm, for the arm's own contract
    assert [t.rp for t in env.tables] == [
        [r - x for r, x in zip(desk_instance.r, p)] for p in env.arms.contracts
    ]
    rng = rng_new(3)
    draws = [env.pull_sum(0, 1, rng) for _ in range(5)]
    assert all(-1.0 - 1e-9 <= x <= 1.0 + 1e-9 for x in draws)


# A batch of pulls draws what one-pair draws take in turn: the same sums,
# compared with ==, and the same generator state afterwards.  Plans repeat
# arms, hold counts of 0 and 1, and cross the chunk bound of 4,096 pulls.


def _plain_state(rng: np.random.Generator):
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


def _assert_batch_matches_one_pair_draws(env, reference, plan, seed):
    arms = [arm % env.arms.k for arm, _ in plan]
    counts = [count for _, count in plan]
    batch, alone = rng_new(seed), rng_new(seed)
    got = env.pull_sums(arms, counts, batch)
    want = [reference(env, arm, count, alone) for arm, count in zip(arms, counts)]
    assert all(type(x) is float for x in got)
    assert got == want
    assert _plain_state(batch) == _plain_state(alone)


_PLANS = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.one_of(st.integers(0, 3), st.integers(1, 80), st.integers(1500, 4500)),
    ),
    min_size=1,
    max_size=7,
)
_CROSSING = [(0, 3000), (1, 1), (0, 1500), (2, 4500), (1, 0), (1, 1)]


@settings(max_examples=40)
@example(gen_seed=0, n=2, m=2, piecewise=False, width=4, plan=_CROSSING, seed=0)
@example(gen_seed=1, n=4, m=3, piecewise=True, width=3, plan=_CROSSING, seed=1)
@given(
    gen_seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(2, 3),
    piecewise=st.booleans(),
    width=st.integers(2, 5),
    plan=_PLANS,
    seed=st.integers(0, 2**32 - 1),
)
def test_contract_pull_sums_match_one_pair_draws(gen_seed, n, m, piecewise, width, plan, seed):
    gen = random.Random(gen_seed)
    inst = random_instance(gen, n, m)
    gamma = random_piecewise(gen) if piecewise else uniform_distribution()
    env = contract_environment(inst, gamma, F(1, width))
    _assert_batch_matches_one_pair_draws(env, contract_pull_sum, plan, seed)


@settings(max_examples=40)
@example(k=3, sigma=0.5, offsets=True, plan=_CROSSING, seed=2)
@given(
    k=st.integers(1, 6),
    sigma=st.sampled_from([0.0, 0.1, 1.0]),
    offsets=st.booleans(),
    plan=_PLANS,
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_pull_sums_match_one_pair_draws(k, sigma, offsets, plan, seed):
    gen = np.random.default_rng(k)
    X = ArmSet(arms=tuple(map(tuple, gen.uniform(-1, 1, (k, 3)).tolist())))
    shift = tuple(gen.uniform(-0.1, 0.1, k).tolist()) if offsets else None
    env = LinearGaussianEnvironment(X, phi=(0.5, -0.25, 0.2), sigma=sigma, offsets=shift)
    _assert_batch_matches_one_pair_draws(env, gaussian_pull_sum, plan, seed)


def test_pull_sums_draw_once_per_chunk(desk_instance):
    # chunks are runs of whole pairs of at most 4,096 pulls; a larger pair is
    # a chunk of its own, and a chunk of no pulls draws nothing
    env = contract_environment(desk_instance, uniform_distribution(), F(1, 4))
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            calls.append(size)
            return self.rng.random(size)

    arms, counts = zip(*[(0, 3000), (1, 1000), (2, 96), (0, 1), (1, 5000), (1, 0), (2, 1)])
    env.pull_sums(list(arms), list(counts), Counting(rng_new(0)))
    assert calls == [2 * 4096, 2 * 1, 2 * 5000, 2 * 1]
    calls.clear()
    assert env.pull_sums([0, 1], [0, 0], Counting(rng_new(0))) == [0.0, 0.0]
    assert calls == []


@pytest.mark.parametrize(
    "row, u",
    [
        # u equal to an entry of cumulative F: searchsorted side "right"
        # puts it past that entry, on outcome 1 of 2
        ((F(1, 2), F(1, 2), F(0)), 0.5),
        # cumulative F ends at 0.9999999999999999 <= u: clamped to outcome 2
        ((F(1, 6), F(2, 3), F(1, 6)), float(np.nextafter(1.0, 0.0))),
    ],
)
def test_pull_sums_outcome_edges(row, u):
    class Constant:
        def random(self, size):
            return np.full(size, u)

    inst = Instance(F=(row,), r=(F(0), F(1), F(1)), c=(F(0),))
    env = ContractEnvironment(inst, uniform_distribution(), F(1, 2), [(F(0),) * 3])
    got = env.pull_sums([0, 0], [3, 1], Constant())
    assert got == [contract_pull_sum(env, 0, c, Constant()) for c in (3, 1)]
    assert got == [3.0, 1.0]


# ---------------------------------------------------------------------------
# Phased elimination
# ---------------------------------------------------------------------------


def test_elimination_two_arms_block_six():
    # d=1, gap 0.5, sigma=0.1, delta=0.05: the threshold first drops below
    # the gap in block 6, where the bad arm must be eliminated
    X = ArmSet(arms=((1.0,), (0.5,)))
    env = LinearGaussianEnvironment(X, phi=(1.0,), sigma=0.1)
    history, state = phased_elimination(env, X, horizon=2000, delta=0.05, rng=rng_new(0))
    assert state.active == (0,)
    drop = next(b for b in state.blocks if b.active_after != b.active_before)
    assert drop.ell == 6
    assert sum(count for _, count, _ in history) == 2000


def test_elimination_deterministic_and_exhausts_horizon():
    env, X = synthetic_env()
    a = phased_elimination(env, X, horizon=3000, delta=0.05, rng=rng_new(11))
    b = phased_elimination(env, X, horizon=3000, delta=0.05, rng=rng_new(11))
    assert a[0] == b[0]
    assert a[1].active == b[1].active
    assert sum(count for _, count, _ in a[0]) == 3000
    # an incomplete final block is recorded but not used for elimination
    last = a[1].blocks[-1]
    if not last.complete:
        assert last.phi_hat is None
        assert last.active_after == last.active_before


def test_elimination_single_arm():
    X = ArmSet(arms=((1.0,),))
    env = LinearGaussianEnvironment(X, phi=(1.0,), sigma=0.1)
    history, state = phased_elimination(env, X, horizon=100, delta=0.1, rng=rng_new(0))
    assert state.active == (0,)
    assert sum(count for _, count, _ in history) == 100


def test_elimination_continues_on_zero_arms():
    # once only zero arms survive there is no design to compute; the run
    # still spends its horizon on them
    X = ArmSet(arms=((1.0,), (0.0,), (0.0,)))
    env = LinearGaussianEnvironment(X, phi=(-1.0,), sigma=0.1)
    history, state = phased_elimination(env, X, horizon=5000, delta=0.1, rng=rng_new(0))
    assert state.active == (1, 2)
    assert sum(count for _, count, _ in history) == 5000


def test_elimination_plan_counts_cover_design():
    # pulls in a block follow the rounded-up design allocation
    env, X = synthetic_env()
    history, state = phased_elimination(env, X, horizon=10_000, delta=0.05, rng=rng_new(2))
    block = state.blocks[0]
    assert block.complete
    counts: dict[int, int] = {}
    for arm, count, _ in history:  # block 1 is the history's first pulls
        if sum(counts.values()) == block.pulls:
            break
        counts[arm] = count
    assert sum(counts.values()) == block.pulls
    w = g_optimal_design(X)
    for arm in block.active_before:
        need = block.t_ell * w[arm]
        assert counts.get(arm, 0) >= need - 1e-9
        assert counts.get(arm, 0) <= need + 1


@settings(max_examples=40)
@given(
    d=st.integers(1, 5),
    extra=st.integers(0, 8),
    horizon=st.integers(1, 3000),
    budget=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_fit_matches_pairwise_accumulation(d, extra, horizon, budget, seed):
    # every complete block's estimate, refitted from its slice of the
    # history one outer product per pair
    gen = np.random.default_rng(seed)
    X = ArmSet(arms=tuple(map(tuple, gen.uniform(-1, 1, size=(d + extra, d)))))
    env = LinearGaussianEnvironment(X, phi=gen.uniform(-1, 1, size=d), sigma=0.5)
    history, state = phased_elimination(
        env, X, horizon, 0.1, rng_new(seed), block_budget=budget
    )
    start = 0
    for block in state.blocks:
        end, pulled = start, 0
        while pulled < block.pulls:
            pulled += history[end][1]
            end += 1
        if block.complete:
            arms, counts, sums = zip(*history[start:end])
            want = pairwise_block_fit(X.matrix, arms, counts, sums)
            got = np.asarray(block.phi_hat)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        else:
            assert block.phi_hat is None
        start = end
    assert start == len(history)


# ---------------------------------------------------------------------------
# PAC search
# ---------------------------------------------------------------------------


def test_pac_blocks_frozen():
    assert pac_blocks(2, 10, 0.2, 0.1, 0.0) == 14
    assert pac_blocks(2, 10, 12.0, 0.1, 0.0) == 1
    with pytest.raises(UsageError):
        pac_blocks(2, 10, 0.2, 0.1, 1.0)  # eta - 6 alpha sqrt(d) <= 0


def test_pac_best_arm_budget_and_winner():
    env, X = synthetic_env()
    res = pac_best_arm(env, X, eta=0.2, delta=0.1, rng=rng_new(0))
    L = pac_blocks(2, 10, 0.2, 0.1, 0.0)
    assert res.blocks == L
    assert res.samples == block_constant(2) * (2**L - 1)
    assert res.samples <= block_constant(2) * 2**L
    assert res.arm == 0


@settings(max_examples=30, deadline=None)
@given(
    X=design_arm_sets(),
    data=st.data(),
    eta=st.sampled_from((0.1, 0.3, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pac_best_arm_runs_complete_blocks(X, data, eta, seed):
    # with block budgets the horizon sum_{ell <= L} T_ell is spent in exactly
    # L complete blocks of T_ell pulls, with no cap on the block count
    phi = data.draw(st.lists(st.floats(-1, 1), min_size=X.dim, max_size=X.dim))
    env = LinearGaussianEnvironment(X, phi=phi, sigma=0.1)
    res = pac_best_arm(env, X, eta=eta, delta=0.1, rng=rng_new(seed))
    blocks = res.state.blocks
    assert len(blocks) == res.blocks
    assert [b.ell for b in blocks] == list(range(1, res.blocks + 1))
    assert all(b.complete and b.pulls == b.t_ell for b in blocks)
    assert res.samples == block_constant(X.dim) * (2**res.blocks - 1)


def test_pac_single_arm_short_circuit():
    X = ArmSet(arms=((0.5,),))
    env = LinearGaussianEnvironment(X, phi=(1.0,), sigma=0.1)
    res = pac_best_arm(env, X, eta=0.5, delta=0.1, rng=rng_new(0))
    assert res.arm == 0
    assert res.blocks == 1


def test_pac_best_contract_guard_and_success(desk_instance):
    with pytest.raises(ResourceGuardError):
        pac_best_contract(desk_instance, uniform_distribution(), 0.2, 0.1, seed=0)
    res = pac_best_contract(desk_instance, uniform_distribution(), 12.0, 0.1, seed=0)
    assert res.contract == (F(0), F(31, 64))
    assert res.samples == 1008
    assert res.blocks == 3
    assert res.dimension == 16


FIVE_OUTCOMES = Instance(
    F=((1, 0, 0, 0, 0), (0, F(1, 2), F(1, 2), 0, 0), (0, 0, 0, F(1, 2), F(1, 2))),
    r=(0, F(1, 4), F(1, 2), F(3, 4), 1),
    c=(0, F(1, 8), F(1, 4)),
)


def test_pac_best_contract_environment_guard(monkeypatch):
    # eta = 16 gives the grid width (16 / 72)^2 = 4/81, d = 21 and 14,050
    # candidate arms: 14,050 * (21 + 64) entries, refused before any table
    def no_table(*args):
        raise AssertionError("a response table was built")

    monkeypatch.setattr(core, "ResponseTable", no_table)
    with pytest.raises(ResourceGuardError) as err:
        pac_best_contract(FIVE_OUTCOMES, uniform_distribution(), 16, 0.1, seed=0)
    assert str(err.value) == (
        "learning environment would store 1194250 entries (14050 arms, "
        "dimension 21), above the guard of 1000000"
    )


def test_pac_best_contract_five_outcomes_pinned():
    # eta = 20: 5,498 arms at d = 13 and two blocks.  The contract and
    # sample count of the rank-one design (``helpers.rank_one_design``): a
    # design whose plan ceil(T_ell w) moved could change them
    res = pac_best_contract(FIVE_OUTCOMES, uniform_distribution(), 20, 0.1, seed=0)
    assert res.contract == (0, 0, 0, 0, F(625, 1296))
    assert res.samples == 345


# ---------------------------------------------------------------------------
# Regret harness
# ---------------------------------------------------------------------------


def test_regret_run_shape_and_determinism(desk_instance, uniform_gamma):
    env = contract_environment(desk_instance, uniform_gamma, 1.0 / math.sqrt(400))
    a = algorithm1_regret(desk_instance, uniform_gamma, 400, seed=1, env=env)
    b = algorithm1_regret(desk_instance, uniform_gamma, 400, seed=1, env=env)
    assert a.curve.shape == (400,)
    assert np.array_equal(a.curve, b.curve)
    # pseudo-regret accumulates a nonnegative gap each round
    diffs = np.diff(np.concatenate(([0.0], a.curve)))
    assert (diffs >= -1e-12).all()
    assert a.opt_ref == pytest.approx(max(env.true_mean(i) for i in range(env.arms.k)))


def test_regret_builds_its_own_environment(desk_instance, uniform_gamma):
    env = contract_environment(desk_instance, uniform_gamma, 1.0 / math.sqrt(400))
    given = algorithm1_regret(desk_instance, uniform_gamma, 400, seed=2, env=env)
    built = algorithm1_regret(desk_instance, uniform_gamma, 400, seed=2)
    assert np.array_equal(built.curve, given.curve)
    assert built.opt_ref == given.opt_ref
    assert built.state == given.state


def test_regret_seeds_draw_different_rewards(desk_instance, uniform_gamma):
    # pseudo-regret depends only on the pull schedule, which cannot change
    # at this short horizon; the sampled rewards must still differ by seed
    env = contract_environment(desk_instance, uniform_gamma, 1.0 / math.sqrt(400))
    a = algorithm1_regret(desk_instance, uniform_gamma, 400, seed=0, env=env)
    b = algorithm1_regret(desk_instance, uniform_gamma, 400, seed=1, env=env)
    sums_a = [r for _, _, r in a.state.history]
    sums_b = [r for _, _, r in b.state.history]
    assert sums_a != sums_b


# ---------------------------------------------------------------------------
# Argument checks
# ---------------------------------------------------------------------------

_DESK = Instance(F=((F(1), F(0)), (F(0), F(1))), r=(F(0), F(1)), c=(F(0), F(1, 2)))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: ArmSet(arms=()), "need at least one arm", id="arms-empty"),
        pytest.param(lambda: ArmSet(arms=((),)), "arms must have at least one coordinate",
                     id="arms-no-coordinate"),
        pytest.param(lambda: ArmSet(arms=((1.0,),), contracts=((F(0),), (F(1),))),
                     "contract tags must match arm count", id="arms-tags"),
        pytest.param(lambda: ContractEnvironment(_DESK, Discrete((F(1, 2),), (F(1),)), F(1, 2)),
                     "type distribution must have a bounded density; atoms are not supported",
                     id="environment-atoms"),
        pytest.param(lambda: block_constant(0), "dimension must be positive, got 0",
                     id="block-constant"),
        pytest.param(lambda: block_length(2, 0), "block index must be positive, got 0",
                     id="block-length"),
        pytest.param(lambda: phased_elimination(*synthetic_env(), 0, 0.1, rng_new(0)),
                     "horizon must be positive, got 0", id="elimination-horizon"),
        pytest.param(lambda: phased_elimination(*synthetic_env(), 10, 0.0, rng_new(0)),
                     "confidence must lie in (0,1], got 0.0", id="elimination-delta-0"),
        pytest.param(lambda: phased_elimination(*synthetic_env(), 10, 1.5, rng_new(0)),
                     "confidence must lie in (0,1], got 1.5", id="elimination-delta-1.5"),
        pytest.param(lambda: algorithm1_regret(_DESK, uniform_distribution(), 0, 0),
                     "horizon must be positive, got 0", id="regret-horizon"),
        pytest.param(lambda: algorithm1_regret(
                         _DESK, uniform_distribution(), 100, 0,
                         env=contract_environment(_DESK, uniform_distribution(), 0.5)),
                     "environment grid width 0.5 does not match horizon (needs 0.1)",
                     id="regret-grid-width"),
        pytest.param(lambda: pac_blocks(2, 3, 0.0, 0.1, 0.0),
                     "suboptimality target must be positive, got 0.0", id="pac-blocks-eta"),
        pytest.param(lambda: pac_blocks(2, 3, 1.0, 0.0, 0.0),
                     "confidence must lie in (0,1), got 0.0", id="pac-blocks-delta-0"),
        pytest.param(lambda: pac_blocks(2, 3, 1.0, 1.0, 0.0),
                     "confidence must lie in (0,1), got 1.0", id="pac-blocks-delta-1"),
        pytest.param(lambda: pac_best_contract(_DESK, uniform_distribution(), F(-1), 0.1, 0),
                     "suboptimality target must be positive, got -1", id="pac-contract-eta"),
    ],
)
def test_argument_checks(build, message):
    with pytest.raises(UsageError) as err:
        build()
    assert type(err.value) is UsageError
    assert str(err.value) == message
