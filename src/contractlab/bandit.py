"""Online contract design as a misspecified linear bandit.

Maps candidate contracts to utility-space arm vectors over a type grid,
computes near-G-optimal designs by Frank-Wolfe, and runs block-structured
phased elimination in two modes: cumulative-regret over a fixed horizon and
fixed-confidence best-arm identification with a block count set from the
target suboptimality.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import core, dist, solver
from .core import Contract, Instance
from .dist import TypeDistribution
from .errors import ResourceGuardError, UsageError
from .numerics import Num, llog2, np, rng_new

__all__ = [
    "PAC_MAX_DIMENSION",
    "ENVIRONMENT_GUARD",
    "ArmSet",
    "g_optimal_design",
    "Environment",
    "ContractEnvironment",
    "contract_environment",
    "utility_map",
    "block_constant",
    "block_length",
    "BlockRecord",
    "EliminationState",
    "phased_elimination",
    "RegretRun",
    "algorithm1_regret",
    "PacResult",
    "pac_blocks",
    "pac_best_arm",
    "PacContractResult",
    "pac_best_contract",
]

PAC_MAX_DIMENSION = 512
# ContractEnvironment keeps, per arm, one response table and one arm row of d
# floats.  A table takes 2.0-2.8 kB, as much as about _TABLE_ENTRIES floats of
# a row (40 B each), so the guard bounds arms * (d + _TABLE_ENTRIES).  Peak
# RSS grew by 55-75 B per entry, so the limit is about 75 MB; it admits DESK
# on the finest PAC grid (1,028 arms at d = 512: 592,000 entries).
ENVIRONMENT_GUARD = 10**6
_TABLE_ENTRIES = 64
_ARM_TOL = 1e-9
_RANK_TOL = 1e-12
_DESIGN_REFRESH = 256
_DESIGN_MAX_ITERS = 20_000


def utility_map(inst: Instance, p: Sequence[Num], eps: float) -> np.ndarray:
    """Principal utilities of one contract across the half-offset type grid."""
    grid = np.asarray(dist.grid_points(eps), dtype=float)
    t = core.ResponseTable(inst, p)
    rows = _arm_rows(t.fp_arr[None], t.pu_arr[None], t.near_arr[None], inst.c_arr, grid)
    return np.asarray(rows[0])


@dataclass(frozen=True)
class ArmSet:
    """Finite arm vectors in utility space, optionally tagged with the
    contract realizing each arm."""

    arms: tuple[tuple[float, ...], ...]
    contracts: tuple[Contract, ...] | None = None

    def __post_init__(self) -> None:
        if not self.arms:
            raise UsageError("need at least one arm")
        d = len(self.arms[0])
        if d == 0:
            raise UsageError("arms must have at least one coordinate")
        for i, x in enumerate(self.arms):
            if len(x) != d:
                raise UsageError(f"arm {i} has dimension {len(x)}, expected {d}")
        outside = np.flatnonzero(~(np.abs(self.matrix) <= 1 + _ARM_TOL).all(axis=1))
        if outside.size:
            raise UsageError(f"arm {outside[0]} has coordinates outside [-1,1]")
        if self.contracts is not None and len(self.contracts) != len(self.arms):
            raise UsageError("contract tags must match arm count")

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def dim(self) -> int:
        return len(self.arms[0])

    @cached_property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.arms, dtype=float)

    @cached_property
    def design_cache(self) -> dict[frozenset[int], np.ndarray]:
        """Design weights of ``phased_elimination`` keyed by the active arms;
        ``g_optimal_design`` is deterministic, so runs sharing this arm set
        compute each design once."""
        return {}


def _greedy_basis(Z: np.ndarray, rank: int) -> list[int]:
    """Indices of `rank` arms picked greedily by residual norm."""
    residual = Z.copy()
    chosen: list[int] = []
    for _ in range(rank):
        norms = np.einsum("ij,ij->i", residual, residual)
        i = int(np.argmax(norms))
        if norms[i] <= _RANK_TOL:
            break
        chosen.append(i)
        v = residual[i] / math.sqrt(norms[i])
        residual -= np.outer(residual @ v, v)
    return chosen


def _inverse_leverages(Z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse weighted Gram matrix M and the leverages z_i' M z_i of all rows."""
    M = np.linalg.inv(Z.T @ (Z * w[:, None]))
    return M, np.einsum("ij,ij->i", Z @ M, Z)


def _removal_leverages(
    Z: np.ndarray, M: np.ndarray, lev: np.ndarray, w: np.ndarray, i: int
) -> np.ndarray | None:
    """Leverages after dropping arm i and renormalising, in O(k d); None
    when that Gram matrix is singular.

    The trial Gram matrix is G' = (G - w_i z_i z_i') / (1 - w_i), G = inv(M).
    det(G - w_i z_i z_i') = det(G) s with s = 1 - w_i lev_i (determinant
    lemma), and G >= w_i z_i z_i' gives s >= 0, so G' is singular exactly
    when s = 0; s at rounding level is rejected as a failed inverse was.
    Else Sherman-Morrison: inv(G') = (1 - w_i)(M + w_i (M z_i)(M z_i)' / s).
    """
    s = 1.0 - w[i] * lev[i]
    if s <= _RANK_TOL:
        return None
    return (1.0 - w[i]) * (lev + (w[i] / s) * (Z @ (M @ Z[i])) ** 2)


def g_optimal_design(X: ArmSet, tol: float = 0.05) -> np.ndarray:
    """Frank-Wolfe G-optimal design followed by greedy support pruning: one
    nonnegative weight per arm, summing to 1.

    Iterates until the maximum leverage is within (1 + tol) of the span
    dimension, then drops low-weight support arms whenever the bound
    survives, aiming at a support of ``block_constant(d)`` arms.
    Rank-deficient arm sets are projected onto their span first.  Each
    Frank-Wolfe step and pruning trial is a rank-one update costing O(k d).
    """
    if not 0 < tol < math.inf:
        raise UsageError(f"design tolerance must be positive and finite, got {tol}")
    A = X.matrix
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int((s > max(s[0], 1.0) * _RANK_TOL).sum()) if s.size else 0
    if rank == 0:
        raise UsageError("all arms are zero vectors; no design exists")
    Z = A @ Vt[:rank].T
    k = X.k

    w = np.zeros(k)
    basis = _greedy_basis(Z, rank)
    w[basis] = 1.0 / len(basis)
    M, lev = _inverse_leverages(Z, w)
    target = (1.0 + tol) * rank
    for it in range(_DESIGN_MAX_ITERS):
        i = int(np.argmax(lev))
        lmax = float(lev[i])
        if lmax <= target:
            break
        gamma = (lmax / rank - 1.0) / (lmax - 1.0)
        w *= 1.0 - gamma
        w[i] += gamma
        if (it + 1) % _DESIGN_REFRESH == 0:
            M, lev = _inverse_leverages(Z, w)
        else:
            # inv(a G + gamma x x') = M / a - c (M x)(M x)', a = 1 - gamma
            Mx = M @ Z[i]
            a = 1.0 - gamma
            c = (gamma / (a * a)) / (1.0 + (gamma / a) * lmax)
            M = M / a - c * np.outer(Mx, Mx)
            lev = lev / a - c * (Z @ Mx) ** 2
    w = np.clip(w, 0.0, None)
    w /= w.sum()

    cap = max(block_constant(X.dim), rank)
    support = [int(i) for i in np.argsort(w) if w[i] > 0]
    M, lev = _inverse_leverages(Z, w)
    for i in support:
        if int((w > 0).sum()) <= max(rank, 1):
            break
        trial = _removal_leverages(Z, M, lev, w, i)
        if trial is not None and float(trial.max()) <= target:
            w[i] = 0.0
            w /= w.sum()
            M, lev = _inverse_leverages(Z, w)
    if int((w > 0).sum()) > cap:
        # keep the cap's heaviest arms only if the bound still holds
        order = np.argsort(w)[::-1]
        trial = np.zeros_like(w)
        trial[order[:cap]] = w[order[:cap]]
        trial /= trial.sum()
        try:
            if float(_inverse_leverages(Z, trial)[1].max()) <= target:
                w = trial
        except np.linalg.LinAlgError:
            pass
    return w


class Environment:
    """Stochastic reward oracle over the finite arm set ``arms``."""

    arms: ArmSet

    def pull_sums(
        self, arms: Sequence[int], counts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """Reward sums of the pairs (arms[i], counts[i]): for each i in
        order, the sum of counts[i] independent rewards of arm arms[i].

        A batch returns the same floats as one ``pull_sum`` call per pair in
        order, and leaves rng in the same state.  Proof: rng.random(n)
        followed by rng.random(m) returns rng.random(n + m) and leaves the
        same state, and so does standard_normal, since each fills its output
        value after value from one stream.  A batch draws in one call what
        the one-pair calls draw in turn, in their order (the layout is in
        each environment's docstring), and computes each reward from its own
        draws alone, so every pair sees the values it would see alone.
        """
        raise NotImplementedError

    def true_mean(self, arm: int) -> float:
        raise NotImplementedError


# Pulls drawn at once by ContractEnvironment.pull_sums: a batch is cut into
# chunks of whole pairs holding at most this many pulls (a pair with more
# pulls is a chunk of its own), so its arrays stay small on long blocks.
_CHUNK_PULLS = 4096


def _arm_rows(
    fp: np.ndarray, pu: np.ndarray, near: np.ndarray, c: np.ndarray, grid: np.ndarray
) -> list[list[float]]:
    """Row a: float(respond(theta).principal_utility) of the table stacked at
    a, for each theta of the grid, bit for bit (see ``stacked_actions``), by
    chunks of whole tables of at most _CHUNK_PULLS (table, type, action)
    entries, or one table; answers are elementwise, so chunks do not matter."""
    n, d, k = c.size, grid.size, len(pu)
    per = max(1, _CHUNK_PULLS // (d * n))
    rows: list[list[float]] = []
    for start in range(0, k, per):
        arms = np.repeat(np.arange(start, min(start + per, k)), d)
        thetas = np.tile(grid, arms.size // d)
        acts = core.stacked_actions(fp, pu, near, c, arms, thetas)
        rows += np.take(pu, arms * n + acts).reshape(-1, d).tolist()
    return rows


class ContractEnvironment(Environment):
    """Reward oracle over candidate contracts: draws a type, lets the agent
    best-respond to the arm's contract, and samples an outcome reward.

    Builds one response table per contract, and the arm set of the
    contracts' principal utilities on the half-offset grid of width eps.
    The contracts default to the candidate contract set of that grid.
    """

    def __init__(
        self,
        inst: Instance,
        gamma: TypeDistribution,
        eps: Num,
        contracts: Sequence[Contract] | None = None,
    ) -> None:
        if isinstance(gamma, dist.Discrete):
            raise UsageError(
                "type distribution must have a bounded density; atoms are not supported"
            )
        points = dist.grid_points(eps)
        if contracts is None:
            contracts = solver.candidate_contract_set(inst, points)
        size = len(contracts) * (len(points) + _TABLE_ENTRIES)
        if size > ENVIRONMENT_GUARD:
            raise ResourceGuardError(
                f"learning environment would store {size} entries ({len(contracts)} "
                f"arms, dimension {len(points)}), above the guard of {ENVIRONMENT_GUARD}"
            )
        grid = np.asarray(points, dtype=float)
        self.inst = inst
        self.gamma = gamma
        self.eps = float(eps)
        self.tables = [core.ResponseTable(inst, p) for p in contracts]
        self._cum_f = np.cumsum(np.asarray(inst.F, dtype=float), axis=1)
        self._fp = np.array([t.fp_arr for t in self.tables])
        self._pu = np.array([t.pu_arr for t in self.tables])
        self._near = np.array([t.near_arr for t in self.tables])
        self._rp = np.array([t.rp_arr for t in self.tables])
        rows = _arm_rows(self._fp, self._pu, self._near, inst.c_arr, grid)
        self.arms = ArmSet(arms=tuple(map(tuple, rows)), contracts=tuple(contracts))
        self._means: dict[int, float] = {}

    def pull_sums(
        self, arms: Sequence[int], counts: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """Reward sums drawn with one rng.random per chunk of whole pairs.

        Draw layout, the order in which one-pair calls take the same
        uniforms: each pair (arm, count) in turn takes count uniforms for
        its types, then count uniforms for its outcomes.  The outcome
        uniforms go to the groups of the pair's pulls that share one
        best-response action, in ascending action order, and each picks an
        outcome by the inverse CDF of its action's row of F.  Types,
        actions and outcomes are elementwise in the draws (``dist.quantile``,
        ``core.stacked_actions``, one comparison per cumulative F entry),
        so batching does not change them.  A pair's sum adds to 0.0, as
        Python floats in ascending action order, each group's numpy sum of
        its rewards r - p over a contiguous array of the group's values in
        draw order; that sum depends only on those values and their order.
        """
        arms = np.asarray(arms, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.intp)
        sums: list[float] = []
        start = 0
        while start < arms.size:
            stop, pulls = start + 1, counts[start]
            while stop < arms.size and pulls + counts[stop] <= _CHUNK_PULLS:
                pulls += counts[stop]
                stop += 1
            sums += self._chunk_sums(arms[start:stop], counts[start:stop], rng)
            start = stop
        return sums

    def _chunk_sums(
        self, arms: np.ndarray, counts: np.ndarray, rng: np.random.Generator
    ) -> list[float]:
        n, m = self.inst.n_actions, self.inst.n_outcomes
        pair = np.repeat(np.arange(arms.size), counts)  # pair of each pull
        sums = [0.0] * arms.size
        if pair.size == 0:
            return sums
        u = rng.random(2 * pair.size)
        # pair i's uniforms start at 2 b_i, b_i the pulls of the pairs before
        # it; pull k of the chunk (k >= b_i) takes uniform k + b_i for its
        # type, and uniform k + b_i + counts[i] sits at the same place among
        # the pair's outcome uniforms
        at = np.arange(pair.size) + np.repeat(np.cumsum(counts) - counts, counts)
        thetas = dist.quantile(self.gamma, np.take(u, at))
        pair_arm = np.take(arms, pair)
        acts = core.stacked_actions(
            self._fp, self._pu, self._near, self.inst.c_arr, pair_arm, thetas
        )
        # group (pair, action), numbered pair by pair in ascending action
        # order, which is the order the outcome uniforms are handed out in
        sizes = np.bincount(pair * n + acts, minlength=arms.size * n)
        group = np.repeat(np.arange(sizes.size), sizes)
        outcome_u = np.take(u, at + np.repeat(counts, counts))
        # the outcome of uniform u under action a is the number of entries
        # <= u in the nondecreasing row cum_f[a] (searchsorted, side="right"),
        # clamped to m - 1; those entries form a prefix, so counting among
        # the first m - 1 entries alone gives the clamp
        action = group % n
        omegas = np.zeros(outcome_u.size, dtype=np.intp)
        for w in range(m - 1):
            omegas += np.take(self._cum_f[:, w], action) <= outcome_u
        rewards = np.take(self._rp, np.take(arms, group // n) * m + omegas)
        nonempty = np.flatnonzero(sizes)
        ends = np.cumsum(sizes)[nonempty]
        starts = ends - sizes[nonempty]
        for g, lo, hi in zip(nonempty.tolist(), starts.tolist(), ends.tolist()):
            sums[g // n] += float(rewards[lo:hi].sum())
        return sums

    def pull_sum(self, arm: int, count: int, rng: np.random.Generator) -> float:
        """Sum of `count` independent rewards from one arm."""
        return self.pull_sums([arm], [count], rng)[0]

    def true_mean(self, arm: int) -> float:
        mean = self._means.get(arm)
        if mean is None:
            mean = float(self.tables[arm].expected_utility(self.gamma))
            self._means[arm] = mean
        return mean


def contract_environment(
    inst: Instance, gamma: TypeDistribution, eps: Num
) -> ContractEnvironment:
    """The sampling environment over the candidate contracts of the eps
    type grid."""
    return ContractEnvironment(inst, gamma, eps)


def block_constant(d: int) -> int:
    """Base block length: ceil(4 d llog2(d) + 16)."""
    if d < 1:
        raise UsageError(f"dimension must be positive, got {d}")
    return math.ceil(4 * d * llog2(d) + 16)


def block_length(d: int, ell: int) -> int:
    """Length of block `ell`, doubling from the base constant."""
    if ell < 1:
        raise UsageError(f"block index must be positive, got {ell}")
    return (2 ** (ell - 1)) * block_constant(d)


@dataclass(frozen=True)
class BlockRecord:
    """One elimination block: schedule, estimate, and surviving arms."""

    ell: int
    t_ell: int
    active_before: tuple[int, ...]
    pulls: int
    phi_hat: tuple[float, ...] | None
    threshold: float
    active_after: tuple[int, ...]
    complete: bool


@dataclass(frozen=True)
class EliminationState:
    """Terminal state of a phased-elimination run."""

    active: tuple[int, ...]
    phi_hat: tuple[float, ...] | None
    history: tuple[tuple[int, int, float], ...]
    blocks: tuple[BlockRecord, ...]


def _solve_estimate(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares estimate, projecting onto the span when G is singular."""
    try:
        phi = np.linalg.solve(G, b)
        if np.isfinite(phi).all():
            return phi
    except np.linalg.LinAlgError:
        pass
    return np.linalg.pinv(G, rcond=1e-10) @ b


def phased_elimination(
    env: Environment,
    X: ArmSet,
    horizon: int,
    delta: float,
    rng: np.random.Generator,
    *,
    block_budget: bool = False,
) -> tuple[tuple[tuple[int, int, float], ...], EliminationState]:
    """Block-structured elimination over the arm set up to the horizon.

    Each block computes a near-G-optimal design on the active arms, pulls
    each design arm ceil(T_ell * weight) times in index order, fits the
    linear estimate from the pull sums, and drops arms whose estimated gap
    exceeds the block threshold

        2 * sqrt((4 d / T_ell) * log(k / delta_ell)),
        delta_ell = 6 delta / (pi^2 ell^2),

    with k the initial arm count.  Under ``block_length`` this threshold
    first drops below a gap of 1.5 around block 5, that is after
    31 * block_constant(d) rounds.  Since ``algorithm1_regret`` ties
    d ~ sqrt(T) to the horizon, it eliminates nothing on the two-action
    desk instance (largest gap 1.5) below about 2e5 rounds.

    The run stops mid-block at the horizon without eliminating.  With
    ``block_budget`` each block pulls min(T_ell, remaining rounds): the
    planned pulls sum(ceil(T_ell * w_i)) are an integer at least
    T_ell * sum(w_i) > T_ell - 1 (the weights sum to 1 up to rounding), so
    they reach T_ell.  A horizon of sum_{ell <= L} T_ell therefore runs
    exactly L complete blocks of T_ell pulls each.  Deterministic given
    the rng.

    Draw layout: a block first fixes its plan of (arm, count) pairs, in
    index order and cut at the budget, then draws all of it with one
    ``env.pull_sums`` call.  That call takes from rng what one ``pull_sum``
    call per pair, in plan order, would take, in the same order, and
    returns the same sums (see ``Environment.pull_sums``).  A complete block
    is then fitted from one product each: with P the rows of the pulled arms
    and n_i their counts, G = P' diag(n) P and b = P' s for the sums s.  An
    incomplete block ends the run, so it computes no fit.
    """
    if horizon < 1:
        raise UsageError(f"horizon must be positive, got {horizon}")
    if not 0 < delta <= 1:
        raise UsageError(f"confidence must lie in (0,1], got {delta}")
    d, k0 = X.dim, X.k
    A = X.matrix
    active: list[int] = list(range(k0))
    remaining = int(horizon)
    history: list[tuple[int, int, float]] = []
    blocks: list[BlockRecord] = []
    phi_last: tuple[float, ...] | None = None
    ell = 0
    while remaining > 0:
        ell += 1
        t_ell = block_length(d, ell)
        key = frozenset(active)
        weights = X.design_cache.get(key)
        if weights is None:
            weights = np.zeros(k0)
            if A[active].any():
                sub = ArmSet(arms=tuple(X.arms[i] for i in active))
                weights[active] = g_optimal_design(sub)
            else:
                # zero arms span nothing, so every allocation is G-optimal
                weights[active] = 1.0 / len(active)
            X.design_cache[key] = weights
        plan = [
            (arm, math.ceil(t_ell * weights[arm]))
            for arm in active
            if weights[arm] > 0
        ]
        budget = min(t_ell, remaining) if block_budget else remaining
        arms: list[int] = []
        counts: list[int] = []
        pulled = 0
        for arm, want in plan:
            count = min(want, budget - pulled)
            if count <= 0:
                break
            arms.append(arm)
            counts.append(count)
            pulled += count
        sums = env.pull_sums(arms, counts, rng)
        history.extend(zip(arms, counts, sums))
        remaining -= pulled
        planned = sum(c for _, c in plan)
        complete = pulled == (t_ell if block_budget else planned)
        phi_hat, threshold, keep = None, math.nan, active
        if complete:
            P = A[arms]
            phi = _solve_estimate(P.T @ (P * np.asarray(counts)[:, None]), P.T @ sums)
            phi_hat = phi_last = tuple(float(v) for v in phi)
            delta_ell = 6.0 * delta / (math.pi**2 * ell * ell)
            threshold = 2.0 * math.sqrt((4.0 * d / t_ell) * math.log(k0 / delta_ell))
            est = A[active] @ phi
            best = float(est.max())
            keep = [arm for arm, e in zip(active, est) if best - e <= threshold]
        blocks.append(
            BlockRecord(
                ell=ell,
                t_ell=t_ell,
                active_before=tuple(active),
                pulls=pulled,
                phi_hat=phi_hat,
                threshold=threshold,
                active_after=tuple(keep),
                complete=complete,
            )
        )
        if not complete:
            break
        active = keep
    state = EliminationState(
        active=tuple(active),
        phi_hat=phi_last,
        history=tuple(history),
        blocks=tuple(blocks),
    )
    return state.history, state


@dataclass(frozen=True)
class RegretRun:
    """One seeded regret run: the cumulative pseudo-regret curve against the
    best exact candidate mean, and the elimination state."""

    opt_ref: float
    curve: np.ndarray
    state: EliminationState


def algorithm1_regret(
    inst: Instance,
    gamma: TypeDistribution,
    horizon: int,
    seed: int,
    *,
    env: ContractEnvironment | None = None,
) -> RegretRun:
    """Cumulative pseudo-regret of phased elimination over candidate arms.

    Sets the grid width to 1/sqrt(T) and the confidence to 1/T, then runs
    the elimination loop for exactly T rounds.  The regret reference is the
    best exact mean across candidate arms.  A prebuilt environment for
    the same instance and grid width may be passed to reuse arm tables and
    cached means across seeds.
    """
    if horizon < 1:
        raise UsageError(f"horizon must be positive, got {horizon}")
    eps = 1.0 / math.sqrt(horizon)
    if env is None:
        env = contract_environment(inst, gamma, eps)
    elif abs(env.eps - eps) > 1e-12:
        raise UsageError(
            f"environment grid width {env.eps} does not match horizon (needs {eps})"
        )
    X = env.arms
    rng = rng_new(seed)
    _, state = phased_elimination(env, X, horizon, 1.0 / horizon, rng)
    means = np.asarray([env.true_mean(a) for a in range(X.k)], dtype=float)
    opt_ref = float(means.max())
    arms, counts, _ = zip(*state.history)
    per_round = np.repeat(opt_ref - means[list(arms)], counts)
    return RegretRun(opt_ref=opt_ref, curve=np.cumsum(per_round), state=state)


@dataclass(frozen=True)
class PacResult:
    """Fixed-confidence identification outcome on an arm set."""

    arm: int
    blocks: int
    samples: int
    state: EliminationState


def pac_blocks(d: int, k: int, eta: float, delta: float, alpha: float) -> int:
    """Number of elimination blocks for an eta-optimal arm at confidence delta."""
    if eta <= 0:
        raise UsageError(f"suboptimality target must be positive, got {eta}")
    if not 0 < delta < 1:
        raise UsageError(f"confidence must lie in (0,1), got {delta}")
    z = eta - 6.0 * alpha * math.sqrt(d)
    if z <= 0:
        raise UsageError(
            f"misspecification too large for the target: eta - 6*alpha*sqrt(d) = {z:.3g} <= 0"
        )
    inner = math.log(8.0 * k * math.pi**2 / (3.0 * delta * z * z))
    arg = (32.0 / (z * z)) * inner
    if arg <= 1.0:
        return 1
    return max(1, math.ceil(math.log2(arg)))


def pac_best_arm(
    env: Environment,
    X: ArmSet,
    eta: float,
    delta: float,
    rng: np.random.Generator,
    *,
    alpha: float = 0.0,
) -> PacResult:
    """Identify an eta-optimal arm by running a fixed number of blocks.

    Runs exactly L = ``pac_blocks`` complete elimination blocks: with block
    budgets the horizon block_constant(d) * (2^L - 1) = sum_{ell <= L} T_ell
    is spent by block L (see ``phased_elimination``).  Returns the
    surviving arm with the highest last-block estimate (lowest index on
    ties).
    """
    d, k = X.dim, X.k
    if k == 1:
        blocks_needed = 1
    else:
        blocks_needed = pac_blocks(d, k, eta, delta, alpha)
    horizon = block_constant(d) * (2**blocks_needed - 1)
    _, state = phased_elimination(env, X, horizon, delta, rng, block_budget=True)
    phi = np.asarray(state.phi_hat, dtype=float)
    active = state.active
    est = X.matrix[list(active)] @ phi
    winner = active[int(np.argmax(est))]
    samples = sum(count for _, count, _ in state.history)
    return PacResult(
        arm=int(winner),
        blocks=blocks_needed,
        samples=samples,
        state=state,
    )


@dataclass(frozen=True)
class PacContractResult:
    """Contract-level identification outcome with its resolved configuration."""

    contract: Contract
    samples: int
    blocks: int
    eps: float
    alpha: float
    dimension: int
    n_arms: int


_DIGITS3 = decimal.Context(prec=3, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _three_digits(x: Num) -> str:
    """format(x, ".3g") rounded from the exact value of x: far outside the
    float range, float(x) would read 0 or inf."""
    q = Fraction(x)
    dec = _DIGITS3.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    if dec and not decimal.Decimal("1e-300") < abs(dec) < decimal.Decimal("1e300"):
        return format(dec.normalize(_DIGITS3), "g")
    return format(float(dec), ".3g")


def pac_best_contract(
    inst: Instance,
    gamma: TypeDistribution,
    eta: Num,
    delta: float,
    seed: int,
) -> PacContractResult:
    """Find a near-optimal contract at fixed confidence by candidate-arm
    elimination.

    The grid width is (eta / (24 beta n))^2 with beta the density bound and
    n the action count; the induced misspecification is 2 beta n eps, which
    leaves slack eta/2 in the block-count calculation.  Both are exact
    Fractions, and so is the type grid, when the density is rational.
    Guards refuse grids whose dimension would make candidate enumeration
    explode.
    """
    if eta <= 0:
        raise UsageError(f"suboptimality target must be positive, got {eta}")
    beta = dist.density_bound(gamma)
    n = inst.n_actions
    eps = min(1, (Fraction(eta) / (24 * beta * n)) ** 2)
    d = dist.grid_size(eps)
    if d > PAC_MAX_DIMENSION:
        # a dimension prints in full up to 15 digits, and to 3 beyond
        dim = d if d < 10**15 else _three_digits(d)
        raise ResourceGuardError(
            f"type grid too fine for exact candidate enumeration: eps={_three_digits(eps)} "
            f"gives dimension {dim} > {PAC_MAX_DIMENSION}; the candidate pool grows "
            "combinatorially in the grid size"
        )
    alpha = float(2 * beta * n * eps)
    env = contract_environment(inst, gamma, eps)
    rng = rng_new(seed)
    res = pac_best_arm(env, env.arms, float(eta), delta, rng, alpha=alpha)
    return PacContractResult(
        contract=env.arms.contracts[res.arm],
        samples=res.samples,
        blocks=res.blocks,
        eps=float(eps),
        alpha=float(alpha),
        dimension=d,
        n_arms=env.arms.k,
    )
