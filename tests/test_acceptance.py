"""End-to-end acceptance gate.

Each test exercises one headline guarantee on freshly drawn random data and
prints a single line

    ACCEPTANCE <n> <name>: PASS|FAIL (<measured numbers>)

before asserting, so the verdicts and the measured margins survive in the
test log either way.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from contractlab import (
    Discrete,
    Instance,
    PtasConfig,
    algorithm1_regret,
    best_response,
    contract_environment,
    density_bound,
    discretize,
    eps_best_responses,
    expected_principal_utility,
    expected_principal_utility_continuous,
    pac_best_arm,
    phased_elimination,
    principal_utility,
    ptas_contract,
    reduce,
    robustify,
    rng_new,
    solve_discrete_optimal,
    uniform_distribution,
    verify_if_direction,
    verify_onlyif_bounds,
)
from contractlab.bandit import ArmSet, block_constant
from contractlab.hardness import ell_value
from contractlab.cli import main

from helpers import (
    LinearGaussianEnvironment,
    three_element_setcover,
    grid_best,
    grid_best_continuous,
    grid_best_continuous_loop,
    min_cover,
    random_contract,
    random_atoms,
    random_instance,
    random_piecewise,
    random_setcover,
    verify_discretization_identity,
)

pytestmark = pytest.mark.acceptance

DESK = Instance(
    F=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    r=(Fraction(0), Fraction(1)),
    c=(Fraction(0), Fraction(1, 2)),
    labels=("idle", "work"),
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_solver_matches_grid_oracle():
    gen = random.Random(10)
    start = time.perf_counter()
    oracle_s = 0.0
    worst_low = 0.0
    worst_high = 0.0
    for i in range(50):
        n = gen.randrange(2, 5)
        m = 2 if i < 25 else 3
        inst = random_instance(gen, n, m)
        gamma = random_atoms(gen, gen.randrange(1, 4))
        value = float(solve_discrete_optimal(inst, gamma, bounded=True).value)
        oracle_start = time.perf_counter()
        grid = grid_best(inst, gamma, step=0.01)
        oracle_s += time.perf_counter() - oracle_start
        worst_low = max(worst_low, grid - value)
        worst_high = max(worst_high, value - grid)
    elapsed = time.perf_counter() - start
    ok = worst_low <= 1e-9 and worst_high <= 0.03 and elapsed <= 60
    report(
        1,
        "solver-vs-grid",
        ok,
        f"50 instances, max grid-over-solver {worst_low:.2e}, "
        f"max solver-over-grid {worst_high:.4f} <= 0.03, {elapsed:.1f}s <= 60s "
        f"(product {elapsed - oracle_s:.2f}s, grid oracle {oracle_s:.2f}s)",
    )


def test_criterion_2_discretization_identity_exact():
    gen = random.Random(20)
    start = time.perf_counter()
    exact = 0
    for i in range(100):
        inst = random_instance(gen, gen.randrange(2, 5), gen.randrange(2, 4))
        edges = sorted(
            {Fraction(0), Fraction(1)}
            | {Fraction(gen.randrange(1, 24), 24) for _ in range(gen.randrange(0, 4))}
        )
        cells = list(zip(edges, edges[1:]))
        actions = [gen.randrange(inst.n_actions) for _ in cells]
        pick = i % 3
        if pick == 0:
            gamma = uniform_distribution()
        elif pick == 1:
            gamma = random_piecewise(gen)
        else:
            pts = sorted(
                {Fraction(gen.randrange(0, 25), 24) for _ in range(gen.randrange(1, 4))}
            )
            cuts = sorted(gen.randrange(0, 13) for _ in range(len(pts) - 1))
            ws, prev = [], 0
            for cut in cuts + [12]:
                ws.append(Fraction(cut - prev, 12))
                prev = cut
            if any(w == 0 for w in ws):
                ws = [Fraction(1, len(pts))] * len(pts)
            gamma = Discrete(points=tuple(pts), weights=tuple(ws))
        p = random_contract(gen, inst.n_outcomes)
        lhs, rhs = verify_discretization_identity(inst, gamma, cells, actions, p)
        exact += lhs == rhs
    elapsed = time.perf_counter() - start
    ok = exact == 100 and elapsed <= 10
    report(
        2,
        "discretization-identity",
        ok,
        f"{exact}/100 tuples exactly equal, {elapsed:.2f}s <= 10s",
    )


def test_criterion_3_linearization_inequality():
    gen = random.Random(30)
    eps_choices = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))
    alpha_choices = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    slack = Fraction(1, 10**12)
    violations = 0
    worst = Fraction(0)
    inst = None
    for i in range(1000):
        if i % 10 == 0:
            inst = random_instance(gen, gen.randrange(2, 5), gen.randrange(2, 4))
        theta = Fraction(gen.randrange(0, 25), 24)
        eps = gen.choice(eps_choices)
        alpha = gen.choice(alpha_choices)
        p = random_contract(gen, inst.n_outcomes)
        rho = gen.choice(eps_best_responses(inst, p, theta, eps))
        tilted = robustify(inst, p, alpha)
        lhs = best_response(inst, tilted, theta).principal_utility
        rhs = principal_utility(inst, p, rho) - (eps / alpha + alpha)
        margin = rhs - lhs
        worst = max(worst, margin)
        violations += margin > slack
    ok = violations == 0
    report(
        3,
        "linearization-inequality",
        ok,
        f"1000 draws, {violations} violations beyond 1e-12, "
        f"worst margin {float(worst):.3e}",
    )


def test_criterion_4_ptas_additive_guarantee():
    gen = random.Random(40)
    cfg = PtasConfig.from_eps(Fraction(1), delta=Fraction(1, 4), alpha=Fraction(1, 2))
    allowance = float(cfg.error_bound) + 0.05
    start = time.perf_counter()
    oracle_s = 0.0
    worst = -math.inf
    for i in range(20):
        inst = random_instance(gen, gen.randrange(2, 5), 2)
        gamma = uniform_distribution() if i % 2 == 0 else random_piecewise(gen)
        contract, _ = ptas_contract(inst, gamma, cfg)
        achieved = expected_principal_utility_continuous(inst, gamma, contract)
        oracle_start = time.perf_counter()
        opt = grid_best_continuous(inst, gamma, step=0.01, cells=2000)
        oracle_s += time.perf_counter() - oracle_start
        worst = max(worst, opt - achieved)
    elapsed = time.perf_counter() - start
    ok = worst <= allowance and elapsed <= 300
    report(
        4,
        "ptas-guarantee",
        ok,
        f"20 instances, worst optimality gap {worst:.4f} <= {allowance}, "
        f"{elapsed:.1f}s <= 300s (product {elapsed - oracle_s:.2f}s, "
        f"grid oracle {oracle_s:.2f}s)",
    )


def test_grid_oracle_matches_cell_loop():
    # criterion 4's oracle sums between eligibility cuts; the cell-by-cell
    # loop it replaced must give the same value up to summation order
    gen = random.Random(41)
    for i in range(6):
        inst = random_instance(gen, gen.randrange(2, 5), 2)
        gamma = uniform_distribution() if i % 2 == 0 else random_piecewise(gen)
        fast = grid_best_continuous(inst, gamma, step=0.01, cells=200)
        loop = grid_best_continuous_loop(inst, gamma, step=0.01, cells=200)
        assert abs(fast - loop) <= 1e-12, (i, fast, loop)


def test_criterion_5_reduction_verifiers():
    gen = random.Random(50)
    systems = [three_element_setcover()] + [random_setcover(gen) for _ in range(10)]
    start = time.perf_counter()
    oracle_s = 0.0
    exact = 0
    violations = 0
    for sc in systems:
        ri = reduce(sc)
        oracle_start = time.perf_counter()
        cover = min_cover(sc)
        oracle_s += time.perf_counter() - oracle_start
        rep = verify_if_direction(ri, cover)
        exact += rep.ok and rep.total == ell_value(sc.n, sc.m, len(cover))
        for _ in range(200):
            q = random_contract(gen, sc.m + 2)
            violations += not verify_onlyif_bounds(ri, q).ok
    elapsed = time.perf_counter() - start
    ok = exact == len(systems) and violations == 0 and elapsed <= 120
    report(
        5,
        "reduction-verifiers",
        ok,
        f"{exact}/{len(systems)} systems match the cover value exactly, "
        f"{violations} bound violations over {200 * len(systems)} contracts, "
        f"{elapsed:.1f}s <= 120s (product {elapsed - oracle_s:.2f}s, "
        f"min_cover oracle {oracle_s:.4f}s)",
    )


def test_criterion_6_value_closeness_under_discretization():
    gen = random.Random(60)
    eps_cycle = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 50))
    violations = 0
    worst_ratio = 0.0
    for i in range(50):
        inst = random_instance(gen, gen.randrange(2, 5), gen.randrange(2, 4))
        gamma = random_piecewise(gen)
        p = random_contract(gen, inst.n_outcomes)
        eps = eps_cycle[i % 3]
        disc = float(expected_principal_utility(inst, discretize(gamma, eps), p))
        cont = expected_principal_utility_continuous(inst, gamma, p)
        bound = float(2 * density_bound(gamma) * inst.n_actions * eps)
        gap = abs(cont - disc)
        worst_ratio = max(worst_ratio, gap / bound)
        violations += gap > bound
    ok = violations == 0
    report(
        6,
        "value-closeness",
        ok,
        f"50 draws, {violations} violations of |continuous - discretized| <= "
        f"2*beta*n*eps, worst gap/bound ratio {worst_ratio:.3f}",
    )


def _synthetic_arms() -> ArmSet:
    return ArmSet(
        arms=((1.0, 0.0),) + tuple((0.6 - 0.15 * j, 0.4) for j in range(9))
    )


def test_criterion_7_elimination_statistical_contract():
    X = _synthetic_arms()
    env = LinearGaussianEnvironment(X, phi=(1.0, 0.0), sigma=0.1)
    gaps = [env.true_mean(0) - env.true_mean(a) for a in range(1, X.k)]
    assert min(gaps) >= 0.3
    start = time.perf_counter()
    horizon = block_constant(2) * (2**10 - 1)
    survived = 0
    for seed in range(100):
        _, state = phased_elimination(
            env, X, horizon, 0.05, rng_new(seed), block_budget=True
        )
        survived += 0 in state.active
    identified = 0
    for seed in range(50):
        res = pac_best_arm(env, X, 0.2, 0.1, rng_new(1000 + seed))
        identified += res.arm == 0
    elapsed = time.perf_counter() - start
    ok = survived >= 95 and identified >= 45 and elapsed <= 180
    report(
        7,
        "elimination-statistics",
        ok,
        f"best arm survived {survived}/100 runs (need 95), identified "
        f"{identified}/50 runs (need 45), {elapsed:.1f}s <= 180s",
    )


def _fixed_grid_decay(env, horizon: int) -> tuple[float, int]:
    """Mean R_T/T of phased elimination at confidence 1/T over 20 seeds on
    the environment's arm set, and the number of runs that eliminated an arm."""
    arms = env.arms
    means = [env.true_mean(a) for a in range(arms.k)]
    best = max(means)
    rates = []
    eliminated = 0
    for seed in range(20):
        _, state = phased_elimination(env, arms, horizon, 1.0 / horizon, rng_new(seed))
        regret = sum(count * (best - means[arm]) for arm, count, _ in state.history)
        rates.append(regret / horizon)
        eliminated += len(state.active) < arms.k
    return sum(rates) / len(rates), eliminated


def test_criterion_8_regret_envelope_and_decay():
    gamma = uniform_distribution()
    start = time.perf_counter()

    # Envelope: Algorithm 1, with grid width 1/sqrt(T) and confidence 1/T.
    T = 20000
    eps = 1.0 / math.sqrt(T)
    env = contract_environment(DESK, gamma, eps)
    runs = [algorithm1_regret(DESK, gamma, T, seed, env=env) for seed in range(20)]
    mean_rt = sum(float(run.curve[-1]) for run in runs) / len(runs)
    d, k = env.arms.dim, env.arms.k
    beta, n = float(density_bound(gamma)), DESK.n_actions
    envelope = 10.0 * (
        math.sqrt(d * T * math.log(T * k))
        + 2.0 * beta * n * eps * T * math.sqrt(d) * math.log(T)
    )
    max_gap = runs[0].opt_ref - min(env.true_mean(a) for a in range(k))
    thresholds = ", ".join(
        f"{b.threshold:.2f}" for b in runs[0].state.blocks if b.complete
    )
    within_envelope = mean_rt <= envelope

    # Decay: the same learner on one fixed candidate arm set, at horizons
    # past block 5, where the elimination threshold first falls below the
    # largest gap.  With eps tied to T no arm is eliminated before about
    # 2e5 rounds, so R_T/T there only measures the exploration design.
    fixed = contract_environment(DESK, gamma, 1 / 8)
    short, long = 20000, 200000
    block5_end = 31 * block_constant(fixed.arms.dim)
    rate_short, elim_short = _fixed_grid_decay(fixed, short)
    rate_long, elim_long = _fixed_grid_decay(fixed, long)
    past_block5 = short >= block5_end
    decays = rate_long < 0.5 * rate_short
    all_eliminate = elim_short == 20

    elapsed = time.perf_counter() - start
    ok = (
        within_envelope and past_block5 and all_eliminate and decays
        and elapsed <= 600
    )
    report(
        8,
        "regret-envelope-and-decay",
        ok,
        f"Algorithm 1 at T={T} (d={d}, k={k}): mean R_T {mean_rt:.0f} <= "
        f"envelope {envelope:.0f}: {within_envelope}, largest possible R_T "
        f"{max_gap:.3f} x {T} = {max_gap * T:.0f}; complete-block thresholds "
        f"{thresholds} vs largest true gap {max_gap:.3f}; "
        f"fixed grid eps=1/8 (d={fixed.arms.dim}, k={fixed.arms.k}), "
        f"block 5 ends at {block5_end} <= {short}: {past_block5}; "
        f"runs eliminating an arm {elim_short}/20 at T={short}, "
        f"{elim_long}/20 at T={long}; R_T/T {rate_long:.3f} at T={long} vs "
        f"{rate_short:.3f} at T={short}, needs < {0.5 * rate_short:.3f}: "
        f"{decays}; {elapsed:.0f}s <= 600s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    inst = tmp_path / "desk.json"
    inst.write_text(
        json.dumps(
            {
                "F": [["1", "0"], ["0", "1"]],
                "r": ["0", "1"],
                "c": ["0", "1/2"],
            }
        )
    )
    uni = tmp_path / "uniform.json"
    uni.write_text(
        json.dumps(
            {"kind": "piecewise", "breakpoints": ["0", "1"], "densities": ["1"]}
        )
    )
    types = tmp_path / "types.json"
    types.write_text(
        json.dumps(
            {"kind": "discrete", "points": ["1/4", "3/4"], "weights": ["1/2", "1/2"]}
        )
    )
    commands = {
        "solve-discrete": ["solve-discrete", "--instance", str(inst), "--dist", str(types)],
        "ptas": [
            "ptas", "--instance", str(inst), "--dist", str(uni),
            "--eps", "0.4", "--delta", "0.25", "--alpha", "0.5",
        ],
        "reduce-setcover": ["reduce-setcover", "--universe", "3", "--sets", "1,2;2;1,3;3"],
        "verify-reduction": [
            "verify-reduction", "--universe", "3", "--sets", "1,2;2;1,3;3",
            "--cover", "2,3",
        ],
        "bandit-regret": [
            "bandit-regret", "--instance", str(inst), "--dist", str(uni),
            "-T", "64", "--seeds", "2",
        ],
        "bandit-pac": [
            "bandit-pac", "--instance", str(inst), "--dist", str(uni),
            "--eta", "12", "--delta", "0.1", "--seed", "0",
        ],
        "selftest": ["selftest"],
    }
    identical = 0
    for name, argv in commands.items():
        digests = []
        for attempt in range(2):
            out = tmp_path / f"{name}.{attempt}"
            assert main(argv + ["-o", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        identical += digests[0] == digests[1]
    ok = identical == len(commands)
    report(
        9,
        "cli-determinism",
        ok,
        f"{identical}/{len(commands)} commands byte-identical on rerun",
    )
