"""Command-line front end.

One process per command; outputs are JSON (or CSV for regret curves),
carry the resolved configuration for reproducibility, and are written
atomically when a file target is given.  Exit codes: 0 success, 2 bad
input or usage, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import bandit, core, dist, hardness, ptas, serialize, solver
from .errors import InputError, ResourceGuardError, UsageError
from .numerics import lp_solve, RationalLP

__all__ = ["main"]


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".contractlab-", suffix=".part"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            # a missing directory, a directory as target, no permission
            reason = exc.strerror or exc
            raise UsageError(f"cannot write output {output}: {reason}") from exc
        raise


def _json_text(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config(args: argparse.Namespace, fields: Sequence[str]) -> dict[str, Any]:
    cfg: dict[str, Any] = {"command": args.command}
    for field in fields:
        cfg[field] = getattr(args, field)
    return cfg


def _cmd_solve_discrete(args: argparse.Namespace) -> dict[str, Any]:
    inst = serialize.load_instance(args.instance, args.mode)
    gamma = serialize.load_type_instance(args.dist, args.mode)
    report = solver.solve_discrete_optimal(inst, gamma, bounded=args.bounded)
    return {
        "config": _config(args, ["instance", "dist", "mode", "bounded"]),
        "value": serialize.format_number(report.value),
        "contract": serialize.contract_payload(report.best_contract),
        "tuples_solved": report.tuples_solved,
    }


def _cmd_ptas(args: argparse.Namespace) -> dict[str, Any]:
    inst = serialize.load_instance(args.instance, args.mode)
    gamma = serialize.load_distribution(args.dist, args.mode)
    eps = serialize.parse_number(args.eps, args.mode, "--eps")
    delta = serialize.parse_number(args.delta, args.mode, "--delta") if args.delta else None
    alpha = serialize.parse_number(args.alpha, args.mode, "--alpha") if args.alpha else None
    cfg = ptas.PtasConfig.from_eps(eps, delta, alpha)
    contract, diag = ptas.ptas_contract(inst, gamma, cfg)
    config = _config(args, ["instance", "dist", "mode", "eps"])
    config["delta"] = serialize.format_number(cfg.delta)
    config["alpha"] = serialize.format_number(cfg.alpha)
    return {
        "config": config,
        "contract": serialize.contract_payload(contract),
        "discrete_value": serialize.format_number(diag.discrete_value),
        "bound": serialize.format_number(cfg.error_bound),
        "k": diag.k,
    }


def _parse_sets(text: str) -> tuple[tuple[int, ...], ...]:
    groups = [g for g in text.split(";") if g.strip()]
    sets: list[tuple[int, ...]] = []
    for g in groups:
        try:
            sets.append(tuple(int(tok) for tok in g.split(",") if tok.strip()))
        except ValueError:
            raise InputError("--sets", f"cannot parse group {g.strip()!r}") from None
    if not sets:
        raise InputError("--sets", "need at least one set")
    return tuple(sets)


def _parse_cover(text: str) -> tuple[int, ...]:
    try:
        cover = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InputError("--cover", f"cannot parse {text!r}") from None
    if not cover:
        raise InputError("--cover", "need at least one set id")
    return cover


def _cmd_reduce_setcover(args: argparse.Namespace) -> dict[str, Any]:
    sc = hardness.SetCoverInput(n=args.universe, sets=_parse_sets(args.sets))
    ri = hardness.reduce(sc)
    return {
        "config": _config(args, ["universe", "sets"]),
        "instance": serialize.instance_payload(ri.inst),
        "type_instance": serialize.distribution_payload(ri.gamma),
        "params": {
            "rho": str(ri.params.rho),
            "eta": str(ri.params.eta),
            "eps_r": str(ri.params.eps_r),
            "mu": str(ri.params.mu),
        },
        "counts": {
            "actions": ri.inst.n_actions,
            "outcomes": ri.inst.n_outcomes,
            "types": len(ri.gamma.points),
        },
    }


def _cmd_verify_reduction(args: argparse.Namespace) -> dict[str, Any]:
    sc = hardness.SetCoverInput(n=args.universe, sets=_parse_sets(args.sets))
    ri = hardness.reduce(sc)
    cover = _parse_cover(args.cover)
    rep = hardness.verify_if_direction(ri, cover)
    p = hardness.cover_contract(ri, cover)
    only = hardness.verify_onlyif_bounds(ri, p)
    return {
        "config": _config(args, ["universe", "sets", "cover"]),
        "ok": rep.ok,
        "cover_size": len(set(cover)),
        "total": str(rep.total),
        "ell": str(rep.ell),
        "gap": str(hardness.gap_value(sc.n, sc.m)),
        "total_matches_ell": rep.total_matches_ell,
        "star_payment": str(rep.star_payment),
        "star_payment_dominates": rep.star_payment_dominates,
        "interior_utility_capped": rep.interior_utility_capped,
        "per_type": [
            {
                "theta": str(t.theta),
                "action": ri.inst.labels[t.action],
                "agent_utility": str(t.agent_utility),
                "principal_utility": str(t.principal_utility),
                "in_target_family": t.in_target_family,
                "value_matches": t.value_matches,
            }
            for t in rep.per_type
        ],
        "onlyif": {
            "ok": only.ok,
            "aggregate_bound": str(only.aggregate_bound),
            "total_le_aggregate": only.total_le_aggregate,
            "sbar": sorted(only.sbar),
            "e1_covered_by_sbar": only.e1_covered_by_sbar,
            "pstar_coefficient": str(only.pstar_coefficient),
            "pstar_coefficient_nonpositive": only.pstar_coefficient_nonpositive,
            "coefficient_chain_value": str(only.coefficient_chain_value),
            "coefficient_chain_negative": only.coefficient_chain_negative,
            "small_gap_step_holds": only.small_gap_step_holds,
        },
    }


def _regret_csv(args: argparse.Namespace) -> str:
    if args.horizon < 1:
        raise UsageError(f"horizon must be positive, got {args.horizon}")
    if args.seeds < 1:
        raise UsageError(f"seed count must be positive, got {args.seeds}")
    inst = serialize.load_instance(args.instance, args.mode)
    gamma = serialize.load_distribution(args.dist, args.mode)
    eps = 1.0 / math.sqrt(args.horizon)
    env = bandit.contract_environment(inst, gamma, eps)
    cfg = _config(args, ["instance", "dist", "mode", "horizon", "seeds"])
    cfg["eps"] = eps
    cfg["delta"] = 1.0 / args.horizon
    cfg["arms"] = env.arms.k
    cfg["dimension"] = env.arms.dim
    lines = ["# config: " + json.dumps(cfg, sort_keys=True), "seed,t,cum_regret"]
    for seed in range(args.seeds):
        run = bandit.algorithm1_regret(inst, gamma, args.horizon, seed, env=env)
        lines.extend(
            f"{seed},{t},{float(v)!r}" for t, v in enumerate(run.curve, start=1)
        )
    return "\n".join(lines) + "\n"


def _cmd_bandit_pac(args: argparse.Namespace) -> dict[str, Any]:
    inst = serialize.load_instance(args.instance, args.mode)
    gamma = serialize.load_distribution(args.dist, args.mode)
    eta = serialize.parse_number(args.eta, args.mode, "--eta")
    # the elimination runs on float(eta), so eta needs a finite float value
    serialize.parse_number(args.eta, "float", "--eta")
    delta = serialize.parse_number(args.delta, "float", "--delta")
    res = bandit.pac_best_contract(inst, gamma, eta, delta, args.seed)
    return {
        "config": _config(args, ["instance", "dist", "mode", "eta", "delta", "seed"]),
        "contract": serialize.contract_payload(res.contract),
        "samples": res.samples,
        "eta": res.eta,
        "delta": res.delta,
        "blocks": res.blocks,
        "eps": res.eps,
        "alpha": res.alpha,
        "dimension": res.dimension,
        "arms": res.n_arms,
    }


def _selftest_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    lp = RationalLP(
        objective=(Fraction(1),),
        constraints=(((Fraction(1),), "<=", Fraction(3, 7)),),
    )
    res = lp_solve(lp)
    checks.append(("lp-ceiling", res.status == "optimal" and res.value == Fraction(3, 7)))

    grid = dist.discretize(dist.uniform_distribution(), Fraction(1, 2))
    checks.append(
        (
            "half-grid",
            grid.points == (Fraction(1, 4), Fraction(3, 4))
            and grid.weights == (Fraction(1, 2), Fraction(1, 2)),
        )
    )

    inst = core.Instance(
        F=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        r=(Fraction(0), Fraction(1)),
        c=(Fraction(0), Fraction(1, 2)),
    )
    br = core.best_response(inst, (Fraction(0), Fraction(1, 2)), Fraction(1, 2))
    checks.append(("best-response-tiebreak", br.action == 1))

    report = solver.solve_discrete_optimal(inst, grid)
    checks.append(("two-type-solve", report.value == Fraction(5, 8)))

    sc = hardness.SetCoverInput(n=3, sets=((1, 2), (2,), (1, 3), (3,)))
    ri = hardness.reduce(sc)
    rep = hardness.verify_if_direction(ri, (2, 3))
    checks.append(
        (
            "reduction-counts",
            ri.inst.n_actions == 14
            and ri.inst.n_outcomes == 6
            and len(ri.gamma.points) == 4,
        )
    )
    checks.append(("cover-value", rep.ok and rep.total == hardness.ell_value(3, 4, 2)))

    zero = bandit.utility_map(inst, (0.0, 1.0), 0.25)
    checks.append(("utility-map-zero", bool((zero == 0).all())))
    basis = bandit.g_optimal_design(bandit.ArmSet(arms=((1.0, 0.0), (0.0, 1.0))))
    checks.append(
        (
            "basis-design",
            all(abs(w - 0.5) < 1e-9 for w in basis.weights)
            and bandit.block_length(2, 1) == 16,
        )
    )
    return checks


def _cmd_selftest(args: argparse.Namespace) -> dict[str, Any]:
    checks = _selftest_checks()
    return {
        "config": _config(args, []),
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "ok": all(ok for _, ok in checks),
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each build leaves a few hundred objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="Bayesian contract design: exact solving, approximation, "
        "hardness instances, and bandit learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        sp: argparse.ArgumentParser,
        handler: Callable[[argparse.Namespace], Any],
        with_mode: bool = True,
    ) -> None:
        sp.set_defaults(handler=handler)
        sp.add_argument(
            "-o", "--output", default=None, help="write output to this file atomically"
        )
        if with_mode:
            sp.add_argument(
                "--mode",
                choices=("rational", "float"),
                default="rational",
                help="number parsing mode for input files",
            )

    sp = sub.add_parser(
        "solve-discrete", help="exact optimal contract for a finite type instance"
    )
    sp.add_argument("--instance", required=True, help="instance JSON file")
    sp.add_argument("--dist", required=True, help="discrete distribution JSON file")
    sp.add_argument(
        "--bounded", action="store_true", help="restrict payments to [0,1]"
    )
    common(sp, _cmd_solve_discrete)

    sp = sub.add_parser("ptas", help="grid-solve-robustify approximation")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--eps", required=True, help="additive error target")
    sp.add_argument("--delta", default=None, help="override grid width")
    sp.add_argument("--alpha", default=None, help="override robustification weight")
    common(sp, _cmd_ptas)

    sp = sub.add_parser(
        "reduce-setcover", help="build the contract instance of a set-cover system"
    )
    sp.add_argument("--universe", type=int, required=True, help="universe size n")
    sp.add_argument(
        "--sets", required=True, help="semicolon-separated sets, e.g. '1,2;2;1,3;3'"
    )
    common(sp, _cmd_reduce_setcover, with_mode=False)

    sp = sub.add_parser(
        "verify-reduction", help="check a cover contract on a set-cover instance"
    )
    sp.add_argument("--universe", type=int, required=True)
    sp.add_argument("--sets", required=True)
    sp.add_argument("--cover", required=True, help="comma-separated set ids")
    common(sp, _cmd_verify_reduction, with_mode=False)

    sp = sub.add_parser("bandit-regret", help="seeded regret curves as CSV")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--dist", required=True)
    sp.add_argument("-T", "--horizon", type=int, required=True)
    sp.add_argument("--seeds", type=int, default=1, help="number of seeds (0-based)")
    common(sp, _regret_csv)

    sp = sub.add_parser(
        "bandit-pac", help="fixed-confidence near-optimal contract search"
    )
    sp.add_argument("--instance", required=True)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--eta", required=True, help="suboptimality target")
    sp.add_argument("--delta", required=True, help="failure probability")
    sp.add_argument("--seed", type=int, default=0)
    common(sp, _cmd_bandit_pac)

    sp = sub.add_parser("selftest", help="run quick internal checks")
    common(sp, _cmd_selftest, with_mode=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
        _emit(payload if isinstance(payload, str) else _json_text(payload), args.output)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # selftest's payload alone is a verdict: a failed check exits 1
    return 1 if args.handler is _cmd_selftest and not payload["ok"] else 0


if __name__ == "__main__":
    sys.exit(main())
