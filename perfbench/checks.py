"""Output checks of the benchmark workloads.

Each check takes a workload's plan and the record of one round of its
operations, recomputes what it can through `oracles` (never through
contractlab) and tests the properties the method must have.  It returns the
list of failures, empty when the outputs are correct, and the workload's
quality figures.  No check compares against stored output.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction
from typing import Any, Callable

import oracles

# Grid of the brute-force payment optimum: every payment in {0, 1/12, ..., 1}.
GRID_STEPS = 12
# Float outputs are compared with exact values to this absolute tolerance.
FLOAT_TOL = 1e-9

Result = tuple[list[str], dict[str, float]]


def _fr(values: Any) -> Any:
    if isinstance(values, list):
        return [_fr(v) for v in values]
    return Fraction(values)


def _instance(obj: dict) -> tuple[list, list, list]:
    return _fr(obj["F"]), _fr(obj["r"]), _fr(obj["c"])


def check_ptas_exact(plan: dict, record: dict) -> Result:
    """Per PTAS operation: the discrete contract, recovered from the
    robustified one as q = (p - alpha r) / (1 - alpha), has exactly the
    reported discrete value on the oracle's discretization; no grid contract
    beats that value; and the continuous value of the returned contract is
    at least the grid optimum minus the reported bound."""
    errors: list[str] = []
    value_sum = Fraction(0)
    for i, (op, text) in enumerate(zip(plan["ptas"], record["ptas"])):
        if text is None:
            continue
        where = f"ptas[{i}]"
        out = json.loads(text)
        F, r, c = _instance(plan["files"][op["instance"]])
        density = plan["files"][op["dist"]]
        bps, dens = _fr(density["breakpoints"]), _fr(density["densities"])
        delta, alpha = Fraction(op["delta"]), Fraction(op["alpha"])
        p = _fr(out["contract"])
        reported = Fraction(out["discrete_value"])
        bound = Fraction(out["bound"])
        if out["k"] != math.ceil(1 / delta):
            errors.append(f"{where}: k={out['k']}, expected {math.ceil(1 / delta)}")
        if bound != 2 * (delta / alpha + alpha):
            errors.append(f"{where}: bound {bound} is not 2(delta/alpha + alpha)")
        q = [(x - alpha * rw) / (1 - alpha) for x, rw in zip(p, r)]
        if any(x < 0 for x in q):
            errors.append(f"{where}: contract {out['contract']} is not a robustified one")
            continue
        types, weights = oracles.discretize(bps, dens, delta)
        exact = oracles.discrete_value(F, r, c, types, weights, q)
        if exact != reported:
            errors.append(f"{where}: discrete value {reported}, oracle {exact}")
        grid_best = oracles.grid_optimum_discrete(F, r, c, types, weights, GRID_STEPS)
        if grid_best > reported:
            errors.append(f"{where}: grid contract worth {grid_best} beats {reported}")
        value = oracles.segment_sum_value(F, r, c, bps, dens, p)
        floor = oracles.grid_optimum_continuous(F, r, c, bps, dens, GRID_STEPS) - bound
        if value < floor:
            errors.append(f"{where}: continuous value {value} below {floor}")
        value_sum += value
    return errors, {"ptas_value": float(value_sum)}


def check_hardness_verify(plan: dict, record: dict) -> Result:
    """Per set-cover system: the reduced instance has the stated size; the
    verifier's report is ok; the cover total equals the oracle's exact
    expected utility and the closed form l(n, m, k); every only-if report on
    a random contract is ok and its total is exact."""
    errors: list[str] = []
    for system, got in zip(plan["systems"], record["systems"]):
        n, sets, cover = system["n"], system["sets"], system["cover"]
        m, k = len(sets), len(set(cover))
        where = f"n={n}"
        if got["reduce"] is None or got["verify"] is None:
            continue
        reduced = json.loads(got["reduce"])
        F, r, c = _instance(reduced["instance"])
        types = _fr(reduced["type_instance"]["points"])
        weights = _fr(reduced["type_instance"]["weights"])
        actions = 2 * sum(len(s) for s in sets) + 2
        if (len(F), len(r), len(types)) != (actions, m + 2, n + 1):
            errors.append(f"{where}: reduced sizes {len(F)}, {len(r)}, {len(types)}")
            continue
        report = json.loads(got["verify"])
        if not (report["ok"] and report["onlyif"]["ok"]):
            errors.append(f"{where}: verify-reduction report is not ok")
        cover_contract = [Fraction(0)] * (m + 2)
        for set_id in cover:
            cover_contract[set_id - 1] = Fraction(1, n)
        exact = oracles.discrete_value(F, r, c, types, weights, cover_contract)
        closed = oracles.cover_value(n, m, k)
        total = Fraction(report["total"])
        if not total == exact == closed == Fraction(report["ell"]):
            errors.append(
                f"{where}: total {total}, ell {report['ell']}, oracle {exact}, "
                f"closed form {closed}"
            )
        for j, (p, only) in enumerate(zip(system["contracts"], got["onlyif"])):
            if only is None:
                continue
            if not only["ok"]:
                errors.append(f"{where}: only-if report {j} is not ok")
            exact = oracles.discrete_value(F, r, c, types, weights, _fr(p))
            if Fraction(only["total"]) != exact:
                errors.append(f"{where}: only-if total {only['total']}, oracle {exact}")
    return errors, {}


def check_learn_regret(plan: dict, record: dict) -> Result:
    """Every arm's mean is within FLOAT_TOL of the exact segment sum; every
    regret curve has one entry per round, never decreases, grows by an
    oracle gap each round, and ends with 0 < R_T <= (largest gap) T."""
    errors: list[str] = []
    F, r, c = _instance(plan["files"]["desk.json"])
    density = plan["files"]["uniform.json"]
    bps, dens = _fr(density["breakpoints"]), _fr(density["densities"])
    exact = [
        oracles.segment_sum_value(F, r, c, bps, dens, _fr(p)) for p in record["arms"]
    ]
    for a, (mean, want) in enumerate(zip(record["means"], exact)):
        if not abs(mean - float(want)) <= FLOAT_TOL:
            errors.append(f"arm {a}: mean {mean!r}, exact {want}")
    opt = max(exact)
    gaps = sorted(float(opt - v) for v in exact)
    horizon = plan["horizon"]
    per_round = []
    for s, curve in enumerate(record["curves"]):
        if curve is None:
            continue
        if len(curve) != horizon:
            errors.append(f"curve {s}: {len(curve)} rounds, expected {horizon}")
            continue
        steps = [curve[0]] + [b - a for a, b in zip(curve, curve[1:])]
        for t, step in enumerate(steps):
            i = bisect.bisect_left(gaps, step - FLOAT_TOL)
            if step < 0 or i == len(gaps) or gaps[i] > step + FLOAT_TOL:
                errors.append(f"curve {s}: round {t + 1} adds {step!r}, not a gap")
                break
        if not 0 < curve[-1] <= gaps[-1] * horizon + FLOAT_TOL:
            errors.append(f"curve {s}: R_T={curve[-1]!r} outside (0, {gaps[-1] * horizon}]")
        per_round.append(curve[-1] / horizon)
    quality = sum(per_round) / len(per_round) if per_round else 0.0
    return errors, {"regret_per_round": quality}


def check_learn_pac(plan: dict, record: dict) -> Result:
    """Per seed: the grid has the dimension eta fixes; the contract lies in
    [0,1]^2; the samples fit the block budget, block_constant(d)
    (2^blocks - 1); the contract's exact DESK value is at least OPT - eta."""
    errors: list[str] = []
    eta = Fraction(plan["eta"])
    # Grid width (eta / (24 beta n))^2 with density bound beta = 1, n = 2.
    eps = min(1.0, (float(eta) / 48.0) ** 2)
    dim = math.ceil(1.0 / eps - 1e-12)
    samples = 0
    for seed, text in zip(plan["seeds"], record["pac"]):
        if text is None:
            continue
        where = f"seed {seed}"
        out = json.loads(text)
        p = _fr(out["contract"])
        if out["dimension"] != dim:
            errors.append(f"{where}: dimension {out['dimension']}, expected {dim}")
        if len(p) != 2 or not all(0 <= x <= 1 for x in p):
            errors.append(f"{where}: contract {out['contract']} outside [0,1]^2")
            continue
        budget = oracles.block_constant(dim) * (2 ** out["blocks"] - 1)
        if not 0 < out["samples"] <= budget:
            errors.append(f"{where}: {out['samples']} samples, budget {budget}")
        value = oracles.desk_mean(p[0], p[1])
        if value < oracles.DESK_OPT - eta:
            errors.append(f"{where}: value {value} below OPT - eta")
        samples += out["samples"]
    return errors, {"pac_samples": float(samples)}


CHECKS: dict[str, Callable[[dict, dict], Result]] = {
    "ptas_exact": check_ptas_exact,
    "hardness_verify": check_hardness_verify,
    "learn_regret": check_learn_regret,
    "learn_pac": check_learn_pac,
}
