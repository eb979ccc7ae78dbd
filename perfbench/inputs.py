"""Seeded inputs of the benchmark workloads.

A plan is plain JSON made from the workload name and the seed alone, so the
same seed gives the same bytes.  Numbers are exact "p/q" strings, the form
contractlab reads in rational mode.  `files` holds the instance and
distribution files the CLI operations read; the workload process writes them
into its run directory before the first timed operation.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("ptas_exact", "hardness_verify", "learn_regret", "learn_pac")

# Two actions, two outcomes: idle (free, outcome 0) or work (cost 1/2,
# outcome 1), rewards (0, 1).  The same instance as the test suite's fixture.
DESK = {
    "F": [["1", "0"], ["0", "1"]],
    "r": ["0", "1"],
    "c": ["0", "1/2"],
    "labels": ["idle", "work"],
}
UNIFORM = {"kind": "piecewise", "breakpoints": ["0", "1"], "densities": ["1"]}

# Three actions, three outcomes, costs rising with output.  Fixed, so that
# the tuple LPs keep one constraint structure and only the density moves
# with the seed.
TRIO = {
    "F": [["3/4", "1/4", "0"], ["1/4", "1/2", "1/4"], ["0", "1/4", "3/4"]],
    "r": ["0", "1/2", "1"],
    "c": ["0", "1/4", "1/2"],
}

REGRET_HORIZON = 2000
REGRET_SEEDS = 2
PAC_ETA = "5"
PAC_DELTA = "1/10"
PAC_SEEDS = 2
SETCOVER_SIZES = (3, 4, 5, 6)
ONLYIF_CONTRACTS = 8


def piecewise_density(gen: random.Random, pieces: int = 3, denom: int = 8) -> dict:
    """Density constant on `pieces` cells cut at multiples of 1/denom, cell
    heights drawn from 1..5 and scaled to integrate to 1."""
    cuts = sorted(gen.sample(range(1, denom), pieces - 1))
    bps = [Fraction(0)] + [Fraction(x, denom) for x in cuts] + [Fraction(1)]
    raw = [Fraction(gen.randrange(1, 6)) for _ in range(pieces)]
    total = sum(h * (b - a) for h, a, b in zip(raw, bps, bps[1:]))
    return {
        "kind": "piecewise",
        "breakpoints": [str(b) for b in bps],
        "densities": [str(h / total) for h in raw],
    }


def _learner_seeds(gen: random.Random, count: int) -> list[int]:
    return [gen.randrange(2**31) for _ in range(count)]


def covered_system(gen: random.Random, n: int) -> list[list[int]]:
    """n subsets of {1..n}, each of size ceil(n/2), whose union is the
    universe.  Fixed sizes keep the reduced instance's action count fixed."""
    size = math.ceil(n / 2)
    while True:
        sets = [sorted(gen.sample(range(1, n + 1), size)) for _ in range(n)]
        if set().union(*map(set, sets)) == set(range(1, n + 1)):
            return sets


def smallest_cover(n: int, sets: list[list[int]]) -> list[int]:
    """1-based ids of a smallest cover, the first in lexicographic order."""
    universe = set(range(1, n + 1))
    for size in range(1, len(sets) + 1):
        for ids in itertools.combinations(range(1, len(sets) + 1), size):
            if set().union(*(set(sets[i - 1]) for i in ids)) == universe:
                return list(ids)
    raise ValueError("system does not cover its universe")


def onlyif_contract(gen: random.Random, n: int, m: int) -> list[str]:
    """Witness payments in {0, 1/(2n), 1/n}, a small payment on the rewarded
    outcome and on the sink, on the scale where the only-if caps bind."""
    p = [Fraction(gen.choice((0, 0, 1, 2)), 2 * n) for _ in range(m)]
    p.append(Fraction(gen.randrange(0, 3), n**3))
    p.append(Fraction(gen.randrange(0, 2), n**4))
    return [str(x) for x in p]


def make_plan(workload: str, seed: int, small: bool = False) -> dict:
    """The inputs of one workload.  `small` gives a plan of the same shape
    that runs in about a second, for the benchmark's own tests."""
    gen = random.Random(f"{workload}:{seed}")
    plan: dict = {"workload": workload, "seed": seed, "files": {}}
    if workload == "ptas_exact":
        plan["files"] = {
            "desk.json": DESK,
            "uniform.json": UNIFORM,
            "trio.json": TRIO,
            "trio-density.json": piecewise_density(gen),
        }
        plan["ptas"] = [
            {"instance": "desk.json", "dist": "uniform.json",
             "delta": "1/3" if small else "1/9", "alpha": "1/3"},
            {"instance": "trio.json", "dist": "trio-density.json",
             "delta": "1/2" if small else "1/6", "alpha": "1/4"},
        ]
    elif workload == "hardness_verify":
        systems = []
        for n in SETCOVER_SIZES[:1] if small else SETCOVER_SIZES:
            sets = covered_system(gen, n)
            count = 2 if small else ONLYIF_CONTRACTS
            systems.append({
                "n": n,
                "sets": sets,
                "cover": smallest_cover(n, sets),
                "contracts": [onlyif_contract(gen, n, len(sets)) for _ in range(count)],
            })
        plan["systems"] = systems
    elif workload == "learn_regret":
        plan["files"] = {"desk.json": DESK, "uniform.json": UNIFORM}
        plan["horizon"] = 16 if small else REGRET_HORIZON
        plan["seeds"] = _learner_seeds(gen, REGRET_SEEDS)
    elif workload == "learn_pac":
        plan["files"] = {"desk.json": DESK, "uniform.json": UNIFORM}
        plan["eta"] = "24" if small else PAC_ETA
        plan["delta"] = PAC_DELTA
        plan["seeds"] = _learner_seeds(gen, PAC_SEEDS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan
