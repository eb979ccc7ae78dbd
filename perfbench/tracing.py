"""Span tracing of contractlab's public functions from outside the library.

`Tracer.install` replaces each traced function with a wrapper that records
a span (name, start, end, parent) in memory.  The wrapper is bound under the
function's own name and under every name another contractlab module
imported it by, so calls made inside the library are caught too; methods
are replaced on their class.  `uninstall` restores the originals.  Spans
are written out by `write_spans` once the run ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

Hook = Callable[[Counter, tuple, Any], None]


def _count_optimal(counters: Counter, args: tuple, result: Any) -> None:
    counters["numerics.lp_solve.optimal"] += result.status == "optimal"


def _count_nonsingular(counters: Counter, args: tuple, result: Any) -> None:
    counters["numerics.rational_solve.nonsingular"] += result is not None


def _count_tuples(counters: Counter, args: tuple, result: Any) -> None:
    counters["solver.tuples"] += result.tuples_solved


def _count_candidates(counters: Counter, args: tuple, result: Any) -> None:
    counters["solver.candidates"] += len(result)


def _count_k(counters: Counter, args: tuple, result: Any) -> None:
    counters["ptas.k"] += result[1].k


def _count_rounds(counters: Counter, args: tuple, result: Any) -> None:
    counters["bandit.rounds"] += args[2]  # pull_sum(self, arm, count, rng)


def _count_blocks(counters: Counter, args: tuple, result: Any) -> None:
    state = result[1]
    counters["bandit.blocks"] += len(state.blocks)
    counters["bandit.arms_eliminated"] += args[1].k - len(state.active)


# (module, attribute, span name, result hook).  An attribute "Class.method"
# names a method.
TARGETS: list[tuple[str, str, str, Hook | None]] = [
    ("numerics", "lp_solve", "numerics.lp_solve", _count_optimal),
    ("numerics", "rational_solve", "numerics.rational_solve", _count_nonsingular),
    ("solver", "solve_discrete_optimal", "solver.solve_discrete_optimal", _count_tuples),
    ("solver", "contract_for_tuple", "solver.contract_for_tuple", None),
    ("solver", "candidate_contract_set", "solver.candidate_contract_set", _count_candidates),
    ("core", "best_response", "core.best_response", None),
    ("core", "expected_principal_utility", "core.expected_principal_utility", None),
    ("core", "expected_principal_utility_continuous",
     "core.expected_principal_utility_continuous", None),
    ("dist", "discretize", "dist.discretize", None),
    ("dist", "sample_many", "dist.sample_many", None),
    ("ptas", "ptas_contract", "ptas.ptas_contract", _count_k),
    ("hardness", "reduce", "hardness.reduce", None),
    ("hardness", "verify_if_direction", "hardness.verify_if_direction", None),
    ("hardness", "verify_onlyif_bounds", "hardness.verify_onlyif_bounds", None),
    ("hardness", "classify_types", "hardness.classify_types", None),
    ("bandit", "ContractEnvironment.true_mean", "bandit.true_mean", None),
    ("bandit", "ContractEnvironment.pull_sum", "bandit.pull_sum", _count_rounds),
    ("bandit", "g_optimal_design", "bandit.g_optimal_design", None),
    ("bandit", "contract_environment", "bandit.contract_environment", None),
    ("bandit", "phased_elimination", "bandit.phased_elimination", _count_blocks),
    ("cli", "main", "cli.main", None),
] + [
    ("serialize", name, f"serialize.{name}", None)
    for name in (
        "parse_number",
        "format_number",
        "load_instance",
        "load_distribution",
        "load_type_instance",
        "instance_payload",
        "distribution_payload",
        "contract_payload",
    )
]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "contractlab" or key.startswith("contractlab.")
        ]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[f"contractlab.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time (span time minus the time its child spans cover) and
        call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
            calls[name] += 1
        return own, calls

    def child_calls(self, name: str, parent_name: str) -> int:
        """Calls of `name` made directly from a `parent_name` span."""
        return sum(
            1 for n, _, _, parent in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent"])
            out.writerows(self.spans)


# Per-layer metrics reported by a traced run: (name, unit).  Values are per
# round of the workload's operations.
LAYER_METRICS: list[tuple[str, str]] = [
    ("numerics.lp_solve.calls", "count"),
    ("numerics.lp_solve.self_s", "s"),
    ("numerics.lp_solve.optimal_ratio", "ratio"),
    ("numerics.rational_solve.calls", "count"),
    ("numerics.rational_solve.self_s", "s"),
    ("numerics.rational_solve.nonsingular_ratio", "ratio"),
    ("solver.solve_discrete_optimal.self_s", "s"),
    ("solver.tuples", "count"),
    ("solver.contract_for_tuple.self_s", "s"),
    ("solver.candidate_contract_set.self_s", "s"),
    ("solver.candidates", "count"),
    ("solver.bases", "count"),
    ("core.best_response.calls", "count"),
    ("core.best_response.self_s", "s"),
    ("core.expected_principal_utility.self_s", "s"),
    ("core.expected_principal_utility_continuous.calls", "count"),
    ("core.expected_principal_utility_continuous.self_s", "s"),
    ("dist.discretize.self_s", "s"),
    ("dist.sample_many.calls", "count"),
    ("dist.sample_many.self_s", "s"),
    ("ptas.ptas_contract.self_s", "s"),
    ("ptas.k", "count"),
    ("hardness.reduce.self_s", "s"),
    ("hardness.verify_if_direction.self_s", "s"),
    ("hardness.verify_onlyif_bounds.self_s", "s"),
    ("hardness.classify_types.self_s", "s"),
    ("bandit.true_mean.calls", "count"),
    ("bandit.true_mean.self_s", "s"),
    ("bandit.g_optimal_design.calls", "count"),
    ("bandit.g_optimal_design.self_s", "s"),
    ("bandit.pull_sum.calls", "count"),
    ("bandit.pull_sum.self_s", "s"),
    ("bandit.rounds", "count"),
    ("bandit.contract_environment.self_s", "s"),
    ("bandit.phased_elimination.self_s", "s"),
    ("bandit.blocks", "count"),
    ("bandit.arms_eliminated", "count"),
    ("serialize.self_s", "s"),
    ("cli.main.self_s", "s"),
]


def layer_values(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Every LAYER_METRICS value, per traced round."""
    own, calls = tracer.self_times()
    counters = tracer.counters
    values: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        head, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls[head]
        elif field == "self_s":
            values[metric] = own.get(head, 0.0)
        else:
            values[metric] = counters[metric]
    values["serialize.self_s"] = sum(
        t for name, t in own.items() if name.startswith("serialize.")
    )
    values["solver.bases"] = tracer.child_calls(
        "numerics.rational_solve", "solver.candidate_contract_set"
    )
    lp_calls = calls["numerics.lp_solve"]
    solves = calls["numerics.rational_solve"]
    values["numerics.lp_solve.optimal_ratio"] = (
        counters["numerics.lp_solve.optimal"] / lp_calls if lp_calls else 0.0
    )
    values["numerics.rational_solve.nonsingular_ratio"] = (
        counters["numerics.rational_solve.nonsingular"] / solves if solves else 0.0
    )
    return {
        name: v if name.endswith("_ratio") else v / rounds
        for name, v in values.items()
    }
