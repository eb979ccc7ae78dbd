"""One benchmark workload in a fresh process.

    python3 perfbench/workload.py RUN_DIR [--setup-only] [--trace]
        [--seconds S] --spawned-at T

Reads RUN_DIR/plan.json, imports contractlab, writes the plan's input files
and prepares the operations; that is the set-up, timed from T (the parent's
clock reading when it started this process).  With --setup-only it stops
there.  Otherwise it runs whole rounds of the plan's operations, with
`speed` probes between them on the scaled workloads, until the next round
would end after S seconds, checks the first round's outputs with `checks`,
requires every later round to repeat them, and writes RUN_DIR/result.json.
With --trace, untraced and traced rounds alternate and the result holds the
per-layer figures; the spans go to RUN_DIR/spans.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Any, Callable

import contractlab
from contractlab import bandit, cli, hardness, serialize

import checks
import speed
import tracing

Round = tuple[dict, int, int]  # (record, operations attempted, failed)
INITIAL_PROBE_S = 0.3


class OperationFailed(Exception):
    pass


def cli_call(argv: list[str]) -> str:
    """Run one CLI command in process and return the bytes it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"{argv[0]} exited with {code}")
    return buf.getvalue()


class Ops:
    """A round of operations over the prepared inputs, one method per
    workload.  A failed operation records None and counts as failed."""

    def __init__(self, plan: dict, run_dir: str) -> None:
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        paths = {}
        for name, content in plan["files"].items():
            paths[name] = os.path.join(run_dir, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        self.paths = paths
        if plan["workload"] == "hardness_verify":
            self.systems = [
                (
                    hardness.SetCoverInput(n=s["n"], sets=tuple(map(tuple, s["sets"]))),
                    [tuple(map(Fraction, p)) for p in s["contracts"]],
                )
                for s in plan["systems"]
            ]
        if plan["workload"] == "learn_regret":
            self.inst = serialize.load_instance(paths["desk.json"])
            self.gamma = serialize.load_distribution(paths["uniform.json"])

    def _op(self, fn: Callable[[], Any]) -> Any:
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            print(f"operation failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None

    def ptas_exact(self) -> dict:
        outputs = []
        for op in self.plan["ptas"]:
            argv = ["ptas", "--instance", self.paths[op["instance"]],
                    "--dist", self.paths[op["dist"]], "--eps", "1",
                    "--delta", op["delta"], "--alpha", op["alpha"]]
            outputs.append(self._op(lambda: cli_call(argv)))
        return {"ptas": outputs}

    def hardness_verify(self) -> dict:
        systems = []
        for spec, (sc, contracts) in zip(self.plan["systems"], self.systems):
            sets = ";".join(",".join(map(str, s)) for s in spec["sets"])
            common = ["--universe", str(spec["n"]), "--sets", sets]
            cover = ",".join(map(str, spec["cover"]))
            got = {
                "reduce": self._op(lambda: cli_call(["reduce-setcover", *common])),
                "verify": self._op(lambda: cli_call(
                    ["verify-reduction", *common, "--cover", cover])),
            }
            ri = self._op(lambda: hardness.reduce(sc))
            only = []
            for p in contracts:
                rep = None if ri is None else self._op(
                    lambda: hardness.verify_onlyif_bounds(ri, p))
                only.append(None if rep is None else {"ok": rep.ok, "total": str(rep.total)})
            got["onlyif"] = only
            systems.append(got)
        return {"systems": systems}

    def learn_regret(self) -> dict:
        # The CLI prints the curves but not the arm means, so this workload
        # calls the library: one environment, one regret run per seed.
        horizon = self.plan["horizon"]
        env = self._op(lambda: bandit.contract_environment(
            self.inst, self.gamma, 1.0 / math.sqrt(horizon)))
        curves = []
        for seed in self.plan["seeds"]:
            run = None if env is None else self._op(lambda: bandit.algorithm1_regret(
                self.inst, self.gamma, horizon, seed, env=env))
            curves.append(None if run is None else run.curve.tolist())
        if env is None:
            return {"arms": [], "means": [], "curves": curves}
        return {
            "arms": [[str(x) for x in p] for p in env.arms.contracts],
            "means": [env.true_mean(a) for a in range(env.arms.k)],
            "curves": curves,
        }

    def learn_pac(self) -> dict:
        outputs = []
        for seed in self.plan["seeds"]:
            argv = ["bandit-pac", "--instance", self.paths["desk.json"],
                    "--dist", self.paths["uniform.json"], "--eta", self.plan["eta"],
                    "--delta", self.plan["delta"], "--seed", str(seed)]
            outputs.append(self._op(lambda: cli_call(argv)))
        return {"pac": outputs}

    def round(self) -> Round:
        self.attempted = self.failed = 0
        record = getattr(self, self.plan["workload"])()
        return record, self.attempted, self.failed


def timed_rounds(ops: Ops, seconds: float, tracer: tracing.Tracer | None) -> dict:
    """Whole rounds until the next would end after `seconds`, with speed
    probes before the first round and after each on the scaled workloads.
    With a tracer, rounds alternate untraced and traced, starting
    untraced."""
    times: dict[bool, list[float]] = {False: [], True: []}
    first: dict | None = None
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    scaled = ops.plan["workload"] in speed.SCALED_WORKLOADS
    probes = speed.probe(INITIAL_PROBE_S) if scaled else []
    while True:
        traced = tracer is not None and len(times[False]) > len(times[True])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            record, n_ops, n_failed = ops.round()
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed)
        if scaled:
            probes += speed.probe(speed.PROBE_SHARE * elapsed)
        attempted += n_ops
        failed += n_failed
        text = json.dumps(record, sort_keys=True)
        if first is None:
            first, first_text = record, text
        elif text != first_text:
            errors.append(f"round {len(times[False]) + len(times[True])} output differs")
        done = time.perf_counter() - start
        typical = statistics.median(times[False] + times[True])
        if tracer is not None and not times[True]:
            continue
        if done + typical > seconds:
            break
    return {
        "record": first,
        "wall_s": times[False],
        "traced_wall_s": times[True],
        "probe_s": probes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.run_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    ops = Ops(plan, args.run_dir)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    result = timed_rounds(ops, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["contractlab"] = os.path.abspath(contractlab.__file__)
    record = result.pop("record")
    errors, quality = checks.CHECKS[plan["workload"]](plan, record)
    result["errors"] += errors
    result["quality"] = quality
    if tracer is not None:
        result["layers"] = tracing.layer_values(tracer, len(result["traced_wall_s"]))
        tracer.write_spans(os.path.join(args.run_dir, "spans.csv"))
    with open(os.path.join(args.run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
