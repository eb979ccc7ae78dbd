"""contractlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a contractlab source tree.  This process makes the
workload's inputs from the seed (`inputs.make_plan`) into
perfbench/runs/<workload>-<seed>-<trace>-<pid>/, then starts fresh
processes of `workload.py` with PYTHONPATH=src, one BLAS thread and
CONTRACTLAB_THREADS unset.  Untraced, it starts SETUP_PROCESSES processes
that only set up, then one that also runs the rounds; setup_s is the median
set-up time of all of them and wall_s the median round time, both scaled to
reference speed by the `speed` probes taken alongside (round times only on
the exact workloads, `speed.SCALED_WORKLOADS`).  Traced, it
starts one process that alternates untraced and traced rounds.  The last
line printed is the JSON result: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 6
SETUP_PROBE_S = 0.15
# A process gets this long beyond the measured seconds before it is killed.
PROCESS_SLACK_S = 120
# Quality of each workload's answers, reported by the traced run; 0 on the
# workloads a figure does not apply to.
QUALITY_METRICS = [
    ("ptas_value", "utility"),
    ("regret_per_round", "utility/round"),
    ("pac_samples", "samples"),
]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CONTRACTLAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_workload(run_dir: Path, extra: list[str], timeout: float) -> str:
    """Run workload.py to its end and return its standard output."""
    argv = [sys.executable, str(HERE / "workload.py"), str(run_dir), *extra,
            "--spawned-at", repr(time.time())]
    done = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description="contractlab benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "contractlab" / "__init__.py").is_file():
        print(f"error: no contractlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = HERE / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    plan = inputs.make_plan(args.workload, args.seed)
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")

    timeout = args.seconds + PROCESS_SLACK_S
    setups: list[float] = []
    probes = speed.probe(SETUP_PROBE_S)
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            out = start_workload(run_dir, ["--setup-only"], timeout)
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
            probes += speed.probe(SETUP_PROBE_S)
    extra = ["--seconds", repr(args.seconds)] + (["--trace"] if args.trace else [])
    start_workload(run_dir, extra, timeout)
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    if not result["contractlab"].startswith(str(ROOT / "src")):
        print(f"error: imported {result['contractlab']}, not this tree", file=sys.stderr)
        return 2

    scaled = args.workload in speed.SCALED_WORKLOADS
    to_reference = speed.scale(result["probe_s"]) if scaled else 1.0
    if args.trace:
        layers = result["layers"]
        traced = statistics.median(result["traced_wall_s"]) * to_reference
        untraced = statistics.median(result["wall_s"]) * to_reference
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        for name, unit in QUALITY_METRICS:
            metrics[name] = {"value": result["quality"].get(name, 0.0), "unit": unit}
    else:
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups) * speed.scale(probes),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(result["wall_s"]) * to_reference,
                       "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
