"""Reference figures of the benchmark, as recorded in perfbench/README.md.

    python3 perfbench/reference.py [--workloads NAME ...] [--seeds 10]
        [--seconds 25] [--traced 1]

Runs `run.py` untraced on seeds 1..N of each workload, then `--traced`
traced runs, and prints markdown tables: per end-to-end metric, and for the
unscaled round time, the median, the quartiles and the spread (quartile
distance over median, the figure a benchmark bound is compared with), and
the traced per-layer breakdown.  The raw result lines go to
perfbench/runs/reference.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, traced: int) -> dict:
    """The run's result line, with the median unscaled round time of its
    newest run directory under "raw_wall_s"."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    done = subprocess.run(argv, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                          check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    run_dir = max((HERE / "runs").glob(f"{workload}-{seed}-{traced}-*"),
                  key=lambda p: p.stat().st_mtime)
    raw = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))["wall_s"]
    line["raw_wall_s"] = statistics.median(raw)
    return line


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(inputs.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--traced", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    raw: dict[str, dict] = {}
    print("| workload | metric | median | q1 | q3 | spread | bound | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in args.workloads:
        lines = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = [run(workload, seed, args.seconds, 1) for seed in range(1, args.traced + 1)]
        raw[workload] = {"untraced": lines, "traced": traced}
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in lines})
        correct = all(r["correct"] for r in lines + traced)
        for name in bounds:
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in lines])
            print(f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {bounds[name]} | {', '.join(shares)}"
                  f"{'' if correct else ' INCORRECT'} |", flush=True)
        med, q1, q3, spread = summary([r["raw_wall_s"] for r in lines])
        print(f"| {workload} | wall_s unscaled | {med:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{spread:.3f} | | |", flush=True)
    print()
    for workload, runs in raw.items():
        for line in runs["traced"]:
            print(f"Traced {workload} (per round):")
            print()
            print("| metric | value | unit |")
            print("| --- | --- | --- |")
            for name, m in line["metrics"].items():
                if m["value"]:
                    print(f"| {name} | {m['value']:.4g} | {m['unit']} |")
            print()
    (HERE / "runs").mkdir(exist_ok=True)
    (HERE / "runs" / "reference.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
