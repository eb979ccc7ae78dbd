"""The library as the benchmark uses it: one small round of each declared
workload under the benchmark's tracer, with no failed operation and outputs
its checks accept.

A renamed traced function, or a change to what the traced functions return,
fails here rather than in a traced benchmark run.  perfbench/ is only read:
its modules are imported from their directory without caching bytecode
there, and each round writes its input files under tmp_path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

sys.dont_write_bytecode = _bytecode

WORKLOADS = [
    w["name"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_round_of_each_workload(name, tmp_path):
    plan = inputs.make_plan(name, 7, small=True)
    ops = workload.Ops(plan, str(tmp_path))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        record, attempted, failed = ops.round()
    finally:
        tracer.uninstall()
    assert attempted > 0
    assert failed == 0
    assert checks.CHECKS[name](plan, record)[0] == []
    if name.startswith("learn_"):
        assert tracing.layer_values(tracer, 1)["bandit.blocks"] > 0
