"""The benchmark's traced pass, run small: every layer traced, and the checks
the benchmark applies to a traced run must find nothing.

The workloads and the tracer are the benchmark's own (``bench/``), so this
test follows whatever contract the benchmark states.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from bench_trace import Tracer, layer_metrics  # noqa: E402
from bench_workloads import EvalConflict, EvalLongterm, Train, Workload  # noqa: E402


class SmallTrain(Train):
    scenario_count = 4
    ops_per_job = 2


class SmallEvalConflict(EvalConflict):
    scenario_count = 2


class SmallEvalLongterm(EvalLongterm):
    scenario_count = 1


@pytest.mark.parametrize("workload_cls", [SmallTrain, SmallEvalConflict, SmallEvalLongterm])
def test_traced_pass_reports_no_problem(workload_cls: type[Workload], tmp_path: Path) -> None:
    workload = workload_cls(tmp_path, seed=7)
    tracer = Tracer()
    tracer.install()
    turns = 0
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        tracer.new_job()
        workload.begin_job()
        for index in range(workload.ops_per_job):
            tracer.op_id = index
            with tracer.span("bench.op"):
                workload.op()
            assert workload.check_op(index) == []
            turns += workload.turns_per_op
    finally:
        tracer.uninstall()
    assert turns > 0
    _, problems = layer_metrics(tracer, turns, 1.0, workload.bytes_per_write)
    assert problems == []
