"""Bit identity as a test: the benchmark's workloads at seed 7 reproduce the
output digests recorded in ``bench/digests.json``.

Each workload runs one whole job through the benchmark's own set-up,
operation and output checks (untimed), then its final check, which also
replays every logged reward and, for ``train``, retrains in one call.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from bench_workloads import (  # noqa: E402
    EvalConflict,
    EvalLongterm,
    Train,
    digest_mismatches,
    reference_digests,
)


@pytest.mark.parametrize("workload_cls", [Train, EvalConflict, EvalLongterm])
def test_seed_7_outputs_match_the_recorded_digests(workload_cls, tmp_path: Path) -> None:
    expected = reference_digests(workload_cls.name, 7)
    assert expected, f"no seed-7 digests recorded for {workload_cls.name}"
    workload = workload_cls(tmp_path, seed=7)
    workload.setup()
    workload.begin_job()
    for index in range(workload.ops_per_job):
        workload.op()
        assert workload.check_op(index) == []
    digests, problems = workload.final_check()
    assert problems == []
    assert digest_mismatches(digests, expected) == []
