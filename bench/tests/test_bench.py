"""Tests of the benchmark's own arithmetic and output checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from bench_trace import Tracer, layer_metrics, layer_totals, self_times, wall_time  # noqa: E402
from bench_workloads import EvalLongterm, Train, digest_mismatches, sha256_array  # noqa: E402
from reference import REFERENCE_SECONDS, scaled  # noqa: E402


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times: list[float]) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_times_subtract_direct_children_only() -> None:
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == 10.0


def test_tracer_spans_add_up_to_the_root_wall_time() -> None:
    # bench.op [0, 10] > rl.collect [1, 8] > env.DialogueEnv.step [2, 3], [4, 6]
    clock = FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=clock)
    step = tracer.wrap("env.DialogueEnv.step", lambda: None)
    with tracer.span("bench.op"):
        with tracer.span("rl.collect"):
            step()
            step()
    spans = tracer.arrays()
    totals = layer_totals(tracer, spans)
    step_totals = {"calls": 2, "self_s": 3.0, "total_s": 3.0, "errors": 0}
    assert totals["env.DialogueEnv.step"] == step_totals
    assert totals["rl.collect"]["self_s"] == 4.0
    assert totals["bench.op"]["self_s"] == 3.0
    assert wall_time(spans) == 10.0

    metrics, problems = layer_metrics(tracer, turns=2, overhead_ratio=1.5, bytes_per_write=0)
    assert problems == []
    assert metrics["env.DialogueEnv.step.self_us_per_call"]["value"] == 1.5e6
    assert metrics["rl.collect.ms_per_call"]["value"] == 7e3
    assert metrics["trace.uncovered_share"]["value"] == 0.3
    shares = [m["value"] for name, m in metrics.items() if name.endswith(".self_share")]
    assert abs(sum(shares) + metrics["trace.uncovered_share"]["value"] - 1.0) < 1e-12


def test_traced_errors_are_counted_and_reraised() -> None:
    tracer = Tracer()

    def fail() -> None:
        raise ValueError("boom")

    wrapped = tracer.wrap("rl.update", fail)
    try:
        wrapped()
    except ValueError:
        pass
    else:
        raise AssertionError("the wrapper swallowed the exception")
    assert layer_totals(tracer, tracer.arrays())["rl.update"]["errors"] == 1


def test_install_patches_where_names_are_looked_up_and_uninstall_restores() -> None:
    import dialign.cli
    import dialign.env
    import dialign.user_sim

    original_next = dialign.user_sim.next_utterance
    original_step = dialign.env.DialogueEnv.__dict__["step"]
    tracer = Tracer()
    tracer.install()
    try:
        assert dialign.env.next_utterance is not original_next
        assert dialign.user_sim.next_utterance is dialign.env.next_utterance
        assert dialign.cli.rollout is dialign.env.rollout
        assert dialign.env.DialogueEnv.__dict__["step"] is not original_step
    finally:
        tracer.uninstall()
    assert dialign.env.next_utterance is original_next
    assert dialign.env.DialogueEnv.__dict__["step"] is original_step


class SmallTrain(Train):
    scenario_count = 4
    ops_per_job = 3


def test_round_by_round_training_matches_one_train_call(tmp_path: Path) -> None:
    workload = SmallTrain(tmp_path, seed=7)
    workload.setup()
    for _ in range(2):
        workload.begin_job()
        for index in range(workload.ops_per_job):
            workload.op()
            assert workload.check_op(index) == []
    digests, problems = workload.final_check()
    assert problems == []
    assert digests == {
        "theta_sha256": sha256_array(workload.policy.theta),
        "phi_sha256": sha256_array(workload.value_fn.phi),
    }

    workload.round_digests[-1] = "0" * 64
    _, problems = workload.final_check()
    assert problems == ["round-by-round training differs from one train() call"]


class SmallLongterm(EvalLongterm):
    scenario_count = 1


def test_output_check_fails_on_altered_outputs(tmp_path: Path) -> None:
    workload = SmallLongterm(tmp_path, seed=7)
    workload.setup()
    workload.begin_job()
    workload.op()
    assert workload.check_op(0) == []
    digests, problems = workload.final_check()
    assert problems == []

    altered = dict(digests, summary_csv_sha256="0" * 64)
    assert digest_mismatches(digests, altered) == ["summary_csv_sha256"]
    assert digest_mismatches(digests, digests) == []

    episodes = workload.out_dir / "episodes.jsonl"
    record = json.loads(episodes.read_text())
    record["turns"][-1]["profile_reward"] += 0.125
    episodes.write_text(json.dumps(record) + "\n")
    assert workload.check_op(1) == ["eval outputs differ from the first job's"]
    _, problems = workload.final_check()
    assert problems == ["scenario_0000: replay_rewards differs from the log"]


def test_times_are_scaled_by_the_reference_loop() -> None:
    # The machine runs at half speed: the reference loop takes twice its time.
    slow = 2 * REFERENCE_SECONDS
    measurement = run.Measurement(
        op_seconds=[0.2, 0.4, 0.6], reference_seconds=[slow] * 3, turns=30, episodes=3
    )
    assert measurement.scaled_op_seconds == [0.1, 0.2, 0.3]
    reported = run.end_to_end([0.5], measurement, peak_rss_mb=40.0)
    assert abs(reported["turns_per_s"]["value"] - 30 / 0.6) < 1e-9
    assert abs(reported["op_ms_p50"]["value"] - 200.0) < 1e-9
    wall = run.end_to_end([0.5], measurement, peak_rss_mb=40.0, scale=False)
    assert abs(wall["turns_per_s"]["value"] - 30 / 1.2) < 1e-9
    assert scaled(1.0, slow) == 0.5


def test_result_metric_names_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measurement = run.Measurement(
        op_seconds=[0.1] * 3, reference_seconds=[REFERENCE_SECONDS] * 3, turns=30, episodes=3
    )
    reported = run.end_to_end([0.5], measurement, peak_rss_mb=40.0)
    assert list(reported) == [m["name"] for m in spec["end_to_end"]]
    assert all(reported[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])

    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
    step = tracer.wrap("env.DialogueEnv.step", lambda: None)
    with tracer.span("bench.op"):
        step()
    layer, _ = layer_metrics(tracer, turns=1, overhead_ratio=1.0, bytes_per_write=0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_refuses_to_run_without_the_program_sources(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
