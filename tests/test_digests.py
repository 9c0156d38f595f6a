"""Bit identity as a test: the benchmark's workloads reproduce recorded output
digests at seed 7 (``bench/digests.json``) and at seeds 11 and 23 (pinned
below, as ``BENCH_10.json`` records them under ``digests_seeds_11_23``), and
a short seed-7 ``train`` run writes the pinned ``curve.csv``.

Each workload runs one whole job through the benchmark's own set-up,
operation and output checks (untimed), then its final check, which also
replays every logged reward and, for ``train``, retrains in one call.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from dialign.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from bench_workloads import (  # noqa: E402
    EvalConflict,
    EvalLongterm,
    Train,
    digest_mismatches,
    reference_digests,
)

_LONGTERM_SUMMARY = "3fa41bbb374409a01d4bce251fed67ccae82ce1eede9ed06941e8cb9f2c48c2d"

PINNED: dict[tuple[str, int], dict[str, str]] = {
    ("train", 11): {
        "theta_sha256": "27deb457a3d23b846b5ccc71e25a18b24cfea8ff69e4b4f74f1c1ddae8d379d5",
        "phi_sha256": "bd6dbd537a2ede7bad483388b91206608a49331072370189770ba238a7b68894",
    },
    ("eval-conflict", 11): {
        "episodes_jsonl_sha256": "1fb1017f4b5793e70131c9eb43815a8b96294b162776b949258d44adbcca114f",
        "summary_csv_sha256": "65d8364a1d0e35a8e48604e7425a67be641ec441302ea24e0d7d615133a19551",
    },
    ("eval-longterm", 11): {
        "episodes_jsonl_sha256": "fd7a865557b5a4fd25fb6e9b78b0fdca054c471c8c4d3b6c53149d1c98306cec",
        "summary_csv_sha256": _LONGTERM_SUMMARY,
    },
    ("train", 23): {
        "theta_sha256": "64f1234aff335b8844bae4d513d8df54600f795dbefc5b948151b0774a763d30",
        "phi_sha256": "6134e29fb9d5edf917e1a27fb2ec0189a922d8fe2ab410e22bd2ecee7cacb2e2",
    },
    ("eval-conflict", 23): {
        "episodes_jsonl_sha256": "1efd46551ba0ded8109ebc331121dad0e50b0cad74640dffd1dce7810f463ff9",
        "summary_csv_sha256": "92007851c98446c390d52f0927b4f2e09aa51bc1152341ca5554bb73cabd6d3c",
    },
    ("eval-longterm", 23): {
        "episodes_jsonl_sha256": "2421dd9a9869499cd876d03f64e878af0d556d8b5531ea3c13716daf40a0404f",
        "summary_csv_sha256": _LONGTERM_SUMMARY,
    },
}


def _outputs_match(workload_cls, seed: int, expected: dict[str, str], tmp_path: Path) -> None:
    workload = workload_cls(tmp_path, seed=seed)
    workload.setup()
    workload.begin_job()
    for index in range(workload.ops_per_job):
        workload.op()
        assert workload.check_op(index) == []
    digests, problems = workload.final_check()
    assert problems == []
    assert digest_mismatches(digests, expected) == []


@pytest.mark.parametrize("workload_cls", [Train, EvalConflict, EvalLongterm])
def test_seed_7_outputs_match_the_recorded_digests(workload_cls, tmp_path: Path) -> None:
    expected = reference_digests(workload_cls.name, 7)
    assert expected, f"no seed-7 digests recorded for {workload_cls.name}"
    _outputs_match(workload_cls, 7, expected, tmp_path)


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("workload_cls", [Train, EvalConflict, EvalLongterm])
def test_seed_11_and_23_outputs_match_the_pinned_digests(
    workload_cls, seed: int, tmp_path: Path
) -> None:
    _outputs_match(workload_cls, seed, PINNED[(workload_cls.name, seed)], tmp_path)


# curve.csv of ``train --seed 7 --rounds 4 --samples 2`` on ``gen-scenarios
# --count 8 --seed 7``: the per-round reward means, clip fraction and value loss.
_CURVE_SEED_7 = "154a773ed0ed22461a77453855fc7fb4ba50fddf6a3f54a2712e44e550c324a5"


def test_a_short_seed_7_train_run_writes_the_pinned_curve(tmp_path: Path) -> None:
    scenarios, out = tmp_path / "scn", tmp_path / "run"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "8", "--seed", "7"]) == 0
    assert main(["train", "--scenarios", str(scenarios), "--out", str(out), "--seed", "7",
                 "--rounds", "4", "--samples", "2"]) == 0
    assert hashlib.sha256((out / "curve.csv").read_bytes()).hexdigest() == _CURVE_SEED_7
