from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import dialign.cli
import dialign.env
from dialign.cli import main, write_reports
from dialign.env import DialogueEnv, read_episodes, replay_rewards
from dialign.metrics import alignment_curve, alignment_matrix
from dialign.profiles import Profile, SlotMatcher, precision_recall
from dialign.rl import load_checkpoint, play
from dialign.scenarios import load_scenario, load_scenarios


def _read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    out = tmp_path_factory.mktemp("scenarios")
    assert main(["gen-scenarios", "--out", str(out), "--count", "6", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory: pytest.TempPathFactory, scenario_dir: Path) -> Path:
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--rounds",
            "3",
            "--samples",
            "1",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    return out


# --- exit codes -----------------------------------------------------------------


def test_usage_error_exits_1() -> None:
    assert main(["train"]) == 1  # missing required arguments
    assert main(["no-such-command"]) == 1


def test_validation_error_exits_2(tmp_path: Path) -> None:
    # Empty scenario directory is a validation problem, not a crash.
    out = tmp_path / "out"
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        ["train", "--scenarios", str(empty), "--out", str(out), "--rounds", "1"]
    )
    assert code == 2


def test_config_file_with_unknown_key_exits_2(
    scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config = tmp_path / "ppo.json"
    config.write_text(json.dumps({"epochs": 2, "rollouts_per_update": 8}))
    capsys.readouterr()
    args = ["train", "--scenarios", str(scenario_dir), "--out", str(tmp_path / "t")]
    assert main(args + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--config {config}: " in err and "rollouts_per_update" in err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "setting, flags",
    [
        ({"epochs": 2.5}, []),
        ({"epochs": "4"}, []),
        ({"epochs": True}, []),
        ({"samples_per_scenario": 1.0}, []),
        ({"total_rounds": "1"}, []),
        ({"seed": 1.5}, []),
        ({"seed": False}, []),
        ({"clip_eps": "0.2"}, []),
        ({"gamma": None}, []),
        ({"actor_lr": float("nan")}, []),
        ({"critic_lr": float("inf")}, []),
        ({"ratio_clamp": True}, []),
        ({"actor_lr": -1}, []),
        ({"critic_lr": -0.5}, []),
        ({"lam": 1.5}, []),
        ({"epochs": 0}, []),
        ({}, ["--seed", "-1"]),
        ({}, ["--rounds", "0"]),
        ({}, ["--epochs", "0"]),
        ({}, ["--samples", "0"]),
        ({}, ["--samples", "-2"]),
        ({}, ["--actor-lr", "-1"]),
        ({}, ["--actor-lr", "inf"]),
        ({}, ["--critic-lr", "nan"]),
        ({}, ["--critic-lr", "-0.01"]),
    ],
    ids=lambda case: json.dumps(case) if isinstance(case, dict) else " ".join(case),
)
def test_mistyped_ppo_setting_exits_2_before_writing(
    setting: dict, flags: list[str], scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    config = tmp_path / "ppo.json"
    config.write_text(json.dumps({"total_rounds": 1, "samples_per_scenario": 1, **setting}))
    out = tmp_path / "out"
    capsys.readouterr()
    args = ["train", "--scenarios", str(scenario_dir), "--out", str(out), "--config", str(config)]
    assert main(args + flags) == 2
    err = capsys.readouterr().err
    # A bad config setting names the file and the field; a bad flag names the flag.
    name = f"--config {config}: {next(iter(setting))}" if setting else flags[0]
    assert err.count("\n") == 1 and name in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("payload", ["5", '"epochs"', "[1]", "null", "", "epochs: 2", "\xff"])
def test_config_that_is_not_a_json_object_exits_2_before_writing(
    payload: str, scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config = tmp_path / "ppo.json"
    config.write_bytes(payload.encode("latin-1"))
    out = tmp_path / "out"
    capsys.readouterr()
    args = ["train", "--scenarios", str(scenario_dir), "--out", str(out), "--config", str(config)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--config" in err and "Traceback" not in err
    # Both text that is no JSON at all and JSON that is no object name the file.
    is_json = payload in ("5", '"epochs"', "[1]", "null")
    expected = "must hold a JSON object" if is_json else "not a JSON text file"
    assert f"--config {config}: {expected}" in err
    assert not out.exists()


def test_bad_matcher_spec_exits_2(
    scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    for spec in ("bogus:9", "token:abc", "exact:0.5", "token:2"):
        capsys.readouterr()
        code = main(
            [
                "train",
                "--scenarios",
                str(scenario_dir),
                "--out",
                str(tmp_path / "x"),
                "--matcher",
                spec,
                "--rounds",
                "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--matcher {spec!r}" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags",
    [["--ab", "1,x"], ["--ab", "1,2,3"], ["--ab", "1"], ["--ab", "9,9"],
     ["--matcher", "token:abc"], ["--matcher", "bogus"], ["--count", "0"], ["--count", "-2"]],
    ids=" ".join,
)
def test_bad_judge_bench_flag_exits_2_naming_it(
    flags: list[str], tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    out = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["judge-bench", "--count", "4", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flags[0] in err and "Traceback" not in err
    assert not out.exists()


def test_judge_bench_ab_above_the_profile_size_is_refused_before_any_case(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    def built(*args, **kwargs):
        raise AssertionError("a case was built")

    monkeypatch.setattr(dialign.cli, "build_overlap_bench", built)
    capsys.readouterr()
    assert main(["judge-bench", "--count", "3", "--ab", "9,9"]) == 2
    assert capsys.readouterr().err == (
        "error: --ab 9,9: a+b=18 exceeds the profile size 10\n"
    )


def test_matcher_threshold_its_label_cannot_keep_exits_2(
    scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # The label keeps 6 significant digits; a longer threshold would be
    # checkpointed and replayed as a different matcher.
    out = tmp_path / "x"
    code = main(
        [
            "train",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--matcher",
            "token:0.1234567",
            "--rounds",
            "1",
        ]
    )
    assert code == 2
    assert not out.exists()
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_unexpected_exception_exits_3_with_one_line(
    monkeypatch: pytest.MonkeyPatch, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    def broken(source):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(dialign.cli, "load_scenarios", broken)
    code = main(["eval", "--scenarios", str(scenario_dir), "--out", str(tmp_path), "--agent", "oracle"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unexpected" in err and "Traceback" not in err


def test_missing_scenario_path_exits_2(tmp_path: Path) -> None:
    code = main(
        [
            "train",
            "--scenarios",
            str(tmp_path / "definitely-not-here"),
            "--out",
            str(tmp_path / "y"),
            "--rounds",
            "1",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["gen-scenarios", "train", "eval", "judge-bench"])
def test_out_under_a_file_exits_2_before_any_work(
    command: str, scenario_dir: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    def worked(*args, **kwargs):
        raise AssertionError("the command started its work")

    for name in ("generate_scenarios", "load_scenarios", "build_overlap_bench"):
        monkeypatch.setattr(dialign.cli, name, worked)
    blocker = tmp_path / "afile"
    blocker.write_text("kept")
    flags = {"gen-scenarios": [], "judge-bench": ["--count", "3"],
             "train": ["--scenarios", str(scenario_dir)],
             "eval": ["--scenarios", str(scenario_dir), "--agent", "oracle"]}[command]
    capsys.readouterr()
    assert main([command, "--out", str(blocker / "x.csv"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {blocker / 'x.csv'}: {blocker} is a file, not a directory\n"
    assert captured.out == "" and blocker.read_text() == "kept"


@pytest.mark.parametrize(("command", "flags"), [
    ("gen-scenarios", ["--count", "2"]),
    ("train", ["--rounds", "1", "--samples", "1"]),
    ("eval", ["--agent", "oracle"]),
    ("eval", ["--agent", "oracle", "--mode", "longterm", "--horizon", "10"]),
    ("judge-bench", ["--count", "3"]),
], ids=["gen-scenarios", "train", "eval", "eval-longterm", "judge-bench"])
def test_a_directory_where_a_command_writes_a_file_exits_2_before_any_work(
    command: str, flags: list[str], scenario_dir: Path, tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str],
) -> None:
    """Each file a command wrote in a first run, made a directory in a fresh
    ``--out``, is refused naming ``--out`` and the path; ``judge-bench``'s
    ``--out`` is its report file."""
    if command in ("train", "eval"):
        flags = ["--scenarios", str(scenario_dir), *flags]
    report = command == "judge-bench"

    def out_arg(directory: Path) -> Path:
        return directory / "report.csv" if report else directory

    assert main([command, "--out", str(out_arg(tmp_path / "first")), *flags]) == 0
    written = sorted(path.name for path in (tmp_path / "first").iterdir())
    if command == "eval" and "longterm" not in flags:  # a standard eval writes no longterm.csv
        (tmp_path / "standard" / "longterm.csv").mkdir(parents=True)
        assert main([command, "--out", str(tmp_path / "standard"), *flags]) == 0

    def worked(*args, **kwargs):
        raise AssertionError("the command started its work")

    for name in ("generate_scenarios", "load_scenarios", "build_overlap_bench"):
        monkeypatch.setattr(dialign.cli, name, worked)
    for name in written:
        directory = tmp_path / f"out-{name}"
        (directory / name).mkdir(parents=True)
        capsys.readouterr()
        assert main([command, "--out", str(out_arg(directory)), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {out_arg(directory)}: {directory / name} "
                                "is a directory, not a file\n")
        assert captured.out == "" and [path.name for path in directory.iterdir()] == [name]


@pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1,inf"])
def test_non_finite_weights_exit_2_before_writing(
    weights: str, scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    out = tmp_path / "run"
    capsys.readouterr()
    args = ["train", "--scenarios", str(scenario_dir), "--out", str(out), "--rounds", "1"]
    assert main([*args, "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--weights" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--count", "0"], ["--count", "-2"], ["--horizon", "0"]], ids=" ".join
)
def test_bad_gen_scenarios_flag_exits_2_naming_it(
    flags: list[str], tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    out = tmp_path / "scenarios"
    capsys.readouterr()
    assert main(["gen-scenarios", "--out", str(out), "--count", "4", *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flags[0] in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-scenarios", "judge-bench"])
def test_negative_seed_exits_2_before_writing(
    command: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # random.Random(-5) seeds like random.Random(5).
    out = tmp_path / ("bench.csv" if command == "judge-bench" else "scenarios")
    capsys.readouterr()
    assert main([command, "--out", str(out), "--count", "4", "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("field", "value"),
    [("horizon", 10.9), ("horizon", "10"), ("horizon", True), ("style_seed", 2.5),
     ("style_seed", -1), ("conflict turn", 6.0), ("conflict turn", False)],
)
def test_scenario_number_that_is_not_a_json_integer_exits_2(
    field: str, value: object, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--conflict"]) == 0
    path = scenarios / "scenario_0001.json"
    payload = json.loads(path.read_text())
    if field == "conflict turn":
        payload["conflict"]["turn"] = value
    else:
        payload[field] = value
    path.write_text(json.dumps(payload))
    out = tmp_path / "e"
    capsys.readouterr()
    assert main(["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and field in err
    assert not out.exists()


def _drop_conflict_key(key: str):
    def edit(payload: dict) -> None:
        del payload["conflict"][key]
    return edit


def _set_conflict(value: object):
    def edit(payload: dict) -> None:
        payload["conflict"] = value
    return edit


def _set_replace(payload: dict) -> None:
    payload["conflict"]["replace"] = "x"


def _set_schedule(payload: dict) -> None:
    payload["reveal_schedule"] = 5


def _inline_schema_without_name(payload: dict) -> None:
    payload["profile"]["schema"] = {"slots": list(payload["profile"]["entries"])}


@pytest.mark.parametrize(
    ("fields", "edit"),
    [(("conflict", "turn"), _drop_conflict_key("turn")),
     (("conflict", "replace"), _drop_conflict_key("replace")),
     (("conflict",), _set_conflict([1])),
     (("conflict", "replace"), _set_replace),
     (("reveal_schedule",), _set_schedule),
     (("schema", "name"), _inline_schema_without_name)],
    ids=["no-turn", "no-replace", "list", "replace-text", "schedule-number", "schema-no-name"],
)
def test_malformed_scenario_field_exits_2(
    fields: tuple[str, ...], edit, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--conflict"]) == 0
    path = scenarios / "scenario_0001.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    out = tmp_path / "e"
    capsys.readouterr()
    args = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err
    assert all(field in err for field in fields)
    assert not out.exists()


def _set_conflict_turn(payload: dict) -> None:
    payload["conflict"]["turn"] = 99


def _negative_schedule_entry(payload: dict) -> None:
    payload["reveal_schedule"][3] = -1


def _schedule_past_horizon(payload: dict) -> None:
    payload["reveal_schedule"] += [1]


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize(
    ("message", "edit"),
    [("conflict turn 99 outside [1, 10]", _set_conflict_turn),
     ("reveal_schedule must be a list of integers or null with entries >= 0, got [1, 1, 1, -1",
      _negative_schedule_entry),
     ("reveal schedule longer than horizon", _schedule_past_horizon),
     ("Expecting property name", None)],
    ids=["conflict-turn", "negative-reveal", "long-schedule", "not-json"],
)
def test_out_of_range_or_unparsable_scenario_file_exits_2_naming_it(
    command: str, message: str, edit, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--conflict"]) == 0
    path = scenarios / "scenario_0001.json"
    if edit is None:
        path.write_text("{not json")
    else:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    capsys.readouterr()
    args = {"eval": ["--agent", "oracle"], "train": ["--rounds", "1"]}[command]
    assert main([command, "--scenarios", str(scenarios), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario file {path}: ")
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["standard", "conflict"])
def test_eval_horizon_that_cuts_off_a_conflict_names_the_scenario(
    mode: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # The scenarios carry their own turn-6 conflict, so conflict mode injects nothing.
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--conflict"]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    args = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle",
            "--mode", mode, "--horizon", "5"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: scenario scenario_0000: conflict turn 6 outside [1, 5]\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    ("gen_horizon", "eval_flags", "horizon"),
    [(10, ["--horizon", "5"], 5), (10, ["--horizon", "6"], 6), (6, [], 6)],
    ids=["flag-5", "flag-6", "files-6"],
)
def test_eval_conflict_mode_refuses_a_horizon_with_no_turn_after_the_swap(
    gen_horizon: int, eval_flags: list[str], horizon: int, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2",
                 "--horizon", str(gen_horizon)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    args = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle",
            "--mode", "conflict", *eval_flags]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: --mode conflict swaps a value at turn 6 and needs a horizon above 6 "
        f"to recover, got {horizon}\n"
    )
    assert not out.exists()


def test_eval_conflict_mode_injects_the_swap_at_horizon_7(tmp_path: Path) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2"]) == 0
    out = tmp_path / "out"
    assert main(["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle",
                 "--mode", "conflict", "--horizon", "7"]) == 0
    records = list(read_episodes(out / "episodes.jsonl"))
    assert len(records) == 2
    for record in records:
        assert record.horizon == 7 and record.conflict["turn"] == 6
        assert len(record.turns) == 7


def test_eval_conflict_mode_runs_own_conflicts_inside_a_short_horizon(tmp_path: Path) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--conflict"]) == 0
    for path in scenarios.glob("*.json"):
        payload = json.loads(path.read_text())
        payload["conflict"]["turn"] = 3
        path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle",
                 "--mode", "conflict", "--horizon", "5"]) == 0
    records = list(read_episodes(out / "episodes.jsonl"))
    assert [(r.horizon, r.conflict["turn"]) for r in records] == [(5, 3), (5, 3)]


def test_absent_or_null_conflict_means_no_conflict(tmp_path: Path) -> None:
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "1", "--conflict"]) == 0
    path = scenarios / "scenario_0000.json"
    payload = json.loads(path.read_text())
    for edit in (_set_conflict(None), lambda p: p.pop("conflict")):
        edit(payload)
        path.write_text(json.dumps(payload))
        assert load_scenario(path).conflict is None


# --- gen-scenarios ----------------------------------------------------------------


def test_gen_scenarios_writes_loadable_files(scenario_dir: Path) -> None:
    files = sorted(scenario_dir.glob("*.json"))
    assert len(files) == 6
    payload = json.loads(files[0].read_text())
    assert {"id", "profile", "horizon", "style_seed"} <= set(payload)


def test_gen_scenarios_conflict_flag_needs_recovery_room(tmp_path: Path) -> None:
    code = main(
        [
            "gen-scenarios",
            "--out",
            str(tmp_path),
            "--count",
            "2",
            "--seed",
            "0",
            "--horizon",
            "6",
            "--conflict",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("horizon", ["1", "6"])
def test_gen_scenarios_conflict_without_recovery_room_names_both_flags(
    horizon: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    out = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(out), "--horizon", horizon, "--conflict"]) == 2
    assert capsys.readouterr().err == (
        f"error: --conflict --horizon {horizon}: conflict scenarios swap a value at turn 6 "
        "and need a horizon above 6 to recover\n"
    )
    assert not out.exists()


# --- train ------------------------------------------------------------------------


def test_train_writes_checkpoint_curve_and_config(trained_dir: Path) -> None:
    checkpoint = load_checkpoint(trained_dir / "checkpoint.json")
    assert checkpoint.step == 3
    rows = _read_csv(trained_dir / "curve.csv")
    assert [int(r["step"]) for r in rows] == [1, 2, 3]
    for row in rows:
        assert float(row["mean_total_reward"]) >= 0.0
    run_config = json.loads((trained_dir / "run_config.json").read_text())
    assert run_config["ppo"]["total_rounds"] == 3
    assert run_config["weights"] == [1.0, 1.0]
    assert run_config["matcher"] == "exact"


def test_train_resume_appends_curve(scenario_dir: Path, tmp_path: Path) -> None:
    out = tmp_path / "resume"
    first = main(
        [
            "train",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--rounds",
            "2",
            "--samples",
            "1",
            "--seed",
            "1",
        ]
    )
    assert first == 0
    second = main(
        [
            "train",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--rounds",
            "2",
            "--samples",
            "1",
            "--seed",
            "1",
            "--resume",
            str(out / "checkpoint.json"),
        ]
    )
    assert second == 0
    rows = _read_csv(out / "curve.csv")
    assert [int(r["step"]) for r in rows] == [1, 2, 3, 4]
    resumed = load_checkpoint(out / "checkpoint.json")
    assert resumed.step == 4

    # Stopping and resuming gives the bits of an uninterrupted run.
    straight = tmp_path / "straight"
    assert main(
        [
            "train", "--scenarios", str(scenario_dir), "--out", str(straight),
            "--rounds", "4", "--samples", "1", "--seed", "1",
        ]
    ) == 0
    uninterrupted = load_checkpoint(straight / "checkpoint.json")
    assert np.array_equal(resumed.theta, uninterrupted.theta)
    assert np.array_equal(resumed.phi, uninterrupted.phi)
    # One header and the same formatting as the uninterrupted run's curve.
    assert (out / "curve.csv").read_bytes() == (straight / "curve.csv").read_bytes()


def test_resume_with_other_schema_name_exits_2(
    trained_dir: Path, scenario_dir: Path, tmp_path: Path
) -> None:
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    payload["schema"]["name"] = "renamed"
    checkpoint = tmp_path / "renamed.json"
    checkpoint.write_text(json.dumps(payload))
    code = main(
        [
            "train", "--scenarios", str(scenario_dir), "--out", str(tmp_path / "out"),
            "--rounds", "1", "--samples", "1", "--resume", str(checkpoint),
        ]
    )
    assert code == 2


def test_scenarios_whose_schemas_differ_exit_2_before_writing(
    trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    # Two extended scenarios share the schema name, but one lost a slot.
    mixed = tmp_path / "mixed"
    assert main(["gen-scenarios", "--out", str(mixed), "--count", "2", "--seed", "3",
                 "--extended"]) == 0
    path = mixed / "scenario_0001.json"
    payload = json.loads(path.read_text())
    payload["profile"]["schema"]["slots"].pop()
    path.write_text(json.dumps(payload))
    run = tmp_path / "run"
    assert main(["train", "--scenarios", str(mixed / "scenario_0000.json"), "--out", str(run),
                 "--rounds", "1", "--samples", "1"]) == 0
    checkpoint = str(run / "checkpoint.json")

    # A checkpoint that differs from its scenarios only in openness.
    reopened = json.loads((trained_dir / "checkpoint.json").read_text())
    reopened["schema"]["open"] = True
    reopened_path = tmp_path / "reopened.json"
    reopened_path.write_text(json.dumps(reopened))

    out = tmp_path / "out"
    for args, scenario in (
        (["train", "--scenarios", str(mixed), "--rounds", "1"], "scenario_0001"),
        (["train", "--scenarios", str(mixed), "--rounds", "1", "--resume", checkpoint],
         "scenario_0001"),
        (["eval", "--scenarios", str(mixed), "--checkpoint", checkpoint], "scenario_0001"),
        (["eval", "--scenarios", str(scenario_dir), "--checkpoint", str(reopened_path)],
         "scenario_0000"),
    ):
        capsys.readouterr()
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"scenario {scenario} " in err
        assert not out.exists()


@pytest.mark.parametrize(
    "changed",
    [["--seed", "99"], ["--weights", "0,1"], ["--matcher", "token:0.5"], ["--epochs", "2"]],
)
def test_resume_with_changed_setup_exits_2(
    changed: list[str], trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    out = tmp_path / "out"
    args = [
        "train", "--scenarios", str(scenario_dir), "--out", str(out), "--rounds", "1",
        "--samples", "1", "--seed", "0", "--resume", str(trained_dir / "checkpoint.json"),
    ]
    capsys.readouterr()
    assert main(args + changed) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and changed[0].lstrip("-") in err
    assert not out.exists()


def test_resume_with_only_more_rounds_continues(
    trained_dir: Path, scenario_dir: Path, tmp_path: Path
) -> None:
    out = tmp_path / "more"
    assert main(
        [
            "train", "--scenarios", str(scenario_dir), "--out", str(out), "--rounds", "2",
            "--samples", "1", "--seed", "0", "--resume", str(trained_dir / "checkpoint.json"),
        ]
    ) == 0
    assert load_checkpoint(out / "checkpoint.json").step == 5


def test_checkpoint_without_matcher_evaluates_but_does_not_resume(
    trained_dir: Path, scenario_dir: Path, tmp_path: Path
) -> None:
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    del payload["matcher"]
    checkpoint = tmp_path / "no-matcher.json"
    checkpoint.write_text(json.dumps(payload))
    assert main(
        [
            "train", "--scenarios", str(scenario_dir), "--out", str(tmp_path / "t"),
            "--rounds", "1", "--samples", "1", "--seed", "0", "--resume", str(checkpoint),
        ]
    ) == 2
    assert main(
        [
            "eval", "--scenarios", str(scenario_dir), "--out", str(tmp_path / "e"),
            "--checkpoint", str(checkpoint),
        ]
    ) == 0


# --- eval --------------------------------------------------------------------------


def test_eval_oracle_writes_episodes_and_curves(scenario_dir: Path, tmp_path: Path) -> None:
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--agent",
            "oracle",
        ]
    )
    assert code == 0
    episodes = list(read_episodes(out / "episodes.jsonl"))
    assert len(episodes) == 6
    turncurve = _read_csv(out / "turncurve.csv")
    assert len(turncurve) == 10
    altable = _read_csv(out / "altable.csv")
    assert len(altable) == 1
    assert "turn_1" in altable[0] and "turn_10" in altable[0]
    summary = _read_csv(out / "summary.csv")
    assert len(summary) == 1


def test_eval_summary_is_recomputable_from_episodes(scenario_dir: Path, tmp_path: Path) -> None:
    out = tmp_path / "eval2"
    assert (
        main(
            [
                "eval",
                "--scenarios",
                str(scenario_dir),
                "--out",
                str(out),
                "--agent",
                "oracle",
            ]
        )
        == 0
    )
    episodes = list(read_episodes(out / "episodes.jsonl"))
    curve = alignment_curve(alignment_matrix(episodes))
    turncurve = _read_csv(out / "turncurve.csv")
    for row, level in zip(turncurve, curve):
        assert float(row["alignment_level"]) == pytest.approx(level, abs=1e-9)
    # Rewards in the log replay to the same numbers offline.
    matcher = SlotMatcher(kind="exact")
    for record in episodes:
        for turn, breakdown in zip(record.turns, replay_rewards(record, matcher)):
            assert breakdown.total == pytest.approx(turn.total_reward, abs=1e-9)


@pytest.mark.parametrize(
    "agent_args, mode",
    [(["--agent", "oracle", "--horizon", "30"], "longterm"), (["--agent", "policy"], "conflict")],
)
def test_every_report_is_rebuilt_byte_for_byte_from_episodes_jsonl(
    agent_args: list[str], mode: str, scenario_dir: Path, trained_dir: Path, tmp_path: Path
) -> None:
    out, rebuilt = tmp_path / "eval", tmp_path / "rebuilt"
    args = ["eval", "--scenarios", str(scenario_dir), "--out", str(out), "--mode", mode,
            "--episodes", "2", "--seed", "5", *agent_args]
    if "policy" in agent_args:
        args += ["--checkpoint", str(trained_dir / "checkpoint.json")]
    assert main(args) == 0
    rebuilt.mkdir()
    records = list(read_episodes(out / "episodes.jsonl"))
    write_reports(records, rebuilt, mode, SlotMatcher.parse("exact"))
    reports = sorted(path.name for path in out.glob("*.csv"))
    expected = ["altable.csv", "summary.csv", "turncurve.csv"]
    assert reports == sorted(expected + (["longterm.csv"] if mode == "longterm" else []))
    assert sorted(path.name for path in rebuilt.iterdir()) == reports
    for name in reports:
        assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name


def test_eval_rejects_mixed_horizons_exits_2(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    mixed, short = tmp_path / "mixed", tmp_path / "short"
    assert main(["gen-scenarios", "--out", str(mixed), "--count", "2", "--seed", "1"]) == 0
    assert main(
        ["gen-scenarios", "--out", str(short), "--count", "1", "--seed", "2", "--horizon", "5"]
    ) == 0
    # Under an id of its own: two files of one id are refused before horizons are read.
    payload = json.loads((short / "scenario_0000.json").read_text())
    (mixed / "scenario_short.json").write_text(json.dumps({**payload, "id": "scenario_short"}))
    capsys.readouterr()
    args = ["eval", "--scenarios", str(mixed), "--agent", "oracle"]
    assert main(args + ["--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "horizon" in err
    # An explicit horizon evaluates them together.
    assert main(args + ["--out", str(tmp_path / "h"), "--horizon", "8"]) == 0


def test_eval_on_horizon_one_exits_2_and_writes_nothing(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    scenarios = tmp_path / "h1"
    assert main(
        ["gen-scenarios", "--out", str(scenarios), "--count", "1", "--seed", "4", "--horizon", "1"]
    ) == 0
    # The horizon of the files names a file and the field; a --horizon names the flag.
    for extra, name in (
        ([], f"scenario file {scenarios / 'scenario_0000.json'}: horizon"),
        (["--mode", "longterm", "--horizon", "1"], "--horizon"),
        (["--horizon", "1"], "--horizon"),
        (["--horizon", "-3"], "--horizon"),
    ):
        out = tmp_path / "e"
        capsys.readouterr()
        args = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle"]
        assert main(args + extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err
        assert not out.exists()


@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_eval_episode_count_below_one_exits_2(
    episodes: str, scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    capsys.readouterr()
    args = ["eval", "--scenarios", str(scenario_dir), "--out", str(tmp_path / "e")]
    assert main(args + ["--agent", "oracle", "--episodes", episodes]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--episodes" in err


@pytest.mark.parametrize("agent", ["oracle", "policy"])
def test_eval_negative_seed_exits_2_before_writing(
    agent: str, trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    out = tmp_path / "e"
    capsys.readouterr()
    args = ["eval", "--scenarios", str(scenario_dir), "--out", str(out), "--agent", agent,
            "--checkpoint", str(trained_dir / "checkpoint.json"), "--seed", "-1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err and "Traceback" not in err
    assert not out.exists()


def test_scenario_schema_with_no_slots_trains_no_policy_but_the_oracle_runs(
    scenario_dir: Path, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    """A policy needs a slot to act on; the evidence oracle does not."""
    payload = json.loads(sorted(scenario_dir.glob("*.json"))[0].read_text())
    payload["profile"]["schema"] = {"name": "x", "slots": [], "open": True}
    path = tmp_path / "no-slots.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--scenarios", str(path), "--out", str(out), "--rounds", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: scenario {payload['id']}: profile schema slots must name at least one slot "
        "for a policy, got []\n"
    )
    assert not out.exists()
    assert main(["eval", "--scenarios", str(path), "--out", str(out), "--agent", "oracle"]) == 0


@pytest.mark.parametrize("command", ["eval", "train"])
def test_checkpoint_schema_with_no_slots_exits_2_naming_the_file_and_field(
    command: str, trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    payload["schema"]["slots"] = []
    payload["phi"] = payload["phi"][:2]  # as long as the observation of no slots
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    out = tmp_path / "out"
    args = [command, "--scenarios", str(scenario_dir), "--out", str(out)]
    if command == "eval":
        args += ["--agent", "policy", "--checkpoint", str(checkpoint)]
    else:
        args += ["--rounds", "1", "--samples", "1", "--resume", str(checkpoint)]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {checkpoint}: schema slots must name at least one slot for a "
        "policy, got []\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("key", ["theta", "phi"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_non_finite_checkpoint_parameters_exit_2_before_writing(
    command: str, key: str, trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    payload[key][1] = float("nan")
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    out = tmp_path / "out"
    args = [command, "--scenarios", str(scenario_dir), "--out", str(out)]
    if command == "eval":
        args += ["--agent", "policy", "--checkpoint", str(checkpoint)]
    else:
        args += ["--rounds", "1", "--samples", "1", "--resume", str(checkpoint)]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key} must be a list of finite numbers" in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("key", "value"),
    [("step", 1.9), ("step", True), ("step", -3), ("ppo", [1]), ("schema", {"slots": ["Age"]}),
     ("weights", None), ("weights", 2), ("weights", [1, 1, 1]), ("weights", [-1, 1]),
     ("weights", [True, 1]), ("theta", "abc"), ("theta", [[0.5]] * 9), ("phi", [[0.0]] * 32),
     ("theta", [0.5] * 8), ("phi", [0.0] * 5), ("fingerprint", 5), ("matcher", 3),
     ("ppo", {"epochs": "x"})],
    ids=["step-float", "step-bool", "step-negative", "ppo-list", "schema-no-name",
         "weights-null", "weights-number", "weights-three", "weights-negative", "weights-bool",
         "theta-string", "theta-nested", "phi-nested", "theta-short", "phi-short",
         "fingerprint-number", "matcher-number", "ppo-epochs-text"],
)
@pytest.mark.parametrize("command", ["eval", "train"])
def test_malformed_checkpoint_field_exits_2_before_writing(
    command: str, key: str, value: object, trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    payload[key] = value
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    out = tmp_path / "out"
    args = [command, "--scenarios", str(scenario_dir), "--out", str(out)]
    if command == "eval":
        args += ["--agent", "policy", "--checkpoint", str(checkpoint)]
    else:
        args += ["--rounds", "1", "--samples", "1", "--seed", "0", "--resume", str(checkpoint)]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(checkpoint) in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("which", ["scenario", "checkpoint"])
def test_json_file_that_is_not_an_object_exits_2(
    which: str, trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    scenarios, checkpoint = tmp_path / "scn", tmp_path / "checkpoint.json"
    shutil.copytree(scenario_dir, scenarios)
    shutil.copy(trained_dir / "checkpoint.json", checkpoint)
    bad = checkpoint if which == "checkpoint" else sorted(scenarios.glob("*.json"))[0]
    bad.write_text("5")
    out = tmp_path / "out"
    capsys.readouterr()
    args = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "policy",
            "--checkpoint", str(checkpoint)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err and "JSON object" in err
    assert not out.exists()


def test_eval_policy_agent_uses_checkpoint(trained_dir: Path, scenario_dir: Path, tmp_path: Path) -> None:
    out = tmp_path / "eval3"
    code = main(
        [
            "eval",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--agent",
            "policy",
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
        ]
    )
    assert code == 0
    assert (out / "episodes.jsonl").exists()


def test_eval_policy_draws_each_episode_alone_from_seed_scenario_index_and_episode(
    trained_dir: Path, scenario_dir: Path, tmp_path: Path
) -> None:
    out, checkpoint = tmp_path / "eval", trained_dir / "checkpoint.json"
    assert main(["eval", "--scenarios", str(scenario_dir), "--out", str(out), "--agent", "policy",
                 "--checkpoint", str(checkpoint), "--episodes", "2", "--seed", "3"]) == 0
    policy, exact = load_checkpoint(checkpoint).policy(), SlotMatcher.parse("exact")
    alone = [
        play(policy, [(s.scenario_id, DialogueEnv(s, matcher=exact))], [[3, index, episode]])[2][0]
        for index, s in enumerate(load_scenarios(scenario_dir)) for episode in range(2)
    ]
    assert [r.to_json() for r in read_episodes(out / "episodes.jsonl")] == [
        r.to_json() for r in alone
    ]


@pytest.mark.parametrize("agent, stacks_per_config", [("oracle", 0), ("policy", 1)])
def test_eval_makes_observation_stacks_only_for_the_policy(
    agent: str, stacks_per_config: int, trained_dir: Path, scenario_dir: Path, tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    calls = []
    observe = dialign.env.observe

    def counted(*args):
        calls.append(args)
        return observe(*args)

    monkeypatch.setattr(dialign.env, "observe", counted)
    code = main(["eval", "--scenarios", str(scenario_dir), "--out", str(tmp_path / "ev"),
                 "--agent", agent, "--checkpoint", str(trained_dir / "checkpoint.json"),
                 "--episodes", "2"])
    assert code == 0
    assert len(calls) == stacks_per_config * len(load_scenarios(scenario_dir))


def test_eval_policy_without_checkpoint_exits_2(scenario_dir: Path, tmp_path: Path) -> None:
    code = main(
        [
            "eval",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(tmp_path / "e"),
            "--agent",
            "policy",
        ]
    )
    assert code == 2


def test_eval_conflict_mode_injects_default_swap(scenario_dir: Path, tmp_path: Path) -> None:
    out = tmp_path / "evalc"
    code = main(
        [
            "eval",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--agent",
            "oracle",
            "--mode",
            "conflict",
        ]
    )
    assert code == 0
    episodes = list(read_episodes(out / "episodes.jsonl"))
    for record in episodes:
        assert record.conflict is not None
        assert record.conflict["turn"] == 6


def test_eval_refuses_a_scenario_conflict_its_matcher_matches(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # scenario_0011 swaps 'outgoing and spontaneous' for 'introverted and
    # careful', which the bundled matchers tell apart and token:0.2 still
    # matches, so the file loads and the run refuses through the conflict check.
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "16", "--seed", "0",
                 "--conflict"]) == 0
    for name in sorted(p.name for p in scenarios.iterdir()):
        if name != "scenario_0011.json":
            (scenarios / name).unlink()
    args = ["eval", "--scenarios", str(scenarios), "--agent", "oracle"]
    assert main([*args, "--out", str(tmp_path / "ok"), "--matcher", "token:0.5"]) == 0
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "bad"), "--matcher", "token:0.2"]) == 2
    assert capsys.readouterr().err == (
        "error: conflict replacement 'introverted and careful' for 'Personality Traits' is not "
        "clearly different from 'outgoing and spontaneous' under matcher token:0.2\n")
    assert not (tmp_path / "bad").exists()
    train_out = tmp_path / "train"
    train_args = ["train", "--scenarios", str(scenarios), "--out", str(train_out), "--rounds", "1"]
    assert main([*train_args, "--matcher", "token:0.2"]) == 2
    assert not train_out.exists()


def test_eval_conflict_mode_picks_swaps_the_run_matcher_sees(tmp_path: Path) -> None:
    # Without the run's matcher, the default swaps of this set include
    # 'associate degree in nursing' -> 'law degree' (Jaccard 0.2).
    scenarios = tmp_path / "scn"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "8", "--seed", "16"]) == 0
    out = tmp_path / "evalc"
    args = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle",
            "--mode", "conflict", "--matcher", "token:0.2"]
    assert main(args) == 0
    loose = SlotMatcher.parse("token:0.2")
    for record in read_episodes(out / "episodes.jsonl"):
        ((slot, new),) = record.conflict["replace"].items()
        assert not loose.values_match(new, record.truth[slot])
        schema = record.schema_object()
        for t in record.turns:
            entries = dict(record.truth)  # the truth in force at this turn
            if t.turn >= record.conflict["turn"]:
                entries[slot] = new
            truth = Profile(schema=schema, entries=entries)
            _, recall = precision_recall(Profile(schema=schema, entries=t.estimate), truth, loose)
            assert recall <= t.theoretical_max + 1e-12


def test_eval_longterm_mode_writes_checkpoint_table(scenario_dir: Path, tmp_path: Path) -> None:
    out = tmp_path / "evall"
    code = main(
        [
            "eval",
            "--scenarios",
            str(scenario_dir),
            "--out",
            str(out),
            "--agent",
            "oracle",
            "--mode",
            "longterm",
            "--horizon",
            "30",
        ]
    )
    assert code == 0
    rows = _read_csv(out / "longterm.csv")
    turns = [row["turn"] for row in rows]
    assert turns[-1] == "avg"
    numeric = rows[:-1]
    for row in numeric:
        assert float(row["profile_score"]) <= float(row["theoretical_max"]) + 1e-9


# --- judge-bench --------------------------------------------------------------------


def test_judge_bench_writes_stats(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out = tmp_path / "bench.csv"
    code = main(
        ["judge-bench", "--count", "40", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    labels = {row["matcher"] for row in rows}
    assert labels == {"exact", "token:0.5"}
    by_label = {row["matcher"]: row for row in rows}
    # Token matching absorbs the paraphrases, exact matching misses them.
    assert float(by_label["token:0.5"]["exact_acc"]) >= float(
        by_label["exact"]["exact_acc"]
    )
    printed = capsys.readouterr().out
    assert "token:0.5" in printed
