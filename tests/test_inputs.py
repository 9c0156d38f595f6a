"""The input contract: every outside input is read through its field table.

The refusal test is generated from the tables themselves (``SCENARIO_FIELDS``,
``CONFLICT_FIELDS``, ``PROFILE_FIELDS``, ``SCHEMA_FIELDS``,
``CHECKPOINT_FIELDS``, ``PPO_FIELDS`` and ``FLAG_FIELDS``): every row, times
each break that applies to it, must exit 2 with exactly one stderr line
naming the flag, or the file and the field, and leave ``--out`` untouched.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from pathlib import Path

import pytest

from dialign import cli
from dialign.cli import FLAG_FIELDS, main
from dialign.errors import REQUIRED, Field
from dialign.profiles import PROFILE_FIELDS, SCHEMA_FIELDS
from dialign.rl import CHECKPOINT_FIELDS, PPO_FIELDS, PPOConfig, config_fingerprint, load_checkpoint
from dialign.scenarios import CONFLICT_FIELDS, SCENARIO_FIELDS, load_scenario

ROOT = Path(__file__).resolve().parents[1]
PINNED_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1.json"

# One value of each JSON kind, to put where another kind belongs.
_KINDS = {"text": "x", "float": 0.5, "bool": True, "null": None, "list": [1], "object": {"a": 1}}
_OWN_KINDS = {"number": ("float",), "text": ("text",), "object": ("object",),
              "boolean": ("bool",), "text or object": ("text", "object")}
_MISSING = object()  # the field is dropped


def _scalar_breaks(kind: str, row: Field) -> list[tuple[str, object]]:
    """Breaks of one value of ``kind`` under ``row``: each other JSON kind,
    each bound ± 1 (the bound itself when it is excluded), NaN and ±inf."""
    breaks = [(name, value) for name, value in _KINDS.items()
              if name not in _OWN_KINDS.get(kind, ())]
    if kind in ("integer", "number"):
        for name, bound, step in (("low-1", row.low, -1), ("high+1", row.high, 1)):
            if math.isfinite(bound):
                breaks.append((name, bound if row.strict else bound + step))
    if kind == "number":
        breaks += [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("huge", 10**400)]
    if kind in ("text", "text or object"):
        breaks += [("empty", "")] + [("other", "x")] * bool(row.choices)
    return breaks


def _breaks(row: Field) -> list[tuple[str, object]]:
    """Every break that applies to ``row``, as (name, value)."""
    breaks = [("missing", _MISSING)] if row.default is REQUIRED else []
    if row.kind in ("integers", "numbers", "texts"):
        entry = row.kind[:-1]
        breaks += [(name, value) for name, value in _KINDS.items() if name != "list"]
        breaks += [(f"entry-{name}", [value] * (row.size or 1))
                   for name, value in _scalar_breaks(entry, row)]
        if row.size is not None:
            breaks.append(("size+1", [max(row.low, 0)] * (row.size + 1)))
    else:
        breaks += _scalar_breaks(row.kind, row)
    return [(name, value) for name, value in breaks if not (value is None and row.nullable)]


def _flag_breaks(row: Field) -> list[tuple[str, str]]:
    """The breaks of ``row`` a command line can spell: a flag's value is
    already a number (or comma-separated numbers), so only range breaks and
    unparsable entries apply."""
    if row.kind in ("integers", "numbers"):
        return [(name, ",".join(map(str, value))) for name, value in _breaks(row)
                if isinstance(value, list)]
    number = (int,) if row.kind == "integer" else (int, float)
    return [(name, str(value)) for name, value in _breaks(row) if type(value) in number]


def _commands_taking(flag: str) -> list[str]:
    (commands,) = [a.choices for a in cli.build_parser()._actions if isinstance(a.choices, dict)]
    return [name for name, sub in commands.items() if flag in sub._option_string_actions]


def _field_cases(source: str, table: dict) -> list:
    return [pytest.param(source, field, value, id=f"{source}:{field}:{name}")
            for field, row in table.items() for name, value in _breaks(row)]


_CASES = [
    *_field_cases("scenario", SCENARIO_FIELDS),
    *_field_cases("conflict", CONFLICT_FIELDS),
    *_field_cases("profile", PROFILE_FIELDS),
    # An inline profile schema's slots default to the entries' slots.
    *(case for case in _field_cases("profile schema", SCHEMA_FIELDS)
      if case.id != "profile schema:slots:missing"),
    *_field_cases("checkpoint schema", SCHEMA_FIELDS),
    *_field_cases("checkpoint", CHECKPOINT_FIELDS),
    *_field_cases("checkpoint ppo", PPO_FIELDS),
    *_field_cases("--config", PPO_FIELDS),
    *(pytest.param(command, flag, value, id=f"{command}:{flag}:{name}")
      for flag, row in FLAG_FIELDS.items() for command in _commands_taking(flag)
      for name, value in _flag_breaks(row)),
    *(pytest.param(f"{source} file", None, content, id=f"{source} file:{name}")
      for source in ("scenario", "checkpoint", "--config")
      for name, content in (("empty", b""), ("non-utf-8", b"\xff{}"), ("directory", None))),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, Path]:
    """Two conflict scenarios and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("inputs")
    scenarios, run = root / "scn", root / "run"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--conflict"]) == 0
    assert main(["train", "--scenarios", str(scenarios), "--out", str(run), "--rounds", "1",
                 "--samples", "1"]) == 0
    return scenarios, run / "checkpoint.json"


def _command_line(command: str, scenarios: Path, out: Path) -> list[str]:
    """A valid command line of ``command``, before the flag under test."""
    return {
        "gen-scenarios": ["gen-scenarios", "--out", str(out), "--count", "2"],
        "judge-bench": ["judge-bench", "--count", "4", "--out", str(out)],
        "train": ["train", "--scenarios", str(scenarios), "--out", str(out), "--rounds", "1",
                  "--samples", "1"],
        "eval": ["eval", "--scenarios", str(scenarios), "--out", str(out), "--agent", "oracle"],
    }[command]


def _write(path: Path, value: object) -> None:
    """Put ``value`` at ``path``: JSON, raw bytes, or (None) a directory."""
    if path.exists():
        path.unlink()
    if value is None:
        path.mkdir()
    elif isinstance(value, bytes):
        path.write_bytes(value)
    else:
        path.write_text(json.dumps(value))


# Where each case source's fields sit in a scenario file or a checkpoint, and
# the words its refusals put between the file and the field.
_SCENARIO_PARTS = {
    "scenario": ("", lambda p: p),
    "conflict": ("conflict ", lambda p: p["conflict"]),
    "profile": ("profile ", lambda p: p["profile"]),
    "profile schema": ("profile schema ", lambda p: p["profile"]["schema"]),
}
_CHECKPOINT_PARTS = {
    "checkpoint": ("", lambda p: p),
    "checkpoint ppo": ("ppo ", lambda p: p["ppo"]),
    "checkpoint schema": ("schema ", lambda p: p["schema"]),
}


def _edit(payload: dict, field: str, value: object) -> None:
    if value is _MISSING:
        del payload[field]
    else:
        payload[field] = value


@pytest.mark.parametrize(("source", "field", "value"), _CASES)
def test_every_broken_input_exits_2_with_one_line_naming_it(
    source: str, field: str | None, value: object, inputs: tuple[Path, Path], tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    scenarios, checkpoint = inputs
    out = tmp_path / "out"
    if source in _SCENARIO_PARTS or source == "scenario file":
        scenarios = Path(shutil.copytree(scenarios, tmp_path / "scn"))
        path = scenarios / "scenario_0001.json"
        payload = json.loads(path.read_text())
        part, find = _SCENARIO_PARTS.get(source, ("", None))
        if find is not None:
            _edit(find(payload), field, value)
        _write(path, value if source == "scenario file" else payload)
        argv = _command_line("eval", scenarios, out)
        where = f"scenario file {path}: {part}"
    elif source in _CHECKPOINT_PARTS or source == "checkpoint file":
        payload = json.loads(checkpoint.read_text())
        part, find = _CHECKPOINT_PARTS.get(source, ("", None))
        if find is not None:
            _edit(find(payload), field, value)
        path = tmp_path / "checkpoint.json"
        _write(path, value if source == "checkpoint file" else payload)
        argv = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--checkpoint", str(path)]
        where = f"checkpoint {path}: {part}"
    elif source in ("--config", "--config file"):
        path = tmp_path / "ppo.json"
        _write(path, value if source == "--config file" else {field: value})
        argv = _command_line("train", scenarios, out) + ["--config", str(path)]
        where = f"--config {path}: "
    else:  # a flag of one command
        argv = _command_line(source, scenarios, out) + [f"{field}={value}"]
        where = ""
    if field is None:
        expected = f"error: {where}"
    elif value is _MISSING:
        expected = f"error: {where}missing field {field!r}\n"
    else:
        expected = f"error: {where}{field} " + ("must be " if where else "")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(expected), err
    assert not out.exists()


def _set(*path_and_value):
    """An edit of a scenario payload that puts the last argument at the key path before it."""
    *path, key, value = path_and_value

    def edit(payload: dict) -> None:
        for step in path:
            payload = payload[step]
        payload[key] = value
    return edit


@pytest.mark.parametrize(("edits", "message"), [
    pytest.param([_set("profile", "schema", "open", "false"),
                  _set("profile", "entries", "Hobby", "chess")],
                 "profile schema open must be a boolean, got 'false'", id="open-as-text"),
    pytest.param([_set("profile", "schema", "slots", "Age")],
                 "profile schema slots must be a list of non-empty text, got 'Age'",
                 id="slots-as-text"),
    pytest.param([_set("profile", "entries", [["Age", "5"]])],
                 "profile entries must be an object, got [['Age', '5']]", id="entries-as-pairs"),
    pytest.param([_set("profile", "schema", "name", 5)],
                 "profile schema name must be non-empty text, got 5", id="numeric-name"),
    pytest.param([_set("profile", "schema", 5)],
                 "profile schema must be non-empty text or an object, got 5", id="numeric-schema"),
    pytest.param([_set("profile", "entries", "Age", 5)],
                 "profile: value for slot 'Age' must be non-empty text, got 5", id="numeric-value"),
])
def test_a_profile_record_is_read_through_its_field_tables(
    edits: list, message: str, inputs: tuple[Path, Path], tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    """Profile and schema records that used to load as something else (an
    open schema, the slots A, g, e, a numeric name) or to be refused under
    another name ("empty value") exit 2 naming the file and the field."""
    scenarios = Path(shutil.copytree(inputs[0], tmp_path / "scn"))
    path, out = scenarios / "scenario_0000.json", tmp_path / "out"
    payload = json.loads(path.read_text())
    for edit in edits:
        edit(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(_command_line("eval", scenarios, out)) == 2
    assert capsys.readouterr().err == f"error: scenario file {path}: {message}\n"
    assert not out.exists()


def test_a_checkpoint_schema_that_is_not_closed_or_open_is_refused_as_the_checkpoints(
    inputs: tuple[Path, Path], tmp_path: Path, capsys: pytest.CaptureFixture[str],
) -> None:
    """It used to pass as an open schema and exit 2 blaming the first scenario."""
    scenarios, checkpoint = inputs
    payload = json.loads(checkpoint.read_text())
    payload["schema"]["open"] = "false"
    path, out = tmp_path / "checkpoint.json", tmp_path / "out"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = ["eval", "--scenarios", str(scenarios), "--out", str(out), "--checkpoint", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {path}: schema open must be a boolean, got 'false'\n")
    assert not out.exists()


# Each inclusive bound of a PPO setting, written out so that a table that
# excludes one fails here.
_PPO_EDGES = [("lam", 0), ("lam", 1), ("gamma", 0), ("gamma", 1), ("actor_lr", 0),
              ("critic_lr", 0), ("epochs", 1), ("samples_per_scenario", 1), ("total_rounds", 1),
              ("seed", 0)]


@pytest.mark.parametrize(("field", "value"), _PPO_EDGES)
def test_ppo_config_accepts_each_inclusive_bound(field: str, value: float) -> None:
    assert getattr(PPOConfig(**{field: value}), field) == value


def test_the_edges_are_every_inclusive_ppo_bound() -> None:
    edges = {(name, bound) for name, row in PPO_FIELDS.items() if not row.strict
             for bound in (row.low, row.high) if math.isfinite(bound)}
    assert edges == set(_PPO_EDGES)


def test_files_accept_a_zero_style_seed_and_step(
    inputs: tuple[Path, Path], tmp_path: Path
) -> None:
    scenarios, checkpoint = inputs
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**json.loads((scenarios / "scenario_0000.json").read_text()),
                                "style_seed": 0}))
    assert load_scenario(path).style_seed == 0
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({**json.loads(checkpoint.read_text()), "step": 0}))
    assert load_checkpoint(path).step == 0


def test_a_scenario_id_is_non_empty_text_or_the_file_stem(
    inputs: tuple[Path, Path], tmp_path: Path
) -> None:
    scenarios, _ = inputs
    payload = json.loads((scenarios / "scenario_0000.json").read_text())
    path = tmp_path / "named.json"
    path.write_text(json.dumps({**payload, "id": "kitchen"}))
    assert load_scenario(path).scenario_id == "kitchen"
    del payload["id"]
    path.write_text(json.dumps(payload))
    assert load_scenario(path).scenario_id == "named"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(("name", "scenario_id", "other"), [
    ("copy.json", "scenario_0000", "scenario_0000.json"),  # a copy of a file
    ("kitchen.json", None, "scenario_0001.json"),  # an id taken from another file's stem
], ids=["copy", "stem"])
def test_two_scenario_files_of_one_id_exit_2_naming_both(
    command: str, name: str, scenario_id: str | None, other: str,
    inputs: tuple[Path, Path], tmp_path: Path, capsys: pytest.CaptureFixture[str],
) -> None:
    scenarios = Path(shutil.copytree(inputs[0], tmp_path / "scn"))
    payload = json.loads((scenarios / "scenario_0000.json").read_text())
    _edit(payload, "id", scenario_id or _MISSING)
    (scenarios / name).write_text(json.dumps(payload))
    if scenario_id is None:
        twin = json.loads((scenarios / other).read_text())
        (scenarios / other).write_text(json.dumps({**twin, "id": Path(name).stem}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_command_line(command, scenarios, out)) == 2
    shared = scenario_id or Path(name).stem
    assert capsys.readouterr().err == (
        f"error: scenario files {scenarios / name} and {scenarios / other} "
        f"share the id {shared!r}\n"
    )
    assert not out.exists()


def test_the_pinned_checkpoint_loads_and_resumes(tmp_path: Path) -> None:
    """A checkpoint in today's format (``tests/data/checkpoint_v1.json``,
    one round on ``gen-scenarios --count 2 --seed 3``) keeps its fingerprint
    and resumes."""
    checkpoint = load_checkpoint(PINNED_CHECKPOINT)
    fingerprint = "5a85aaf7f39b834050fdf35e8d9f6c1d5861cd26ca58fb247829905a1f03bbb4"
    assert checkpoint.fingerprint == fingerprint
    cfg = PPOConfig(**checkpoint.ppo)
    assert config_fingerprint(cfg, checkpoint.weights, checkpoint.schema,
                              checkpoint.matcher) == fingerprint
    scenarios, out = tmp_path / "scn", tmp_path / "run"
    assert main(["gen-scenarios", "--out", str(scenarios), "--count", "2", "--seed", "3"]) == 0
    assert main(["train", "--scenarios", str(scenarios), "--out", str(out), "--rounds", "1",
                 "--samples", "1", "--resume", str(PINNED_CHECKPOINT)]) == 0
    assert load_checkpoint(out / "checkpoint.json").step == checkpoint.step + 1


def _readme_row(source: str, name: str, row: Field) -> str:
    kind, words = row.words()
    return f"| {source} | `{name}` | {kind} | {words or '—'} |"


def test_the_readme_table_states_every_row() -> None:
    """Each field and flag row appears in the README's input table, with the
    kind and range words its refusal uses."""
    readme = (ROOT / "README.md").read_text()
    rows = [
        *(_readme_row("scenario file", name, row) for name, row in SCENARIO_FIELDS.items()),
        *(_readme_row("scenario `conflict`", name, row) for name, row in CONFLICT_FIELDS.items()),
        *(_readme_row("scenario `profile`", name, row) for name, row in PROFILE_FIELDS.items()),
        *(_readme_row("scenario `profile` `schema`, checkpoint `schema`", name, row)
          for name, row in SCHEMA_FIELDS.items()),
        *(_readme_row("checkpoint", name, row) for name, row in CHECKPOINT_FIELDS.items()),
        *(_readme_row("`--config`, checkpoint `ppo`", name, row)
          for name, row in PPO_FIELDS.items()),
        *(_readme_row("flag", name, row) for name, row in FLAG_FIELDS.items()),
    ]
    missing = [row for row in rows if row not in readme]
    assert missing == []
    assert len(re.findall(r"^\| (scenario|checkpoint|`--config`|flag)", readme, re.M)) == len(rows)
