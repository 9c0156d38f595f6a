"""Scenario files: synthetic user profiles plus episode settings.

A scenario bundles everything an episode needs on the user side: the ground
truth profile, the per-turn reveal schedule, an optional conflict, the
horizon, and the style seed controlling utterance variation.  Scenarios are
stored one JSON file each so runs can be reproduced and shared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, SchemaError
from .profiles import ALOE_SLOTS, Profile, SlotMatcher, SlotSchema, clearly_different, load_profile
from .user_sim import ConflictSpec, UserConfig, reveal_order


def _load_pools() -> dict[str, dict[str, list[str]]]:
    with resources.files("dialign.data").joinpath("value_pools.json").open() as fh:
        return json.load(fh)


_POOLS = _load_pools()
# Every slot's value pool, aloe and extended slots together.
_SLOT_VALUES = {**_POOLS["aloe"], **_POOLS["extended"]}

DEFAULT_CONFLICT_TURN = 6


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    profile: Profile
    horizon: int
    reveal_schedule: tuple[int, ...] | None
    conflict: ConflictSpec | None
    style_seed: int

    def user_config(
        self,
        horizon: int | None = None,
        conflict: ConflictSpec | None = None,
    ) -> UserConfig:
        """Materialize the episode config, optionally overriding pieces.

        Overriding the horizon resets the reveal schedule to the default
        one-per-turn so longer episodes keep revealing.  A config the
        overrides make invalid (say, a horizon that cuts off the conflict)
        raises a ``ConfigError`` naming the scenario.
        """
        effective_horizon = horizon if horizon is not None else self.horizon
        schedule = self.reveal_schedule if horizon is None else None
        try:
            return UserConfig(
                profile=self.profile,
                horizon=effective_horizon,
                reveal_schedule=schedule,
                conflict=conflict if conflict is not None else self.conflict,
                style_seed=self.style_seed,
            )
        except ConfigError as exc:
            raise ConfigError(f"scenario {self.scenario_id}: {exc}") from None

    def to_payload(self) -> dict:
        return {
            "id": self.scenario_id,
            "profile": self.profile.to_record(),
            "reveal_schedule": list(self.reveal_schedule) if self.reveal_schedule else None,
            "conflict": self.conflict.to_record() if self.conflict else None,
            "horizon": self.horizon,
            "style_seed": self.style_seed,
        }


def _schema_for(extended: bool) -> SlotSchema:
    if not extended:
        return SlotSchema.aloe()
    extra = tuple(_POOLS["extended"])
    return SlotSchema(name="extended", slots=ALOE_SLOTS + extra, open_schema=True)


def generate_profile(rng: random.Random, schema: SlotSchema) -> Profile:
    entries = {slot: rng.choice(_SLOT_VALUES[slot]) for slot in schema.slots}
    return Profile(schema=schema, entries=entries)


def default_conflict(
    profile: Profile,
    style_seed: int,
    rng: random.Random,
    turn: int = DEFAULT_CONFLICT_TURN,
    matcher: SlotMatcher | None = None,
) -> ConflictSpec:
    """Swap the first-revealed slot's value for a clearly different one.

    Targeting the earliest reveal guarantees the slot is already revealed
    well before the conflict turn, so an evidence-tracking agent is left
    holding a stale value and the reward dip is observable.  The run's
    ``matcher``, if given, must not match the replacement to the old value.
    """
    target = reveal_order(profile, style_seed)[0]
    original = profile.entries[target]
    candidates = clearly_different(target, original, _SLOT_VALUES.get(target, []), matcher)
    replacement = rng.choice(candidates) if candidates else f"changed {target.lower()}"
    return ConflictSpec(turn=turn, replace={target: replacement})


def generate_scenarios(
    count: int,
    seed: int,
    horizon: int = 10,
    conflict: bool = False,
    extended: bool = False,
) -> list[Scenario]:
    if count < 1:
        raise ConfigError("need at least one scenario")
    if seed < 0:
        # random.Random(-n) seeds like random.Random(n).
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if conflict and horizon < DEFAULT_CONFLICT_TURN + 1:
        raise ConfigError(
            f"conflict scenarios need horizon > {DEFAULT_CONFLICT_TURN} to recover"
        )
    rng = random.Random(seed)
    schema = _schema_for(extended)
    scenarios: list[Scenario] = []
    for index in range(count):
        profile = generate_profile(rng, schema)
        style_seed = rng.randrange(2**31)
        spec = default_conflict(profile, style_seed, rng) if conflict else None
        scenarios.append(
            Scenario(
                scenario_id=f"scenario_{index:04d}",
                profile=profile,
                horizon=horizon,
                reveal_schedule=tuple([1] * horizon),
                conflict=spec,
                style_seed=style_seed,
            )
        )
    return scenarios


def save_scenarios(scenarios: list[Scenario], out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for scenario in scenarios:
        path = out / f"{scenario.scenario_id}.json"
        with open(path, "w") as fh:
            json.dump(scenario.to_payload(), fh, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths


def _integer(path: str | Path, field: str, value: object) -> int:
    """``value`` if it is a JSON integer (not a bool, a float or a string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"scenario file {path}: {field} must be an integer, got {value!r}")
    return value


def _conflict(path: str | Path, record: object) -> ConflictSpec | None:
    """The conflict of a scenario file's ``conflict`` field; null means none."""
    if record is None:
        return None
    where = f"scenario file {path}: conflict"
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be an object or null, got {record!r}")
    for key in ("turn", "replace"):
        if key not in record:
            raise ConfigError(f"{where} missing field {key!r}")
    turn, replace = _integer(path, "conflict turn", record["turn"]), record["replace"]
    if not isinstance(replace, dict):
        raise ConfigError(f"{where} replace must be an object, got {replace!r}")
    try:
        return ConflictSpec(turn=turn, replace=dict(replace))
    except ConfigError as exc:
        raise ConfigError(f"scenario file {path}: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """The scenario of one file.  Every error it raises names the file,
    including the range checks of the file's own ``UserConfig``."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ConfigError(f"scenario file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"scenario file {path} must hold a JSON object")
    for key in ("profile", "horizon", "style_seed"):
        if key not in payload:
            raise ConfigError(f"scenario file {path} missing field {key!r}")
    try:
        profile = load_profile(payload["profile"])
    except (TypeError, ValueError, SchemaError) as exc:
        raise ConfigError(f"scenario file {path}: profile: {exc}") from None
    style_seed = _integer(path, "style_seed", payload["style_seed"])
    if style_seed < 0:
        # A negative seed would share its reveal order with its absolute value.
        raise ConfigError(f"scenario file {path}: style_seed must be >= 0, got {style_seed}")
    conflict = _conflict(path, payload.get("conflict"))
    schedule = payload.get("reveal_schedule")
    if schedule is not None and not isinstance(schedule, list):
        raise ConfigError(
            f"scenario file {path}: reveal_schedule must be a list or null, got {schedule!r}"
        )
    scenario = Scenario(
        scenario_id=str(payload.get("id", Path(path).stem)),
        profile=profile,
        horizon=_integer(path, "horizon", payload["horizon"]),
        reveal_schedule=tuple(_integer(path, "reveal_schedule entry", count)
                              for count in schedule) if schedule else None,
        conflict=conflict,
        style_seed=style_seed,
    )
    try:
        scenario.user_config()
    except ConfigError as exc:
        raise ConfigError(f"scenario file {path}: {exc}") from None
    return scenario


def scenario_files(source: str | Path) -> list[Path]:
    """A directory's scenario JSON files in name order, or the single file."""
    path = Path(source)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise ConfigError(f"no scenario files in {path}")
        return files
    if path.is_file():
        return [path]
    raise FileNotFoundError(f"scenario source {path} does not exist")


def load_scenarios(source: str | Path) -> list[Scenario]:
    """Load every scenario JSON from a directory (or a single file)."""
    return [load_scenario(path) for path in scenario_files(source)]
