"""Scenario files: synthetic user profiles plus episode settings.

A scenario bundles everything an episode needs on the user side: the ground
truth profile, the per-turn reveal schedule, an optional conflict, the
horizon, and the style seed controlling utterance variation.  Scenarios are
stored one JSON file each, read through ``SCENARIO_FIELDS``, so runs can be
reproduced and shared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigError, Field, SchemaError, read_fields, read_object
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
class Scenario(UserConfig):
    """A ``UserConfig`` with the id it is saved and logged under; building
    one validates it."""

    scenario_id: str = field(kw_only=True)

    def user_config(
        self,
        horizon: int | None = None,
        conflict: ConflictSpec | None = None,
    ) -> UserConfig:
        """The episode config, this scenario itself unless pieces are overridden.

        Overriding the horizon resets the reveal schedule to the default
        one-per-turn so longer episodes keep revealing.  A config the
        overrides make invalid (say, a horizon that cuts off the conflict)
        raises a ``ConfigError`` naming the scenario.
        """
        if horizon is None and conflict is None:
            return self
        try:
            return UserConfig(
                profile=self.profile,
                horizon=self.horizon if horizon is None else horizon,
                reveal_schedule=self.reveal_schedule if horizon is None else None,
                conflict=conflict if conflict is not None else self.conflict,
                style_seed=self.style_seed,
            )
        except ConfigError as exc:
            raise ConfigError(f"scenario {self.scenario_id}: {exc}") from None

    def to_payload(self) -> dict:
        return {
            "id": self.scenario_id,
            "profile": self.profile.to_record(),
            "reveal_schedule": None if self.reveal_schedule is None else list(self.reveal_schedule),
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


# A scenario file's fields; the ``conflict`` object's are ``CONFLICT_FIELDS``.
SCENARIO_FIELDS = {
    "id": Field("text", default=None),  # absent: the file's stem
    "profile": Field("object"),
    "horizon": Field("integer", low=1),
    "style_seed": Field("integer", low=0),  # -n would share the reveal order of n
    "reveal_schedule": Field("integers", low=0, default=None, nullable=True),
    "conflict": Field("object", default=None, nullable=True),
}
CONFLICT_FIELDS = {"turn": Field("integer", low=1), "replace": Field("object")}
# generate_scenarios' count, seed and horizon, which ``gen-scenarios`` takes as flags.
GENERATE_FIELDS = {"count": Field("integer", low=1), "seed": SCENARIO_FIELDS["style_seed"],
                   "horizon": SCENARIO_FIELDS["horizon"]}


def generate_scenarios(
    count: int,
    seed: int,
    horizon: int = 10,
    conflict: bool = False,
    extended: bool = False,
) -> list[Scenario]:
    read_fields("", dict(count=count, seed=seed, horizon=horizon), GENERATE_FIELDS, ConfigError)
    if conflict and horizon < DEFAULT_CONFLICT_TURN + 1:
        raise ConfigError(f"conflict scenarios swap a value at turn {DEFAULT_CONFLICT_TURN} and "
                          f"need a horizon above {DEFAULT_CONFLICT_TURN} to recover")
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
        path.write_text(json.dumps(scenario.to_payload(), indent=2) + "\n")
        paths.append(path)
    return paths


def load_scenario(path: str | Path) -> Scenario:
    """The scenario of one file, read through ``SCENARIO_FIELDS``; every error
    names the file, the range checks of the file's own ``UserConfig`` too."""
    where = f"scenario file {path}: "
    payload = read_object(path, "scenario file", ConfigError)
    record = read_fields(where, payload, SCENARIO_FIELDS, ConfigError)
    conflict, schedule = record["conflict"], record["reveal_schedule"]
    if conflict is not None:
        conflict = read_fields(f"{where}conflict ", conflict, CONFLICT_FIELDS, ConfigError)
    try:
        profile = load_profile(record["profile"], f"{where}profile ", ConfigError)
    except (ValueError, SchemaError) as exc:
        raise ConfigError(f"{where}profile: {exc}") from None
    try:
        return Scenario(
            scenario_id=record["id"] or Path(path).stem,
            profile=profile,
            horizon=record["horizon"],
            reveal_schedule=None if schedule is None else tuple(schedule),
            conflict=ConflictSpec(**conflict) if conflict else None,
            style_seed=record["style_seed"],
        )
    except ConfigError as exc:
        raise ConfigError(f"{where}{exc}") from None


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
    """Load every scenario JSON from a directory (or a single file); two files
    of one scenario id are refused, naming both."""
    scenarios: dict[str, tuple[Path, Scenario]] = {}
    for path in scenario_files(source):
        scenario = load_scenario(path)
        first, _ = scenarios.setdefault(scenario.scenario_id, (path, scenario))
        if first != path:
            raise ConfigError(f"scenario files {first} and {path} share the id "
                              f"{scenario.scenario_id!r}")
    return [scenario for _, scenario in scenarios.values()]
