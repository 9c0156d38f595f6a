from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest

from dialign.errors import ConfigError
from dialign.profiles import SlotMatcher, SlotSchema
from dialign.scenarios import (
    DEFAULT_CONFLICT_TURN,
    default_conflict,
    generate_profile,
    generate_scenarios,
    load_scenario,
    load_scenarios,
    reveal_order,
    save_scenarios,
)
from dialign.user_sim import UserConfig, initial_state


def test_generate_scenarios_is_deterministic_per_seed() -> None:
    a = generate_scenarios(8, seed=42)
    b = generate_scenarios(8, seed=42)
    c = generate_scenarios(8, seed=43)
    assert [s.to_payload() for s in a] == [s.to_payload() for s in b]
    assert [s.to_payload() for s in a] != [s.to_payload() for s in c]


def test_generated_profiles_fill_every_slot_from_the_pools() -> None:
    for scenario in generate_scenarios(6, seed=1):
        assert len(scenario.profile) == 10
        assert set(scenario.profile.entries) == set(SlotSchema.aloe().slots)
        assert all(value.strip() for value in scenario.profile.entries.values())


def test_scenario_ids_are_unique_and_stable() -> None:
    scenarios = generate_scenarios(12, seed=3)
    ids = [s.scenario_id for s in scenarios]
    assert len(set(ids)) == 12


def test_generate_profile_draws_from_schema_slots() -> None:
    schema = SlotSchema.aloe()
    profile = generate_profile(random.Random(5), schema)
    assert set(profile.entries) == set(schema.slots)


def test_extended_scenarios_use_open_schema_with_extra_slots() -> None:
    scenarios = generate_scenarios(4, seed=2, extended=True)
    for scenario in scenarios:
        assert scenario.profile.schema.open_schema
        assert len(scenario.profile.schema.slots) > 10
        assert len(scenario.profile) > 10


def test_reveal_order_matches_simulator() -> None:
    scenario = generate_scenarios(1, seed=11)[0]
    order = reveal_order(scenario.profile, scenario.style_seed)
    state = initial_state(scenario.user_config())
    assert tuple(order) == state.pending


def test_default_conflict_targets_first_revealed_slot() -> None:
    scenario = generate_scenarios(1, seed=13)[0]
    conflict = default_conflict(
        scenario.profile, scenario.style_seed, random.Random(0)
    )
    first_slot = reveal_order(scenario.profile, scenario.style_seed)[0]
    assert conflict.turn == DEFAULT_CONFLICT_TURN
    assert set(conflict.replace) == {first_slot}
    assert conflict.replace[first_slot] != scenario.profile.entries[first_slot]


def test_default_conflict_skips_replacements_the_run_matcher_matches() -> None:
    loose = SlotMatcher.parse("token:0.2")
    strict = [SlotMatcher.parse(spec) for spec in ("exact", "token:0.5", "token:0.8")]
    loose_hits_without_filter = 0
    for scenario in generate_scenarios(32, seed=0):
        profile, style_seed = scenario.profile, scenario.style_seed
        for seed in range(20):
            plain = default_conflict(profile, style_seed, random.Random(seed))
            ((slot, new),) = plain.replace.items()
            loose_hits_without_filter += loose.values_match(new, profile.entries[slot])
            filtered = default_conflict(profile, style_seed, random.Random(seed), matcher=loose)
            ((slot, new),) = filtered.replace.items()
            assert not loose.values_match(new, profile.entries[slot])
            # Matchers no looser than token:0.5 keep today's picks.
            for matcher in strict:
                assert default_conflict(
                    profile, style_seed, random.Random(seed), matcher=matcher
                ) == plain
    assert loose_hits_without_filter > 0


def test_conflict_scenarios_embed_a_conflict() -> None:
    scenarios = generate_scenarios(5, seed=7, conflict=True)
    for scenario in scenarios:
        assert scenario.conflict is not None
        assert scenario.conflict.turn == DEFAULT_CONFLICT_TURN
        config = scenario.user_config()
        assert config.conflict is not None


def test_conflict_requires_room_to_recover() -> None:
    with pytest.raises(ConfigError):
        generate_scenarios(2, seed=0, horizon=6, conflict=True)


def test_negative_seed_is_rejected() -> None:
    # random.Random(-1) seeds like random.Random(1).
    with pytest.raises(ConfigError, match="seed"):
        generate_scenarios(2, seed=-1)


@pytest.mark.parametrize("horizon", [0, -3])
def test_horizon_below_one_is_rejected(horizon: int) -> None:
    with pytest.raises(ConfigError, match="horizon"):
        generate_scenarios(2, seed=0, horizon=horizon)


def test_user_config_horizon_override_resets_schedule() -> None:
    scenario = generate_scenarios(1, seed=17)[0]
    config = scenario.user_config(horizon=70)
    assert config.horizon == 70
    # an explicit longer horizon must not inherit the 10-turn schedule.
    state = initial_state(config)
    assert isinstance(config, UserConfig)
    assert len(state.pending) == 10


def test_save_and_load_round_trip(tmp_path: Path) -> None:
    scenarios = generate_scenarios(4, seed=19, conflict=True)
    paths = save_scenarios(scenarios, tmp_path)
    assert len(paths) == 4
    loaded = load_scenarios(tmp_path)
    assert [s.to_payload() for s in loaded] == [s.to_payload() for s in scenarios]
    one = load_scenario(paths[0])
    assert one.to_payload() == scenarios[0].to_payload()


@pytest.mark.parametrize("schedule, reveals", [((), 0), (None, 1)], ids=["empty", "none"])
def test_an_empty_reveal_schedule_stays_explicit_through_save_and_load(
    schedule: tuple[int, ...] | None, reveals: int, tmp_path: Path
) -> None:
    """``[]`` is an explicit schedule, under which turns past its end reveal
    nothing; ``null`` is one reveal per turn."""
    scenario = dataclasses.replace(generate_scenarios(1, seed=19)[0], reveal_schedule=schedule)
    (path,) = save_scenarios([scenario], tmp_path)
    loaded = load_scenario(path)
    assert loaded.reveal_schedule == schedule
    assert loaded.to_payload() == scenario.to_payload()
    assert loaded.user_config().reveal_count(3) == reveals


def test_load_scenarios_rejects_empty_directory(tmp_path: Path) -> None:
    with pytest.raises(ConfigError):
        load_scenarios(tmp_path)


def test_load_scenario_missing_file_raises(tmp_path: Path) -> None:
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_rejects_malformed_payload(tmp_path: Path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario_id": "x"}')
    with pytest.raises(ConfigError):
        load_scenario(bad)
