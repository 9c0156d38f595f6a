from __future__ import annotations

import json
import operator
import random
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialign import user_sim
from dialign.env import AgentAction, DialogueEnv, make_response
from dialign.errors import ConfigError
from dialign.profiles import Profile, SlotSchema, clearly_different
from dialign.scenarios import generate_scenarios
from dialign.user_sim import (
    FIRST_UTTERANCE_TEXT,
    ConflictSpec,
    UserConfig,
    UserState,
    UserUtterance,
    first_utterance,
    initial_state,
    next_utterance,
    reveal_order,
    theoretical_max,
)

_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "dialign" / "data" / "value_pools.json").read_text()
)["aloe"]


def _profile(n: int = 10, rng_seed: int = 0) -> Profile:
    schema = SlotSchema.aloe()
    rng = random.Random(rng_seed)
    entries = {slot: rng.choice(_POOLS[slot]) for slot in schema.slots[:n]}
    return Profile(schema=schema, entries=entries)


def _run_episode(config: UserConfig) -> list[UserUtterance]:
    """Drive the simulator to the horizon and return every utterance."""
    utterances = [first_utterance(config)]
    state = initial_state(config)
    while True:
        step = next_utterance(state, config)
        if step is None:
            break
        utterance, state = step
        utterances.append(utterance)
    return utterances


# --- opening turn --------------------------------------------------------------


def test_first_utterance_is_fixed_greeting_with_no_evidence() -> None:
    config = UserConfig(profile=_profile(), horizon=10)
    opening = first_utterance(config)
    assert opening.text == FIRST_UTTERANCE_TEXT
    assert opening.evidence == ()
    assert opening.turn == 1


def test_no_evidence_at_turn_one_even_if_schedule_asks_for_it() -> None:
    config = UserConfig(profile=_profile(), horizon=5, reveal_schedule=(3, 1, 1, 1, 1))
    opening = first_utterance(config)
    assert opening.evidence == ()


# --- reveal mechanics ------------------------------------------------------------


def test_default_schedule_reveals_one_slot_per_turn_from_turn_two() -> None:
    config = UserConfig(profile=_profile(), horizon=10)
    utterances = _run_episode(config)
    assert len(utterances) == 10
    assert utterances[0].evidence == ()
    for utterance in utterances[1:]:
        assert len(utterance.evidence) == 1


def test_evidence_is_grounded_in_the_profile() -> None:
    profile = _profile()
    config = UserConfig(profile=profile, horizon=10, style_seed=4)
    for utterance in _run_episode(config):
        for slot, value in utterance.evidence:
            assert profile.entries[slot] == value
            assert value in utterance.text


def test_schedule_controls_reveal_counts_and_padding_means_zero() -> None:
    # Two slots at turn 2, none at 3, one at 4; turns past the schedule reveal
    # nothing and fall back to restatement chatter.
    config = UserConfig(
        profile=_profile(), horizon=6, reveal_schedule=(0, 2, 0, 1), style_seed=1
    )
    utterances = _run_episode(config)
    counts = [len(u.evidence) for u in utterances]
    assert counts == [0, 2, 0, 1, 0, 0]
    for utterance in utterances:
        if not utterance.evidence:
            assert utterance.text


def test_reveal_order_is_deterministic_per_style_seed() -> None:
    profile = _profile()
    a = _run_episode(UserConfig(profile=profile, horizon=10, style_seed=7))
    b = _run_episode(UserConfig(profile=profile, horizon=10, style_seed=7))
    c = _run_episode(UserConfig(profile=profile, horizon=10, style_seed=8))
    assert [u.text for u in a] == [u.text for u in b]
    assert [u.evidence for u in a] == [u.evidence for u in b]
    assert [u.evidence for u in a] != [u.evidence for u in c]


def test_each_slot_revealed_at_most_once_without_conflict() -> None:
    config = UserConfig(profile=_profile(), horizon=10, style_seed=3)
    seen: list[str] = []
    for utterance in _run_episode(config):
        seen.extend(slot for slot, _ in utterance.evidence)
    assert len(seen) == len(set(seen))


def test_more_turns_than_slots_yields_chitchat_without_evidence() -> None:
    config = UserConfig(profile=_profile(n=3), horizon=8, style_seed=2)
    utterances = _run_episode(config)
    assert sum(len(u.evidence) for u in utterances) == 3
    tail = utterances[4:]
    assert all(u.evidence == () for u in tail)
    assert all(u.text for u in tail)


def test_episode_stops_exactly_at_horizon() -> None:
    config = UserConfig(profile=_profile(), horizon=4)
    state = initial_state(config)
    for _ in range(3):
        step = next_utterance(state, config)
        assert step is not None
        _, state = step
    assert next_utterance(state, config) is None


# --- validation -------------------------------------------------------------------


def test_config_rejects_bad_horizon_and_empty_profile() -> None:
    with pytest.raises(ConfigError):
        UserConfig(profile=_profile(), horizon=0)
    empty = Profile(schema=SlotSchema.aloe(), entries={})
    with pytest.raises(ConfigError):
        UserConfig(profile=empty, horizon=5)


def test_config_rejects_overlong_or_negative_schedule() -> None:
    with pytest.raises(ConfigError):
        UserConfig(profile=_profile(), horizon=2, reveal_schedule=(1, 1, 1))
    with pytest.raises(ConfigError):
        UserConfig(profile=_profile(), horizon=5, reveal_schedule=(1, -1))


def test_conflict_validation() -> None:
    with pytest.raises(ConfigError):
        ConflictSpec(turn=3, replace={})
    with pytest.raises(ConfigError):
        UserConfig(
            profile=_profile(),
            horizon=5,
            conflict=ConflictSpec(turn=9, replace={"Age": "40"}),
        )
    with pytest.raises(ConfigError):
        UserConfig(
            profile=_profile(),
            horizon=5,
            conflict=ConflictSpec(turn=3, replace={"Nonexistent Slot": "x"}),
        )


def test_conflict_that_keeps_a_value_is_rejected() -> None:
    # Keeping the value would un-reveal a slot the agent still holds correctly,
    # so its recall would exceed the reveal ceiling.
    scenario = generate_scenarios(1, seed=7)[0]
    slot = reveal_order(scenario.profile, scenario.style_seed)[0]
    old = scenario.profile.entries[slot]
    for kept in (old, old.upper(), f"{old} indeed"):
        assert not clearly_different(old, [kept])
        conflict = ConflictSpec(turn=4, replace={slot: kept})
        with pytest.raises(ConfigError) as checked:
            user_sim.check_conflict(scenario.profile, conflict)
        assert str(checked.value) == (
            f"conflict replacement {kept!r} for {slot!r} is not clearly different from {old!r}")
        with pytest.raises(ConfigError) as refused:
            scenario.user_config(conflict=conflict)
        assert str(refused.value) == f"scenario {scenario.scenario_id}: {checked.value}"


# --- conflict mechanics -------------------------------------------------------------


def _conflict_setup(turn: int = 6, style_seed: int = 5) -> tuple[UserConfig, str, str, str]:
    """Build a conflict config targeting the first-revealed slot.

    Returns (config, slot, old value, new value).
    """
    profile = _profile(rng_seed=style_seed)
    probe = UserConfig(profile=profile, horizon=10, style_seed=style_seed)
    state = initial_state(probe)
    slot = state.pending[0]
    old = profile.entries[slot]
    new = next(v for v in _POOLS[slot] if v != old)
    config = UserConfig(
        profile=profile,
        horizon=10,
        conflict=ConflictSpec(turn=turn, replace={slot: new}),
        style_seed=style_seed,
    )
    return config, slot, old, new


def test_conflict_swaps_active_truth_at_the_conflict_turn() -> None:
    config, slot, old, new = _conflict_setup(turn=6)
    state = initial_state(config)
    truths: dict[int, str] = {}
    while True:
        step = next_utterance(state, config)
        if step is None:
            break
        utterance, state = step
        truths[utterance.turn] = state.active_entries[slot]
    assert truths[5] == old
    assert truths[6] == new
    assert truths[10] == new


def test_conflict_remarks_slot_unrevealed_then_rereveals_next_turn() -> None:
    config, slot, old, new = _conflict_setup(turn=6)
    state = initial_state(config)
    reveals: dict[int, tuple] = {}
    while True:
        step = next_utterance(state, config)
        if step is None:
            break
        utterance, state = step
        reveals[utterance.turn] = utterance.evidence
        if utterance.turn == 6:
            assert slot not in [s for s, _ in utterance.evidence]
            assert slot in state.pending
            assert state.pending[0] == slot
    # The replacement value re-surfaces on the turn after the conflict.
    assert reveals[7] == ((slot, new),)


def test_old_value_never_uttered_after_conflict() -> None:
    config, slot, old, new = _conflict_setup(turn=6)
    state = initial_state(config)
    while True:
        step = next_utterance(state, config)
        if step is None:
            break
        utterance, state = step
        if utterance.turn >= 6:
            for s, value in utterance.evidence:
                if s == slot:
                    assert value == new


def test_conflict_at_turn_one_applies_before_any_reveal() -> None:
    profile = _profile(rng_seed=11)
    slot = sorted(profile.entries)[0]
    new = next(v for v in _POOLS[slot] if v != profile.entries[slot])
    config = UserConfig(
        profile=profile,
        horizon=6,
        conflict=ConflictSpec(turn=1, replace={slot: new}),
        style_seed=11,
    )
    state = initial_state(config)
    assert state.active_entries[slot] == new
    for utterance in _run_episode(config):
        for s, value in utterance.evidence:
            if s == slot:
                assert value == new


# --- the walk against its loop form ----------------------------------------------------


def _loop_next_utterance(
    state: UserState, config: UserConfig
) -> tuple[UserUtterance, UserState] | None:
    """``next_utterance`` with its draw written as a loop over ``pending``
    that skips the slots a firing conflict names: the reference for the
    slicing form."""
    if state.turn >= config.horizon:
        return None
    turn = state.turn + 1
    rng = user_sim._turn_rng(config, turn)
    conflict = config.conflict
    fires = conflict is not None and turn == conflict.turn
    excluded = set(conflict.replace) if fires else set()
    budget = config.reveal_count(turn)
    draw: list[str] = []
    for slot in state.pending:
        if len(draw) >= budget:
            break
        if slot not in excluded:
            draw.append(slot)
    revealed, pending = state.revealed, state.pending
    if draw:
        revealed += tuple(draw)
        pending = tuple(s for s in pending if s not in draw)
    interim = UserState(turn, revealed, pending, state.active_entries)
    if fires:
        interim = user_sim._apply_conflict(interim, conflict)
    evidence = tuple((slot, interim.active_entries[slot]) for slot in draw)
    templates = user_sim._TEMPLATES
    sentences = [rng.choice(templates["_conflict"])] if fires else []
    if evidence:
        sentences += [user_sim._render_reveal(slot, value, rng) for slot, value in evidence]
        topic = tuple(slot for slot, _ in evidence)
    elif interim.revealed:
        slot = rng.choice(interim.revealed)
        value = interim.active_entries[slot]
        sentences.append(rng.choice(templates["_restate"]).format(slot=slot.lower(), value=value))
        topic = (slot,)
    else:
        sentences.append(rng.choice(templates["_filler"]))
        topic = ()
    return UserUtterance(" ".join(sentences), evidence, turn, topic), interim


@st.composite
def _walk_configs(draw) -> UserConfig:
    """A profile of 1-10 slots; no schedule, or budgets 0-3 for up to the
    horizon's turns; maybe a conflict at any turn naming any of the slots, so
    that at its turn some are revealed and some pending."""
    profile = _profile(n=draw(st.integers(1, 10)), rng_seed=draw(st.integers(0, 20)))
    horizon = draw(st.integers(2, 14))
    schedule = draw(st.none() | st.lists(st.integers(0, 3), max_size=horizon).map(tuple))
    conflict = None
    if draw(st.booleans()):
        named = draw(st.lists(st.sampled_from(list(profile.entries)), min_size=1, unique=True))
        replace = {slot: f"changed {slot.lower()} {i}" for i, slot in enumerate(named)}
        conflict = ConflictSpec(turn=draw(st.integers(1, horizon)), replace=replace)
    return UserConfig(profile, horizon, schedule, conflict, draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=200, deadline=None)
@given(config=_walk_configs())
def test_the_walk_equals_its_loop_form_turn_by_turn(config: UserConfig) -> None:
    state = expected_state = initial_state(config)
    while True:
        step, expected = next_utterance(state, config), _loop_next_utterance(expected_state, config)
        assert step == expected
        if step is None:
            break
        state, expected_state = step[1], expected[1]
    assert state.turn == config.horizon


@settings(max_examples=200, deadline=None)
@given(config=_walk_configs())
def test_a_turn_that_reveals_nothing_hands_on_its_state_and_seen_values(
    config: UserConfig,
) -> None:
    """On a turn that reveals nothing and fires no conflict, the new state
    holds the previous state's own ``revealed``, ``pending`` and entries
    objects, and the table's view of that turn shares the previous view's
    seen-values mapping."""
    state, views = initial_state(config), config.episode_table.views
    conflict_turn = config.conflict.turn if config.conflict is not None else None
    while (step := next_utterance(state, config)) is not None:
        utterance, following = step
        turn = utterance.turn
        if not utterance.evidence and turn != conflict_turn:
            assert following.revealed is state.revealed
            assert following.pending is state.pending
            assert following.active_entries is state.active_entries
            assert views[turn - 1].seen_values is views[turn - 2].seen_values
        state = following


# --- the cached episode table --------------------------------------------------------


@pytest.mark.parametrize("conflict_turn", [None, 1, 6])
def test_episode_table_equals_a_fresh_walk(conflict_turn: int | None) -> None:
    profile = _profile(rng_seed=5)
    conflict = None
    if conflict_turn is not None:
        slot = reveal_order(profile, 5)[0]
        new = clearly_different(profile.entries[slot], _POOLS[slot])[0]
        conflict = ConflictSpec(turn=conflict_turn, replace={slot: new})
    config = UserConfig(profile=profile, horizon=10, conflict=conflict, style_seed=5)

    utterances = [first_utterance(config)]
    states = [initial_state(config)]
    while (step := next_utterance(states[-1], config)) is not None:
        utterances.append(step[0])
        states.append(step[1])

    table = config.episode_table
    assert len(table.views) == len(states) == 10
    assert [view.latest for view in table.views] == utterances
    assert all(view.schema is profile.schema for view in table.views)
    assert [truth.entries for truth in table.truths] == [s.active_entries for s in states]
    assert all(truth.schema is profile.schema for truth in table.truths)
    # One truth per stretch between swaps: the turns of a stretch share it.
    assert len({id(truth) for truth in table.truths}) == len(
        {id(s.active_entries) for s in states}
    ) == (1 if conflict_turn in (None, 1) else 2)
    assert list(table.ceilings) == [theoretical_max(s, s.active_entries) for s in states]
    # What the judge reads of each row: the utterance's topics, and whether
    # any user turn so far has revealed evidence.
    revealed = list(accumulate((bool(u.evidence) for u in utterances), operator.or_))
    assert [view.latest.topic_slots for view in table.views] == [u.topic_slots for u in utterances]
    assert [bool(view.seen_values) for view in table.views] == revealed
    if conflict_turn is not None:
        before = conflict_turn - 1
        assert [truth.entries[slot] for truth in table.truths] == (
            [profile.entries[slot]] * before + [new] * (10 - before)
        )
    assert table.observations.slot_feats.shape == (10, len(profile.schema.slots), 3)
    assert config.episode_table is table


@settings(max_examples=150, deadline=None)
@given(config=_walk_configs())
def test_every_row_is_judged_revealed_once_any_turn_revealed_evidence(config: UserConfig) -> None:
    """Zero budgets and restated slots make turns that reveal nothing after
    turns that did; a conflict (at turn 1 too) swaps values.  On every row
    the view's seen values are non-empty, and the judge holds an empty
    response uninformative, exactly when some user turn so far revealed evidence."""
    revealed = list(accumulate((bool(u.evidence) for u in _run_episode(config)), operator.or_))
    table, env = config.episode_table, DialogueEnv(config)
    assert len(table.views) == len(revealed)
    env.reset()
    for view, was_revealed in zip(table.views, revealed):
        assert env.view() is view and bool(view.seen_values) == was_revealed
        record = env.step(AgentAction(make_response((), True), Profile(config.profile.schema)))
        assert record.criteria["informativeness"] == int(not was_revealed)
        assert record.dimensions["persona_coherence"] == (0.0 if was_revealed else 1.0)


# --- theoretical max ------------------------------------------------------------------


def test_theoretical_max_tracks_revealed_fraction() -> None:
    profile = _profile()
    config = UserConfig(profile=profile, horizon=10, style_seed=9)
    state = initial_state(config)
    assert theoretical_max(state, profile) == pytest.approx(0.0)
    step = next_utterance(state, config)
    assert step is not None
    _, state = step
    assert theoretical_max(state, profile) == pytest.approx(0.1)
    while (step := next_utterance(state, config)) is not None:
        _, state = step
    # Horizon 10 with one reveal per turn from turn 2 exposes 9 of 10 slots.
    assert theoretical_max(state, profile) == pytest.approx(0.9)


def test_theoretical_max_counts_only_values_matching_current_truth() -> None:
    config, slot, old, new = _conflict_setup(turn=6)
    state = initial_state(config)
    per_turn: dict[int, float] = {}
    while True:
        step = next_utterance(state, config)
        if step is None:
            break
        utterance, state = step
        per_turn[utterance.turn] = theoretical_max(state, state.active_entries)
    # Four slots are revealed by turn 5; the swap makes one stale at turn 6
    # while a fresh slot is revealed, keeping the ceiling at 4/10 until the
    # replacement value re-surfaces at turn 7.
    assert per_turn[5] == pytest.approx(0.4)
    assert per_turn[6] == pytest.approx(0.4)
    assert per_turn[7] > per_turn[6]
    # Re-revealing the swapped slot at turn 7 consumes one reveal budget, so
    # only 8 distinct slots are out by the horizon.
    assert per_turn[10] == pytest.approx(0.8)
