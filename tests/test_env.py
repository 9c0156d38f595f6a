from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialign.env import (
    EPISODE_SCHEMA_VERSION,
    GLOBAL_FEATURE_DIM,
    SLOT_CODE_FEATS,
    UNKNOWN_VALUE,
    AgentAction,
    DialogueEnv,
    EnvView,
    EpisodeRecord,
    EpisodeTable,
    EvidenceOracleAgent,
    RewardBreakdown,
    make_response,
    observation_dim,
    observe,
    read_episodes,
    replay_rewards,
    rollout,
    write_episodes,
)
import dialign.env
from dialign.errors import ConfigError, ProtocolError, SchemaError
from dialign.profiles import (
    MatchTable, Profile, SlotMatcher, SlotSchema, clearly_different, precision_recall,
    profile_reward,
)
from dialign.reward import JudgeContext, judge_counts, response_reward
from dialign.rl import POLICY_DIM, CategoricalSlotPolicy, play
from dialign.scenarios import default_conflict, generate_scenarios
from dialign.user_sim import (
    ConflictSpec, UserConfig, UserUtterance, check_conflict, initial_state, next_utterance,
    reveal_order, theoretical_max,
)

_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "dialign" / "data" / "value_pools.json").read_text()
)["aloe"]


def _profile(n: int = 10, rng_seed: int = 0) -> Profile:
    schema = SlotSchema.aloe()
    rng = random.Random(rng_seed)
    entries = {slot: rng.choice(_POOLS[slot]) for slot in schema.slots[:n]}
    return Profile(schema=schema, entries=entries)


def _env(horizon: int = 10, style_seed: int = 0, conflict: ConflictSpec | None = None) -> DialogueEnv:
    config = UserConfig(
        profile=_profile(rng_seed=style_seed),
        horizon=horizon,
        conflict=conflict,
        style_seed=style_seed,
    )
    return DialogueEnv(config, matcher=SlotMatcher(kind="exact"))


# --- protocol -------------------------------------------------------------------


def test_step_before_reset_raises() -> None:
    env = _env()
    action = AgentAction(
        response=make_response([], continues=True),
        estimate=Profile(schema=SlotSchema.aloe(), entries={}),
    )
    with pytest.raises(ProtocolError):
        env.step(action)


def test_episode_runs_exactly_horizon_steps_then_refuses_more() -> None:
    env = _env(horizon=5)
    env.reset()
    agent = EvidenceOracleAgent()
    steps = 0
    while not env.done:
        action = agent.act(env.view())
        env.step(action)
        steps += 1
    assert steps == 5
    with pytest.raises(ProtocolError):
        env.step(action)


def test_turns_alternate_user_then_agent() -> None:
    env = _env(horizon=6)
    state = env.reset()
    assert state.turn == 1
    assert state.latest.turn == 1
    agent = EvidenceOracleAgent()
    turn = 0
    while not env.done:
        turn += 1
        record = env.step(agent.act(env.view()))
        assert record.turn == turn
        # The user replies after every agent turn except the last.
        if not env.done:
            state = env.view()
            assert state.turn == turn + 1
            assert state.latest.turn == turn + 1
    assert turn == 6


def test_reward_is_computed_before_the_next_user_turn() -> None:
    # The reward for turn t must not depend on evidence from turn t+1: an agent
    # whose estimate copies everything seen so far scores exactly the overlap
    # of already-seen slots.
    env = _env(horizon=4)
    env.reset()
    agent = EvidenceOracleAgent()
    truth_size = len(env.config.profile)
    seen_counts = []
    rewards = []
    while not env.done:
        view = env.view()
        seen_counts.append(len(view.seen_values))
        rewards.append(env.step(agent.act(view)).profile_reward)
    for seen, reward in zip(seen_counts, rewards):
        expected = 2.0 * seen / (seen + truth_size) if seen else 0.0
        assert reward == pytest.approx(expected)


def test_user_side_is_walked_once_per_config(monkeypatch: pytest.MonkeyPatch) -> None:
    walked: list[int] = []
    original = dialign.env.next_utterance

    def counting(state, config):
        walked.append(state.turn)
        return original(state, config)

    monkeypatch.setattr(dialign.env, "next_utterance", counting)
    env = _env(horizon=6, style_seed=1)
    first = rollout(env, EvidenceOracleAgent())
    # One call per turn; the call after turn 6 returns None at the horizon.
    assert walked == [1, 2, 3, 4, 5, 6]
    # A second reset, and a second environment on the same config, replay its table.
    assert rollout(env, EvidenceOracleAgent()).to_json() == first.to_json()
    assert rollout(DialogueEnv(env.config), EvidenceOracleAgent()).to_json() == first.to_json()
    assert walked == [1, 2, 3, 4, 5, 6]


# --- carried-forward turn state ------------------------------------------------------


@given(
    style_seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.integers(min_value=1, max_value=16),
    reveal_schedule=st.one_of(
        st.none(), st.lists(st.integers(min_value=0, max_value=2), max_size=16)
    ),
    conflict_turn=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    conflict_slot=st.sampled_from(["rank 0", "rank 3", "rank 9", "Pet"]),
    open_schema=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_table_ceilings_and_truths_equal_a_plain_walk_of_the_user(
    style_seed: int,
    horizon: int,
    reveal_schedule: list[int] | None,
    conflict_turn: int | None,
    conflict_slot: str,
    open_schema: bool,
) -> None:
    profile = _profile(rng_seed=style_seed % 1000)
    if open_schema:
        schema = SlotSchema(name="open", slots=tuple(profile.entries), open_schema=True)
        profile = Profile(schema=schema, entries=dict(profile.entries))
    conflict = None
    if conflict_turn is not None and (open_schema or conflict_slot != "Pet"):
        # On an open schema, "Pet" is a slot the swap adds to the truth.
        slot = conflict_slot
        if slot.startswith("rank "):
            slot = reveal_order(profile, style_seed)[int(slot[5:])]
        old = profile.entries.get(slot, "")
        new = clearly_different(old, _POOLS.get(slot, ["a cat"]))[0]
        conflict = ConflictSpec(turn=min(conflict_turn, horizon), replace={slot: new})
    config = UserConfig(
        profile=profile,
        horizon=horizon,
        reveal_schedule=None if reveal_schedule is None else tuple(reveal_schedule[:horizon]),
        conflict=conflict,
        style_seed=style_seed,
    )
    table = EpisodeTable.build(config)
    user = initial_state(config)
    ceilings, truths = [], []
    while True:
        ceilings.append(theoretical_max(user, user.active_entries))
        truths.append(user.active_entries)
        step = next_utterance(user, config)
        if step is None:
            break
        user = step[1]
    assert table.ceilings == tuple(ceilings)
    assert [truth.entries for truth in table.truths] == truths


class _RebuildingOracle:
    """The evidence oracle as a fresh ``Profile`` every turn: the reference
    for ``EvidenceOracleAgent``, which carries its estimate forward."""

    def act(self, view: EnvView) -> AgentAction:
        seen = view.seen_values
        addressed = [(t, seen[t]) for t in view.latest.topic_slots if t in seen][:1]
        if not addressed and seen:
            slot = next(iter(seen))
            addressed = [(slot, seen[slot])]
        return AgentAction(
            response=make_response(addressed, continues=True),
            estimate=Profile(schema=view.schema, entries=dict(seen)),
        )


@pytest.mark.parametrize("matcher_spec", ["exact", "token:0.5"])
@pytest.mark.parametrize("conflict_turn", [None, 6, 150])
@pytest.mark.parametrize("horizon", [2, 12, 300])
def test_oracle_records_equal_those_of_an_oracle_rebuilding_its_estimate(
    horizon: int, conflict_turn: int | None, matcher_spec: str
) -> None:
    matcher = SlotMatcher.parse(matcher_spec)
    for scenario in generate_scenarios(2, seed=horizon):
        conflict = None
        if conflict_turn is not None:
            # From turn 12 on nothing is left to reveal, so a swap there keeps
            # the estimate object while the truth changes.
            spec = default_conflict(scenario.profile, scenario.style_seed, random.Random(1),
                                    matcher=matcher)
            conflict = ConflictSpec(turn=min(conflict_turn, horizon), replace=spec.replace)
        env = DialogueEnv(scenario.user_config(horizon=horizon, conflict=conflict), matcher)
        expected = rollout(env, _RebuildingOracle(), scenario.scenario_id).to_json()
        agent = EvidenceOracleAgent()
        assert rollout(env, agent, scenario.scenario_id).to_json() == expected
        # The same agent and environment replay the episode unchanged.
        assert rollout(env, agent, scenario.scenario_id).to_json() == expected


class _FixedEstimateAgent:
    """Returns one ``Profile`` object on every turn."""

    def __init__(self, estimate: Profile) -> None:
        self.estimate = estimate

    def act(self, view: EnvView) -> AgentAction:
        return AgentAction(make_response([], continues=True), self.estimate)


@pytest.mark.parametrize("matcher_spec", ["exact", "token:0.5"])
@pytest.mark.parametrize("conflict_turn", [1, 2, 6, 11, 12])
def test_one_estimate_object_is_scored_against_the_truth_of_each_turn(
    conflict_turn: int, matcher_spec: str
) -> None:
    profile, matcher = _profile(rng_seed=5), SlotMatcher.parse(matcher_spec)
    slot = reveal_order(profile, 5)[0]
    old = profile.entries[slot]
    new = clearly_different(old, _POOLS[slot], matcher)[0]
    conflict = ConflictSpec(turn=conflict_turn, replace={slot: new})
    env = DialogueEnv(
        UserConfig(profile=profile, horizon=12, conflict=conflict, style_seed=5), matcher
    )
    schema = env.schema
    estimates = [profile, Profile(schema=schema, entries={slot: new}),
                 Profile(schema=schema, entries={slot: old, "Others": "unknown"})]
    swapped = Profile(schema=schema, entries={**profile.entries, slot: new})
    for estimate in estimates:
        record = rollout(env, _FixedEstimateAgent(estimate))
        rewards = [t.profile_reward for t in record.turns]
        truths = [swapped if t.turn >= conflict_turn else profile for t in record.turns]
        assert rewards == [profile_reward(estimate, truth, matcher) for truth in truths]
        assert len(set(rewards)) == 2 or conflict_turn == 1


# --- reward bookkeeping ------------------------------------------------------------


def test_breakdown_total_is_exact_sum() -> None:
    verdicts = dict(criteria={}, dimensions={}, aligned=False)
    breakdown = RewardBreakdown(profile=0.25, response=1.0, total=1.25, **verdicts)
    assert breakdown.total == breakdown.profile + breakdown.response
    with pytest.raises(ValueError):
        RewardBreakdown(profile=0.25, response=1.0, total=1.0, **verdicts)


def test_oracle_agent_profile_curve_matches_closed_form() -> None:
    # With one reveal per turn from turn 2, the oracle estimate holds t-1 slots
    # at turn t, giving F1 = 2(t-1) / ((t-1) + 10).
    env = _env(horizon=10)
    env.reset()
    agent = EvidenceOracleAgent()
    profile_rewards = []
    while not env.done:
        profile_rewards.append(env.step(agent.act(env.view())).profile_reward)
    expected = [2.0 * k / (k + 10.0) if k else 0.0 for k in range(10)]
    assert profile_rewards == pytest.approx(expected)


def test_oracle_agent_earns_full_response_reward() -> None:
    env = _env(horizon=8)
    env.reset()
    agent = EvidenceOracleAgent()
    while not env.done:
        record = env.step(agent.act(env.view()))
        assert record.response_reward == 1.0
        assert list(record.criteria.values()) == [1] * 5


# --- observations -------------------------------------------------------------------


def test_observation_layout_and_dim() -> None:
    env = _env(horizon=10)
    state = env.reset()
    obs = observe([state], env.schema, env.config.horizon)
    assert obs.slot_feats.shape == (1, 10, 3)
    assert obs.global_feats.shape == (1, 2)
    assert obs.flat().shape == (1, observation_dim(10))
    # Turn 1: bias on, nothing seen, greeting has no topic.
    assert obs.slot_feats[0, :, 0].tolist() == [1.0] * 10
    assert obs.slot_feats[0, :, 1:].sum() == 0.0
    assert obs.global_feats[0, 0] == 1.0
    assert obs.global_feats[0, 1] == pytest.approx(0.1)
    stack = env.config.episode_table.observations
    assert stack.slot_feats.shape == (10, 10, 3)
    assert stack.flat().shape == (10, observation_dim(10))
    assert stack.flat()[0].tolist() == obs.flat()[0].tolist()


def test_observation_tracks_seen_and_topic_flags() -> None:
    env = _env(horizon=10)
    env.reset()
    agent = EvidenceOracleAgent()
    env.step(agent.act(env.view()))
    view = env.view()
    obs = env.config.episode_table.observations
    seen_flags = obs.slot_feats[view.turn - 1, :, 1]
    topic_flags = obs.slot_feats[view.turn - 1, :, 2]
    assert seen_flags.sum() == 1.0
    assert topic_flags.sum() == 1.0
    revealed_slot = next(iter(view.seen_values))
    idx = env.schema.slots.index(revealed_slot)
    assert seen_flags[idx] == 1.0


def _reference_observe(states, schema: SlotSchema, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The stack built from one (bias, seen, topic) tuple per state and slot."""
    names = tuple(schema.slots)
    rows = []
    for state in states:
        seen = state.seen_values
        topics = set(state.latest.topic_slots) if state.latest is not None else set()
        rows.append([(1.0, float(slot in seen), float(slot in topics)) for slot in names])
    slot_feats = np.array(rows).reshape(len(states), len(names), 3)
    global_feats = np.array([(1.0, state.turn / float(horizon)) for state in states])
    return slot_feats, global_feats


_NAMES = ("Age", "City", "Diet", "Hobby", "Job", "Pet", "Sport", "Music")


@st.composite
def _state_stacks(draw) -> tuple[list[EnvView], SlotSchema, int]:
    """A dialogue walked one user turn at a time from the state with no
    utterance, with evidence and topics for slots in and outside the schema;
    the stack lists its states in any order, repeats included."""
    slots = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=6, unique=True))
    schema = SlotSchema(name="s", slots=tuple(slots), open_schema=draw(st.booleans()))
    names = st.sampled_from(_NAMES + ("Outside", "Other"))
    walk = [EnvView(schema)]
    for turn in range(1, draw(st.integers(0, 30)) + 1):
        evidence = draw(st.lists(st.tuples(names, st.sampled_from(["a", "b"])), max_size=3))
        topics = draw(st.lists(names, max_size=2, unique=True))
        walk.append(walk[-1].with_user_turn(
            UserUtterance(text=f"u{turn}", evidence=tuple(evidence), turn=turn,
                          topic_slots=tuple(topics))
        ))
    order = draw(st.one_of(
        st.just(list(range(len(walk)))),
        st.lists(st.integers(0, len(walk) - 1), min_size=1, max_size=40),
    ))
    return [walk[i] for i in order], schema, draw(st.integers(1, 60))


@settings(max_examples=100, deadline=None)
@given(case=_state_stacks())
def test_observe_equals_the_tuple_list_construction(case) -> None:
    states, schema, horizon = case
    obs = observe(states, schema, horizon)
    slot_feats, global_feats = _reference_observe(states, schema, horizon)
    for got, want in ((obs.slot_feats, slot_feats), (obs.global_feats, global_feats)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def _observed_configs(draw) -> UserConfig:
    """A generated scenario's config, with or without a conflict swap, under
    its closed or open schema or under an open schema that keeps only some
    of the profile's slots, so evidence and topics also fall outside it."""
    horizon = draw(st.integers(1, 24))
    (scenario,) = generate_scenarios(1, seed=draw(st.integers(0, 2**16)), horizon=horizon,
                                     extended=draw(st.booleans()))
    profile = scenario.profile
    if draw(st.booleans()):
        kept = draw(st.lists(st.sampled_from(profile.schema.slots), min_size=1, unique=True))
        profile = Profile(SlotSchema("part", tuple(kept), open_schema=True), dict(profile.entries))
    conflict = None
    if draw(st.booleans()):
        turn = draw(st.integers(1, horizon))
        conflict = default_conflict(profile, scenario.style_seed, random.Random(0), turn=turn)
    return UserConfig(profile, horizon, conflict=conflict, style_seed=scenario.style_seed)


@settings(max_examples=80, deadline=None)
@given(config=_observed_configs())
def test_observe_writes_each_slots_code_and_its_feature_row(config: UserConfig) -> None:
    """Each slot's code is 2 * seen + topic, from the state with no utterance
    and the opening turn (which has no topic) to the last turn, and its
    features, in ``slot_feats`` and ``flat``, are its ``SLOT_CODE_FEATS`` row.
    The table's stack, made on first read and kept, is ``observe`` of its
    views, and read-only."""
    table = config.episode_table
    states = [EnvView(config.profile.schema), *table.views]
    assert not states[1].latest.topic_slots
    schema = config.profile.schema
    expected = [
        [2 * (slot in state.seen_values)
         + (state.latest is not None and slot in state.latest.topic_slots)
         for slot in schema.slots]
        for state in states
    ]
    obs = observe(states, schema, config.horizon)
    assert obs.codes.dtype == np.uint8 and obs.codes.tolist() == expected
    assert table.observations.codes.tolist() == expected[1:]
    stack, fresh = table.observations, observe(table.views, schema, config.horizon)
    assert stack.global_feats.tobytes() == fresh.global_feats.tobytes()
    assert not stack.codes.flags.writeable and not stack.global_feats.flags.writeable
    assert table.observations is stack
    rows = np.array([[SLOT_CODE_FEATS[code] for code in codes] for codes in expected])
    assert obs.slot_feats.tobytes() == rows.tobytes()
    assert obs.flat()[:, GLOBAL_FEATURE_DIM:].tobytes() == rows.reshape(len(states), -1).tobytes()


# --- conflict handling ----------------------------------------------------------------


def _conflict_env(style_seed: int = 3) -> tuple[DialogueEnv, str, str, str]:
    profile = _profile(rng_seed=style_seed)
    probe = UserConfig(profile=profile, horizon=10, style_seed=style_seed)
    slot = initial_state(probe).pending[0]
    old = profile.entries[slot]
    new = next(v for v in _POOLS[slot] if v != old)
    config = UserConfig(
        profile=profile,
        horizon=10,
        conflict=ConflictSpec(turn=6, replace={slot: new}),
        style_seed=style_seed,
    )
    return DialogueEnv(config, matcher=SlotMatcher(kind="exact")), slot, old, new


def test_effective_truth_switches_at_conflict_turn() -> None:
    env, slot, old, new = _conflict_env()
    env.reset()
    agent = EvidenceOracleAgent()
    truth_by_turn: dict[int, str] = {}
    while not env.done:
        view = env.view()
        truth_by_turn[view.turn] = env.config.episode_table.truths[view.turn - 1].entries[slot]
        env.step(agent.act(view))
    assert truth_by_turn[5] == old
    assert truth_by_turn[6] == new
    assert truth_by_turn[10] == new


def test_oracle_profile_reward_dips_at_conflict_and_recovers() -> None:
    env, slot, old, new = _conflict_env()
    env.reset()
    agent = EvidenceOracleAgent()
    by_turn: dict[int, float] = {}
    while not env.done:
        record = env.step(agent.act(env.view()))
        by_turn[record.turn] = record.profile_reward
    assert by_turn[6] < by_turn[5]
    assert by_turn[10] > by_turn[6]


# --- records and replay ------------------------------------------------------------------


def test_rollout_produces_a_replayable_record(tmp_path: Path) -> None:
    env = _env(horizon=10, style_seed=6)
    record = rollout(env, EvidenceOracleAgent(), scenario_id="ep-6")
    assert record.scenario_id == "ep-6"
    assert record.schema_version == EPISODE_SCHEMA_VERSION
    assert len(record.turns) == 10

    replayed = replay_rewards(record, SlotMatcher(kind="exact"))
    for turn, breakdown in zip(record.turns, replayed):
        assert breakdown.profile == turn.profile_reward
        assert breakdown.response == turn.response_reward
        assert breakdown.total == turn.total_reward


class _RandomAgent:
    """Acts at random: blind and stale guesses, unsupported claims, random engagement."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def _value(self, slot: str, view: EnvView) -> str:
        options = [UNKNOWN_VALUE, self.rng.choice(_POOLS[slot])]
        if slot in view.seen_values:
            options.append(view.seen_values[slot])
        return self.rng.choice(options)

    def act(self, view: EnvView) -> AgentAction:
        rng = self.rng
        entries = {
            slot: self._value(slot, view) for slot in view.schema.slots if rng.random() < 0.6
        }
        addressed = []
        for _ in range(rng.randint(0, 2)):
            if entries and rng.random() < 0.7:
                addressed.append(rng.choice(sorted(entries.items())))
            else:
                slot = rng.choice(view.schema.slots)
                addressed.append((slot, self._value(slot, view)))
        return AgentAction(
            response=make_response(addressed, continues=rng.random() < 0.8),
            estimate=Profile(schema=view.schema, entries=entries),
        )


class _SometimesRepeatingAgent(_RandomAgent):
    """A random agent that now and then keeps its previous estimate object."""

    _last: Profile | None = None

    def act(self, view: EnvView) -> AgentAction:
        action = super().act(view)
        if self._last is not None and self.rng.random() < 0.3:
            action = AgentAction(action.response, self._last)
        self._last = action.estimate
        return action


@given(
    scenario_seed=st.integers(min_value=0, max_value=2**31 - 1),
    agent_seed=st.integers(min_value=0, max_value=2**31 - 1),
    conflict_turn=st.integers(min_value=2, max_value=10),
    matcher_spec=st.sampled_from(["exact", "token:0.5"]),
)
@settings(max_examples=60, deadline=None)
def test_step_records_the_scores_turn_scores_gives(
    scenario_seed: int, agent_seed: int, conflict_turn: int, matcher_spec: str
) -> None:
    matcher = SlotMatcher.parse(matcher_spec)
    (scenario,) = generate_scenarios(1, seed=scenario_seed)
    swap = default_conflict(scenario.profile, scenario.style_seed, random.Random(agent_seed),
                            matcher=matcher)
    config = scenario.user_config(conflict=ConflictSpec(turn=conflict_turn, replace=swap.replace))
    env, agent = DialogueEnv(config, matcher), _SometimesRepeatingAgent(agent_seed)
    table = config.episode_table
    assert table.truths[conflict_turn - 1] is not table.truths[conflict_turn - 2]
    env.reset()
    while not env.done:
        index = env.view().turn - 1
        action = agent.act(env.view())
        record = env.step(action)
        profile, response, criteria, dimensions, aligned = dialign.env._turn_scores(
            action.response, action.estimate, table.views[index],
            MatchTable(table.truths[index], matcher),
        )
        assert (record.profile_reward, record.response_reward, record.total_reward,
                record.criteria, record.dimensions, record.aligned) == (
            profile, response, profile + response, criteria, dimensions, aligned,
        )


def _value_variants(value: str) -> list[str]:
    """Case, whitespace, punctuation and token variants of a value."""
    tokens = value.split()
    return [value, value.upper(), f"  {value}\t", f"{value}.", " ".join(reversed(tokens)),
            tokens[0], f"{value} indeed", f"{tokens[-1]} {value}"]


@given(
    scenario_seed=st.integers(min_value=0, max_value=2**31 - 1),
    agent_seed=st.integers(min_value=0, max_value=2**31 - 1),
    conflict_turn=st.integers(min_value=2, max_value=10),
    specs=st.lists(st.sampled_from(["exact", "token:0.5", "token:0.2"]), min_size=2, max_size=2,
                   unique=True),
    texts=st.lists(st.text(min_size=1, max_size=12).filter(str.strip), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_step_profile_reward_equals_profile_reward_without_the_match_tables(
    scenario_seed: int, agent_seed: int, conflict_turn: int, specs: list[str], texts: list[str]
) -> None:
    """Two environments of different matchers step through one config, so
    they share its ``EpisodeTable``; every estimate scores as a plain
    ``profile_reward`` against the row's truth, across a conflict swap."""
    matchers = [SlotMatcher.parse(spec) for spec in specs]
    (scenario,) = generate_scenarios(1, seed=scenario_seed)
    # The loosest matcher's swap is clearly different under every matcher.
    swap = default_conflict(scenario.profile, scenario.style_seed, random.Random(agent_seed),
                            matcher=SlotMatcher(kind="token", threshold=0.2))
    config = scenario.user_config(conflict=ConflictSpec(turn=conflict_turn, replace=swap.replace))
    table = config.episode_table
    envs = [DialogueEnv(config, matcher) for matcher in matchers]
    rng = random.Random(agent_seed)
    slots = config.profile.schema.slots
    truth_values = [*config.profile.entries.items(), *swap.replace.items()]
    pools = {slot: [UNKNOWN_VALUE, *texts] for slot in slots}
    for slot, value in truth_values:
        pools[slot] += _value_variants(value)
    last: Profile | None = None
    for env in envs:
        env.reset()
    while not envs[0].done:
        view = envs[0].view()
        truth = table.truths[view.turn - 1]
        for env in rng.sample(envs, len(envs)):
            if last is not None and rng.random() < 0.2:
                estimate = last
            else:
                seen = view.seen_values
                entries = {slot: rng.choice(pools[slot] + [seen[slot]] if slot in seen
                                            else pools[slot])
                           for slot in slots if rng.random() < 0.7}
                estimate = Profile(view.schema, entries)
            record = env.step(AgentAction(make_response([], True), estimate))
            assert record.profile_reward == profile_reward(estimate, truth, env.matcher)
            last = estimate


def test_match_tables_are_kept_per_matcher_and_shared_per_truth() -> None:
    env, *_ = _conflict_env()
    table = env.config.episode_table
    exact = table.match_tables(SlotMatcher(kind="exact"))
    token = table.match_tables(SlotMatcher(kind="token", threshold=0.5))
    assert exact is table.match_tables(SlotMatcher(kind="exact")) and exact is env._matches
    assert all(a is not b for a, b in zip(exact, token))
    assert [a is b for a, b in zip(exact, exact[1:])] == [
        t is u for t, u in zip(table.truths, table.truths[1:])]


def test_policy_match_tables_hold_only_seen_values_and_the_placeholder() -> None:
    """The size bound of the match tables: a policy agent only submits its
    seen values and the placeholder."""
    scenario = generate_scenarios(1, seed=5)[0]
    config = scenario.user_config(horizon=12)
    env = DialogueEnv(config, SlotMatcher(kind="exact"))
    play(CategoricalSlotPolicy(10), [("episode", env)] * 4, [[5, e] for e in range(4)])
    seen = {(slot, value) for view in config.episode_table.views
            for slot, value in view.seen_values.items()}
    allowed = seen | {(slot, UNKNOWN_VALUE) for slot in config.profile.schema.slots}
    for matches in env._matches:
        assert matches and set(matches) <= allowed


def test_step_raises_pair_then_empty_truth_then_schema_errors() -> None:
    env = _env()
    other = SlotSchema(name="other", slots=("Age",))
    estimate = Profile(schema=env.schema, entries={"Age": "34"})
    bad, good = make_response([("Age", " ")], True), make_response([], True)
    table = env._table
    env._table = dataclasses.replace(table, truths=(Profile(schema=other),) * len(table.truths))
    env._matches = env._table.match_tables(env.matcher)
    for response, error, message in (
        (bad, ValueError, "addressed value for 'Age' must be non-empty text"),
        (good, ValueError, "truth profile must be non-empty"),
    ):
        env.reset()
        with pytest.raises(error, match=message):
            env.step(AgentAction(response, estimate))
    other_truth = Profile(schema=other, entries={"Age": "34"})
    env._table = dataclasses.replace(table, truths=(other_truth,) * len(table.truths))
    env._matches = env._table.match_tables(env.matcher)
    env.reset()
    with pytest.raises(SchemaError, match="schema mismatch: 'aloe' vs 'other'"):
        env.step(AgentAction(good, estimate))


@given(
    style_seed=st.integers(min_value=0, max_value=2**31 - 1),
    agent_seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.integers(min_value=1, max_value=14),
    reveal_schedule=st.one_of(
        st.none(), st.lists(st.integers(min_value=0, max_value=2), max_size=14)
    ),
    conflict_turn=st.one_of(st.none(), st.integers(min_value=1, max_value=14)),
    conflict_rank=st.integers(min_value=0, max_value=9),
    matcher_spec=st.sampled_from(["exact", "token:0.5"]),
)
# The turn-3 swap un-reveals the one slot revealed so far, so turns 3-5 have no
# topic after evidence was revealed; at turns 4 and 5 this agent addresses
# nothing and continues, so only the carried evidence flag fails the turn.
@example(
    style_seed=2,
    agent_seed=0,
    horizon=5,
    reveal_schedule=[0, 1, 0, 0, 0],
    conflict_turn=3,
    conflict_rank=0,
    matcher_spec="exact",
)
@settings(max_examples=80, deadline=None)
def test_replay_reproduces_logged_rewards_of_a_random_agent(
    style_seed: int,
    agent_seed: int,
    horizon: int,
    reveal_schedule: list[int] | None,
    conflict_turn: int | None,
    conflict_rank: int,
    matcher_spec: str,
) -> None:
    profile = _profile(rng_seed=style_seed % 1000)
    conflict = None
    if conflict_turn is not None:
        # The swap hits the slot the user reveals conflict_rank-th.
        slot = reveal_order(profile, style_seed)[conflict_rank]
        new = next(v for v in _POOLS[slot] if v != profile.entries[slot])
        conflict = ConflictSpec(turn=min(conflict_turn, horizon), replace={slot: new})
    config = UserConfig(
        profile=profile,
        horizon=horizon,
        reveal_schedule=None if reveal_schedule is None else tuple(reveal_schedule[:horizon]),
        conflict=conflict,
        style_seed=style_seed,
    )
    env = DialogueEnv(config, matcher=SlotMatcher.parse(matcher_spec))
    record = rollout(env, _RandomAgent(agent_seed), scenario_id="random")
    logged = _logged(record)
    assert replay_rewards(record) == logged
    assert replay_rewards(EpisodeRecord.from_json(record.to_json())) == logged


def _logged(record: EpisodeRecord) -> list[RewardBreakdown]:
    """Every turn's logged rewards and verdicts, in the shape replay returns."""
    return [
        RewardBreakdown(
            t.profile_reward, t.response_reward, t.total_reward, t.criteria, t.dimensions,
            t.aligned,
        )
        for t in record.turns
    ]


def _episode_records(
    kind: str, env: DialogueEnv, seed: int, scenario_id: str = "episode", count: int = 4
) -> list[EpisodeRecord]:
    """``count`` episodes of ``kind`` agents in ``env``; the oracle plays one."""
    if kind == "oracle":
        return [rollout(env, EvidenceOracleAgent(), scenario_id)]
    if kind == "random":
        return [rollout(env, _RandomAgent(seed + k), scenario_id) for k in range(count)]
    policy = CategoricalSlotPolicy(len(env.schema.slots), random.Random(seed).choices(
        [-2.0, -0.5, 0.0, 0.5, 2.0], k=POLICY_DIM
    ))
    return play(policy, [(scenario_id, env)] * count, [[seed, k] for k in range(count)])[2]


@pytest.mark.parametrize("matcher_spec", ["exact", "token:0.5"])
@pytest.mark.parametrize("with_conflict", [False, True])
@pytest.mark.parametrize("kind", ["oracle", "random", "policy"])
def test_replay_reproduces_every_logged_turn_and_catches_tampering(
    kind: str, with_conflict: bool, matcher_spec: str
) -> None:
    matcher = SlotMatcher.parse(matcher_spec)
    rng = random.Random(29)
    for scenario in generate_scenarios(3, seed=29):
        conflict = None
        if with_conflict:
            conflict = default_conflict(scenario.profile, scenario.style_seed, rng, matcher=matcher)
        env = DialogueEnv(scenario.user_config(conflict=conflict), matcher=matcher)
        for record in _episode_records(kind, env, scenario.style_seed, scenario.scenario_id):
            assert replay_rewards(record) == _logged(record)
            line = record.to_json()
            assert replay_rewards(EpisodeRecord.from_json(line)) == _logged(record)

            turn = rng.randrange(len(record.turns))
            criterion = rng.choice(sorted(record.turns[turn].criteria))
            for field, change in (
                ("criteria", lambda t: {**t["criteria"], criterion: 1 - t["criteria"][criterion]}),
                ("aligned", lambda t: not t["aligned"]),
            ):
                payload = json.loads(line)
                payload["turns"][turn][field] = change(payload["turns"][turn])
                tampered = EpisodeRecord.from_json(json.dumps(payload))
                assert replay_rewards(tampered) != _logged(tampered)


class _EvidenceSubsetAgent:
    """Evidence-only agent that keeps a random subset of the seen values."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def act(self, view: EnvView) -> AgentAction:
        entries = {s: v for s, v in view.seen_values.items() if self.rng.random() < 0.5}
        return AgentAction(
            response=make_response([], continues=True),
            estimate=Profile(schema=view.schema, entries=entries),
        )


@given(
    scenario_seed=st.integers(min_value=0, max_value=2**31 - 1),
    agent_seed=st.integers(min_value=0, max_value=2**31 - 1),
    conflict_turn=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    conflict_rank=st.integers(min_value=0, max_value=9),
    replacement=st.integers(min_value=0, max_value=63),
    matcher_spec=st.one_of(
        st.just("exact"),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(lambda t: f"token:{t:g}"),
    ),
)
# 'outgoing and spontaneous' -> 'introverted and careful' is clearly different
# (Jaccard 0.2), but token:0.2 still matches the stale value at turn 6 (recall
# 0.5, ceiling 0.4), so the environment must refuse the pair.
@example(
    scenario_seed=103,
    agent_seed=0,
    conflict_turn=6,
    conflict_rank=3,
    replacement=1,
    matcher_spec="token:0.2",
)
# A turn-4 conflict that keeps the first revealed slot's value: the oracle
# still holds it while the slot is un-revealed (recall 0.3, ceiling 0.2).
@example(
    scenario_seed=7,
    agent_seed=0,
    conflict_turn=4,
    conflict_rank=0,
    replacement=0,
    matcher_spec="exact",
)
@settings(max_examples=60, deadline=None)
def test_evidence_only_agents_never_exceed_the_reveal_ceiling(
    scenario_seed: int,
    agent_seed: int,
    conflict_turn: int | None,
    conflict_rank: int,
    replacement: int,
    matcher_spec: str,
) -> None:
    scenario = generate_scenarios(1, seed=scenario_seed)[0]
    conflict = None
    if conflict_turn is not None:
        slot = reveal_order(scenario.profile, scenario.style_seed)[conflict_rank]
        old = scenario.profile.entries[slot]
        # Option 0 keeps the old value.
        options = [old] + _POOLS[slot]
        new = options[replacement % len(options)]
        conflict = ConflictSpec(turn=conflict_turn, replace={slot: new})
    try:
        config = scenario.user_config(conflict=conflict)
    except ConfigError:
        assert conflict is not None and not clearly_different(old, [new])
        return
    matcher = SlotMatcher.parse(matcher_spec)
    try:
        env = DialogueEnv(config, matcher=matcher)
    except ConfigError:
        assert conflict is not None and matcher.values_match(new, old)
        return
    schema = scenario.profile.schema
    for agent in (EvidenceOracleAgent(), _EvidenceSubsetAgent(agent_seed)):
        record = rollout(env, agent)
        for t in record.turns:
            truth = scenario.profile
            if conflict is not None and t.turn >= conflict_turn:
                truth = Profile(schema=schema, entries={**truth.entries, slot: new})
            _, recall = precision_recall(Profile(schema=schema, entries=t.estimate), truth, matcher)
            assert recall <= t.theoretical_max + 1e-12


def test_env_refuses_a_conflict_its_matcher_matches_to_the_old_value() -> None:
    """Only the looser token:0.2 matches the replacement to the old value, so
    the config passes the conflict check and the environment refuses through it."""
    scenario = generate_scenarios(16, seed=0, conflict=True)[11]
    config = scenario.user_config()
    assert config.conflict.replace == {"Personality Traits": "introverted and careful"}
    for spec in ("exact", "token:0.5", "token:0.21"):
        DialogueEnv(config, matcher=SlotMatcher.parse(spec))
    loose = SlotMatcher.parse("token:0.2")
    with pytest.raises(ConfigError) as refused:
        DialogueEnv(config, matcher=loose)
    assert str(refused.value) == (
        "conflict replacement 'introverted and careful' for 'Personality Traits' is not clearly "
        "different from 'outgoing and spontaneous' under matcher token:0.2")
    with pytest.raises(ConfigError) as checked:
        check_conflict(config.profile, config.conflict, loose)
    assert str(checked.value) == str(refused.value)


def test_written_episodes_equal_json_dumps_of_each_record(tmp_path: Path) -> None:
    env, slot, _, _ = _conflict_env()
    records = [rollout(env, EvidenceOracleAgent(), scenario_id=f"é-{i}") for i in range(2)]
    record = records[0]
    record.truth[slot] = "naïve 東京 “quoted”"
    shared = record.turns[0].criteria
    for turn in record.turns[1:4]:
        turn.criteria = shared
        turn.user_text = "café — ☕"
    assert record.conflict is not None
    path = tmp_path / "episodes.jsonl"
    write_episodes(records, path)
    expected = ""
    for r in records:
        payload = {"schema_version": r.schema_version, **vars(r)}
        payload["turns"] = [vars(t) for t in r.turns]
        expected += json.dumps(payload) + "\n"
    assert path.read_bytes() == expected.encode()
    assert [r.to_json() for r in records] == expected.splitlines()


def test_episode_json_round_trip(tmp_path: Path) -> None:
    env = _env(horizon=5, style_seed=2)
    record = rollout(env, EvidenceOracleAgent(), scenario_id="rt")
    path = tmp_path / "episodes.jsonl"
    write_episodes([record, record], path)
    loaded = list(read_episodes(path))
    assert len(loaded) == 2
    assert loaded[0].to_json() == record.to_json()
    assert loaded[0].turns[-1].estimate == record.turns[-1].estimate


def test_record_match_tables_share_one_table_per_side_of_the_conflict_swap() -> None:
    env, slot, old, new = _conflict_env(style_seed=4)
    record = rollout(env, EvidenceOracleAgent(), scenario_id="conf")
    assert record.conflict is not None and record.conflict["turn"] == 6
    tables = record.match_tables(env.matcher)
    assert len(tables) == len(record.turns) == 10
    before, after = tables[0], tables[5]
    assert all(t is before for t in tables[:5]) and all(t is after for t in tables[5:])
    assert before.truth.entries == record.truth and before.truth.entries[slot] == old
    assert after.truth.entries == {**record.truth, slot: new}
    assert before.matcher == after.matcher == env.matcher
    # A swapped truth the schema refuses is built, and refused, only when a
    # logged turn reaches the swap; replay_rewards reads the same tables.
    bad = dataclasses.replace(record, conflict={"turn": 6, "replace": {"Pets": "a cat"}})
    with pytest.raises(SchemaError, match="'Pets'"):
        bad.match_tables(env.matcher)
    short = dataclasses.replace(bad, turns=record.turns[:5])
    first, *rest = short.match_tables(env.matcher)
    assert all(t is first for t in rest) and first.truth.entries == record.truth
    assert replay_rewards(short) == _logged(short)


def _rendered_text(addressed, continues) -> str:
    """The response text, rendered part by part."""
    parts = [f"Since your {slot.lower()} is {value}, I'll take that into account."
             for slot, value in addressed] or ["Noted, thanks for sharing."]
    if continues:
        parts.append("What else should I know about you?")
    return " ".join(parts)


@pytest.mark.parametrize("continues", [True, False, 1, 0, 2, "yes", "", None])
@pytest.mark.parametrize("addressed", [[], (), [("Age", "34")], (("Age", "34"), ("Pets", "a cat"))])
def test_make_response_renders_its_text_and_keeps_continues_as_passed(
    addressed, continues
) -> None:
    response = make_response(addressed, continues)
    assert response.text == _rendered_text(addressed, continues)
    assert response.continues is continues
    assert response.addressed_slots == tuple(addressed)


def test_make_response_text_mentions_addressed_values() -> None:
    response = make_response([("Age", "34")], continues=True)
    assert "34" in response.text
    assert response.addressed_slots == (("Age", "34"),)
    assert response.continues
    closing = make_response([], continues=False)
    assert closing.text
    assert not closing.continues


# --- judge verdicts and rendered responses, kept per distinct input -------------------


_TRUTHY = st.one_of(
    st.booleans(), st.integers(-2, 2), st.sampled_from(["", "yes", None, 0.0, np.nan, (), (0,)])
)


def _typed_items(mapping: dict) -> list:
    """Keys in order, each value with its type, so 1 and 1.0 count as different."""
    return [(key, type(value), value) for key, value in mapping.items()]


@given(
    verdicts=st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * 4),
            st.lists(st.sampled_from(["Age", "Pets", "Location"]), max_size=2),
            _TRUTHY,
            _TRUTHY,
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_kept_verdicts_equal_judge_counts_and_response_reward(verdicts) -> None:
    # Small counts so that keys repeat within one example and across examples.
    for counts, topics, revealed, continues in verdicts:
        context = JudgeContext(latest_topics=tuple(topics), evidence_revealed=revealed)
        criteria, dimensions, reward = dialign.env._verdict(counts, tuple(topics), revealed,
                                                            continues)
        expected_criteria, expected_dimensions = judge_counts(counts, context, continues)
        assert _typed_items(criteria) == _typed_items(expected_criteria)
        assert _typed_items(dimensions) == _typed_items(expected_dimensions)
        expected_reward = float(response_reward(expected_criteria))
        assert type(reward) is float and reward == expected_reward


def _kind_episodes(kind: str, matcher_spec: str, conflict: bool) -> tuple[list, list]:
    """Every episode of ``kind`` agents over three scenarios, and their tables."""
    matcher = SlotMatcher.parse(matcher_spec)
    rng = random.Random(41)
    records, tables = [], []
    for scenario in generate_scenarios(3, seed=41):
        swap = default_conflict(scenario.profile, scenario.style_seed, rng, matcher=matcher)
        env = DialogueEnv(scenario.user_config(conflict=swap if conflict else None), matcher)
        tables.append(env.config.episode_table)
        records += _episode_records(kind, env, scenario.style_seed, scenario.scenario_id)
    return records, tables


@pytest.mark.parametrize("kind", ["oracle", "random", "policy"])
def test_every_turn_record_owns_its_criteria_and_dimensions(kind: str) -> None:
    records, _ = _kind_episodes(kind, "exact", conflict=True)
    turns = [t for record in records for t in record.turns]
    kept = [d for verdict in dialign.env._VERDICTS.values() for d in verdict[:2]]
    for name in ("criteria", "dimensions"):
        owned = [getattr(t, name) for t in turns]
        assert len({id(d) for d in owned}) == len(turns)
        assert not any(d is k for d in owned for k in kept)
    # Replayed breakdowns own theirs too.
    replayed = [b for record in records for b in replay_rewards(record)]
    assert len({id(b.criteria) for b in replayed} | {id(t.criteria) for t in turns}) == 2 * len(turns)


@pytest.mark.parametrize("matcher_spec", ["exact", "token:0.5"])
@pytest.mark.parametrize("kind", ["oracle", "policy"])
def test_kept_responses_equal_fresh_ones_in_episodes_and_replay(
    kind: str, matcher_spec: str, tmp_path: Path
) -> None:
    records, tables = _kind_episodes(kind, matcher_spec, conflict=True)
    for table in tables:
        assert table.responses and all(view.responses is table.responses for view in table.views)
        for (addressed, continues_type, continues), response in table.responses.items():
            assert type(response.continues) is continues_type
            assert response == make_response(addressed, continues)
    path = tmp_path / "episodes.jsonl"
    write_episodes(records, path)
    for record, read in zip(records, read_episodes(path), strict=True):
        for turn in [*record.turns, *read.turns]:
            fresh = make_response(turn.addressed, turn.continues)
            assert (turn.response_text, turn.addressed, turn.continues) == (
                fresh.text, fresh.addressed_slots, fresh.continues
            )
        assert replay_rewards(read) == replay_rewards(record) == _logged(record)


def test_respond_keeps_one_record_per_addressed_pair_and_continues_type() -> None:
    (scenario,) = generate_scenarios(1, seed=5)
    table = scenario.user_config().episode_table
    first, later = table.views[0], table.views[-1]
    for addressed in ((), (("Age", "34"),)):
        kept = first.respond(addressed, True)
        assert later.respond(addressed, True) is kept
        for continues in (1, np.True_, 1.0, "yes"):
            response = first.respond(addressed, continues)
            assert response is not kept and response.continues is continues
            assert response == make_response(addressed, continues)
            assert later.respond(addressed, continues) is response
        assert first.respond(addressed, False) == make_response(addressed, False)
        assert first.respond(addressed, 0).continues == 0
        assert type(first.respond(addressed, 0).continues) is int


def _matcher_records(kind: str, configs: dict, matchers: list[str], interleave: bool) -> dict:
    """Each matcher's episodes of ``kind`` agents over its configs, two per
    config, config after config; ``interleave`` alternates the matchers per config."""
    envs = {spec: [DialogueEnv(config, SlotMatcher.parse(spec)) for config in configs[spec]]
            for spec in matchers}
    records: dict = {spec: [] for spec in matchers}
    order = [(spec, i) for i in range(len(configs[matchers[0]])) for spec in matchers]
    if not interleave:
        order.sort(key=lambda item: matchers.index(item[0]))
    for spec, i in order:
        records[spec] += [r.to_json() for r in _episode_records(kind, envs[spec][i], 3, count=2)]
    return records


@pytest.mark.parametrize("kind", ["random", "policy"])
def test_envs_of_two_matchers_sharing_a_table_record_what_separate_runs_do(kind: str) -> None:
    matchers = ["exact", "token:0.2"]
    rng, loose = random.Random(13), SlotMatcher.parse("token:0.2")
    scenarios = [(s, default_conflict(s.profile, s.style_seed, rng, matcher=loose))
                 for s in generate_scenarios(3, seed=13)]
    shared = [s.user_config(conflict=swap) for s, swap in scenarios]
    together = _matcher_records(kind, {spec: shared for spec in matchers}, matchers, True)
    rewards = {spec: [t["profile_reward"] for line in lines for t in json.loads(line)["turns"]]
               for spec, lines in together.items()}
    # The two matchers score some random-agent turns differently, so a table
    # mixed up between them would show; policy agents submit only seen values
    # and the placeholder, which the two score alike.
    assert (rewards["exact"] != rewards["token:0.2"]) == (kind == "random")
    for spec in matchers:
        alone = [s.user_config(conflict=swap) for s, swap in scenarios]
        assert _matcher_records(kind, {spec: alone}, [spec], False)[spec] == together[spec]
