"""Multi-turn dialogue environment.

State after t user turns is what the next agent turn and the judge read
from the dialogue {u_1, r_1, ..., u_t}: the latest user utterance u_t, the
latest evidence value per slot, and whether any evidence has been revealed.
The full transcript lives only in the EpisodeRecord.  An action is the pair
(structured response, full replacement profile estimate).  Each step judges
the response, scores the estimate against the current effective ground
truth (which reflects any conflict swap already triggered), and moves on to
the next user turn until the horizon is reached.  Rewards are immediate:
the turn-t action is scored against the truth in force at turn t.

The scripted user never reads the agent's turns, so the user's side of an
episode is known before it starts.  ``EpisodeTable.build`` walks the user
(``initial_state``, ``first_utterance``, ``next_utterance``) once per config
and keeps every turn's agent view, judge context, ground truth and reveal
ceiling, and the episode's observation stack; the config caches it as
``UserConfig.episode_table``.  ``reset`` rewinds to turn 1, ``view``
returns the current row's view, and ``step`` scores the turn, fills its
``TurnRecord`` straight from that one scoring pass (``score_turn`` wraps the
same pass in a ``RewardBreakdown`` for replay) and moves one row down the
table.  Observations exist only
as stacks with a leading turn axis (``observe`` maps T dialogue states to
one), and a policy reads the whole episode's stack from the table, which
lets it draw all of an episode's decisions in one batched call.

The per-turn total in a RewardBreakdown is always the unweighted sum
profile + response; reward weighting for training or ablations is applied
downstream by the consumers of episode data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .profiles import Profile, SlotMatcher, SlotSchema, clearly_different, profile_reward
from .reward import (
    JudgeContext,
    alignment_verdict,
    count_addressed,
    judge_counts,
    response_reward,
)
from .user_sim import (
    UserConfig, UserUtterance, first_utterance, initial_state, next_utterance, theoretical_max,
)

EPISODE_SCHEMA_VERSION = "dialign.episode.v1"

# Placeholder emitted when a policy includes a slot it has no evidence for.
# Never matches a real profile value, so blind guesses cost precision.
UNKNOWN_VALUE = "(unknown)"

_CONTINUATION = "What else should I know about you?"
_ACK = "Noted, thanks for sharing."


@dataclass(frozen=True, slots=True)
class ResponseRecord:
    """Structured agent response: personalized claims plus surface text."""

    addressed_slots: tuple[tuple[str, str], ...]
    continues: bool
    text: str


def make_response(
    addressed: tuple[tuple[str, str], ...] | list[tuple[str, str]], continues: bool
) -> ResponseRecord:
    """Render a response record from structured parts; text is deterministic."""
    addressed = tuple(addressed)
    if addressed:
        parts = [
            f"Since your {slot.lower()} is {value}, I'll take that into account."
            for slot, value in addressed
        ]
    else:
        parts = [_ACK]
    if continues:
        parts.append(_CONTINUATION)
    return ResponseRecord(addressed, continues, " ".join(parts))


@dataclass(frozen=True, slots=True)
class AgentAction:
    """One agent turn: the response and the full replacement estimate."""

    response: ResponseRecord
    estimate: Profile


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    """A scored turn: its rewards and the judge's verdicts, as logged."""

    profile: float
    response: float
    total: float
    criteria: dict[str, int]
    dimensions: dict[str, float]
    aligned: bool

    def __post_init__(self) -> None:
        if self.total != self.profile + self.response:
            raise ValueError("total must equal profile + response exactly")


@dataclass(frozen=True)
class DialogueState:
    """What the observation and the judge read from the dialogue so far.

    Between actions the dialogue always ends in a user turn, ``latest``
    (None only before the opening turn).  The state carries, one user turn
    at a time, the latest evidence value per slot (read-only) and whether
    any user turn has revealed evidence yet.
    """

    latest: UserUtterance | None = None
    seen_values: Mapping[str, str] = field(default_factory=lambda: MappingProxyType({}))
    evidence_revealed: bool = False

    @property
    def turn(self) -> int:
        return self.latest.turn if self.latest is not None else 0

    def with_user_turn(self, utterance: UserUtterance) -> "DialogueState":
        seen = self.seen_values
        if utterance.evidence:
            updated = dict(seen)
            updated.update(utterance.evidence)
            seen = MappingProxyType(updated)
        return DialogueState(
            latest=utterance,
            seen_values=seen,
            evidence_revealed=self.evidence_revealed or bool(utterance.evidence),
        )

    def judge_context(self) -> JudgeContext:
        """What the judge sees for the agent turn answering the latest user turn."""
        return JudgeContext(
            latest_topics=self.latest.topic_slots,
            evidence_revealed=self.evidence_revealed,
        )


@dataclass(frozen=True)
class Observation:
    """Fixed-length feature views of T DialogueStates for linear policies,
    stacked along a leading turn axis.

    Per slot: [bias, evidence seen, topic of the latest utterance].
    Global: [bias, turn fraction of horizon].
    """

    slot_feats: np.ndarray  # (T, n_slots, 3)
    global_feats: np.ndarray  # (T, 2)

    def flat(self) -> np.ndarray:
        """[global | slot features row by row], one row per turn: (T, dim)."""
        return np.concatenate(
            [self.global_feats, self.slot_feats.reshape(len(self.global_feats), -1)], axis=1
        )


SLOT_FEATURE_DIM = 3
GLOBAL_FEATURE_DIM = 2


def observe(states: Sequence[DialogueState], schema: SlotSchema, horizon: int) -> Observation:
    """The observation stack of ``states``, one row per state."""
    names = tuple(schema.slots)
    column = {slot: i for i, slot in enumerate(names)}
    slot_feats = np.zeros((len(states), len(names), SLOT_FEATURE_DIM))
    slot_feats[:, :, 0] = 1.0
    # Schema slots only; consecutive states sharing a seen-values mapping share its flags.
    starts = [t for t, state in enumerate(states)
              if t == 0 or state.seen_values is not states[t - 1].seen_values]
    for start, end in zip(starts, starts[1:] + [len(states)]):
        seen = [column[s] for s in states[start].seen_values if s in column]
        slot_feats[start:end, seen, 1] = 1.0
    topics = [(t, column[s]) for t, state in enumerate(states) if state.latest is not None
              for s in state.latest.topic_slots if s in column]
    rows, cols = np.array(topics, dtype=np.intp).reshape(-1, 2).T
    slot_feats[rows, cols, 2] = 1.0
    global_feats = np.ones((len(states), GLOBAL_FEATURE_DIM))
    global_feats[:, 1] = np.array([state.turn for state in states]) / float(horizon)
    return Observation(slot_feats=slot_feats, global_feats=global_feats)


def observation_dim(n_slots: int) -> int:
    return GLOBAL_FEATURE_DIM + n_slots * SLOT_FEATURE_DIM


@dataclass(frozen=True)
class EnvView:
    """What an agent sees when asked to act: the dialogue state now."""

    state: DialogueState
    schema: SlotSchema

    @property
    def turn(self) -> int:
        return self.state.turn

    @property
    def seen_values(self) -> Mapping[str, str]:
        return self.state.seen_values


def _turn_scores(
    response: ResponseRecord,
    estimate: Profile,
    context: JudgeContext,
    truth: Profile,
    matcher: SlotMatcher,
    r_profile: float | None,
) -> tuple[float, float, dict[str, int], dict[str, float], bool]:
    """A turn's (profile reward, response reward, criteria, dimensions,
    aligned), from one count of its addressed pairs."""
    counts = count_addressed(response.addressed_slots, context.latest_topics, estimate.entries)
    criteria, dimensions = judge_counts(counts, context, response.continues)
    r_response = float(response_reward(criteria))
    if r_profile is None:
        r_profile = profile_reward(estimate, truth, matcher)
    return (
        r_profile, r_response, criteria, dimensions,
        alignment_verdict(response, r_response, truth, matcher),
    )


def score_turn(
    response: ResponseRecord,
    estimate: Profile,
    context: JudgeContext,
    truth: Profile,
    matcher: SlotMatcher,
    r_profile: float | None = None,
) -> RewardBreakdown:
    """Judge one agent turn from one count of its addressed pairs, and score
    its estimate against the truth.  The one scoring path shared by the
    environment (which writes the same scores straight into its
    ``TurnRecord``) and offline replay.  A given ``r_profile`` is this
    estimate's already computed ``profile_reward`` against this truth."""
    r_profile, r_response, criteria, dimensions, aligned = _turn_scores(
        response, estimate, context, truth, matcher, r_profile
    )
    return RewardBreakdown(
        r_profile, r_response, r_profile + r_response, criteria, dimensions, aligned
    )


@dataclass(frozen=True)
class EpisodeTable:
    """A config's whole episode, one row per user turn.  Row t - 1 is what
    the agent turn answering user turn t sees and is scored against: the
    ``EnvView`` (which holds the dialogue state), the ``JudgeContext``, the
    ground truth in force (``truths``, one ``Profile`` shared by the turns
    of each stretch between conflict swaps) and the reveal ceiling
    (``ceilings``, computed again only when the revealed slots or the truth
    change); ``observations`` is the episode's stack.

    Read it as ``UserConfig.episode_table``, which builds it once per config.
    """

    views: tuple[EnvView, ...]
    contexts: tuple[JudgeContext, ...]
    truths: tuple[Profile, ...]
    ceilings: tuple[float, ...]
    observations: Observation

    @classmethod
    def build(cls, config: UserConfig) -> "EpisodeTable":
        """Walk the user's side of turns 1..horizon once."""
        schema = config.profile.schema
        user = initial_state(config)
        state = DialogueState().with_user_turn(first_utterance(config))
        states: list[DialogueState] = []
        truths: list[Profile] = []
        ceilings: list[float] = []
        entries = truth = revealed = None
        while True:
            # User states share one entries dict until a conflict swaps values,
            # and one revealed tuple until a turn reveals a slot.
            if user.active_entries is not entries:
                entries = user.active_entries
                truth = Profile(schema=schema, entries=dict(entries))
                revealed = None
            if user.revealed is not revealed:
                revealed = user.revealed
                ceiling = theoretical_max(user, truth)
            states.append(state)
            truths.append(truth)
            ceilings.append(ceiling)
            step = next_utterance(user, config)
            if step is None:
                break
            utterance, user = step
            state = state.with_user_turn(utterance)
        observations = observe(states, schema, config.horizon)
        # Every episode of the config shares these arrays; nothing may write to them.
        observations.slot_feats.flags.writeable = False
        observations.global_feats.flags.writeable = False
        return cls(
            tuple(EnvView(state, schema) for state in states),
            tuple(state.judge_context() for state in states),
            tuple(truths),
            tuple(ceilings),
            observations,
        )


class DialogueEnv:
    """Gym-style wrapper around the scripted user and the rule judge."""

    def __init__(self, config: UserConfig, matcher: SlotMatcher | None = None) -> None:
        self.config = config
        self.matcher = matcher or SlotMatcher(kind="exact")
        # A replacement matching the old value would keep scoring a stale,
        # un-revealed value, lifting recall above the reveal ceiling.
        for slot, value in (config.conflict.replace if config.conflict else {}).items():
            old = config.profile.entries.get(slot)
            if old is not None and not clearly_different(slot, old, [value], self.matcher):
                raise ConfigError(
                    f"matcher {self.matcher.label} matches the conflict replacement "
                    f"{value!r} for {slot!r} to the value it replaces, {old!r}"
                )
        self._table = config.episode_table
        self._index: int | None = None
        self._done = False
        self._scored: tuple[Profile, Profile, float] | None = None

    @property
    def schema(self) -> SlotSchema:
        return self.config.profile.schema

    def reset(self) -> DialogueState:
        self._index = 0
        self._done = False
        self._scored = None
        return self._table.views[0].state

    @property
    def done(self) -> bool:
        return self._done

    def _current(self) -> int:
        if self._index is None:
            raise ProtocolError("reset() the environment before using it")
        return self._index

    def view(self) -> EnvView:
        return self._table.views[self._current()]

    def step(self, action: AgentAction) -> TurnRecord:
        """Score ``action`` as the agent turn answering the current user turn,
        advance to the next user turn, and return the turn's record.
        ``Profile``s are immutable, so an estimate and truth that are the
        previous turn's objects keep that turn's profile reward."""
        index = self._current()
        if self._done:
            raise ProtocolError("step() after the episode ended")

        table = self._table
        response, estimate, truth = action.response, action.estimate, table.truths[index]
        last = self._scored
        known = last[2] if last and last[0] is estimate and last[1] is truth else None
        r_profile, r_response, criteria, dimensions, aligned = _turn_scores(
            response, estimate, table.contexts[index], truth, self.matcher, known
        )
        self._scored = (estimate, truth, r_profile)
        utterance = table.views[index].state.latest
        record = TurnRecord(
            utterance.turn, utterance.text, utterance.evidence, utterance.topic_slots,
            response.text, response.addressed_slots, response.continues, dict(estimate.entries),
            r_profile, r_response, r_profile + r_response, criteria, dimensions, aligned,
            table.ceilings[index],
        )
        if index + 1 < len(table.views):
            self._index = index + 1
        else:
            self._done = True
        return record


# --- episode records ----------------------------------------------------------


@dataclass
class TurnRecord:
    turn: int
    user_text: str
    evidence: tuple[tuple[str, str], ...]
    topic_slots: tuple[str, ...]
    response_text: str
    addressed: tuple[tuple[str, str], ...]
    continues: bool
    estimate: dict[str, str]
    profile_reward: float
    response_reward: float
    total_reward: float
    criteria: dict[str, int]
    dimensions: dict[str, float]
    aligned: bool
    theoretical_max: float


@dataclass
class EpisodeRecord:
    """Self-contained episode log; enough to recompute every reward offline."""

    scenario_id: str
    schema_name: str
    schema_slots: tuple[str, ...]
    open_schema: bool
    truth: dict[str, str]
    conflict: dict | None
    horizon: int
    style_seed: int
    matcher: str
    turns: list[TurnRecord] = field(default_factory=list)
    schema_version: str = EPISODE_SCHEMA_VERSION

    def to_json(self) -> str:
        # One JSON key per dataclass field, in field order; tuples become lists.
        payload = {"schema_version": self.schema_version, **vars(self)}
        payload["turns"] = [vars(t) for t in self.turns]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str) -> "EpisodeRecord":
        payload = json.loads(line)
        if payload.get("schema_version") != EPISODE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported episode schema version {payload.get('schema_version')!r}"
            )
        payload["schema_slots"] = tuple(payload["schema_slots"])
        record = cls(**{**payload, "turns": []})
        for t in payload["turns"]:
            t["evidence"] = tuple(map(tuple, t["evidence"]))
            t["topic_slots"] = tuple(t["topic_slots"])
            t["addressed"] = tuple(map(tuple, t["addressed"]))
            t["criteria"] = {k: int(v) for k, v in t["criteria"].items()}
            record.turns.append(TurnRecord(**t))
        return record

    def schema_object(self) -> SlotSchema:
        return SlotSchema(
            name=self.schema_name, slots=self.schema_slots, open_schema=self.open_schema
        )

    def effective_truth_at(self, turn: int) -> dict[str, str]:
        entries = dict(self.truth)
        if self.conflict is not None and turn >= int(self.conflict["turn"]):
            entries.update(self.conflict["replace"])
        return entries


class Agent(Protocol):
    def act(self, view: EnvView) -> AgentAction: ...


class EvidenceOracleAgent:
    """Copies every piece of revealed evidence into its estimate and always
    addresses a topic slot it has a value for.  Used as a reference policy.
    Turns that reveal nothing share their seen-values mapping, and on them
    the agent returns its previous estimate ``Profile`` again."""

    _seen: Mapping[str, str] | None = None
    _estimate: Profile | None = None

    def act(self, view: EnvView) -> AgentAction:
        seen, estimate = view.seen_values, self._estimate
        if seen is not self._seen or estimate.schema is not view.schema:
            estimate = self._estimate = Profile(schema=view.schema, entries=dict(seen))
            self._seen = seen
        addressed: list[tuple[str, str]] = []
        for topic in view.state.latest.topic_slots:
            if topic in seen:
                addressed = [(topic, seen[topic])]
                break
        if not addressed and seen:
            slot = next(iter(seen))
            addressed = [(slot, seen[slot])]
        return AgentAction(make_response(addressed, continues=True), estimate)


def rollout(env: DialogueEnv, agent: Agent, scenario_id: str = "episode") -> EpisodeRecord:
    """Play one full episode and return its self-contained record."""
    env.reset()
    config = env.config
    record = EpisodeRecord(
        scenario_id=scenario_id,
        schema_name=env.schema.name,
        schema_slots=tuple(env.schema.slots),
        open_schema=env.schema.open_schema,
        truth=dict(config.profile.entries),
        conflict=config.conflict.to_record() if config.conflict else None,
        horizon=config.horizon,
        style_seed=config.style_seed,
        matcher=env.matcher.label,
    )
    while not env.done:
        record.turns.append(env.step(agent.act(env.view())))
    return record


def replay_rewards(record: EpisodeRecord, matcher: SlotMatcher | None = None) -> list[RewardBreakdown]:
    """Recompute every turn's rewards, criteria, dimensions and alignment
    verdict from the raw logged fields.

    Used to check that episode logs are self-contained: the replay must
    reproduce the logged values exactly (same judge, same matcher).
    """
    matcher = matcher or SlotMatcher.parse(record.matcher)
    schema = record.schema_object()
    breakdowns: list[RewardBreakdown] = []
    state = DialogueState()
    for t in record.turns:
        state = state.with_user_turn(
            UserUtterance(
                text=t.user_text, evidence=t.evidence, turn=t.turn, topic_slots=t.topic_slots
            )
        )
        breakdowns.append(score_turn(
            ResponseRecord(
                addressed_slots=t.addressed, continues=t.continues, text=t.response_text
            ),
            Profile(schema=schema, entries=dict(t.estimate)),
            state.judge_context(),
            Profile(schema=schema, entries=record.effective_truth_at(t.turn)),
            matcher,
        ))
    return breakdowns


def write_episodes(records: list[EpisodeRecord], path) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_episodes(path) -> Iterator[EpisodeRecord]:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield EpisodeRecord.from_json(line)
