"""Multi-turn dialogue environment.

An ``EnvView`` after t user turns is what the next agent turn acts on and
the judge reads from the dialogue {u_1, r_1, ..., u_t}: the latest user
utterance u_t and the latest evidence value per slot, which is non-empty
once any evidence has been revealed.  The full transcript lives only in
the EpisodeRecord.  An action is the pair (structured response, full
replacement profile estimate).  Each step judges the response, scores the
estimate against the current effective ground truth (which reflects any
conflict swap already triggered), and moves on to the next user turn until
the horizon is reached.  Rewards are immediate: the turn-t action is scored
against the truth in force at turn t.

The scripted user never reads the agent's turns, so the user's side of an
episode is known before it starts.  ``EpisodeTable.build`` walks the user
(``initial_state``, ``first_utterance``, ``next_utterance``) once per config
and keeps every turn's view, ground truth and reveal ceiling, and the
episode's observation stack; the config caches it as
``UserConfig.episode_table``.  A turn's own objects are its utterance and
its view; what only a reveal or a conflict swap changes (the seen-values
mapping, the truth, the ceiling) is shared with the turns before it.
``reset`` rewinds to turn 1 and returns its view, ``view`` returns the
current row's view, and ``step`` scores the turn with ``_turn_scores``
(which ``replay_rewards`` also calls), fills its ``TurnRecord`` and moves
one row down the table.  Per config, the table keeps a
``profiles.MatchTable`` per matcher and truth, and the responses agents
render through ``EnvView.respond``; ``_turn_scores`` keeps each judge
verdict by its inputs.  So each (slot, value) pair is matched, and each
response rendered, once per config, and each verdict once per process, not
once per turn.  Observations exist only as stacks with a leading turn axis
(``observe`` maps T views to one), and a policy reads the whole episode's
stack from the table, which lets it draw all of an episode's decisions in
one batched call.

The per-turn total in a RewardBreakdown is always the unweighted sum
profile + response; reward weighting for training or ablations is applied
downstream by the consumers of episode data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .profiles import (
    MatchTable, Profile, SlotMatcher, SlotSchema, clearly_different, profile_reward,
)
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
    parts = [f"Since your {slot.lower()} is {value}, I'll take that into account."
             for slot, value in addressed] or [_ACK]
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


# Row c is the slot feature row [bias, seen, topic] that code c = 2 * seen + topic stands for.
SLOT_CODE_FEATS = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
GLOBAL_FEATURE_DIM = 2


@dataclass(frozen=True)
class Observation:
    """T views as fixed-length features for linear policies, stacked
    along a leading turn axis.  A slot's whole observation is its code
    2 * seen + topic (its evidence has been seen; the latest utterance is
    about it), whose features are its ``SLOT_CODE_FEATS`` row.
    Global: [bias, turn fraction of horizon]."""

    codes: np.ndarray  # (T, n_slots) uint8 in [0, 4)
    global_feats: np.ndarray  # (T, GLOBAL_FEATURE_DIM)

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def slot_feats(self) -> np.ndarray:
        """(T, n_slots, 3): each code's ``SLOT_CODE_FEATS`` row, gathered once, read-only."""
        feats = np.take(SLOT_CODE_FEATS, self.codes, axis=0)
        feats.flags.writeable = False
        return feats

    def flat(self) -> np.ndarray:
        """[global | slot features row by row], one row per turn: (T, dim)."""
        return np.concatenate([self.global_feats, self.slot_feats.reshape(len(self), -1)], axis=1)


def observe(views: Sequence[EnvView], schema: SlotSchema, horizon: int) -> Observation:
    """The observation stack of ``views``, one row per view."""
    names = tuple(schema.slots)
    column = {slot: i for i, slot in enumerate(names)}
    # Schema slots only; consecutive views sharing a seen-values mapping share
    # its seen bits, so each run of them gets one row, repeated over the run.
    starts = [t for t, view in enumerate(views)
              if t == 0 or view.seen_values is not views[t - 1].seen_values]
    seen = [(run, column[s]) for run, t in enumerate(starts)
            for s in views[t].seen_values if s in column]
    rows, cols = np.array(seen, dtype=np.intp).reshape(-1, 2).T
    seen_bits = np.zeros((len(starts), len(names)), np.uint8)
    seen_bits[rows, cols] = 2
    codes = np.repeat(seen_bits, np.diff(starts + [len(views)]), axis=0)
    # Topic bits by their offsets in the flattened stack.
    topics = [t * len(names) + column[s]
              for t, view in enumerate(views) if view.latest is not None
              for s in view.latest.topic_slots if s in column]
    codes.reshape(-1)[topics] |= 1
    global_feats = np.ones((len(views), GLOBAL_FEATURE_DIM))
    global_feats[:, 1] = np.array([view.turn for view in views]) / float(horizon)
    return Observation(codes=codes, global_feats=global_feats)


def observation_dim(n_slots: int) -> int:
    return GLOBAL_FEATURE_DIM + n_slots * SLOT_CODE_FEATS.shape[1]


@dataclass(frozen=True)
class EnvView:
    """What an agent sees when asked to act, and what its turn is judged on:
    the dialogue {u_1, r_1, ..., u_t} so far.  Between actions the dialogue
    always ends in a user turn, ``latest`` (None only before the opening
    turn).  ``with_user_turn`` carries, one user turn at a time, the latest
    evidence value per slot (read-only); evidence has been revealed exactly
    when ``seen_values`` is non-empty.  ``responses`` is the config's table
    of rendered responses."""

    schema: SlotSchema
    latest: UserUtterance | None = None
    seen_values: Mapping[str, str] = field(default_factory=lambda: MappingProxyType({}))
    responses: dict[tuple, ResponseRecord] = field(default_factory=dict, repr=False, compare=False)

    @property
    def turn(self) -> int:
        return self.latest.turn if self.latest is not None else 0

    def with_user_turn(self, utterance: UserUtterance) -> "EnvView":
        seen = self.seen_values
        if utterance.evidence:
            seen = MappingProxyType({**seen, **dict(utterance.evidence)})
        return EnvView(self.schema, utterance, seen, self.responses)

    def respond(self, addressed: tuple[tuple[str, str], ...], continues: bool) -> ResponseRecord:
        """``make_response(addressed, continues)``, kept per config in
        ``EpisodeTable.responses``, by ``continues``'s type too: 1 is not True.
        Both bundled agents render through it."""
        key = (addressed, type(continues), continues)
        response = self.responses.get(key)
        if response is None:
            response = self.responses[key] = make_response(addressed, continues)
        return response


# (criteria, dimensions, response reward), keyed by all that ``judge_counts`` reads.
_VERDICTS: dict[tuple, tuple[dict[str, int], dict[str, float], float]] = {}


def _verdict(counts: tuple[int, ...], topics: tuple[str, ...], revealed: object,
             continues: bool) -> tuple:
    """``judge_counts`` and ``response_reward`` once per key, where evidence has
    been revealed when ``revealed`` (a view's seen values) is true; keepers copy the dicts.
    The key space is small: the benchmark's workloads reach at most 10 keys."""
    key = (counts, bool(topics), bool(revealed), bool(continues))
    verdict = _VERDICTS.get(key)
    if verdict is None:
        criteria, dimensions = judge_counts(counts, JudgeContext(topics, bool(revealed)), continues)
        verdict = _VERDICTS[key] = (criteria, dimensions, float(response_reward(criteria)))
    return verdict


def _turn_scores(
    response: ResponseRecord,
    estimate: Profile,
    view: EnvView,
    matches: MatchTable,
    r_profile: float | None = None,
) -> tuple[float, float, dict[str, int], dict[str, float], bool]:
    """A turn's (profile reward, response reward, criteria, dimensions,
    aligned), from one count of its addressed pairs; the one scoring path of
    ``step`` and ``replay_rewards``, and the dicts are the caller's own.  The
    judge reads ``view``; the truth and matcher are those of ``matches``.  A
    given ``r_profile`` is this estimate's ``profile_reward`` against that truth."""
    topics, truth, matcher = view.latest.topic_slots, matches.truth, matches.matcher
    counts = count_addressed(response.addressed_slots, topics, estimate.entries)
    criteria, dimensions, r_response = _verdict(
        counts, topics, view.seen_values, response.continues
    )
    if r_profile is None:
        r_profile = profile_reward(estimate, truth, matcher, matches)
    return (
        r_profile, r_response, dict(criteria), dict(dimensions),
        alignment_verdict(response, r_response, truth, matcher),
    )


@dataclass(frozen=True)
class EpisodeTable:
    """A config's whole episode, one row per user turn.  Row t - 1 is what
    the agent turn answering user turn t sees and is scored against: the
    ``EnvView``, which the agent acts on and the judge reads, the ground
    truth in force (``truths``, one ``Profile`` shared by the turns of each
    stretch between conflict swaps) and the reveal ceiling (``ceilings``,
    computed again only when the revealed slots or the truth change);
    ``observations`` is the episode's stack.  ``match_tables``
    keeps, per matcher, the ``MatchTable`` of each truth, which ``step``
    scores estimates through; ``responses`` holds what ``EnvView.respond`` renders.

    Read it as ``UserConfig.episode_table``, which builds it once per config.
    """

    views: tuple[EnvView, ...]
    truths: tuple[Profile, ...]
    ceilings: tuple[float, ...]
    observations: Observation
    responses: dict[tuple, ResponseRecord] = field(repr=False, compare=False)
    _matches: dict[SlotMatcher, tuple[MatchTable, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def match_tables(self, matcher: SlotMatcher) -> tuple[MatchTable, ...]:
        """One ``MatchTable`` per row, of the row's truth under ``matcher``;
        rows that share a truth share its table.  Made on first use per
        matcher and kept, so every episode of the config fills the same ones.
        They grow by the distinct pairs agents submit: the bundled agents
        submit only seen values and the ``UNKNOWN_VALUE`` placeholder."""
        tables = self._matches.get(matcher)
        if tables is None:
            distinct = {id(truth): truth for truth in self.truths}
            made = {key: MatchTable(truth, matcher) for key, truth in distinct.items()}
            tables = self._matches[matcher] = tuple(made[id(t)] for t in self.truths)
        return tables

    @classmethod
    def build(cls, config: UserConfig) -> "EpisodeTable":
        """Walk the user's side of turns 1..horizon once."""
        schema = config.profile.schema
        user = initial_state(config)
        responses: dict[tuple, ResponseRecord] = {}
        view = EnvView(schema, responses=responses).with_user_turn(first_utterance(config))
        views: list[EnvView] = []
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
            views.append(view)
            truths.append(truth)
            ceilings.append(ceiling)
            step = next_utterance(user, config)
            if step is None:
                break
            utterance, user = step
            view = view.with_user_turn(utterance)
        observations = observe(views, schema, config.horizon)
        # Every episode of the config shares these arrays; nothing may write to them.
        observations.codes.flags.writeable = False
        observations.global_feats.flags.writeable = False
        return cls(tuple(views), tuple(truths), tuple(ceilings), observations, responses)


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
        self._matches = self._table.match_tables(self.matcher)
        self._index: int | None = None
        self._done = False
        self._scored: tuple[Profile, Profile, float] | None = None

    @property
    def schema(self) -> SlotSchema:
        return self.config.profile.schema

    def reset(self) -> EnvView:
        self._index = 0
        self._done = False
        self._scored = None
        return self._table.views[0]

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
        previous turn's objects (its ``MatchTable``) keep that turn's profile
        reward; any other estimate is scored through the row's table.  An
        agent that edits a returned estimate's ``entries`` in place and
        returns that object again is scored on its old entries."""
        index = self._current()
        if self._done:
            raise ProtocolError("step() after the episode ended")

        table, response, estimate = self._table, action.response, action.estimate
        view, matches, last = table.views[index], self._matches[index], self._scored
        known = last[2] if last and last[0] is estimate and last[1] is matches else None
        r_profile, r_response, criteria, dimensions, aligned = _turn_scores(
            response, estimate, view, matches, known
        )
        self._scored = (estimate, matches, r_profile)
        utterance = view.latest
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


# ``json.dumps``'s encoder without its cycle check: records hold no cycles,
# so the text is the same.
_ENCODER = json.JSONEncoder(check_circular=False)


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
        return _ENCODER.encode(payload)

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
    """A reference policy: copies every piece of revealed evidence into its
    estimate and addresses the first topic slot it has a value for, else
    its first seen slot.  Turns that reveal nothing share their seen-values
    mapping, and while it holds, the action built for a turn's topic slots
    (one estimate ``Profile`` for all of them) is returned again."""

    _seen: Mapping[str, str] | None = None
    _estimate: Profile
    _actions: dict[tuple[str, ...], AgentAction]

    def act(self, view: EnvView) -> AgentAction:
        seen, topics = view.seen_values, view.latest.topic_slots
        if seen is not self._seen or self._estimate.schema is not view.schema:
            self._seen, self._actions = seen, {}
            self._estimate = Profile(schema=view.schema, entries=dict(seen))
        action = self._actions.get(topics)
        if action is None:
            slot = next((slot for slot in chain(topics, seen) if slot in seen), None)
            addressed = () if slot is None else ((slot, seen[slot]),)
            action = self._actions[topics] = AgentAction(view.respond(addressed, True),
                                                         self._estimate)
        return action


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
    view = EnvView(schema)
    for t in record.turns:
        view = view.with_user_turn(UserUtterance(t.user_text, t.evidence, t.turn, t.topic_slots))
        truth = Profile(schema=schema, entries=record.effective_truth_at(t.turn))
        r_profile, r_response, *verdicts = _turn_scores(
            ResponseRecord(t.addressed, t.continues, t.response_text),
            Profile(schema=schema, entries=dict(t.estimate)),
            view,
            MatchTable(truth, matcher),
        )
        breakdowns.append(RewardBreakdown(r_profile, r_response, r_profile + r_response, *verdicts))
    return breakdowns


def write_episodes(records: list[EpisodeRecord], path) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(record.to_json())
            fh.write("\n")


def read_episodes(path) -> Iterator[EpisodeRecord]:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield EpisodeRecord.from_json(line)
