"""Scripted user simulator.

The simulated user holds a ground-truth profile and reveals it incrementally:
the first utterance is always the fixed greeting ``"Hello"`` carrying no
evidence, and from turn 2 onward each utterance reveals up to the scheduled
number of not-yet-revealed attributes, in schema order shuffled once by
``random.Random(style_seed)``; turn t's wording is drawn from
``random.Random(f"{style_seed}:{t}")``.  Every revealed (slot, value) pair
is machine-readable evidence grounded in the active profile at the moment
of emission.

A conflict specification swaps the named entries' values at the conflict
turn.  The swap takes effect immediately (rewards downstream are judged
against the new truth), the replaced slots are re-marked unrevealed and move
to the front of the reveal queue, and the new values surface from the
following turn onward.  The old values never appear in later utterances, so
an agent tracking evidence carries a stale estimate for exactly the interval
between the swap and the re-reveal.

When nothing is left to reveal the user restates an earlier preference
(chit-chat); restatements carry a topic slot but no new evidence.

The user never reads the agent's turns, so a config's whole side of the
episode is fixed in advance.  The environment walks ``initial_state`` and
``next_utterance`` once per config, on first use, into its per-turn table,
which the config keeps (``UserConfig.episode_table``).  Each turn makes its
own utterance and ``UserState``.  A turn that reveals nothing and fires no
conflict costs only those: it hands on the previous state's ``revealed``
and ``pending`` tuples and its entries dict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import TYPE_CHECKING, Mapping

from .errors import ConfigError
from .profiles import Profile, clearly_different

if TYPE_CHECKING:
    from .env import EpisodeTable

FIRST_UTTERANCE_TEXT = "Hello"


def _load_templates() -> dict[str, list[str]]:
    with resources.files("dialign.data").joinpath("templates.json").open() as fh:
        return json.load(fh)


_TEMPLATES = _load_templates()


@dataclass(frozen=True)
class ConflictSpec:
    """A mid-episode preference shift: at ``turn``, ``replace`` overwrites
    the named slots' values in the active profile."""

    turn: int
    replace: dict[str, str]

    def __post_init__(self) -> None:
        if not self.replace:
            raise ConfigError("conflict must replace at least one entry")
        for slot, value in self.replace.items():
            if not isinstance(value, str) or not value.strip():
                raise ConfigError(f"conflict replacement for {slot!r} must be non-empty text")

    def to_record(self) -> dict:
        """The ``{"turn", "replace"}`` record written to scenario files and episode logs."""
        return {"turn": self.turn, "replace": dict(self.replace)}


@dataclass(frozen=True)
class UserConfig:
    """Everything that determines the user's side of an episode.

    ``reveal_schedule[i]`` is the reveal budget for turn ``i + 1``; the
    turn-1 entry is ignored because the opening turn is fixed.  ``None``
    means one reveal per turn; turns past the end of an explicit schedule
    reveal nothing.  A conflict must replace each value it names with a
    clearly different one: a kept value would be un-revealed while an
    agent still holds it, lifting recall above the reveal ceiling.

    ``episode_table`` is computed on first use and kept, so a config (its
    profile included) must not be mutated afterwards.
    """

    profile: Profile
    horizon: int
    reveal_schedule: tuple[int, ...] | None = None
    conflict: ConflictSpec | None = None
    style_seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if len(self.profile) == 0:
            raise ConfigError("user profile must be non-empty")
        if self.reveal_schedule is not None:
            object.__setattr__(self, "reveal_schedule", tuple(self.reveal_schedule))
            if len(self.reveal_schedule) > self.horizon:
                raise ConfigError("reveal schedule longer than horizon")
            for count in self.reveal_schedule:
                if not isinstance(count, int) or count < 0:
                    raise ConfigError(f"reveal counts must be non-negative ints, got {count!r}")
        if self.conflict is not None:
            if not 1 <= self.conflict.turn <= self.horizon:
                raise ConfigError(
                    f"conflict turn {self.conflict.turn} outside [1, {self.horizon}]"
                )
            for slot, value in self.conflict.replace.items():
                if not self.profile.schema.allows(slot):
                    raise ConfigError(f"conflict slot {slot!r} not allowed by schema")
                old = self.profile.entries.get(slot)
                if old is not None and not clearly_different(slot, old, [value]):
                    raise ConfigError(
                        f"conflict replacement {value!r} for {slot!r} is not clearly "
                        f"different from {old!r}"
                    )

    def reveal_count(self, turn: int) -> int:
        if self.reveal_schedule is None:
            return 1
        index = turn - 1
        return self.reveal_schedule[index] if index < len(self.reveal_schedule) else 0

    @cached_property
    def episode_table(self) -> EpisodeTable:
        """The environment's per-turn table of this config's episode, kept
        with the config so every episode of it reuses it."""
        from .env import EpisodeTable  # env imports this module, so import late

        return EpisodeTable.build(self)


@dataclass(frozen=True)
class UserUtterance:
    """One user turn.  ``evidence`` lists newly revealed (slot, value) pairs;
    ``topic_slots`` names what the utterance is about (restatements have a
    topic but no evidence)."""

    text: str
    evidence: tuple[tuple[str, str], ...]
    turn: int
    topic_slots: tuple[str, ...] = ()


@dataclass(frozen=True)
class UserState:
    """Simulator state after emitting the utterance for ``turn``.

    ``active_entries`` is the effective ground truth (reflecting any conflict
    swap already triggered); ``revealed`` and ``pending`` partition the slots
    the user still intends to talk about.
    """

    turn: int
    revealed: tuple[str, ...]
    pending: tuple[str, ...]
    active_entries: dict[str, str] = field(default_factory=dict)


def _turn_rng(config: UserConfig, turn: int) -> random.Random:
    # Seeding with a string keeps the stream stable across processes.
    return random.Random(f"{config.style_seed}:{turn}")


def first_utterance(config: UserConfig) -> UserUtterance:
    """The fixed opening turn: a bare greeting with no evidence."""
    return UserUtterance(text=FIRST_UTTERANCE_TEXT, evidence=(), turn=1, topic_slots=())


def reveal_order(profile: Profile, style_seed: int) -> list[str]:
    """The order in which the profile's slots first surface, fixed by style_seed."""
    order = list(profile.entries)
    random.Random(style_seed).shuffle(order)
    return order


def initial_state(config: UserConfig) -> UserState:
    """State at t=1: nothing revealed, reveal order fixed by style_seed."""
    state = UserState(
        turn=1,
        revealed=(),
        pending=tuple(reveal_order(config.profile, config.style_seed)),
        active_entries=dict(config.profile.entries),
    )
    if config.conflict is not None and config.conflict.turn == 1:
        state = _apply_conflict(state, config.conflict)
    return state


def _apply_conflict(state: UserState, conflict: ConflictSpec) -> UserState:
    active = dict(state.active_entries)
    active.update(conflict.replace)
    named = tuple(conflict.replace)
    revealed = tuple(s for s in state.revealed if s not in named)
    pending = named + tuple(s for s in state.pending if s not in named)
    return UserState(
        turn=state.turn,
        revealed=revealed,
        pending=pending,
        active_entries=active,
    )


def _render_reveal(slot: str, value: str, rng: random.Random) -> str:
    templates = _TEMPLATES.get(slot, _TEMPLATES["_default"])
    return rng.choice(templates).format(slot=slot.lower(), value=value)


def next_utterance(
    state: UserState, config: UserConfig
) -> tuple[UserUtterance, UserState] | None:
    """Emit the next user turn, or None once the horizon is reached.  A turn
    that reveals nothing and fires no conflict passes on ``state``'s own
    ``revealed`` and ``pending`` tuples, so an unchanged reveal state keeps
    its identity."""
    if state.turn >= config.horizon:
        return None
    turn = state.turn + 1
    rng = _turn_rng(config, turn)
    conflict = config.conflict
    # Turns here start at 2 and only grow, so a conflict fires at most once;
    # initial_state handles a turn-1 conflict.
    fires = conflict is not None and turn == conflict.turn

    budget = config.reveal_count(turn)
    revealed, pending = state.revealed, state.pending
    if fires:  # the swapped slots wait for the turns after the swap
        draw = tuple(s for s in pending if s not in conflict.replace)[:budget]
        pending = tuple(s for s in pending if s not in draw)
    else:
        draw, pending = pending[:budget], pending[budget:]
    if draw:
        revealed += draw
    interim = UserState(
        turn=turn,
        revealed=revealed,
        pending=pending,
        # Shared reference is safe: states never mutate entries in place, and
        # _apply_conflict copies before swapping values.
        active_entries=state.active_entries,
    )
    if fires:
        assert conflict is not None
        interim = _apply_conflict(interim, conflict)

    evidence = tuple((slot, interim.active_entries[slot]) for slot in draw)
    sentences: list[str] = []
    topic: tuple[str, ...]
    if fires:
        sentences.append(rng.choice(_TEMPLATES["_conflict"]))
    if evidence:
        sentences.extend(_render_reveal(slot, value, rng) for slot, value in evidence)
        topic = tuple(slot for slot, _ in evidence)
    elif interim.revealed:
        slot = rng.choice(interim.revealed)
        value = interim.active_entries[slot]
        sentences.append(rng.choice(_TEMPLATES["_restate"]).format(slot=slot.lower(), value=value))
        topic = (slot,)
    else:
        sentences.append(rng.choice(_TEMPLATES["_filler"]))
        topic = ()

    utterance = UserUtterance(
        text=" ".join(sentences), evidence=evidence, turn=turn, topic_slots=topic
    )
    return utterance, interim


def theoretical_max(state: UserState, truth: Profile | Mapping[str, str]) -> float:
    """Fraction of ground-truth slots revealed so far: the ceiling on what
    any evidence-grounded estimate can recover."""
    entries = truth.entries if isinstance(truth, Profile) else truth
    if len(entries) == 0:
        raise ValueError("truth profile must be non-empty")
    return sum(map(entries.__contains__, state.revealed)) / len(entries)
