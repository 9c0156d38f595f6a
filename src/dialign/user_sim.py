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
conflict costs only those and its wording draw: it goes straight to its one
restate or filler sentence, and hands on the previous state's ``revealed``
and ``pending`` tuples and its entries dict, as the same objects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Mapping

from .errors import ConfigError, Field, read_fields
from .profiles import Profile, SlotMatcher, clearly_different

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


# The rows of a ``UserConfig``'s own settings, which scenario files share.
USER_FIELDS = {
    "horizon": Field("integer", low=1),
    "style_seed": Field("integer", low=0),  # -n would share the reveal order of n
    "reveal_schedule": Field("integers", low=0, default=None, nullable=True),
}


def check_conflict(
    profile: Profile, conflict: ConflictSpec | None, matcher: SlotMatcher | None = None,
    where: str = "",
) -> None:
    """Refuse a conflict that names a slot the schema does not allow, or that
    replaces a value with one not ``clearly_different`` from it (under
    ``matcher`` too, when given): a kept value would be un-revealed while an
    agent still holds it, lifting recall above the reveal ceiling.  The
    message starts with ``where``."""
    for slot, value in (conflict.replace if conflict else {}).items():
        if not profile.schema.allows(slot):
            raise ConfigError(f"{where}conflict slot {slot!r} not allowed by schema")
        old = profile.entries.get(slot)
        if old is not None and not clearly_different(old, [value], matcher):
            under = f" under matcher {matcher.label}" if matcher else ""
            raise ConfigError(f"{where}conflict replacement {value!r} for {slot!r} is not "
                              f"clearly different from {old!r}{under}")


@dataclass(frozen=True)
class UserConfig:
    """Everything that determines the user's side of an episode.

    ``reveal_schedule[i]`` is the reveal budget for turn ``i + 1``; the
    turn-1 entry is ignored because the opening turn is fixed.  ``None``
    means one reveal per turn; turns past the end of an explicit schedule
    reveal nothing.  The settings are checked against ``USER_FIELDS`` and
    the conflict by ``check_conflict``.

    ``episode_table`` is computed on first use and kept, so a config (its
    profile included) must not be mutated afterwards.
    """

    profile: Profile
    horizon: int
    reveal_schedule: tuple[int, ...] | None = None
    conflict: ConflictSpec | None = None
    style_seed: int = 0

    def __post_init__(self) -> None:
        read_fields("", {name: getattr(self, name) for name in USER_FIELDS}, USER_FIELDS,
                    ConfigError)
        if len(self.profile) == 0:
            raise ConfigError("user profile must be non-empty")
        if self.reveal_schedule is not None:
            object.__setattr__(self, "reveal_schedule", tuple(self.reveal_schedule))
            if len(self.reveal_schedule) > self.horizon:
                raise ConfigError("reveal schedule longer than horizon")
        if self.conflict is not None and not 1 <= self.conflict.turn <= self.horizon:
            raise ConfigError(f"conflict turn {self.conflict.turn} outside [1, {self.horizon}]")
        check_conflict(self.profile, self.conflict)

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


def reveal_order(profile: Profile, style_seed: int) -> tuple[str, ...]:
    """The order in which the profile's slots first surface, fixed by style_seed.
    The last order is kept, so a scenario's ``default_conflict`` and its config's
    ``initial_state`` shuffle once."""
    return _shuffled(tuple(profile.entries), style_seed)


@lru_cache(maxsize=1)
def _shuffled(slots: tuple[str, ...], seed: int) -> tuple[str, ...]:
    order = list(slots)
    random.Random(seed).shuffle(order)
    return tuple(order)


def initial_state(config: UserConfig) -> UserState:
    """State at t=1: nothing revealed, reveal order fixed by style_seed."""
    state = UserState(1, (), reveal_order(config.profile, config.style_seed),
                      dict(config.profile.entries))
    if config.conflict is not None and config.conflict.turn == 1:
        state = _apply_conflict(state, config.conflict)
    return state


def _apply_conflict(state: UserState, conflict: ConflictSpec) -> UserState:
    active = dict(state.active_entries)
    active.update(conflict.replace)
    named = tuple(conflict.replace)
    revealed = tuple(s for s in state.revealed if s not in named)
    pending = named + tuple(s for s in state.pending if s not in named)
    return UserState(state.turn, revealed, pending, active)


def _render_reveal(slot: str, value: str, rng: random.Random) -> str:
    templates = _TEMPLATES.get(slot, _TEMPLATES["_default"])
    return rng.choice(templates).format(slot=slot.lower(), value=value)


def next_utterance(
    state: UserState, config: UserConfig
) -> tuple[UserUtterance, UserState] | None:
    """Emit the next user turn, or None once the horizon is reached.  A turn
    that reveals nothing and fires no conflict goes straight to its one
    restate or filler sentence, and its state hands on ``state``'s own
    ``revealed`` and ``pending`` tuples and entries dict."""
    if state.turn >= config.horizon:
        return None
    turn = state.turn + 1
    rng = _turn_rng(config, turn)
    conflict = config.conflict
    # Turns here start at 2 and only grow, so a conflict fires at most once;
    # initial_state handles a turn-1 conflict.
    fires = conflict is not None and turn == conflict.turn
    budget = config.reveal_count(turn) if fires or state.pending else 0
    said = ""
    if fires or budget:
        pending = state.pending
        if fires:  # the swapped slots wait for the turns after the swap
            draw = tuple(s for s in pending if s not in conflict.replace)[:budget]
            pending = tuple(s for s in pending if s not in draw)
        else:
            draw, pending = pending[:budget], pending[budget:]
        # Shared entries are safe: states never mutate them in place, and
        # _apply_conflict copies before swapping values.
        state = UserState(turn, state.revealed + draw, pending, state.active_entries)
        if fires:
            state = _apply_conflict(state, conflict)
            said = rng.choice(_TEMPLATES["_conflict"]) + " "
        if draw:
            evidence = tuple((slot, state.active_entries[slot]) for slot in draw)
            text = " ".join(_render_reveal(slot, value, rng) for slot, value in evidence)
            return UserUtterance(said + text, evidence, turn, draw), state
    else:
        state = UserState(turn, state.revealed, state.pending, state.active_entries)

    if state.revealed:
        slot = rng.choice(state.revealed)
        value = state.active_entries[slot]
        text = rng.choice(_TEMPLATES["_restate"]).format(slot=slot.lower(), value=value)
        topic: tuple[str, ...] = (slot,)
    else:
        text, topic = rng.choice(_TEMPLATES["_filler"]), ()
    return UserUtterance(said + text, (), turn, topic), state


def theoretical_max(state: UserState, truth: Profile | Mapping[str, str]) -> float:
    """Fraction of ground-truth slots revealed so far: the ceiling on what
    any evidence-grounded estimate can recover."""
    entries = truth.entries if isinstance(truth, Profile) else truth
    if len(entries) == 0:
        raise ValueError("truth profile must be non-empty")
    return sum(map(entries.__contains__, state.revealed)) / len(entries)
