"""User profiles, slot matchers, and profile-overlap scoring.

A profile is an ordered mapping from slot names to free-text values under a
named schema.  The profile reward for an estimate P-hat against a ground
truth P is the F1-style overlap score

    R_profile = 2 * |P-hat ∩ P| / (|P-hat| + |P|)

where the intersection is counted slot-by-slot under a configurable value
matcher.  An empty estimate scores 0 by convention.
``SlotMatcher.values_match`` is the one matching rule; a ``MatchTable``
remembers its verdicts for one truth and matcher, and every comparison of a
value with a truth reads one: each overlap count, and the alignment verdict.

The module also ships a small synthetic benchmark for matchers: rewrite a
profile by paraphrasing ``a`` entries and altering ``b`` entries, then check
how close a matcher's predicted overlap lands to the known answer ``a``.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, Field, SchemaError, read_fields

# The ten closed-schema slots used by the standard scenarios.
ALOE_SLOTS: tuple[str, ...] = (
    "Age",
    "Gender",
    "Interests",
    "Educational Background",
    "Personality Traits",
    "Occupation",
    "Marital Status",
    "Family Background",
    "Location",
    "Others",
)

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})
_WS_RE = re.compile(r"\s+")


@lru_cache(maxsize=8192)
def normalize_text(text: str) -> str:
    """Casefold, strip punctuation, and collapse whitespace."""
    folded = text.casefold().translate(_PUNCT_TABLE)
    return _WS_RE.sub(" ", folded).strip()


@lru_cache(maxsize=8192)
def token_set(text: str) -> frozenset[str]:
    norm = normalize_text(text)
    return frozenset(norm.split()) if norm else frozenset()


@dataclass(frozen=True)
class SlotSchema:
    """A named slot-name namespace.

    Closed schemas reject entries outside ``slots``; open schemas accept any
    well-formed slot name (the Extended-style setting).  ``slot_set`` holds
    the slots as a set for containment checks.
    """

    name: str
    slots: tuple[str, ...]
    open_schema: bool = False
    slot_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("schema name must be non-empty")
        slot_set = frozenset(self.slots)
        if len(slot_set) != len(self.slots):
            raise ValueError("schema slots must be unique")
        for slot in self.slots:
            if not isinstance(slot, str) or not slot.strip():
                raise ValueError(f"bad slot name: {slot!r}")
        object.__setattr__(self, "slot_set", slot_set)

    def allows(self, slot: str) -> bool:
        return self.open_schema or slot in self.slot_set

    def to_record(self) -> dict:
        return {"name": self.name, "slots": list(self.slots), "open": self.open_schema}

    @classmethod
    def from_record(
        cls, record: Mapping, where: str = "", error: type[Exception] = ValueError
    ) -> "SlotSchema":
        """The schema of a ``{"name", "slots", "open"}`` record, read through
        ``SCHEMA_FIELDS``; a field it refuses raises ``error`` after ``where``."""
        fields = read_fields(where, record, SCHEMA_FIELDS, error)
        return cls(name=fields["name"], slots=tuple(fields["slots"]), open_schema=fields["open"])

    @classmethod
    def aloe(cls) -> "SlotSchema":
        return cls(name="aloe", slots=ALOE_SLOTS)


@dataclass(frozen=True)
class Profile:
    """An ordered slot -> value mapping validated against a schema.

    Treat instances as immutable; entry order is insertion order.  The
    mapping type itself forbids duplicate slot names.
    """

    schema: SlotSchema
    entries: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        schema, entries = self.schema, self.entries
        # A closed schema's slots are all well-formed, so entries whose slots
        # it contains need only their values checked: at once when every
        # value is non-blank text, else by the loop below, which names the
        # first bad one.
        slots_ok = not schema.open_schema and entries.keys() <= schema.slot_set
        if slots_ok:
            try:
                if all(map(str.strip, entries.values())):
                    return
            except TypeError:
                pass
        for slot, value in entries.items():
            if not slots_ok:
                if not isinstance(slot, str) or not slot.strip():
                    raise ValueError(f"bad slot name: {slot!r}")
                if not schema.allows(slot):
                    raise SchemaError(
                        f"slot {slot!r} not allowed by closed schema {schema.name!r}"
                    )
            if not isinstance(value, str) or not value.strip():
                raise ValueError(f"value for slot {slot!r} must be non-empty text, got {value!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def to_record(self) -> dict:
        return {"schema": self.schema.to_record(), "entries": dict(self.entries)}


# A profile record's fields, and those of a schema record (an inline profile
# ``schema``, or a checkpoint's).
PROFILE_FIELDS = {"schema": Field("text or object"), "entries": Field("object")}
SCHEMA_FIELDS = {"name": Field("text"), "slots": Field("texts"),
                 "open": Field("boolean", default=False)}


def load_profile(record: Mapping, where: str = "", error: type[Exception] = ValueError) -> Profile:
    """Build a Profile from a parsed JSON record ``{"schema": ..., "entries": ...}``,
    read through ``PROFILE_FIELDS``; a field it refuses raises ``error`` after ``where``.

    ``schema`` may be an inline ``{"name", "slots", "open"}`` object, as
    ``Profile.to_record`` writes it (``slots`` defaults to the entry keys),
    ``"aloe"`` (built in), or any other name (treated as an open schema
    inferred from the entry keys).
    """
    fields = read_fields(where, record, PROFILE_FIELDS, error)
    entries, spec = dict(fields["entries"]), fields["schema"]
    if isinstance(spec, dict):
        schema = SlotSchema.from_record({"slots": list(entries), **spec}, f"{where}schema ", error)
    elif spec == "aloe":
        schema = SlotSchema.aloe()
    else:
        schema = SlotSchema(name=spec, slots=tuple(entries), open_schema=True)
    return Profile(schema=schema, entries=entries)


# --- matchers ---------------------------------------------------------------


@dataclass(frozen=True)
class SlotMatcher:
    """Deterministic predicate deciding whether two slot values agree.

    ``kind`` selects the rule: ``"exact"`` compares normalized strings, and
    ``"token"`` compares Jaccard overlap of normalized token sets against
    ``threshold``.  Both rules are symmetric and reflexive.  A matcher is
    logged and checkpointed by its ``label``, so only thresholds the label
    reproduces exactly (at most 6 significant digits) are accepted.
    """

    kind: str = "exact"
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "token"):
            raise ConfigError(f"unknown matcher kind {self.kind!r}")
        if self.kind == "exact" and self.threshold != 0.5:
            raise ConfigError("exact matcher takes no threshold")
        if self.kind == "token" and not (0.0 < self.threshold <= 1.0):
            raise ConfigError(f"token threshold must be in (0, 1], got {self.threshold}")
        if self.kind == "token" and float(f"{self.threshold:g}") != self.threshold:
            raise ConfigError(
                f"token threshold {self.threshold!r} is not reproduced by its label "
                f"{self.label!r}; use at most 6 significant digits"
            )

    def values_match(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` agree; reflexive (``a is b``) for non-empty
        normalized text, as 0 < threshold <= 1."""
        if self.kind == "exact":
            na = normalize_text(a)
            return na != "" and (a is b or na == normalize_text(b))
        ta = token_set(a)
        if a is b:
            return bool(ta)
        tb = token_set(b)
        return bool(ta and tb) and len(ta & tb) / len(ta | tb) >= self.threshold

    @property
    def label(self) -> str:
        if self.kind == "token":
            return f"token:{self.threshold:g}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "SlotMatcher":
        """Parse a CLI-style matcher spec: ``exact`` or ``token[:<threshold>]``."""
        head, _, tail = text.partition(":")
        if head == "exact":
            if tail:
                raise ConfigError("exact matcher takes no threshold")
            return cls(kind="exact")
        if head == "token":
            try:
                return cls(kind="token", threshold=float(tail) if tail else 0.5)
            except ValueError:
                raise ConfigError(f"token threshold must be a number, got {tail!r}") from None
        raise ConfigError(f"cannot parse matcher spec {text!r}")


_HALF_TOKEN_MATCHER = SlotMatcher(kind="token", threshold=0.5)


def clearly_different(
    value: str, candidates: Iterable[str], matcher: SlotMatcher | None = None
) -> list[str]:
    """The candidates that match ``value`` under neither bundled matcher, nor
    under ``matcher`` when one is given.

    A token:0.5 match is implied by an exact match of non-empty text, so
    ruling it out rules out both.
    """
    matchers = [_HALF_TOKEN_MATCHER] + ([matcher] if matcher else [])
    return [c for c in candidates if not any(m.values_match(c, value) for m in matchers)]


# --- overlap scoring ---------------------------------------------------------


def _check_same_family(estimate: Profile, truth: Profile) -> None:
    if estimate.schema.name != truth.schema.name:
        raise SchemaError(
            f"schema mismatch: {estimate.schema.name!r} vs {truth.schema.name!r}"
        )


class MatchTable(dict):
    """(slot, value) -> whether the pair matches ``truth`` under ``matcher``,
    filled through ``SlotMatcher.values_match`` on first lookup; it grows by
    the distinct pairs looked up."""

    __slots__ = ("truth", "matcher")

    def __init__(self, truth: Profile, matcher: SlotMatcher) -> None:
        super().__init__()
        self.truth, self.matcher = truth, matcher

    def __missing__(self, pair: tuple[str, str]) -> bool:
        slot, value = pair
        other = self.truth.entries.get(slot)
        hit = self[pair] = other is not None and self.matcher.values_match(value, other)
        return hit

    @classmethod
    def per_row(cls, truths: Sequence[Profile], matcher: SlotMatcher) -> tuple["MatchTable", ...]:
        """One table per row of ``truths`` under ``matcher``; rows holding one
        truth object share its table."""
        made = {key: cls(truth, matcher) for key, truth in {id(t): t for t in truths}.items()}
        return tuple(made[id(truth)] for truth in truths)


def overlap_count(
    estimate: Profile, truth: Profile, matcher: SlotMatcher, matches: MatchTable | None = None
) -> int:
    """Number of estimate entries whose slot exists in truth with a matching value.

    Bounded by min(len(estimate), len(truth)) because both sides are mappings.
    ``matches``, when given, must be a ``MatchTable`` of this very ``truth``
    object and of ``matcher``; without it, a fresh one is used.
    """
    _check_same_family(estimate, truth)
    if matches is None:
        matches = MatchTable(truth, matcher)
    elif matches.truth is not truth or (
        matches.matcher is not matcher and matches.matcher != matcher
    ):
        raise ValueError("matches is not the MatchTable of this truth and matcher")
    return sum(map(matches.__getitem__, estimate.entries.items()))


def precision_recall(
    estimate: Profile, truth: Profile, matcher: SlotMatcher
) -> tuple[float, float]:
    """(precision, recall) of the estimate; empty estimate yields precision 0."""
    if len(truth) == 0:
        raise ValueError("truth profile must be non-empty")
    overlap = overlap_count(estimate, truth, matcher)
    precision = overlap / len(estimate) if len(estimate) else 0.0
    recall = overlap / len(truth)
    return precision, recall


def profile_reward(
    estimate: Profile, truth: Profile, matcher: SlotMatcher, matches: MatchTable | None = None
) -> float:
    """F1-style overlap reward 2|inter| / (|estimate| + |truth|), in [0, 1];
    ``matches`` as for ``overlap_count``."""
    n_estimate, n_truth = len(estimate.entries), len(truth.entries)
    if n_truth == 0:
        raise ValueError("truth profile must be non-empty")
    overlap = overlap_count(estimate, truth, matcher, matches)
    if n_estimate == 0:
        return 0.0
    return 2.0 * overlap / (n_estimate + n_truth)


# --- matcher benchmark -------------------------------------------------------


@cache  # read on first use, not at import, and kept
def _load_rewrite_tables() -> dict:
    with resources.files("dialign.data").joinpath("paraphrase.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class OverlapBenchCase:
    """One benchmark item: a rewritten profile with a known true overlap."""

    original: Profile
    rewritten: Profile
    ground_truth_overlap: int
    altered_count: int


def _paraphrase(value: str, rules: Sequence[str], rng: random.Random) -> str:
    template = rng.choice(list(rules))
    return template.format(value=value)


def _alter(
    slot: str,
    value: str,
    pools: Mapping[str, Sequence[str]],
    rng: random.Random,
    counter: int,
) -> str:
    candidates = clearly_different(value, pools.get(slot, []))
    if candidates:
        return rng.choice(candidates)
    return f"substitute{counter} item{counter}"


def build_overlap_bench(
    source: Profile,
    a: int,
    b: int,
    seed: int,
    paraphrase: bool = True,
) -> OverlapBenchCase:
    """Rewrite ``a`` entries as paraphrases and ``b`` as altered values.

    The rewritten profile contains exactly the a + b rewritten entries;
    untouched entries are excluded.  With ``paraphrase=False`` the ``a``
    entries are copied verbatim (identity rewrite), which calibrates
    exact matchers.  Deterministic for a given (source, a, b, seed).
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be non-negative")
    if a + b > len(source):
        raise ValueError(f"a+b={a+b} exceeds profile size {len(source)}")
    tables = _load_rewrite_tables()
    rng = random.Random(seed)
    slots = list(source.entries)
    rng.shuffle(slots)
    para_slots, alter_slots = slots[:a], slots[a : a + b]
    rewritten: dict[str, str] = {}
    for slot in source.entries:  # preserve source order in the rewrite
        if slot in para_slots:
            original_value = source.entries[slot]
            rewritten[slot] = (
                _paraphrase(original_value, tables["paraphrase_rules"], rng)
                if paraphrase
                else original_value
            )
        elif slot in alter_slots:
            rewritten[slot] = _alter(
                slot, source.entries[slot], tables["alteration_pools"], rng, len(rewritten)
            )
    return OverlapBenchCase(
        original=source,
        rewritten=Profile(schema=source.schema, entries=rewritten),
        ground_truth_overlap=a,
        altered_count=b,
    )


def eval_matcher(
    cases: Iterable[OverlapBenchCase], matcher: SlotMatcher
) -> dict[str, float]:
    """Score a matcher's predicted overlap against the known answers.

    Returns exact accuracy, fuzzy accuracy (off by at most one), MSE, and
    RMSE over the case list.
    """
    preds: list[int] = []
    truths: list[int] = []
    for case in cases:
        preds.append(overlap_count(case.rewritten, case.original, matcher))
        truths.append(case.ground_truth_overlap)
    if not preds:
        raise ValueError("eval_matcher needs at least one case")
    n = len(preds)
    errors = [p - t for p, t in zip(preds, truths)]
    exact = sum(1 for e in errors if e == 0) / n
    fuzzy = sum(1 for e in errors if abs(e) <= 1) / n
    mse = sum(e * e for e in errors) / n
    return {"exact_acc": exact, "fuzzy_acc": fuzzy, "mse": mse, "rmse": mse**0.5}
