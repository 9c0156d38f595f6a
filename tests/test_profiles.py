from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialign.errors import ConfigError, SchemaError
from dialign.profiles import (
    ALOE_SLOTS,
    MatchTable,
    OverlapBenchCase,
    Profile,
    SlotMatcher,
    SlotSchema,
    build_overlap_bench,
    eval_matcher,
    load_profile,
    normalize_text,
    overlap_count,
    precision_recall,
    profile_reward,
    token_set,
)

_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "dialign" / "data" / "value_pools.json").read_text()
)["aloe"]


def _random_profile(rng: random.Random, max_entries: int = 10) -> Profile:
    schema = SlotSchema.aloe()
    n = rng.randint(1, max_entries)
    slots = rng.sample(list(schema.slots), n)
    entries = {slot: rng.choice(_POOLS[slot]) for slot in slots}
    return Profile(schema=schema, entries=entries)


def _brute_force_overlap(estimate: Profile, truth: Profile, matcher: SlotMatcher) -> int:
    # Independent oracle: plain double loop over slot pairs.
    count = 0
    for slot, value in estimate.entries.items():
        for t_slot, t_value in truth.entries.items():
            if slot == t_slot and matcher.values_match(value, t_value):
                count += 1
    return count


def _brute_force_f1(estimate: Profile, truth: Profile, matcher: SlotMatcher) -> float:
    overlap = _brute_force_overlap(estimate, truth, matcher)
    denom = len(estimate.entries) + len(truth.entries)
    return 2.0 * overlap / denom if denom else 0.0


# --- normalization and tokens -------------------------------------------------


def test_normalize_text_casefolds_and_strips_punctuation() -> None:
    assert normalize_text("  Hiking, Reading!  ") == "hiking reading"
    assert normalize_text("PhD") == "phd"
    assert normalize_text("") == ""


def test_token_set_is_order_insensitive() -> None:
    assert token_set("reading hiking") == token_set("Hiking, reading")
    assert token_set("solo value") == frozenset({"solo", "value"})


# --- schema and profile validation --------------------------------------------


def test_aloe_schema_has_ten_slots() -> None:
    schema = SlotSchema.aloe()
    assert schema.slots == ALOE_SLOTS
    assert len(schema.slots) == 10
    assert not schema.open_schema


def test_profile_rejects_unknown_slot_in_closed_schema() -> None:
    schema = SlotSchema.aloe()
    with pytest.raises(SchemaError):
        Profile(schema=schema, entries={"Favorite Cuisine": "italian"})


def test_profile_rejects_empty_value() -> None:
    schema = SlotSchema.aloe()
    with pytest.raises(ValueError):
        Profile(schema=schema, entries={"Age": "  "})


def test_open_schema_accepts_new_slots() -> None:
    schema = SlotSchema(name="extended", slots=ALOE_SLOTS + ("Pets",), open_schema=True)
    profile = Profile(schema=schema, entries={"Pets": "two cats", "Age": "30"})
    assert profile.entries["Pets"] == "two cats"


class _Text(str):
    """A str subclass, as a caller's own string type would be."""


def _reference_profile_check(schema: SlotSchema, entries: dict) -> None:
    """Profile validation as one loop over the entries, slot then value, with
    the closed-schema check a scan of the slot tuple."""
    for slot, value in entries.items():
        if not isinstance(slot, str) or not slot.strip():
            raise ValueError(f"bad slot name: {slot!r}")
        if not (schema.open_schema or slot in schema.slots):
            raise SchemaError(f"slot {slot!r} not allowed by closed schema {schema.name!r}")
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"value for slot {slot!r} must be non-empty text, got {value!r}")


def _check_outcome(check, *args) -> tuple:
    try:
        check(*args)
    except (ValueError, SchemaError) as exc:
        return type(exc), str(exc)
    return ("accepted",)


_VALIDATION_SCHEMAS = (
    SlotSchema.aloe(),
    SlotSchema(name="extended", slots=ALOE_SLOTS + ("Pets",), open_schema=True),
    SlotSchema(name="mini", slots=("Age", "Pets")),
)
_VALIDATION_SLOTS = ("Age", "Occupation", "Pets", "Favorite Cuisine", "", "   ", 3, None,
                     _Text("Age"), _Text("Pets"), _Text(" "))
_VALIDATION_VALUES = ("34", "two cats", "", "  \t", 5, None, 1.5, _Text("nurse"), _Text("  "))


@settings(max_examples=500, deadline=None)
@given(
    schema=st.sampled_from(_VALIDATION_SCHEMAS),
    pairs=st.lists(
        st.tuples(st.sampled_from(_VALIDATION_SLOTS), st.sampled_from(_VALIDATION_VALUES)),
        max_size=5,
    ),
)
def test_profile_validation_equals_the_reference_loop(schema: SlotSchema, pairs: list) -> None:
    entries = dict(pairs)
    expected = _check_outcome(_reference_profile_check, schema, entries)
    assert _check_outcome(Profile, schema, entries) == expected
    if expected == ("accepted",):
        assert Profile(schema=schema, entries=entries).entries == entries


def test_load_profile_round_trips_record() -> None:
    for schema in (
        SlotSchema.aloe(),
        SlotSchema("custom", ("Age", "Location", "Job"), open_schema=False),
        # Open, with a slot the entries leave out.
        SlotSchema("wide", ("Age", "Location", "Job"), open_schema=True),
    ):
        profile = Profile(schema=schema, entries={"Age": "34", "Location": "coastal town"})
        loaded = load_profile(json.loads(json.dumps(profile.to_record())))
        assert loaded.entries == profile.entries
        assert loaded.schema == schema
        assert SlotSchema.from_record(schema.to_record()) == schema


def test_a_record_naming_its_schema_only_loads() -> None:
    entries = {"Age": "34", "Hobby": "chess"}
    aloe = load_profile({"schema": "aloe", "entries": {"Age": "34"}})
    assert aloe.schema == SlotSchema.aloe()
    named = load_profile({"schema": "mine", "entries": entries})
    assert named.schema == SlotSchema("mine", ("Age", "Hobby"), open_schema=True)
    assert named.entries == entries


# --- matchers ------------------------------------------------------------------


def test_exact_matcher_uses_normalized_equality() -> None:
    matcher = SlotMatcher(kind="exact")
    assert matcher.values_match("Hiking", "hiking")
    assert matcher.values_match(" hiking ", "hiking")
    assert not matcher.values_match("hiking", "reading")


def test_token_matcher_jaccard_threshold() -> None:
    matcher = SlotMatcher(kind="token", threshold=0.5)
    # 1 shared token of 2 total -> jaccard 0.5, admitted at threshold 0.5.
    assert matcher.values_match("hiking", "hiking outdoors")
    # 1 shared of 3 -> 1/3 < 0.5.
    assert not matcher.values_match("hiking", "hiking outdoors daily")


def test_matcher_parse_builds_labels() -> None:
    assert SlotMatcher.parse("exact").label == "exact"
    token = SlotMatcher.parse("token:0.5")
    assert token.kind == "token"
    assert token.threshold == pytest.approx(0.5)
    assert token.label == "token:0.5"


def test_matcher_parse_rejects_garbage() -> None:
    with pytest.raises(ConfigError):
        SlotMatcher.parse("fuzzy:0.8")
    with pytest.raises(ConfigError):
        SlotMatcher.parse("exact:0.5")


@given(
    spec=st.one_of(
        st.just(("exact", 0.5)),
        st.tuples(
            st.just("token"),
            st.one_of(
                st.integers(min_value=1, max_value=10**6).map(lambda k: k / 10**6),
                st.integers(min_value=1, max_value=10**6).map(lambda k: k / 10**9),
                st.floats(min_value=0.0, max_value=1.0),
            ),
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_matcher_label_parses_back_to_the_same_matcher(spec: tuple[str, float]) -> None:
    # Records and checkpoints keep only the label, so every matcher that
    # can be built must be rebuilt exactly from it.
    kind, threshold = spec
    try:
        matcher = SlotMatcher(kind=kind, threshold=threshold)
    except ConfigError:
        return
    assert SlotMatcher.parse(matcher.label) == matcher


def test_thresholds_the_label_cannot_reproduce_are_rejected() -> None:
    assert SlotMatcher.parse("token:0.123457").label == "token:0.123457"
    for spec in ("token:0.1234567", "token:0.12345671"):
        with pytest.raises(ConfigError):
            SlotMatcher.parse(spec)
    with pytest.raises(ConfigError):
        SlotMatcher(kind="exact", threshold=0.3)


@given(st.text(max_size=20), st.text(max_size=20))
@settings(max_examples=200, deadline=None)
def test_token_matcher_is_symmetric(a: str, b: str) -> None:
    matcher = SlotMatcher(kind="token", threshold=0.5)
    assert matcher.values_match(a, b) == matcher.values_match(b, a)


@given(st.text(min_size=1, max_size=20).filter(lambda s: token_set(s)))
@settings(max_examples=200, deadline=None)
def test_matchers_are_reflexive_on_nonempty_values(value: str) -> None:
    assert SlotMatcher(kind="exact").values_match(value, value)
    assert SlotMatcher(kind="token", threshold=1.0).values_match(value, value)


_EDGE_TEXTS = ("", " ", "  \t\n ", "!?", "...,;", "-- ! --", "Red", "rED wine", "x",
               "Straße", "STRASSE", "café au lait", "日本語", "é", "Ünïcödé  Ünïcödé")


@given(
    st.one_of(st.sampled_from(_EDGE_TEXTS), st.text(max_size=20)),
    st.sampled_from([("exact", 0.5), ("token", 0.2), ("token", 0.5), ("token", 1.0)]),
)
@settings(max_examples=400, deadline=None)
def test_match_of_a_value_with_itself_equals_the_match_with_an_equal_copy(
    a: str, rule: tuple[str, float]
) -> None:
    kind, threshold = rule
    b = (a + ".")[:-1]
    assert b == a
    if b is a:
        # CPython keeps one copy of "" and of each one-character Latin-1
        # string; a trailing space keeps the normalized text and token set.
        b = a + " "
    assert b is not a
    matcher = SlotMatcher(kind=kind, threshold=threshold)
    assert matcher.values_match(a, a) == matcher.values_match(a, b)


# --- overlap and rewards --------------------------------------------------------


def test_overlap_count_matches_brute_force_on_1000_random_pairs() -> None:
    rng = random.Random(0xA10E)
    matchers = [SlotMatcher.parse(spec) for spec in ("exact", "token:0.5", "token:0.2", "token:1")]
    for i in range(1000):
        estimate = _random_profile(rng)
        truth = _random_profile(rng)
        matcher = matchers[i % len(matchers)]
        assert overlap_count(estimate, truth, matcher) == _brute_force_overlap(
            estimate, truth, matcher
        )


def test_profile_reward_matches_brute_force_f1_exactly() -> None:
    rng = random.Random(0xF1)
    matcher = SlotMatcher(kind="exact")
    for _ in range(1000):
        estimate = _random_profile(rng)
        truth = _random_profile(rng)
        assert profile_reward(estimate, truth, matcher) == _brute_force_f1(
            estimate, truth, matcher
        )


def test_profile_reward_hand_value() -> None:
    schema = SlotSchema.aloe()
    truth = Profile(
        schema=schema, entries={"Age": "34", "Location": "coastal town", "Occupation": "nurse"}
    )
    estimate = Profile(schema=schema, entries={"Age": "34", "Occupation": "teacher"})
    # overlap 1, sizes 2 and 3 -> F1 = 2*1/5.
    assert profile_reward(estimate, truth, SlotMatcher(kind="exact")) == pytest.approx(0.4)


def test_profile_reward_empty_estimate_is_zero() -> None:
    schema = SlotSchema.aloe()
    truth = Profile(schema=schema, entries={"Age": "34"})
    empty = Profile(schema=schema, entries={})
    assert profile_reward(empty, truth, SlotMatcher(kind="exact")) == 0.0


def test_profile_reward_requires_nonempty_truth() -> None:
    schema = SlotSchema.aloe()
    empty = Profile(schema=schema, entries={})
    estimate = Profile(schema=schema, entries={"Age": "34"})
    with pytest.raises(ValueError):
        profile_reward(estimate, empty, SlotMatcher(kind="exact"))


def test_overlap_count_rejects_mismatched_schemas() -> None:
    a = Profile(schema=SlotSchema.aloe(), entries={"Age": "34"})
    other = SlotSchema(name="other", slots=("Age",), open_schema=False)
    b = Profile(schema=other, entries={"Age": "34"})
    with pytest.raises(SchemaError):
        overlap_count(a, b, SlotMatcher(kind="exact"))


def test_a_kept_match_table_counts_as_a_fresh_one_and_fits_one_truth_and_matcher() -> None:
    rng = random.Random(0x7AB)
    truth = _random_profile(rng)
    exact, token = SlotMatcher(kind="exact"), SlotMatcher(kind="token", threshold=0.5)
    matches = MatchTable(truth, exact)
    for _ in range(200):
        estimate = _random_profile(rng)
        kept = overlap_count(estimate, truth, exact, matches)
        assert kept == overlap_count(estimate, truth, exact)
    assert set(matches) and all(matches[pair] is hit for pair, hit in matches.items())
    estimate = Profile(schema=truth.schema, entries=dict(truth.entries))
    assert profile_reward(estimate, truth, SlotMatcher(kind="exact"), matches) == 1.0
    twin = Profile(schema=truth.schema, entries=dict(truth.entries))
    for args in ((estimate, twin, exact, matches), (estimate, truth, token, matches)):
        with pytest.raises(ValueError, match="not the MatchTable of this truth and matcher"):
            overlap_count(*args)
        with pytest.raises(ValueError, match="not the MatchTable of this truth and matcher"):
            profile_reward(*args)


def test_precision_recall_hand_values() -> None:
    schema = SlotSchema.aloe()
    truth = Profile(
        schema=schema,
        entries={"Age": "34", "Location": "coastal town", "Occupation": "nurse", "Gender": "woman"},
    )
    estimate = Profile(schema=schema, entries={"Age": "34", "Occupation": "nurse"})
    precision, recall = precision_recall(estimate, truth, SlotMatcher(kind="exact"))
    assert precision == pytest.approx(1.0)
    assert recall == pytest.approx(0.5)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_profile_reward_is_bounded_and_symmetric_in_f1(seed: int) -> None:
    rng = random.Random(seed)
    estimate = _random_profile(rng)
    truth = _random_profile(rng)
    matcher = SlotMatcher(kind="exact")
    reward = profile_reward(estimate, truth, matcher)
    assert 0.0 <= reward <= 1.0
    # F1 is symmetric under swapping estimate and truth for slot-keyed exact matching.
    assert reward == pytest.approx(profile_reward(truth, estimate, matcher))


# --- rewriting benchmark ---------------------------------------------------------


def _bench_source(rng: random.Random) -> Profile:
    schema = SlotSchema.aloe()
    entries = {slot: rng.choice(_POOLS[slot]) for slot in schema.slots}
    return Profile(schema=schema, entries=entries)


def test_bench_case_counts_paraphrased_and_altered() -> None:
    rng = random.Random(3)
    source = _bench_source(rng)
    case = build_overlap_bench(source, a=4, b=3, seed=11)
    assert len(case.rewritten.entries) == 7
    assert case.ground_truth_overlap == 4
    assert case.altered_count == 3


def test_bench_paraphrases_fool_exact_but_not_token_matcher() -> None:
    rng = random.Random(5)
    source = _bench_source(rng)
    case = build_overlap_bench(source, a=5, b=0, seed=2)
    exact = SlotMatcher(kind="exact")
    token = SlotMatcher(kind="token", threshold=0.5)
    assert overlap_count(case.rewritten, case.original, exact) == 0
    assert overlap_count(case.rewritten, case.original, token) == 5


def test_bench_alterations_fool_neither_matcher() -> None:
    rng = random.Random(7)
    source = _bench_source(rng)
    case = build_overlap_bench(source, a=0, b=4, seed=9)
    for matcher in (SlotMatcher(kind="exact"), SlotMatcher(kind="token", threshold=0.5)):
        assert overlap_count(case.rewritten, case.original, matcher) == 0


def test_bench_without_paraphrase_keeps_exact_matches() -> None:
    rng = random.Random(9)
    source = _bench_source(rng)
    case = build_overlap_bench(source, a=5, b=2, seed=4, paraphrase=False)
    exact = SlotMatcher(kind="exact")
    assert overlap_count(case.rewritten, case.original, exact) == 5


def _case_with_overlaps(measured: int, labeled: int) -> OverlapBenchCase:
    """A bench case whose exact-match overlap is `measured` but whose stored
    ground truth says `labeled`, to exercise the statistics arithmetic."""
    schema = SlotSchema.aloe()
    slots = list(schema.slots)
    original = Profile(
        schema=schema, entries={slot: f"value {i}" for i, slot in enumerate(slots)}
    )
    rewritten_entries = {
        slot: (f"value {i}" if i < measured else f"other {i}")
        for i, slot in enumerate(slots[:7])
    }
    rewritten = Profile(schema=schema, entries=rewritten_entries)
    return OverlapBenchCase(
        original=original,
        rewritten=rewritten,
        ground_truth_overlap=labeled,
        altered_count=7 - measured,
    )


def test_eval_matcher_statistics_hand_fixture() -> None:
    # Measured overlaps 4, 4, 3 against labeled truths 4, 3, 5: one exact hit,
    # two within-one hits, MSE (0 + 1 + 4)/3, RMSE its square root.
    cases = [
        _case_with_overlaps(measured=4, labeled=4),
        _case_with_overlaps(measured=4, labeled=3),
        _case_with_overlaps(measured=3, labeled=5),
    ]
    stats = eval_matcher(cases, SlotMatcher(kind="exact"))
    assert stats["exact_acc"] == pytest.approx(1.0 / 3.0)
    assert stats["fuzzy_acc"] == pytest.approx(2.0 / 3.0)
    assert stats["mse"] == pytest.approx(5.0 / 3.0)
    assert stats["rmse"] == pytest.approx(1.2909944487358056)


def test_eval_matcher_end_to_end_calibration() -> None:
    rng = random.Random(21)
    cases = [
        build_overlap_bench(_bench_source(rng), a=rng.randint(0, 5), b=rng.randint(0, 4), seed=i)
        for i in range(40)
    ]
    token_stats = eval_matcher(cases, SlotMatcher(kind="token", threshold=0.5))
    # Token matching recovers paraphrased values and rejects alterations, so it
    # reproduces every ground-truth overlap exactly.
    assert token_stats["exact_acc"] == pytest.approx(1.0)
    assert token_stats["fuzzy_acc"] == pytest.approx(1.0)
    assert token_stats["mse"] == pytest.approx(0.0)
    assert token_stats["rmse"] == pytest.approx(0.0)

    exact_stats = eval_matcher(cases, SlotMatcher(kind="exact"))
    # Exact matching misses every paraphrase, so it can only undercount.
    assert exact_stats["exact_acc"] <= token_stats["exact_acc"]
    assert exact_stats["mse"] >= token_stats["mse"]


def test_eval_matcher_identity_when_paraphrase_disabled() -> None:
    rng = random.Random(23)
    cases = [
        build_overlap_bench(_bench_source(rng), a=3, b=2, seed=i, paraphrase=False)
        for i in range(20)
    ]
    stats = eval_matcher(cases, SlotMatcher(kind="exact"))
    assert stats["exact_acc"] == pytest.approx(1.0)
    assert stats["mse"] == pytest.approx(0.0)


def test_eval_matcher_rejects_empty_input() -> None:
    with pytest.raises(ValueError):
        eval_matcher([], SlotMatcher(kind="exact"))
