from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialign.env import UNKNOWN_VALUE, EnvView, _turn_scores
from dialign.errors import SchemaError
from dialign.profiles import (
    MatchTable, Profile, SlotMatcher, SlotSchema, normalize_text, profile_reward,
)
from dialign.reward import (
    JudgeContext,
    ResponseJudgment,
    RuleJudge,
    alignment_verdict,
    combined_reward,
    response_reward,
)
from dialign.user_sim import UserUtterance

_SCHEMA = SlotSchema.aloe()


@dataclass(frozen=True)
class FakeResponse:
    addressed_slots: tuple[tuple[str, str], ...]
    continues: bool = True


def _estimate(**entries: str) -> Profile:
    return Profile(schema=_SCHEMA, entries=dict(entries))


def _view(context: JudgeContext) -> EnvView:
    """The view after one user turn with ``context``'s topics, which reveals
    evidence exactly when ``context`` says evidence has been revealed."""
    evidence = (("Age", "34"),) if context.evidence_revealed else ()
    return EnvView(_SCHEMA).with_user_turn(UserUtterance("u", evidence, 1, context.latest_topics))


def _judgment(**overrides: int | float) -> ResponseJudgment:
    base = dict(
        naturalness=1,
        relevance=1,
        logical_consistency=1,
        engagement=1,
        informativeness=1,
        preference_expression=1.0,
        style_consistency=1.0,
        goal_alignment=1.0,
        persona_coherence=1.0,
    )
    base.update(overrides)
    return ResponseJudgment(**base)


# --- product rule ---------------------------------------------------------------


def test_response_reward_is_product_over_all_32_criterion_vectors() -> None:
    names = (
        "naturalness",
        "relevance",
        "logical_consistency",
        "engagement",
        "informativeness",
    )
    for bits in itertools.product((0, 1), repeat=5):
        judgment = _judgment(**dict(zip(names, bits)))
        expected = bits[0] * bits[1] * bits[2] * bits[3] * bits[4]
        assert response_reward(judgment.criteria()) == expected
        assert response_reward(judgment.criteria()) == int(all(bits))


def test_response_reward_rejects_non_binary_criteria() -> None:
    with pytest.raises(ValueError):
        response_reward(_judgment(relevance=2).criteria())
    with pytest.raises(ValueError):
        response_reward(_judgment(engagement=-1).criteria())


# --- per-rule traces --------------------------------------------------------------


def test_naturalness_is_constant_one() -> None:
    judge = RuleJudge()
    context = JudgeContext(latest_topics=(), evidence_revealed=False)
    verdict = judge.judge(FakeResponse(addressed_slots=()), _estimate(), context)
    assert verdict.naturalness == 1


def test_relevance_requires_addressing_a_latest_topic() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34", Occupation="nurse")
    context = JudgeContext(latest_topics=("Age",), evidence_revealed=True)
    on_topic = judge.judge(FakeResponse(addressed_slots=(("Age", "34"),)), estimate, context)
    off_topic = judge.judge(
        FakeResponse(addressed_slots=(("Occupation", "nurse"),)), estimate, context
    )
    assert on_topic.relevance == 1
    assert off_topic.relevance == 0


def test_relevance_is_vacuous_without_a_topic() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34")
    context = JudgeContext(latest_topics=(), evidence_revealed=True)
    verdict = judge.judge(FakeResponse(addressed_slots=(("Age", "34"),)), estimate, context)
    assert verdict.relevance == 1


def test_logical_consistency_checks_against_own_estimate() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34")
    context = JudgeContext(latest_topics=("Age",), evidence_revealed=True)
    agree = judge.judge(FakeResponse(addressed_slots=(("Age", "34"),)), estimate, context)
    disagree = judge.judge(FakeResponse(addressed_slots=(("Age", "40"),)), estimate, context)
    assert agree.logical_consistency == 1
    assert disagree.logical_consistency == 0


def test_addressing_a_slot_missing_from_the_estimate_is_inconsistent() -> None:
    judge = RuleJudge()
    context = JudgeContext(latest_topics=("Age",), evidence_revealed=True)
    verdict = judge.judge(FakeResponse(addressed_slots=(("Age", "34"),)), _estimate(), context)
    assert verdict.logical_consistency == 0


def test_contradicting_an_earlier_response_fails_consistency() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34")
    context = JudgeContext(latest_topics=("Age",), evidence_revealed=True)
    # An earlier response said 34 and the estimate still says 34, so claiming
    # 40 now disagrees with the estimate: that is how a contradiction shows.
    verdict = judge.judge(FakeResponse(addressed_slots=(("Age", "40"),)), estimate, context)
    assert verdict.logical_consistency == 0


def test_revision_after_estimate_change_is_not_a_contradiction() -> None:
    judge = RuleJudge()
    # Earlier the agent said 34; its estimate later moved to 40 (e.g. after a
    # preference conflict), so repeating the new value is legitimate.
    estimate = _estimate(Age="40")
    context = JudgeContext(latest_topics=("Age",), evidence_revealed=True)
    verdict = judge.judge(FakeResponse(addressed_slots=(("Age", "40"),)), estimate, context)
    assert verdict.logical_consistency == 1


def test_sticking_to_a_stale_belief_contradicts_history_rule() -> None:
    judge = RuleJudge()
    # prior said 34, estimate still 34, now addressing 40: the estimate
    # mismatch forces the criterion to 0 even when the turn has no topic.
    estimate = _estimate(Age="34")
    context = JudgeContext(latest_topics=(), evidence_revealed=True)
    verdict = judge.judge(FakeResponse(addressed_slots=(("Age", "40"),)), estimate, context)
    assert verdict.logical_consistency == 0


def test_engagement_tracks_continuation_flag() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34")
    context = JudgeContext(latest_topics=(), evidence_revealed=False)
    engaged = judge.judge(FakeResponse(addressed_slots=(), continues=True), estimate, context)
    closed = judge.judge(FakeResponse(addressed_slots=(), continues=False), estimate, context)
    assert engaged.engagement == 1
    assert closed.engagement == 0


def test_informativeness_vacuous_before_evidence_then_requires_addressing() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34")
    before = JudgeContext(latest_topics=(), evidence_revealed=False)
    after = JudgeContext(latest_topics=(), evidence_revealed=True)
    silent = FakeResponse(addressed_slots=())
    speaking = FakeResponse(addressed_slots=(("Age", "34"),))
    assert judge.judge(silent, estimate, before).informativeness == 1
    assert judge.judge(silent, estimate, after).informativeness == 0
    assert judge.judge(speaking, estimate, after).informativeness == 1


def test_malformed_addressed_pairs_raise() -> None:
    judge = RuleJudge()
    context = JudgeContext(latest_topics=(), evidence_revealed=False)
    with pytest.raises(ValueError):
        judge.judge(FakeResponse(addressed_slots=(("Age", ""),)), _estimate(), context)
    with pytest.raises(ValueError):
        judge.judge(FakeResponse(addressed_slots=(("", "34"),)), _estimate(), context)


def test_graded_dimensions_are_logged_but_do_not_gate_reward() -> None:
    judge = RuleJudge()
    estimate = _estimate(Age="34", Occupation="nurse")
    context = JudgeContext(latest_topics=("Age",), evidence_revealed=True)
    verdict = judge.judge(
        FakeResponse(addressed_slots=(("Age", "34"), ("Occupation", "teacher"))),
        estimate,
        context,
    )
    # Half the addressed values agree with the estimate.
    assert verdict.preference_expression == pytest.approx(0.5)
    assert verdict.persona_coherence == pytest.approx(1.0)
    assert set(verdict.dimensions()) == {
        "preference_expression",
        "style_consistency",
        "goal_alignment",
        "persona_coherence",
    }
    # The graded values vary while the reward stays the binary product.
    assert response_reward(verdict.criteria()) == 0  # estimate mismatch zeroed consistency


# --- aggregation ------------------------------------------------------------------


def test_combined_reward_weighted_sum() -> None:
    assert combined_reward(0.4, 1.0) == pytest.approx(1.4)
    assert combined_reward(0.4, 1.0, weights=(1.0, 0.0)) == pytest.approx(0.4)
    assert combined_reward(0.4, 1.0, weights=(0.0, 1.0)) == pytest.approx(1.0)
    assert combined_reward(0.5, 1.0, weights=(2.0, 3.0)) == pytest.approx(4.0)


def test_combined_reward_rejects_negative_weights() -> None:
    with pytest.raises(ValueError):
        combined_reward(0.5, 1.0, weights=(-1.0, 1.0))


@pytest.mark.parametrize(
    "weights", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf")), (1.0, float("nan"))]
)
def test_combined_reward_rejects_non_finite_weights(weights: tuple[float, float]) -> None:
    with pytest.raises(ValueError, match="finite"):
        combined_reward(0.5, 1.0, weights=weights)


# --- evaluation-time verdict ---------------------------------------------------------


def test_alignment_verdict_needs_truth_agreement() -> None:
    matches = MatchTable(_estimate(Age="34", Occupation="nurse"), SlotMatcher(kind="exact"))
    right = FakeResponse(addressed_slots=(("Age", "34"),))
    wrong = FakeResponse(addressed_slots=(("Age", "40"),))
    passing = _judgment()
    assert alignment_verdict(right, response_reward(passing.criteria()), matches)
    assert not alignment_verdict(wrong, response_reward(passing.criteria()), matches)


def test_alignment_verdict_requires_personalization_and_passing_criteria() -> None:
    matches = MatchTable(_estimate(Age="34"), SlotMatcher(kind="exact"))
    empty = FakeResponse(addressed_slots=())
    assert not alignment_verdict(empty, response_reward(_judgment().criteria()), matches)
    right = FakeResponse(addressed_slots=(("Age", "34"),))
    failing = _judgment(engagement=0)
    assert not alignment_verdict(right, response_reward(failing.criteria()), matches)


def test_alignment_verdict_rejects_slots_absent_from_truth() -> None:
    matches = MatchTable(_estimate(Age="34"), SlotMatcher(kind="exact"))
    response = FakeResponse(addressed_slots=(("Occupation", "nurse"),))
    assert not alignment_verdict(response, response_reward(_judgment().criteria()), matches)


_VERDICT_SLOTS = ("Age", "Occupation", "Location", "Interests")
_VERDICT_VALUES = ("34", "nurse", "Paris", "hiking and chess", "night shift nurse")
# Paraphrases keep a value's normalized text or most of its tokens; the
# other values of the pool stand for altered ones.
_REWORDINGS = ("{}", "{}.", "  {} ", "{} indeed", "really {} now")


@settings(max_examples=300, deadline=None)
@given(
    truth=st.dictionaries(
        st.sampled_from(_VERDICT_SLOTS), st.sampled_from(_VERDICT_VALUES), min_size=1
    ),
    pairs=st.lists(
        st.tuples(st.sampled_from(_VERDICT_SLOTS + ("Pets",)), st.sampled_from(_VERDICT_VALUES),
                  st.sampled_from(_REWORDINGS)),
        max_size=3,
    ),
    as_lists=st.booleans(),
    reward=st.sampled_from([0, 1, 0.0, 1.0]),
    matcher=st.sampled_from([SlotMatcher.parse(s) for s in ("exact", "token:0.5", "token:0.2")]),
)
@example(truth={"Age": "34", "Occupation": "nurse"}, pairs=[("Age", "nurse", "{}")],
         as_lists=False, reward=1, matcher=SlotMatcher(kind="exact"))
@example(truth={"Age": "34"}, pairs=[("Pets", "34", "{}")], as_lists=True, reward=1.0,
         matcher=SlotMatcher.parse("token:0.5"))
def test_alignment_verdict_equals_the_rule_written_out(
    truth: dict, pairs: list, as_lists: bool, reward: float, matcher: SlotMatcher
) -> None:
    """Aligned exactly when the reward is 1, at least one pair is addressed,
    and each addressed slot is in the truth with a matching value."""
    addressed = tuple((slot, wording.format(value)) for slot, value, wording in pairs)
    if as_lists:
        addressed = tuple(list(pair) for pair in addressed)
    expected = reward == 1 and len(addressed) >= 1 and all(
        slot in truth and matcher.values_match(value, truth[slot]) for slot, value in addressed
    )
    matches = MatchTable(_estimate(**truth), matcher)
    response = FakeResponse(addressed_slots=addressed)
    assert alignment_verdict(response, reward, matches) is expected
    assert alignment_verdict(response, reward, matches) is expected  # read from the table


def test_turn_scores_raises_pair_then_empty_truth_then_schema_errors() -> None:
    matcher = SlotMatcher(kind="exact")
    context = JudgeContext(latest_topics=(), evidence_revealed=False)
    estimate = _estimate(Age="34")
    other = SlotSchema(name="other", slots=("Age",))
    empty_other, other_truth = Profile(schema=other), Profile(schema=other, entries={"Age": "34"})
    bad, good = FakeResponse(addressed_slots=(("Age", ""),)), FakeResponse(addressed_slots=())
    with pytest.raises(ValueError, match="addressed value for 'Age' must be non-empty text"):
        _turn_scores(bad, estimate, _view(context), MatchTable(empty_other, matcher))
    with pytest.raises(ValueError, match="truth profile must be non-empty"):
        _turn_scores(good, estimate, _view(context), MatchTable(empty_other, matcher))
    with pytest.raises(SchemaError, match="schema mismatch: 'aloe' vs 'other'"):
        _turn_scores(good, estimate, _view(context), MatchTable(other_truth, matcher))


# --- parity with the per-criterion reference ------------------------------------------


def _reference_judgment(
    response: FakeResponse, estimate: Profile, context: JudgeContext
) -> ResponseJudgment:
    """The judge as one pass per criterion: validate every pair, then relevance
    from a set of addressed names, consistency, and coherence each on their own."""
    addressed = tuple(response.addressed_slots)
    for pair in addressed:
        if len(pair) != 2:
            raise ValueError(f"addressed entry must be a (slot, value) pair: {pair!r}")
        slot, value = pair
        if not isinstance(slot, str) or not slot.strip():
            raise ValueError(f"addressed slot must be non-empty text: {slot!r}")
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"addressed value for {slot!r} must be non-empty text")
    relevance = 1
    if context.latest_topics:
        names = {slot for slot, _ in addressed}
        relevance = int(any(topic in names for topic in context.latest_topics))
    consistent = 0
    for slot, value in addressed:
        believed = estimate.entries.get(slot)
        if believed is not None and normalize_text(value) == normalize_text(believed):
            consistent += 1
    informativeness = 1 if not context.evidence_revealed else int(len(addressed) >= 1)
    if addressed:
        pref_expr = consistent / len(addressed)
        coherence = sum(1 for s, _ in addressed if s in estimate.entries) / len(addressed)
    else:
        pref_expr = coherence = 0.0 if context.evidence_revealed else 1.0
    return ResponseJudgment(
        naturalness=1,
        relevance=relevance,
        logical_consistency=int(consistent == len(addressed)),
        engagement=int(bool(response.continues)),
        informativeness=informativeness,
        preference_expression=pref_expr,
        style_consistency=1.0,
        goal_alignment=float(relevance),
        persona_coherence=coherence,
    )


def _reference_score(
    response: FakeResponse, estimate: Profile, context: JudgeContext, truth: Profile,
    matcher: SlotMatcher,
) -> tuple:
    """_turn_scores's fields with the total after the two rewards, the reward read from the criteria dict and recomputed
    for the alignment verdict."""
    judgment = _reference_judgment(response, estimate, context)

    def product(j: ResponseJudgment) -> int:
        total = 1
        for criterion in j.criteria().values():
            if criterion not in (0, 1):
                raise ValueError(f"criteria must be binary, got {criterion!r}")
            total *= criterion
        return total

    r_response = float(product(judgment))
    r_profile = profile_reward(estimate, truth, matcher)
    aligned = product(judgment) == 1 and bool(response.addressed_slots) and all(
        truth.entries.get(slot) is not None
        and matcher.values_match(value, truth.entries[slot])
        for slot, value in response.addressed_slots
    )
    return (r_profile, r_response, r_profile + r_response, judgment.criteria(),
            judgment.dimensions(), aligned)


def _typed(values) -> list:
    """Each value with its type, so 1 and 1.0 count as different."""
    return [(type(v), v) for v in values]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


_PARITY_SLOTS = ("Age", "Occupation", "Location", "Interests")
# "Nurse." and " nurse" equal "nurse" only after normalize_text; "" and "  " are blank.
_PARITY_VALUES = ("nurse", "Nurse.", " nurse", "teacher", "34", "thirty four")
_ADDRESSED_VALUES = _PARITY_VALUES + ("", "  ")
# A policy fills a slot it has no evidence for with the unknown placeholder.
_ESTIMATE_VALUES = _PARITY_VALUES + (UNKNOWN_VALUE,)
_PARITY_MATCHERS = [
    SlotMatcher.parse(spec) for spec in ("exact", "token:0.5", "token:0.2", "token:1")
]


@settings(max_examples=400, deadline=None)
@given(
    estimate=st.dictionaries(st.sampled_from(_PARITY_SLOTS), st.sampled_from(_ESTIMATE_VALUES)),
    truth=st.dictionaries(
        st.sampled_from(_PARITY_SLOTS), st.sampled_from(_PARITY_VALUES), min_size=1
    ),
    addressed=st.lists(
        st.tuples(st.sampled_from(_PARITY_SLOTS + ("", "Pets")), st.sampled_from(_ADDRESSED_VALUES)),
        max_size=3,
    ),
    topics=st.lists(st.sampled_from(_PARITY_SLOTS), max_size=2, unique=True),
    revealed=st.booleans(),
    continues=st.booleans(),
    matcher=st.sampled_from(_PARITY_MATCHERS),
)
def test_judge_and_turn_scores_equal_the_per_criterion_reference(
    estimate: dict, truth: dict, addressed: list, topics: list, revealed: bool,
    continues: bool, matcher: SlotMatcher,
) -> None:
    response = FakeResponse(addressed_slots=tuple(addressed), continues=continues)
    est, tru = _estimate(**estimate), _estimate(**truth)
    context = JudgeContext(latest_topics=tuple(topics), evidence_revealed=revealed)

    judged = _outcome(RuleJudge().judge, response, est, context)
    reference = _outcome(_reference_judgment, response, est, context)
    if judged[0] != "ok" or reference[0] != "ok":
        assert judged == reference
        return
    assert _typed(astuple(judged[1])) == _typed(astuple(reference[1]))

    profile, reward, criteria, dimensions, aligned = _turn_scores(
        response, est, _view(context), MatchTable(tru, matcher)
    )
    expected = _reference_score(response, est, context, tru, matcher)
    actual = (profile, reward, profile + reward, criteria, dimensions, aligned)
    assert _typed(actual[:3]) == _typed(expected[:3])
    assert actual[3:] == expected[3:]
    assert _typed(actual[3].values()) == _typed(expected[3].values())
    assert _typed(actual[4].values()) == _typed(expected[4].values())
    assert type(actual[5]) is bool
