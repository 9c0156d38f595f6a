"""Response judging and reward aggregation.

The per-turn response reward is the product of five binary criteria:
naturalness, relevance, logical consistency, engagement, and informativeness.
A response earns reward 1 only when every criterion passes.  Four graded
dimensions (preference expression, style consistency, goal alignment,
persona coherence) are scored alongside for logging and never enter the
reward.

Judging is fully rule-based over structured actions, so verdicts are
deterministic and reproducible offline:

* naturalness is constant 1 because surface text is rendered from
  templates; malformed actions raise instead of scoring low,
* relevance requires the response to address a topic slot of the latest
  user utterance (vacuously true when the utterance has no topic),
* logical consistency requires every addressed value to agree with the
  agent's own current estimate, which also rules out contradicting an
  earlier response unless the estimate legitimately changed in between,
* engagement requires the response to carry a continuation element,
* informativeness requires at least one addressed slot once any profile
  evidence has been revealed.

A turn is judged from counts: ``count_addressed`` validates and counts the
addressed pairs in one pass, ``judge_counts`` turns the counts into the
criteria and dimensions, and ``response_reward`` multiplies the criteria.
``RuleJudge.judge`` and ``env._turn_scores`` both go through these three.
``alignment_verdict`` reads the turn's ``profiles.MatchTable``.

The total reward for a turn is the weighted sum of the profile overlap
reward and this response reward; both weights default to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Protocol

from .profiles import MatchTable, Profile, normalize_text


class ResponseLike(Protocol):
    addressed_slots: tuple[tuple[str, str], ...]
    continues: bool


@dataclass(frozen=True)
class JudgeContext:
    """What the judge needs to know about the dialogue so far."""

    latest_topics: tuple[str, ...]
    evidence_revealed: bool


@dataclass(frozen=True)
class ResponseJudgment:
    """Five binary criteria plus four graded diagnostic dimensions."""

    naturalness: int
    relevance: int
    logical_consistency: int
    engagement: int
    informativeness: int
    preference_expression: float
    style_consistency: float
    goal_alignment: float
    persona_coherence: float

    def criteria(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)[:5]}

    def dimensions(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)[5:]}


def count_addressed(
    addressed: tuple[tuple[str, str], ...], topics: tuple[str, ...], believed: Mapping[str, str]
) -> tuple[int, int, int, int]:
    """One pass over a response's addressed pairs: validate each, and count
    (all, on a latest topic, present in the estimate, agreeing with it)."""
    on_topic = present = consistent = 0
    for pair in addressed:
        if len(pair) != 2:
            raise ValueError(f"addressed entry must be a (slot, value) pair: {pair!r}")
        slot, value = pair
        if not isinstance(slot, str) or not slot.strip():
            raise ValueError(f"addressed slot must be non-empty text: {slot!r}")
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"addressed value for {slot!r} must be non-empty text")
        if slot in topics:
            on_topic += 1
        belief = believed.get(slot)
        if belief is not None:
            present += 1
            if normalize_text(value) == normalize_text(belief):
                consistent += 1
    return len(addressed), on_topic, present, consistent


def judge_counts(
    counts: tuple[int, int, int, int], context: JudgeContext, continues: bool
) -> tuple[dict[str, int], dict[str, float]]:
    """The five criteria and four dimensions of a turn whose addressed pairs
    ``count_addressed`` counted, in ``ResponseJudgment`` field order."""
    n, on_topic, present, consistent = counts
    relevance = int(on_topic > 0) if context.latest_topics else 1
    if n:
        pref_expr, coherence = consistent / n, present / n
    else:
        pref_expr = coherence = 0.0 if context.evidence_revealed else 1.0
    criteria = {
        "naturalness": 1,
        "relevance": relevance,
        "logical_consistency": int(consistent == n),
        "engagement": int(bool(continues)),
        "informativeness": 1 if not context.evidence_revealed else int(n >= 1),
    }
    dimensions = {
        "preference_expression": pref_expr,
        "style_consistency": 1.0,
        "goal_alignment": float(relevance),
        "persona_coherence": coherence,
    }
    return criteria, dimensions


class RuleJudge:
    """Deterministic rule-based judge over structured responses."""

    def judge(
        self, response: ResponseLike, estimate: Profile, context: JudgeContext
    ) -> ResponseJudgment:
        counts = count_addressed(
            tuple(response.addressed_slots), context.latest_topics, estimate.entries
        )
        criteria, dimensions = judge_counts(counts, context, response.continues)
        return ResponseJudgment(**criteria, **dimensions)


def response_reward(criteria: Mapping[str, int]) -> int:
    """Product of the five binary criteria: 1 only if all pass."""
    total = 1
    for criterion in criteria.values():
        if criterion not in (0, 1):
            raise ValueError(f"criteria must be binary, got {criterion!r}")
        total *= criterion
    return total


def combined_reward(
    profile_r: float, response_r: float, weights: tuple[float, float] = (1.0, 1.0)
) -> float:
    """Weighted sum w_p * profile + w_r * response; weights must be finite and >= 0."""
    w_profile, w_response = weights
    if not (0 <= w_profile < math.inf and 0 <= w_response < math.inf):
        raise ValueError(f"reward weights must be finite and non-negative, got {weights}")
    return w_profile * profile_r + w_response * response_r


def alignment_verdict(response: ResponseLike, reward: float, matches: MatchTable) -> bool:
    """Evaluation-time alignment check with ground-truth access.

    Unlike the training judge, evaluation sees the user's full profile: a
    turn counts as aligned when the rule criteria all pass (its
    ``response_reward`` is 1), the response personalizes on at least one
    slot, and every addressed value agrees with the truth, as ``matches``
    (the turn's ``MatchTable``) finds it.
    """
    if reward != 1 or not response.addressed_slots:
        return False
    for slot, value in response.addressed_slots:
        if not matches[slot, value]:
            return False
    return True
