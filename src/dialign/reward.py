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

The total reward for a turn is the weighted sum of the profile overlap
reward and this response reward; both weights default to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .profiles import Profile, SlotMatcher, normalize_text


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
        return {
            "naturalness": self.naturalness,
            "relevance": self.relevance,
            "logical_consistency": self.logical_consistency,
            "engagement": self.engagement,
            "informativeness": self.informativeness,
        }

    def dimensions(self) -> dict[str, float]:
        return {
            "preference_expression": self.preference_expression,
            "style_consistency": self.style_consistency,
            "goal_alignment": self.goal_alignment,
            "persona_coherence": self.persona_coherence,
        }


class RuleJudge:
    """Deterministic rule-based judge over structured responses."""

    def judge(
        self, response: ResponseLike, estimate: Profile, context: JudgeContext
    ) -> ResponseJudgment:
        addressed = tuple(response.addressed_slots)
        topics = context.latest_topics
        believed_values = estimate.entries
        # One pass validates each addressed pair and counts those on a topic
        # of the latest utterance, present in the estimate, and agreeing with it.
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
            believed = believed_values.get(slot)
            if believed is not None:
                present += 1
                if normalize_text(value) == normalize_text(believed):
                    consistent += 1

        n = len(addressed)
        relevance = int(on_topic > 0) if topics else 1
        informativeness = 1 if not context.evidence_revealed else int(n >= 1)
        if n:
            pref_expr = consistent / n
            coherence = present / n
        else:
            pref_expr = coherence = 0.0 if context.evidence_revealed else 1.0

        return ResponseJudgment(
            naturalness=1,
            relevance=relevance,
            logical_consistency=int(consistent == n),
            engagement=int(bool(response.continues)),
            informativeness=informativeness,
            preference_expression=pref_expr,
            style_consistency=1.0,
            goal_alignment=float(relevance),
            persona_coherence=coherence,
        )


def response_reward(judgment: ResponseJudgment) -> int:
    """Product of the five binary criteria: 1 only if all pass."""
    total = 1
    for criterion in (
        judgment.naturalness,
        judgment.relevance,
        judgment.logical_consistency,
        judgment.engagement,
        judgment.informativeness,
    ):
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


def alignment_verdict(
    response: ResponseLike,
    reward: float,
    truth: Profile,
    matcher: SlotMatcher,
) -> bool:
    """Evaluation-time alignment check with ground-truth access.

    Unlike the training judge, evaluation sees the user's full profile: a
    turn counts as aligned when the rule criteria all pass (its
    ``response_reward`` is 1), the response personalizes on at least one
    slot, and every addressed value agrees with the truth.
    """
    if reward != 1:
        return False
    addressed = tuple(response.addressed_slots)
    if not addressed:
        return False
    for slot, value in addressed:
        actual = truth.entries.get(slot)
        if actual is None or not matcher.values_match(slot, value, actual):
            return False
    return True
