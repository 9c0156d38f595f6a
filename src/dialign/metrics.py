"""Evaluation metrics for multi-turn personalization.

Alignment level AL(k) is 100 times the mean binary alignment verdict at
turn k over a set of episodes; AL(k) is ``alignment_curve(scores)[k - 1]``.
To compare how curves improve over turns, a curve is first normalized to
[0, 1] using its global minimum and maximum (an all-equal curve maps to
zeros), then an ordinary least squares line is fitted against turn indices
1..K:

    N-IR  = fitted slope (normalized improvement rate)
    N-R^2 = coefficient of determination of that fit (improvement stability)

Also here: agreement statistics between two binary raters from a confusion
matrix (accuracy, precision, recall, F1, specificity, Cohen's kappa), and
the long-horizon profile-recall curve against the theoretical maximum
recoverable from what the user has actually revealed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import EpisodeRecord
from .profiles import SlotMatcher


# --- alignment curves -------------------------------------------------------


def turn_means(table: np.ndarray) -> list:
    """The per-turn means over episodes of a turns-major ``table`` whose last
    axis is the episodes: the row means of one C-contiguous copy, each the
    pairwise sum that np.mean takes of its row alone."""
    return np.ascontiguousarray(table, dtype=float).mean(axis=-1).tolist()


def alignment_curve(scores: Sequence[Sequence[float]]) -> list[float]:
    """[AL(1), ..., AL(K)] with K the shortest episode's length: 100 x the
    ``turn_means`` of one turns x episodes table.  The first score outside
    [0, 1], turn by turn, raises."""
    if not scores:
        raise ValueError("alignment_curve needs at least one episode")
    # Turn-major, cut to the shortest episode: (0, episodes) when one is empty.
    table = np.array(list(zip(*scores)), dtype=float).reshape(-1, len(scores))
    bad = np.flatnonzero(~((table >= 0.0) & (table <= 1.0)))
    if bad.size:
        raise ValueError(f"alignment scores must lie in [0, 1], got {float(table.flat[bad[0]])}")
    return [100.0 * mean for mean in turn_means(table)]


def normalize_curve(values: Sequence[float]) -> list[float]:
    """Min-max normalize a curve to [0, 1] over its whole range; a constant
    curve maps to all zeros."""
    if len(values) == 0:
        raise ValueError("cannot normalize an empty curve")
    vals = [float(v) for v in values]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return [0.0] * len(vals)
    return [(v - lo) / (hi - lo) for v in vals]


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float


def fit_improvement(normalized: Sequence[float]) -> RegressionFit:
    """OLS of a normalized curve against turn indices 1..K.

    A zero-variance curve fits slope 0 with r_squared 0 (the fit explains
    nothing because there is nothing to explain).
    """
    y = np.asarray(normalized, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need at least two points to fit a trend")
    k = np.arange(1, y.size + 1, dtype=float)
    k_centered = k - k.mean()
    y_centered = y - y.mean()
    denom = float(np.sum(k_centered**2))
    slope = float(np.sum(k_centered * y_centered) / denom)
    intercept = float(y.mean() - slope * k.mean())
    ss_tot = float(np.sum(y_centered**2))
    if ss_tot == 0.0:
        return RegressionFit(slope=0.0, intercept=intercept, r_squared=0.0)
    residuals = y - (slope * k + intercept)
    r_squared = 1.0 - float(np.sum(residuals**2)) / ss_tot
    return RegressionFit(slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass(frozen=True)
class AlignmentSummary:
    """The three headline numbers for one alignment curve."""

    average: float
    n_ir: float
    n_r2: float
    curve: tuple[float, ...]
    normalized: tuple[float, ...]


def summarize_alignment(values: Sequence[float]) -> AlignmentSummary:
    normalized = normalize_curve(values)
    fit = fit_improvement(normalized)
    return AlignmentSummary(
        average=float(np.mean(np.asarray(values, dtype=float))),
        n_ir=fit.slope,
        n_r2=fit.r_squared,
        curve=tuple(float(v) for v in values),
        normalized=tuple(normalized),
    )


# --- rater agreement ---------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name, count in (("tp", self.tp), ("fp", self.fp), ("fn", self.fn), ("tn", self.tn)):
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"{name} must be a non-negative int, got {count!r}")
        if self.total == 0:
            raise ValueError("confusion matrix must contain at least one observation")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class AgreementStats:
    accuracy: float
    precision: float
    recall: float
    f1: float
    specificity: float
    kappa: float | None


def agreement_stats(m: ConfusionMatrix) -> AgreementStats:
    """Binary agreement metrics; zero-denominator ratios are defined as 0,
    and kappa is None when chance agreement is exactly 1."""
    n = m.total
    accuracy = (m.tp + m.tn) / n
    precision = m.tp / (m.tp + m.fp) if (m.tp + m.fp) else 0.0
    recall = m.tp / (m.tp + m.fn) if (m.tp + m.fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    specificity = m.tn / (m.tn + m.fp) if (m.tn + m.fp) else 0.0
    # Chance agreement from the raters' marginal label frequencies.
    p_yes = ((m.tp + m.fp) / n) * ((m.tp + m.fn) / n)
    p_no = ((m.fn + m.tn) / n) * ((m.fp + m.tn) / n)
    p_e = p_yes + p_no
    kappa = None if p_e == 1.0 else (accuracy - p_e) / (1.0 - p_e)
    return AgreementStats(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        specificity=specificity,
        kappa=kappa,
    )


# --- long-horizon profile tracking --------------------------------------------


@dataclass(frozen=True)
class LongtermPoint:
    turn: int
    profile_score: float
    theoretical_max: float


@dataclass(frozen=True)
class LongtermCurve:
    points: tuple[LongtermPoint, ...]
    average: float


def longterm_profile_curve(
    records: Sequence[EpisodeRecord],
    checkpoints: Sequence[int],
    matcher: SlotMatcher | None = None,
) -> LongtermCurve:
    """Profile recall at each checkpoint turn, next to the theoretical max.

    The score is recall of the agent's estimate against the turn's effective
    ground truth: the fraction of true attributes recovered.  Recall is the
    right scale to compare with the reveal ceiling, because any estimate
    built only from revealed evidence can recover at most the revealed
    fraction.  The ``average`` aggregates the score over checkpoints.  Hits
    are counted as ``precision_recall`` counts them, through each record's
    ``EpisodeRecord.match_tables`` (one per truth in force).
    """
    if not records:
        raise ValueError("longterm_profile_curve needs at least one episode")
    if not checkpoints:
        raise ValueError("need at least one checkpoint turn")
    setups = [
        (record, record.match_tables(matcher or SlotMatcher.parse(record.matcher)))
        for record in records
    ]
    points: list[LongtermPoint] = []
    for k in checkpoints:
        if k < 1:
            raise ValueError(f"checkpoint turns must be >= 1, got {k}")
        scores: list[float] = []
        ceilings: list[float] = []
        for record, tables in setups:
            if k > len(record.turns):
                raise ValueError(
                    f"checkpoint {k} beyond episode {record.scenario_id!r}"
                    f" with {len(record.turns)} turns"
                )
            turn, matches = record.turns[k - 1], tables[k - 1]
            scores.append(sum(map(matches.__getitem__, turn.estimate.items())) / len(matches.truth))
            ceilings.append(turn.theoretical_max)
        points.append(LongtermPoint(k, float(np.mean(scores)), float(np.mean(ceilings))))
    average = float(np.mean([p.profile_score for p in points]))
    return LongtermCurve(points=tuple(points), average=average)


def alignment_matrix(records: Sequence[EpisodeRecord]) -> list[list[int]]:
    """Per-episode binary alignment verdicts, ready for alignment_curve."""
    return [[int(t.aligned) for t in record.turns] for record in records]
