from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialign.env import DialogueEnv, EvidenceOracleAgent, rollout
from dialign.metrics import (
    AgreementStats,
    ConfusionMatrix,
    LongtermCurve,
    LongtermPoint,
    agreement_stats,
    alignment_curve,
    alignment_matrix,
    fit_improvement,
    longterm_profile_curve,
    normalize_curve,
    summarize_alignment,
    turn_means,
)
from dialign.profiles import ALOE_SLOTS, Profile, SlotMatcher, SlotSchema, precision_recall
from dialign.scenarios import generate_scenarios
from dialign.user_sim import UserConfig

_POOLS = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "dialign" / "data" / "value_pools.json").read_text()
)["aloe"]


# --- alignment level -----------------------------------------------------------


def test_alignment_level_hand_values() -> None:
    # AL(k) is entry k - 1 of the curve.
    scores = [[1, 0, 1], [0, 0, 1], [1, 1, 1], [0, 1, 1]]
    assert alignment_curve(scores) == pytest.approx([50.0, 50.0, 100.0])


def test_alignment_level_validates_inputs() -> None:
    with pytest.raises(ValueError, match="at least one episode"):
        alignment_curve([])
    for bad in (1.5, -0.25, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            alignment_curve([[1.0, 0.0], [0.0, bad]])


def test_alignment_curve_uses_shortest_episode() -> None:
    scores = [[1, 1, 1, 1], [0, 1, 1]]
    assert alignment_curve(scores) == pytest.approx([50.0, 100.0, 100.0])


def _reference_curve(scores) -> list[float]:
    """[AL(1), ..., AL(K)] as one np.mean per turn over a validated Python column."""
    if not scores:
        raise ValueError("alignment_curve needs at least one episode")
    curve = []
    for k in range(min(len(ep) for ep in scores)):
        column: list[float] = []
        for episode in scores:
            value = float(episode[k])
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"alignment scores must lie in [0, 1], got {value}")
            column.append(value)
        curve.append(100.0 * float(np.mean(column)))
    return curve


def _outcome(fn, *args) -> tuple:
    """(result type, result bits) or (exception type, message)."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return type(value), np.asarray(value, dtype=float).tobytes()


@st.composite
def _score_sets(draw) -> list[list]:
    """1-200 episodes of 1-60 turns (ragged ones may be empty), binary ints or
    fractions, with up to three scores overwritten by out-of-range or NaN values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_episodes, horizon = draw(st.integers(1, 200)), draw(st.integers(1, 60))
    ragged = draw(st.booleans())
    lengths = rng.integers(0, horizon + 1, n_episodes) if ragged else [horizon] * n_episodes
    binary = draw(st.booleans())
    scores = [rng.integers(0, 2, n).tolist() if binary else rng.random(n).tolist() for n in lengths]
    bad_values = st.sampled_from([1.5, -0.25, 1.0000000001, -1e-300, float("nan"), float("inf")])
    overwrites = st.lists(st.tuples(st.integers(0), st.integers(0), bad_values), max_size=3)
    for i, t, value in draw(overwrites):
        episode = scores[i % n_episodes]
        if episode:
            episode[t % len(episode)] = value
    return scores


@settings(max_examples=300, deadline=None)
@given(scores=_score_sets())
@example(scores=[])
@example(scores=[[1, 0], [], [0.5]])
@example(scores=[[0.5, 2.0], [float("nan")]])
def test_alignment_curve_equals_the_per_turn_loop(scores: list[list]) -> None:
    # Same bits (array_equal and more: the float64 bytes), or the same
    # exception type and message, first bad score turn by turn then episode.
    assert _outcome(alignment_curve, scores) == _outcome(_reference_curve, scores)


_TURN_FIELDS = ("profile_reward", "response_reward", "total_reward", "theoretical_max")


def _reference_turn_means(records) -> list[list[float]]:
    """One np.mean per turn and column over that turn's values."""
    return [
        [float(np.mean([getattr(r.turns[k], name) for r in records])) for name in _TURN_FIELDS]
        for k in range(len(records[0].turns))
    ]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n_episodes=st.integers(1, 200), horizon=st.integers(1, 60)
)
def test_turn_means_equal_one_np_mean_per_turn(seed: int, n_episodes: int, horizon: int) -> None:
    # Values over many magnitudes and both signs, so a running sum in place of
    # np.mean's pairwise one changes the last bits.
    rng = np.random.default_rng(seed)
    shape = (n_episodes, horizon, len(_TURN_FIELDS))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    records = [
        SimpleNamespace(turns=[SimpleNamespace(**dict(zip(_TURN_FIELDS, row))) for row in turns])
        for turns in values.tolist()
    ]
    table = np.array([[[getattr(t, name) for name in _TURN_FIELDS] for t in r.turns]
                      for r in records])
    got = turn_means(table.transpose(1, 2, 0))  # (turns, fields, episodes)
    assert np.array(got).tobytes() == np.array(_reference_turn_means(records)).tobytes()


# --- normalization ----------------------------------------------------------------


def test_normalize_global_min_max() -> None:
    values = [10.0, 20.0, 15.0, 30.0]
    assert normalize_curve(values) == pytest.approx([0.0, 0.5, 0.25, 1.0])


def test_normalize_constant_curve_maps_to_zeros() -> None:
    assert normalize_curve([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]


def test_normalize_rejects_unknown_mode_and_empty() -> None:
    # Global min-max is the only normalization; no mode can be chosen.
    with pytest.raises(TypeError):
        normalize_curve([1.0], mode="softmax")  # type: ignore[call-arg]
    with pytest.raises(ValueError):
        normalize_curve([])


# --- OLS fit -----------------------------------------------------------------------


def test_fit_improvement_recovers_exact_line() -> None:
    # The regressor is the 1-based turn index.
    values = [0.1 * k + 0.05 for k in range(1, 9)]
    fit = fit_improvement(values)
    assert fit.slope == pytest.approx(0.1, abs=1e-12)
    assert fit.intercept == pytest.approx(0.05, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_improvement_matches_lstsq_dual_route() -> None:
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        values = rng.uniform(0, 1, size=n)
        fit = fit_improvement(values)
        design = np.stack([np.arange(1, n + 1, dtype=float), np.ones(n)], axis=1)
        coef, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
        assert fit.slope == pytest.approx(float(coef[0]), abs=1e-9)
        assert fit.intercept == pytest.approx(float(coef[1]), abs=1e-9)
        predicted = design @ coef
        ss_res = float(np.sum((values - predicted) ** 2))
        ss_tot = float(np.sum((values - values.mean()) ** 2))
        assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-9)


def test_fit_improvement_constant_input_yields_zero_slope_and_r2() -> None:
    fit = fit_improvement([0.4, 0.4, 0.4, 0.4])
    assert fit.slope == 0.0
    assert fit.r_squared == 0.0


def test_fit_improvement_needs_two_points() -> None:
    with pytest.raises(ValueError):
        fit_improvement([1.0])


def test_summarize_alignment_bundles_curve_and_fit() -> None:
    curve = [0.0, 50.0, 75.0, 100.0]
    summary = summarize_alignment(curve)
    assert summary.average == pytest.approx(56.25)
    assert summary.curve == tuple(curve)
    assert summary.normalized == pytest.approx((0.0, 0.5, 0.75, 1.0))
    fit = fit_improvement([0.0, 0.5, 0.75, 1.0])
    assert summary.n_ir == pytest.approx(fit.slope)
    assert summary.n_r2 == pytest.approx(fit.r_squared)


# --- agreement statistics -------------------------------------------------------------


def _brute_force_agreement(m: ConfusionMatrix) -> AgreementStats:
    # Plain-formula oracle, written independently of the implementation.
    total = m.tp + m.fp + m.fn + m.tn
    accuracy = (m.tp + m.tn) / total
    precision = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
    recall = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    specificity = m.tn / (m.tn + m.fp) if m.tn + m.fp else 0.0
    p_yes_a = (m.tp + m.fp) / total
    p_yes_b = (m.tp + m.fn) / total
    p_e = p_yes_a * p_yes_b + (1 - p_yes_a) * (1 - p_yes_b)
    kappa = None if p_e == 1.0 else (accuracy - p_e) / (1 - p_e)
    return AgreementStats(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        specificity=specificity,
        kappa=kappa,
    )


def test_agreement_stats_match_brute_force_on_random_matrices() -> None:
    rng = random.Random(7)
    for _ in range(200):
        matrix = ConfusionMatrix(
            tp=rng.randint(0, 50), fp=rng.randint(0, 50), fn=rng.randint(0, 50), tn=rng.randint(1, 50)
        )
        got = agreement_stats(matrix)
        want = _brute_force_agreement(matrix)
        for field in ("accuracy", "precision", "recall", "f1", "specificity"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)
        if want.kappa is None:
            assert got.kappa is None
        else:
            assert got.kappa == pytest.approx(want.kappa, abs=1e-12)


def test_agreement_stats_zero_denominators_fall_back_to_zero() -> None:
    stats = agreement_stats(ConfusionMatrix(tp=0, fp=0, fn=0, tn=5))
    assert stats.precision == 0.0
    assert stats.recall == 0.0
    assert stats.f1 == 0.0
    assert stats.specificity == pytest.approx(1.0)


def test_agreement_kappa_undefined_at_full_chance_agreement() -> None:
    # Both raters say yes always: p_e = 1, kappa undefined.
    stats = agreement_stats(ConfusionMatrix(tp=10, fp=0, fn=0, tn=0))
    assert stats.kappa is None


def test_confusion_matrix_validation() -> None:
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fp=0, fn=0, tn=1)
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=0, fp=0, fn=0, tn=0)


# --- long-horizon profile curves ---------------------------------------------------------


def _longterm_records(horizon: int, count: int = 3):
    schema = SlotSchema.aloe()
    records = []
    for idx in range(count):
        rng = random.Random(idx)
        entries = {slot: rng.choice(_POOLS[slot]) for slot in schema.slots}
        config = UserConfig(
            profile=Profile(schema=schema, entries=entries),
            horizon=horizon,
            style_seed=idx,
        )
        env = DialogueEnv(config, matcher=SlotMatcher(kind="exact"))
        records.append(rollout(env, EvidenceOracleAgent(), scenario_id=f"lt-{idx}"))
    return records


def test_longterm_curve_oracle_attains_ceiling_once_everything_is_revealed() -> None:
    records = _longterm_records(horizon=15)
    curve = longterm_profile_curve(records, checkpoints=[1, 5, 11, 15])
    by_turn = {p.turn: p for p in curve.points}
    # All 10 slots are out by turn 11; from then on the oracle sits on the max.
    assert by_turn[11].theoretical_max == pytest.approx(1.0)
    assert by_turn[11].profile_score == pytest.approx(1.0)
    assert by_turn[15].profile_score == pytest.approx(by_turn[15].theoretical_max)
    for point in curve.points:
        assert point.profile_score <= point.theoretical_max + 1e-12


def test_longterm_curve_average_is_mean_of_checkpoint_scores() -> None:
    records = _longterm_records(horizon=12)
    curve = longterm_profile_curve(records, checkpoints=[1, 6, 12])
    assert curve.average == pytest.approx(
        float(np.mean([p.profile_score for p in curve.points]))
    )


def test_longterm_curve_rejects_checkpoints_beyond_horizon() -> None:
    records = _longterm_records(horizon=8)
    with pytest.raises(ValueError):
        longterm_profile_curve(records, checkpoints=[1, 9])


def _reference_longterm_curve(records, checkpoints, matcher) -> LongtermCurve:
    """The curve as one ``precision_recall`` per checkpoint and record, each
    with a fresh estimate and truth ``Profile``."""
    points = []
    for k in checkpoints:
        scores, ceilings = [], []
        for record in records:
            schema, turn = record.schema_object(), record.turns[k - 1]
            estimate = Profile(schema=schema, entries=dict(turn.estimate))
            entries = dict(record.truth)  # the truth in force at turn k
            if record.conflict is not None and k >= record.conflict["turn"]:
                entries.update(record.conflict["replace"])
            truth = Profile(schema=schema, entries=entries)
            m = matcher or SlotMatcher.parse(record.matcher)
            scores.append(precision_recall(estimate, truth, m)[1])
            ceilings.append(turn.theoretical_max)
        points.append(LongtermPoint(k, float(np.mean(scores)), float(np.mean(ceilings))))
    return LongtermCurve(tuple(points), float(np.mean([p.profile_score for p in points])))


@pytest.mark.parametrize("schema", [SlotSchema.aloe(),
                                    SlotSchema("narrow", ALOE_SLOTS[:4], open_schema=True)])
@pytest.mark.parametrize("matcher_spec", ["exact", "token:0.5"])
def test_longterm_curve_equals_a_precision_recall_per_checkpoint(
    matcher_spec: str, schema: SlotSchema
) -> None:
    """Conflict records scored on both sides of their turn-6 swap, with
    estimates that keep, drop, reword or restate stale values; an open
    schema's estimates also hold slots outside ``schema.slots``."""
    matcher = SlotMatcher.parse(matcher_spec)
    rng = random.Random(matcher_spec + schema.name)
    records = []
    for scenario in generate_scenarios(3, seed=5, horizon=14, conflict=True):
        profile = Profile(schema=schema, entries=dict(scenario.profile.entries))
        config = UserConfig(profile, 14, conflict=scenario.conflict, style_seed=scenario.style_seed)
        record = rollout(DialogueEnv(config, matcher), EvidenceOracleAgent(), scenario.scenario_id)
        for turn in record.turns:
            stale = {slot: scenario.profile.entries[slot] for slot in scenario.conflict.replace}
            pool = [*turn.estimate.items(), *stale.items()]
            pool += [(slot, f"{value} indeed") for slot, value in pool]
            if schema.open_schema:
                pool += [("Hobby", "chess"), (ALOE_SLOTS[-1], "restated")]
            turn.estimate = dict(rng.sample(pool, rng.randint(0, len(pool))))
        records.append(record)
    # The same truths, logged under the other matcher.
    other = "token:0.5" if matcher_spec == "exact" else "exact"
    records.append(dataclasses.replace(records[0], matcher=other))
    checkpoints = [1, 4, 5, 6, 7, 10, 14, 6]  # both sides of the swap, one twice
    for given_matcher in (matcher, None):
        expected = _reference_longterm_curve(records, checkpoints, given_matcher)
        assert longterm_profile_curve(records, checkpoints, given_matcher) == expected


def test_alignment_matrix_flags_match_recorded_verdicts() -> None:
    records = _longterm_records(horizon=6)
    matrix = alignment_matrix(records)
    assert len(matrix) == len(records)
    for row, record in zip(matrix, records):
        assert row == [int(turn.aligned) for turn in record.turns]
        assert set(row) <= {0, 1}
