"""End-to-end acceptance checks for the dialogue-alignment artifact.

Every test prints one PASS/FAIL line with the measured numbers (visible with
``pytest -s``), so a run of this module doubles as a verification report.
Tolerances are stated inline next to each check.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from dialign.env import (
    DialogueEnv,
    EvidenceOracleAgent,
    Observation,
    make_response,
    observation_dim,
    rollout,
)
from dialign.env import AgentAction
from dialign.metrics import (
    ConfusionMatrix,
    agreement_stats,
    alignment_curve,
    alignment_matrix,
    fit_improvement,
    longterm_profile_curve,
    normalize_curve,
    summarize_alignment,
)
from dialign.profiles import (
    Profile,
    SlotMatcher,
    SlotSchema,
    overlap_count,
    profile_reward,
)
from dialign.reward import ResponseJudgment, response_reward
from dialign.rl import (
    POLICY_DIM,
    CategoricalSlotPolicy,
    DecisionBatch,
    LinearValue,
    PolicyAgent,
    PPOConfig,
    collect,
    draw_decisions,
    episode_rows,
    numerical_log_prob_grad,
    policy_ratio,
    train,
)
from dialign.scenarios import generate_scenarios

_EXACT = SlotMatcher(kind="exact")

# Published ten-turn alignment percentages used as regression fixtures: an
# RL-tuned dialogue system (steadily rising) and a supervised-finetuning
# baseline (early rise, then plateau).
_RL_TUNED_ROW = [62.16, 68.92, 70.27, 74.32, 72.97, 74.32, 75.68, 78.38, 77.03, 79.73]
_SFT_BASELINE_ROW = [2.7, 24.32, 41.89, 40.54, 59.46, 56.76, 54.05, 54.05, 54.05, 55.41]


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# --- 1. trend-metric reproduction on reference curves ------------------------------


def test_reference_curve_fits_reproduce_published_trend_metrics() -> None:
    rl_fit = fit_improvement(normalize_curve(_RL_TUNED_ROW))
    sft_fit = fit_improvement(normalize_curve(_SFT_BASELINE_ROW))
    ok = (
        abs(rl_fit.slope - 0.090) <= 0.001
        and abs(rl_fit.r_squared - 0.855) <= 0.005
        and abs(sft_fit.slope - 0.083) <= 0.001
        and abs(sft_fit.r_squared - 0.628) <= 0.01
    )
    _report(
        "reference curve fits",
        ok,
        f"rl slope={rl_fit.slope:.5f} (0.090±0.001) r2={rl_fit.r_squared:.5f} (0.855±0.005); "
        f"sft slope={sft_fit.slope:.5f} (0.083±0.001) r2={sft_fit.r_squared:.5f} (0.628±0.01)",
    )


# --- 2. agreement-statistic reproduction ---------------------------------------------


def test_judge_agreement_statistics_reproduce_reference_values() -> None:
    stats = agreement_stats(ConfusionMatrix(tp=124, fp=21, fn=18, tn=137))
    targets = {
        "accuracy": 0.87,
        "precision": 0.855,
        "recall": 0.873,
        "f1": 0.864,
        "specificity": 0.867,
        "kappa": 0.740,
    }
    got = {
        "accuracy": stats.accuracy,
        "precision": stats.precision,
        "recall": stats.recall,
        "f1": stats.f1,
        "specificity": stats.specificity,
        "kappa": stats.kappa,
    }
    ok = all(abs(got[k] - v) <= 0.001 for k, v in targets.items())
    detail = ", ".join(f"{k}={got[k]:.4f} ({v}±0.001)" for k, v in targets.items())
    _report("agreement statistics", ok, detail)


# --- 3. reward oracle equivalence ------------------------------------------------------


def _random_profile(rng: random.Random) -> Profile:
    schema = SlotSchema.aloe()
    n = rng.randint(1, 10)
    slots = rng.sample(list(schema.slots), n)
    return Profile(schema=schema, entries={s: f"value {rng.randint(0, 6)}" for s in slots})


def test_reward_functions_match_independent_oracles() -> None:
    rng = random.Random(0xBEEF)
    f1_mismatches = 0
    for _ in range(1000):
        estimate = _random_profile(rng)
        truth = _random_profile(rng)
        # Brute-force oracle: double loop plus direct F1 formula.
        overlap = 0
        for slot, value in estimate.entries.items():
            for t_slot, t_value in truth.entries.items():
                if slot == t_slot and _EXACT.values_match(slot, value, t_value):
                    overlap += 1
        expected = 2.0 * overlap / (len(estimate) + len(truth))
        if profile_reward(estimate, truth, _EXACT) != expected:
            f1_mismatches += 1
        if overlap_count(estimate, truth, _EXACT) != overlap:
            f1_mismatches += 1

    product_mismatches = 0
    for bits in range(32):
        vec = [(bits >> i) & 1 for i in range(5)]
        judgment = ResponseJudgment(
            naturalness=vec[0],
            relevance=vec[1],
            logical_consistency=vec[2],
            engagement=vec[3],
            informativeness=vec[4],
            preference_expression=0.0,
            style_consistency=0.0,
            goal_alignment=0.0,
            persona_coherence=0.0,
        )
        if response_reward(judgment.criteria()) != vec[0] * vec[1] * vec[2] * vec[3] * vec[4]:
            product_mismatches += 1

    ok = f1_mismatches == 0 and product_mismatches == 0
    _report(
        "reward oracle equivalence",
        ok,
        f"1000 random profile pairs exact-equal (mismatches={f1_mismatches}); "
        f"all 32 criterion vectors exact-equal (mismatches={product_mismatches})",
    )


# --- 4. policy-gradient and advantage numerics -------------------------------------------


def _probe_observation(rng: np.random.Generator, n_slots: int = 10) -> Observation:
    """A random observation, as a stack of one."""
    slot_feats = np.ones((n_slots, 3))
    slot_feats[:, 1] = rng.integers(0, 2, size=n_slots)
    slot_feats[:, 2] = 0.0
    if rng.random() < 0.8:
        slot_feats[rng.integers(0, n_slots), 2] = 1.0
    return Observation(
        slot_feats=slot_feats[None],
        global_feats=np.array([[1.0, float(rng.integers(1, 11)) / 10.0]]),
    )


def test_policy_gradient_gae_and_ratio_numerics() -> None:
    rng = np.random.default_rng(1234)

    # (a) analytic gradients vs central finite differences, rel error <= 1e-4.
    max_rel = 0.0
    for _ in range(100):
        policy = CategoricalSlotPolicy(
            n_slots=10, theta=rng.normal(0.0, 0.7, size=POLICY_DIM)
        )
        obs = _probe_observation(rng)
        batch = DecisionBatch(
            slot_feats=obs.slot_feats,
            global_feats=obs.global_feats,
            include=rng.integers(0, 2, size=10)[None].astype(float),
            response_choice=np.array([rng.integers(0, 11)]),
            engage=np.array([float(rng.integers(0, 2))]),
        )
        analytic = policy.log_prob_and_grad(batch)[1][0]
        numeric = numerical_log_prob_grad(policy, batch)[0]
        rel = float(np.linalg.norm(analytic - numeric)) / max(
            1.0, float(np.linalg.norm(numeric))
        )
        max_rel = max(max_rel, rel)
    grad_ok = max_rel <= 1e-4

    # (b) GAE at lambda=1, gamma=1 vs brute-force return-minus-baseline, <= 1e-10.
    from dialign.rl import compute_gae

    max_gae_err = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 20))
        rewards = rng.uniform(-2, 2, size=n)
        values = rng.uniform(-2, 2, size=n)
        adv = compute_gae(rewards, values, gamma=1.0, lam=1.0)
        for t in range(n):
            brute = float(np.sum(rewards[t:])) - values[t]
            max_gae_err = max(max_gae_err, abs(float(adv[t]) - brute))
    gae_ok = max_gae_err <= 1e-10

    # (c) importance ratios immediately after collection are 1 within 1e-12.
    pairs = [(s.scenario_id, s.user_config()) for s in generate_scenarios(8, seed=21)]
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=2, seed=2)
    policy = CategoricalSlotPolicy(n_slots=10, theta=rng.normal(0, 0.3, POLICY_DIM))
    value_fn = LinearValue(dim=observation_dim(10))
    batch, _ = collect(pairs, policy, value_fn, cfg, (1.0, 1.0), _EXACT, 0)
    stored = batch.log_probs_old
    recomputed = policy.log_prob_batch(batch.decisions)
    ratios = np.asarray(policy_ratio(recomputed, stored, cfg.ratio_clamp))
    max_ratio_err = float(np.max(np.abs(ratios - 1.0)))
    ratio_ok = max_ratio_err <= 1e-12

    _report(
        "ppo numerics",
        grad_ok and gae_ok and ratio_ok,
        f"grad rel err {max_rel:.2e} (<=1e-4) on 100 probes; "
        f"gae err {max_gae_err:.2e} (<=1e-10) on 100 trajectories; "
        f"post-collection ratio err {max_ratio_err:.2e} (<=1e-12) on {len(stored)} samples",
    )


# --- 5. end-to-end learning -----------------------------------------------------------


def _greedy_records(policy: CategoricalSlotPolicy, pairs) -> list:
    stacks = [ucfg.episode_table.observations for _, ucfg in pairs]
    decisions, _ = draw_decisions(policy, stacks)
    lists = decisions.as_lists()
    rows = episode_rows([len(stack.global_feats) for stack in stacks])
    return [
        rollout(DialogueEnv(ucfg, matcher=_EXACT), PolicyAgent(lists, episode), sid)
        for (sid, ucfg), episode in zip(pairs, rows)
    ]


@pytest.mark.slow
def test_training_improves_reward_and_produces_rising_alignment() -> None:
    started = time.monotonic()
    pairs = [(s.scenario_id, s.user_config()) for s in generate_scenarios(32, seed=7)]
    cfg_template = dict(
        total_rounds=150, samples_per_scenario=2, actor_lr=0.1, critic_lr=0.01
    )
    gradient_updates = cfg_template["total_rounds"] * PPOConfig().epochs

    improvements: list[float] = []
    slopes: list[float] = []
    for seed in range(5):
        cfg = PPOConfig(seed=seed, **cfg_template)
        result = train(pairs, cfg=cfg, weights=(1.0, 1.0), matcher=_EXACT)
        first = result.curve[0].mean_total_reward
        last = result.curve[-1].mean_total_reward
        improvements.append(last / first)
        records = _greedy_records(result.policy, pairs)
        curve = alignment_curve(alignment_matrix(records))
        slopes.append(summarize_alignment(curve).n_ir)

    elapsed = time.monotonic() - started
    mean_improvement = float(np.mean(improvements))
    ok = (
        mean_improvement >= 1.5
        and all(s > 0 for s in slopes)
        and gradient_updates <= 5000
        and elapsed < 600.0
    )
    _report(
        "end-to-end learning",
        ok,
        f"mean reward improvement {mean_improvement:.2f}x (>=1.50x) over 5 seeds; "
        f"alignment slopes {[f'{s:+.4f}' for s in slopes]} (all > 0); "
        f"{gradient_updates} gradient updates (<=5000); {elapsed:.0f}s (<600s)",
    )


# --- 6. reward-weight ablation ordering ---------------------------------------------------


@pytest.mark.slow
def test_full_reward_beats_single_component_rewards_under_shared_scoring() -> None:
    pairs = [(s.scenario_id, s.user_config()) for s in generate_scenarios(32, seed=7)]

    def mean_total(weights: tuple[float, float]) -> float:
        per_seed = []
        for seed in range(5):
            cfg = PPOConfig(
                total_rounds=60,
                samples_per_scenario=2,
                seed=seed,
                actor_lr=0.1,
                critic_lr=0.01,
            )
            result = train(pairs, cfg=cfg, weights=weights, matcher=_EXACT)
            # Rescore every configuration under the full (1, 1) objective.
            totals = []
            for record in _greedy_records(result.policy, pairs):
                totals.append(
                    sum(t.profile_reward + t.response_reward for t in record.turns)
                )
            per_seed.append(float(np.mean(totals)))
        return float(np.mean(per_seed))

    both = mean_total((1.0, 1.0))
    profile_only = mean_total((1.0, 0.0))
    response_only = mean_total((0.0, 1.0))
    ok = both >= profile_only and both >= response_only
    _report(
        "reward-weight ablation",
        ok,
        f"(1,1) {both:.3f} >= (1,0)-trained {profile_only:.3f} and "
        f">= (0,1)-trained {response_only:.3f}, identical budgets, 5 seeds",
    )


# --- 7. conflict dip and recovery ----------------------------------------------------------


def test_truth_swap_dips_profile_reward_then_recovers() -> None:
    scenarios = generate_scenarios(16, seed=11, conflict=True)
    failures = []
    for scenario in scenarios:
        env = DialogueEnv(scenario.user_config(), matcher=_EXACT)
        record = rollout(env, EvidenceOracleAgent(), scenario.scenario_id)
        by_turn = {t.turn: t.profile_reward for t in record.turns}
        if not (by_turn[6] < by_turn[5] and by_turn[10] > by_turn[6]):
            failures.append(scenario.scenario_id)
    ok = not failures
    _report(
        "conflict dip and recovery",
        ok,
        f"turn-6 dip and turn-10 recovery on {len(scenarios) - len(failures)}/"
        f"{len(scenarios)} conflict scenarios"
        + (f"; failing: {failures}" if failures else ""),
    )


# --- 8. long-horizon reveal ceiling ----------------------------------------------------------


class _HalfEvidenceAgent:
    """Evidence-only agent that keeps every other seen slot in its estimate."""

    def act(self, view) -> AgentAction:
        seen = sorted(view.seen_values.items())
        entries = dict(seen[::2])
        estimate = Profile(schema=view.schema, entries=entries)
        addressed = [next(iter(entries.items()))] if entries else []
        return AgentAction(
            response=make_response(addressed, continues=True), estimate=estimate
        )


def test_longterm_profile_score_never_exceeds_reveal_ceiling() -> None:
    scenarios = generate_scenarios(6, seed=31)
    checkpoints = [1, 10, 20, 30, 40, 50, 60, 70]

    def run(agent_factory) -> list:
        records = []
        for scenario in scenarios:
            env = DialogueEnv(scenario.user_config(horizon=70), matcher=_EXACT)
            records.append(rollout(env, agent_factory(), scenario.scenario_id))
        return records

    oracle_curve = longterm_profile_curve(run(EvidenceOracleAgent), checkpoints, _EXACT)
    half_curve = longterm_profile_curve(run(_HalfEvidenceAgent), checkpoints, _EXACT)

    bound_ok = all(
        p.profile_score <= p.theoretical_max + 1e-12
        for curve in (oracle_curve, half_curve)
        for p in curve.points
    )
    # The oracle tracks the ceiling exactly, in particular after every slot is
    # out (from turn 11 on the ceiling is 1).
    attain_ok = all(
        p.profile_score == pytest.approx(p.theoretical_max, abs=1e-12)
        for p in oracle_curve.points
    ) and all(
        p.profile_score == pytest.approx(1.0, abs=1e-12)
        for p in oracle_curve.points
        if p.turn >= 11
    )
    ok = bound_ok and attain_ok
    oracle_pairs = ", ".join(
        f"t{p.turn}={p.profile_score:.2f}/{p.theoretical_max:.2f}"
        for p in oracle_curve.points
    )
    _report(
        "long-horizon reveal ceiling",
        ok,
        f"score<=ceiling at all 8 checkpoints for both agents; oracle attains "
        f"ceiling ({oracle_pairs})",
    )
