from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialign.env import DialogueEnv, EnvView, Observation, observation_dim, observe, rollout
from dialign.errors import CheckpointError, ConfigError
from dialign.profiles import SlotMatcher, SlotSchema
from dialign.reward import combined_reward
from dialign.rl import (
    POLICY_DIM,
    CategoricalSlotPolicy,
    DecisionBatch,
    LinearValue,
    ObservationRows,
    PPOConfig,
    PolicyAgent,
    RoundBatch,
    collect,
    compute_gae,
    draw_decisions,
    config_fingerprint,
    episode_rows,
    episode_uniforms,
    load_checkpoint,
    normalize_advantages,
    pcg64_states,
    play,
    reward_means,
    reward_table,
    policy_ratio,
    ppo_surrogate,
    save_checkpoint,
    train,
    update,
)
from dialign.scenarios import default_conflict, generate_scenarios
from dialign.user_sim import first_utterance, initial_state, next_utterance

_N_SLOTS = 10


def _random_observations(rng: np.random.Generator, rows: int = 1) -> Observation:
    """A stack of ``rows`` random observations with random seen bits and at
    most one topic slot per row."""
    code_rows, global_rows = [], []
    for _ in range(rows):
        codes = 2 * rng.integers(0, 2, size=_N_SLOTS)
        if rng.random() < 0.8:
            codes[rng.integers(0, _N_SLOTS)] += 1
        code_rows.append(codes)
        global_rows.append([1.0, float(rng.integers(1, 11)) / 10.0])
    return Observation(np.array(code_rows, np.uint8), np.array(global_rows))


def _columns(batch: DecisionBatch) -> dict[str, np.ndarray]:
    """A batch's observation and decision columns by name."""
    obs = batch.observations
    return {"codes": obs.codes, "slot_feats": obs.slot_feats, "global_feats": obs.global_feats,
            "include": batch.include, "response_choice": batch.response_choice,
            "engage": batch.engage}


def _random_decisions(rng: np.random.Generator, obs: Observation) -> DecisionBatch:
    """Uniformly random decisions, one per row of ``obs``."""
    rows = len(obs)
    return DecisionBatch(
        ObservationRows.stack([obs]),
        include=rng.integers(0, 2, size=(rows, _N_SLOTS)).astype(float),
        response_choice=rng.integers(0, _N_SLOTS + 1, size=rows),
        engage=rng.integers(0, 2, size=rows).astype(float),
    )


def _row(batch: DecisionBatch, t: int) -> DecisionBatch:
    """Row ``t`` of the batch as a one-row batch."""
    one, obs = slice(t, t + 1), batch.observations
    return DecisionBatch(
        ObservationRows.stack([Observation(obs.codes[one], obs.global_feats[one])]),
        include=batch.include[one],
        response_choice=batch.response_choice[one],
        engage=batch.engage[one],
    )


def numerical_log_prob_grad(
    policy: CategoricalSlotPolicy, batch: DecisionBatch, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference d log pi / d theta per batch row, shape (N, POLICY_DIM),
    for cross-checking ``log_prob_and_grad``."""
    base = policy.theta
    grad = np.zeros((len(batch), base.size))
    for i in range(base.size):
        step = np.zeros_like(base)
        step[i] = eps
        hi = CategoricalSlotPolicy(policy.n_slots, base + step).log_prob_batch(batch)
        lo = CategoricalSlotPolicy(policy.n_slots, base - step).log_prob_batch(batch)
        grad[:, i] = (hi - lo) / (2.0 * eps)
    return grad


def _decisions(batch: DecisionBatch) -> list[tuple[tuple[int, ...], int, bool]]:
    """Each row's (include flags, response choice, engage) as plain values."""
    return [
        (tuple(int(v) for v in inc), int(choice), bool(eng))
        for inc, choice, eng in zip(batch.include, batch.response_choice, batch.engage)
    ]


def _scenario_pairs(count: int, seed: int = 0):
    return [(s.scenario_id, s.user_config()) for s in generate_scenarios(count, seed=seed)]


# --- config validation -----------------------------------------------------------


def test_ppo_config_validation() -> None:
    with pytest.raises(ConfigError):
        PPOConfig(clip_eps=0.0)
    with pytest.raises(ConfigError):
        PPOConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        PPOConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        PPOConfig(epochs=0)
    with pytest.raises(ConfigError):
        PPOConfig(samples_per_scenario=0)
    # Each range error names its field.
    for field, value in (("lam", -0.1), ("actor_lr", -1.0), ("critic_lr", -1e-3),
                         ("total_rounds", 0), ("ratio_clamp", 0.0), ("seed", -1)):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            PPOConfig(**{field: value})


# --- GAE ----------------------------------------------------------------------------


def test_gae_hand_example() -> None:
    # rewards [1, 1], values [0, 0], gamma = lam = 1: deltas are [1, 1], so the
    # advantages accumulate to [2, 1].
    adv = compute_gae([1.0, 1.0], [0.0, 0.0], gamma=1.0, lam=1.0)
    assert adv.tolist() == pytest.approx([2.0, 1.0])


def test_gae_lambda_zero_is_td_residual() -> None:
    rewards = [1.0, 2.0, 3.0]
    values = [0.5, 1.0, 1.5]
    gamma = 0.9
    adv = compute_gae(rewards, values, gamma=gamma, lam=0.0)
    expected = [
        rewards[0] + gamma * values[1] - values[0],
        rewards[1] + gamma * values[2] - values[1],
        rewards[2] + 0.0 - values[2],
    ]
    assert adv.tolist() == pytest.approx(expected, abs=1e-12)


def test_gae_at_lambda_one_equals_return_minus_baseline() -> None:
    # 100 random trajectories, brute-force oracle: discounted suffix return
    # minus the value baseline, within 1e-10.
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        rewards = rng.uniform(-2, 2, size=n)
        values = rng.uniform(-2, 2, size=n)
        adv = compute_gae(rewards, values, gamma=1.0, lam=1.0)
        for t in range(n):
            ret = float(np.sum(rewards[t:]))
            assert abs(adv[t] - (ret - values[t])) <= 1e-10


def test_gae_general_lambda_matches_exponential_sum_oracle() -> None:
    rng = np.random.default_rng(23)
    gamma, lam = 0.97, 0.6
    for _ in range(50):
        n = int(rng.integers(1, 12))
        rewards = rng.uniform(-1, 1, size=n)
        values = rng.uniform(-1, 1, size=n)
        deltas = np.array(
            [
                rewards[t] + gamma * (values[t + 1] if t + 1 < n else 0.0) - values[t]
                for t in range(n)
            ]
        )
        expected = [
            sum((gamma * lam) ** k * deltas[t + k] for k in range(n - t)) for t in range(n)
        ]
        adv = compute_gae(rewards, values, gamma=gamma, lam=lam)
        assert adv.tolist() == pytest.approx(expected, abs=1e-10)


def test_gae_shape_mismatch_raises() -> None:
    with pytest.raises(ValueError):
        compute_gae([1.0, 2.0], [0.0], gamma=1.0, lam=1.0)
    with pytest.raises(ValueError):
        compute_gae(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), gamma=1.0, lam=1.0)


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
    gamma=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_padded_round_gae_equals_per_episode_gae(
    lengths: list[int], gamma: float, lam: float, seed: int
) -> None:
    # One pass over an (episodes x turns) table zero-padded to the longest
    # episode gives every episode the bits of its own 1-D pass.
    rng = np.random.default_rng(seed)
    episodes = [(rng.uniform(-2, 2, size=n), rng.uniform(-2, 2, size=n)) for n in lengths]
    rewards, values = np.zeros((len(lengths), max(lengths))), np.zeros((len(lengths), max(lengths)))
    for row, (r, v) in enumerate(episodes):
        rewards[row, : r.size], values[row, : v.size] = r, v
    table = compute_gae(rewards, values, gamma=gamma, lam=lam)
    for row, (r, v) in enumerate(episodes):
        assert np.array_equal(table[row, : r.size], compute_gae(r, v, gamma=gamma, lam=lam))
        assert not table[row, r.size :].any()


# --- ratios and surrogate --------------------------------------------------------------


def test_policy_ratio_is_exp_of_log_diff() -> None:
    assert policy_ratio(0.0, 0.0) == pytest.approx(1.0)
    assert policy_ratio(np.log(2.0), 0.0) == pytest.approx(2.0)
    assert policy_ratio(0.0, np.log(2.0)) == pytest.approx(0.5)


def test_policy_ratio_clamps_extreme_exponents() -> None:
    assert policy_ratio(1000.0, 0.0, clamp=60.0) == pytest.approx(np.exp(60.0))
    assert policy_ratio(-1000.0, 0.0, clamp=60.0) == pytest.approx(np.exp(-60.0))


def test_surrogate_clip_arithmetic() -> None:
    eps = 0.2
    # Positive advantage: ratio above 1+eps is clipped down.
    assert ppo_surrogate(1.5, 2.0, eps) == pytest.approx(1.2 * 2.0)
    # Inside the trust region the raw term wins.
    assert ppo_surrogate(1.1, 2.0, eps) == pytest.approx(1.1 * 2.0)
    # Negative advantage: ratio below 1-eps is clipped up, and min() keeps the
    # more pessimistic (smaller) value.
    assert ppo_surrogate(0.5, -1.0, eps) == pytest.approx(0.8 * -1.0)
    assert ppo_surrogate(1.5, -1.0, eps) == pytest.approx(1.5 * -1.0)


def test_surrogate_rejects_nonpositive_ratio() -> None:
    with pytest.raises(ValueError):
        ppo_surrogate(0.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        ppo_surrogate(np.array([1.0, -0.5]), np.array([1.0, 1.0]), 0.2)


def test_normalize_advantages_zero_mean_unit_std() -> None:
    adv = np.array([1.0, 2.0, 3.0, 4.0])
    out = normalize_advantages(adv)
    assert float(np.mean(out)) == pytest.approx(0.0, abs=1e-12)
    assert float(np.std(out)) == pytest.approx(1.0)


def test_normalize_advantages_constant_input_yields_zeros() -> None:
    out = normalize_advantages(np.array([2.5, 2.5, 2.5]))
    assert out.tolist() == [0.0, 0.0, 0.0]


# --- log-prob gradients -------------------------------------------------------------


def test_analytic_gradient_matches_finite_differences_on_100_probes() -> None:
    rng = np.random.default_rng(29)
    for _ in range(100):
        theta = rng.normal(0.0, 0.7, size=POLICY_DIM)
        policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=theta)
        batch = _random_decisions(rng, _random_observations(rng))
        analytic = policy.log_prob_and_grad(batch)[1][0]
        numeric = numerical_log_prob_grad(policy, batch)[0]
        scale = max(1.0, float(np.linalg.norm(numeric)))
        assert float(np.linalg.norm(analytic - numeric)) / scale <= 1e-4


def _separate_grad_pass(policy: CategoricalSlotPolicy, batch: DecisionBatch) -> np.ndarray:
    """The per-row d log pi / d theta as a pass of its own, computing each
    head's logits and the log-normaliser afresh."""
    theta, n, obs = policy.theta, len(batch), batch.observations
    grads = np.zeros((n, POLICY_DIM))
    p_inc = 1.0 / (1.0 + np.exp(-(obs.slot_feats @ theta[0:3])))
    grads[:, 0:3] = np.einsum("ns,nsk->nk", batch.include - p_inc, obs.slot_feats)
    slot_logits = obs.slot_feats @ theta[3:6]
    logits = np.concatenate([slot_logits, np.full((n, 1), theta[6])], axis=-1)
    probs = np.exp(logits - np.logaddexp.reduce(logits, axis=-1, keepdims=True))
    indicator = np.zeros_like(probs)
    indicator[np.arange(n), batch.response_choice] = 1.0
    diff = indicator - probs
    grads[:, 3:6] = np.einsum("ns,nsk->nk", diff[:, :-1], obs.slot_feats)
    grads[:, 6] = diff[:, -1]
    p_eng = 1.0 / (1.0 + np.exp(-(obs.global_feats @ theta[7:9])))
    grads[:, 7:9] = (batch.engage - p_eng)[:, None] * obs.global_feats
    return grads


def _two_sided_log_prob(policy: CategoricalSlotPolicy, batch: DecisionBatch) -> np.ndarray:
    """The per-row log pi with each Bernoulli head as y*log(sigma(z)) +
    (1-y)*log(sigma(-z)) and the softmax normaliser reduced along each row."""
    theta, n, obs = policy.theta, len(batch), batch.observations

    def log_sigmoid(z: np.ndarray) -> np.ndarray:
        return -np.logaddexp(0.0, -z)

    z_inc = obs.slot_feats @ theta[0:3]
    lp = np.sum(
        batch.include * log_sigmoid(z_inc) + (1.0 - batch.include) * log_sigmoid(-z_inc),
        axis=-1,
    )
    slot_logits = obs.slot_feats @ theta[3:6]
    logits = np.concatenate([slot_logits, np.full((n, 1), theta[6])], axis=-1)
    log_norm = np.logaddexp.reduce(logits, axis=-1)
    lp = lp + logits[np.arange(n), batch.response_choice] - log_norm
    z_eng = obs.global_feats @ theta[7:9]
    return lp + batch.engage * log_sigmoid(z_eng) + (1.0 - batch.engage) * log_sigmoid(-z_eng)


def _max_abs_logit(theta: np.ndarray, batch: DecisionBatch) -> float:
    obs = batch.observations
    heads = (obs.slot_feats @ theta[0:3], obs.slot_feats @ theta[3:6],
             theta[6:7], obs.global_feats @ theta[7:9])
    return max(float(np.abs(z).max()) for z in heads)


def test_fused_pass_equals_separate_passes() -> None:
    rng = np.random.default_rng(47)
    sizes = [1, 2, 7, 64, 640] + [int(r) for r in rng.integers(1, 200, size=25)]
    # The second half scales theta so the largest logit is +-800: log sigma
    # and the log-sum-exp must keep their bits where exp over- or underflows.
    for case, rows in enumerate(sizes + sizes):
        batch = _random_decisions(rng, _random_observations(rng, rows))
        theta = rng.normal(0.0, 2.0, POLICY_DIM)
        if case >= len(sizes):
            theta = theta * (800.0 / _max_abs_logit(theta, batch))
        policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=theta)
        with np.errstate(over="ignore"):
            log_probs, grads = policy.log_prob_and_grad(batch)
            assert np.array_equal(log_probs, policy.log_prob_batch(batch))
            assert np.array_equal(log_probs, _two_sided_log_prob(policy, batch))
            assert np.array_equal(grads, _separate_grad_pass(policy, batch))


def test_log_prob_single_equals_batch_row() -> None:
    rng = np.random.default_rng(31)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=rng.normal(size=POLICY_DIM))
    batch = _random_decisions(rng, _random_observations(rng, rows=6))
    batched = policy.log_prob_batch(batch)
    singles = [float(policy.log_prob_batch(_row(batch, t))[0]) for t in range(6)]
    assert batched.tolist() == singles
    # The finite-difference reference gives one gradient row per batch row.
    numeric = numerical_log_prob_grad(policy, batch)
    assert numeric.shape == (6, POLICY_DIM)
    for t in range(6):
        assert numeric[t].tolist() == numerical_log_prob_grad(policy, _row(batch, t))[0].tolist()


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), rows=st.integers(2, 8))
@example(seed=4, rows=6)
@settings(max_examples=80, deadline=None)
def test_one_row_stack_has_the_bits_of_its_row_in_a_stack(seed: int, rows: int) -> None:
    """A lone row's decisions, log-probability and gradient row are bit for
    bit those of the same row inside a larger stack, sampled or greedy."""
    rng = np.random.default_rng(seed)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=3.0 * rng.normal(size=POLICY_DIM))
    stack = _random_observations(rng, rows=rows)
    uniforms = rng.random((rows, _N_SLOTS + 2))
    sampled, log_probs = policy.sample_with_log_prob(stack, uniforms)
    greedy = policy.greedy(stack)
    for batch in (sampled, greedy):
        log_prob, grads = policy.log_prob_and_grad(batch)
        for t in range(rows):
            one = _row(batch, t)
            alone_log_prob, alone_grads = policy.log_prob_and_grad(one)
            assert np.array_equal(alone_log_prob, log_prob[t : t + 1])
            assert np.array_equal(alone_grads, grads[t : t + 1])
    for t in range(rows):
        one = Observation(stack.codes[t : t + 1], stack.global_feats[t : t + 1])
        drawn, drawn_log_prob = policy.sample_with_log_prob(one, uniforms[t : t + 1])
        assert np.array_equal(drawn_log_prob, log_probs[t : t + 1])
        for alone, batch in ((drawn, sampled), (policy.greedy(one), greedy)):
            for name in ("include", "response_choice", "engage"):
                assert np.array_equal(getattr(alone, name), getattr(batch, name)[t : t + 1])


def test_sample_with_log_prob_agrees_with_log_prob() -> None:
    rng = np.random.default_rng(37)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=rng.normal(size=POLICY_DIM))
    for rows in range(1, 26):
        uniforms = rng.random((rows, _N_SLOTS + 2))
        batch, lp = policy.sample_with_log_prob(_random_observations(rng, rows), uniforms)
        assert len(batch) == rows
        assert lp.tolist() == policy.log_prob_batch(batch).tolist()


def _reference_draw(
    policy: CategoricalSlotPolicy,
    slot_feats: np.ndarray,
    global_feats: np.ndarray,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], int, bool]:
    """One observation's draw as separate random(n), random(), random() calls."""
    theta = policy.theta
    n_slots = len(slot_feats)
    p_include = 1.0 / (1.0 + np.exp(-(slot_feats @ theta[0:3])))
    include = rng.random(n_slots) < p_include
    logits = np.append(slot_feats @ theta[3:6], theta[6])
    probs = np.exp(logits - np.logaddexp.reduce(logits))
    choice = int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum()))
    engage = rng.random() < 1.0 / (1.0 + np.exp(-float(global_feats @ theta[7:9])))
    return tuple(int(v) for v in include), min(choice, n_slots), bool(engage)


@given(
    theta=st.lists(
        st.floats(min_value=-4.0, max_value=4.0), min_size=POLICY_DIM, max_size=POLICY_DIM
    ),
    flags=st.lists(
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=_N_SLOTS, max_size=_N_SLOTS),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batched_draw_equals_per_row_draws(theta: list[float], flags, seed: int) -> None:
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=np.array(theta))
    horizon = len(flags)
    slot_feats = np.ones((horizon, _N_SLOTS, 3))
    slot_feats[:, :, 1:] = np.array(flags, dtype=float)
    codes = np.array([[2 * seen + topic for seen, topic in row] for row in flags], np.uint8)
    global_feats = np.array([[1.0, (t + 1) / horizon] for t in range(horizon)])
    stack = Observation(codes, global_feats)
    rows = [Observation(codes[t : t + 1], global_feats[t : t + 1]) for t in range(horizon)]

    uniforms = np.random.default_rng(seed).random((horizon, _N_SLOTS + 2))
    batched = _decisions(policy.sample_with_log_prob(stack, uniforms)[0])
    single_rng = np.random.default_rng(seed)
    assert batched == [
        _decisions(policy.sample_with_log_prob(o, single_rng.random((1, _N_SLOTS + 2)))[0])[0]
        for o in rows
    ]
    reference_rng = np.random.default_rng(seed)
    assert batched == [
        _reference_draw(policy, slot_feats[t], global_feats[t], reference_rng)
        for t in range(horizon)
    ]

    assert _decisions(policy.greedy(stack)) == [
        _decisions(policy.greedy(o))[0] for o in rows
    ]


@given(
    theta=st.lists(
        st.floats(min_value=-4.0, max_value=4.0), min_size=POLICY_DIM, max_size=POLICY_DIM
    ),
    horizons=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    samples=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**70),
    round_index=st.integers(min_value=0, max_value=10_000),
    weights=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)
@settings(max_examples=40, deadline=None)
def test_round_draw_equals_per_episode_draws(
    theta: list[float], horizons: list[int], samples: int, seed: int, round_index: int, weights
) -> None:
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=np.array(theta))
    dim = observation_dim(_N_SLOTS)
    value_fn = LinearValue(dim=dim, phi=np.random.default_rng(seed).normal(size=dim))
    scenario_list = generate_scenarios(len(horizons), seed=seed % 997)
    pairs = [(s.scenario_id, s.user_config(horizon=h)) for s, h in zip(scenario_list, horizons)]
    cfg = PPOConfig(samples_per_scenario=samples, seed=seed)
    batch, records = collect(
        pairs, policy, value_fn, cfg, weights, SlotMatcher(kind="exact"), round_index
    )
    assert len(records) == len(pairs) * samples
    assert batch.lengths.tolist() == [h for h in horizons for _ in range(samples)]
    rows = episode_rows(batch.lengths)
    for k, (episode, record) in enumerate(zip(rows, records)):
        idx, sample = divmod(k, samples)
        stack = pairs[idx][1].episode_table.observations
        # The per-episode draw: sample on the episode's own uniform block.
        rng = np.random.default_rng([seed, round_index, idx, sample])
        expected = policy.sample_with_log_prob(
            stack, rng.random((len(stack.global_feats), _N_SLOTS + 2))
        )[0]
        for name, column in _columns(batch.decisions).items():
            assert np.array_equal(column[episode], _columns(expected)[name])
        assert np.array_equal(batch.log_probs_old[episode], policy.log_prob_batch(expected))
        assert batch.values[episode].tolist() == [float(row @ value_fn.phi) for row in stack.flat()]
        assert batch.rewards[episode].tolist() == [
            combined_reward(t.profile_reward, t.response_reward, weights) for t in record.turns
        ]

    # Greedy eval goes through the same up-front path.
    stacks = [config.episode_table.observations for _, config in pairs for _ in range(samples)]
    decisions, log_probs = draw_decisions(policy, stacks)
    for episode, stack in zip(rows, stacks):
        expected = policy.greedy(stack)
        assert _decisions(decisions)[episode] == _decisions(expected)
        assert np.array_equal(log_probs[episode], policy.log_prob_batch(expected))


_SEED_ELEMENT = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]),
    st.integers(0, 9).map(lambda k: 2**64 + k),
    st.integers(0, 2**130),
)


@given(
    episodes=st.lists(
        st.tuples(st.lists(_SEED_ELEMENT, min_size=1, max_size=6), st.integers(0, 12)),
        min_size=1, max_size=8,
    )
)
@example(episodes=[([0], 3), ([2**32 - 1, 2**32], 1), ([2**64, 0, 0, 0, 2**130, 1], 10)])
@settings(max_examples=60, deadline=None)
def test_one_pass_seeding_equals_numpy_per_seed(episodes: list[tuple[list[int], int]]) -> None:
    """Every seed's state is ``PCG64(seed)``'s and its uniforms are
    ``default_rng(seed)``'s, with seeds of several entropy word counts in one call."""
    seeds = [seed for seed, _ in episodes]
    lengths = [length for _, length in episodes]
    expected = [np.random.PCG64(seed).state["state"] for seed in seeds]
    assert pcg64_states(seeds) == [(state["state"], state["inc"]) for state in expected]
    uniforms = episode_uniforms(seeds, lengths, _N_SLOTS + 2)
    assert len(uniforms) == sum(lengths)
    for seed, length, rows in zip(seeds, lengths, episode_rows(lengths)):
        reference = np.random.default_rng(seed).random((length, _N_SLOTS + 2))
        assert np.array_equal(uniforms[rows], reference)


@pytest.mark.parametrize(
    "element, error",
    [(-1, ValueError), (-(2**70), ValueError), (1.0, TypeError), (np.float64(2.0), TypeError),
     ("7", TypeError)],
    ids=["-1", "-2**70", "1.0", "np.float64", "str"],
)
def test_seed_element_that_is_negative_or_not_an_integer_raises(element, error) -> None:
    stack = _random_observations(np.random.default_rng(5), rows=2)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    for seeds in ([[3, element]], [[3], [element, 4]]):
        with pytest.raises(error):
            pcg64_states(seeds)
        with pytest.raises(error):
            draw_decisions(policy, [stack] * len(seeds), seeds)
    if not isinstance(element, str):  # NumPy refuses the others the same way
        with pytest.raises(error):
            np.random.default_rng([3, element])


def test_greedy_decision_maximizes_each_head() -> None:
    rng = np.random.default_rng(41)
    theta = rng.normal(size=POLICY_DIM)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=theta)
    greedy = policy.greedy(_random_observations(rng))
    base = float(policy.log_prob_batch(greedy)[0])
    others = []
    for j in range(_N_SLOTS):
        include = greedy.include.copy()
        include[0, j] = 1.0 - include[0, j]
        others.append(replace(greedy, include=include))
    for choice in range(_N_SLOTS + 1):
        others.append(replace(greedy, response_choice=np.array([choice])))
    others.append(replace(greedy, engage=1.0 - greedy.engage))
    for other in others:
        assert float(policy.log_prob_batch(other)[0]) <= base + 1e-12


# --- slot-code tables and shared observation rows ----------------------------------------


def _per_row_terms(theta: np.ndarray, slot_feats: np.ndarray, global_feats: np.ndarray):
    """Every head's terms row by row, as the policy computed them before it
    kept slot-code tables and shared rows: (include logits, response logits,
    the left-fold log-normalizer, response probabilities, engage logits).
    ``_two_sided_log_prob`` and ``_separate_grad_pass`` are the per-row
    log-probabilities and gradient rows."""
    z_inc = slot_feats @ theta[0:3]
    slot_logits = slot_feats @ theta[3:6]
    logits = np.concatenate([slot_logits, np.full((len(global_feats), 1), theta[6])], axis=-1)
    log_norm = np.logaddexp.reduce(np.ascontiguousarray(logits.T), axis=0)
    probs = np.exp(logits - log_norm[:, None])
    return z_inc, logits, log_norm, probs, global_feats @ theta[7:9]


def _per_row_sample(theta, slot_feats, global_feats, uniforms):
    z_inc, _, _, probs, z_eng = _per_row_terms(theta, slot_feats, global_feats)
    n = slot_feats.shape[1]
    include = uniforms[:, :n] < 1.0 / (1.0 + np.exp(-z_inc))
    target = uniforms[:, n] * probs.sum(axis=-1)
    choice = np.minimum(np.sum(np.cumsum(probs, axis=-1) < target[:, None], axis=-1), n)
    engage = uniforms[:, n + 1] < 1.0 / (1.0 + np.exp(-z_eng))
    return include.astype(float), choice, engage.astype(float)


def _per_row_greedy(theta, slot_feats, global_feats):
    z_inc, logits, _, _, z_eng = _per_row_terms(theta, slot_feats, global_feats)
    return (z_inc > 0.0).astype(float), np.argmax(logits, axis=-1), (z_eng > 0.0).astype(float)


_THETA = st.lists(
    st.one_of(st.floats(-4.0, 4.0), st.floats(-1e3, 1e3), st.floats(-1e16, 1e16)),
    min_size=POLICY_DIM,
    max_size=POLICY_DIM,
)


@given(
    theta=_THETA,
    horizons=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    samples=st.integers(min_value=1, max_value=4),
    copies=st.lists(st.booleans(), min_size=12, max_size=12),
    source=st.sampled_from(["closed schema", "open schema", "random rows"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(theta=[0.3, -1.7, 2.9, 0.1, 0.2, 0.3, 0.4, 1.1, -3.3], horizons=[1], samples=2,
         copies=[False] * 12, source="random rows", seed=1)
@settings(max_examples=60, deadline=None)
def test_tables_and_shared_rows_equal_the_per_row_formulas(
    theta: list[float], horizons: list[int], samples: int, copies: list[bool],
    source: str, seed: int,
) -> None:
    """Stacks passed as the same object share their rows; equal stacks that
    are other objects do not.  Either way every log-probability, gradient
    row and decision keeps the bits of the per-row formulas."""
    theta_arr = np.array(theta)
    if source == "random rows":
        rng = np.random.default_rng(seed)
        tables = [_random_observations(rng, rows=h) for h in horizons]
    else:
        scenario_list = generate_scenarios(
            len(horizons), seed=seed % 997, extended=source == "open schema"
        )
        tables = [s.user_config(horizon=h).episode_table.observations
                  for s, h in zip(scenario_list, horizons)]
    n_slots = tables[0].slot_feats.shape[1]
    # Sample k of a scenario is its stack itself, or an equal copy of it.
    stacks = [Observation(t.codes.copy(), t.global_feats.copy())
              if copies[(i * samples + k) % len(copies)] else t
              for i, t in enumerate(tables) for k in range(samples)]
    slot_feats = np.concatenate([s.slot_feats for s in stacks])
    global_feats = np.concatenate([s.global_feats for s in stacks])
    seeds = [[seed, e] for e in range(len(stacks))]
    uniforms = np.concatenate([np.random.default_rng(key).random((len(s.global_feats), n_slots + 2))
                               for s, key in zip(stacks, seeds)])
    policy = CategoricalSlotPolicy(n_slots=n_slots, theta=theta_arr)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        sampled, log_probs = draw_decisions(policy, stacks, seeds)
        greedy, greedy_log_probs = draw_decisions(policy, stacks)
        assert np.array_equal(sampled.observations.slot_feats, slot_feats)
        assert np.array_equal(sampled.observations.global_feats, global_feats)
        expected = _per_row_sample(theta_arr, slot_feats, global_feats, uniforms)
        for drawn, columns, lp in ((sampled, expected, log_probs),
                                   (greedy, _per_row_greedy(theta_arr, slot_feats, global_feats),
                                    greedy_log_probs)):
            assert all(np.array_equal(got, want) for got, want in
                       zip((drawn.include, drawn.response_choice, drawn.engage), columns))
            assert np.array_equal(lp, _two_sided_log_prob(policy, drawn))
        # Random decisions on the shared rows reach every (code, outcome) pair.
        decisions = DecisionBatch(
            sampled.observations,
            include=rng.integers(0, 2, size=(len(global_feats), n_slots)).astype(float),
            response_choice=rng.integers(0, n_slots + 1, size=len(global_feats)),
            engage=rng.integers(0, 2, size=len(global_feats)).astype(float),
        )
        for batch in (sampled, decisions):
            log_prob, grads = policy.log_prob_and_grad(batch)
            assert np.array_equal(log_prob, _two_sided_log_prob(policy, batch))
            assert np.array_equal(grads, _separate_grad_pass(policy, batch))
            assert np.array_equal(policy.log_prob_batch(batch), log_prob)


def test_shared_rows_are_grouped_by_stack_object() -> None:
    a, b = (_random_observations(np.random.default_rng(k), rows=3) for k in range(2))
    rows = ObservationRows.stack([a, b, a, Observation(a.codes.copy(), a.global_feats)])
    assert rows.distinct.tolist() == [0, 1, 2, 3, 4, 5, 0, 1, 2, 6, 7, 8]
    assert len(rows.distinct_codes) == len(rows.distinct_global) == 9
    assert np.array_equal(rows.slot_feats[6:9], a.slot_feats)
    # One distinct row standing for several gives each of them the bits of
    # that row on its own.
    one = Observation(a.codes[:1], a.global_feats[:1])
    theta = 3.0 * np.random.default_rng(4).normal(size=POLICY_DIM)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=theta)
    uniforms = np.random.default_rng(5).random((1, _N_SLOTS + 2))
    alone, alone_log_prob = policy.sample_with_log_prob(one, uniforms)
    both, both_log_prob = policy.sample_with_log_prob(
        ObservationRows.stack([one, one]), np.concatenate([uniforms, uniforms]))
    assert np.array_equal(both_log_prob, np.concatenate([alone_log_prob] * 2))
    for name in ("include", "response_choice", "engage"):
        assert np.array_equal(getattr(both, name), np.concatenate([getattr(alone, name)] * 2))
    for name in ("codes", "slot_feats", "global_feats"):
        assert np.array_equal(getattr(both.observations, name),
                              np.concatenate([getattr(one, name)] * 2))
    grads, alone_grads = policy.log_prob_and_grad(both)[1], policy.log_prob_and_grad(alone)[1]
    assert np.array_equal(grads, np.concatenate([alone_grads] * 2))


@pytest.mark.parametrize("code", [4, 255])
def test_codes_outside_the_code_table_raise(code: int) -> None:
    """A slot code with no ``SLOT_CODE_FEATS`` row is refused, not read as another row."""
    rng = np.random.default_rng(3)
    random_obs = _random_observations(rng, rows=4)
    codes = random_obs.codes.copy()
    codes[2, 5] = code
    obs = Observation(codes, random_obs.global_feats)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=rng.normal(size=POLICY_DIM))
    with pytest.raises(IndexError):
        policy.greedy(obs)
    with pytest.raises(IndexError):
        draw_decisions(policy, [obs, obs], [[0], [1]])


# --- collection invariants -------------------------------------------------------------


def test_ratios_are_exactly_one_right_after_collection() -> None:
    pairs = _scenario_pairs(6, seed=3)
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=2, seed=1)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    batch, _ = collect(pairs, policy, value_fn, cfg, (1.0, 1.0), SlotMatcher(kind="exact"), 0)
    recomputed = policy.log_prob_batch(batch.decisions)
    ratios = policy_ratio(recomputed, batch.log_probs_old, cfg.ratio_clamp)
    assert np.max(np.abs(np.asarray(ratios) - 1.0)) <= 1e-12


def test_collection_is_deterministic_given_seed_and_round() -> None:
    pairs = _scenario_pairs(4, seed=5)
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=2, seed=9)
    matcher = SlotMatcher(kind="exact")

    def run() -> list[float]:
        policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
        value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
        batch, _ = collect(pairs, policy, value_fn, cfg, (1.0, 1.0), matcher, 0)
        return batch.rewards.tolist()

    assert run() == run()


@given(
    horizons=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    exponent=st.integers(-300, 300),
    phi_seed=st.integers(0, 2**32 - 1),
)
@example(horizons=[10, 10], exponent=0, phi_seed=3)
@settings(max_examples=40, deadline=None)
def test_stored_values_equal_each_row_times_phi_at_any_scale(
    horizons: list[int], exponent: int, phi_seed: int
) -> None:
    # One stacked product over the round; each row must keep the bits of
    # its own 1-D dot, which a matrix-vector product does not.
    pairs = [(s.scenario_id, s.user_config())
             for k, horizon in enumerate(horizons)
             for s in generate_scenarios(1, seed=k, horizon=horizon)]
    dim = observation_dim(_N_SLOTS)
    phi = np.random.default_rng(phi_seed).normal(size=dim) * 10.0**exponent
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=1)
    batch, _ = collect(pairs, CategoricalSlotPolicy(n_slots=_N_SLOTS), LinearValue(dim, phi),
                       cfg, (1.0, 1.0), SlotMatcher(kind="exact"), 0)
    flat = np.concatenate([config.episode_table.observations.flat() for _, config in pairs])
    assert np.array_equal(batch.values, [float(row @ phi) for row in flat])


def test_stored_values_are_per_row_predictions() -> None:
    pairs = _scenario_pairs(3, seed=8)
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=2, seed=4)
    dim = observation_dim(_N_SLOTS)
    value_fn = LinearValue(dim=dim, phi=np.random.default_rng(61).normal(size=dim))
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    batch, _ = collect(pairs, policy, value_fn, cfg, (1.0, 1.0), SlotMatcher(kind="exact"), 0)
    rows = episode_rows(batch.lengths)
    for index, (_, config) in enumerate(pairs):
        # Walk the user side afresh and value each turn's observation on its own.
        schema, horizon = config.profile.schema, config.horizon
        state = EnvView(schema).with_user_turn(first_utterance(config))
        user = initial_state(config)
        expected = [float(observe([state], schema, horizon).flat()[0] @ value_fn.phi)]
        while (step := next_utterance(user, config)) is not None:
            utterance, user = step
            state = state.with_user_turn(utterance)
            expected.append(float(observe([state], schema, horizon).flat()[0] @ value_fn.phi))
        for episode in rows[2 * index : 2 * index + 2]:
            assert batch.values[episode].tolist() == expected


def test_episode_table_observations_are_read_only_and_survive_collection() -> None:
    # Every episode of a config shares its table's observation arrays.
    pairs = _scenario_pairs(2, seed=14)
    observations = pairs[0][1].episode_table.observations
    arrays = (observations.codes, observations.slot_feats, observations.global_feats)
    before = [array.copy() for array in arrays]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 7
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=2, seed=3)
    theta = np.random.default_rng(67).normal(size=POLICY_DIM)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=theta)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    for round_index in (1, 2):
        batch, _ = collect(
            pairs, policy, value_fn, cfg, (1.0, 1.0), SlotMatcher(kind="exact"), round_index
        )
        update(policy, value_fn, batch, cfg)
    assert pairs[0][1].episode_table.observations is observations
    assert [array.tolist() for array in arrays] == [array.tolist() for array in before]


@given(
    theta=st.lists(
        st.floats(min_value=-4.0, max_value=4.0), min_size=POLICY_DIM, max_size=POLICY_DIM
    ),
    horizons=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    samples=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["closed", "conflict", "open schema"]),
    matcher_spec=st.sampled_from(["exact", "token:0.5"]),
    sampled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_play_equals_one_draw_and_per_episode_rollouts(
    theta: list[float], horizons: list[int], samples: int, kind: str, matcher_spec: str,
    sampled: bool, seed: int,
) -> None:
    """``play`` draws what ``draw_decisions`` draws, and records what each
    episode's agent, holding only its own rows, plays in its environment."""
    matcher = SlotMatcher.parse(matcher_spec)
    conflict_rng = random.Random(seed)
    scenario_list = generate_scenarios(len(horizons), seed=seed % 997,
                                       extended=kind == "open schema")
    episodes = []
    for scenario, horizon in zip(scenario_list, horizons):
        conflict = None
        if kind == "conflict":
            horizon = max(horizon, 7)  # room to recover after the turn-6 swap
            conflict = default_conflict(
                scenario.profile, scenario.style_seed, conflict_rng, matcher=matcher)
        config = scenario.user_config(horizon=horizon, conflict=conflict)
        episodes += [(scenario.scenario_id, DialogueEnv(config, matcher=matcher))] * samples
    seeds = [[seed, e] for e in range(len(episodes))] if sampled else None
    policy = CategoricalSlotPolicy(len(scenario_list[0].profile.schema.slots), np.array(theta))

    decisions, log_probs, records = play(policy, episodes, seeds)
    stacks = [env.config.episode_table.observations for _, env in episodes]
    expected, expected_log_probs = draw_decisions(policy, stacks, seeds)
    for name, column in _columns(decisions).items():
        assert np.array_equal(column, _columns(expected)[name])
    assert np.array_equal(log_probs, expected_log_probs)
    lengths = [len(stack.global_feats) for stack in stacks]
    assert len(records) == len(episodes)
    for (sid, env), rows, record in zip(episodes, episode_rows(lengths), records):
        own = (expected.include[rows].astype(bool).tolist(),
               expected.response_choice[rows].tolist(),
               expected.engage[rows].astype(bool).tolist())
        assert record == rollout(env, PolicyAgent(own, slice(0, rows.stop - rows.start)), sid)


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=5),
    scenario_seed=st.integers(min_value=0, max_value=2**31 - 1),
    decision_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_agents_reading_one_conversion_equal_agents_converting_their_own_rows(
    lengths: list[int], scenario_seed: int, decision_seed: int
) -> None:
    configs = [
        (s.scenario_id, s.user_config())
        for h in lengths for s in generate_scenarios(1, seed=scenario_seed + h, horizon=h)
    ]
    stacks = [config.episode_table.observations for _, config in configs]
    obs = Observation(np.concatenate([o.codes for o in stacks]),
                      np.concatenate([o.global_feats for o in stacks]))
    decisions = _random_decisions(np.random.default_rng(decision_seed), obs)
    matcher = SlotMatcher(kind="exact")
    lists = decisions.as_lists()
    for (sid, config), rows in zip(configs, episode_rows(lengths)):
        own = (decisions.include[rows].astype(bool).tolist(),
               decisions.response_choice[rows].tolist(),
               decisions.engage[rows].astype(bool).tolist())
        env = DialogueEnv(config, matcher=matcher)
        expected = rollout(env, PolicyAgent(own, slice(0, rows.stop - rows.start)), sid)
        assert rollout(env, PolicyAgent(lists, rows), sid) == expected


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.0, 1.0), (2.5, 0.5)])
def test_round_rewards_are_each_episodes_weighted_rewards_in_order(
    weights: tuple[float, float]
) -> None:
    pairs = _scenario_pairs(3, seed=21)
    cfg = PPOConfig(total_rounds=1, samples_per_scenario=2, seed=5)
    theta = np.random.default_rng(71).normal(size=POLICY_DIM)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=theta)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    batch, records = collect(pairs, policy, value_fn, cfg, weights, SlotMatcher(kind="exact"), 2)
    assert [r.scenario_id for r in records] == [sid for sid, _ in pairs for _ in range(2)]
    assert batch.lengths.tolist() == [len(r.turns) for r in records]
    expected = np.concatenate([
        combined_reward(np.array([t.profile_reward for t in r.turns]),
                        np.array([t.response_reward for t in r.turns]), weights)
        for r in records
    ])
    assert np.array_equal(batch.rewards, expected)
    # Both reward columns vary, so a swap of the weights or columns would show.
    assert len({t.profile_reward for r in records for t in r.turns}) > 2
    assert len({t.response_reward for r in records for t in r.turns}) == 2


def test_round_batch_length_validation() -> None:
    rng = np.random.default_rng(43)
    obs = _random_observations(rng, rows=3)
    decisions = _random_decisions(rng, obs)
    columns = dict(
        decisions=decisions,
        log_probs_old=np.zeros(3),
        values=np.zeros(3),
        rewards=np.zeros(3),
        lengths=np.array([1, 2]),
    )
    RoundBatch(**columns)
    for name, bad in (
        ("log_probs_old", np.zeros(2)),
        ("values", np.zeros(4)),
        ("rewards", np.zeros((3, 1))),
        ("lengths", np.array([1, 1])),
        ("lengths", np.array([0, 3])),
        ("lengths", np.array([[1, 2]])),
        ("lengths", np.array([], dtype=int)),
    ):
        with pytest.raises(ValueError):
            RoundBatch(**{**columns, name: bad})


# --- updates ---------------------------------------------------------------------------


def _toy_round(
    policy: CategoricalSlotPolicy,
    value_fn: LinearValue,
    lengths: list[int],
    seed: int,
    reward_fn=None,
) -> RoundBatch:
    """Random episodes of these lengths as one round batch; each episode
    draws its observations, then its uniforms, then its rewards."""
    rng = np.random.default_rng(seed)
    stacks, uniforms, rewards = [], [], []
    for length in lengths:
        stacks.append(_random_observations(rng, rows=length))
        uniforms.append(rng.random((length, _N_SLOTS + 2)))
        if reward_fn is None:
            rewards.append(rng.uniform(0.0, 2.0, size=length))
    obs = Observation(
        np.concatenate([o.codes for o in stacks]),
        np.concatenate([o.global_feats for o in stacks]),
    )
    decisions = policy.sample_with_log_prob(obs, np.concatenate(uniforms))[0]
    return RoundBatch(
        decisions=decisions,
        log_probs_old=policy.log_prob_batch(decisions),
        values=np.array([float(row @ value_fn.phi) for row in obs.flat()]),
        rewards=np.concatenate(rewards) if reward_fn is None else reward_fn(decisions) * 1.0,
        lengths=np.array(lengths),
    )


def _critic_inputs(batch: RoundBatch) -> np.ndarray:
    """The critic's input rows: each decision row's flattened observation."""
    return batch.decisions.observations.flat()


def test_update_with_zero_variance_advantages_leaves_policy_unchanged() -> None:
    # Constant rewards and a zero critic make every advantage identical, so the
    # normalized advantages vanish and no gradient flows to the actor.
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    cfg = PPOConfig(epochs=2, critic_lr=0.0)
    batch = _toy_round(
        policy, value_fn, lengths=[4] * 3, seed=7, reward_fn=lambda b: np.zeros(len(b))
    )
    before = policy.theta.copy()
    update(policy, value_fn, batch, cfg)
    assert policy.theta.tolist() == before.tolist()


def test_update_improves_surrogate_objective_on_fixed_batch() -> None:
    rng = np.random.default_rng(51)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=rng.normal(0, 0.1, POLICY_DIM))
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    # Reward engaging responses only: the engage head has a clean signal.
    batch = _toy_round(
        policy,
        value_fn,
        lengths=[6] * 8,
        seed=11,
        reward_fn=lambda b: b.engage,
    )
    engage_before = float(policy.theta[7])
    update(policy, value_fn, batch, PPOConfig(epochs=4, critic_lr=0.0))
    engage_after = float(policy.theta[7])
    # The engage bias weight moves toward engaging.
    assert engage_after > engage_before


def test_update_decreases_critic_loss_on_fixed_batch() -> None:
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    batch = _toy_round(policy, value_fn, lengths=[5] * 6, seed=13)
    returns = np.concatenate(
        [np.cumsum(batch.rewards[rows][::-1])[::-1] for rows in episode_rows(batch.lengths)]
    )
    feats = _critic_inputs(batch)
    loss_before = float(np.mean((feats @ value_fn.phi - returns) ** 2))
    update(policy, value_fn, batch, PPOConfig(epochs=3, actor_lr=0.0, critic_lr=0.005))
    loss_after = float(np.mean((feats @ value_fn.phi - returns) ** 2))
    assert loss_after < loss_before


def test_update_advantages_are_per_episode_gae_for_mixed_lengths() -> None:
    # Frozen actor and critic: the reported value loss is the squared error
    # against the returns, so it pins every advantage bit of the one padded
    # GAE pass to separate per-episode passes.
    rng = np.random.default_rng(71)
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=rng.normal(size=POLICY_DIM))
    dim = observation_dim(_N_SLOTS)
    value_fn = LinearValue(dim=dim, phi=rng.normal(size=dim))
    cfg = PPOConfig(epochs=1, actor_lr=0.0, critic_lr=0.0, gamma=0.9, lam=0.5)
    batch = _toy_round(policy, value_fn, lengths=[3, 7, 1, 10, 13, 7], seed=23)
    gae = np.concatenate([
        compute_gae(batch.rewards[rows], batch.values[rows], cfg.gamma, cfg.lam)
        for rows in episode_rows(batch.lengths)
    ])
    expected = float(np.mean((_critic_inputs(batch) @ value_fn.phi - (gae + batch.values)) ** 2))
    assert update(policy, value_fn, batch, cfg).value_loss == expected


def test_update_reports_clip_fraction_in_unit_interval() -> None:
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    batch = _toy_round(policy, value_fn, lengths=[5] * 4, seed=17)
    stats = update(policy, value_fn, batch, PPOConfig(epochs=3))
    assert 0.0 <= stats.clip_fraction <= 1.0
    assert np.isfinite(stats.value_loss)


def test_update_raises_on_nonfinite_parameters() -> None:
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS)
    value_fn = LinearValue(dim=observation_dim(_N_SLOTS))
    batch = _toy_round(policy, value_fn, lengths=[4] * 2, seed=19)
    policy.theta[0] = np.nan
    with pytest.raises(FloatingPointError):
        update(policy, value_fn, batch, PPOConfig(epochs=1))


# --- training loop -----------------------------------------------------------------------


def test_train_is_deterministic_for_a_fixed_seed() -> None:
    pairs = _scenario_pairs(4, seed=2)
    cfg = PPOConfig(total_rounds=3, samples_per_scenario=2, seed=5)
    a = train(pairs, cfg=cfg)
    b = train(pairs, cfg=cfg)
    assert a.policy.theta.tolist() == b.policy.theta.tolist()
    assert [row.mean_total_reward for row in a.curve] == [
        row.mean_total_reward for row in b.curve
    ]


def test_train_curve_has_one_row_per_round_with_increasing_steps() -> None:
    pairs = _scenario_pairs(3, seed=4)
    cfg = PPOConfig(total_rounds=4, samples_per_scenario=1, seed=0)
    result = train(pairs, cfg=cfg)
    assert len(result.curve) == 4
    assert [row.step for row in result.curve] == [1, 2, 3, 4]
    assert result.final_step == 4


def test_train_learns_on_small_budget() -> None:
    pairs = _scenario_pairs(8, seed=6)
    cfg = PPOConfig(
        total_rounds=40, samples_per_scenario=2, seed=1, actor_lr=0.1, critic_lr=0.01
    )
    result = train(pairs, cfg=cfg)
    first = result.curve[0].mean_total_reward
    last = result.curve[-1].mean_total_reward
    assert last > first * 1.2


# --- checkpoints --------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path: Path) -> None:
    rng = np.random.default_rng(53)
    schema = SlotSchema.aloe()
    policy = CategoricalSlotPolicy(n_slots=_N_SLOTS, theta=rng.normal(size=POLICY_DIM))
    value_fn = LinearValue(
        dim=observation_dim(_N_SLOTS), phi=rng.normal(size=observation_dim(_N_SLOTS))
    )
    cfg = PPOConfig(seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, policy, value_fn, cfg, (1.0, 0.5), schema, step=12)
    loaded = load_checkpoint(path)
    assert loaded.step == 12
    assert loaded.weights == (1.0, 0.5)
    assert loaded.policy().theta.tolist() == policy.theta.tolist()
    assert loaded.value_fn().phi.tolist() == value_fn.phi.tolist()
    assert loaded.schema.slots == schema.slots
    assert loaded.fingerprint == config_fingerprint(cfg, (1.0, 0.5), schema)


def test_checkpoint_rejects_wrong_format(tmp_path: Path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something.else", "theta": []}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text(json.dumps({"format": "dialign.checkpoint.v1"}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_fingerprint_changes_with_config() -> None:
    schema = SlotSchema.aloe()
    base = config_fingerprint(PPOConfig(seed=0), (1.0, 1.0), schema)
    assert base == config_fingerprint(PPOConfig(seed=0), (1.0, 1.0), schema)
    assert base != config_fingerprint(PPOConfig(seed=1), (1.0, 1.0), schema)
    assert base != config_fingerprint(PPOConfig(seed=0), (1.0, 0.0), schema)


_REWARDS = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 0.1, 1 / 3, 2.0, 1e-300])


@settings(max_examples=300, deadline=None)
@given(episodes=st.lists(st.lists(st.tuples(_REWARDS, _REWARDS, _REWARDS), min_size=1,
                                  max_size=12), min_size=1, max_size=20))
@example(episodes=[[(-0.0, -0.0, 0.5)], [(-0.0, 0.25, -0.0)]])
def test_reward_means_of_a_table_equal_the_per_record_sum_fold(episodes) -> None:
    """Episodes of any lengths, padded with zeros in the table: each mean has
    the bits of ``np.mean`` over the episodes' Python ``sum``s, -0.0 included."""
    names = ("profile_reward", "response_reward", "total_reward")
    records = [SimpleNamespace(turns=[SimpleNamespace(**dict(zip(names, turn))) for turn in turns])
               for turns in episodes]
    table = reward_table(records)
    assert table.shape == (len(episodes), max(map(len, episodes)), 3)
    for row, turns in zip(table, episodes):
        assert row[len(turns):].tobytes() == np.zeros_like(row[len(turns):]).tobytes()
    folds = [float(np.mean([sum(getattr(t, name) for t in r.turns) for r in records]))
             for name in names]
    assert np.array(reward_means(table)).tobytes() == np.array(folds).tobytes()
