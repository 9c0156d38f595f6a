"""PPO training over a factored categorical dialogue policy.

The policy factors an agent turn into independent heads sharing per-slot
features: a Bernoulli inclusion decision per schema slot (does the estimate
carry this slot), one categorical choice over slots-plus-none for which slot
the response addresses, and a Bernoulli engagement flag.  All heads are
linear in the observation features, log-probabilities and their gradients
are computed analytically, and a central finite-difference helper over a
``DecisionBatch`` (one gradient row per batch row) is provided so tests
can cross-check the closed form.

Observations and decisions exist only as stacks: sampling maps an
observation stack and one row of uniforms per observation to a
``DecisionBatch``.  The scripted user ignores the agent, so every episode's
observations are known before it starts, and decisions are drawn up front
for a whole training round or eval call in one policy call
(``draw_decisions``), whose decision columns become plain lists once per
draw; each ``PolicyAgent`` acts out its episode's rows of those lists.  A
round stays one row-stacked ``RoundBatch`` from the draw to the update, and
its rewards are weighted in one pass over the round's turns.

The update is clipped-surrogate PPO: for each collected round the sampling
policy is frozen (its log-probabilities are stored in the round batch),
advantages come from one generalized advantage estimation pass over the
round with a terminal value of zero, advantages are normalized per round,
each epoch computes log-probabilities and gradients in one pass, and the
actor ascends

    E[ min(ratio * A, clip(ratio, 1 - eps, 1 + eps) * A) ]

with the ratio's exponent clamped for overflow safety.  No KL penalty is
applied.  The critic is a linear value function regressed on GAE returns.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .env import (
    AgentAction,
    DialogueEnv,
    EnvView,
    EpisodeRecord,
    Observation,
    UNKNOWN_VALUE,
    make_response,
    observation_dim,
    rollout,
)
from .errors import CheckpointError, ConfigError, SchemaError
from .profiles import Profile, SlotMatcher, SlotSchema
from .reward import combined_reward
from .user_sim import UserConfig

CHECKPOINT_FORMAT = "dialign.checkpoint.v1"

# theta layout: [w_include (3) | w_respond (3) | b_none (1) | w_engage (2)]
_W_INC = slice(0, 3)
_W_RESP = slice(3, 6)
_B_NONE = 6
_W_ENG = slice(7, 9)
POLICY_DIM = 9


@dataclass(frozen=True)
class PPOConfig:
    """Desk-scale PPO hyperparameters.

    The learning rates are sized for the 9-parameter linear policy here,
    not for fine-tuning a language model; everything else keeps the usual
    clipped-PPO shape (eps 0.2, gamma 1 over finite episodes, lambda 0.95,
    4 sampled episodes per scenario, 10 collection rounds by default).
    """

    clip_eps: float = 0.2
    gamma: float = 1.0
    lam: float = 0.95
    actor_lr: float = 5e-2
    critic_lr: float = 1e-2
    epochs: int = 4
    samples_per_scenario: int = 4
    total_rounds: int = 10
    ratio_clamp: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "int":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{spec.name} must be an integer, got {value!r}")
            elif (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ConfigError(f"{spec.name} must be a finite number, got {value!r}")
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigError(f"clip_eps must be in (0, 1), got {self.clip_eps}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        # Zero is allowed so one head can be frozen for ablations.
        if self.actor_lr < 0 or self.critic_lr < 0:
            raise ConfigError("learning rates must be non-negative")
        if self.epochs < 1 or self.samples_per_scenario < 1 or self.total_rounds < 1:
            raise ConfigError("epochs, samples_per_scenario, total_rounds must be >= 1")
        if self.ratio_clamp <= 0:
            raise ConfigError("ratio_clamp must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


def _log_sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # log sigma(z) = -log(1 + exp(-z)), stable for large |z|
    return -np.logaddexp(0.0, -z)


def _bernoulli_log_pmf(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log P(y) of y in {0, 1} under logit z: log sigma(z) or log sigma(-z)."""
    return _log_sigmoid(np.where(y == 1, z, -z))


def _log_normalizer(logits: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis of (N, K) logits, folded left to right.

    Reducing the transposed copy over its leading axis runs the same left
    fold as a reduction along each row, as K - 1 vector steps over all rows.
    """
    return np.logaddexp.reduce(np.ascontiguousarray(logits.T), axis=0)


# A DecisionBatch's (include, response choice, engage) columns as plain lists.
DecisionLists = tuple[list[list[bool]], list[int], list[bool]]


@dataclass(frozen=True)
class DecisionBatch:
    """Observation rows and the decision taken at each, column by column.

    ``response_choice`` indexes the schema slots; the value ``n_slots``
    means "address nothing".  Collection-time and update-time
    log-probabilities go through the same batched code path, so recomputing
    under unchanged parameters reproduces the stored values bit for bit.
    """

    slot_feats: np.ndarray  # (N, n_slots, SLOT_FEATURE_DIM)
    global_feats: np.ndarray  # (N, GLOBAL_FEATURE_DIM)
    include: np.ndarray  # (N, n_slots) in {0, 1}
    response_choice: np.ndarray  # (N,) ints in [0, n_slots]
    engage: np.ndarray  # (N,) in {0, 1}

    def __len__(self) -> int:
        return self.global_feats.shape[0]

    def as_lists(self) -> DecisionLists:
        """The decision columns (include, response choice, engage) as plain
        lists, converted once: each agent turn reads one row, and numpy
        scalars are slow to read."""
        return (
            self.include.astype(bool).tolist(),
            self.response_choice.tolist(),
            self.engage.astype(bool).tolist(),
        )


class CategoricalSlotPolicy:
    """Linear factored policy; parameters are shared across slots."""

    def __init__(self, n_slots: int, theta: np.ndarray | None = None) -> None:
        if n_slots < 1:
            raise ConfigError("policy needs at least one slot")
        self.n_slots = n_slots
        if theta is None:
            theta = np.zeros(POLICY_DIM)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (POLICY_DIM,):
            raise ConfigError(f"theta must have shape ({POLICY_DIM},), got {theta.shape}")
        self.theta = theta.copy()

    # -- head distributions ----------------------------------------------

    def _include_logits(self, slot_feats: np.ndarray) -> np.ndarray:
        return slot_feats @ self.theta[_W_INC]

    def _response_logits(self, slot_feats: np.ndarray) -> np.ndarray:
        slot_logits = slot_feats @ self.theta[_W_RESP]
        none_col = np.full(slot_logits.shape[:-1] + (1,), self.theta[_B_NONE])
        return np.concatenate([slot_logits, none_col], axis=-1)

    def _engage_logit(self, global_feats: np.ndarray) -> np.ndarray:
        return global_feats @ self.theta[_W_ENG]

    def sample(self, obs: Observation, uniforms: np.ndarray) -> DecisionBatch:
        """Draw one decision per row of an observation stack from that row of
        ``uniforms``; log-probabilities come from ``log_prob_batch``.

        Row t's uniforms are ``n_slots`` inclusion draws, then the response
        draw, then the engagement draw, so one ``rng.random((T, n_slots + 2))``
        draw consumes the generator exactly as T per-row draws would.
        """
        slot_feats, global_feats = obs.slot_feats, obs.global_feats
        n = slot_feats.shape[1]
        if uniforms.shape != (len(global_feats), n + 2):
            raise ValueError(f"need ({len(global_feats)}, {n + 2}) uniforms, got {uniforms.shape}")
        include = uniforms[:, :n] < _sigmoid(self._include_logits(slot_feats))
        logits = self._response_logits(slot_feats)
        probs = np.exp(logits - _log_normalizer(logits)[:, None])
        # Inverse-CDF draw: the first index whose cumulative mass reaches the
        # scaled uniform, capped at the "address nothing" column.
        target = uniforms[:, n] * probs.sum(axis=-1)
        choice = np.minimum(np.sum(np.cumsum(probs, axis=-1) < target[:, None], axis=-1), n)
        engage = uniforms[:, n + 1] < _sigmoid(self._engage_logit(global_feats))
        return DecisionBatch(
            slot_feats=slot_feats,
            global_feats=global_feats,
            include=include.astype(float),
            response_choice=choice,
            engage=engage.astype(float),
        )

    def sample_with_log_prob(
        self, obs: Observation, uniforms: np.ndarray
    ) -> tuple[DecisionBatch, np.ndarray]:
        """``sample``, with the batch's ``log_prob_batch`` values."""
        batch = self.sample(obs, uniforms)
        return batch, self.log_prob_batch(batch)

    def greedy(self, obs: Observation) -> DecisionBatch:
        """The most likely decision of each head, per row of an observation stack."""
        slot_feats, global_feats = obs.slot_feats, obs.global_feats
        return DecisionBatch(
            slot_feats=slot_feats,
            global_feats=global_feats,
            include=(self._include_logits(slot_feats) > 0.0).astype(float),
            response_choice=np.argmax(self._response_logits(slot_feats), axis=-1),
            engage=(self._engage_logit(global_feats) > 0.0).astype(float),
        )

    def log_prob_batch(self, batch: DecisionBatch) -> np.ndarray:
        return self.log_prob_and_grad(batch, with_grad=False)[0]

    def log_prob_and_grad(
        self, batch: DecisionBatch, with_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-row log pi and, ``with_grad``, the analytic d log pi / d theta,
        shape (N, POLICY_DIM), from one evaluation of each head's logits."""
        z_inc = self._include_logits(batch.slot_feats)  # (N, n)
        lp = np.sum(_bernoulli_log_pmf(batch.include, z_inc), axis=-1)
        logits = self._response_logits(batch.slot_feats)  # (N, n+1)
        log_norm = _log_normalizer(logits)
        rows = np.arange(len(batch))
        lp = lp + logits[rows, batch.response_choice] - log_norm
        z_eng = self._engage_logit(batch.global_feats)
        lp = lp + _bernoulli_log_pmf(batch.engage, z_eng)
        if not with_grad:
            return lp, None
        grads = np.zeros((len(batch), POLICY_DIM))
        p_inc = _sigmoid(z_inc)  # (N, n_slots)
        grads[:, _W_INC] = np.einsum("ns,nsk->nk", batch.include - p_inc, batch.slot_feats)
        probs = np.exp(logits - log_norm[:, None])
        indicator = np.zeros_like(probs)
        indicator[rows, batch.response_choice] = 1.0
        diff = indicator - probs
        grads[:, _W_RESP] = np.einsum("ns,nsk->nk", diff[:, :-1], batch.slot_feats)
        grads[:, _B_NONE] = diff[:, -1]
        grads[:, _W_ENG] = (batch.engage - _sigmoid(z_eng))[:, None] * batch.global_feats
        return lp, grads


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


class LinearValue:
    """Linear state-value function on the flattened observation."""

    def __init__(self, dim: int, phi: np.ndarray | None = None) -> None:
        if phi is None:
            phi = np.zeros(dim)
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (dim,):
            raise ConfigError(f"phi must have shape ({dim},), got {phi.shape}")
        self.phi = phi.copy()

    def predict(self, flat_obs: np.ndarray) -> float:
        return float(flat_obs @ self.phi)

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        return features @ self.phi


# --- round batches and GAE -------------------------------------------------------


@dataclass(frozen=True)
class RoundBatch:
    """One training round's data, sampled under a frozen policy, row-stacked
    episode after episode; ``lengths`` gives each episode's turn count.

    The decisions carry each row's observation; its flattened form is the
    critic's input, and ``values`` the critic's per-row prediction of it.
    """

    decisions: DecisionBatch
    log_probs_old: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.decisions)
        if not (
            self.log_probs_old.shape == (n,)
            and self.values.shape == (n,)
            and self.rewards.shape == (n,)
            and self.lengths.ndim == 1
            and self.lengths.size > 0
            and np.all(self.lengths >= 1)
            and self.lengths.sum() == n
        ):
            raise ValueError("round batch columns must share one length, split by episode lengths")


def episode_rows(lengths: Sequence[int]) -> list[slice]:
    """Each episode's rows in a stack of episodes of these lengths, in order."""
    ends = np.cumsum(lengths).tolist()
    return [slice(end - n, end) for n, end in zip(lengths, ends)]


def compute_gae(
    rewards: np.ndarray | Sequence[float],
    values: np.ndarray | Sequence[float],
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Backward-recursive generalized advantage estimation over an
    (episodes x turns) table; a 1-D input is one episode.

    delta_t = r_t + gamma * V(s_{t+1}) - V(s_t), with V past the final step
    taken as 0, and A_t = delta_t + gamma * lam * A_{t+1}.  Zero rewards and
    values padding an episode add exactly 0, so its advantages keep their bits.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape or rewards.ndim not in (1, 2):
        raise ValueError(f"rewards and values must share a 1-D or 2-D shape, got "
                         f"{rewards.shape} vs {values.shape}")
    table_r, table_v = np.atleast_2d(rewards), np.atleast_2d(values)
    advantages = np.zeros_like(table_r)
    next_value = last = np.zeros(table_r.shape[0])
    for t in reversed(range(table_r.shape[1])):
        delta = table_r[:, t] + gamma * next_value - table_v[:, t]
        last = delta + gamma * lam * last
        advantages[:, t] = last
        next_value = table_v[:, t]
    return advantages.reshape(rewards.shape)


def policy_ratio(
    log_prob_new: np.ndarray | float,
    log_prob_old: np.ndarray | float,
    clamp: float = 60.0,
) -> np.ndarray | float:
    """exp(new - old) with the exponent clamped to +-clamp."""
    diff = np.clip(np.asarray(log_prob_new) - np.asarray(log_prob_old), -clamp, clamp)
    return np.exp(diff)


def ppo_surrogate(
    ratio: np.ndarray | float, advantage: np.ndarray | float, clip_eps: float
) -> np.ndarray | float:
    """Clipped surrogate objective min(r*A, clip(r)*A)."""
    ratio = np.asarray(ratio, dtype=float)
    if np.any(ratio <= 0.0):
        raise ValueError("probability ratios must be positive")
    advantage = np.asarray(advantage, dtype=float)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    return np.minimum(ratio * advantage, clipped * advantage)


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance per batch; a zero-variance batch maps to zeros."""
    advantages = np.asarray(advantages, dtype=float)
    centered = advantages - advantages.mean()
    std = advantages.std()
    if std == 0.0:
        return centered
    return centered / std


# --- acting in the environment -------------------------------------------------


def draw_decisions(
    policy: CategoricalSlotPolicy,
    stacks: Sequence[Observation],
    seeds: Sequence[Sequence[int]] | None = None,
) -> tuple[DecisionBatch, np.ndarray]:
    """Every episode's decisions and log-probabilities, row-stacked in the
    order of ``stacks``, from one policy call.

    Episode i's uniforms are one ``(T_i, n_slots + 2)`` draw from
    ``default_rng(seeds[i])``, so its rows are exactly those ``sample``
    makes from that block alone.  ``seeds=None`` takes greedy decisions.
    """
    slot_feats = np.concatenate([stack.slot_feats for stack in stacks])
    global_feats = np.concatenate([stack.global_feats for stack in stacks])
    obs = Observation(slot_feats, global_feats)
    if seeds is None:
        batch = policy.greedy(obs)
        return batch, policy.log_prob_batch(batch)
    uniforms = np.concatenate(
        [np.random.default_rng(seed).random((len(stack.global_feats), policy.n_slots + 2))
         for stack, seed in zip(stacks, seeds, strict=True)]
    )
    return policy.sample_with_log_prob(obs, uniforms)


class PolicyAgent:
    """Acts out its episode's rows of the decisions ``draw_decisions`` drew
    up front for a whole training round or eval call, as an environment Agent.
    Every agent of a draw reads the same ``DecisionBatch.as_lists`` columns,
    converted once per draw; ``rows`` are its episode's rows in them.

    Each turn translates its row into a concrete action: included slots take
    their latest evidence value (or the unknown placeholder when the policy
    includes a slot blind), and the response addresses the chosen slot only
    when the estimate actually carries it.
    """

    def __init__(self, decisions: DecisionLists, rows: slice) -> None:
        self._include, self._choice, self._engage = decisions
        self._first = rows.start

    def act(self, view: EnvView) -> AgentAction:
        state = view.state
        row = self._first + state.latest.turn - 1
        names = view.schema.slots
        seen = state.seen_values
        entries = {
            slot: seen.get(slot, UNKNOWN_VALUE)
            for slot, included in zip(names, self._include[row])
            if included
        }
        estimate = Profile(schema=view.schema, entries=entries)
        addressed: list[tuple[str, str]] = []
        choice = self._choice[row]
        if choice < len(names):
            slot = names[choice]
            if slot in entries:
                addressed = [(slot, entries[slot])]
        return AgentAction(make_response(addressed, self._engage[row]), estimate)

    def finish(self, record: EpisodeRecord, weights: tuple[float, float]) -> np.ndarray:
        """The played episode's rewards, weighted per turn.  ``collect``
        weights a whole round at once; nothing in ``src/`` calls this, and
        it stays because ``bench/bench_trace.py`` traces it by name."""
        profile = np.array([t.profile_reward for t in record.turns])
        response = np.array([t.response_reward for t in record.turns])
        return combined_reward(profile, response, weights)


def collect(
    scenarios: Sequence[tuple[str, UserConfig]],
    policy: CategoricalSlotPolicy,
    value_fn: LinearValue,
    cfg: PPOConfig,
    weights: tuple[float, float],
    matcher: SlotMatcher,
    round_index: int,
) -> tuple[RoundBatch, list[EpisodeRecord]]:
    """Sample a round of episodes under the frozen current policy and critic:
    one ``draw_decisions`` call for the round, converted to lists once, each
    scenario valued once, and the round's rewards weighted in one
    ``combined_reward`` call over its turns in episode order."""
    samples = range(cfg.samples_per_scenario)
    stacks = [config.episode_table.observations for _, config in scenarios for _ in samples]
    seeds = [[cfg.seed, round_index, idx, s] for idx in range(len(scenarios)) for s in samples]
    decisions, log_probs = draw_decisions(policy, stacks, seeds)
    lists = decisions.as_lists()
    lengths = [len(stack.global_feats) for stack in stacks]
    rows = iter(episode_rows(lengths))
    values = []
    records: list[EpisodeRecord] = []
    for scenario_id, config in scenarios:
        env = DialogueEnv(config, matcher=matcher)
        flat = config.episode_table.observations.flat()
        # Per-row 1-D dot products: a matrix-vector product can round differently.
        predicted = np.array([value_fn.predict(row) for row in flat])
        for _ in samples:
            records.append(rollout(env, PolicyAgent(lists, next(rows)), scenario_id))
            values.append(predicted)
    turns = [t for record in records for t in record.turns]
    rewards = combined_reward(
        np.array([t.profile_reward for t in turns]),
        np.array([t.response_reward for t in turns]),
        weights,
    )
    batch = RoundBatch(decisions, log_probs, np.concatenate(values), rewards, np.array(lengths))
    return batch, records


# --- the PPO update -------------------------------------------------------------


@dataclass(frozen=True)
class UpdateStats:
    clip_fraction: float
    value_loss: float
    mean_advantage: float
    surrogate: float


def update(
    policy: CategoricalSlotPolicy,
    value_fn: LinearValue,
    batch: RoundBatch,
    cfg: PPOConfig,
) -> UpdateStats:
    """One PPO update over a round batch (in place)."""
    if not np.all(np.isfinite(policy.theta)) or not np.all(np.isfinite(value_fn.phi)):
        raise FloatingPointError("non-finite parameters entering update")
    # (episodes x turns) tables, zero past each episode's end.
    in_episode = np.arange(batch.lengths.max()) < batch.lengths[:, None]
    rewards, values = np.zeros(in_episode.shape), np.zeros(in_episode.shape)
    rewards[in_episode], values[in_episode] = batch.rewards, batch.values
    gae = compute_gae(rewards, values, cfg.gamma, cfg.lam)[in_episode]
    returns = gae + batch.values
    advantages = normalize_advantages(gae)
    logp_old, decisions = batch.log_probs_old, batch.decisions
    features = Observation(decisions.slot_feats, decisions.global_feats).flat()
    n = logp_old.size

    clip_fractions: list[float] = []
    surrogates: list[float] = []
    for _ in range(cfg.epochs):
        logp_new, grad_rows = policy.log_prob_and_grad(decisions)
        ratio = policy_ratio(logp_new, logp_old, clamp=cfg.ratio_clamp)
        surrogate = ppo_surrogate(ratio, advantages, cfg.clip_eps)
        surrogates.append(float(np.mean(surrogate)))
        # The clipped branch contributes zero gradient when it is active.
        clip_active = ((advantages > 0) & (ratio > 1.0 + cfg.clip_eps)) | (
            (advantages < 0) & (ratio < 1.0 - cfg.clip_eps)
        )
        clip_fractions.append(float(np.mean(clip_active)))
        sample_weights = np.where(clip_active, 0.0, advantages * ratio)
        grad = sample_weights @ grad_rows / n
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                f"non-finite policy gradient (|grad|={np.abs(grad).max()!r}); aborting update"
            )
        policy.theta = policy.theta + cfg.actor_lr * grad

        predictions = value_fn.predict_batch(features)
        value_grad = 2.0 / n * (features.T @ (predictions - returns))
        if not np.all(np.isfinite(value_grad)):
            raise FloatingPointError("non-finite critic gradient; aborting update")
        value_fn.phi = value_fn.phi - cfg.critic_lr * value_grad

    final_value_loss = float(np.mean((value_fn.predict_batch(features) - returns) ** 2))
    return UpdateStats(
        clip_fraction=float(np.mean(clip_fractions)),
        value_loss=final_value_loss,
        mean_advantage=float(np.mean(advantages)),
        surrogate=float(np.mean(surrogates)),
    )


# --- the training loop -----------------------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    """One training-curve sample; rewards are unweighted per-episode sums."""

    step: int
    mean_total_reward: float
    mean_profile_reward: float
    mean_response_reward: float
    clip_fraction: float
    value_loss: float


CURVE_COLUMNS = tuple(spec.name for spec in fields(CurveRow))


@dataclass
class TrainResult:
    policy: CategoricalSlotPolicy
    value_fn: LinearValue
    curve: list[CurveRow]
    final_step: int


def _batch_reward_means(records: Sequence[EpisodeRecord]) -> tuple[float, float, float]:
    totals = [sum(t.total_reward for t in r.turns) for r in records]
    profiles = [sum(t.profile_reward for t in r.turns) for r in records]
    responses = [sum(t.response_reward for t in r.turns) for r in records]
    return (
        float(np.mean(totals)),
        float(np.mean(profiles)),
        float(np.mean(responses)),
    )


def check_schema(schemas: Iterable[tuple[str, SlotSchema]], expected: SlotSchema) -> None:
    """Refuse the first scenario whose schema (name, slots or openness) is
    not ``expected``: one policy and critic fit one slot layout."""

    def describe(schema: SlotSchema) -> str:
        return f"{schema.name!r} ({len(schema.slots)} slots, open={schema.open_schema})"

    for scenario_id, schema in schemas:
        if schema != expected:
            raise SchemaError(
                f"scenario {scenario_id} has schema {describe(schema)}, "
                f"which does not match {describe(expected)}"
            )


def train(
    scenarios: Sequence[tuple[str, UserConfig]],
    cfg: PPOConfig,
    weights: tuple[float, float] = (1.0, 1.0),
    matcher: SlotMatcher | None = None,
    policy: CategoricalSlotPolicy | None = None,
    value_fn: LinearValue | None = None,
    start_step: int = 0,
) -> TrainResult:
    """Alternate collection rounds and PPO updates over the scenario set."""
    if not scenarios:
        raise ConfigError("training needs at least one scenario")
    schema = scenarios[0][1].profile.schema
    check_schema(((sid, config.profile.schema) for sid, config in scenarios), schema)
    matcher = matcher or SlotMatcher(kind="exact")
    n_slots = len(schema.slots)
    policy = policy or CategoricalSlotPolicy(n_slots)
    value_fn = value_fn or LinearValue(observation_dim(n_slots))

    curve: list[CurveRow] = []
    step = start_step
    for round_index in range(cfg.total_rounds):
        step = start_step + round_index + 1
        batch, records = collect(
            scenarios, policy, value_fn, cfg, weights, matcher, round_index=step
        )
        mean_total, mean_profile, mean_response = _batch_reward_means(records)
        stats = update(policy, value_fn, batch, cfg)
        curve.append(
            CurveRow(
                step=step,
                mean_total_reward=mean_total,
                mean_profile_reward=mean_profile,
                mean_response_reward=mean_response,
                clip_fraction=stats.clip_fraction,
                value_loss=stats.value_loss,
            )
        )
    return TrainResult(policy=policy, value_fn=value_fn, curve=curve, final_step=step)


# --- checkpoints -------------------------------------------------------------------


def _resume_identity(
    cfg: PPOConfig, weights: tuple[float, float], matcher_label: str
) -> dict:
    """The settings a resumed run must share with its checkpoint to continue
    bit for bit: every PPO field except the round budget, the reward
    weights and the matcher."""
    ppo = asdict(cfg)
    del ppo["total_rounds"]
    return {**ppo, "weights": list(weights), "matcher": matcher_label}


def config_fingerprint(
    cfg: PPOConfig,
    weights: tuple[float, float],
    schema: SlotSchema,
    matcher_label: str = "exact",
) -> str:
    payload = {
        **_resume_identity(cfg, weights, matcher_label),
        "schema": schema.to_record(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class Checkpoint:
    theta: np.ndarray
    phi: np.ndarray
    schema: SlotSchema
    step: int
    fingerprint: str
    ppo: dict
    weights: tuple[float, float]
    matcher: str | None

    def policy(self) -> CategoricalSlotPolicy:
        return CategoricalSlotPolicy(len(self.schema.slots), self.theta)

    def value_fn(self) -> LinearValue:
        return LinearValue(observation_dim(len(self.schema.slots)), self.phi)

    def check_resumable(
        self,
        cfg: PPOConfig,
        weights: tuple[float, float],
        matcher: SlotMatcher,
        schema: SlotSchema,
    ) -> None:
        """Raise CheckpointError naming the first setting this run changes."""
        if self.matcher is None:
            raise CheckpointError("checkpoint records no matcher, so it cannot be resumed")
        recorded = {**self.ppo, "weights": list(self.weights), "matcher": self.matcher}
        for name, value in _resume_identity(cfg, weights, matcher.label).items():
            if recorded.get(name) != value:
                raise CheckpointError(
                    f"cannot resume: checkpoint has {name}={recorded.get(name)!r}, "
                    f"this run has {name}={value!r}"
                )
        if self.fingerprint != config_fingerprint(cfg, weights, schema, matcher.label):
            raise CheckpointError("cannot resume: checkpoint fingerprint does not match this run")


def save_checkpoint(
    path,
    policy: CategoricalSlotPolicy,
    value_fn: LinearValue,
    cfg: PPOConfig,
    weights: tuple[float, float],
    schema: SlotSchema,
    step: int,
    matcher: SlotMatcher | None = None,
) -> None:
    matcher_label = (matcher or SlotMatcher(kind="exact")).label
    payload = {
        "format": CHECKPOINT_FORMAT,
        "theta": policy.theta.tolist(),
        "phi": value_fn.phi.tolist(),
        "schema": schema.to_record(),
        "step": step,
        "fingerprint": config_fingerprint(cfg, weights, schema, matcher_label),
        "ppo": asdict(cfg),
        "weights": list(weights),
        "matcher": matcher_label,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} must hold a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {payload.get('format')!r}")
    for key in ("theta", "phi", "schema", "step", "fingerprint"):
        if key not in payload:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    try:
        schema = SlotSchema.from_record(payload["schema"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: bad schema record: {exc}") from None
    step, ppo = payload["step"], payload.get("ppo", {})
    # A bool or float step would resume with another round's seeds.
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise CheckpointError(f"checkpoint {path}: step must be an integer >= 0, got {step!r}")
    if not isinstance(ppo, dict):
        raise CheckpointError(f"checkpoint {path}: ppo must be an object, got {ppo!r}")
    params = {key: np.asarray(payload[key], dtype=float) for key in ("theta", "phi")}
    for key, values in params.items():
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"checkpoint {path} holds a non-finite {key} value")
    return Checkpoint(
        **params,
        schema=schema,
        step=step,
        fingerprint=payload["fingerprint"],
        ppo=ppo,
        weights=tuple(payload.get("weights", (1.0, 1.0))),  # type: ignore[arg-type]
        matcher=payload.get("matcher"),
    )
