"""PPO training over a factored categorical dialogue policy.

The policy factors an agent turn into independent heads sharing per-slot
features: a Bernoulli inclusion decision per schema slot (does the estimate
carry this slot), one categorical choice over slots-plus-none for which slot
the response addresses, and a Bernoulli engagement flag.  All heads are
linear in the observation features, and log-probabilities and their
gradients are computed analytically.

An observation holds each slot as its code 2 * seen + topic
(``env.Observation.codes``), the row of ``env.SLOT_CODE_FEATS`` that is
its features [1, seen, topic].  The include head's logit, probability and
log-pmf, and the response head's slot logits, are computed once per code
and read by index, so a code outside [0, 4) raises ``IndexError``.
Observations and decisions exist only as stacks (``ObservationRows``, an
``Observation`` that also knows the distinct rows among its rows): a stack
object passed more than once is one set of distinct rows.  The response
logits, their normalizer and probabilities, and the engage logit, are
computed once per distinct row and gathered per row; the terms a decision
enters, the gradient rows and the critic's products stay per row.  Every
result has the bits of evaluating each row on its own, in a one-row stack
too.

Sampling maps an observation stack and one row of uniforms per observation
to a ``DecisionBatch``.  The scripted user ignores the agent, so every
episode's observations are known before it starts, and ``play`` draws a
whole training round's or eval call's decisions up front in one policy call
(``draw_decisions``), converts them to plain lists once, and has one
``PolicyAgent`` per episode act out its rows.
Each episode's uniforms are those of ``default_rng(seed)``, computed for
all of a draw's seeds in one ``pcg64_states`` pass (``episode_uniforms``).  A
round stays one row-stacked ``RoundBatch`` from the draw to the update; one
stacked product of 1-D dots values its rows, and one pass weights its rewards.

The update is clipped-surrogate PPO: for each collected round the sampling
policy is frozen (its log-probabilities are stored in the round batch),
advantages come from one generalized advantage estimation pass over the
round with a terminal value of zero, advantages are normalized per round,
each epoch computes log-probabilities and gradients in one pass, and the
actor ascends

    E[ min(ratio * A, clip(ratio, 1 - eps, 1 + eps) * A) ]

with the ratio's exponent clamped for overflow safety.  No KL penalty is
applied.  The critic is a linear value function regressed on GAE returns.
Checkpoint files are read through ``CHECKPOINT_FIELDS``, PPO settings ``PPO_FIELDS``.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import asdict, dataclass, fields
from itertools import accumulate, compress
from typing import Iterable, Sequence

import numpy as np

from .env import (
    AgentAction,
    DialogueEnv,
    EnvView,
    EpisodeRecord,
    Observation,
    SLOT_CODE_FEATS,
    UNKNOWN_VALUE,
    observation_dim,
    rollout,
)
from .errors import CheckpointError, ConfigError, Field, SchemaError, read_fields, read_object
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

# NumPy's SeedSequence hash constants, (INIT_A, MULT_A) for mixing the pool
# and (INIT_B, MULT_B) for generate_state, and PCG64's 128-bit LCG
# multiplier (O'Neill, "PCG", HMC-CS-2014-0905).
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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
        read_fields("", vars(self), PPO_FIELDS, ConfigError)


# Every PPO setting's row.  ``PPOConfig``, a ``--config`` file, a
# checkpoint's ``ppo`` and the PPO flags all read it.
PPO_FIELDS = {
    "clip_eps": Field("number", low=0, high=1, strict=True, default=PPOConfig.clip_eps),
    "gamma": Field("number", low=0, high=1, default=PPOConfig.gamma),
    "lam": Field("number", low=0, high=1, default=PPOConfig.lam),
    # A zero learning rate freezes its head, for ablations.
    "actor_lr": Field("number", low=0, default=PPOConfig.actor_lr),
    "critic_lr": Field("number", low=0, default=PPOConfig.critic_lr),
    "epochs": Field("integer", low=1, default=PPOConfig.epochs),
    "samples_per_scenario": Field("integer", low=1, default=PPOConfig.samples_per_scenario),
    "total_rounds": Field("integer", low=1, default=PPOConfig.total_rounds),
    "ratio_clamp": Field("number", low=0, strict=True, default=PPOConfig.ratio_clamp),
    "seed": Field("integer", low=0, default=PPOConfig.seed),
}


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


def _outcome_log_pmf(z: np.ndarray) -> np.ndarray:
    """log P(y) of a Bernoulli head under logits z, for y = 0 and y = 1 along
    a new last axis: log sigma(-z) and log sigma(z), each as
    -log(1 + exp(-(+-z))), stable for large |z|."""
    return -np.logaddexp(0.0, np.stack([z, -z], axis=-1))


def _log_normalizer(logits: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis of (N, K) logits, folded left to right.

    Reducing the transposed copy over its leading axis runs the same left
    fold as a reduction along each row, as K - 1 vector steps over all rows.
    """
    return np.logaddexp.reduce(np.ascontiguousarray(logits.T), axis=0)


@dataclass(frozen=True)
class ObservationRows(Observation):
    """A stack of N observation rows and the M distinct rows among them.

    Row i is distinct row ``distinct[i]``, whose slot codes and global
    features are ``distinct_codes`` and ``distinct_global``.  The policy
    computes each term that no decision enters once per slot code or per
    distinct row, and gathers it per row; the gradient rows and the critic
    read every row's ``slot_feats`` and ``global_feats``.
    """

    distinct: np.ndarray  # (N,) ints in [0, M)
    distinct_codes: np.ndarray  # (M, n_slots)
    distinct_global: np.ndarray  # (M, GLOBAL_FEATURE_DIM)

    @classmethod
    def stack(cls, stacks: Sequence[Observation]) -> ObservationRows:
        """The rows of ``stacks`` in order.  Each stack object is one set of
        distinct rows, however often it is passed: ``collect`` passes each
        config's stack once per sample."""
        first: dict[int, int] = {}  # id of a stack -> its first distinct row
        unique: list[Observation] = []
        shifts, lengths = [], []
        n_distinct = n_rows = 0
        for stack in stacks:
            length = len(stack)
            if id(stack) not in first:
                first[id(stack)] = n_distinct
                unique.append(stack)
                n_distinct += length
            shifts.append(first[id(stack)] - n_rows)
            lengths.append(length)
            n_rows += length
        distinct_codes = np.concatenate([stack.codes for stack in unique])
        distinct_global = np.concatenate([stack.global_feats for stack in unique])
        distinct = np.arange(n_rows) + np.repeat(shifts, lengths)
        return cls(
            codes=distinct_codes[distinct],
            global_feats=distinct_global[distinct],
            distinct=distinct,
            distinct_codes=distinct_codes,
            distinct_global=distinct_global,
        )


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

    observations: ObservationRows
    include: np.ndarray  # (N, n_slots) in {0, 1}
    response_choice: np.ndarray  # (N,) ints in [0, n_slots]
    engage: np.ndarray  # (N,) in {0, 1}

    def __len__(self) -> int:
        return len(self.observations)

    def as_lists(self) -> DecisionLists:
        """The decision columns (include, response choice, engage) as plain
        lists, converted once: each agent turn reads one row, and numpy
        scalars are slow to read."""
        return (
            self.include.astype(bool).tolist(),
            self.response_choice.tolist(),
            self.engage.astype(bool).tolist(),
        )


@dataclass(frozen=True)
class _HeadTerms:
    """Every term of the heads that no decision enters, at one theta: the
    include head's per slot code, the response and engage heads' per
    distinct observation row."""

    include_logit: np.ndarray  # (4,)
    include_prob: np.ndarray  # (4,)
    include_log_pmf: np.ndarray  # (4, 2), for y = 0 and y = 1
    logits: np.ndarray  # (M, n_slots + 1)
    log_norm: np.ndarray  # (M,)
    probs: np.ndarray  # (M, n_slots + 1)
    engage_logit: np.ndarray  # (M,)
    engage_prob: np.ndarray  # (M,)
    engage_log_pmf: np.ndarray  # (M, 2), for y = 0 and y = 1


def _observation_rows(obs: Observation) -> ObservationRows:
    return obs if isinstance(obs, ObservationRows) else ObservationRows.stack([obs])


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

    def _terms(self, rows: ObservationRows) -> _HeadTerms:
        theta = self.theta
        include_logit = SLOT_CODE_FEATS @ theta[_W_INC]
        logits = np.empty((len(rows.distinct_codes), rows.codes.shape[1] + 1))
        logits[:, :-1] = (SLOT_CODE_FEATS @ theta[_W_RESP])[rows.distinct_codes]
        logits[:, -1] = theta[_B_NONE]
        log_norm = _log_normalizer(logits)
        # Elementwise: numpy's dot of a lone row can fuse what gemv rounds twice.
        g, w = rows.distinct_global, theta[_W_ENG]
        engage_logit = g[:, 0] * w[0] + g[:, 1] * w[1]
        return _HeadTerms(
            include_logit=include_logit,
            include_prob=_sigmoid(include_logit),
            include_log_pmf=_outcome_log_pmf(include_logit),
            logits=logits,
            log_norm=log_norm,
            probs=np.exp(logits - log_norm[:, None]),
            engage_logit=engage_logit,
            engage_prob=_sigmoid(engage_logit),
            engage_log_pmf=_outcome_log_pmf(engage_logit),
        )

    def sample_with_log_prob(
        self, obs: Observation, uniforms: np.ndarray
    ) -> tuple[DecisionBatch, np.ndarray]:
        """Draw one decision per row of an observation stack from that row of
        ``uniforms``, with the batch's ``log_prob_batch`` values.

        Row t's uniforms are ``n_slots`` inclusion draws, then the response
        draw, then the engagement draw, so one ``rng.random((T, n_slots + 2))``
        draw consumes the generator exactly as T per-row draws would.
        """
        rows = _observation_rows(obs)
        terms = self._terms(rows)
        n, at = rows.codes.shape[1], rows.distinct
        if uniforms.shape != (len(rows), n + 2):
            raise ValueError(f"need ({len(rows)}, {n + 2}) uniforms, got {uniforms.shape}")
        include = uniforms[:, :n] < terms.include_prob[rows.codes]
        # Inverse-CDF draw: the first index whose cumulative mass reaches the
        # scaled uniform, capped at the "address nothing" column.
        target = uniforms[:, n] * terms.probs.sum(axis=-1)[at]
        below = np.cumsum(terms.probs, axis=-1)[at] < target[:, None]
        choice = np.minimum(np.sum(below, axis=-1), n)
        engage = uniforms[:, n + 1] < terms.engage_prob[at]
        batch = DecisionBatch(rows, include.astype(float), choice, engage.astype(float))
        return batch, self._log_prob_and_grad(batch, terms, with_grad=False)[0]

    def greedy(self, obs: Observation) -> DecisionBatch:
        """The most likely decision of each head, per row of an observation stack."""
        rows = _observation_rows(obs)
        terms = self._terms(rows)
        return DecisionBatch(
            rows,
            include=(terms.include_logit > 0.0)[rows.codes].astype(float),
            response_choice=np.argmax(terms.logits, axis=-1)[rows.distinct],
            engage=(terms.engage_logit > 0.0)[rows.distinct].astype(float),
        )

    def log_prob_batch(self, batch: DecisionBatch) -> np.ndarray:
        return self.log_prob_and_grad(batch, with_grad=False)[0]

    def log_prob_and_grad(
        self, batch: DecisionBatch, with_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-row log pi and, ``with_grad``, the analytic d log pi / d theta,
        shape (N, POLICY_DIM), from one evaluation of each head's terms."""
        return self._log_prob_and_grad(batch, self._terms(batch.observations), with_grad)

    def _log_prob_and_grad(
        self, batch: DecisionBatch, terms: _HeadTerms, with_grad: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        rows = batch.observations
        at = rows.distinct
        # The include head's (code, outcome) table, read at 2 * code + y.
        lp = np.sum(terms.include_log_pmf.ravel()[2 * rows.codes + (batch.include == 1)], axis=-1)
        lp = lp + terms.logits[at, batch.response_choice] - terms.log_norm[at]
        lp = lp + terms.engage_log_pmf[at, (batch.engage == 1).view(np.uint8)]
        if not with_grad:
            return lp, None
        grads = np.zeros((len(batch), POLICY_DIM))
        p_inc = terms.include_prob[rows.codes]  # (N, n_slots)
        grads[:, _W_INC] = np.einsum("ns,nsk->nk", batch.include - p_inc, rows.slot_feats)
        indicator = np.zeros((len(batch), terms.probs.shape[1]))
        indicator[np.arange(len(batch)), batch.response_choice] = 1.0
        diff = indicator - terms.probs[at]
        grads[:, _W_RESP] = np.einsum("ns,nsk->nk", diff[:, :-1], rows.slot_feats)
        grads[:, _B_NONE] = diff[:, -1]
        grads[:, _W_ENG] = (batch.engage - terms.engage_prob[at])[:, None] * rows.global_feats
        return lp, grads


class LinearValue:
    """Linear state-value function on the flattened observation."""

    def __init__(self, dim: int, phi: np.ndarray | None = None) -> None:
        if phi is None:
            phi = np.zeros(dim)
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (dim,):
            raise ConfigError(f"phi must have shape ({dim},), got {phi.shape}")
        self.phi = phi.copy()


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


def _hashmix(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """``SeedSequence``'s hashmix of each column of uint32 ``values`` in turn,
    from the running hash constant ``const``; also the constant after."""
    consts = list(accumulate(range(values.shape[1]), lambda c, _: c * mult & 0xFFFFFFFF,
                             initial=const))
    table = np.array(consts, np.uint32)
    values = (values ^ table[:-1]) * table[1:]
    return values ^ values >> 16, consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of uint32 pool words ``x`` with hashed words ``y``."""
    result = x * 0xCA01F9DD - y * 0x4973F715
    return result ^ result >> 16


def pcg64_states(seeds: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The ``(state, inc)`` of ``np.random.PCG64(seed)`` for every seed, in one
    pass: ``SeedSequence``'s pool mixing and ``generate_state(4, np.uint64)``
    as uint32 array arithmetic over the seeds of each entropy word count,
    then PCG64's seeding step on Python ints.  A seed is a sequence of
    non-negative integers of any size, each read as its little-endian 32-bit
    words; as in NumPy, a negative element raises ``ValueError`` and a
    non-integer one ``TypeError``."""
    groups: dict[int, list[tuple[int, list[int]]]] = {}
    for i, seed in enumerate(seeds):
        words = []
        for element in seed:
            if (n := operator.index(element)) < 0:
                raise ValueError(f"seed elements must be non-negative, got {n}")
            words.append(n & 0xFFFFFFFF)
            while n := n >> 32:
                words.append(n & 0xFFFFFFFF)
        groups.setdefault(len(words), []).append((i, words))
    states = [(0, 0)] * len(seeds)
    for n_words, members in groups.items():
        entropy = np.array([words for _, words in members], np.uint32)
        entropy = entropy.reshape(len(members), n_words)
        pool = np.zeros((len(members), 4), np.uint32)
        pool[:, :n_words] = entropy[:, :4]
        pool, const = _hashmix(pool, *_HASH_A)
        for src in range(4):  # each pool word into the other three
            dst = [d for d in range(4) if d != src]
            hashed, const = _hashmix(pool[:, [src] * 3], const, _HASH_A[1])
            pool[:, dst] = _mix(pool[:, dst], hashed)
        for src in range(4, n_words):  # each further entropy word into all four
            hashed, const = _hashmix(entropy[:, [src] * 4], const, _HASH_A[1])
            pool = _mix(pool, hashed)
        words64 = _hashmix(np.tile(pool, 2), *_HASH_B)[0].astype("<u4").view("<u8")
        for (i, _), (s_hi, s_lo, i_hi, i_lo) in zip(members, words64.tolist()):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            states[i] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc
    return states


def episode_uniforms(
    seeds: Sequence[Sequence[int]], lengths: Sequence[int], width: int
) -> np.ndarray:
    """Every episode's uniforms, row-stacked: episode i's rows are the
    ``(lengths[i], width)`` block that ``default_rng(seeds[i]).random``
    gives.  One generator, set to each ``pcg64_states`` state in turn,
    fills its episode's rows of one array."""
    uniforms = np.empty((sum(lengths), width))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for (state, inc), episode in zip(pcg64_states(seeds), episode_rows(lengths), strict=True):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.random(out=uniforms[episode])
    return uniforms


def draw_decisions(
    policy: CategoricalSlotPolicy,
    stacks: Sequence[Observation],
    seeds: Sequence[Sequence[int]] | None = None,
) -> tuple[DecisionBatch, np.ndarray]:
    """Every episode's decisions and log-probabilities, row-stacked in the
    order of ``stacks``, from one policy call.

    Episode i's uniforms are the ``(T_i, n_slots + 2)`` block that
    ``default_rng(seeds[i]).random`` gives (``episode_uniforms``), so its
    rows are exactly those ``sample_with_log_prob`` draws from that block.
    ``seeds=None`` takes greedy decisions.
    """
    rows = ObservationRows.stack(stacks)
    if seeds is None:
        batch = policy.greedy(rows)
        return batch, policy.log_prob_batch(batch)
    lengths = [len(stack) for stack in stacks]
    return policy.sample_with_log_prob(rows, episode_uniforms(seeds, lengths, policy.n_slots + 2))


class PolicyAgent:
    """Acts out its episode's rows of the decisions ``play`` drew up front for
    a whole training round or eval call, as an environment Agent.  Every
    agent of a draw reads the same ``DecisionBatch.as_lists`` columns,
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
        included = compress(names, self._include[row])
        entries = {slot: seen.get(slot, UNKNOWN_VALUE) for slot in included}
        addressed: tuple[tuple[str, str], ...] = ()
        choice = self._choice[row]
        if choice < len(names):
            slot = names[choice]
            if slot in entries:
                addressed = ((slot, entries[slot]),)
        return AgentAction(
            view.respond(addressed, self._engage[row]), Profile(view.schema, entries)
        )

    def finish(self, record: EpisodeRecord, weights: tuple[float, float]) -> np.ndarray:
        """The played episode's rewards, weighted per turn.  ``collect``
        weights a whole round at once; nothing in ``src/`` calls this, and
        it stays because ``bench/bench_trace.py`` traces it by name."""
        profile = np.array([t.profile_reward for t in record.turns])
        response = np.array([t.response_reward for t in record.turns])
        return combined_reward(profile, response, weights)


def play(
    policy: CategoricalSlotPolicy, episodes: Sequence[tuple[str, DialogueEnv]],
    seeds: Sequence[Sequence[int]] | None = None,
) -> tuple[DecisionBatch, np.ndarray, list[EpisodeRecord]]:
    """Play each (scenario id, environment) episode: one ``draw_decisions``
    call (``seeds`` as there) for all their decisions, converted to lists once,
    and one ``PolicyAgent`` per episode acting out its rows in ``rollout``."""
    stacks = [env.config.episode_table.observations for _, env in episodes]
    decisions, log_probs = draw_decisions(policy, stacks, seeds)
    lists = decisions.as_lists()
    rows = episode_rows([len(stack) for stack in stacks])
    records = [rollout(env, PolicyAgent(lists, r), sid) for (sid, env), r in zip(episodes, rows)]
    return decisions, log_probs, records


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
    one ``play`` call for the round, whose samples of a scenario share its
    environment, the round's rows valued in one product, and its rewards
    weighted in one ``combined_reward`` call over its turns in episode order."""
    samples = range(cfg.samples_per_scenario)
    envs = [(sid, DialogueEnv(config, matcher=matcher)) for sid, config in scenarios]
    seeds = [[cfg.seed, round_index, idx, s] for idx in range(len(scenarios)) for s in samples]
    decisions, log_probs, records = play(policy, [env for env in envs for _ in samples], seeds)
    # A stack of (1, dim) @ (dim,) products runs each row through the 1-D dot
    # that ``row @ phi`` uses; a matrix-vector product can round differently.
    flat = decisions.observations.flat()
    values = np.matmul(flat[:, None, :], value_fn.phi)[:, 0]
    turns = [t for record in records for t in record.turns]
    rewards = combined_reward(
        np.array([t.profile_reward for t in turns]),
        np.array([t.response_reward for t in turns]),
        weights,
    )
    lengths = np.array([len(record.turns) for record in records])
    return RoundBatch(decisions, log_probs, values, rewards, lengths), records


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
    features = decisions.observations.flat()
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

        predictions = features @ value_fn.phi
        value_grad = 2.0 / n * (features.T @ (predictions - returns))
        if not np.all(np.isfinite(value_grad)):
            raise FloatingPointError("non-finite critic gradient; aborting update")
        value_fn.phi = value_fn.phi - cfg.critic_lr * value_grad

    final_value_loss = float(np.mean((features @ value_fn.phi - returns) ** 2))
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


def reward_means(records: Sequence[EpisodeRecord]) -> tuple[float, float, float]:
    """Mean over episodes of the summed total, profile and response rewards."""
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
        mean_total, mean_profile, mean_response = reward_means(records)
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


# A checkpoint file's fields; its ``ppo`` object's are ``PPO_FIELDS``.
CHECKPOINT_FIELDS = {
    "format": Field("text", choices=(CHECKPOINT_FORMAT,)),
    "theta": Field("numbers", size=POLICY_DIM),
    "phi": Field("numbers"),  # as long as its schema's observation
    "schema": Field("object"),
    "step": Field("integer", low=0),  # a float step would resume with other seeds
    "fingerprint": Field("text"),
    "ppo": Field("object", default={}),
    "weights": Field("numbers", low=0, size=2, default=(1.0, 1.0)),
    "matcher": Field("text", default=None),
}


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint in file ``path``, read through ``CHECKPOINT_FIELDS``."""
    where = f"checkpoint {path}: "
    payload = read_object(path, "checkpoint", CheckpointError)
    record = read_fields(where, payload, CHECKPOINT_FIELDS, CheckpointError)
    try:
        schema = SlotSchema.from_record(record["schema"], f"{where}schema ", CheckpointError)
    except ValueError as exc:
        raise CheckpointError(f"{where}schema: {exc}") from None
    phi = Field("numbers", size=observation_dim(len(schema.slots)))  # the row for this schema
    read_fields(where, {"phi": record["phi"]}, {"phi": phi}, CheckpointError)
    return Checkpoint(
        theta=np.asarray(record["theta"], dtype=float),
        phi=np.asarray(record["phi"], dtype=float),
        schema=schema,
        step=record["step"],
        fingerprint=record["fingerprint"],
        ppo=read_fields(f"{where}ppo ", record["ppo"], PPO_FIELDS, CheckpointError),
        weights=tuple(record["weights"]),  # type: ignore[arg-type]
        matcher=record["matcher"],
    )
