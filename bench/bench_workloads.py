"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload is a closed loop in one thread.  A job is what one user
command would do (a 20-round ``dialign train`` or one ``dialign eval``); it
is split into operations, each timed from outside: one PPO round for
``train``, the whole ``cli.main`` eval call for the eval workloads.  Output
checks run between operations, outside the timed region.

The workload seed only generates the scenario set; the program's own seeds
(PPO, eval) keep their defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from dialign import cli, env, rl, scenarios
from dialign.profiles import SlotMatcher

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Fixed eval-conflict policy: not trained, so set-up does not depend on train speed.
EVAL_THETA = (0.0, 2.0, 0.5, -1.0, 0.5, 2.0, -1.0, 1.0, 0.0)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_array(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def params_digest(policy: rl.CategoricalSlotPolicy, value_fn: rl.LinearValue) -> str:
    return sha256_array(np.concatenate([policy.theta, value_fn.phi]))


def reference_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded output digests for this workload and seed, if any."""
    table = json.loads(DIGESTS_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


def digest_mismatches(observed: dict[str, str], expected: dict[str, str] | None) -> list[str]:
    """Names of recorded digests that ``observed`` does not reproduce."""
    if expected is None:
        return []
    return [name for name, value in expected.items() if observed.get(name) != value]


class Workload:
    """Base: subclasses fill in set-up, the timed operation and the checks."""

    name = ""
    ops_per_job = 1
    attempt_unit = "episode"

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.turns_per_op = 0
        self.episodes_per_op = 0
        self.bytes_per_write = 0
        self.attempts_per_op = 1

    def setup(self) -> None:
        raise NotImplementedError

    def begin_job(self) -> None:
        """Start the state of one user command."""

    def op(self) -> None:
        raise NotImplementedError

    def check_op(self, index: int) -> list[str]:
        """Untimed check after operation ``index`` of a job; returns problems."""
        return []

    def final_check(self) -> tuple[dict[str, str], list[str]]:
        """Untimed whole-run check: (output digests, problems)."""
        raise NotImplementedError


class Train(Workload):
    """PPO on generate_scenarios(32, seed) at H=10, the acceptance-test config,
    driven one public ``rl.train(..., start_step=k)`` call per round."""

    name = "train"
    ops_per_job = 20
    attempt_unit = "round"
    scenario_count = 32

    def setup(self) -> None:
        scenario_dir = self.workdir / "scenarios"
        generated = scenarios.generate_scenarios(self.scenario_count, self.seed)
        scenarios.save_scenarios(generated, scenario_dir)
        loaded = scenarios.load_scenarios(scenario_dir)
        self.pairs = [(s.scenario_id, s.user_config()) for s in loaded]
        self.cfg = rl.PPOConfig(
            total_rounds=1, samples_per_scenario=2, actor_lr=0.1, critic_lr=0.01
        )
        self.matcher = SlotMatcher(kind="exact")
        self.n_slots = len(loaded[0].profile.schema.slots)
        self.episodes_per_op = len(self.pairs) * self.cfg.samples_per_scenario
        self.turns_per_op = sum(
            config.horizon * self.cfg.samples_per_scenario for _, config in self.pairs
        )
        self.round_digests: list[str] = []

    def begin_job(self) -> None:
        self.policy = rl.CategoricalSlotPolicy(self.n_slots)
        self.value_fn = rl.LinearValue(env.observation_dim(self.n_slots))
        self.step = 0

    def op(self) -> None:
        result = rl.train(
            self.pairs,
            self.cfg,
            weights=(1.0, 1.0),
            matcher=self.matcher,
            policy=self.policy,
            value_fn=self.value_fn,
            start_step=self.step,
        )
        self.policy, self.value_fn, self.step = result.policy, result.value_fn, result.final_step

    def check_op(self, index: int) -> list[str]:
        # Every job replays the same rounds, so round k must give round k's bits.
        digest = params_digest(self.policy, self.value_fn)
        if index == len(self.round_digests):
            self.round_digests.append(digest)
            return []
        if digest != self.round_digests[index]:
            return [f"round {index + 1}: parameters differ from the first job's"]
        return []

    def final_check(self) -> tuple[dict[str, str], list[str]]:
        if len(self.round_digests) < self.ops_per_job:
            return {}, ["no complete training job to check"]
        # One train(total_rounds=N) call must equal N one-round calls.
        cfg = rl.PPOConfig(
            total_rounds=self.ops_per_job,
            samples_per_scenario=self.cfg.samples_per_scenario,
            actor_lr=self.cfg.actor_lr,
            critic_lr=self.cfg.critic_lr,
        )
        result = rl.train(self.pairs, cfg, weights=(1.0, 1.0), matcher=self.matcher)
        problems = []
        if params_digest(result.policy, result.value_fn) != self.round_digests[-1]:
            problems.append("round-by-round training differs from one train() call")
        digests = {
            "theta_sha256": sha256_array(result.policy.theta),
            "phi_sha256": sha256_array(result.value_fn.phi),
        }
        return digests, problems


class _Eval(Workload):
    """One ``dialign eval`` invocation per operation, reports included."""

    scenario_count = 0
    episodes = 1

    def eval_args(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        self.scenario_dir = self.workdir / "scenarios"
        self.out_dir = self.workdir / "eval"
        generated = scenarios.generate_scenarios(self.scenario_count, self.seed)
        scenarios.save_scenarios(generated, self.scenario_dir)
        self.schema = generated[0].profile.schema
        self.episodes_per_op = self.attempts_per_op = self.scenario_count * self.episodes
        self.first_digests: dict[str, str] | None = None
        self.status = 0
        self.stderr = ""

    def op(self) -> None:
        args = [
            "eval",
            "--scenarios", str(self.scenario_dir),
            "--out", str(self.out_dir),
            "--episodes", str(self.episodes),
            *self.eval_args(),
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            self.status = cli.main(args)
        self.stderr = err.getvalue()

    def _digests(self) -> dict[str, str]:
        return {
            "episodes_jsonl_sha256": sha256_file(self.out_dir / "episodes.jsonl"),
            "summary_csv_sha256": sha256_file(self.out_dir / "summary.csv"),
        }

    def check_op(self, index: int) -> list[str]:
        if self.status != 0:
            return [f"eval exited {self.status}: {self.stderr.strip()}"]
        digests = self._digests()
        if self.first_digests is None:
            self.first_digests = digests
            self.bytes_per_write = (self.out_dir / "episodes.jsonl").stat().st_size
            self.turns_per_op = sum(
                len(record.turns) for record in env.read_episodes(self.out_dir / "episodes.jsonl")
            )
            return []
        if digests != self.first_digests:
            return ["eval outputs differ from the first job's"]
        return []

    def final_check(self) -> tuple[dict[str, str], list[str]]:
        if self.first_digests is None:
            return {}, ["no successful eval job to check"]
        problems: list[str] = []
        records = list(env.read_episodes(self.out_dir / "episodes.jsonl"))
        if len(records) != self.episodes_per_op:
            problems.append(f"{len(records)} episodes logged, expected {self.episodes_per_op}")
        for record in records:
            logged = [(t.profile_reward, t.response_reward, t.total_reward) for t in record.turns]
            replayed = [(b.profile, b.response, b.total) for b in env.replay_rewards(record)]
            if logged != replayed:
                problems.append(f"{record.scenario_id}: replay_rewards differs from the log")
        return dict(self.first_digests), problems


class EvalConflict(_Eval):
    """Fixed-theta policy, ``--mode conflict`` at H=10, 2 episodes per scenario."""

    name = "eval-conflict"
    scenario_count = 32
    episodes = 2

    def setup(self) -> None:
        super().setup()
        self.checkpoint = self.workdir / "checkpoint.json"
        n_slots = len(self.schema.slots)
        rl.save_checkpoint(
            self.checkpoint,
            rl.CategoricalSlotPolicy(n_slots, np.array(EVAL_THETA)),
            rl.LinearValue(env.observation_dim(n_slots)),
            rl.PPOConfig(),
            (1.0, 1.0),
            self.schema,
            step=0,
        )

    def eval_args(self) -> list[str]:
        return ["--agent", "policy", "--checkpoint", str(self.checkpoint), "--mode", "conflict"]


class EvalLongterm(_Eval):
    """Evidence oracle, ``--mode longterm`` at H=300, 1 episode per scenario."""

    name = "eval-longterm"
    scenario_count = 4
    episodes = 1

    def eval_args(self) -> list[str]:
        return ["--agent", "oracle", "--mode", "longterm", "--horizon", "300"]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Train, EvalConflict, EvalLongterm)
}
