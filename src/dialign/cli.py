"""Command-line entry points.

Subcommands:

* ``gen-scenarios``  write synthetic scenario files
* ``train``          run PPO over a scenario directory, emit checkpoint + curve
* ``eval``           evaluate a checkpoint (or the evidence oracle) on scenarios
* ``judge-bench``    score slot matchers on the synthetic overlap benchmark

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime failure.
``main`` checks each numeric flag against its ``FLAG_FIELDS`` row, and that
no file stands where ``--out`` needs a directory, nor a directory where a
command writes a file, before a command runs.
``eval`` writes every report CSV from the episode logs alone
(``write_reports``, one turns x episodes table per call), so reports can be
recomputed offline.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .env import DialogueEnv, EpisodeRecord, EvidenceOracleAgent, rollout, write_episodes
from .errors import (CheckpointError, ConfigError, DialignError, Field, ProtocolError,
                     SchemaError, read_fields, read_object)
from .metrics import (
    AlignmentSummary,
    alignment_curve,
    alignment_matrix,
    longterm_profile_curve,
    summarize_alignment,
    turn_means,
)
from .profiles import SlotMatcher, SlotSchema, build_overlap_bench, eval_matcher
from .rl import (
    CHECKPOINT_FIELDS,
    CURVE_COLUMNS,
    PPO_FIELDS,
    PPOConfig,
    check_schema,
    load_checkpoint,
    play,
    reward_means,
    save_checkpoint,
    train,
)
from .scenarios import (
    DEFAULT_CONFLICT_TURN,
    GENERATE_FIELDS,
    SCENARIO_ID,
    default_conflict,
    generate_profile,
    generate_scenarios,
    load_scenarios,
    save_scenarios,
    scenario_files,
)
from .user_sim import ConflictSpec

LONGTERM_DEFAULT_HORIZON = 70


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this project reserves 2 for
    validation errors, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _matcher(spec: str) -> SlotMatcher:
    try:
        return SlotMatcher.parse(spec)
    except ConfigError as exc:
        raise ConfigError(f"--matcher {spec!r}: {exc}") from exc


# Each PPO flag of ``train`` and the PPOConfig field it sets; its row's kind types it.
_PPO_FLAGS = {"--seed": "seed", "--rounds": "total_rounds", "--epochs": "epochs",
              "--samples": "samples_per_scenario", "--actor-lr": "actor_lr",
              "--critic-lr": "critic_lr"}
# Every numeric flag's row; ``main`` checks the given ones before any command runs.
FLAG_FIELDS = {
    "--count": GENERATE_FIELDS["count"],
    "--horizon": GENERATE_FIELDS["horizon"],
    "--episodes": Field("integer", low=1),
    "--weights": CHECKPOINT_FIELDS["weights"],
    "--ab": Field("integers", low=0, size=2),
    **{flag: PPO_FIELDS[name] for flag, name in _PPO_FLAGS.items()},
}


def _check_flags(args: argparse.Namespace) -> None:
    """Check each given flag against its ``FLAG_FIELDS`` row, once ``--weights``
    and ``--ab`` are read as their comma-separated numbers."""
    for flag, number in (("weights", float), ("ab", int)):
        text = getattr(args, flag, None)
        if text is not None:
            try:
                setattr(args, flag, [number(part) for part in text.split(",")])
            except ValueError:
                raise ConfigError(f"--{flag} takes comma-separated numbers, got {text!r}") from None
    values = {flag: getattr(args, flag[2:].replace("-", "_"), None) for flag in FLAG_FIELDS}
    given = {flag: value for flag, value in values.items() if value is not None}
    read_fields("", given, {flag: FLAG_FIELDS[flag] for flag in given}, ConfigError)


def _check_out(args: argparse.Namespace) -> None:
    """Refuse, before any work, an ``--out`` where a file blocks the directory
    a command makes (``judge-bench``'s report file's parent), or where a
    directory stands in place of a file the command writes."""
    if args.out is None:
        return
    directory, names = Path(args.out), ["checkpoint.json", "curve.csv", "run_config.json"]
    if args.command == "gen-scenarios":
        names = [f"{SCENARIO_ID.format(index)}.json" for index in range(args.count)]
    elif args.command == "eval":
        names = ["episodes.jsonl", "turncurve.csv", "altable.csv", "summary.csv",
                 *["longterm.csv"] * (args.mode == "longterm")]
    elif args.command == "judge-bench":
        directory, names = directory.parent, [directory.name]
    existing = next(path for path in (directory, *directory.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {args.out}: {existing} is a file, not a directory")
    for path in map(directory.joinpath, names):
        if path.is_dir():
            raise ConfigError(f"--out {args.out}: {path} is a directory, not a file")


def _write_csv(
    path: Path, header: Sequence[str], rows: Sequence[Sequence], append: bool = False
) -> None:
    """Write ``header`` and ``rows`` to a new CSV, or ``append`` the rows alone."""
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(header)
        writer.writerows(rows)


def _load_ppo_config(args: argparse.Namespace) -> PPOConfig:
    settings = {}
    if args.config:
        payload = read_object(args.config, "--config", ConfigError)
        settings = read_fields(f"--config {args.config}: ", payload, PPO_FIELDS, ConfigError)
    flags = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name in _PPO_FLAGS.items()}
    return PPOConfig(**{**settings, **{name: v for name, v in flags.items() if v is not None}})


# --- subcommands ----------------------------------------------------------------


def cmd_gen_scenarios(args: argparse.Namespace) -> int:
    try:
        scenarios = generate_scenarios(args.count, args.seed, args.horizon, args.conflict,
                                       args.extended)
    except ConfigError as exc:  # ``main`` checked each flag; this is their combination
        raise ConfigError(f"--conflict --horizon {args.horizon}: {exc}") from None
    paths = save_scenarios(scenarios, args.out)
    print(f"wrote {len(paths)} scenario files to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    scenario_list = load_scenarios(args.scenarios)
    weights = tuple(args.weights)
    matcher = _matcher(args.matcher)
    cfg = _load_ppo_config(args)
    checkpoint = load_checkpoint(args.resume) if args.resume else None
    schema = checkpoint.schema if checkpoint is not None else scenario_list[0].profile.schema
    check_schema(((s.scenario_id, s.profile.schema) for s in scenario_list), schema)

    policy = value_fn = None
    start_step = 0
    if checkpoint is not None:
        checkpoint.check_resumable(cfg, weights, matcher, schema)
        policy, value_fn = checkpoint.policy(), checkpoint.value_fn()
        start_step = checkpoint.step
    result = train(
        [(s.scenario_id, s) for s in scenario_list],
        cfg,
        weights=weights,
        matcher=matcher,
        policy=policy,
        value_fn=value_fn,
        start_step=start_step,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out / "checkpoint.json", result.policy, result.value_fn, cfg, weights, schema,
        step=result.final_step, matcher=matcher,
    )
    curve_path = out / "curve.csv"
    _write_csv(
        curve_path,
        CURVE_COLUMNS,
        [[row.step, *(f"{getattr(row, name):.6f}" for name in CURVE_COLUMNS[1:])]
         for row in result.curve],
        append=bool(args.resume) and curve_path.exists(),
    )
    run_config = {"ppo": asdict(cfg), "weights": list(weights), "matcher": matcher.label,
                  "scenarios": str(args.scenarios), "resumed_from": args.resume}
    (out / "run_config.json").write_text(json.dumps(run_config, indent=2) + "\n")
    last = result.curve[-1]
    print(
        f"trained {cfg.total_rounds} rounds -> step {result.final_step}; "
        f"mean total reward {last.mean_total_reward:.3f} "
        f"(profile {last.mean_profile_reward:.3f}, response {last.mean_response_reward:.3f})"
    )
    print(f"checkpoint: {out / 'checkpoint.json'}")
    return 0


def _eval_records(args: argparse.Namespace, scenario_list, matcher, mode: str):
    horizon_override = args.horizon
    if mode == "longterm" and horizon_override is None:
        horizon_override = LONGTERM_DEFAULT_HORIZON
    horizon = horizon_override
    if horizon is None:
        horizons = sorted({scenario.horizon for scenario in scenario_list})
        if len(horizons) > 1:
            raise ConfigError(
                f"scenarios mix horizons {horizons}; pass --horizon to evaluate them together"
            )
        horizon = horizons[0]
    if horizon < 2:
        # Without --horizon every file holds this horizon, so the first names it.
        where = ("--horizon" if horizon_override is not None
                 else f"scenario file {scenario_files(args.scenarios)[0]}: horizon")
        raise ConfigError(f"{where} must be >= 2 to fit the alignment trend, got {horizon}")

    checkpoint = None
    if args.agent == "policy":
        if not args.checkpoint:
            raise ConfigError("eval with --agent policy needs --checkpoint")
        checkpoint = load_checkpoint(args.checkpoint)
        check_schema(((s.scenario_id, s.profile.schema) for s in scenario_list), checkpoint.schema)

    episodes, seeds = [], []  # (scenario id, environment) and its policy seed
    conflict_rng = random.Random(args.seed)
    for index, scenario in enumerate(scenario_list):
        conflict = scenario.conflict
        if mode == "conflict" and conflict is None:
            if horizon <= DEFAULT_CONFLICT_TURN:
                raise ConfigError(
                    f"--mode conflict swaps a value at turn {DEFAULT_CONFLICT_TURN} and needs "
                    f"a horizon above {DEFAULT_CONFLICT_TURN} to recover, got {horizon}"
                )
            conflict = default_conflict(
                scenario.profile, scenario.style_seed, conflict_rng, matcher=matcher
            )
        config = scenario.user_config(horizon=horizon_override, conflict=conflict)
        env = DialogueEnv(config, matcher=matcher)
        episodes += [(scenario.scenario_id, env)] * args.episodes
        seeds += [[args.seed, index, e] for e in range(args.episodes)]
    if checkpoint is None:
        return [rollout(env, EvidenceOracleAgent(), scenario_id=sid) for sid, env in episodes]
    return play(checkpoint.policy(), episodes, seeds)[2]


def write_reports(
    records: Sequence[EpisodeRecord], out: Path, mode: str, matcher: SlotMatcher
) -> AlignmentSummary:
    """Write an eval call's report CSVs from its episode records alone, so each
    can be rebuilt from ``episodes.jsonl``; returns the alignment summary."""
    curve = alignment_curve(alignment_matrix(records))
    horizon = len(curve)
    summary = summarize_alignment(curve)
    rewards = np.array([
        [(t.profile_reward, t.response_reward, t.total_reward, t.theoretical_max) for t in r.turns]
        for r in records
    ])
    means = turn_means(rewards.transpose(1, 2, 0))  # (turns, 4, episodes)
    _write_csv(
        out / "turncurve.csv",
        ["turn", "alignment_level", "mean_profile_reward", "mean_response_reward",
         "mean_total_reward", "theoretical_max"],
        [[k, f"{level:.4f}", *(f"{mean:.6f}" for mean in row)]
         for k, (level, row) in enumerate(zip(curve, means), start=1)],
    )
    # Wide per-turn alignment row plus the headline summary numbers.
    _write_csv(
        out / "altable.csv",
        [f"turn_{k}" for k in range(1, horizon + 1)] + ["avg", "n_ir", "n_r2"],
        [[f"{v:.2f}" for v in curve]
         + [f"{summary.average:.2f}", f"{summary.n_ir:.4f}", f"{summary.n_r2:.4f}"]],
    )
    _write_csv(
        out / "summary.csv",
        ["mode", "episodes", "avg_alignment", "n_ir", "n_r2",
         "mean_total_reward", "mean_profile_reward", "mean_response_reward"],
        [[mode, len(records), f"{summary.average:.4f}", f"{summary.n_ir:.6f}",
          f"{summary.n_r2:.6f}", *(f"{mean:.6f}" for mean in reward_means(records))]],
    )

    if mode == "longterm":
        checkpoints = [1] + list(range(10, horizon + 1, 10))
        longterm = longterm_profile_curve(records, checkpoints, matcher)
        rows = [[p.turn, f"{p.profile_score:.6f}", f"{p.theoretical_max:.6f}"]
                for p in longterm.points]
        _write_csv(out / "longterm.csv", ["turn", "profile_score", "theoretical_max"],
                   rows + [["avg", f"{longterm.average:.6f}", ""]])
    return summary


def cmd_eval(args: argparse.Namespace) -> int:
    scenario_list = load_scenarios(args.scenarios)
    matcher = _matcher(args.matcher)
    records = _eval_records(args, scenario_list, matcher, args.mode)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_episodes(records, out / "episodes.jsonl")
    summary = write_reports(records, out, args.mode, matcher)
    print(
        f"evaluated {len(records)} episodes ({args.mode}); "
        f"avg alignment {summary.average:.2f}, N-IR {summary.n_ir:.4f}, "
        f"N-R2 {summary.n_r2:.4f}"
    )
    print(f"reports in {out}")
    return 0


def cmd_judge_bench(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    schema = SlotSchema.aloe()
    if args.ab and sum(args.ab) > len(schema.slots):
        raise ConfigError(f"--ab {args.ab[0]},{args.ab[1]}: a+b={sum(args.ab)} exceeds the "
                          f"profile size {len(schema.slots)}")
    cases = []
    for index in range(args.count):
        profile = generate_profile(rng, schema)
        if args.ab:
            a, b = args.ab
        else:
            a = rng.randint(1, len(profile) - 1)
            b = rng.randint(0, len(profile) - a)
        cases.append(
            build_overlap_bench(profile, a, b, seed=rng.randrange(2**31),
                                paraphrase=not args.no_paraphrase)
        )
    matcher_specs = args.matcher or ["exact", "token:0.5"]
    rows = []
    for spec in matcher_specs:
        matcher = _matcher(spec)
        stats = eval_matcher(cases, matcher)
        rows.append(
            [
                matcher.label,
                f"{100.0 * stats['exact_acc']:.2f}",
                f"{100.0 * stats['fuzzy_acc']:.2f}",
                f"{stats['mse']:.4f}",
                f"{stats['rmse']:.4f}",
            ]
        )
        print(
            f"{matcher.label}: exact {100.0 * stats['exact_acc']:.1f}% "
            f"fuzzy {100.0 * stats['fuzzy_acc']:.1f}% mse {stats['mse']:.3f} "
            f"rmse {stats['rmse']:.3f}"
        )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, ["matcher", "exact_acc", "fuzzy_acc", "mse", "rmse"], rows)
        print(f"wrote {out}")
    return 0


# --- parser wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dialign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenarios", help="write synthetic scenario files")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--count", type=int, default=32)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--horizon", type=int, default=10)
    gen.add_argument("--conflict", action="store_true", help="inject default turn-6 swaps")
    gen.add_argument("--extended", action="store_true", help="open-schema profiles")
    gen.set_defaults(func=cmd_gen_scenarios)

    tr = sub.add_parser("train", help="PPO training over a scenario directory")
    tr.add_argument("--scenarios", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", help="JSON file with PPO config overrides")
    tr.add_argument("--weights", default="1,1", help="profile,response reward weights")
    tr.add_argument("--matcher", default="exact", help="exact or token[:threshold]")
    for flag, name in _PPO_FLAGS.items():
        kind = int if PPO_FIELDS[name].kind == "integer" else float
        tr.add_argument(flag, type=kind, help=f"PPOConfig {name}")
    tr.add_argument("--resume", help="checkpoint to continue from")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on scenarios")
    ev.add_argument("--scenarios", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--checkpoint")
    ev.add_argument("--agent", choices=["policy", "oracle"], default="policy")
    ev.add_argument("--mode", choices=["standard", "conflict", "longterm"], default="standard")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--matcher", default="exact")
    ev.add_argument("--horizon", type=int, default=None)
    ev.add_argument("--episodes", type=int, default=1, help="episodes per scenario")
    ev.set_defaults(func=cmd_eval)

    jb = sub.add_parser("judge-bench", help="score matchers on the overlap benchmark")
    jb.add_argument("--count", type=int, default=300)
    jb.add_argument("--seed", type=int, default=0)
    jb.add_argument("--matcher", action="append", help="repeatable matcher spec")
    jb.add_argument("--ab", help="fixed 'a,b' rewrite split (default: random per case)")
    jb.add_argument("--no-paraphrase", action="store_true",
                    help="copy kept entries verbatim instead of paraphrasing")
    jb.add_argument("--out", help="CSV report path")
    jb.set_defaults(func=cmd_judge_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_flags(args)
        _check_out(args)
        return args.func(args)
    except (ConfigError, SchemaError, CheckpointError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DialignError, ProtocolError, OSError, FloatingPointError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
