"""Run one dialign benchmark workload and print its metrics.

    python3 bench/run.py --workload train --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; it imports dialign from ``src/`` there
and writes only under ``.bench_out/``.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced pass.  Operation times are scaled by the interleaved reference loop
of ``reference.py`` to what an uncontended core would take; the raw
wall-clock figures are printed and saved beside them.  Every metric is
printed by name with its unit and sample count, and the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The full result, with the run environment and output digests, is written
to ``.bench_out/<workload>/result-trace<0|1>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from bench_trace import Tracer, layer_metrics, metric
from reference import scaled, time_reference

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 15
READY = "setup-done"


@dataclass
class Measurement:
    """What a closed loop of whole jobs produced."""

    op_seconds: list[float] = field(default_factory=list)
    # Mean reference-loop time right before and right after each operation.
    reference_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    turns: int = 0
    episodes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.op_seconds)

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    @property
    def scaled_op_seconds(self) -> list[float]:
        return [scaled(op, ref) for op, ref in zip(self.op_seconds, self.reference_seconds)]


def measure(workload, seconds: float, tracer=None, between_jobs=None) -> Measurement:
    """Run whole jobs until ``seconds`` have passed; the last job is finished.

    Only ``workload.op()`` is timed; the reference loop runs right before
    and right after it, untimed, to gauge the machine's speed.  A train
    round counts as one attempted operation and an eval job as its
    episodes; an exception or a failed check fails the operation.  ``between_jobs(elapsed)`` runs before each
    job, and its own time does not count towards ``seconds``.
    """
    result = Measurement()
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        if between_jobs is not None:
            paused = time.perf_counter()
            between_jobs(seconds - (deadline - paused))
            deadline += time.perf_counter() - paused
        if tracer is not None:
            tracer.new_job()
        workload.begin_job()
        reference_before = time_reference()
        for index in range(workload.ops_per_job):
            result.attempted += workload.attempts_per_op
            if tracer is not None:
                tracer.op_id = op_id
            op_id += 1
            started = time.perf_counter()
            try:
                if tracer is None:
                    workload.op()
                else:
                    with tracer.span("bench.op"):
                        workload.op()
            except Exception:
                result.failed += workload.attempts_per_op
                result.problems.append(traceback.format_exc(limit=3))
                break
            elapsed = time.perf_counter() - started
            reference_after = time_reference()
            reference = (reference_before + reference_after) / 2.0
            reference_before = reference_after
            problems = workload.check_op(index)
            if problems:
                result.failed += workload.attempts_per_op
                result.problems.extend(problems)
                continue
            result.op_seconds.append(elapsed)
            result.reference_seconds.append(reference)
            result.turns += workload.turns_per_op
            result.episodes += workload.episodes_per_op
        if time.perf_counter() >= deadline:
            return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def run_environment(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class SetupProbes:
    """Times fresh interpreters from spawn until set-up is done.

    Called between jobs with the loop's elapsed time, it spreads its probes
    evenly over the run, so that they sample the machine as the timed
    operations do.  Its times are not scaled by the reference loop: set-up
    is mostly process start and imports, whose cost does not follow it.
    """

    def __init__(self, args: argparse.Namespace, seconds: float) -> None:
        self.args = args
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        while len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.interval:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times

    def probe(self) -> None:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--setup-probe", str(OUT_ROOT / self.args.workload / "probe"),
        ]
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline().strip()
                elapsed = time.perf_counter() - started
                child.communicate(timeout=60)
            except BaseException:
                child.kill()
                raise
        if line != READY or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        self.times.append(elapsed)


def end_to_end(
    setup_times: list[float], run: Measurement, peak_rss_mb: float, scale: bool = True
) -> dict:
    """The end-to-end metrics, from reference-scaled times unless ``scale`` is false."""
    ops = run.scaled_op_seconds if scale else run.op_seconds
    seconds = sum(ops)
    return {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "turns_per_s": metric(run.turns / seconds, "1/s", run.turns),
        "episodes_per_s": metric(run.episodes / seconds, "1/s", run.episodes),
        "op_ms_p50": metric(1e3 * statistics.median(ops), "ms", len(ops)),
        "op_ms_p90": metric(1e3 * percentile(ops, 90), "ms", len(ops)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
    }


def traced_pass(
    workload, seconds: float, out_dir: Path
) -> tuple[dict, list[Measurement], list[str]]:
    """An untraced reference third, then set-up and jobs with every layer traced."""
    plain = measure(workload, seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        traced = measure(workload, seconds - plain.seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.save(out_dir / "spans.npz")
    if not (plain.ops and traced.ops):
        return {}, [plain, traced], ["no successful operation to compare"]
    overhead = (sum(traced.scaled_op_seconds) / traced.turns) / (
        sum(plain.scaled_op_seconds) / plain.turns
    )
    metrics, problems = layer_metrics(tracer, traced.turns, overhead, workload.bytes_per_write)
    return metrics, [plain, traced], problems


def report(metrics: dict, prefix: str = "") -> None:
    for name, entry in metrics.items():
        print(f"{prefix}{name} = {entry['value']:.6g} {entry['unit']} (n={entry['samples']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dialign" / "__init__.py").is_file():
        print(f"error: no dialign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench_workloads import WORKLOADS, digest_mismatches, reference_digests

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        workdir = Path(args.setup_probe)
        shutil.rmtree(workdir, ignore_errors=True)
        WORKLOADS[args.workload](workdir, args.seed).setup()
        print(READY, flush=True)
        return 0

    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](out_dir / "work", args.seed)

    metrics, wall_metrics = {}, {}
    if args.trace:
        workload.setup()
        metrics, runs, problems = traced_pass(workload, args.seconds, out_dir)
    else:
        probes = SetupProbes(args, args.seconds)
        workload.setup()
        run = measure(workload, args.seconds, between_jobs=probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times = probes.finish()
        # Percentiles need two operations.
        if run.ops > 1:
            metrics = end_to_end(setup_times, run, peak_rss_mb)
            wall_metrics = end_to_end(setup_times, run, peak_rss_mb, scale=False)
            for name in ("setup_s", "peak_rss_mb"):
                del wall_metrics[name]
        runs, problems = [run], []

    digests, final_problems = workload.final_check()
    mismatched = digest_mismatches(digests, reference_digests(args.workload, args.seed))
    problems = [p for run in runs for p in run.problems] + problems + final_problems
    problems += [f"{name} differs from bench/digests.json" for name in mismatched]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    correct = not problems and failed == 0 and bool(metrics)

    environment = run_environment(args)
    print("env: " + " ".join(f"{key}={value}" for key, value in environment.items()))
    report(metrics)
    report(wall_metrics, prefix="unscaled ")
    print(f"fail_ratio = {failed / attempted:g} ({failed}/{attempted} {workload.attempt_unit}s)")
    for name, value in digests.items():
        print(f"digest {name} = {value}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    result = {
        "environment": environment,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall_metrics": wall_metrics,
        "digests": digests,
        "problems": problems,
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    summary = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
