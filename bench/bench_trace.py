"""Span tracing of dialign's layers, installed from outside the package.

A ``Tracer`` replaces the public callables listed in ``TRACED`` with
wrappers that record one span per call: the callable's name, its start and
end (``time.perf_counter``), the span that was open when it was called, and
the benchmark operation (training round or eval job) it belongs to.  Spans
are kept in flat arrays while the run lasts and written out when it ends.

Modules import names directly (``from .user_sim import next_utterance``),
so a function is patched in every ``dialign`` module namespace that holds
it, which is where the caller looks it up; a method is patched once, on its
class.  ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct child
spans.  Calls in one thread nest strictly, so children never overlap and the
self times of all spans add up to the summed duration of the root spans,
which the benchmark opens around each set-up and each timed operation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# (dialign module, qualified name) of every traced callable.
TRACED: tuple[tuple[str, str], ...] = (
    ("profiles", "Profile.__post_init__"),
    ("profiles", "profile_reward"),
    ("user_sim", "initial_state"),
    ("user_sim", "next_utterance"),
    ("user_sim", "theoretical_max"),
    ("reward", "RuleJudge.judge"),
    ("reward", "alignment_verdict"),
    ("env", "DialogueEnv.reset"),
    ("env", "DialogueEnv.step"),
    ("env", "DialogueEnv.view"),
    ("env", "observe"),
    ("env", "rollout"),
    ("env", "EvidenceOracleAgent.act"),
    ("env", "write_episodes"),
    ("rl", "train"),
    ("rl", "collect"),
    ("rl", "update"),
    ("rl", "PolicyAgent.act"),
    ("rl", "PolicyAgent.finish"),
    ("rl", "CategoricalSlotPolicy.sample_with_log_prob"),
    ("rl", "save_checkpoint"),
    ("rl", "load_checkpoint"),
    ("metrics", "alignment_matrix"),
    ("metrics", "longterm_profile_curve"),
    ("scenarios", "load_scenarios"),
    ("scenarios", "save_scenarios"),
    ("cli", "main"),
)
LAYERS: tuple[str, ...] = tuple(f"{module}.{qualname}" for module, qualname in TRACED)

# Spans the benchmark itself opens; their self time is the uncovered time.
ROOTS: tuple[str, ...] = ("bench.setup", "bench.op")

def _next_utterance_key(args: tuple, kwargs: dict) -> tuple:
    """The inputs that fix a user turn: (style_seed, horizon, conflict, turn)."""
    state, config = args
    conflict = config.conflict
    conflict_key = None if conflict is None else (conflict.turn, tuple(conflict.replace.items()))
    return (config.style_seed, config.horizon, conflict_key, state.turn + 1)


class Tracer:
    """Records spans around dialign's public callables while installed.

    ``op_id`` tags each new span with the benchmark operation it belongs to.
    ``new_job`` starts a fresh input set for the ``next_utterance``
    uniqueness counter, so the ratio is per ``dialign`` invocation.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = list(LAYERS) + list(ROOTS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(self.names)
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._job_keys: set = set()
        self.unique_inputs = 0
        self.keyed_calls = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        name_id = self._ids[name]
        index = self._open(name_id)
        try:
            yield
        except BaseException:
            self.errors[name_id] += 1
            raise
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, key: Callable | None = None) -> Callable:
        name_id = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer.keyed_calls += 1
                tracer._job_keys.add(key(args, kwargs))
            index = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name_id] += 1
                raise
            finally:
                tracer._close(index)

        return traced

    def new_job(self) -> None:
        self.unique_inputs += len(self._job_keys)
        self._job_keys = set()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "dialign" or name.startswith("dialign."))
        ]
        for module_name, qualname in TRACED:
            name = f"{module_name}.{qualname}"
            home = importlib.import_module(f"dialign.{module_name}")
            key = _next_utterance_key if name == "user_sim.next_utterance" else None
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(home, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(name, original, key))
                continue
            original = getattr(home, qualname)
            wrapper = self.wrap(name, original, key)
            for module in modules:
                if module.__dict__.get(qualname) is original:
                    self._patch(module, qualname, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        self.new_job()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_totals(tracer: Tracer, spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed duration (s)."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    n = len(tracer.names)
    calls = np.bincount(spans["name_id"], minlength=n)
    self_sum = np.bincount(spans["name_id"], weights=own, minlength=n)
    total_sum = np.bincount(spans["name_id"], weights=duration, minlength=n)
    return {
        name: {
            "calls": int(calls[i]),
            "self_s": float(self_sum[i]),
            "total_s": float(total_sum[i]),
            "errors": tracer.errors[i],
        }
        for i, name in enumerate(tracer.names)
    }


def wall_time(spans: dict[str, np.ndarray]) -> float:
    """Summed duration of the root spans: the traced wall time."""
    roots = spans["parent"] < 0
    return float(np.sum(spans["end"][roots] - spans["start"][roots]))


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def layer_metrics(
    tracer: Tracer, turns: int, overhead_ratio: float, bytes_per_write: int
) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, and any inconsistency found.

    ``turns`` is the number of agent turns the traced operations completed;
    ``overhead_ratio`` is traced over untraced time per turn.
    """
    spans = tracer.arrays()
    totals = layer_totals(tracer, spans)
    wall = wall_time(spans)
    problems: list[str] = []
    metrics: dict[str, dict] = {}
    for layer in LAYERS:
        entry = totals[layer]
        calls = entry["calls"]
        metrics[f"{layer}.calls_per_turn"] = metric(calls / turns, "count", calls)
        metrics[f"{layer}.self_us_per_call"] = metric(
            1e6 * entry["self_s"] / calls if calls else 0.0, "us", calls
        )
        metrics[f"{layer}.self_share"] = metric(entry["self_s"] / wall, "ratio", calls)
        metrics[f"{layer}.errors"] = metric(entry["errors"], "count", calls)
        if entry["errors"]:
            problems.append(f"{layer} raised {entry['errors']} times")
    for name in ("rl.collect", "rl.update"):
        entry = totals[name]
        metrics[f"{name}.ms_per_call"] = metric(
            1e3 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0,
            "ms",
            entry["calls"],
        )
    writes = totals["env.write_episodes"]["calls"]
    metrics["env.write_episodes.bytes_per_call"] = metric(bytes_per_write, "bytes", writes)

    keyed = tracer.keyed_calls
    metrics["user_sim.next_utterance.unique_ratio"] = metric(
        tracer.unique_inputs / keyed if keyed else 1.0, "ratio", keyed
    )
    constructions = totals["profiles.Profile.__post_init__"]["calls"]
    metrics["profiles.Profile.constructions_per_turn"] = metric(
        constructions / turns, "count", turns
    )

    uncovered = sum(totals[name]["self_s"] for name in ROOTS)
    layer_self = sum(totals[name]["self_s"] for name in LAYERS)
    root_calls = sum(totals[name]["calls"] for name in ROOTS)
    metrics["trace.overhead_ratio"] = metric(overhead_ratio, "ratio", turns)
    metrics["trace.uncovered_share"] = metric(uncovered / wall, "ratio", root_calls)
    metrics["trace.wall_s"] = metric(wall, "s", root_calls)
    metrics["trace.turns"] = metric(turns, "count", turns)

    if np.count_nonzero(spans["parent"] < 0) != root_calls:
        problems.append("a traced call ran outside the benchmark's set-up and operations")
    if abs(layer_self + uncovered - wall) > 1e-9 * wall:
        problems.append("layer self times plus uncovered time do not add up to the wall time")
    steps = totals["env.DialogueEnv.step"]["calls"]
    if steps != turns:
        problems.append(f"{steps} DialogueEnv.step calls traced, {turns} turns expected")
    return metrics, problems
