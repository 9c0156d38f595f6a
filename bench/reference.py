"""A fixed reference loop that gauges how fast the machine runs right now.

The benchmark runs on a shared machine whose speed drifts: other tenants'
load slows every instruction of this process by up to half, in phases of a
few seconds, and CPU time slows with wall time.  A 30-second run averages
some of it out, but runs made minutes apart still differ by a fifth.

So the benchmark times this loop right before and right after every timed
operation, and scales the operation's time by ``REFERENCE_SECONDS`` over
the loop's mean time.  Both run in the same thread
within a fraction of a second, so a slow phase slows both alike and the
scaled time keeps only the program's own cost.  This is the idea of duet
benchmarking (Bulej et al., ICPE 2020), done in time slices instead of in
parallel, since the machine has two cores.

The loop does what dialign's hot path does, in miniature: small numpy
matrix products and reductions, generator draws, tuple and string building,
frozen-dataclass construction and dict scans.  It imports nothing from
dialign, so a change to the program cannot change it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# The loop's time on one core of the 2-core development machine (Intel Xeon,
# 2.1 GHz) when no other load slows it: the 1st percentile of 2000 calls.
# Scaled times read as what that uncontended core would take.
REFERENCE_SECONDS = 0.0038

_TURNS = 400
_WEIGHTS = np.linspace(-1.0, 1.0, 9)
_FEATURES = np.arange(27, dtype=float).reshape(3, 9) / 27.0


@dataclass(frozen=True)
class _Record:
    turn: int
    slots: tuple[str, ...]
    text: str
    score: float


def reference_loop() -> float:
    """The fixed work; returns a checksum so none of it can be skipped."""
    rng = np.random.default_rng(0)
    seen: dict[str, _Record] = {}
    total = 0.0
    for turn in range(_TURNS):
        logits = _FEATURES @ _WEIGHTS
        include = rng.random(3) < 1.0 / (1.0 + np.exp(-logits))
        score = float(np.logaddexp.reduce(logits))
        slots = tuple(f"slot{i}" for i in range(3) if include[i])
        text = " ".join(f"{slot}={turn % 5}" for slot in slots) or "none"
        record = _Record(turn=turn, slots=slots, text=text, score=score)
        seen[record.text] = record
        total += record.score + sum(1 for r in seen.values() if r.turn > turn - 4)
    return total


def time_reference() -> float:
    """Seconds one reference loop takes now."""
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def scaled(seconds: float, reference_seconds: float) -> float:
    """``seconds`` as the uncontended core would have taken them, given the
    reference loop's time measured around them."""
    return seconds * REFERENCE_SECONDS / reference_seconds
