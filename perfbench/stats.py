"""Percentiles, failure accounting and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

#: Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 60.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int, target: float = 95.0) -> float | None:
    """The highest level <= ``target`` with >= ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it (fewer than 20 samples).
    """
    for level in TAIL_LEVELS:
        if level <= target and beyond(n, level) >= MIN_BEYOND:
            return level
    return None


#: Outcome labels of one operation.
OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"


def count_failures(outcomes: Iterable[tuple[str, int]]) -> tuple[int, int]:
    """``(attempted, failed)`` over ``(outcome, ops)`` pairs.

    A refused, failed or wrong operation all count as failed: none of
    them gave the user an answer they can use.
    """
    attempted = failed = 0
    for outcome, ops in outcomes:
        if outcome not in (OK, REFUSED, FAILED, WRONG):
            raise ValueError(f"unknown outcome {outcome!r}")
        attempted += ops
        if outcome != OK:
            failed += ops
    return attempted, failed


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance check takes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return q1, median, q3, spread
