"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence

#: A reported percentile needs at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def samples_needed(quantile: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``quantile``."""
    count = MIN_SAMPLES_BEYOND
    while count - math.ceil(quantile * count) < MIN_SAMPLES_BEYOND:
        count += 1
    return count


def percentile(samples: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile that refuses thin tails.

    Raises:
        ValueError: when fewer than :data:`MIN_SAMPLES_BEYOND` samples
            lie beyond the requested rank (a p95 of 100 samples rests
            on five values and is not reported).
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    count = len(samples)
    rank = max(1, math.ceil(quantile * count))
    if count - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{quantile * 100:g} of {count} samples leaves {count - rank} "
            f"beyond it; need {MIN_SAMPLES_BEYOND}"
        )
    return sorted(samples)[rank - 1]


class Tally:
    """Attempted/failed operations; an operation fails at most once.

    Every operation has a key (a request's round and position, a
    search instance's round and name).  Any failed check on it -- an
    error line, a timeout, a wrong answer -- marks it failed, and the
    first reason is kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[object, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        """Failed share of attempted operations."""
        return self.failed / self.attempted

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, key, reason: str) -> None:
        self.failures.setdefault(key, reason)

    def check(self, key, condition: bool, reason: str) -> bool:
        """Mark operation ``key`` failed unless ``condition`` holds."""
        if not condition:
            self.fail(key, reason)
        return condition
