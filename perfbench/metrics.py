"""Metric math for the benchmark: exact sample quantiles, due-time latency,
generator lateness and error rate. Kept free of I/O so test_metrics.py can
check it on hand-made inputs."""

import math
import statistics

# A quantile is only reported when at least this many samples lie beyond it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    pass


def quantile(values, q):
    """Exact sample quantile (nearest rank): the smallest sample with at
    least a q share of the samples at or below it. Raises TooFewSamples
    unless MIN_TAIL samples lie strictly beyond the returned rank."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n))  # 1-based
    if n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_TAIL}")
    return sorted(values)[rank - 1]


def median(values):
    if not values:
        raise TooFewSamples("no samples")
    return statistics.median(values)


def due_time_latency_ms(due_ns, done_ns):
    """Open-loop latency: from when each request was due, not when it was
    sent, so a generator or server stall is charged to every request it
    delayed."""
    if len(due_ns) != len(done_ns):
        raise ValueError("due/done length mismatch")
    return [(d - u) / 1e6 for u, d in zip(due_ns, done_ns)]


def lateness_ms(due_ns, sent_ns):
    """How late the generator sent each request (never negative)."""
    return [max(0.0, (s - u) / 1e6) for u, s in zip(due_ns, sent_ns)]


def error_rate(attempted, failed):
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be within [0, attempted]")
    return failed / attempted
