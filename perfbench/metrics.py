"""Arithmetic behind the benchmark's reported numbers.

Pure functions with no I/O, so they can be tested on any host.
"""
from __future__ import annotations

import math
import statistics

BER_LIMIT = 0.05  # a rate is "reliable" when its pooled BER is at most this
TAIL_MIN = 10  # a percentile is reported only with this many samples beyond it


def h2(p: float) -> float:
    """Binary entropy in bits. h2(0) = h2(1) = 0 and h2(0.5) = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bsc_capacity_bps(rate_bps: float, ber: float) -> float:
    """Rate of a binary symmetric channel: rate * (1 - H2(BER)).

    Symmetric around 0.5: a channel that flips every bit carries as much as
    one that flips none, because the receiver can invert its output.
    """
    return rate_bps * (1.0 - h2(ber))


def pooled_ber(cells: list[tuple[int, int]]) -> float:
    """Errors over bits for (errors, bits) pairs."""
    bits = sum(b for _, b in cells)
    if bits <= 0:
        raise ValueError("no bits to pool")
    return sum(e for e, _ in cells) / bits


def ber_by_rate(cells: list[tuple[int, int, int]]) -> dict[int, float]:
    """Pooled BER per rate for (rate, errors, bits) triples, rates ascending."""
    grouped: dict[int, list[tuple[int, int]]] = {}
    for rate, errors, bits in cells:
        grouped.setdefault(rate, []).append((errors, bits))
    return {rate: pooled_ber(grouped[rate]) for rate in sorted(grouped)}


def capacity_bps(by_rate: dict[int, float]) -> float:
    """Best BSC rate over the measured rates."""
    if not by_rate:
        raise ValueError("no rates measured")
    return max(bsc_capacity_bps(rate, ber) for rate, ber in by_rate.items())


def max_reliable_rate(by_rate: dict[int, float], limit: float = BER_LIMIT) -> int | None:
    """Highest rate whose pooled BER is at most limit, or None if none is."""
    ok = [rate for rate, ber in by_rate.items() if ber <= limit]
    return max(ok) if ok else None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q * n), 1-based."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples that lie above the nearest-rank q percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def summarize(values, scale: float = 1.0) -> dict[str, float]:
    """p50 and sample count, plus p90 only when TAIL_MIN samples lie beyond it.

    scale converts the stored unit to the reported one (1e-3 for ns -> us).
    An empty series reports n = 0 and zero percentiles.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"p50": 0.0, "p90": 0.0, "n": 0}
    out = {"p50": percentile(ordered, 0.5) * scale, "n": n}
    if beyond(n, 0.9) >= TAIL_MIN:
        out["p90"] = percentile(ordered, 0.9) * scale
    return out


def median(values) -> float:
    return statistics.median(values)


def median_of_group_medians(pairs) -> float:
    """Median over groups of each group's median, for (group, value) pairs.

    Each group counts once however many samples it has, so a few groups with
    long tails cannot drag the result.
    """
    groups: dict = {}
    for group, value in pairs:
        groups.setdefault(group, []).append(value)
    return statistics.median(statistics.median(v) for v in groups.values())


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    values = list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
