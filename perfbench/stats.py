"""Summary arithmetic shared by the runner, the worker and the tests."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile that still has ``beyond`` samples above it, or the median.

    Returns ``(value, percentile, count_beyond)``.  With n sorted samples the
    (n - beyond)-th smallest one has exactly ``beyond`` samples above it, so
    its percentile is 100 (n - beyond) / n.  Below 2 ``beyond`` samples that
    percentile would fall under the median, which is no tail, so the median
    is returned instead; the percentile and the count beyond it say which.
    """
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * beyond:
        return median(xs), 50.0, n // 2
    k = n - beyond
    return xs[k - 1], 100.0 * k / n, beyond


def failed_ratio(outcomes: list[str]) -> float:
    """Share of attempted solves that did not end certified.

    ``outcomes`` holds one entry per attempted solve: ``"ok"`` for a solve
    whose every check passed, anything else (``"uncertified"``, ``"raised"``,
    a check's reason) for a failure.
    """
    if not outcomes:
        raise ValueError("no solves attempted")
    return sum(1 for o in outcomes if o != "ok") / len(outcomes)


def median(values: list[float]) -> float:
    return statistics.median(values)


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(name, layer, start, end, parent)`` tuples, ``parent``
    being the index of the enclosing span or -1.  Overlapping children are
    merged first, so no instant is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
