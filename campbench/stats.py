"""Statistics the campaign benchmark reports and gates on.

Timings are reported as a median and the highest percentile that has at
least ten samples beyond it, with the sample count. Regressions are judged
by comparing medians against a bound given as a share of the base median.
"""

import math
import statistics

# Percentiles considered for a tail figure, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it
    among n samples, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def worse_share(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when it is better). `better` is "lower" or "higher"."""
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if base == 0:
        raise ValueError("cannot take a share of a zero base")
    delta = (new - base) if better == "lower" else (base - new)
    return delta / abs(base)


def within_bound(base, new, bound, better):
    """True when `new` is no worse than `base` by more than `bound`."""
    return worse_share(base, new, better) <= bound


def describe(values):
    """Median, quartiles, tail percentile and count of a sample list."""
    q1, mid, q3 = quartiles(values)
    out = {"median": mid, "q1": q1, "q3": q3, "n": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
    return out
