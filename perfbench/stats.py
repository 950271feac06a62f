"""Arithmetic of the campaign benchmark: quantiles, percentile choice,
interval unions and self time, round inference, and compare verdicts.

Everything here is pure and works on plain numbers, so test_stats.py can
check it on hand-built inputs.
"""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles (quantiles needs two points).
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def _rank(count, p):
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * count / 100.0, 6)))


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(count, p):
    """How many of `count` samples lie above the nearest-rank p-th percentile."""
    return count - _rank(count, p)


def highest_percentile(count, candidates=(99.99, 99.9, 99.0, 90.0, 50.0), beyond=10):
    """The highest candidate percentile with at least `beyond` samples above it,
    or None when even the lowest candidate has fewer."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(count, p) >= beyond:
            return p
    return None


def union(intervals):
    """Merged, sorted, non-overlapping (start, end) intervals."""
    merged = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def covered(intervals, windows=None):
    """Total length of the union of `intervals`, clipped to the union of
    `windows` when given."""
    merged = union(intervals)
    if windows is None:
        return sum(e - s for s, e in merged)
    total = 0
    clip = union(windows)
    i = 0
    for s, e in merged:
        while i < len(clip) and clip[i][1] <= s:
            i += 1
        j = i
        while j < len(clip) and clip[j][0] < e:
            total += min(e, clip[j][1]) - max(s, clip[j][0])
            j += 1
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover; children
    may overlap each other (parallel workers) and stick out of the span."""
    start, end = span
    return (end - start) - covered(children, [span])


def infer_rounds(issues, reports):
    """Group a closed loop's calls into rounds.

    `issues` and `reports` are (test, start, end) tuples from the explorer
    decorator, all on the session thread. A round is a maximal run of
    issues followed by the reports that come before the next issue. Returns
    one dict per round: tests (issue order), first_issue_start,
    last_issue_end, first_report_start and last_report_end.
    """
    events = sorted([(s, 0, t, e) for t, s, e in issues] +
                    [(s, 1, t, e) for t, s, e in reports])
    rounds = []
    current = None
    for start, kind, test, end in events:
        if kind == 0:
            if current is None or current["first_report_start"] is not None:
                current = {"tests": [], "first_issue_start": start, "last_issue_end": end,
                           "first_report_start": None, "last_report_end": None}
                rounds.append(current)
            current["tests"].append(test)
            current["last_issue_end"] = end
        else:
            if current is None:
                raise ValueError("report %d before any issue" % test)
            if current["first_report_start"] is None:
                current["first_report_start"] = start
            current["last_report_end"] = end
    return [r for r in rounds if r["first_report_start"] is not None]


def round_waits(rounds, runs):
    """Per-test dispatch and barrier waits, and per-round gap intervals.

    `runs` maps test -> (start, end) of its execution on a worker.
    dispatch = worker start - last issue of its round; barrier = first
    report of its round - worker end. Also returns, per round, the
    interval from the last issue to the first worker start and from the
    last worker end to the first report: the time no issue, report or
    test covers, which belongs to the cluster layer.
    """
    dispatch, barrier, gaps = [], [], []
    for r in rounds:
        spans = [runs[t] for t in r["tests"] if t in runs]
        if not spans:
            continue
        for start, end in spans:
            dispatch.append(start - r["last_issue_end"])
            barrier.append(r["first_report_start"] - end)
        gaps.append((r["last_issue_end"], min(s for s, _ in spans)))
        gaps.append((max(e for _, e in spans), r["first_report_start"]))
    return dispatch, barrier, gaps


def verdict(parent, change, better, bound):
    """Compare two result sets of one end-to-end metric.

    parent/change: per-run values, paired by position (same seeds).
    better: "higher" or "lower". bound: share of the parent's median by
    which the change may worsen before it counts as a regression.

    improved    the change wins at least nine tenths of the pairs (ties
                count for neither) and the medians differ by more than the
                parent's own quartile distance;
    regressed   the change's median is worse than the parent's by more
                than the bound;
    unresolved  otherwise, when either side's quartile distance is wider
                than the bound, unless every change run beats every
                parent run;
    unchanged   otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p_q3 - p_q1):
        return "improved"
    if p_med and gain < -bound * abs(p_med):
        return "regressed"
    wider = max(relative_spread(parent), relative_spread(change)) > bound
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wider and not every_better:
        return "unresolved"
    return "unchanged"
