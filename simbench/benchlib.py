"""Pure helpers of the Swift-Sim benchmark: percentiles, ratios with their
base, span self time and the check of simulated results against the
expected values. run.py does the I/O; test_benchlib.py tests these."""

import math

# A percentile is reported only when at least this many samples lie
# beyond it; below that it describes a handful of outliers.
MIN_BEYOND = 10

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples. The
    epsilon keeps exact products such as 99.9% of 10000 from rounding up."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def highest_percentile(n, candidates=PERCENTILES):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


class Ratio:
    """A ratio that never travels without its numerator and base."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @property
    def value(self):
        return self.num / self.den if self.den else 0.0

    def __str__(self):
        return "%.6g (%s/%s)" % (self.value, _fmt(self.num), _fmt(self.den))


def _fmt(x):
    return "%d" % x if float(x).is_integer() else "%.6g" % x


def self_times(spans):
    """Maps span id -> self time: the span's duration minus the part of
    its interval covered by its direct children (overlapping children are
    counted once, parts outside the parent are ignored).

    Each span is a dict with id, parent, start_ns and end_ns."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(lo, c["start_ns"]), min(hi, c["end_ns"])
            if a >= b:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def self_time_by_name(spans):
    """Total and self seconds per span name, plus the span count."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += (s["end_ns"] - s["start_ns"]) * 1e-9
        row["self_s"] += own[s["id"]] * 1e-9
    return table


def check_result(result, expected):
    """Returns None when a simulated result matches its expected values,
    else a one-line reason. A result is a dict with key, cycles and
    instructions, or with error when the operation failed; expected maps
    key -> {"cycles", "instructions"}."""
    key = result.get("key")
    if "error" in result:
        return "%s: %s" % (key, result["error"])
    want = expected.get(key)
    if want is None:
        return "%s: no expected value" % key
    for field in ("cycles", "instructions"):
        if result.get(field) != want[field]:
            return "%s: %s %s != expected %s" % (key, field, result.get(field), want[field])
    return None


def count_failures(results, expected):
    """(attempted, failed, reasons) over results; every mismatch or error
    is one failed operation."""
    reasons = [r for r in (check_result(x, expected) for x in results) if r]
    return len(results), len(reasons), reasons


def cycle_error_pct(cycles_by_key, oracle_by_key):
    """Mean |cycles / oracle - 1| in percent over the keys of
    cycles_by_key; oracle_by_key maps the same keys to silicon cycles."""
    errs = [abs(c / oracle_by_key[k] - 1.0) for k, c in cycles_by_key.items()]
    return 100.0 * sum(errs) / len(errs)


def memo_inexact(keys, expected):
    """Ratio of distinct job keys whose recorded cycles differ from the
    memo-off simulation of the same job (entries without fresh_cycles, as
    for silicon, do not count)."""
    keys = [k for k in set(keys) if "fresh_cycles" in expected.get(k, {})]
    bad = sum(1 for k in keys if expected[k]["cycles"] != expected[k]["fresh_cycles"])
    return Ratio(bad, len(keys))


def metric_lines(values, units, ratios):
    """One printed line per metric. A metric whose unit is "ratio" must
    come with its Ratio, and is printed with its base."""
    lines = []
    for name in sorted(values):
        if units[name] == "ratio" and name not in ratios:
            raise ValueError("ratio %s has no base" % name)
        base = "  = %s" % ratios[name] if name in ratios else ""
        lines.append("%-36s %.6g %s%s" % (name, values[name], units[name], base))
    return lines
