#!/usr/bin/env python3
"""Judges the head of a change against its base from ab.sh's runs.

    python3 .github/bench/compare.py BENCHMARK.json summaries.tsv

Prints, per workload, each end-to-end metric's base and head medians,
the change, the metric's bound, how many seed-matched pairs head won
(ties count for neither side) and a verdict, then every failure, and
exits 1 if there is one. The pair count informs a claimed gain, which
must win nine in ten pairs; it decides no verdict. Head fails when, on
any workload:

- a head run errored (non-zero exit, or no summary line);
- a head run reports correct: false;
- head fails a larger share of its operations than base;
- a head run lacks an end-to-end metric, or base has no value for it;
- head's median of an end-to-end metric is worse than base's median by
  more than the metric's bound, as a fraction of base's median.
"""
import json
import statistics
import sys


def load(lines):
    """Returns {(workload, side): [(seed, exit status, summary or None)]}."""
    runs = {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        workload, side, seed, rc, raw = line.split("\t", 4)
        try:
            summary = json.loads(raw)
        except ValueError:
            summary = None
        if not isinstance(summary, dict) or "correct" not in summary:
            summary = None
        runs.setdefault((workload, side), []).append((seed, int(rc), summary))
    return runs


def failed_share(summaries):
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return (failed / attempted if attempted else 0.0), f"{failed}/{attempted}"


def judge(metric, base, head, head_runs):
    """Returns base median, head median, change and the failure, if any:
    base and head are the metric's values, head_runs the number of head
    summaries that should each carry one."""
    if not head or len(head) < head_runs:
        return None, None, None, "missing in head"
    if not base:
        return None, None, None, "no base value"
    b, h = statistics.median(base), statistics.median(head)
    change = (h - b) / b if b else (0.0 if h == b else float("inf"))
    worse = change if metric["better"] == "lower" else -change
    if worse > metric["bound"]:
        return b, h, change, f"worse by {worse:.1%}, bound {metric['bound']:.0%}"
    return b, h, change, None


def pair_wins(metric, base, head):
    """Returns how many seed-matched pairs head won and how many there
    were: base and head are the metric's values as (seed, value) pairs."""
    b = dict(base)
    pairs = [(b[seed], h) for seed, h in head if seed in b]
    sign = 1 if metric["better"] == "higher" else -1
    return sum(1 for bv, hv in pairs if sign * (hv - bv) > 0), len(pairs)


def compare(spec, runs):
    """Returns the report lines and the failures."""
    out, failures = [], []
    for w in (x["name"] for x in spec["workloads"]):
        base = [(seed, s) for seed, rc, s in runs.get((w, "base"), []) if rc == 0 and s]
        head_runs = runs.get((w, "head"), [])
        head = [(seed, s) for seed, rc, s in head_runs if rc == 0 and s]
        if not head_runs:
            failures.append(f"{w}: no head run")
        for i, (_, rc, s) in enumerate(head_runs):
            if rc != 0 or s is None:
                failures.append(f"{w}: head run {i + 1} errored (exit {rc})")
            elif s["correct"] is not True:
                failures.append(f"{w}: head run {i + 1} reports correct: false")
        b_share, b_ops = failed_share([s for _, s in base])
        h_share, h_ops = failed_share([s for _, s in head])
        if h_share > b_share:
            failures.append(f"{w}: head fails {h_share:.4%} of operations, base {b_share:.4%}")
        out.append(f"{w}: {len(base)} base and {len(head)} head runs; failed operations base {b_ops}, head {h_ops}")
        out.append(f"  {'metric':<20} {'base median':>12} {'head median':>12} {'change':>8} {'bound':>6} "
                   f"{'head wins':>9}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [(seed, s["metrics"][name]["value"]) for seed, s in base if name in s.get("metrics", {})]
            h = [(seed, s["metrics"][name]["value"]) for seed, s in head if name in s.get("metrics", {})]
            bm, hm, change, failure = judge(m, [v for _, v in b], [v for _, v in h], len(head))
            cols = ("-", "-", "-") if bm is None else (f"{bm:.6g}", f"{hm:.6g}", f"{change:+.1%}")
            wins = "{}/{}".format(*pair_wins(m, b, h))
            out.append(f"  {name:<20} {cols[0]:>12} {cols[1]:>12} {cols[2]:>8} {m['bound']:>6.0%} {wins:>9}  "
                       + ("ok" if failure is None else "FAIL: " + failure))
            if failure is not None:
                failures.append(f"{w}: {name}: {failure}")
    return out, failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        spec = json.load(f)
    with open(argv[2]) as f:
        runs = load(f)
    out, failures = compare(spec, runs)
    print("\n".join(out))
    for f in failures:
        print("FAIL " + f)
    print(f"{len(failures)} failure(s)" if failures else "head is no worse than base")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
