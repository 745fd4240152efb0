#!/usr/bin/env python3
"""Self-test of compare.py on canned summary lines:

    python3 .github/bench/compare_test.py
"""
import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# A summary line as perfbench prints it, with every end-to-end metric.
SUMMARY = {
    "correct": True,
    "attempted": 1000,
    "failed": 0,
    "metrics": {m["name"]: {"value": 10.0 + i, "unit": m["unit"]} for i, m in enumerate(SPEC["end_to_end"])},
}


def report(base, head, workload=None):
    """Runs compare on ab.sh's summaries.tsv for three pairs of every
    workload and returns its report lines and failures: base and head
    print the given summary lines (None: the run errored; a list: one
    per pair), except that head prints SUMMARY on workloads other than
    the given one."""
    heads = head if isinstance(head, list) else [head] * 3
    lines = []
    for w in (x["name"] for x in SPEC["workloads"]):
        for seed in (1, 2, 3):
            h = heads[seed - 1] if workload in (None, w) else SUMMARY
            for side, s in (("base", base), ("head", h)):
                rc, raw = (1, "") if s is None else (0, json.dumps(s))
                lines.append(f"{w}\t{side}\t{seed}\t{rc}\t{raw}\n")
    return compare.compare(SPEC, compare.load(lines))


def judge(base, head, workload=None):
    """Returns report's failures."""
    return report(base, head, workload)[1]


def improved(by):
    """Returns SUMMARY with every metric better by the given fraction."""
    s = copy.deepcopy(SUMMARY)
    for m in SPEC["end_to_end"]:
        s["metrics"][m["name"]]["value"] *= 1 - by if m["better"] == "lower" else 1 + by
    return s


def wins(out):
    """Returns the head wins column of the first workload's report rows."""
    return [line.split()[5] for line in out[2:2 + len(SPEC["end_to_end"])]]


class CompareTest(unittest.TestCase):
    def test_equal_runs_pass(self):
        self.assertEqual(judge(SUMMARY, SUMMARY), [])

    def test_head_better_passes(self):
        head = copy.deepcopy(SUMMARY)
        for m in SPEC["end_to_end"]:
            head["metrics"][m["name"]]["value"] *= 0.5 if m["better"] == "lower" else 2
        self.assertEqual(judge(SUMMARY, head), [])

    def test_head_30_percent_worse_on_one_metric_fails(self):
        w = SPEC["workloads"][-1]["name"]
        for m in SPEC["end_to_end"]:
            head = copy.deepcopy(SUMMARY)
            head["metrics"][m["name"]]["value"] *= 1.3 if m["better"] == "lower" else 0.7
            failures = judge(SUMMARY, head, w)
            self.assertEqual(len(failures), 1, failures)
            self.assertTrue(failures[0].startswith(f"{w}: {m['name']}: worse by"), failures)

    def test_head_within_bound_passes(self):
        m = next(m for m in SPEC["end_to_end"] if m["better"] == "lower")
        head = copy.deepcopy(SUMMARY)
        head["metrics"][m["name"]]["value"] *= 1 + m["bound"] / 2
        self.assertEqual(judge(SUMMARY, head), [])

    def test_head_incorrect_fails(self):
        head = dict(SUMMARY, correct=False)
        self.assertTrue(any("correct: false" in f for f in judge(SUMMARY, head)))

    def test_head_larger_failed_share_fails(self):
        head = dict(SUMMARY, failed=1)
        self.assertTrue(any("of operations" in f for f in judge(SUMMARY, head)))

    def test_head_missing_metric_fails(self):
        head = copy.deepcopy(SUMMARY)
        name = SPEC["end_to_end"][0]["name"]
        del head["metrics"][name]
        for heads in (head, [SUMMARY, SUMMARY, head]):
            self.assertTrue(any(f": {name}: missing in head" in f for f in judge(SUMMARY, heads)))

    def test_head_error_fails(self):
        self.assertTrue(any("errored" in f for f in judge(SUMMARY, None)))

    def test_pair_wins(self):
        # Pair 1 is a win for head, pair 2 a tie and pair 3's head run is
        # missing: head won 1 of 2 pairs on every metric, whichever way it
        # improves, and the failures are those of the runs alone.
        w = SPEC["workloads"][0]["name"]
        out, failures = report(SUMMARY, [improved(0.1), SUMMARY, None], w)
        self.assertEqual(failures, [f"{w}: head run 3 errored (exit 1)"])
        self.assertEqual(wins(out), ["1/2"] * len(SPEC["end_to_end"]))
        out, failures = report(SUMMARY, improved(-0.01), w)
        self.assertEqual(failures, [])
        self.assertEqual(wins(out), ["0/3"] * len(SPEC["end_to_end"]))

    def test_no_base_value_fails(self):
        self.assertTrue(any("no base value" in f for f in judge(None, SUMMARY)))


if __name__ == "__main__":
    unittest.main()
