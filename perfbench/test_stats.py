"""Tests of the benchmark's sample statistics and journal readouts.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import tempfile
import unittest
from pathlib import Path

import stats
from run import journal_readouts


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        summary = stats.summarize([{"x": 3.0, "y": 4.0}, {"x": 1.0, "y": 1.0},
                                   {"x": 2.0, "y": 3.0}, {"x": 2.0, "y": 2.0}])
        self.assertEqual(summary["x"]["median"], 2.0)
        self.assertEqual(summary["y"]["median"], 2.5)
        self.assertEqual(stats.summarize([{"x": 3.0}, {"x": 1.0}, {"x": 2.0}])["x"]["median"], 2.0)

    def test_quartiles_match_statistics_quantiles(self):
        values = [2.41, 2.33, 2.54, 2.38, 2.47, 2.36, 2.50]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        # Exclusive method on 1..8: positions (n+1)/4 and 3(n+1)/4.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8]), (2.25, 6.75))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([0.004]), (0.004, 0.004))

    def test_summarize_reports_count(self):
        samples = [{"wall_s": 1.0, "cpu_s": 2.0}, {"wall_s": 3.0, "cpu_s": 4.0},
                   {"wall_s": 2.0, "cpu_s": 3.0}]
        summary = stats.summarize(samples)
        self.assertEqual(summary["wall_s"]["median"], 2.0)
        self.assertEqual(summary["cpu_s"]["n"], 3)


class FailureCounting(unittest.TestCase):
    def test_failed_samples_count_against_attempted(self):
        tally = stats.Tally()
        tally.record([])
        tally.record(["exit 1"])
        tally.record(["store differs", "--resume changed the store"])
        tally.record([])
        self.assertEqual((tally.attempted, tally.failed), (4, 2))
        self.assertEqual(tally.fail_frac, 0.5)
        self.assertEqual(len(tally.reasons), 3)

    def test_empty_tally(self):
        self.assertEqual(stats.Tally().fail_frac, 0.0)


class JournalReadouts(unittest.TestCase):
    def test_spans_queue_wait_and_occupancy(self):
        events = [
            {"ev": "campaign_start", "t_ms": 0, "workers": 2},
            {"ev": "span_start", "span": 1, "label": "campaign:inject", "t_us": 0},
            {"ev": "span_start", "span": 2, "parent": 1, "label": "trial_decode", "t_us": 100},
            {"ev": "span_end", "span": 2, "t_us": 1100},
            {"ev": "span_start", "span": 3, "parent": 1, "label": "trial_decode", "t_us": 2000},
            {"ev": "span_end", "span": 3, "t_us": 2500},
            {"ev": "scenario_done", "wall_ms": 6.0, "queue_ms": 0.5},
            {"ev": "scenario_done", "wall_ms": 4.0, "queue_ms": 6.0},
            {"ev": "span_end", "span": 1, "t_us": 10000},
            {"ev": "counters", "exact_word_writes": 99},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.events.jsonl"
            text = "\n".join(json.dumps(e) for e in events) + '\n{"ev":"span_st'
            path.write_text(text)
            spans, queue_ms, occupancy, counters = journal_readouts(path)
        self.assertAlmostEqual(spans["trial_decode"], 1.5)
        self.assertEqual(queue_ms, 6.5)
        self.assertAlmostEqual(occupancy, 10.0 / (2 * 10.0))
        self.assertEqual(counters["exact_word_writes"], 99)


if __name__ == "__main__":
    unittest.main()
