"""Tests of the benchmark's own arithmetic (perfbench/measure.py).

    python3 -m unittest discover -s perfbench/tests
"""

import re
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import measure  # noqa: E402

DATA = HERE / "data"
MS = 1_000_000  # ns


def span(intended, sent, reply, op=measure.OP_PUT, key=0, value=0,
         status=measure.ST_OK, seq=0):
    """One span record, in measure.Spans.FIELDS order."""
    return (1, seq, intended, sent, reply, value, key, op, status, 0)


def spans(*records):
    return measure.Spans.from_records(records)


class PercentileTest(unittest.TestCase):
    def test_known_sample(self):
        v = list(range(1, 101))
        self.assertEqual(measure.percentile(v, 0), 1)
        self.assertEqual(measure.percentile(v, 100), 100)
        self.assertAlmostEqual(measure.percentile(v, 50), 50.5)
        self.assertAlmostEqual(measure.percentile(v, 99), 99.01)
        # Same definition as statistics.quantiles(method="inclusive").
        q = statistics.quantiles(v, n=4, method="inclusive")
        self.assertAlmostEqual(measure.percentile(v, 25), q[0])
        self.assertAlmostEqual(measure.percentile(v, 75), q[2])

    def test_unsorted_and_single(self):
        self.assertAlmostEqual(measure.percentile([3, 1, 2], 50), 2)
        self.assertEqual(measure.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            measure.percentile([], 50)


class StallTest(unittest.TestCase):
    """A generator that stalls for 50 ms must charge the stall to every op
    due during it, although the server answers each op in 1 ms."""

    def setUp(self):
        records = []
        for i in range(1000):  # one op per ms for one second
            intended = i * MS
            sent = max(intended, 550 * MS) if 500 * MS <= intended < 550 * MS else intended
            records.append(span(intended, sent, sent + MS, seq=i))
        self.spans = spans(*records)

    def test_latency_counts_from_intended_time(self):
        lat = measure.op_latencies_ms(self.spans)
        self.assertAlmostEqual(max(lat), 51.0)
        self.assertAlmostEqual(min(lat), 1.0)
        # 5% of ops were delayed: p99 sees the stall, p50 does not.
        self.assertGreater(measure.percentile(lat, 99), 40)
        self.assertAlmostEqual(measure.percentile(lat, 50), 1.0)
        # Timed from the send instead, the stall would vanish.
        from_send = [(r - s) / MS for r, s in zip(self.spans.reply, self.spans.sent)]
        self.assertAlmostEqual(max(from_send), 1.0)

    def test_lateness_reports_the_stall(self):
        late = measure.lateness_ms(self.spans)
        self.assertAlmostEqual(max(late), 50.0)
        self.assertAlmostEqual(measure.percentile(late, 50), 0.0)

    def test_late_generator_fails_the_rung(self):
        # 5% of ops were sent late, so the generator's p99 lateness is near
        # the stall's length: the rung measured the generator.
        v = measure.rung_verdict(self.spans, 1000, 60, 0, 1e9, 5)
        self.assertGreater(v["gen_late_p99_ms"], 40)
        self.assertTrue(v["generator_bound"])
        self.assertFalse(v["ok"])
        # With a bound above the stall, the same rung passes.
        v = measure.rung_verdict(self.spans, 1000, 60, 0, 1e9, 60)
        self.assertFalse(v["generator_bound"])
        self.assertTrue(v["ok"])


class BacklogTest(unittest.TestCase):
    @staticmethod
    def rung(rate, service_rate, seconds=2.0, stall=None):
        """Ops arriving at `rate` served FIFO at `service_rate`."""
        records, free = [], 0.0
        for i in range(int(rate * seconds)):
            t = i / rate
            start = max(t, free)
            if stall and stall[0] <= start < stall[1]:
                start = stall[1]
            free = start + 1.0 / service_rate
            records.append(span(int(t * 1e9), int(t * 1e9), int(free * 1e9), seq=i))
        return spans(*records)

    def test_overload_grows(self):
        rung = self.rung(10000, 8000)
        series = measure.outstanding_series(rung, 0, 2e9)
        self.assertTrue(measure.backlog_growing(series, 10000, 50))
        v = measure.rung_verdict(rung, 10000, 50, 0, 2e9, 5)
        self.assertFalse(v["ok"])
        self.assertTrue(v["backlog_growing"])

    def test_steady_queue_does_not_grow(self):
        rung = self.rung(10000, 20000)
        series = measure.outstanding_series(rung, 0, 2e9)
        self.assertFalse(measure.backlog_growing(series, 10000, 50))
        self.assertTrue(measure.rung_verdict(rung, 10000, 50, 0, 2e9, 5)["ok"])

    def test_drained_stall_is_not_a_backlog_but_can_miss_p99(self):
        rung = self.rung(10000, 20000, stall=(1.0, 1.1))
        v = measure.rung_verdict(rung, 10000, 50, 0, 2e9, 5)
        self.assertFalse(v["backlog_growing"])
        self.assertGreater(v["p99_ms"], 50)
        self.assertFalse(v["ok"])

    def test_failed_op_fails_the_rung(self):
        rung = self.rung(1000, 20000)
        rung.status[10] = measure.ST_NO_REPLY
        rung.reply[10] = 0
        self.assertEqual(measure.count_failed(rung), 1)
        v = measure.rung_verdict(rung, 1000, 50, 0, 2e9, 5)
        self.assertEqual(v["failed"], 1)
        self.assertFalse(v["ok"])

    @staticmethod
    def search(capacity, rungs, start=10000, factor=1.5):
        """Rates a search probes against a cluster that passes every rung
        at or below `capacity`; returns (rates, passed, failed)."""
        passed = failed = None
        rates = []
        for _ in range(rungs):
            rate = measure.next_rate(start, factor, passed, failed)
            rates.append(rate)
            if rate <= capacity:
                passed = rate
            else:
                failed = rate
        return rates, passed, failed

    def test_search_climbs_then_bisects(self):
        rates, passed, failed = self.search(40000, 6)
        self.assertEqual(rates[:4], [10000, 15000, 22500, 33750])
        # 50625 failed: the sixth rung bisects [33750, 50625] geometrically.
        self.assertEqual(rates[4], 50625)
        self.assertAlmostEqual(rates[5], (33750 * 50625) ** 0.5)
        self.assertTrue(passed <= 40000 < failed)
        # Each bisection halves the bracket's log-ratio: 1.5 -> 1.22.
        self.assertAlmostEqual(failed / passed, 1.5 ** 0.5)

    def test_search_descends_when_the_start_fails(self):
        rates, passed, failed = self.search(5000, 4)
        self.assertEqual(rates[:3], [10000, 10000 / 1.5, 10000 / 1.5 ** 2])
        self.assertTrue(passed <= 5000 < failed)

    def test_search_never_ends_on_a_passing_top_rung(self):
        # Once bracketed, every rung lies inside the bracket.
        rates, passed, failed = self.search(123456, 11)
        for i, rate in enumerate(rates[9:], 9):
            below = [r for r in rates[:i] if r <= 123456]
            above = [r for r in rates[:i] if r > 123456]
            self.assertTrue(max(below) < rate < min(above))
        self.assertTrue(passed <= 123456 < failed)
        self.assertAlmostEqual(failed / passed, 1.5 ** (1 / 8))


class HistogramDeltaTest(unittest.TestCase):
    def test_synthetic_delta(self):
        before = measure.parse_prometheus(
            'x_bucket{le="1"} 0\nx_bucket{le="2"} 10\nx_bucket{le="4"} 10\n'
            'x_bucket{le="+Inf"} 10\nx_sum 15\nx_count 10\nc_total 5\n')
        after = measure.parse_prometheus(
            'x_bucket{le="1"} 0\nx_bucket{le="2"} 10\nx_bucket{le="4"} 30\n'
            'x_bucket{le="+Inf"} 30\nx_sum 75\nx_count 30\nc_total 12\n')
        d = measure.hist_delta(before, after, "x")
        self.assertEqual(d["count"], 20)
        self.assertEqual(d["sum"], 60)
        self.assertEqual(dict(d["buckets"])[4.0], 20)
        self.assertEqual(measure.hist_mean(d), 3.0)
        value, lo, hi = measure.hist_percentile(d, 50)
        self.assertEqual((lo, hi), (2.0, 4.0))
        self.assertTrue(lo < value <= hi)
        self.assertEqual(measure.counter_delta(before, after, "c_total"), 7)
        # The warm-up samples (all <= 2) are gone from the window.
        self.assertEqual(measure.hist_percentile(d, 1)[1:], (2.0, 4.0))

    def test_recorded_scrapes(self):
        before = measure.parse_prometheus((DATA / "metrics_before.txt").read_text())
        after = measure.parse_prometheus((DATA / "metrics_after.txt").read_text())

        def raw(text, name):
            return float(re.search(r"^%s (\S+)$" % name, text, re.M).group(1))

        tb = (DATA / "metrics_before.txt").read_text()
        ta = (DATA / "metrics_after.txt").read_text()
        d = measure.hist_delta(before, after, "crsm_loop_busy_us")
        self.assertEqual(d["count"], raw(ta, "crsm_loop_busy_us_count")
                         - raw(tb, "crsm_loop_busy_us_count"))
        self.assertGreater(d["count"], 0)
        cums = [c for _, c in d["buckets"]]
        self.assertEqual(cums, sorted(cums))
        self.assertEqual(cums[-1], d["count"])
        value, lo, hi = measure.hist_percentile(d, 99)
        self.assertTrue(lo < value <= hi and hi == 2 * lo)
        self.assertEqual(
            measure.counter_delta(before, after, "crsm_executed_total"),
            raw(ta, "crsm_executed_total") - raw(tb, "crsm_executed_total"))
        merged = measure.merge_hists([d, d])
        self.assertEqual(merged["count"], 2 * d["count"])
        self.assertEqual(measure.hist_percentile(merged, 99), (value, lo, hi))

    def test_absent_histogram_is_empty(self):
        empty = measure.parse_prometheus("")
        d = measure.hist_delta(empty, empty, "crsm_stage_wal_us")
        self.assertEqual(d["count"], 0)
        self.assertIsNone(measure.hist_percentile(d, 50))


class ProcTest(unittest.TestCase):
    def test_recorded_node_files(self):
        stat = measure.parse_proc_stat((DATA / "proc_stat.txt").read_text())
        self.assertEqual(stat, {"utime": 10, "stime": 4})
        status = measure.parse_proc_status((DATA / "proc_status.txt").read_text())
        self.assertEqual(status["VmHWM"], 11280)
        self.assertEqual(status["voluntary_ctxt_switches"], 4)
        self.assertEqual(status["nonvoluntary_ctxt_switches"], 0)
        io = measure.parse_proc_io((DATA / "proc_io.txt").read_text())
        self.assertEqual((io["syscr"], io["syscw"]), (1010, 22071))

    def test_command_name_with_spaces_and_parens(self):
        text = "42 (a) b (c) S 1 2 3 0 -1 0 0 0 0 0 123 45 0 0 20 0 1 0 9 9 9"
        self.assertEqual(measure.parse_proc_stat(text), {"utime": 123, "stime": 45})


class HistoryCheckTest(unittest.TestCase):
    def test_linearizable_history_passes(self):
        history = spans(span(0, 0, 10, value=1, key=5),
                        span(20, 20, 30, op=measure.OP_GET, key=5, value=1),
                        span(5, 5, 15, op=measure.OP_GET, key=5,
                             value=measure.EMPTY_VALUE),
                        # concurrent with the put: either answer is allowed
                        span(5, 5, 15, op=measure.OP_GET, key=5, value=1))
        self.assertEqual(measure.check_history(history), [])

    def test_violations(self):
        put1 = span(0, 0, 10, value=1, key=5)
        put2 = span(20, 20, 30, value=2, key=5)
        other = span(0, 0, 10, value=3, key=6)
        cases = {
            "empty after a put completed":
                span(40, 40, 50, op=measure.OP_GET, key=5, value=measure.EMPTY_VALUE),
            "overwritten before the get began":
                span(40, 40, 50, op=measure.OP_GET, key=5, value=1),
            "nobody wrote":
                span(40, 40, 50, op=measure.OP_GET, key=5, value=99),
            "key 6's value":
                span(40, 40, 50, op=measure.OP_GET, key=5, value=3),
            "invoked after the get completed":
                span(12, 12, 15, op=measure.OP_GET, key=5, value=2),
            "redirect":
                span(0, 0, 1, status=measure.ST_REDIRECT, value=7, key=9),
        }
        for what, bad in cases.items():
            with self.subTest(what):
                v = measure.check_history(spans(put1, put2, other, bad))
                self.assertEqual(len(v), 1, v)
                self.assertIn(what.split()[-1], v[0])


class SpansFileTest(unittest.TestCase):
    def test_round_trip(self):
        recs = [(7, 9, 100, 110, 250, 42, 3, measure.OP_GET, measure.ST_OK, 2),
                (2**64 - 1, 1, -5, 0, 0, measure.FOREIGN_VALUE, 2**32 - 1,
                 measure.OP_PUT, measure.ST_NO_REPLY, 255)]
        data = b"".join(measure.SPAN.pack(*r, 0) for r in recs)
        s = measure.parse_spans(data)
        self.assertEqual(len(s), 2)
        self.assertEqual(list(s.rows()), recs)
        self.assertEqual(measure.op_latencies_ms(s), [150e-6])
        self.assertEqual(measure.count_failed(s), 1)
        with self.assertRaises(ValueError):
            measure.parse_spans(data[:-1])


if __name__ == "__main__":
    unittest.main()
