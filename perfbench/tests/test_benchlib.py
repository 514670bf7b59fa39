"""Self-tests for the benchmark's helpers (perfbench/benchlib.py).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import itertools
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import benchlib  # noqa: E402

MIX = {"step": 90, "result": 5, "snapshot": 5}


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))          # 1..100
        pct, value = benchlib.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_percentile_grows_with_sample_count(self):
        self.assertEqual(benchlib.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(benchlib.tail(list(range(10000)))[0], 99.9)
        self.assertAlmostEqual(benchlib.tail(list(range(11)))[0], 100 / 11)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0] * 5
        self.assertEqual(benchlib.tail(values),
                         benchlib.tail(sorted(values)))

    def test_ties_still_leave_ten_samples_at_or_above(self):
        values = [1.0] * 50 + [2.0] * 20
        pct, value = benchlib.tail(values)
        self.assertEqual(value, 2.0)
        self.assertAlmostEqual(pct, 100 * 60 / 70)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail(list(range(10)))

    def test_percentile_interpolates(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(benchlib.percentile([3, 1, 2], 0), 1)
        self.assertEqual(benchlib.percentile([3, 1, 2], 100), 3)
        self.assertEqual(benchlib.median([7]), 7)


class AccountingTest(unittest.TestCase):
    def test_counts_and_ratio(self):
        acct = benchlib.Accounting()
        acct.attempt(8)
        acct.fail("request 3", "JSON-RPC error")
        acct.fail("request 5", "digest differs")
        self.assertEqual(acct.attempted, 8)
        self.assertEqual(acct.failed, 2)
        self.assertAlmostEqual(acct.success_ratio, 0.75)

    def test_an_operation_fails_once_however_many_checks_it_misses(self):
        acct = benchlib.Accounting()
        acct.attempt()
        acct.fail("edit 0", "expected outcome: gain")
        acct.fail("edit 0", "dataset digest differs")
        self.assertEqual(acct.failed, 1)
        self.assertEqual(acct.success_ratio, 0.0)
        self.assertEqual(acct.reasons(),
                         ["edit 0: expected outcome: gain; "
                          "dataset digest differs"])

    def test_clean_run(self):
        acct = benchlib.Accounting()
        acct.attempt(3)
        self.assertEqual(acct.failed, 0)
        self.assertEqual(acct.success_ratio, 1.0)
        self.assertEqual(acct.reasons(), [])

    def test_nothing_attempted_is_not_success(self):
        self.assertEqual(benchlib.Accounting().success_ratio, 0.0)


class RequestMixStreamTest(unittest.TestCase):
    def draws(self, seed, n=2000):
        return list(itertools.islice(
            benchlib.request_mix_stream(seed, 6, MIX), n))

    def test_same_seed_reproduces_exactly(self):
        self.assertEqual(self.draws(11), self.draws(11))

    def test_pinned_prefix(self):
        # A change to the generator changes every workload's traffic; it
        # must show up here, not as an unexplained shift in the numbers.
        self.assertEqual(self.draws(7, 12), [
            (0, "result"), (4, "step"), (1, "step"), (1, "step"),
            (0, "step"), (0, "step"), (4, "step"), (4, "step"),
            (4, "step"), (2, "step"), (2, "step"), (0, "step")])

    def test_different_seeds_differ(self):
        self.assertNotEqual(self.draws(11, 50), self.draws(12, 50))

    def test_shape_is_zipf_and_the_mix(self):
        draws = self.draws(3, 20000)
        counts = [sum(1 for s, _ in draws if s == slot) for slot in range(6)]
        self.assertEqual(counts, sorted(counts, reverse=True))
        # Zipf(1): slot 0 carries 1 / H_6 = 40.8% of the picks.
        self.assertAlmostEqual(counts[0] / len(draws), 1 / 2.45, delta=0.02)
        steps = sum(1 for _, m in draws if m == "step")
        self.assertAlmostEqual(steps / len(draws), 0.90, delta=0.01)

    def test_derive_seed_matches_the_library(self):
        # Values of frote::derive_seed (util/rng.hpp) for the same inputs.
        self.assertEqual(benchlib.derive_seed(42, 0), 2949826092126892291)
        self.assertEqual(benchlib.derive_seed(1, 3), 8195237237126968761)


class FingerprintTest(unittest.TestCase):
    def fp(self, **changes):
        base = {"nproc": 4, "cpu_model": "x", "cpu_mhz": 2100.0,
                "compiler": "g++ 12", "build_type": "Release",
                "machine": "x86_64", "source_rev": "a",
                "threads": {"FROTE_NUM_THREADS": "1"}}
        base.update(changes)
        return base

    def test_revision_and_clock_reading_do_not_block_a_comparison(self):
        self.assertEqual(benchlib.fingerprint_mismatch(
            self.fp(), self.fp(source_rev="b", cpu_mhz=2400.0)), [])

    def test_host_differences_are_named(self):
        self.assertEqual(benchlib.fingerprint_mismatch(
            self.fp(), self.fp(nproc=1, build_type="Debug")),
            ["nproc", "build_type"])


if __name__ == "__main__":
    unittest.main()
