#!/usr/bin/env python3
"""Checks bench_compare.py's parent-mode row verdicts on fabricated rounds.

Run from anywhere: python3 scripts/test_bench_compare.py
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the scripts
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_compare import row_status  # noqa: E402

TOLERANCE = 0.35
QUIET = [100.0, 102.0, 101.0]  # spread x1.02
NOISY = [100.0, 180.0, 140.0]  # spread x1.80


class RowStatusTest(unittest.TestCase):
    def test_within_tolerance_is_ok_whatever_the_spread(self):
        self.assertEqual(row_status(1.20, NOISY, NOISY, TOLERANCE), "ok")

    def test_quiet_sides_fail_plainly(self):
        self.assertEqual(row_status(1.50, QUIET, QUIET, TOLERANCE),
                         "REGRESSION")

    def test_noisy_parent_is_labelled(self):
        self.assertEqual(row_status(1.50, NOISY, QUIET, TOLERANCE),
                         "REGRESSION noisy")

    def test_quiet_parent_noisy_change_is_labelled(self):
        self.assertEqual(row_status(1.50, QUIET, NOISY, TOLERANCE),
                         "REGRESSION noisy")


if __name__ == "__main__":
    unittest.main()
