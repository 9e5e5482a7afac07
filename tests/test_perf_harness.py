"""Tests for the throughput benchmark's regression-gate logic.

The benchmark itself (``benchmarks/bench_throughput.py``) is exercised
end-to-end by CI's benchmark smoke job on a quick grid; these tests pin
the *gate semantics* — host normalization, the 20% threshold on the cold
and the warm path alike, and grid mismatches — without paying for a
campaign.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_throughput as bt  # noqa: E402


def _e2e(tests_per_s: float, calibration_s: float) -> dict:
    return {"wall_s": 1.0, "tests_per_s": tests_per_s,
            "normalized": round(tests_per_s * calibration_s, 4)}


def _profile(tests_per_s: float, calibration_s: float,
             n_programs: int = 10, cold_tests_per_s: float | None = None
             ) -> dict:
    """A profile whose cold path runs at ``cold_tests_per_s`` (default:
    a tenth of the warm throughput)."""
    if cold_tests_per_s is None:
        cold_tests_per_s = tests_per_s / 10
    return {
        "grid": {"n_programs": n_programs, "inputs_per_program": 3,
                 "compilers": ["gcc", "clang", "intel"],
                 "total_runs": n_programs * 9, "seed": bt.SEED},
        "calibration_s": calibration_s,
        "stages": {},
        "end_to_end_cold": _e2e(cold_tests_per_s, calibration_s),
        "end_to_end": _e2e(tests_per_s, calibration_s),
        "native_values": True,
    }


class TestRegressionGate:
    def test_equal_throughput_passes(self):
        ok, msg = bt.check_regression(_profile(10.0, 0.1),
                                      _profile(10.0, 0.1))
        assert ok, msg

    def test_small_dip_within_threshold_passes(self):
        ok, _ = bt.check_regression(_profile(8.5, 0.1), _profile(10.0, 0.1))
        assert ok  # -15% < 20% threshold

    def test_large_regression_fails(self):
        ok, msg = bt.check_regression(_profile(7.0, 0.1),
                                      _profile(10.0, 0.1))
        assert not ok
        assert "floor" in msg

    def test_slower_host_is_normalized_away(self):
        # half the absolute throughput on a host whose calibration spin
        # takes twice as long: not a regression
        ok, _ = bt.check_regression(_profile(5.0, 0.2), _profile(10.0, 0.1))
        assert ok

    def test_hot_path_regression_on_slow_host_still_fails(self):
        # 2x-slower host AND a real 40% hot-path regression on top
        ok, _ = bt.check_regression(_profile(3.0, 0.2), _profile(10.0, 0.1))
        assert not ok

    def test_grid_mismatch_rejected(self):
        ok, msg = bt.check_regression(_profile(10.0, 0.1),
                                      _profile(10.0, 0.1, n_programs=50))
        assert not ok
        assert "grid mismatch" in msg

    def test_threshold_is_twenty_percent(self):
        base = _profile(10.0, 0.1)
        assert bt.check_regression(_profile(8.01, 0.1), base)[0]
        assert not bt.check_regression(_profile(7.99, 0.1), base)[0]

    def test_bad_baseline_rejected(self):
        bad = _profile(10.0, 0.1)
        bad["end_to_end"]["normalized"] = 0.0
        ok, msg = bt.check_regression(_profile(10.0, 0.1), bad)
        assert not ok

    def test_cold_path_regression_fails(self):
        base = _profile(10.0, 0.1, cold_tests_per_s=2.0)
        ok, msg = bt.check_regression(
            _profile(10.0, 0.1, cold_tests_per_s=1.5), base)
        assert not ok
        assert "cold" in msg
        assert bt.check_regression(
            _profile(10.0, 0.1, cold_tests_per_s=1.7), base)[0]

    def test_baseline_without_a_cold_entry_rejected(self):
        old = _profile(10.0, 0.1)
        del old["end_to_end_cold"]
        ok, msg = bt.check_regression(_profile(10.0, 0.1), old)
        assert not ok
        assert "end_to_end_cold" in msg


class TestCalibration:
    def test_calibration_is_positive_and_repeatable_order(self):
        a, b = bt.calibrate(), bt.calibrate()
        assert a > 0 and b > 0
        # same host moments apart: within a loose factor (catches units
        # bugs, not scheduler noise)
        assert 0.2 < a / b < 5.0


class TestCheckedInBaseline:
    """The repo-root BENCH_throughput.json must stay loadable and sane —
    it is the gate's reference point."""

    def test_baseline_document_shape(self):
        doc = json.loads((BENCH_DIR.parent / "BENCH_throughput.json")
                         .read_text())
        assert doc["bench"] == "throughput"
        for profile in ("full", "quick"):
            entry = doc[profile]
            for key in ("end_to_end_cold", "end_to_end"):
                assert entry[key]["tests_per_s"] > 0
                assert entry[key]["normalized"] > 0
            assert entry["calibration_s"] > 0
            stages = entry["stages"]
            for key in ("generate_s", "lower_cold_s", "lower_warm_s",
                        "execute_s", "verdict_s"):
                assert key in stages
            # the warm lowering pass must be cheaper than the cold one
            # (that is the KernelCache earning its keep)
            assert stages["lower_warm_s"] <= stages["lower_cold_s"]

    def test_full_profile_holds_the_issue_target(self):
        """ISSUE 3 acceptance: >= 3x the PR-1 serial baseline of 3.29
        tests/s on the reference grid, recorded in the checked-in file."""
        doc = json.loads((BENCH_DIR.parent / "BENCH_throughput.json")
                         .read_text())
        assert doc["full"]["grid"]["n_programs"] == 50
        assert doc["full"]["end_to_end"]["tests_per_s"] >= 3 * 3.29
