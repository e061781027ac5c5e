"""Tests for the latency tracker, its adaptive deadline, and retry budget."""

import pytest

from repro.overload.deadline import (
    DEADLINE_CAP,
    DEADLINE_FLOOR,
    WARMUP,
    LatencyTracker,
    RetryBudget,
)


class TestLatencyTracker:
    def test_first_sample_initialises(self):
        tracker = LatencyTracker()
        tracker.observe(0.4)
        assert tracker.srtt == 0.4
        assert tracker.dev == 0.2
        assert tracker.samples == 1

    def test_ewma_converges_toward_steady_latency(self):
        tracker = LatencyTracker()
        for _ in range(100):
            tracker.observe(0.1)
        assert tracker.srtt == pytest.approx(0.1, abs=1e-6)
        assert tracker.dev == pytest.approx(0.0, abs=1e-3)

    def test_deviation_tracks_jitter(self):
        tracker = LatencyTracker()
        for i in range(50):
            tracker.observe(0.1 if i % 2 == 0 else 0.3)
        assert 0.05 < tracker.dev < 0.2

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            LatencyTracker().observe(-0.1)


class TestAdaptiveDeadline:
    def test_floor_during_warmup(self):
        tracker = LatencyTracker()
        for _ in range(WARMUP - 1):
            tracker.observe(10.0)
        assert tracker.deadline() == DEADLINE_FLOOR

    def test_tracks_observed_latency_after_warmup(self):
        tracker = LatencyTracker()
        for _ in range(20):
            tracker.observe(1.0)
        # Steady 1 s latency -> a deadline just above it, between the
        # floor and the cap.
        assert 1.0 < tracker.deadline() < 1.1

    def test_cap_clamps_runaway_estimates(self):
        tracker = LatencyTracker()
        for _ in range(WARMUP):
            tracker.observe(100.0)
        assert tracker.deadline() == DEADLINE_CAP


class TestRetryBudget:
    def test_cold_start_reserve(self):
        budget = RetryBudget(ratio=0.2, min_reserve=3)
        assert [budget.record_retry() for _ in range(4)] == [
            True, True, True, False
        ]
        assert budget.denied == 1

    def test_requests_earn_retries(self):
        budget = RetryBudget(ratio=0.5, window=50, min_reserve=0)
        assert not budget.record_retry()
        budget.record_request()
        budget.record_request()
        assert budget.record_retry()
        assert not budget.record_retry()

    def test_pool_capped_at_ratio_times_window(self):
        budget = RetryBudget(ratio=0.1, window=10, min_reserve=0)
        for _ in range(1000):
            budget.record_request()
        assert [budget.record_retry() for _ in range(2)] == [True, False]

    def test_counters(self):
        budget = RetryBudget(ratio=0.2, window=50, min_reserve=1)
        budget.record_request()
        budget.record_retry()
        budget.record_retry()
        assert (budget.requests, budget.retries, budget.denied) == (1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=1.5)
        with pytest.raises(ValueError):
            RetryBudget(window=0)
        with pytest.raises(ValueError):
            RetryBudget(min_reserve=-1)
