"""Retry backoff bounds."""

from __future__ import annotations

import random

from repro.serve.retry import RetryPolicy


class TestRetryPolicy:
    def test_delay_stays_within_the_jitter_window(self):
        policy = RetryPolicy(backoff_base_sec=0.1, backoff_cap_sec=1.0)
        rng = random.Random(42)
        for attempt in range(8):
            ceiling = min(1.0, 0.1 * (2 ** attempt))
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= ceiling

    def test_ceiling_grows_exponentially_then_caps(self):
        policy = RetryPolicy(backoff_base_sec=0.1, backoff_cap_sec=0.5)

        class _One:
            def random(self):
                return 1.0

        assert policy.delay(0, _One()) == 0.1
        assert policy.delay(1, _One()) == 0.2
        assert policy.delay(10, _One()) == 0.5  # capped
