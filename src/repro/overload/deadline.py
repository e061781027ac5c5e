"""Adaptive deadlines and retry budgets.

Fixed timeouts are wrong twice under overload: too short, and a merely
slow system is treated as dead (retry storms that deepen the overload);
too long, and a dead link ties up a recovery path for the full budget.
:class:`LatencyTracker` follows the classic RTO estimator (RFC 6298 /
Jacobson): an EWMA of the mean plus an EWMA of the deviation, giving a
deadline of ``srtt + DEADLINE_MULTIPLIER * dev`` clamped to
``[DEADLINE_FLOOR, DEADLINE_CAP]``.
It is pure arithmetic over caller-supplied samples — no clock, fully
deterministic.

:class:`RetryBudget` is the deposit/withdraw scheme from production RPC
stacks (Finagle's ``RetryBudget``): every *original* request deposits a
fraction of a retry token; every retry withdraws a whole one.  Steady
traffic earns a steady retry allowance; a correlated failure (dead
leader, partition) drains the budget after at most ``ratio`` of recent
traffic has been retried, converting a thundering retry herd into a
bounded, observable give-up.  A ``min_reserve`` floor keeps cold-start
retries (first reconnect of a quiet client) possible.

Neither paces retries: the caller's backoff decides *when* the next
attempt happens; the budget decides *whether* it happens; the deadline
decides *how long* it may run.
"""

from __future__ import annotations

#: RFC 6298's gains for the smoothed mean and for the deviation.
ALPHA = 0.125
BETA = 0.25
#: The deadline is ``srtt + DEADLINE_MULTIPLIER * dev`` clamped to
#: ``[DEADLINE_FLOOR, DEADLINE_CAP]`` seconds, and ``DEADLINE_FLOOR``
#: until ``WARMUP`` samples arrive: a fresh system has no business
#: guessing tight deadlines from one or two observations.
DEADLINE_MULTIPLIER = 4.0
DEADLINE_FLOOR = 0.25
DEADLINE_CAP = 30.0
WARMUP = 3


class LatencyTracker:
    """EWMA mean + deviation over operation latencies (seconds)."""

    __slots__ = ("srtt", "dev", "samples")

    def __init__(self) -> None:
        self.srtt = 0.0
        self.dev = 0.0
        self.samples = 0

    def observe(self, sample: float) -> None:
        """Fold one latency sample into the estimator."""
        if sample < 0:
            raise ValueError("latency samples must be >= 0")
        if self.samples == 0:
            self.srtt = sample
            self.dev = sample / 2.0
        else:
            err = sample - self.srtt
            self.srtt += ALPHA * err
            self.dev += BETA * (abs(err) - self.dev)
        self.samples += 1

    def deadline(self) -> float:
        """The deadline (seconds) for the next operation."""
        if self.samples < WARMUP:
            return DEADLINE_FLOOR
        raw = self.srtt + DEADLINE_MULTIPLIER * self.dev
        return min(DEADLINE_CAP, max(DEADLINE_FLOOR, raw))


class RetryBudget:
    """Deposit-per-request / withdraw-per-retry token budget.

    ``ratio`` is the long-run retries-per-request allowance; the token
    pool is capped at ``ratio * window`` so an idle-then-failing client
    cannot burst an unbounded hoard; ``min_reserve`` whole retries are
    always available even with zero deposits (cold start).
    """

    __slots__ = ("ratio", "window", "min_reserve", "_tokens",
                 "requests", "retries", "denied")

    def __init__(
        self,
        ratio: float = 0.2,
        window: int = 50,
        min_reserve: int = 3,
    ) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_reserve < 0:
            raise ValueError("min_reserve must be >= 0")
        self.ratio = ratio
        self.window = window
        self.min_reserve = min_reserve
        self._tokens = float(min_reserve)
        self.requests = 0
        self.retries = 0
        self.denied = 0

    def record_request(self) -> None:
        """One original (non-retry) operation: deposit ``ratio``."""
        self.requests += 1
        cap = max(self.min_reserve, self.ratio * self.window)
        self._tokens = min(cap, self._tokens + self.ratio)

    def record_retry(self) -> bool:
        """Withdraw one retry token; False when the budget is dry."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.retries += 1
            return True
        self.denied += 1
        return False


__all__ = ["LatencyTracker", "RetryBudget"]
