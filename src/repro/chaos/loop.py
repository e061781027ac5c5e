"""A virtual-time asyncio event loop.

Chaos scenarios are full asyncio programs (receive loops, watchdogs,
retransmission timers, backoff sleeps) whose interesting behaviour is
*temporal* — heartbeat timeouts, partition heals, crash/restore races.
Running them against the wall clock would be slow and flaky; running
them here is exact: whenever no callback is ready, the loop jumps its
clock straight to the next scheduled timer.  `loop.time()` is virtual
seconds from 0, every `asyncio.sleep`/`wait_for`/`call_later` works
unmodified, and a 60-"second" soak completes in milliseconds of wall
time, fully deterministically.

The trade-off: real IO (sockets, subprocesses) must not be awaited on
this loop — a virtual loop never waits, so a socket that is not yet
readable looks like one that never will be.  The in-memory network
(:mod:`repro.net.memnet`) is queue-based and therefore safe.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
from collections.abc import Coroutine

from repro.util.clock import Clock


class VirtualTimeEventLoop(asyncio.SelectorEventLoop):
    """SelectorEventLoop whose clock jumps to the next timer when idle."""

    def __init__(self) -> None:
        super().__init__(selectors.SelectSelector())
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def _run_once(self) -> None:
        # Nothing ready but timers pending: advance virtual time to the
        # earliest one so the base implementation fires it immediately
        # (its select() timeout computes to zero — no wall sleep).
        if not self._ready:
            # A cancelled timer must not hold the clock: the base loop
            # would drop it and then really sleep until the next live one.
            while self._scheduled and self._scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                heapq.heappop(self._scheduled)._scheduled = False
            if self._scheduled:
                self._virtual_now = max(
                    self._virtual_now, self._scheduled[0]._when
                )
        super()._run_once()


class LoopClock(Clock):
    """A :class:`Clock` that reads an event loop's (virtual) time.

    Hands the sans-IO cores (e.g. the leader's periodic-rekey logic)
    the same timeline their asyncio drivers run on.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def now(self) -> float:
        return self._loop.time()


def run_virtual(main: Coroutine):
    """``asyncio.run`` on a fresh :class:`VirtualTimeEventLoop`.

    Same cleanup discipline as ``asyncio.run``: on exit, outstanding
    tasks are cancelled and async generators shut down.  Stricter in one
    way: a background task that died with an exception nobody retrieved
    fails the run once ``main`` has returned, instead of taking its half
    of the scenario with it in silence.
    """
    loop = VirtualTimeEventLoop()
    died: list[BaseException] = []

    def on_error(loop, context):
        if "exception" in context:
            died.append(context["exception"])
        else:
            loop.default_exception_handler(context)

    loop.set_exception_handler(on_error)
    try:
        asyncio.set_event_loop(loop)
        result = loop.run_until_complete(main)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
    if died:
        raise RuntimeError(
            f"{len(died)} background task(s) died under run_virtual"
        ) from died[0]
    return result


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    tasks = asyncio.all_tasks(loop)
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
