"""Tests for the virtual-time event loop — the one engine every
seeded scenario (soaks, churn, the latency study) runs on."""

import asyncio
import time

import pytest

from repro.chaos.loop import LoopClock, run_virtual


class TestVirtualTime:
    def test_timers_fire_in_time_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            order = []
            for when in (2.0, 1.0, 3.0):
                loop.call_at(when, lambda when=when: order.append(
                    (when, loop.time())
                ))
            await asyncio.sleep(3.0)
            return order, loop.time()

        order, now = run_virtual(scenario())
        assert order == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert now == 3.0

    def test_call_later_is_relative_to_virtual_now(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LoopClock(loop)
            stamps = []
            loop.call_at(1.0, lambda: loop.call_later(
                0.5, lambda: stamps.append(clock.now())
            ))
            await asyncio.sleep(2.0)
            return stamps

        assert run_virtual(scenario()) == [1.5]

    def test_timer_scheduled_for_now_runs_after_its_tied_peers(self):
        """A callback scheduling at the *current* instant runs in the
        same instant, after every callback already due at it."""
        async def scenario():
            loop = asyncio.get_running_loop()
            order = []

            def first():
                order.append("first")
                loop.call_at(1.0, order.append, "spawned")

            loop.call_at(1.0, first)
            loop.call_at(1.0, order.append, "second")
            await asyncio.sleep(2.0)
            return order

        assert run_virtual(scenario()) == ["first", "second", "spawned"]

    def test_sleep_stops_at_its_deadline(self):
        """Awaiting a deadline leaves later timers pending; they fire,
        in time order with newer arrivals, once time is allowed on."""
        async def scenario():
            loop = asyncio.get_running_loop()
            fired = []
            loop.call_at(1.0, fired.append, 1)
            loop.call_at(10.0, fired.append, 10)
            await asyncio.sleep(5.0)
            assert (fired, loop.time()) == ([1], 5.0)
            loop.call_at(6.0, fired.append, 6)
            await asyncio.sleep(5.0)
            return fired

        assert run_virtual(scenario()) == [1, 6, 10]

    def test_cancelled_timer_never_fires_and_never_holds_the_clock(self):
        """The timer-cancel idiom (watchdogs disarm themselves): the
        cancelled callback must not run, and the loop must jump past
        it rather than wait out the gap behind it in wall time."""
        async def scenario():
            loop = asyncio.get_running_loop()
            fired = []
            watchdog = loop.call_at(5.0, fired.append, "watchdog")
            loop.call_at(1.0, watchdog.cancel)
            await asyncio.sleep(3600.0)
            return fired, loop.time()

        started = time.monotonic()
        assert run_virtual(scenario()) == ([], 3600.0)
        assert time.monotonic() - started < 5.0

    def test_deterministic_replay(self):
        """Identical schedules drain identically, run to run."""
        async def scenario():
            loop = asyncio.get_running_loop()
            order = []
            for i, when in enumerate([2.0, 1.0, 2.0, 1.0, 3.0]):
                loop.call_at(when, order.append, (when, i))
            await asyncio.sleep(3.0)
            return order

        assert run_virtual(scenario()) == run_virtual(scenario())


class TestBackgroundTasks:
    """A task nobody awaits is half of the scenario: if it dies, the run
    must not report success on what the other half saw."""

    def test_a_task_that_raises_fails_the_run(self):
        async def deaf_receiver():
            raise ValueError("attacker input reached a handler")

        async def scenario():
            asyncio.get_running_loop().create_task(deaf_receiver())
            await asyncio.sleep(1.0)
            return "looked fine"

        with pytest.raises(RuntimeError, match="1 background task") as info:
            run_virtual(scenario())
        assert isinstance(info.value.__cause__, ValueError)

    def test_a_task_that_is_cancelled_does_not(self):
        async def scenario():
            task = asyncio.get_running_loop().create_task(asyncio.sleep(60))
            await asyncio.sleep(1.0)
            task.cancel()
            return "fine"

        assert run_virtual(scenario()) == "fine"

    def test_a_task_still_pending_at_exit_does_not(self):
        async def scenario():
            asyncio.get_running_loop().create_task(asyncio.sleep(60))
            return "fine"

        assert run_virtual(scenario()) == "fine"
