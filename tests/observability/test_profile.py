"""Tests for the clock-injected phase profiler."""

from itertools import cycle

import pytest

from repro.observability.profile import PhaseProfiler
from repro.telemetry.events import EventBus
from repro.util.clock import TickClock

from tests.shard_world import ShardWorld


def ticked():
    """A profiler on its own deterministic clock (1s per reading)."""
    return PhaseProfiler(TickClock())


class TestTiming:
    def test_flat_phase_costs_one_tick(self):
        prof = ticked()
        tok = prof.begin("seal")
        assert prof.end(tok) == 1.0
        assert prof.phases() == {
            "seal": {"calls": 1, "frames": 1, "cumulative": 1.0, "self": 1.0},
        }

    def test_nested_phases_split_cumulative_and_self(self):
        prof = ticked()
        outer = prof.begin("demux")        # t=0
        inner = prof.begin("wal.append")   # t=1
        prof.end(inner)                    # t=2 -> 1s, child of demux
        prof.end(outer)                    # t=3 -> 3s cumulative
        phases = prof.phases()
        assert phases["demux"] == {
            "calls": 1, "frames": 1, "cumulative": 3.0, "self": 2.0,
        }
        assert phases["demux/wal.append"] == {
            "calls": 1, "frames": 1, "cumulative": 1.0, "self": 1.0,
        }
        assert prof.total() == 3.0  # root phases only

    def test_repeated_phases_accumulate(self):
        prof = ticked()
        for _ in range(3):
            prof.end(prof.begin("open"))
        assert prof.phases()["open"]["calls"] == 3
        assert prof.phases()["open"]["frames"] == 3
        assert prof.phases()["open"]["cumulative"] == 3.0

    def test_batch_phase_counts_its_frames_not_extra_ticks(self):
        prof = ticked()
        outer = prof.begin("demux")
        prof.end(prof.begin("open"))
        assert prof.end(outer, frames=5) == 3.0  # same ticks as frames=1
        prof.end(prof.begin("demux"), frames=0)  # an empty pump
        assert prof.phases()["demux"] == {
            "calls": 2, "frames": 5, "cumulative": 4.0, "self": 3.0,
        }
        assert prof.phases()["demux/open"]["frames"] == 1

    def test_same_name_at_different_depths_is_two_paths(self):
        prof = ticked()
        prof.end(prof.begin("multicast"))
        outer = prof.begin("demux")
        prof.end(prof.begin("multicast"))
        prof.end(outer)
        assert set(prof.phases()) == {
            "multicast", "demux", "demux/multicast",
        }


class TestDiscipline:
    def test_out_of_order_end_raises(self):
        prof = ticked()
        outer = prof.begin("demux")
        prof.begin("certify")
        with pytest.raises(ValueError, match="out of order"):
            prof.end(outer)

    def test_end_without_begin_raises(self):
        prof = ticked()
        tok = prof.begin("seal")
        prof.end(tok)
        with pytest.raises(ValueError, match="out of order"):
            prof.end(tok)

    def test_open_phases_reflect_the_stack(self):
        prof = ticked()
        prof.begin("demux")
        prof.begin("certify")
        assert prof.open_phases == ["demux", "certify"]

    def test_profiler_is_always_truthy(self):
        # The hot-path hooks test the *binding* (`if prof:`), so an
        # empty profiler must still be truthy.
        assert bool(PhaseProfiler())


class TestViews:
    def test_render_empty(self):
        assert PhaseProfiler().render() == "profile: no phases recorded"

    def test_render_indents_children_under_parents(self):
        prof = ticked()
        outer = prof.begin("demux")
        prof.end(prof.begin("wal.append"))
        prof.end(outer)
        lines = prof.render().splitlines()
        assert lines[0].startswith("phase")
        assert any(line.startswith("demux ") for line in lines)
        assert any(line.startswith("  wal.append") for line in lines)

    def test_render_has_a_frames_column(self):
        prof = ticked()
        prof.end(prof.begin("demux"), frames=12)
        header, row = prof.render().splitlines()
        assert header.split()[:3] == ["phase", "calls", "frames"]
        assert row.split()[:3] == ["demux", "1", "12"]

    def test_as_dict_sorted_and_json_ready(self):
        prof = ticked()
        prof.end(prof.begin("seal"))
        prof.end(prof.begin("open"))
        payload = prof.as_dict()
        assert payload["total"] == 2.0
        assert list(payload["phases"]) == ["open", "seal"]
        assert payload["phases"]["seal"]["frames"] == 1


class TestNeutrality:
    """Binding a profiler changes nothing but the profile: the same
    pumped traffic on twin shards, one with a profiler bound to shard,
    leaders, journals and members, one with none."""

    SCRIPT = [
        ("join", g, u, u > 0) for u in range(3) for g in range(2)
    ] + [
        ("hold", 0, 0, False), ("leave", 0, 2, True), ("join", 0, 2, True),
        ("app", 0, 0, False), ("release", 0, 0, False),
        ("forged", 0, 1, False), ("forged", 1, 1, False),
        ("data", 1, 2, False), ("stray", 1, 0, False), ("app", 1, 2, True),
    ]

    def pumped_world(self, profiler):
        bus = EventBus(TickClock())
        world = ShardWorld(23, pumped=True, telemetry=bus)
        if profiler is not None:
            world.bind_profiler(profiler)
        budgets = cycle([64])
        with bus.capture() as records:
            world.play(
                self.SCRIPT, lambda chunk: world.serve_pumped(chunk, budgets)
            )
        return world, records

    def test_bound_profiler_changes_no_byte_event_stat_or_record(self):
        profiler = ticked()
        plain, plain_records = self.pumped_world(None)
        bound, bound_records = self.pumped_world(profiler)

        assert bound.observed() == plain.observed()
        assert bound_records == plain_records  # bus events *and* positions
        assert bound.journal_bytes() == plain.journal_bytes()

        # ... and the profile describes that very run: one demux phase
        # per pump, covering every frame the shard took in.
        demux = profiler.phases()["demux"]
        assert demux["calls"] == bound.pumps
        assert demux["frames"] == bound.shard.stats.frames_in > demux["calls"]
        assert {"demux/open", "demux/multicast", "demux/wal.append"} <= set(
            profiler.phases()
        )
        assert profiler.open_phases == []
