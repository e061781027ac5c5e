"""``tools/reach.py``: its def index, its probe and its allow-list.

The full check runs every shipped entry point (about half a minute) and
runs in CI; these tests run none of them.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import reach  # noqa: E402  (needs the path above)

SYNTHETIC = '''\
import functools

from repro.wire.codec import fixed_layout


def _generic(data):
    return ("generic", data)


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x


@fixed_layout(_generic)
def fast(data):
    return None if data == b"bad" else ("fast", data)


def outer():
    def inner():
        return 1
    return inner()


class Thing:
    @property
    def prop(self):
        return 2


async def coro():
    return 3


def called():
    return 4


def uncalled():
    return 5
'''


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """The synthetic package's index and its imported module."""
    root = tmp_path_factory.mktemp("synthetic")
    path = root / "mod.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("reach_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return reach.index(root), module


@pytest.fixture(scope="module")
def shipped():
    """The index of ``src/repro``."""
    return reach.index()


def _line(text: str) -> int:
    return SYNTHETIC.splitlines().index(text) + 1


class TestIndex:
    def test_each_def_once_at_its_def_line(self, synthetic):
        defs, _ = synthetic
        by_id = {d.id: d for d in defs.values()}
        assert len(by_id) == len(defs) == 9
        for ident, line in {
            "mod.py::decorated": "def decorated(x):",
            "mod.py::fast": "def fast(data):",
            "mod.py::outer.inner": "    def inner():",
            "mod.py::Thing.prop": "    def prop(self):",
            "mod.py::coro": "async def coro():",
        }.items():
            assert by_id[ident].line == _line(line)

    def test_keys_match_the_code_objects(self, synthetic):
        """A decorated def's code object starts at its first decorator."""
        defs, module = synthetic
        codes = {
            "mod.py::decorated": module.decorated.__wrapped__.__code__,
            "mod.py::fast": module.fast.fast.__code__,
            "mod.py::Thing.prop": module.Thing.prop.fget.__code__,
            "mod.py::coro": module.coro.__code__,
            "mod.py::outer": module.outer.__code__,
        }
        for ident, code in codes.items():
            hit = defs[os.path.realpath(code.co_filename), code.co_firstlineno]
            assert (hit.id, hit.name) == (ident, code.co_name)
        fast = defs[os.path.realpath(module.__file__),
                    _line("@fixed_layout(_generic)")]
        assert fast.line == _line("def fast(data):")

    def test_the_shipped_tree_indexes_every_def_once(self, shipped):
        """Ids are qualified names: two defs of one name in one scope
        would make an allow-list entry ambiguous."""
        ids = [d.id for d in shipped.values()]
        assert len(ids) == len(set(ids)) > 1000


class TestProbe:
    def test_reports_exactly_the_uncalled_function(self, synthetic):
        defs, module = synthetic
        with reach.probe() as seen:
            module.decorated(1)
            module.fast(b"bad")  # falls back to the generic parse
            module.outer()
            module.Thing().prop
            with pytest.raises(StopIteration):
                module.coro().send(None)
            module.called()
        hit = reach.reached(seen, defs)
        assert {d.id for d in defs.values()} - hit == {"mod.py::uncalled"}

    def test_equal_code_in_two_files_counts_for_both(self, tmp_path):
        """Code objects with the same name, line and body compare equal
        across files; the probe must not fold them into one."""
        for name in ("a", "b"):
            (tmp_path / f"{name}.py").write_text("def same():\n    return 1\n")
        defs = reach.index(tmp_path)
        same = []
        for name in ("a", "b"):
            spec = importlib.util.spec_from_file_location(
                f"reach_same_{name}", tmp_path / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            same.append(module.same)
        assert same[0].__code__ == same[1].__code__
        with reach.probe() as seen:
            for function in same:
                function()
        assert reach.reached(seen, defs) == {"a.py::same", "b.py::same"}


class TestAllowlist:
    def test_entries_resolve_and_carry_a_known_reason(self, shipped):
        entries = reach.load_allowlist()
        assert entries
        assert reach.allowlist_problems(
            entries, shipped, reach.bench_text(), reach.open_items()
        ) == []

    def test_test_seams_are_capped(self):
        seams = [e for e in reach.load_allowlist() if e[1] == "test-seam"]
        assert len(seams) <= reach.TEST_SEAM_CAP == 40

    def test_problems_are_named(self, shipped):
        entries = [
            ("util/clock.py::Clock.now", "abstract"),
            ("util/clock.py::Clock.now", "abstract"),
            ("util/clock.py::Clock.gone", "abstract"),
            ("util/clock.py::VirtualClock.advance", "unused"),
            ("cli.py::_HelpfulParser.error", "item 3"),
        ]
        problems = reach.allowlist_problems(entries, shipped, "", {1})
        assert problems == [
            "stale: util/clock.py::Clock.gone names no def",
            "util/clock.py::VirtualClock.advance: reason 'unused' is not "
            "one of abstract, error-path, reference, bench, test-seam or "
            "`item N`",
            "cli.py::_HelpfulParser.error: ROADMAP has no open item 3",
            "util/clock.py::Clock.now is listed 2 times",
        ]

    def test_bench_entry_nothing_names_is_stale(self, shipped):
        entry = [("storage/simdisk.py::SimDisk.delete", "bench")]
        assert reach.allowlist_problems(
            entry, shipped, "disk.delete()", set()
        ) == []
        assert reach.allowlist_problems(entry, shipped, "undelete", set()) == [
            "stale: storage/simdisk.py::SimDisk.delete is `bench` but no "
            "file under benchmarks/ names delete"
        ]

    def test_check_names_unlisted_and_reached_entries(self):
        entries = [("a.py::f", "abstract"), ("a.py::g", "abstract")]
        assert reach.check({"a.py::f", "a.py::h"},
                           {"a.py::f", "a.py::g", "a.py::h"}, entries) == [
            "unreached and not allow-listed: a.py::h",
            "stale: a.py::g is reached",
        ]
