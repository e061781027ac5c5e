"""Property: a shard serves a pumped batch exactly as it serves the
same frames one ``handle`` at a time.

``ShardHost.handle`` is the one-frame flush and ``pump`` hands whatever
the mailbox drained to ``handle_many``, so how the intake happens to cut
the traffic into flushes may change two things only: where the journal's
record boundaries fall, and which relayed ``DATA_ACK`` items share a
downlink bundle (one frame per origin per flush, by design — the worlds
are compared with their bundles taken apart, see
:meth:`tests.shard_world.ShardWorld.observed`).

Method (see :mod:`tests.shard_world`): a hypothesis script drives live
members of two interleaved groups against shard A, which is given every
chunk one frame per ``handle`` call in mailbox service order; hypothesis
also decides after which steps the wire is run idle, i.e. where the
chunks are cut.  The recorded chunks are then fed to shard B on the same
seed through ``enqueue`` + ``pump`` with hypothesis-chosen budgets.  The
script mixes joins and leaves (a rekey each, mid-tape), runs of legacy
``APP_DATA`` — with a forged MAC in the middle of a run, and frames held
across a rekey so they arrive one epoch stale — blind ``DATA_MSG`` and
well-formed ``DATA_ACK`` relays, a foreign group id, a malformed wrapper, a bare frame, and a redirect
after ``quiesce``.
"""

from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.reliable import unbundle_control
from repro.wire.labels import Label
from repro.wire.message import Envelope

from tests.shard_world import GROUPS, OPS, USERS_PER_GROUP, ShardWorld

steps = st.tuples(
    st.sampled_from(OPS),
    st.integers(0, len(GROUPS) - 1),
    st.integers(0, USERS_PER_GROUP - 1),
    st.booleans(),
)
#: Everyone joins first (unsettled steps overlap the handshakes), so the
#: random tail has groups to work on.
everyone = [
    ("join", g, u, settled)
    for u, settled in zip(range(USERS_PER_GROUP), (False, True, True))
    for g in range(len(GROUPS))
]
scripts = st.lists(steps, min_size=1, max_size=14).map(everyone.__add__)
budget_plans = st.lists(st.integers(1, 9), min_size=1, max_size=6)


def twins(script, budgets, seed):
    """``(A, B)``: A played ``script`` live, one ``handle`` per frame;
    B was fed A's tape through ``enqueue`` + ``pump(budget)``."""
    one_by_one = ShardWorld(seed)
    one_by_one.play(script, one_by_one.serve_in_turn)
    pumped = ShardWorld(seed, pumped=True)
    plan = cycle(budgets)
    pumped.replay(
        one_by_one.tape, lambda chunk: pumped.serve_pumped(chunk, plan)
    )
    return one_by_one, pumped


@given(scripts, budget_plans, st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_pumped_shard_equals_frame_by_frame_shard(script, budgets, seed):
    one_by_one, pumped = twins(script, budgets, seed)
    assert pumped.observed() == one_by_one.observed()


def test_the_tape_reaches_what_the_batch_open_used_to_serve():
    """One fixed script, checked for *coverage*: the equivalence above
    is only worth something if the tape really carries stale, forged
    and misrouted frames inside multi-frame runs."""
    script = everyone + [
        ("hold", 0, 0, False),
        ("leave", 0, 2, True),      # eviction: the held frame must die
        ("release", 0, 0, False),
        ("hold", 0, 1, False),
        ("hold", 1, 0, False),
        ("join", 0, 2, True),       # non-eviction rekey: grace applies
        ("app", 0, 0, False),
        ("release", 0, 0, False),
        ("forged", 0, 1, False),
        ("forged", 1, 1, False),
        ("data", 1, 2, False),
        ("data", 1, 2, False),      # a second ACK for the same origin
        ("stray", 1, 0, False),
        ("app", 1, 2, True),
    ]
    one_by_one, pumped = twins(script, [64], seed=11)
    assert pumped.observed() == one_by_one.observed()

    # The ACKs were relayed, not rejected: two bundles of one where
    # each frame was its own flush, one bundle of two where the pump
    # served both in one — equal only once taken apart.
    def ack_bundles(world):
        frames = [Envelope.from_bytes(raw) for raw in world.out]
        return [len(unbundle_control(f.body)) for f in frames
                if f.label is Label.DATA_ACK]
    assert ack_bundles(one_by_one) == [1, 1]
    assert ack_bundles(pumped) == [2]
    (items,) = pumped.observed()["control"].values()
    assert len(items) == 2

    grp_a = pumped.shard.leader(GROUPS[0]).stats
    assert grp_a.grace_resealed == 1
    assert grp_a.rejected >= 2          # evicted-epoch frame + forged MAC
    assert grp_a.rekeys >= 5 and grp_a.leaves == 1
    stats = pumped.shard.stats
    assert stats.redirected >= 1 and stats.foreign_rejected == 1
    assert stats.malformed == 2
    # The longest chunk went through one pump as interleaved runs.
    assert pumped.pumps < stats.frames_in
    assert max(len(item) for item in one_by_one.tape
               if isinstance(item, list)) >= 12
