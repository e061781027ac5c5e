"""How many SHA-256 compressions the reference substrate runs, pinned.

The from-scratch backend spends almost all of a data message's time in
``sha256._compress``.  Its speed-ups make each block cheaper; none of
them may change how many blocks are hashed.  These tests count the
calls of the one kernel and pin them: by formula for an HMAC, exactly
for a ratchet step and for one data message through a relay.
"""

import pytest

from repro.attacks.base import build_data
from repro.crypto import sha256
from repro.crypto.provider import using_provider
from repro.dataplane.ratchet import SenderState


class _Count:
    n = 0


@pytest.fixture
def compressions(monkeypatch):
    """Counts every ``_compress`` call (``SHA256`` looks the kernel up
    as a module global on each block)."""
    count = _Count()
    kernel = sha256._compress

    def counted(state, block):
        count.n += 1
        return kernel(state, block)

    monkeypatch.setattr(sha256, "_compress", counted)
    return count


@pytest.fixture
def reference():
    with using_provider("reference") as provider:
        yield provider


def _blocks(n: int) -> int:
    """Blocks SHA-256 compresses for ``n`` bytes after a whole-block
    prefix: the bytes, ``0x80`` and the 8-byte length, in 64s."""
    return (n + 9 + 63) // 64


LENGTHS = (0, 1, 55, 56, 63, 64, 119, 120, 300, 1000)


@pytest.mark.parametrize("n", LENGTHS)
def test_one_shot_hmac(reference, compressions, n):
    """Keying (``K ⊕ ipad``, ``K ⊕ opad``: one block each), the inner
    hash over a block-aligned prefix, one outer block for the digest."""
    reference.hmac_sha256(bytes(32), bytes(n))
    assert compressions.n == 2 + _blocks(n) + 1


def test_one_shot_hmac_long_key(reference, compressions):
    """A key longer than a block is hashed first (RFC 2104)."""
    reference.hmac_sha256(bytes(100), b"data")
    assert compressions.n == _blocks(100) + 2 + _blocks(4) + 1


def test_tag_under_declared_long_lived_key(reference, compressions):
    """The first tag keys the kept state; later tags skip the two
    keying blocks.  A tag covers ``len(ad) || ad || nonce || ct``."""
    mac_key, nonce, ad = bytes(range(32)), bytes(8), bytes(20)
    ciphertext = bytes(300)
    n = 4 + len(ad) + len(nonce) + len(ciphertext)
    reference._tag(mac_key, nonce, ciphertext, ad, reuse=True)
    assert compressions.n == 2 + _blocks(n) + 1
    compressions.n = 0
    reference._tag(mac_key, nonce, ciphertext, ad, reuse=True)
    assert compressions.n == _blocks(n) + 1


def test_ratchet_step(reference, compressions):
    """Three labels under one keying: 2 + 3 * (inner + outer)."""
    SenderState(bytes(32)).next_key()
    assert compressions.n == 8


def test_data_message_in_a_four_member_group(reference, compressions):
    """One message after a warm-up message: sealed once, relayed,
    opened by three members, ACKed by three.  The count is the one the
    word-at-a-time kernel had before the doubled-word form replaced it."""
    scenario = build_data(["alice", "bob", "carol", "dave"], seed=3)
    net = scenario.net
    alice = scenario.members["alice"]
    net.post_all(alice.send_data(b"warm-up"))
    net.run()
    compressions.n = 0
    net.post_all(alice.send_data(b"x" * 256))
    net.run()
    for peer in ("bob", "carol", "dave"):
        assert scenario.members[peer].inbox[-1][2] == b"x" * 256
    assert compressions.n == 86

