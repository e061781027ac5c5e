"""Tests for the in-memory adversarial network."""

import asyncio

import pytest

from repro.exceptions import AddressInUse, ConnectionClosed
from repro.net.adversary import Adversary, Verdict
from repro.net.memnet import MemoryNetwork
from repro.wire.labels import Label
from repro.wire.message import Envelope


def env(sender="a", recipient="b", label=Label.APP_DATA, body=b"x"):
    return Envelope(label, sender, recipient, body)


def run(coro):
    return asyncio.run(coro)


class TestBasicDelivery:
    def test_send_recv(self):
        async def scenario():
            net = MemoryNetwork()
            a = await net.attach("a")
            b = await net.attach("b")
            await a.send(env())
            return await b.recv()

        assert run(scenario()).body == b"x"

    def test_fifo_per_recipient(self):
        async def scenario():
            net = MemoryNetwork()
            a = await net.attach("a")
            b = await net.attach("b")
            for i in range(5):
                await a.send(env(body=bytes([i])))
            return [(await b.recv()).body for _ in range(5)]

        assert run(scenario()) == [bytes([i]) for i in range(5)]

    def test_unknown_recipient_vanishes(self):
        async def scenario():
            net = MemoryNetwork()
            a = await net.attach("a")
            await a.send(env(recipient="ghost"))  # no error
            return net.frames_routed

        assert run(scenario()) == 1

    def test_duplicate_address_rejected(self):
        async def scenario():
            net = MemoryNetwork()
            await net.attach("a")
            with pytest.raises(AddressInUse):
                await net.attach("a")

        run(scenario())

    def test_addresses_listed(self):
        async def scenario():
            net = MemoryNetwork()
            await net.attach("b")
            await net.attach("a")
            return net.addresses

        assert run(scenario()) == ["a", "b"]

    def test_closed_endpoint(self):
        async def scenario():
            net = MemoryNetwork()
            a = await net.attach("a")
            await a.close()
            with pytest.raises(ConnectionClosed):
                await a.send(env())
            with pytest.raises(ConnectionClosed):
                await a.recv()
            # Address is free again after close.
            await net.attach("a")

        run(scenario())

    def test_send_to_closed_recipient_vanishes(self):
        async def scenario():
            net = MemoryNetwork()
            a = await net.attach("a")
            b = await net.attach("b")
            await b.close()
            await a.send(env())  # silently dropped

        run(scenario())


class TestAdversaryInterposition:
    def test_observes_all_frames(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            a = await net.attach("a")
            await net.attach("b")
            for _ in range(3):
                await a.send(env())
            return adversary.log

        log = run(scenario())
        assert len(log) == 3
        assert all(f.origin == "a" for f in log)
        assert [f.sequence for f in log] == [1, 2, 3]

    def test_drop_policy(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            adversary.set_policy(lambda f: Verdict.drop())
            a = await net.attach("a")
            b = await net.attach("b")
            await a.send(env())
            return b.pending

        assert run(scenario()) == 0

    def test_duplicate_policy(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            adversary.set_policy(lambda f: Verdict.duplicate())
            a = await net.attach("a")
            b = await net.attach("b")
            await a.send(env())
            return b.pending

        assert run(scenario()) == 2

    def test_replace_policy(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            forged = env(sender="mallory", body=b"forged")
            adversary.set_policy(lambda f: Verdict.replace(forged))
            a = await net.attach("a")
            b = await net.attach("b")
            await a.send(env())
            return await b.recv()

        assert run(scenario()).body == b"forged"

    def test_drop_next_one_shot(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            adversary.drop_next(lambda f: f.envelope.body == b"target")
            a = await net.attach("a")
            b = await net.attach("b")
            await a.send(env(body=b"target"))   # dropped
            await a.send(env(body=b"target"))   # delivered (one-shot)
            await a.send(env(body=b"other"))    # delivered
            return b.pending

        assert run(scenario()) == 2

    def test_inject_bypasses_policy(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            adversary.set_policy(lambda f: Verdict.drop())
            b = await net.attach("b")
            await adversary.inject(env(sender="nobody"))
            return b.pending

        assert run(scenario()) == 1

    def test_replay(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            a = await net.attach("a")
            b = await net.attach("b")
            await a.send(env(body=b"original"))
            await adversary.replay(adversary.log[0])
            return [(await b.recv()).body for _ in range(2)]

        assert run(scenario()) == [b"original", b"original"]

    def test_frame_queries(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            a = await net.attach("a")
            await net.attach("b")
            await a.send(env(label=Label.ADMIN_MSG))
            await a.send(env(label=Label.APP_DATA))
            return adversary

        adversary = run(scenario())
        assert len(adversary.frames_to("b")) == 2
        assert len(adversary.frames_with_label(Label.ADMIN_MSG)) == 1

    def test_unbound_adversary_inject_fails(self):
        async def scenario():
            with pytest.raises(RuntimeError):
                await Adversary().inject(env())

        run(scenario())
