"""Abstract transport interfaces.

A :class:`Transport` is a factory of :class:`Endpoint` objects.  An
endpoint has an address, can send an :class:`~repro.wire.message.Envelope`
toward any address, and receives envelopes addressed to it.  The protocol
stacks are written purely against this interface, so they run unchanged
over the in-memory adversarial network and over TCP.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.wire.message import Envelope


class Endpoint(ABC):
    """One attachment point on a transport."""

    @abstractmethod
    async def send(self, envelope: Envelope) -> None:
        """Send ``envelope`` toward ``envelope.recipient``.

        Sending never fails loudly on an insecure network — a dropped
        frame is indistinguishable from a slow one — except when the
        endpoint itself has been closed.
        """

    @abstractmethod
    async def recv(self) -> Envelope:
        """Wait for and return the next envelope addressed to us."""

    @abstractmethod
    async def close(self) -> None:
        """Detach from the network; pending receives fail."""


class Transport(ABC):
    """Factory for endpoints sharing one network."""

    @abstractmethod
    async def attach(self, address: str) -> Endpoint:
        """Create an endpoint bound to ``address``."""
