"""A §3.2 group member with the end-to-end data plane attached.

:class:`DataMember` composes an unmodified
:class:`~repro.enclaves.itgm.member.MemberProtocol` with a
:class:`~repro.dataplane.channel.DataChannel` (or the group-key-only
baseline) and the reliability layer, presenting the same sans-IO
``handle(envelope) -> (out, events)`` surface so it drops straight
into :class:`~repro.enclaves.harness.SyncNetwork`.

The one piece of glue that matters: **after every management frame**
the wrapper compares the member's group epoch with the channel's and
rebinds on mismatch — so a rekey (cadence, eviction, or leave) re-seeds
every chain before the next data frame is sealed or opened, and the
reliability layer re-seals its unacked payloads on the new chains.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.dataplane.channel import DataChannel, GroupKeyChannel
from repro.dataplane.reliable import ReliableReceiver, ReliableSender
from repro.enclaves.common import Event, MemberJoined, MembershipView
from repro.enclaves.itgm.member import MemberProtocol
from repro.telemetry.events import EventBus
from repro.wire.labels import Label
from repro.wire.message import Envelope


class DataMember:
    """Member + ratcheted channel + reliable multicast, one endpoint."""

    def __init__(
        self,
        member: MemberProtocol,
        *,
        ratcheted: bool = True,
        reliable: bool = True,
        clock: Callable[[], float] | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        self.member = member
        self._clock = clock if clock is not None else (lambda: 0.0)
        if ratcheted:
            self.channel = DataChannel(member.user_id, telemetry=telemetry)
        else:
            self.channel = GroupKeyChannel(member.user_id, telemetry=telemetry)
        self.receiver = ReliableReceiver(member.user_id, self.channel)
        self.sender: ReliableSender | None = None
        if reliable:
            self.sender = ReliableSender(
                member.user_id, self.channel,
                peers=lambda: self.member.membership,
                telemetry=telemetry,
            )
        #: Plaintexts delivered to the application, in arrival order.
        self.inbox: list[tuple[str, int, bytes]] = []
        self._sync_epoch()

    # -- identity passthroughs -------------------------------------------------

    @property
    def user_id(self) -> str:
        return self.member.user_id

    @property
    def leader_id(self) -> str:
        return self.member.leader_id

    # -- sans-IO surface -------------------------------------------------------

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Route data frames to the data plane, everything else to the
        wrapped member (then re-sync chains with the member's epoch)."""
        if envelope.label.is_data:
            return self._handle_data(envelope), []
        out, events = self.member.handle(envelope)
        for event in events:
            # A (re)join, a peer's or (the view) this node's own, may
            # follow a rebuilt session whose message ids restart at 0.
            if isinstance(event, MemberJoined):
                self.receiver.forget((event.user_id,))
            elif isinstance(event, MembershipView):
                self.receiver.forget(event.members)
        out.extend(self._sync_epoch())
        return out, events

    def _handle_data(self, envelope: Envelope) -> list[Envelope]:
        now = self._clock()
        if envelope.label is Label.DATA_MSG:
            delivery, control = self.receiver.on_data(
                envelope, self.member.leader_id
            )
            if delivery is not None:
                self.inbox.append(delivery)
            return control
        if self.sender is None:
            return []
        if envelope.label is Label.DATA_ACK:
            self.sender.on_ack(envelope, now)
            return []
        if envelope.label is Label.DATA_NACK:
            return self.sender.on_nack(envelope)
        return []

    def _sync_epoch(self) -> list[Envelope]:
        """Rebind chains when the member installed a new group key."""
        key = self.member.group_key
        if key is None or self.member.group_epoch == self.channel.epoch:
            return []
        self.channel.rebind(key, self.member.group_epoch)
        if self.sender is not None:
            return self.sender.rebind(self._clock())
        return []

    # -- application sends -----------------------------------------------------

    def send_data(self, payload: bytes) -> list[Envelope]:
        """Seal one application payload for relay to the group."""
        self._sync_epoch()
        if self.sender is not None:
            return [self.sender.send(payload, self.member.leader_id,
                                     self._clock())]
        _seq, envelope = self.channel.seal(payload, self.member.leader_id)
        return [envelope]

    def tick(self) -> list[Envelope]:
        """Drive the retransmit timer from the injected clock."""
        if self.sender is None:
            return []
        return self.sender.tick(self._clock())


__all__ = ["DataMember"]
