"""Human-readable wire transcripts.

Debugging a cryptographic protocol from raw sealed boxes is miserable;
this module renders wire logs (from :class:`~repro.enclaves.harness.
SyncNetwork` or an :class:`~repro.net.adversary.Adversary`) into aligned
transcripts, and — given the parties' keys — can annotate each sealed
frame with its decrypted structure, the way published protocol traces
are presented.

Transcripts are best-effort: frames that fail to parse or decrypt are
shown as opaque, never raised on.  The formatter is read-only and has
no effect on protocol state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol, seal_ad
from repro.exceptions import CodecError, IntegrityError
from repro.telemetry.events import frame_id
from repro.wire.codec import decode_fields
from repro.wire.labels import Label
from repro.wire.message import Envelope


@dataclass
class KeyRing:
    """Keys available to the transcript annotator.

    A test or demo hands over whatever keys it legitimately holds; the
    formatter tries each against each frame.  (This mirrors what a
    protocol analyst with full knowledge does — it is a debugging aid,
    not an attack tool: without the keys the frames stay opaque, which
    is itself a useful property to see.)
    """

    keys: list[KeyMaterial]

    def try_open(self, envelope: Envelope) -> list[bytes] | None:
        """Try to open the envelope's sealed body with any held key."""
        try:
            box = SealedBox.from_bytes(envelope.body)
        except CodecError:
            return None
        # Point-to-point frames bind (label, sender, recipient); relayed
        # APP_DATA frames bind (label, origin) only.
        from repro.enclaves.itgm.member import app_ad

        if envelope.label is Label.APP_DATA:
            ads = [app_ad(envelope.sender)]
        else:
            ads = [seal_ad(envelope.label, envelope.sender,
                           envelope.recipient)]
        for key in self.keys:
            for ad in ads:
                try:
                    plain = AuthenticatedCipher(key).open(box, ad)
                    return decode_fields(plain)
                except (IntegrityError, CodecError):
                    continue
        return None


def _field_preview(field: bytes, max_len: int = 12) -> str:
    """Render one decrypted field compactly."""
    try:
        text = field.decode("utf-8")
        if text.isprintable() and text:
            return text
    except UnicodeDecodeError:
        pass
    hexed = field.hex()
    return hexed[:max_len] + ("…" if len(hexed) > max_len else "")


def format_frame(
    index: int, envelope: Envelope, keyring: KeyRing | None = None,
    show_ids: bool = False,
) -> str:
    """One transcript line for one frame.

    With ``show_ids`` the line carries the frame's
    :func:`~repro.telemetry.events.frame_id`, so a transcript line and
    a telemetry event (a ``ReplayRejected``, a ``FrameDropped``) that
    name the same frame can be matched directly.
    """
    head = (
        f"{index:>4}  {envelope.sender:>10} -> {envelope.recipient:<10} "
        f"{envelope.label.name:<18}"
    )
    if show_ids:
        head = f"{index:>4}  [{frame_id(envelope)}] " \
               f"{envelope.sender:>10} -> {envelope.recipient:<10} " \
               f"{envelope.label.name:<18}"
    if not envelope.body:
        return head + "(empty)"
    if keyring is not None:
        fields = keyring.try_open(envelope)
        if fields is not None:
            inner = ", ".join(_field_preview(f) for f in fields)
            return head + f"{{{inner}}}"
    return head + f"<sealed, {len(envelope.body)}B>"


def format_transcript(
    frames: list[Envelope], keyring: KeyRing | None = None,
    title: str = "wire transcript", show_ids: bool = False,
) -> str:
    """Render a full wire log."""
    lines = [title, "=" * len(title)]
    for index, envelope in enumerate(frames, 1):
        lines.append(format_frame(index, envelope, keyring, show_ids))
    if not frames:
        lines.append("(no frames)")
    return "\n".join(lines)


def run_demo_session(seed: int):
    """The scripted demo group session (join, chat, rekey, leave).

    Returns ``(net, leader, members, keys)`` so both ``demo`` (which
    prints the annotated transcript) and ``trace`` (which observes the
    telemetry stream) can drive the same scenario.
    """
    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    directory = UserDirectory()
    leader = GroupLeader("leader", directory, rng=rng.fork("leader"))
    wire(net, "leader", leader)
    members = {}
    keys = []
    for name in ("alice", "bob"):
        creds = directory.register_password(name, f"{name}-pw")
        keys.append(creds.long_term_key)
        member = MemberProtocol(creds, "leader", rng.fork(name))
        members[name] = member
        wire(net, name, member)
        net.post(member.start_join())
        net.run()
    net.post(members["alice"].seal_app(b"hello group"))
    net.run()
    net.post_all(leader.rekey_now())
    net.run()
    net.post(members["bob"].start_leave())
    net.run()

    # Annotate with every key the demo legitimately holds.
    for member in members.values():
        for attr in ("_session_key", "_group_key"):
            key = getattr(member, attr)
            if key is not None:
                keys.append(key)
    return net, leader, members, keys


def _cmd_demo(args, _bus) -> int:
    net, leader, _members, keys = run_demo_session(args.seed)
    print(format_transcript(net.wire_log, KeyRing(keys),
                            title="demo session transcript"))
    print(f"\nfinal members: {leader.members}")
    return 0


def register(sub) -> None:
    demo = sub.add_parser("demo", help="scripted session with transcript")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(select="command",
                      dispatch={"demo": (_cmd_demo, None, False, "")})
