"""Wire format: message labels, canonical encoding, and envelopes.

The paper models each message as ``(label, apparent sender, intended
recipient, content)``.  :class:`~repro.wire.message.Envelope` is exactly
that 4-tuple; :mod:`repro.wire.codec` provides a canonical, injective
binary encoding for structured message bodies (the property the formal
model's concatenation fields assume).
"""

from repro.wire.codec import decode_fields, encode_fields
from repro.wire.labels import Label
from repro.wire.message import Envelope

__all__ = [
    "Label",
    "Envelope",
    "encode_fields",
    "decode_fields",
]
