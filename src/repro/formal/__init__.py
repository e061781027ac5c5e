"""Executable formal model of the improved Enclaves protocol (paper §4-5).

This package re-implements, as executable Python, the PVS development the
paper describes:

* :mod:`~repro.formal.fields` — the message-field algebra 𝓕 (agents,
  nonces, keys, concatenation, encryption) of §4.
* :mod:`~repro.formal.knowledge` — Paulson/Millen-Rueß operators:
  ``Parts``, ``Analz``, ``Synth`` (§4.2), with an incremental
  knowledge-state for exploration.
* :mod:`~repro.formal.ideals` — ideals 𝓘(S), coideals 𝓒(S), and the
  Ideal-Parts lemma used in the §5.2 secrecy proof.
* :mod:`~repro.formal.events` — messages, Oops events, and traces.
* :mod:`~repro.formal.model` — the honest user/leader transition systems
  (Figures 2 and 3), the intruder (Gen), and the asynchronous global
  system of §4.2.
* :mod:`~repro.formal.explorer` — bounded-exhaustive state-space
  exploration with invariant checking and counterexample paths; its
  ``search`` loop also runs the concrete interleaving explorer
  (:mod:`repro.enclaves.modelcheck`), depth first.
* :mod:`~repro.formal.properties` — the §5 theorems as executable
  invariants (regularity, long-term-key secrecy, session-key secrecy,
  message-ordering prefix, agreement, proper authentication).
* :mod:`~repro.formal.diagram` — a reconstruction of the Figure 4
  verification diagram and its proof obligations.
* :mod:`~repro.formal.verify` — one-call verification report.

Where PVS proves the properties for *all* traces by induction, this
package checks the same definitions on a bounded-exhaustive prefix of
the trace space (every interleaving up to configurable session/admin/
forgery budgets) — the classic model-checking counterpart of the paper's
theorem-proving approach.
"""

from repro.formal.events import Msg, Oops
from repro.formal.fields import (
    Agent,
    Concat,
    Crypt,
    Data,
    Field,
    LongTerm,
    NonceF,
    SessionK,
    concat,
)
from repro.formal.knowledge import analz, can_synth, parts
from repro.formal.ideals import coideal_contains, in_ideal
from repro.formal.model import EnclavesModel, ModelConfig
from repro.formal.verify import VerificationReport, verify_protocol

__all__ = [
    "Field",
    "Agent",
    "NonceF",
    "SessionK",
    "LongTerm",
    "Data",
    "Concat",
    "Crypt",
    "concat",
    "parts",
    "analz",
    "can_synth",
    "in_ideal",
    "coideal_contains",
    "Msg",
    "Oops",
    "EnclavesModel",
    "ModelConfig",
    "verify_protocol",
    "VerificationReport",
]
