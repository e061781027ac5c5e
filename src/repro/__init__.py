"""repro — Intrusion-Tolerant Group Management in Enclaves (DSN 2001).

A complete reproduction of Dutertre, Saïdi & Stavridou's paper:

* :mod:`repro.enclaves.itgm` — the improved, intrusion-tolerant group
  management protocol (the paper's contribution), as sans-IO cores plus
  asyncio runtimes.
* :mod:`repro.enclaves.legacy` — the original flawed protocols of §2.2,
  the baseline the attacks break.
* :mod:`repro.formal` — the executable formal model: Dolev-Yao
  operators, ideals/coideals, the Figures 2-3 transition systems, the
  Figure 4 verification diagram, and bounded-exhaustive checking of
  every §5 theorem.
* :mod:`repro.attacks` — the §2.3 attacks, runnable against both stacks.
* :mod:`repro.crypto` — the from-scratch software crypto substrate.
* :mod:`repro.net` — adversarial in-memory network + TCP transport.
* :mod:`repro.sim` — churn/traffic and latency scenarios in virtual time.

Quickstart::

    from repro.enclaves.common import UserDirectory
    from repro.enclaves.harness import SyncNetwork, wire
    from repro.enclaves.itgm import GroupLeader, MemberProtocol

    net = SyncNetwork()
    directory = UserDirectory()
    alice = directory.register_password("alice", "correct horse")
    leader = GroupLeader("leader", directory)
    wire(net, "leader", leader)
    member = MemberProtocol(alice, "leader")
    wire(net, "alice", member)
    net.post(member.start_join())
    net.run()
    assert leader.members == ["alice"]

See ``examples/`` for asyncio, TCP, attack, and verification demos.
"""

__version__ = "1.0.0"

from repro.enclaves.common import (
    Credentials,
    RekeyPolicy,
    UserDirectory,
)
from repro.enclaves.harness import SyncNetwork, wire
from repro.exceptions import ReproError

__all__ = [
    "__version__",
    "Credentials",
    "UserDirectory",
    "RekeyPolicy",
    "SyncNetwork",
    "wire",
    "ReproError",
]
