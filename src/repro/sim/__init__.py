"""Virtual-time simulation scenarios.

The paper has no performance evaluation, but a credible release needs a
way to characterize the protocol's behaviour at scale: join/leave churn,
rekey storms under different policies, admin-channel throughput vs.
group size.  This package provides workload generators
(:mod:`~repro.sim.workload`), delay models (:mod:`~repro.sim.netmodel`)
and ready-made scenarios (:mod:`~repro.sim.scenarios`,
:mod:`~repro.sim.latency`) that run the sans-IO protocol cores on the
virtual-time loop of :mod:`repro.chaos.loop`.
"""

from repro.sim.scenarios import ChurnScenario, ChurnReport, run_churn
from repro.sim.workload import (
    ChurnWorkload,
    MessageWorkload,
    WorkloadEvent,
)

__all__ = [
    "ChurnWorkload",
    "MessageWorkload",
    "WorkloadEvent",
    "ChurnScenario",
    "ChurnReport",
    "run_churn",
]
