"""repro.resilience — the fault-tolerant execution substrate.

Long training runs, the risk loop and the daemon client share one design
concern: components fail — losses go NaN, a worker dies mid-promotion, a
daemon sheds load — and the system must detect and recover rather than
deadlock or persist garbage.  This package centralises that layer:

* :class:`GuardRail` — the per-step training guard (finiteness/divergence
  checks, checksummed snapshot rollback, LR halving, bounded retries with a
  structured :class:`TrainingDiverged`) wired into every trainer in
  :mod:`repro.train.loops`;
* :class:`ChaosConfig` / :class:`Fault` — deterministic fault injection
  (NaN losses, risk-loop crashes and corrupt queue segments) for the
  ``pytest -m chaos`` and ``pytest -m risk`` tiers;
* :class:`Events` — counters for every recovery action, mirrored into the
  telemetry registry as ``resilience.<field>``;
* :class:`BackoffPolicy` — the capped, jittered retry schedule
  :class:`repro.serve.DaemonClient` waits on under backpressure.

The scoring engine needs none of this: it runs batches on threads inside
one process, so there is no worker to crash, hang or respawn.  See
``DESIGN.md`` §8 ("Resilience") for the policy semantics.
"""

from .backoff import BackoffPolicy
from .chaos import KINDS, RISK_KINDS, ChaosConfig, Fault, merge as merge_chaos
from .events import Events
from .guardrail import GuardRail, TrainingDiverged

__all__ = [
    "BackoffPolicy",
    "ChaosConfig", "Fault", "KINDS", "RISK_KINDS", "merge_chaos",
    "Events", "GuardRail", "TrainingDiverged",
]
