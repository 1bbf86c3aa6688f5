"""Fault-tolerant campaign execution (checkpoint/resume + supervision).

The simulation layer survives misbehaving controllers (PR 1's supervisor);
this package makes the *execution* layer survive misbehaving workers.  It
provides the checkpoint journal (:mod:`~repro.runtime.checkpoint`), the
supervised worker pool (:mod:`~repro.runtime.executor`), the chaos test
harness (:mod:`~repro.runtime.chaos`), and the process-wide
:class:`~repro.runtime.policy.ExecutionPolicy` the CLI installs.  See
``docs/RESILIENCE.md`` § "Execution-layer fault tolerance".
"""

from .chaos import ChaosError, ChaosPolicy, corrupt_checkpoint_entry
from .checkpoint import CheckpointJournal, task_key
from .executor import (
    CellExecutionError,
    CellFailure,
    RetryPolicy,
    SupervisedPool,
    supervised_map,
)
from .policy import (
    ExecutionPolicy,
    activate_policy,
    active_policy,
    deactivate_policy,
)

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "corrupt_checkpoint_entry",
    "CheckpointJournal",
    "task_key",
    "CellExecutionError",
    "CellFailure",
    "RetryPolicy",
    "SupervisedPool",
    "supervised_map",
    "ExecutionPolicy",
    "activate_policy",
    "active_policy",
    "deactivate_policy",
]
