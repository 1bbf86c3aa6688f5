"""Process-wide execution policy: how campaigns should survive failure.

Mirrors the telemetry session's ``activate``/``active_session`` pattern:
the CLI parses ``--checkpoint-dir`` / ``--resume`` / ``--cell-timeout`` /
``--max-retries`` once, installs an :class:`ExecutionPolicy`, and every
campaign entry point (scheme matrix, resilience sweep, figure sweeps) and
the control-plane service (``repro serve``) picks it up from
:func:`active_policy` without threading four extra parameters through the
whole call graph.  Explicit keyword arguments to
:func:`~repro.experiments.engine.parallel_map` always win over the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ExecutionPolicy",
    "activate_policy",
    "deactivate_policy",
    "active_policy",
]

_ACTIVE = None


@dataclass
class ExecutionPolicy:
    """Fault-tolerance knobs for campaign execution.

    ``checkpoint_dir`` enables the journal; ``resume`` replays completed
    cells from it; ``cell_timeout``/``max_retries``/``backoff`` configure
    worker supervision; ``chaos`` attaches a
    :class:`~repro.runtime.chaos.ChaosPolicy` (tests only); ``on_error``
    is ``"collect"`` (salvage partial results, the default) or
    ``"raise"``.
    """

    checkpoint_dir: object = None
    resume: bool = False
    cell_timeout: float = None
    max_retries: int = None
    backoff: object = None  # RetryPolicy, or None for the default
    chaos: object = None
    on_error: str = "collect"

    @property
    def supervised(self):
        """Whether these knobs require the supervised worker pool."""
        return bool(
            self.cell_timeout
            or self.chaos is not None
            or (self.max_retries not in (None, 0))
        )

    def retry_policy(self):
        """``backoff`` if set, else a :class:`~repro.runtime.RetryPolicy`
        allowing ``max_retries`` retries (none when unset)."""
        from .executor import RetryPolicy

        if self.backoff is not None:
            return self.backoff
        return RetryPolicy(max_retries=int(self.max_retries or 0))


def activate_policy(policy):
    """Install a policy as the process-wide default; returns it."""
    global _ACTIVE
    _ACTIVE = policy
    return policy


def deactivate_policy():
    """Clear the process-wide policy."""
    global _ACTIVE
    _ACTIVE = None


def active_policy():
    """The process-wide policy, or ``None`` (plain execution)."""
    return _ACTIVE
