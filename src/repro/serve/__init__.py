"""Control-plane service: the harness as a long-lived concurrent server.

``python -m repro serve`` starts an asyncio HTTP service that accepts
experiment requests, coalesces identical ones onto a single execution
(keyed by the checkpoint journal's SHA-256 task fingerprints), packs
run cells from *different* concurrent requests into shared
:class:`~repro.board.bank.BoardBank` lanes, and answers warm repeats from
a persistent :class:`~repro.cache.DesignCache` result store.  See
``docs/SERVING.md``.
"""

from .client import ServeClient, ServeError, wait_ready
from .loadgen import LoadgenReport, generate_requests, run_loadgen
from .protocol import (
    ProtocolError,
    ServeRequest,
    metrics_from_wire,
    metrics_to_wire,
    parse_request,
)
from .server import ExperimentServer, ServerHandle, serve_background

__all__ = [
    "ExperimentServer",
    "ServerHandle",
    "serve_background",
    "ServeClient",
    "ServeError",
    "wait_ready",
    "LoadgenReport",
    "generate_requests",
    "run_loadgen",
    "ProtocolError",
    "ServeRequest",
    "parse_request",
    "metrics_to_wire",
    "metrics_from_wire",
]
