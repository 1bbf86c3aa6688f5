"""``repro serve`` under worker failure: the supervised pool behind it.

Every test starts its own two-worker server (``jobs=2``) with an
:class:`~repro.runtime.ExecutionPolicy` installed, as the CLI's
``--max-retries`` / ``--cell-timeout`` would, breaks something — a
SIGKILLed worker, a wedged cell, a corrupted result store — and asserts
that the service keeps answering.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.experiments.runner import run_workload
from repro.runtime import (
    ChaosPolicy,
    ExecutionPolicy,
    RetryPolicy,
    activate_policy,
    deactivate_policy,
)
from repro.serve import ServeClient, metrics_from_wire, serve_background

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.01, backoff_max=0.05,
                         jitter=0.0)


@contextmanager
def _server(context, policy=None, **kwargs):
    """A ``jobs=2`` server started under ``policy``."""
    activate_policy(policy or ExecutionPolicy())
    try:
        kwargs.setdefault("cache", None)
        with serve_background(context, jobs=2, **kwargs) as handle:
            yield handle
    finally:
        deactivate_policy()


def _run(url, request, timeout=60.0):
    with ServeClient(url, timeout=timeout) as client:
        return client.run(request, timeout=timeout)


def _run_all(url, requests):
    """Fire ``requests`` concurrently; responses in request order."""
    with ThreadPoolExecutor(max_workers=len(requests)) as pool:
        return list(pool.map(lambda r: _run(url, r), requests))


def _sleep(nonce, duration=0.01):
    return {"kind": "sleep", "duration": duration, "nonce": nonce}


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def test_killed_bank_batch_retries_alone(design_context):
    """A SIGKILL mid-bank-batch retries only that batch."""
    cells = [{"kind": "run", "scheme": "coordinated-heuristic",
              "workload": w, "seed": 500 + i, "max_time": 3.0}
             for i, w in enumerate(["blackscholes", "mcf", "fluidanimate"])]
    # Submission 0 is the bank the three concurrent cells pack into.
    policy = ExecutionPolicy(chaos=ChaosPolicy(kill_cells=(0,)),
                             backoff=FAST_RETRY)
    with _server(design_context, policy, batch=3, batch_wait=0.5) as handle:
        responses = _run_all(handle.url, cells)
        later = _run_all(handle.url, [_sleep(f"after-{i}") for i in range(3)])
        with ServeClient(handle.url) as client:
            stats = client.stats()
    assert [r["status"] for r in responses + later] == [200] * 6
    assert stats["bank_batches"] == 1 and stats["banked_cells"] == 3
    assert stats["retries"] == 1
    for request, response in zip(cells, responses):
        direct = run_workload(request["scheme"], request["workload"],
                              design_context, seed=request["seed"],
                              max_time=request["max_time"])
        served = metrics_from_wire(response["result"])
        assert served.execution_time == direct.execution_time
        assert served.energy == direct.energy


def test_idle_worker_killed_is_replaced(design_context):
    """A killed idle worker is replaced; the next request succeeds."""
    before = _children()
    with _server(design_context) as handle:
        assert _run(handle.url, _sleep("warm"))["status"] == 200
        workers = _children() - before
        assert workers
        victim = min(workers)
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.3)  # let it die while idle
        response = _run(handle.url, _sleep("after-kill"))
        assert response["status"] == 200, response
        assert _run(handle.url, _sleep("after-kill-2"))["status"] == 200
        replacements = _children() - before
    assert victim not in replacements
    assert replacements


def test_hung_cell_is_killed_and_replaced(design_context):
    """A cell past cell_timeout fails as "timeout"; service goes on."""
    policy = ExecutionPolicy(cell_timeout=1.0)
    with _server(design_context, policy) as handle:
        t0 = time.monotonic()
        hung = _run(handle.url, _sleep("wedged", duration=30.0))
        assert time.monotonic() - t0 < 15.0  # killed, not waited out
        assert hung["status"] == 500
        assert hung["result"]["type"] == "cell_failure"
        assert hung["result"]["reason"] == "timeout"
        later = _run_all(handle.url, [_sleep(f"later-{i}") for i in range(3)])
    assert [r["status"] for r in later] == [200] * 3


def test_store_corruption_under_load_falls_back(design_context, tmp_path):
    """Entries corrupted while requests run re-execute, same bits."""
    store = tmp_path / "store"
    cells = [{"kind": "run", "scheme": "decoupled-heuristic",
              "workload": w, "seed": 600 + i, "max_time": 2.0,
              "record": True}
             for i, w in enumerate(["blackscholes", "mcf", "gamess"])]
    with _server(design_context, cache=str(store)) as handle:
        first = _run_all(handle.url, cells)
        assert [r["source"] for r in first] == ["executed"] * 3
        with ThreadPoolExecutor(max_workers=2 + len(cells)) as pool:
            busy = [pool.submit(_run, handle.url, _sleep(f"busy-{i}", 0.5))
                    for i in range(2)]
            corrupted = 0
            for root, _dirs, files in os.walk(store):
                for name in files:
                    with open(os.path.join(root, name), "wb") as fh:
                        fh.write(b"\x00garbage, not a pickle\xff")
                    corrupted += 1
            again = list(pool.map(lambda r: _run(handle.url, r), cells))
            assert [f.result()["status"] for f in busy] == [200, 200]
    assert corrupted >= len(cells)
    assert [r["source"] for r in again] == ["executed"] * 3
    for a, b in zip(first, again):
        assert json.dumps(a["result"], sort_keys=True) == \
            json.dumps(b["result"], sort_keys=True)


def test_stop_returns_while_a_worker_hangs(design_context, tmp_path):
    """stop() kills a wedged worker and still merges worker telemetry."""
    from repro.telemetry import TelemetrySession

    session = TelemetrySession(tmp_path / "tel")
    try:
        with _server(design_context, telemetry=session) as handle:
            assert _run(handle.url, _sleep("warm"))["status"] == 200
            outcome = []

            def _wedge():
                try:
                    outcome.append(_run(handle.url, _sleep("wedged", 60.0)))
                except Exception as exc:  # the server hung up on stop
                    outcome.append(exc)

            hung = threading.Thread(target=_wedge, daemon=True)
            hung.start()
            time.sleep(0.5)  # let it reach a worker
            assert not (tmp_path / "tel" / "metrics.json").exists()
            t0 = time.monotonic()
            handle.stop(timeout=30.0)
            elapsed = time.monotonic() - t0
            assert not handle._thread.is_alive()
        assert elapsed < 8.0
        assert list((tmp_path / "tel").glob("worker-*"))
        assert (tmp_path / "tel" / "metrics.json").is_file()
        hung.join(10.0)
        assert not hung.is_alive() and outcome
    finally:
        session.close()
