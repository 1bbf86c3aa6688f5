"""Tests for repro.serve: protocol, coalescing, batching, admission.

The expensive integration tests share one background server (module
scope) over the session design context; behaviours that need a special
configuration — a tiny admission bound, a corruptible result store, a
deadline — spin up their own short-lived server.  ``sleep`` requests
exercise the queueing machinery (coalescing, admission, deadlines)
deterministically, without simulating anything.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import (
    ProtocolError,
    ServeClient,
    metrics_from_wire,
    metrics_to_wire,
    parse_request,
    run_loadgen,
    serve_background,
)
from repro.serve.protocol import ServeRequest, result_to_wire


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_parse_run_request_normalizes(self):
        request = parse_request({"kind": "run", "scheme":
                                 "coordinated-heuristic",
                                 "workload": "mcf", "seed": 3,
                                 "max_time": 12.5, "record": True})
        assert request.kind == "run"
        assert request.scheme == "coordinated-heuristic"
        assert request.workload == "mcf"
        assert request.seed == 3
        assert request.max_time == 12.5
        assert request.record is True
        assert request.bank_group == (12.5, True)
        assert request.task() == ("cell", ("coordinated-heuristic", "mcf",
                                           3, 12.5, True))

    def test_parse_defaults(self):
        request = parse_request({"scheme": "decoupled-heuristic",
                                 "workload": "blackscholes"})
        assert request.kind == "run"
        assert request.seed == 7
        assert request.max_time == 600.0
        assert request.record is False
        assert request.deadline_s is None

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"kind": "dance"},
        {"kind": "run", "scheme": "no-such-scheme", "workload": "mcf"},
        {"kind": "run", "scheme": "coordinated-heuristic", "workload": ""},
        {"kind": "run", "scheme": "coordinated-heuristic",
         "workload": "no-such-workload"},
        {"kind": "run", "scheme": "coordinated-heuristic",
         "workload": "mcf", "seed": "seven"},
        {"kind": "run", "scheme": "coordinated-heuristic",
         "workload": "mcf", "seed": True},
        {"kind": "run", "scheme": "coordinated-heuristic",
         "workload": "mcf", "max_time": -1.0},
        {"kind": "run", "scheme": "coordinated-heuristic",
         "workload": "mcf", "deadline_s": "soon"},
        {"kind": "sleep", "duration": -0.5},
    ])
    def test_parse_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            parse_request(payload)

    def test_fingerprint_is_the_checkpoint_identity(self, design_context):
        from repro.runtime import task_key

        request = parse_request({"scheme": "coordinated-heuristic",
                                 "workload": "mcf", "seed": 5,
                                 "max_time": 8.0})
        expected = task_key(design_context,
                            ("cell", ("coordinated-heuristic", "mcf", 5,
                                      8.0, False)))
        assert request.fingerprint(design_context) == expected
        # deadline / no_cache are delivery options, not identity
        twin = parse_request({"scheme": "coordinated-heuristic",
                              "workload": "mcf", "seed": 5, "max_time": 8.0,
                              "deadline_s": 1.0, "no_cache": True})
        assert twin.fingerprint(design_context) == expected

    def test_metrics_wire_round_trip_bit_exact(self):
        from repro.experiments.metrics import RunMetrics

        metrics = RunMetrics(
            scheme="coordinated-heuristic", workload="mcf",
            execution_time=1.0 / 3.0, energy=np.pi * 1e3, completed=True,
            trace={"times": np.array([0.1, 0.2, 0.30000000000000004]),
                   "power": np.array([1e-300, 1e300, 5.5])},
            notes={"emergency_trips": 0, "np_float": np.float64(2.5)},
        )
        wire = json.loads(json.dumps(metrics_to_wire(metrics)))
        back = metrics_from_wire(wire)
        assert back.execution_time == metrics.execution_time
        assert back.energy == metrics.energy
        assert back.completed is True
        for name, arr in metrics.trace.items():
            assert np.array_equal(back.trace[name], arr)

    def test_metrics_wire_handles_nonfinite(self):
        from repro.experiments.metrics import RunMetrics

        metrics = RunMetrics(
            scheme="coordinated-heuristic", workload="mcf",
            execution_time=float("nan"), energy=float("inf"),
            completed=False,
            trace={"temps": np.array([float("-inf"), float("nan"), 1.0])},
            notes={},
        )
        # the stdlib encoder's NaN/Infinity extension must survive a
        # full dumps/loads cycle
        wire = json.loads(json.dumps(metrics_to_wire(metrics)))
        back = metrics_from_wire(wire)
        assert np.isnan(back.execution_time)
        assert back.energy == float("inf")
        assert np.isneginf(back.trace["temps"][0])
        assert np.isnan(back.trace["temps"][1])

    def test_result_to_wire_dispatch(self):
        from repro.runtime import CellFailure

        failure = CellFailure(index=0, label="x", reason="timeout",
                              attempts=2, error="boom", key="k")
        wire = result_to_wire(failure)
        assert wire["type"] == "cell_failure"
        assert wire["reason"] == "timeout"
        assert result_to_wire({"kind": "sleep"}) == {"kind": "sleep"}

    def test_sleep_request_round_trip(self):
        request = parse_request({"kind": "sleep", "duration": 0.25,
                                 "nonce": "abc"})
        assert request.task()[0] == "call"
        assert "sleep" in request.label()
        assert parse_request(request.to_dict()) == request

    def test_run_request_to_dict_round_trip(self):
        request = parse_request({"scheme": "yukta-hwssv-osheur",
                                 "workload": "fluidanimate", "seed": 11,
                                 "max_time": 4.0, "record": True,
                                 "deadline_s": 9.0, "no_cache": True})
        assert parse_request(request.to_dict()) == request


# ---------------------------------------------------------------------------
# The shared background server
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(design_context, tmp_path_factory):
    store = tmp_path_factory.mktemp("serve-store")
    with serve_background(design_context, jobs=0, batch=4, batch_wait=0.05,
                          cache=str(store)) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServeClient(server.url, timeout=60.0) as c:
        yield c


class TestServeBasics:
    def test_healthz_and_root(self, client):
        health = client.healthz()
        assert health["ok"] is True
        status, body = client.request("GET", "/")
        assert status == 200
        assert "/run" in json.dumps(body)

    def test_run_executes_then_caches(self, client, design_context):
        from repro.experiments import run_workload

        request = {"kind": "run", "scheme": "coordinated-heuristic",
                   "workload": "blackscholes", "seed": 21, "max_time": 2.0,
                   "record": True}
        first = client.run(request)
        assert first["status"] == 200 and first["ok"]
        assert first["source"] == "executed"
        second = client.run(request)
        assert second["status"] == 200
        assert second["source"] == "cache"
        assert second["fingerprint"] == first["fingerprint"]
        # and both are bit-identical to the direct in-process run
        direct = run_workload("coordinated-heuristic", "blackscholes",
                              design_context, seed=21, max_time=2.0,
                              record=True)
        for response in (first, second):
            back = metrics_from_wire(response["result"])
            assert back.execution_time == direct.execution_time
            assert back.energy == direct.energy
            for name, arr in direct.trace.items():
                assert np.array_equal(back.trace[name], arr)

    def test_bad_request_is_400(self, client):
        response = client.run({"kind": "run", "scheme": "nope",
                               "workload": "mcf"})
        assert response["status"] == 400
        assert response["ok"] is False
        assert "scheme" in response["detail"]

    def test_unknown_route_is_404(self, client):
        status, _ = client.request("GET", "/no-such-endpoint")
        assert status == 404

    def test_stats_shape(self, client):
        stats = client.stats()
        for field in ("requests_total", "executed", "coalesced", "cached",
                      "rejected", "coalesce_hit_rate", "outstanding",
                      "queue_limit", "bank_batches", "store"):
            assert field in stats
        assert stats["store"] is not None

    def test_metrics_404_without_telemetry(self, client):
        status, _ = client.request("GET", "/metrics")
        assert status == 404


class TestCoalescing:
    def test_racing_identical_sleeps_execute_once(self, server):
        """N racing requests with one fingerprint -> exactly 1 execution."""
        with ServeClient(server.url) as probe:
            before = probe.stats()
        request = {"kind": "sleep", "duration": 0.4,
                   "nonce": "race-deterministic"}

        def _fire(_):
            with ServeClient(server.url, timeout=30.0) as c:
                return c.run(request, timeout=30.0)

        with ThreadPoolExecutor(max_workers=5) as pool:
            responses = list(pool.map(_fire, range(5)))
        assert all(r["status"] == 200 for r in responses)
        sources = sorted(r["source"] for r in responses)
        assert sources.count("executed") == 1
        assert sources.count("coalesced") == 4
        # every follower got the leader's exact payload
        nonces = {json.dumps(r["result"], sort_keys=True)
                  for r in responses}
        assert len(nonces) == 1
        with ServeClient(server.url) as probe:
            after = probe.stats()
        assert after["executed"] - before["executed"] == 1
        assert after["coalesced"] - before["coalesced"] >= 4

    def test_racing_identical_cells_execute_once(self, server):
        """Same race on a real simulation cell: one execution, identical
        bit-patterns everywhere (in-flight coalesce or store hit)."""
        request = {"kind": "run", "scheme": "decoupled-heuristic",
                   "workload": "mcf", "seed": 77, "max_time": 2.0,
                   "record": True}

        def _fire(_):
            with ServeClient(server.url, timeout=60.0) as c:
                return c.run(request, timeout=60.0)

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(_fire, range(6)))
        assert all(r["status"] == 200 for r in responses)
        assert sum(r["source"] == "executed" for r in responses) == 1
        payloads = {json.dumps(r["result"], sort_keys=True)
                    for r in responses}
        assert len(payloads) == 1

    def test_no_cache_still_coalesces_but_skips_store(self, server):
        request = {"kind": "run", "scheme": "coordinated-heuristic",
                   "workload": "fluidanimate", "seed": 91, "max_time": 2.0,
                   "no_cache": True}
        with ServeClient(server.url, timeout=60.0) as c:
            first = c.run(request, timeout=60.0)
            second = c.run(request, timeout=60.0)
        assert first["source"] == "executed"
        assert second["source"] == "executed"  # never stored, never warm


class TestBatchingAndLoadgen:
    def test_concurrent_bankable_cells_pack_into_banks(self, server):
        with ServeClient(server.url) as probe:
            before = probe.stats()
        requests = [
            {"kind": "run", "scheme": "coordinated-heuristic",
             "workload": w, "seed": 400 + i, "max_time": 3.0}
            for i, w in enumerate(["blackscholes", "mcf", "fluidanimate",
                                   "blackscholes", "mcf", "fluidanimate"])
        ]

        def _fire(request):
            with ServeClient(server.url, timeout=60.0) as c:
                return c.run(request, timeout=60.0)

        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(pool.map(_fire, requests))
        assert all(r["status"] == 200 for r in responses)
        with ServeClient(server.url) as probe:
            after = probe.stats()
        assert after["bank_batches"] > before["bank_batches"]
        assert after["banked_cells"] - before["banked_cells"] >= 2

    def test_monolithic_request_packs_with_layered_cells(self,
                                                         design_context):
        """A monolithic-LQG request rides one bank with a layered one and
        answers bit-identically to its direct run."""
        from repro.experiments import run_workload

        requests = [{"kind": "run", "scheme": scheme, "workload": "mcf",
                     "seed": 31, "max_time": 2.0}
                    for scheme in ("monolithic-lqg", "coordinated-heuristic")]
        with serve_background(design_context, jobs=0, batch=2,
                              batch_wait=30.0, cache=None) as handle:
            def _fire(request):
                with ServeClient(handle.url, timeout=60.0) as c:
                    return c.run(request, timeout=60.0)

            with ThreadPoolExecutor(max_workers=2) as pool:
                responses = list(pool.map(_fire, requests))
            with ServeClient(handle.url) as c:
                stats = c.stats()
        assert [r["status"] for r in responses] == [200, 200]
        assert stats["bank_batches"] == 1 and stats["banked_cells"] == 2
        assert stats["solo_cells"] == 0
        direct = run_workload("monolithic-lqg", "mcf", design_context,
                              seed=31, max_time=2.0, record=False)
        back = metrics_from_wire(responses[0]["result"])
        assert back.scheme == "monolithic-lqg"
        assert back.execution_time == direct.execution_time
        assert back.energy == direct.energy

    def test_duplicate_heavy_loadgen_coalesces(self, server):
        report = run_loadgen(server.url, requests=20, rate=0.0,
                             duplicates=0.5, seed=12, max_time=2.0,
                             timeout=120.0)
        assert report.all_ok, report.render()
        assert report.coalesce_hit_rate > 0.0
        assert report.sent == 20
        assert report.percentile(99) >= report.percentile(50)
        wire = report.to_dict()
        assert wire["ok"] == 20
        assert wire["coalesce_hit_rate"] > 0.0

    def test_loadgen_stream_is_deterministic(self):
        from repro.serve import generate_requests

        a = generate_requests(30, seed=5, duplicates=0.4, max_time=3.0)
        b = generate_requests(30, seed=5, duplicates=0.4, max_time=3.0)
        assert a == b
        c = generate_requests(30, seed=6, duplicates=0.4, max_time=3.0)
        assert a != c
        # the duplicate ratio materializes as repeated payloads
        unique = {json.dumps(r, sort_keys=True) for r in a}
        assert len(unique) < len(a)


class TestAdmissionAndDeadlines:
    def test_queue_full_is_structured_429(self, design_context):
        with serve_background(design_context, jobs=0, batch=1,
                              queue_limit=2, cache=None) as handle:
            occupants = [
                {"kind": "sleep", "duration": 1.2, "nonce": f"occupy-{i}"}
                for i in range(2)
            ]

            def _fire(request):
                with ServeClient(handle.url, timeout=30.0) as c:
                    return c.run(request, timeout=30.0)

            threads = [threading.Thread(target=_fire, args=(r,),
                                        daemon=True) for r in occupants]
            for thread in threads:
                thread.start()
                time.sleep(0.15)  # let each one be admitted
            with ServeClient(handle.url, timeout=30.0) as c:
                overflow = c.run({"kind": "sleep", "duration": 0.1,
                                  "nonce": "overflow"})
                assert overflow["status"] == 429
                assert overflow["error"] == "queue-full"
                assert overflow["queue_limit"] == 2
                assert overflow["retry_after_s"] > 0
                stats = c.stats()
            assert stats["rejected"] >= 1
            for thread in threads:
                thread.join(30.0)

    def test_deadline_expiry_is_structured_504(self, design_context):
        with serve_background(design_context, jobs=0, batch=1,
                              cache=None) as handle:
            with ServeClient(handle.url, timeout=30.0) as c:
                response = c.run({"kind": "sleep", "duration": 1.0,
                                  "nonce": "too-slow",
                                  "deadline_s": 0.15}, timeout=30.0)
            assert response["status"] == 504
            assert response["ok"] is False
            assert response["result"]["type"] == "cell_failure"
            assert response["result"]["reason"] == "timeout"

    def test_default_deadline_applies(self, design_context):
        with serve_background(design_context, jobs=0, batch=1, cache=None,
                              default_deadline=0.15) as handle:
            with ServeClient(handle.url, timeout=30.0) as c:
                response = c.run({"kind": "sleep", "duration": 1.0,
                                  "nonce": "server-deadline"},
                                 timeout=30.0)
            assert response["status"] == 504


class TestResultStoreResilience:
    def test_store_corruption_falls_back_to_fresh_execution(
            self, design_context, tmp_path):
        store_dir = tmp_path / "serve-store"
        request = {"kind": "run", "scheme": "coordinated-heuristic",
                   "workload": "mcf", "seed": 55, "max_time": 2.0,
                   "record": True}
        with serve_background(design_context, jobs=0, batch=1,
                              cache=str(store_dir)) as handle:
            with ServeClient(handle.url, timeout=60.0) as c:
                first = c.run(request, timeout=60.0)
                assert first["source"] == "executed"
                warm = c.run(request, timeout=60.0)
                assert warm["source"] == "cache"

                # corrupt every stored entry mid-flight
                corrupted = 0
                for root, _dirs, files in os.walk(store_dir):
                    for name in files:
                        path = os.path.join(root, name)
                        with open(path, "wb") as fh:
                            fh.write(b"\x00garbage, not a pickle\xff")
                        corrupted += 1
                assert corrupted >= 1

                # a corrupt entry is a miss: fresh execution, same bits
                again = c.run(request, timeout=60.0)
                assert again["source"] == "executed"
                assert json.dumps(again["result"], sort_keys=True) == \
                    json.dumps(first["result"], sort_keys=True)
                # ...and the re-execution repopulated the store
                rewarmed = c.run(request, timeout=60.0)
                assert rewarmed["source"] == "cache"


class TestObservabilityEndpoints:
    def test_status_text_and_json(self, client):
        text = client.status()
        assert isinstance(text, str) and text.strip()
        body = client.status(fmt="json")
        assert isinstance(body, dict)
        assert "serve" in body
        assert body["serve"]["requests_total"] >= 1

    def test_report_markdown_and_html(self, client):
        markdown = client.report()
        assert isinstance(markdown, str) and "#" in markdown
        html = client.report(html=True)
        assert "<html" in html.lower()

    def test_watch_streams_live_events(self, server):
        events = []
        done = threading.Event()

        def _subscribe():
            with ServeClient(server.url) as c:
                events.extend(c.watch(max_events=3, timeout=5.0))
            done.set()

        thread = threading.Thread(target=_subscribe, daemon=True)
        thread.start()
        time.sleep(0.4)  # let the subscription register
        with ServeClient(server.url, timeout=30.0) as c:
            c.run({"kind": "sleep", "duration": 0.05, "nonce": "watched"},
                  timeout=30.0)
        assert done.wait(10.0)
        assert events, "watcher saw no events"
        assert all(isinstance(e, dict) and "event" in e for e in events)

    def test_shutdown_endpoint_stops_server(self, design_context):
        handle = serve_background(design_context, jobs=0, batch=1,
                                  cache=None)
        try:
            with ServeClient(handle.url) as c:
                body = c.shutdown()
            assert body.get("ok", True)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not handle._thread.is_alive():
                    break
                time.sleep(0.05)
        finally:
            handle.stop()


class TestCLI:
    @pytest.mark.parametrize("argv", [["serve", "--help"],
                                      ["loadgen", "--help"]])
    def test_subcommands_parse(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out
