"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``            render Tables I-IV
``design``            run the two-layer design flow and print the summaries
``run``               run one workload under one scheme
``fig9`` .. ``fig17`` regenerate a paper figure (text rendering)
``hwcost``            the Sec. VI-D hardware implementation analysis
``exhaustion``        the guardband-exhaustion detection experiment
``resilience``        the fault-matrix sweep under the safe-mode supervisor
``three-layer``       the Sec. III-D three-layer demonstration
``rack``              the rack-scale (third layer) campaign triple
``serve``             long-lived concurrent experiment server (HTTP/JSON)
``loadgen``           deterministic open-loop load generator for ``serve``
``status``            live progress/ETA/health of a (running) campaign
``report``            markdown/HTML report of a campaign or telemetry
                      directory (alias: ``trace``)
``verify``            invariant monitor + oracle pairs + golden traces

Telemetry
---------
Every experiment command accepts ``--telemetry DIR``: the run then records
control-loop spans (``spans.jsonl`` + Perfetto-loadable ``trace.json``), a
metrics snapshot (``metrics.prom`` / ``metrics.json``), and flight-recorder
dumps (``flight-*.json``) triggered by supervisor transitions and fault
injections.  Inspect a finished directory with ``python -m repro report DIR``.
``--profile`` additionally prices each control period's phases (sensing /
controller / optimizer / actuation / plant step / telemetry) into
p50/p90/p99 histograms; campaign runs with ``--checkpoint-dir`` or
``--telemetry`` also append a live ``events.jsonl`` stream that ``repro
status DIR`` and ``repro report DIR`` read back (see
``docs/OBSERVABILITY.md``).

Fault tolerance
---------------
Experiment commands also accept ``--checkpoint-dir DIR`` (journal each
completed campaign cell), ``--resume`` (replay journaled cells and run
only the missing ones — bit-identical to an uninterrupted run),
``--cell-timeout S`` and ``--max-retries N`` (supervised workers: hung or
crashed cells are killed, retried with exponential backoff, and finally
salvaged as structured failures instead of aborting the campaign).  See
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import argparse
import sys


def _add_context_args(parser):
    parser.add_argument("--samples", type=int, default=160,
                        help="characterization samples per training program")
    parser.add_argument("--seed", type=int, default=1234,
                        help="characterization seed")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="record metrics/spans/flight dumps into DIR")
    parser.add_argument("--profile", action="store_true",
                        help="profile control-loop phases (sensing/"
                             "controller/optimizer/actuation/plant step) "
                             "into p50/p90/p99 histograms (needs "
                             "--telemetry)")
    parser.add_argument("--profile-sample", type=int, default=1, metavar="N",
                        help="profile every Nth control period (default 1 "
                             "= all)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for the experiment matrix "
                             "(-1 = all cores; default serial)")
    parser.add_argument("--batch", type=int, default=None, metavar="B",
                        help="pack up to B same-spec simulations into one "
                             "lockstep board bank per task (bit-identical "
                             "results; composes with --jobs)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="design-artifact cache directory "
                             "(default $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent design-artifact cache")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="journal completed campaign cells into DIR "
                             "(append-only, atomically written)")
    parser.add_argument("--resume", action="store_true",
                        help="replay cells already in --checkpoint-dir and "
                             "run only the missing ones (bit-identical to "
                             "an uninterrupted run)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="S",
                        help="kill and retry any cell exceeding S seconds "
                             "of wall-clock (needs worker processes: "
                             "--jobs > 1, or --jobs >= 1 for serve)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retry a crashed/timed-out/raising cell up to "
                             "N times with exponential backoff (default 2 "
                             "when supervision is active)")


def _resolve_cache(args):
    from repro.cache import DesignCache

    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return DesignCache(args.cache_dir)
    return DesignCache()


def _make_context(args):
    from repro.experiments import DesignContext

    print("Building design context (characterization + synthesis)...",
          file=sys.stderr)
    context = DesignContext.create(samples_per_program=args.samples,
                                   seed=args.seed, cache=_resolve_cache(args))
    if context.cache is not None and context.cache.hits:
        print(f"Design cache: {context.cache.hits} hit(s) from "
              f"{context.cache.root}", file=sys.stderr)
    return context


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Yukta (ISCA 2018) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="render Tables I-IV")

    p_status = sub.add_parser(
        "status",
        help="progress/ETA/retry health of a campaign directory "
             "(works on finished, crashed, and still-running campaigns)",
    )
    p_status.add_argument("dir", help="campaign (checkpoint or telemetry) "
                                      "directory holding events.jsonl")

    p_report = sub.add_parser(
        "report", aliases=["trace"],
        help="report of a campaign or --telemetry directory: health + "
             "control-quality KPIs + phase profile + spans + flight dumps "
             "+ metrics",
    )
    # One handler whichever name was typed.
    p_report.set_defaults(command="report")
    p_report.add_argument("dir", help="campaign directory (checkpoint "
                                      "journal and/or telemetry artifacts)")
    p_report.add_argument("--out", metavar="FILE", default=None,
                          help="write the markdown report to FILE instead "
                               "of stdout")
    p_report.add_argument("--html", metavar="FILE", default=None,
                          help="also write a standalone HTML rendering")
    p_report.add_argument("--title", default=None,
                          help="report title (default: directory name)")

    p_design = sub.add_parser("design", help="two-layer design flow summary")
    _add_context_args(p_design)

    p_run = sub.add_parser("run", help="run one workload under one scheme")
    _add_context_args(p_run)
    p_run.add_argument("scheme", help="scheme name (see 'tables')")
    p_run.add_argument("workload", help="program or mix name")

    figure_commands = {
        "fig9": ("fig9", dict(quick=False)),
        "fig10": ("fig10", {}),
        "fig12": ("fig12", dict(quick=False)),
        "fig14": ("fig14", {}),
        "fig15": ("fig15", {}),
        "fig16": ("fig16", {}),
        "fig17": ("fig17", {}),
        "hwcost": ("hwcost", {}),
        "exhaustion": ("exhaustion", {}),
        "three-layer": ("three_layer", {}),
    }
    for name in figure_commands:
        p_fig = sub.add_parser(name, help=f"regenerate {name}")
        _add_context_args(p_fig)

    p_rack = sub.add_parser(
        "rack",
        help="rack-scale campaign: facility cap distribution over a "
             "board bank (cap step, job stream, fault reallocation)",
    )
    _add_context_args(p_rack)
    p_rack.add_argument("--quick", action="store_true",
                        help="reduced job stream / shorter horizons")
    p_rack.add_argument("--boards", type=int, default=4,
                        help="boards in the rack (default 4)")

    p_serve = sub.add_parser(
        "serve",
        help="start the control-plane service: a concurrent experiment "
             "server with request coalescing, cross-request bank "
             "batching, and bounded-queue admission (see docs/SERVING.md)",
    )
    _add_context_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8752,
                         help="listen port (0 = ephemeral; default 8752)")
    p_serve.add_argument("--batch-wait", type=float, default=0.02,
                         metavar="S",
                         help="how long to hold a run cell for "
                              "co-arrivals before dispatching (default "
                              "0.02 s)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="admission queue bound; overflow gets a "
                              "structured 429 (default 64)")
    p_serve.add_argument("--serve-dir", metavar="DIR", default=None,
                         help="campaign directory for events.jsonl and the "
                              "default result store (default: a fresh "
                              "temp dir)")
    p_serve.add_argument("--default-deadline", type=float, default=None,
                         metavar="S",
                         help="deadline applied to requests that do not "
                              "carry their own deadline_s")

    p_load = sub.add_parser(
        "loadgen",
        help="fire a deterministic open-loop request burst at a running "
             "'repro serve' and report rps / p50 / p99 / coalesce rate",
    )
    p_load.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8752")
    p_load.add_argument("--requests", type=int, default=50,
                        help="requests to fire (default 50)")
    p_load.add_argument("--rate", type=float, default=20.0,
                        help="offered arrival rate, req/s (0 = all at "
                             "once; default 20)")
    p_load.add_argument("--duplicates", type=float, default=0.3,
                        help="probability a request repeats an earlier one "
                             "verbatim (default 0.3)")
    p_load.add_argument("--seed", type=int, default=0,
                        help="stream + arrival seed (default 0)")
    p_load.add_argument("--max-time", type=float, default=6.0,
                        help="simulated horizon per requested cell "
                             "(default 6 s)")
    p_load.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="per-request deadline_s to attach")
    p_load.add_argument("--record", action="store_true",
                        help="request full traces (bigger responses)")
    p_load.add_argument("--timeout", type=float, default=120.0,
                        help="client-side transport timeout (default 120)")
    p_load.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of a "
                             "summary line")

    p_res = sub.add_parser(
        "resilience",
        help="fault-matrix sweep under the safe-mode supervisor",
    )
    _add_context_args(p_res)
    p_res.add_argument("--quick", action="store_true",
                       help="reduced 3-scenario fault matrix")
    p_res.add_argument("--fault-time", type=float, default=60.0,
                       help="fault onset time (s)")

    p_verify = sub.add_parser(
        "verify",
        help="invariant monitor + differential oracles + golden traces",
    )
    p_verify.add_argument("--quick", action="store_true",
                          help="CI smoke configuration (smaller budgets)")
    p_verify.add_argument("--regen-golden", action="store_true",
                          help="re-mint the golden traces instead of "
                               "comparing against them")
    p_verify.add_argument("--golden-dir", metavar="DIR", default=None,
                          help="golden-trace directory "
                               "(default tests/golden/)")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="characterization samples per training "
                               "program (default 48 quick / 120 full)")
    p_verify.add_argument("--seed", type=int, default=99,
                          help="verification context seed")
    p_verify.add_argument("--jobs", "-j", type=int, default=2,
                          help="worker processes for the parallel oracle")
    p_verify.add_argument("--telemetry", metavar="DIR", default=None,
                          help="record metrics/spans/flight dumps into DIR")

    p_bench = sub.add_parser(
        "bench",
        help="run the performance benchmark (benchmarks/bench_perf.py) "
             "and enforce its speedup floors",
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="CI smoke configuration (smaller budgets)")
    p_bench.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes for the matrix benchmark")
    p_bench.add_argument("--out", metavar="FILE", default=None,
                         help="write results JSON here "
                              "(default BENCH_perf.json at the repo root)")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the design-artifact cache"
    )
    p_cache.add_argument("action", choices=("info", "clear"),
                         help="'info' lists entries, 'clear' deletes them")
    p_cache.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache directory (default $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")

    args = parser.parse_args(argv)

    if args.command == "tables":
        from repro.experiments import tables

        print(tables.render_all())
        return 0

    if args.command == "status":
        from repro.obs import render_status

        try:
            print(render_status(args.dir))
        except FileNotFoundError as exc:
            print(f"repro status: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "report":
        from repro.obs import build_report, to_html

        try:
            markdown = build_report(args.dir, title=args.title)
        except FileNotFoundError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(markdown)
            print(f"report written to {args.out}", file=sys.stderr)
        if args.html:
            from pathlib import Path

            Path(args.html).write_text(to_html(
                markdown, title=args.title or f"repro campaign: {args.dir}"))
            print(f"HTML report written to {args.html}", file=sys.stderr)
        if not args.out and not args.html:
            print(markdown, end="")
        return 0

    if args.command == "bench":
        import runpy
        from pathlib import Path

        bench = (Path(__file__).resolve().parents[2] / "benchmarks"
                 / "bench_perf.py")
        if not bench.is_file():
            print(f"benchmark script not found: {bench} "
                  "(repro bench needs the repository checkout)",
                  file=sys.stderr)
            return 2
        bench_argv = []
        if args.quick:
            bench_argv.append("--quick")
        if args.jobs is not None:
            bench_argv += ["--jobs", str(args.jobs)]
        if args.out is not None:
            bench_argv += ["--out", args.out]
        module = runpy.run_path(str(bench))
        return module["main"](bench_argv)

    if args.command == "loadgen":
        import json as _json

        from repro.serve import run_loadgen, wait_ready

        wait_ready(args.url, timeout=args.timeout)
        report = run_loadgen(
            args.url, requests=args.requests, rate=args.rate,
            duplicates=args.duplicates, seed=args.seed,
            max_time=args.max_time, record=args.record,
            deadline_s=args.deadline, timeout=args.timeout,
        )
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.all_ok else 1

    if args.command == "cache":
        from repro.cache import DesignCache

        cache = DesignCache(args.cache_dir) if args.cache_dir else DesignCache()
        if args.action == "info":
            print(cache.info())
        else:
            removed = cache.clear()
            print(f"removed {removed} cache entr"
                  f"{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0

    session = None
    if getattr(args, "profile", False) and not getattr(args, "telemetry",
                                                       None):
        parser.error("--profile requires --telemetry")
    if getattr(args, "telemetry", None):
        from repro.telemetry import TelemetrySession, activate

        session = activate(TelemetrySession(
            args.telemetry,
            profile=bool(getattr(args, "profile", False)),
            profile_sample=max(int(getattr(args, "profile_sample", 1) or 1),
                               1),
        ))
        print(f"Telemetry enabled: recording to {args.telemetry}"
              + (" (phase profiling on)"
                 if getattr(args, "profile", False) else ""),
              file=sys.stderr)
    policy = None
    wants_runtime = (
        getattr(args, "checkpoint_dir", None)
        or getattr(args, "resume", False)
        or getattr(args, "cell_timeout", None) is not None
        or getattr(args, "max_retries", None) is not None
    )
    if wants_runtime:
        from repro.runtime import ExecutionPolicy, activate_policy

        if getattr(args, "resume", False) and not args.checkpoint_dir:
            parser.error("--resume requires --checkpoint-dir")
        policy = activate_policy(ExecutionPolicy(
            checkpoint_dir=args.checkpoint_dir,
            resume=bool(getattr(args, "resume", False)),
            cell_timeout=args.cell_timeout,
            max_retries=args.max_retries,
        ))
        if args.checkpoint_dir:
            print(f"Checkpointing campaign cells to {args.checkpoint_dir}"
                  + (" (resuming)" if policy.resume else ""),
                  file=sys.stderr)
    try:
        return _dispatch(args, figure_commands)
    finally:
        if policy is not None:
            from repro.runtime import deactivate_policy

            deactivate_policy()
        if session is not None:
            if session.profiler is not None:
                print(session.profiler.render(), file=sys.stderr)
            session.close()
            print(
                f"Telemetry written to {args.telemetry} "
                "(inspect with: python -m repro report "
                f"{args.telemetry})",
                file=sys.stderr,
            )


def _serve_forever(args, context):
    """Run the control-plane service in the foreground until SIGINT/TERM.

    The design-artifact cache (``--cache-dir``) and the serve result
    store are separate concerns: results default to
    ``<serve-dir>/results`` so a throwaway server never pollutes the
    global design cache, while ``--cache-dir`` points both at a shared
    root for warm restarts.  ``--no-cache`` disables the result store
    (every request executes or coalesces; nothing persists).
    """
    import asyncio
    import signal

    from repro.cache import DesignCache
    from repro.serve import ExperimentServer
    from repro.telemetry import active_session

    if getattr(args, "no_cache", False):
        store = None
    elif getattr(args, "cache_dir", None):
        store = DesignCache(args.cache_dir)
    else:
        store = True  # resolved to <serve_dir>/results below

    async def _amain():
        serve_dir = args.serve_dir
        server = ExperimentServer(
            context,
            host=args.host,
            port=args.port,
            jobs=args.jobs or 0,
            batch=args.batch or 1,
            batch_wait=args.batch_wait,
            queue_limit=args.queue_limit,
            cache=None if store is True else store,
            serve_dir=serve_dir,
            default_deadline=args.default_deadline,
            telemetry=active_session(),
        )
        if store is True:
            server.store = DesignCache(server.serve_dir / "results")
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        print(f"repro serve listening on {server.url} "
              f"(jobs={server.jobs}, batch={server.batch}, "
              f"queue_limit={server.queue_limit}, "
              f"serve_dir={server.serve_dir}) -- Ctrl-C to stop",
              file=sys.stderr)
        try:
            await server.wait_stopped()
        finally:
            await server.stop()
            print("repro serve: stopped", file=sys.stderr)

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0


def _dispatch(args, figure_commands):
    if args.command == "verify":
        from repro.telemetry import active_session
        from repro.verify import run_verify

        report = run_verify(
            quick=args.quick,
            regen_golden=args.regen_golden,
            golden_dir=args.golden_dir,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
            telemetry=active_session(),
            log=lambda line: print(line, file=sys.stderr),
        )
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "rack":
        # Rack campaigns build their own plant specs — no characterization
        # context needed, so skip the design-flow spin-up entirely.
        from repro.experiments import rack as rack_experiment

        result = rack_experiment.run(
            None, quick=args.quick, seed=args.seed, jobs=args.jobs,
            batch=args.batch, n_boards=args.boards,
            progress=lambda line: print(line, file=sys.stderr),
        )
        print(result.render())
        return 0

    context = _make_context(args)

    if args.command == "serve":
        return _serve_forever(args, context)

    if args.command == "design":
        print(context.get_hw_design().summary())
        print()
        print(context.get_sw_design().summary())
        return 0

    if args.command == "run":
        from repro.experiments import run_workload

        metrics = run_workload(args.scheme, args.workload, context)
        print(metrics.summary())
        return 0

    if args.command == "resilience":
        from repro.experiments import resilience

        result = resilience.run(context, quick=args.quick,
                                fault_time=args.fault_time,
                                jobs=args.jobs,
                                batch=bool(args.batch),
                                progress=lambda line: print(line, file=sys.stderr))
        print(result.render())
        return 0

    module_name, kwargs = figure_commands[args.command]
    import importlib
    import inspect

    module = importlib.import_module(f"repro.experiments.{module_name}")
    parameters = inspect.signature(module.run).parameters
    if "jobs" in parameters:
        kwargs = dict(kwargs, jobs=args.jobs)
    if "batch" in parameters and args.batch:
        kwargs = dict(kwargs, batch=args.batch)
    result = module.run(context, **kwargs)
    print(result.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
