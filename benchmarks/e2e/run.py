"""End-to-end benchmark: four workloads, measured end to end or by layer.

    python3 benchmarks/e2e/run.py [--workload matrix|sweep|rack|serve|all]
        [--seed S] [--seconds T] [--trace [0|1]] [--out DIR] [--smoke]

Run from the repository root.  Each workload runs in a fresh interpreter
(``workloads.py``) with a fresh design cache and server directories under
``--out``, so no run inherits a warm cache.  Untraced runs report every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs report every
per-layer metric instead.  Every metric is printed by name with its unit,
one JSON result file per workload run lands in ``--out``, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("matrix", "sweep", "rack", "serve")
CHILD_TIMEOUT_S = 170.0


def environment():
    """Host facts recorded beside every result."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def run_child(workload, args, out_dir, stamp):
    """One workload in a fresh interpreter; ``(result, spans_path)``."""
    work = out_dir / "work" / f"{workload}-{stamp}"
    (work / "tmp").mkdir(parents=True)
    spans_path = out_dir / f"{workload}-s{args.seed}-t{args.trace}-{stamp}" \
                           f"-spans.json"
    env = dict(os.environ,
               PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(work / "cache"),
               TMPDIR=str(work / "tmp"))
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--spans-out", str(spans_path)]
    if args.smoke:
        cmd.append("--smoke")
    # Own session, so a timeout can stop the servers the child started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: no result within "
                           f"{CHILD_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1]), (spans_path if args.trace else None)


def assemble(workload, child, spec, args, env, before, spans_path):
    """The result record: metrics with units, validity and environment."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = child.pop("metrics")
    checks = child.pop("checks")
    if set(values) != set(units):
        checks.append({"name": "metric set matches BENCHMARK.json",
                       "ok": False,
                       "detail": f"got {sorted(set(values) ^ set(units))}"})
    if not args.trace:
        bad = [k for k, v in values.items()
               if not (math.isfinite(v) and v > 0)]
        checks.append({"name": "end-to-end metrics finite and positive",
                       "ok": not bad, "detail": ", ".join(bad)})
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": all(c["ok"] for c in checks),
        "attempted": child.pop("attempted"),
        "failed": child.pop("failed"),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
        "checks": checks,
        "env": dict(env, python=child.pop("python"),
                    numpy=child.pop("numpy"), loadavg_before=before,
                    loadavg_after=os.getloadavg()),
        "spans_file": str(spans_path) if spans_path else None,
    }
    record["error_frac"] = record["failed"] / max(record["attempted"], 1)
    record.update(child)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result files (default "
                             "benchmarks/e2e/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; checks the plumbing, not speed")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"run.py: {ROOT} is not a repository checkout "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    records = []
    for workload in workloads:
        stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        before = os.getloadavg()
        try:
            child, spans_path = run_child(workload, args, out_dir, stamp)
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        record = assemble(workload, child, spec, args, env, before,
                          spans_path)
        path = out_dir / f"{workload}-s{args.seed}-t{args.trace}-{stamp}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        records.append(record)
        for check in record["checks"]:
            if not check["ok"]:
                print(f"{workload}: CHECK FAILED {check['name']} "
                      f"{check['detail']}", file=sys.stderr)
        for name, metric in record["metrics"].items():
            print(f"{workload:7s} {name:36s} {metric['value']:>16.6f} "
                  f"{metric['unit']}")
        print(f"{workload:7s} result {path}")

    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): metric
            for r in records for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
