"""Compare the benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR \\
        [--claim METRIC WORKLOAD]...

Each directory holds the result files ``run.py --out DIR`` wrote; only
untraced, full-size runs count.  For every (workload, metric) pair this
prints each side's median and quartiles and a verdict:

* a claimed gain (``--claim``) needs at least 10 pairs of runs with the
  same seed, a win in at least 9 of 10 pairs (ties count for neither),
  and a gap between the medians wider than the parent's quartile spread;
* every other pair may not get worse by more than the metric's bound in
  ``BENCHMARK.json``, and is "unresolved" when either side's quartile
  spread, as a share of its median, exceeds that bound -- unless every
  change run reads better than every parent run;
* the share of failed operations may not rise;
* a unit whose simulated-output digest differs between the sides is
  flagged as "simulated output changed".

Runs that failed a correctness check, and serve runs whose load
generator ran late (lateness p99 above the bound the run recorded), are
rejected before comparing.  Exit status 0 means no regression, nothing
unresolved, every claim met and no simulated output changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """Accepted records of one side, plus a note per rejected run."""
    records, rejected = [], []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") or record.get("smoke"):
            continue
        serve = record.get("serve") or {}
        if not record.get("correct"):
            rejected.append(f"{path.name}: failed a correctness check")
        elif serve.get("lateness_p99_ms", 0.0) > serve.get(
                "lateness_bound_ms", float("inf")):
            rejected.append(f"{path.name}: generator lateness p99 "
                            f"{serve['lateness_p99_ms']:.2f} ms > "
                            f"{serve['lateness_bound_ms']} ms")
        else:
            records.append(record)
    return records, rejected


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """Whether value ``a`` reads strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, direction, bound, claimed):
    """The verdict for one metric on one workload."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if claimed:
        wins = sum(1 for p, c in pairs if better(c, p, direction))
        gap = cm - pm if direction == "higher" else pm - cm
        if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                and gap > p3 - p1):
            return "gain"
        return f"claim not met ({wins}/{len(pairs)} pairs won)"
    worse = (cm - pm if direction == "lower" else pm - cm) / abs(pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "ok"


def digests(records):
    merged = {}
    for record in records:
        merged.update(record.get("digests", {}))
    return merged


def compare(parent, change, spec, claims=()):
    """Rows ``(workload, metric, parent quartiles, change quartiles,
    verdict)`` and the list of problems that make the comparison fail."""
    rows, problems = [], []
    claims = set(claims)
    workloads = sorted({r["workload"] for r in parent}
                       & {r["workload"] for r in change})
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        p_by_seed = {r["seed"]: r for r in p_runs}
        seed_pairs = [(p_by_seed[r["seed"]], r) for r in c_runs
                      if r["seed"] in p_by_seed]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in seed_pairs]
            claimed = (name, workload) in claims
            result = verdict(p_vals, c_vals, pairs, metric["better"],
                             metric["bound"], claimed)
            rows.append((workload, name, quartiles(p_vals),
                         quartiles(c_vals), result))
            if result not in ("ok", "gain"):
                problems.append(f"{workload} {name}: {result}")
        p_err = (sum(r["failed"] for r in p_runs)
                 / max(sum(r["attempted"] for r in p_runs), 1))
        c_err = (sum(r["failed"] for r in c_runs)
                 / max(sum(r["attempted"] for r in c_runs), 1))
        if c_err > p_err:
            problems.append(f"{workload} error_frac rose: {p_err:.4g} -> "
                            f"{c_err:.4g}")
        p_dig, c_dig = digests(p_runs), digests(c_runs)
        changed = [k for k in set(p_dig) & set(c_dig) if p_dig[k] != c_dig[k]]
        if changed:
            problems.append(f"{workload}: simulated output changed "
                            f"({len(changed)} units, "
                            f"e.g. {sorted(changed)[0]})")
    for name, workload in sorted(claims):
        if workload not in workloads:
            problems.append(f"{workload} {name}: claimed but not measured")
    return rows, problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", nargs=2, action="append", default=[],
                        metavar=("METRIC", "WORKLOAD"),
                        help="a gain this change claims (repeatable)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    for name, _workload in args.claim:
        if name not in names:
            parser.error(f"unknown metric {name!r}")
    parent, p_rejected = load(args.parent)
    change, c_rejected = load(args.change)
    for note in p_rejected:
        print(f"rejected parent run {note}")
    for note in c_rejected:
        print(f"rejected change run {note}")
    for side, records in (("parent", parent), ("change", change)):
        slowness = [statistics.median(r["host_slowness"]) for r in records
                    if r.get("host_slowness")]
        if slowness:
            q1, med, q3 = quartiles(slowness)
            print(f"{side} host slowness median {med:.3f} "
                  f"[{q1:.3f}, {q3:.3f}] over {len(slowness)} runs")
    rows, problems = compare(parent, change, spec,
                             [tuple(c) for c in args.claim])
    print(f"{'workload':8s} {'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for workload, name, (p1, pm, p3), (c1, cm, c3), result in rows:
        print(f"{workload:8s} {name:18s} {pm:12.4f} [{p1:9.4f}, {p3:9.4f}] "
              f"{cm:12.4f} [{c1:9.4f}, {c3:9.4f}]  {result}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    if not rows:
        print("no workload measured on both sides")
        return 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
