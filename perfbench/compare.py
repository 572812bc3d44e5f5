#!/usr/bin/env python3
"""Compare a parent run set with a change run set of perfbench results.

    python3 perfbench/compare.py PARENT CHANGE [--trace] [--json OUT]

PARENT and CHANGE are result files or directories of them (run.py writes
one per run to .bench_build/perfbench-results/). Run both sides on the
same host with the same --seconds, alternating which side runs first; the
i-th parent run is paired with the i-th change run in start order.

For every workload and metric it prints each side's median and quartiles
over its runs, the change's win fraction over the pairs, and a verdict
against the metric's bound from BENCHMARK.json:

  worse        the change's median is worse than the parent's by more than
               the bound, and the spread between runs is within the bound
               (or every change run is worse than every parent run);
  better       the change wins at least 9 of 10 pairs (10 pairs or more)
               and the medians differ by more than the parent's quartile
               distance;
  unresolved   the spread between runs is wider than the bound and no
               ordering of the runs settles it;
  within_bound none of the above: no regression beyond the bound.

Per-layer metrics (--trace) have no bound; they get medians, quartiles
and win fractions only. Exit status 1 when any metric is worse or the
change failed more operations than the parent, else 0.

Runs during which the hypervisor stole more than MAX_STEAL of the host's
CPU time (host.steal_share in the result) are flagged, not dropped: steal
slows every closed loop on the host, so rerun such a set on a quiet host
before trusting its verdicts. The program's own wake-ups raise steal too,
so dropping stolen runs could hide a change that adds wake-ups.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "perfbench-result/1"
MAX_STEAL = 0.05


def load_set(path, trace):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        with open(f) as fh:
            record = json.load(fh)
        if record.get("schema") == SCHEMA and record["trace"] == trace:
            runs.append(record)
    runs.sort(key=lambda r: r["started_unix"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent, change, better, bound):
    """Verdict for one metric; `parent`/`change` are per-run values in start order."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0

    def is_worse(c, p):
        return sign * (c - p) > 0

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_worse(p, c))
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_worse = min(change) > max(parent) if better == "lower" else max(change) < min(parent)
    all_better = max(change) < min(parent) if better == "lower" else min(change) > max(parent)

    if bound is None:
        verdict = "-"
    elif worse_by > bound and (spread <= bound or all_worse):
        verdict = "worse"
    elif len(pairs) >= 10 and win_fraction >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1):
        verdict = "better"
    elif (spread > bound or worse_by > bound) and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "runs": len(parent)},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": len(change)},
        "pairs": len(pairs),
        "win_fraction": win_fraction,
        "change_worse_by": worse_by,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def stolen(runs):
    """Seeds of the runs with more host steal than MAX_STEAL."""
    return [r.get("seed") for r in runs
            if r.get("notes", {}).get("host.steal_share", 0.0) > MAX_STEAL]


def compare(parent_runs, change_runs, spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    out = {"workloads": {}, "failed": {}, "stolen_runs": {}}
    workloads = sorted({r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs})
    for workload in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == workload]
        c_runs = [r for r in change_runs if r["workload"] == workload]
        rows = {}
        for m in metrics:
            p_vals = [r["metrics"][m["name"]]["value"] for r in p_runs if m["name"] in r["metrics"]]
            c_vals = [r["metrics"][m["name"]]["value"] for r in c_runs if m["name"] in r["metrics"]]
            if p_vals and c_vals:
                rows[m["name"]] = compare_metric(p_vals, c_vals, m["better"], m.get("bound"))
        out["workloads"][workload] = rows
        out["failed"][workload] = {"parent": sum(r["failed"] for r in p_runs),
                                   "change": sum(r["failed"] for r in c_runs)}
        out["stolen_runs"][workload] = {"parent": stolen(p_runs), "change": stolen(c_runs)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--trace", action="store_true", help="compare traced (per-layer) runs")
    parser.add_argument("--json", help="also write the comparison as JSON to this path")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent_runs = load_set(args.parent, args.trace)
    change_runs = load_set(args.change, args.trace)
    if not parent_runs or not change_runs:
        print("compare: no matching result files on one side", file=sys.stderr)
        return 2
    result = compare(parent_runs, change_runs, spec, args.trace)

    regressed = False
    for workload, rows in result["workloads"].items():
        failed = result["failed"][workload]
        print(f"== {workload}  (failed ops: parent {failed['parent']}, change {failed['change']})")
        steal = result["stolen_runs"][workload]
        if steal["parent"] or steal["change"]:
            print(f"  warning: host steal above {MAX_STEAL:.0%} in runs with seeds "
                  f"{steal['parent']} (parent) and {steal['change']} (change); "
                  "rerun on a quiet host")
        print(f"  {'metric':34s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'wins':>6s} {'worse_by':>9s} verdict")
        for name, row in rows.items():
            p, c = row["parent"], row["change"]
            print(f"  {name:34s} {p['median']:12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]".ljust(71) +
                  f" {c['median']:12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(35) +
                  f" {row['win_fraction']:6.2f} {row['change_worse_by']:+9.3f} {row['verdict']}")
            regressed |= row["verdict"] == "worse"
        regressed |= failed["change"] > failed["parent"]
    if args.json:
        with open(args.json, "w") as f:
            json.dump(result, f, indent=1)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
