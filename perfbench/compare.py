#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are directories of run records (the JSON files run.py writes
to .bench_build/results/) or single record files. For every workload and
end-to-end metric it prints both medians, the change (positive is better)
and a verdict against the bound in BENCHMARK.json:

  regressed   head's median is worse than base's by more than the bound
  improved    head's median is better by more than the base's own spread
  unchanged   neither
  unresolved  base's runs spread wider than the bound, and not every head
              run beats every base run

Per-layer metrics from traced runs are listed with medians only. The exit
status is 1 when any metric regressed. Runs whose host fingerprints differ
(CPU count or model, compiler, build type, thread settings) are refused:
exit status 2 and no table.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(records):
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), []).append(
                m["value"])
    return out


def verdict(base, head, better, bound):
    b1, b2, b3 = quartiles(base)
    _, h2, _ = quartiles(head)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (h2 - b2) / b2 if b2 else 0.0      # > 0 is better
    spread = (b3 - b1) / b2 if b2 else 0.0
    if spread > bound:
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "improved", change
        return "unresolved", change
    if change < -bound:
        return "regressed", change
    if change > spread:
        return "improved", change
    return "unchanged", change


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    base, head = load(argv[1]), load(argv[2])
    if not base or not head:
        print("compare: no run records found", file=sys.stderr)
        return 1
    # Thread settings include the workload's engine threads, so runs are
    # matched against the first base run of their own workload.
    reference = {}
    for r in base:
        reference.setdefault(r["workload"], r["fingerprint"])
    for r in base + head:
        ref = reference.get(r["workload"], r["fingerprint"])
        differ = benchlib.fingerprint_mismatch(ref, r["fingerprint"])
        if differ:
            print("compare: refusing to compare runs from different hosts "
                  "or settings (%s differs: %r vs %r)" % (
                      ", ".join(differ),
                      {k: ref.get(k) for k in differ},
                      {k: r["fingerprint"].get(k) for k in differ}),
                  file=sys.stderr)
            return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    gb, gh = group(base), group(head)
    worst = 0
    print("%-16s %-28s %12s %12s %8s  %s" % (
        "workload", "metric", "base p50", "head p50", "change", "verdict"))
    for key in sorted(set(gb) & set(gh)):
        workload, trace, name = key
        if trace != 0 or name not in bounds:
            continue
        m = bounds[name]
        v, change = verdict(gb[key], gh[key], m["better"], m["bound"])
        worst = max(worst, v == "regressed")
        print("%-16s %-28s %12.5g %12.5g %+7.1f%%  %s" % (
            workload, name, quartiles(gb[key])[1], quartiles(gh[key])[1],
            100 * change, v))
    layer = sorted(k for k in set(gb) & set(gh) if k[1] == 1)
    if layer:
        print("\nper-layer medians (traced runs)")
        for workload, _, name in layer:
            key = (workload, 1, name)
            print("%-16s %-28s %12.5g %12.5g" % (
                workload, name, quartiles(gb[key])[1], quartiles(gh[key])[1]))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
