#!/usr/bin/env python3
"""Compares two sets of campaign-benchmark result files.

    python3 campbench/compare.py --base a1.json a2.json ... --new b1.json ...

Every file is one run's result (run.py writes them under
.bench_build/campbench/results/, or to --out). All files must be of the
same workload and mode, and all must carry the same host fingerprint (CPU
model, nproc, compiler, build type): results from different hosts or builds
are refused, never compared. For each end-to-end metric of BENCHMARK.json
it prints both medians and whether the new median stays within the
metric's bound.

Exit codes: 0 within bounds, 1 a metric is worse than its bound, 3 refused.
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

REFUSED = 3


class Refused(Exception):
    pass


def check_comparable(records):
    """Raises Refused unless every record shares host, workload and mode."""
    first = records[0]
    for r in records[1:]:
        if r["fingerprint"]["host"] != first["fingerprint"]["host"]:
            raise Refused("host fingerprints differ: %s vs %s" % (
                json.dumps(first["fingerprint"]["host"], sort_keys=True),
                json.dumps(r["fingerprint"]["host"], sort_keys=True)))
        for key in ("workload", "trace"):
            if r[key] != first[key]:
                raise Refused("%s differs: %r vs %r" % (key, first[key],
                                                         r[key]))


def compare(base, new, metrics):
    """Rows of (name, unit, base median, new median, worse share, bound,
    ok) for every metric both sides report."""
    rows = []
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base
             if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new
             if name in r["metrics"]]
        if not b or not n:
            continue
        mb, mn = stats.median(b), stats.median(n)
        if mb != 0:
            share = stats.worse_share(mb, mn, m["better"])
        elif mn == 0:
            share = 0.0
        else:  # from nothing to something: infinitely better or worse
            worse = (mn > 0) == (m["better"] == "lower")
            share = math.inf if worse else -math.inf
        bound = m.get("bound")
        rows.append((name, m["unit"], mb, mn, share, bound,
                     bound is None or share <= bound))
    return rows


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    try:
        check_comparable(base + new)
    except Refused as e:
        print("refused: " + str(e), file=sys.stderr)
        return REFUSED
    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if base[0]["trace"] else bench["end_to_end"]
    ok = True
    for name, unit, mb, mn, share, bound, good in compare(base, new,
                                                          metrics):
        verdict = "" if bound is None else ("ok" if good else "WORSE")
        print("%-32s %-6s base %-12.6g new %-12.6g %+7.2f%%  bound %s  %s" % (
            name, unit, mb, mn, 100 * share,
            "-" if bound is None else "%g%%" % (100 * bound), verdict))
        ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
