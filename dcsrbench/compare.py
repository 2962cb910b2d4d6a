#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 dcsrbench/compare.py BASE NEW

BASE and NEW are result files written by dcsrbench/run.py, or directories of
them. run.py writes them under <build dir>/results/ unless given
--results-dir, so give each side its own directory (or copy the results
aside between the two sets of runs): the file names carry only workload,
seed and trace mode, and a second set overwrites the first.

Results are grouped by workload; for each metric the medians of the two
sides are compared, and end-to-end metrics are checked against their bounds
in BENCHMARK.json. The script refuses to compare (exit 2) when the host
fingerprints differ (CPU, thread count, dispatch line, build type,
compiler), when the two sides do not cover the same (workload, seed, trace)
runs, when any run's output checks failed, or when NEW has more failed
operations than BASE. A regression beyond a bound exits 1.
"""

import glob
import json
import os
import statistics
import sys

PKG = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*-trace[01].json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f) as fh:
            out.append(json.load(fh))
    if not out:
        sys.exit("compare: no result files under " + path)
    return out


def refuse(why):
    print("compare: refusing to compare: " + why)
    sys.exit(2)


def run_key(r):
    return (r["workload"], r["seed"], r["trace"])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    ref = base[0]["fingerprint"]
    for r in base + new:
        diff = sorted(k for k in set(ref) | set(r["fingerprint"])
                      if ref.get(k) != r["fingerprint"].get(k))
        if diff:
            refuse("results from different hosts or builds; fingerprint fields differ: "
                   + ", ".join(diff))
    for side, results in (("BASE", base), ("NEW", new)):
        bad = sorted("%s seed %d trace %d" % run_key(r) for r in results
                     if not r["result"]["correct"])
        if bad:
            refuse("%s has runs whose output checks failed: %s" % (side, "; ".join(bad)))
    kb, kn = sorted(map(run_key, base)), sorted(map(run_key, new))
    if kb != kn:
        refuse("the two sides cover different (workload, seed, trace) runs: only in BASE %s, "
               "only in NEW %s" % (sorted(set(kb) - set(kn)), sorted(set(kn) - set(kb))))
    failed_b = sum(r["result"]["failed"] for r in base)
    failed_n = sum(r["result"]["failed"] for r in new)
    if failed_n > failed_b:
        refuse("NEW has %d failed operations, BASE %d" % (failed_n, failed_b))
    with open(os.path.join(os.path.dirname(PKG), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def groups(results):
        g = {}
        for r in results:
            for name, m in r["result"]["metrics"].items():
                g.setdefault((r["workload"], name), []).append(m["value"])
        return g

    gb, gn = groups(base), groups(new)
    regressed = False
    print("%-13s %-36s %14s %14s %9s  %s" % ("workload", "metric", "base median", "new median",
                                             "change", "verdict"))
    for key in sorted(set(gb) & set(gn)):
        b, n = statistics.median(gb[key]), statistics.median(gn[key])
        if b == 0 and n == 0:
            continue  # a layer this workload never calls
        change = (n - b) / b if b else 0.0
        worse = change if better.get(key[1]) == "lower" else -change
        verdict = ""
        if key[1] in bounds:
            limit = bounds[key[1]]["bound"]
            verdict = "REGRESSION (bound %.2f)" % limit if worse > limit else "ok"
            regressed = regressed or worse > limit
        print("%-13s %-36s %14.6g %14.6g %+8.1f%%  %s  (n=%d/%d)"
              % (key[0], key[1], b, n, 100 * change, verdict, len(gb[key]), len(gn[key])))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
