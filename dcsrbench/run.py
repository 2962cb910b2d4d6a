#!/usr/bin/env python3
"""Builds and runs the dcSR benchmark.

    python3 dcsrbench/run.py --workload server_news|client_music|fleet_zipf \
        --seed N --seconds S --trace 0|1
    python3 dcsrbench/run.py --report [--seed N] [--seconds S]
    python3 dcsrbench/run.py --self-test

Run from the root of a checkout. The harness (dcsrbench/CMakeLists.txt,
which builds the product's libraries with the product's own flags) is built
under $CARGO_TARGET_DIR, default .bench_build, on first use. Build output
goes to standard error; standard output carries only the harness's lines,
the last of which is the result object. Each run also writes its result with
the host fingerprint, and the Chrome trace of a traced run, to
--results-dir (default <build dir>/results/).

--report runs every workload untraced and traced and prints a table of all
metrics. --self-test runs the harness's own tests and checks that the metric
names and units match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
WORKLOADS = ("server_news", "client_music", "fleet_zipf")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("dcsrbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "server_pipeline.cpp")):
        fail("product sources not found next to " + PKG)
    out = os.path.join(build_dir(), "dcsrbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PKG, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def run_harness(binary, args):
    """Runs the harness, echoing its standard output; returns (code, lines)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode, stdout.splitlines()


def harness_args(workload, seed, seconds, trace, results):
    results = results or os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", results]


def report(binary, seed, seconds, results):
    rows = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_harness(binary, harness_args(w, seed, seconds, trace, results))
            if code != 0 or not lines:
                fail("%s exited with %d" % (w, code))
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                rows.append((w, name, m["value"], m["unit"], result["correct"]))
    print("\n%-13s %-36s %16s %-8s %s" % ("workload", "metric", "value", "unit", "correct"))
    for w, name, value, unit, ok in rows:
        print("%-13s %-36s %16.6g %-8s %s" % (w, name, value, unit, ok))


def self_test(out):
    test = subprocess.run([os.path.join(out, "dcsrbench_test")], stdout=sys.stderr)
    listed = json.loads(subprocess.run([os.path.join(out, "dcsr_bench"), "--list-metrics"],
                                       stdout=subprocess.PIPE, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    ok = test.returncode == 0
    for key in ("end_to_end", "per_layer"):
        want = [[m["name"], m["unit"]] for m in declared[key]]
        if want != listed[key]:
            ok = False
            print("dcsrbench: BENCHMARK.json %s differs from the harness: %s vs %s"
                  % (key, want, listed[key]), file=sys.stderr)
    if not set(WORKLOADS) == {w["name"] for w in declared["workloads"]}:
        ok = False
        print("dcsrbench: BENCHMARK.json workloads differ from the harness", file=sys.stderr)
    print("self-test " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--results-dir", help="where result files go "
                   "(default <build dir>/results)")
    a = p.parse_args()
    if a.self_test:
        self_test(build(["dcsr_bench", "dcsrbench_test"]))
    out = build(["dcsr_bench"])
    binary = os.path.join(out, "dcsr_bench")
    if a.report:
        report(binary, a.seed, a.seconds, a.results_dir)
    elif a.workload:
        code, _ = run_harness(binary, harness_args(a.workload, a.seed, a.seconds, a.trace,
                                                     a.results_dir))
        sys.exit(code)
    else:
        p.error("one of --workload, --report or --self-test is required")


if __name__ == "__main__":
    main()
