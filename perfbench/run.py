#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload bulk|churn|recovery --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-golden FIRST-LAST

The first form runs one workload in its own process and prints, as its
last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
set, with --trace 1 its per_layer set (the traced run also writes its
spans to .bench_build/perfbench/). Each metric's unit is taken from
BENCHMARK.json. A run whose seed has an entry in perfbench/golden.txt
must reproduce that entry's simulated outputs exactly, or it is not
correct.

--selftest runs the canned-entry cross-check (test/crosscheck.ml) and
the determinism self-check: every workload twice on one seed and twice
on the next, in separate processes, whose deterministic outputs must
match each other exactly and match golden.txt, which must list both
seeds.

--all runs the three workloads one after another, prints a summary of
every end-to-end metric, then the self-test.

--write-golden rewrites golden.txt for the seeds FIRST..LAST. Do it only
with a change that is meant to alter the simulated model.

The benchmark is a dune project of its own (perfbench/dune-project). It
is built from source in a workspace under .bench_build/ws that holds it
and a copy of the repository's lib/, whose libraries are private to the
root project. Dune's shared cache is off, so nothing is read or written
outside the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
WORKSPACE = os.path.join(BUILD_DIR, "ws")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
GOLDEN = os.path.join("perfbench", "golden.txt")
WORKLOADS = ["bulk", "churn", "recovery"]
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def sync(src, dst, skip=()):
    """Make dst a fresh copy of the directory src (dune digests contents, so
    unchanged files are not recompiled)."""
    if os.path.isdir(dst):
        shutil.rmtree(dst)
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", *skip))


def build(*targets):
    """Build the given targets of the benchmark project; the build log goes to stderr."""
    for d in ("lib", "perfbench"):
        if not os.path.isdir(os.path.join(ROOT, d)):
            fail("run from the root of a checkout of the repository (no %s/ here)" % d)
    sync("lib", os.path.join(WORKSPACE, "lib"))
    sync("perfbench", os.path.join(WORKSPACE, "perfbench"), skip=("dune-project",))
    shutil.copyfile(os.path.join("perfbench", "dune-project"),
                    os.path.join(WORKSPACE, "dune-project"))
    cmd = [
        "dune", "build", "--root", WORKSPACE, "--cache=disabled", "--profile", "perfbench",
        "-j", "2", "--display", "quiet",
    ] + ["./perfbench/" + t for t in targets]
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return [os.path.join(WORKSPACE, "_build", "default", "perfbench", t) for t in targets]


def run_main(exe, workload, seed, seconds, trace, spans=None, echo=True, golden=True):
    """One workload process; returns (stdout lines, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if golden:
        cmd += ["--golden", GOLDEN]
    if spans:
        cmd += ["--spans", spans]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload, 1)
    lines = res.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if res.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, res.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result" % workload, 1)
    return lines, result


def with_units(result, declared):
    """The result with each metric's unit from BENCHMARK.json; it must
    carry exactly the declared metrics, each a number."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys %s" % sorted(result), 1)
    units = {m["name"]: m["unit"] for m in declared}
    got = set(result["metrics"])
    if got != set(units):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - got), sorted(got - set(units))), 1)
    metrics = {}
    for name, value in result["metrics"].items():
        if not isinstance(value, (int, float)):
            fail("metric %s has no numeric value" % name, 1)
        metrics[name] = {"value": value, "unit": units[name]}
    return dict(result, metrics=metrics)


def one(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    s = spec()
    (exe,) = build("main.exe")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = None
    if args.trace == 1:
        spans = os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
    _, result = run_main(exe, args.workload, args.seed, args.seconds, args.trace, spans)
    result = with_units(result, s["per_layer" if args.trace == 1 else "end_to_end"])
    for name, m in sorted(result["metrics"].items()):
        print("metric %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)


def line_of(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line
    fail("no %r line in output" % prefix, 1)


def selftest(seed):
    (exe, cross) = build("main.exe", "test/crosscheck.exe")
    ok = True
    print("== canned-entry cross-check", flush=True)
    res = subprocess.run([cross], timeout=900)
    ok = ok and res.returncode == 0
    print("== determinism self-check (seeds %d and %d)" % (seed, seed + 1), flush=True)
    for workload in WORKLOADS:
        for s in (seed, seed + 1):
            runs = [run_main(exe, workload, s, 0, 0, echo=False) for _ in range(2)]
            same = line_of(runs[0][0], "deterministic ") == line_of(runs[1][0], "deterministic ")
            correct = all(r[1]["correct"] and r[1]["failed"] == 0 for r in runs)
            golden = line_of(runs[0][0], "golden ").endswith(": matches")
            good = same and correct and golden
            print("%-4s %-8s seed %d: deterministic across processes: %s, correct: %s, "
                  "matches golden.txt: %s"
                  % ("ok" if good else "FAIL", workload, s, same, correct, golden), flush=True)
            if not same:
                for r in runs:
                    print("  " + line_of(r[0], "deterministic "))
            ok = ok and good
    print("selftest: %s" % ("PASS" if ok else "FAIL"), flush=True)
    return ok


def everything(args):
    s = spec()
    (exe,) = build("main.exe")
    names = [(m["name"], m["unit"]) for m in s["end_to_end"]]
    results = {}
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        _, result = run_main(exe, workload, args.seed, args.seconds, 0)
        results[workload] = with_units(result, s["end_to_end"])
    print("== summary (seed %d)" % args.seed)
    print("%-24s %s" % ("metric", "".join("%16s" % w for w in WORKLOADS)))
    for name, unit in names:
        cells = "".join("%16.6g" % results[w]["metrics"][name]["value"] for w in WORKLOADS)
        print("%-24s %s  %s" % (name, cells, unit))
    ratios = "".join("%16.6g" % (results[w]["failed"] / results[w]["attempted"])
                     for w in WORKLOADS)
    print("%-24s %s  %s" % ("failed_ratio", ratios, "failed/attempted"))
    ok = all(r["correct"] for r in results.values())
    ok = selftest(args.seed) and ok
    sys.exit(0 if ok else 1)


def write_golden(seeds):
    """Rewrite golden.txt from what this tree simulates on the given seeds."""
    first, _, last = seeds.partition("-")
    (exe,) = build("main.exe")
    lines = ["# workload seed md5-of-simulated-outputs; see run.py --write-golden"]
    for workload in WORKLOADS:
        for seed in range(int(first), int(last or first) + 1):
            out, result = run_main(exe, workload, seed, 0, 0, echo=False, golden=False)
            if not result["correct"]:
                fail("%s seed %d is not correct; golden.txt left alone" % (workload, seed), 1)
            digest = line_of(out, "model_fingerprint ").split()[1]
            lines.append("%s %d %s" % (workload, seed, digest))
            print(lines[-1], flush=True)
    with open(GOLDEN, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--write-golden", metavar="FIRST-LAST")
    args = p.parse_args()
    if args.write_golden:
        write_golden(args.write_golden)
        sys.exit(0)
    if args.selftest:
        sys.exit(0 if selftest(args.seed) else 1)
    if args.all:
        everything(args)
    if not args.workload:
        fail("--workload, --selftest or --all is required")
    one(args)


if __name__ == "__main__":
    main()
