#!/usr/bin/env python3
"""Benchmark for the arinoc simulator: speed, model output and accuracy.

Builds perfbench_run (the library and the program that drives it, see
CMakeLists.txt), runs one workload for one seed, checks every simulated
output against the reference digest for that (workload, seed), and prints
the metrics. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics.

    python3 perfbench/run.py --workload fig11-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-references --workload bfs-chiplet --seeds 1-10

Run it from the root of the repository. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("fig11-sweep", "bfs-chiplet", "matrixMul-observed")
# The Fig. 11 headline: Ada-ARI over Ada-Baseline IPC, geomean over the suite.
FIG11_PAPER_GAIN = 1.154
# Environment the library would read; the benchmark pins all of it.
IGNORED_ENV = (
    "ARINOC_RUN_CYCLES", "ARINOC_WARMUP_CYCLES", "ARINOC_THREADS",
    "ARINOC_JOBS", "ARINOC_CACHE_DIR", "ARINOC_NO_CACHE",
    "ARINOC_SAMPLE_INTERVAL", "ARINOC_TELEMETRY_DIR", "ARINOC_ATTR_DIR",
)
# A run measures for --seconds and then finishes its last repetition; the
# slowest repetition (a traced fig11-sweep) takes about 90 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds perfbench_run; returns its path or exits 3."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no arinoc source tree next to perfbench/")
        sys.exit(2)
    cmake_dir = os.path.join(build_dir(), "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    logfile = os.path.join(build_dir(), "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench_run",
                  "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logfile) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (%s)" % logfile)
                sys.exit(3)
    return os.path.join(cmake_dir, "perfbench_run")


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in a child process; returns its raw measurements."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.raw.json"
                       % (workload, seed, trace))
    env = {k: v for k, v in os.environ.items() if k not in IGNORED_ENV}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--out", out, "--scratch", os.path.join(build_dir(), "tmp")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload,
                                                         RUN_TIMEOUT_S))
        sys.exit(4)
    if proc.returncode != 0:
        log("perfbench: perfbench_run exited %d" % proc.returncode)
        sys.exit(4)
    with open(out) as f:
        return json.load(f)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_outputs(raw, reference):
    """Counts checked cells and failed ones. A pass whose digest differs
    from the reference fails every cell it holds, as does one with an
    attribution conservation violation; otherwise its failed cells are the
    ones that raised (watchdog trip, exception, failed self-check)."""
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(raw["reps"]):
        for p in rep["passes"]:
            attempted += p["cells"]
            bad = p["errors"]
            if p["digest"] is not None and p["digest"] != reference:
                bad = p["cells"]
                problems.append("rep %d %s: digest %s != reference %s"
                                % (i, p["kind"], p["digest"], reference))
            elif p["violations"]:
                bad = p["cells"]
                problems.append("rep %d %s: %d attribution violations"
                                % (i, p["kind"], p["violations"]))
            elif bad:
                problems.append("rep %d %s: %s" % (i, p["kind"],
                                                  p["first_error"]))
            failed += bad
    return attempted, failed, problems


def spread(values):
    """Median, quartiles and count, as the noise report gives them."""
    vals = sorted(values)
    med = statistics.median(vals)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def tail_percentile(values, beyond=10):
    """Highest of the usual percentiles with at least `beyond` samples above
    it; None when there are too few samples for even the median."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 + 1e-9 >= beyond:
            return p
    return None


def percentile(values, p):
    vals = sorted(values)
    k = min(len(vals) - 1, max(0, int(round(p / 100.0 * (len(vals) - 1)))))
    return vals[k]


def end_to_end(raw):
    reps = raw["reps"]
    setup = [s for r in reps for s in r["setup_s"]]
    return {
        "sim_kcps": spread([r["kcps"] for r in reps]),
        "setup_s": spread(setup),
        "peak_rss_mb": spread([raw["peak_rss_mb"]]),
        "ipc": spread([r["ipc"] for r in reps]),
    }


def gain_error_pp(gain):
    return abs(gain - FIG11_PAPER_GAIN) * 100.0


def per_layer(raw, workload):
    reps = raw["reps"]
    layers = {k: statistics.median(r["layers"][k] for r in reps)
              for k in reps[0]["layers"]}
    layers["workloads.fig11_gain_err_pp"] = (
        gain_error_pp(layers["workloads.fig11_gain"])
        if workload == "fig11-sweep" else 0.0)
    kcps = statistics.median(r["kcps"] for r in reps)
    traced = statistics.median(r["traced_kcps"] for r in reps)
    layers["obs.trace_overhead_pct"] = (kcps / traced - 1.0) * 100.0
    if workload == "matrixMul-observed":
        plain = statistics.median(r["plain_kcps"] for r in reps)
        layers["obs.attr_overhead_pct"] = (plain / kcps - 1.0) * 100.0
    else:
        layers["obs.attr_overhead_pct"] = 0.0
    epochs = [e for r in reps for e in r["epoch_us"]]
    tail = tail_percentile(epochs)
    layers["core.epochs"] = len(epochs)
    layers["core.epoch_step_us_p50"] = statistics.median(epochs)
    layers["core.epoch_tail_pct"] = tail or 0.0
    layers["core.epoch_step_us_tail"] = percentile(epochs, tail) if tail else 0.0
    return layers


def source_identity():
    """Git commit when there is one; always a digest of the sources."""
    commit = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith(".pyc"):
                continue
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return commit, h.hexdigest()[:16]


def provenance(raw, seed, seconds, trace, reference_source):
    commit, source = source_identity()
    p = dict(raw["provenance"])
    p.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_digest": source,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repetitions": len(raw["reps"]),
        "reference": reference_source,
    })
    return p


def run(args):
    spec = load_benchmark_spec()
    binary = build()
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    table = load_references().get(args.workload, {})
    reference = table.get(str(args.seed))
    reference_source = "table"
    if reference is None:
        # No stored digest for this seed: every pass must equal the first.
        reference = raw["reps"][0]["passes"][0]["digest"]
        reference_source = "first-pass"
    attempted, failed, problems = check_outputs(raw, reference)
    for p in problems:
        log("perfbench: output check failed: " + p)

    e2e = end_to_end(raw)
    rep0 = raw["reps"][0]
    doc = {
        "workload": args.workload,
        "provenance": provenance(raw, args.seed, args.seconds, args.trace,
                                 reference_source),
        "reference_digest": reference,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "noise": e2e,
        "spans_file": raw["spans_file"],
        "reply_p99_cyc": rep0["reply_p99_cyc"],
    }
    if args.workload == "fig11-sweep":
        doc["fig11_gain"] = rep0["fig11_gain"]
        doc["fig11_gain_err_pp"] = gain_error_pp(doc["fig11_gain"])

    print("workload %s  seed %d  reference %s (%s)  reps %d"
          % (args.workload, args.seed, reference, reference_source,
             len(raw["reps"])))
    print("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    for name, s in e2e.items():
        print("%-16s %14.6g %-6s median  q1 %.6g  q3 %.6g  n %d"
              % (name, s["median"], units[name], s["q1"], s["q3"], s["n"]))
    print("%-16s %14.6g %-6s (%d of %d outputs failed)"
          % ("fail_frac", doc["fail_frac"], "frac", failed, attempted))
    print("%-16s %14.6g %-6s (simulated reply-network p99 latency)"
          % ("reply_p99_cyc", doc["reply_p99_cyc"], "cycles"))
    if "fig11_gain" in doc:
        print("%-16s %14.6g %-6s (simulated Ada-ARI / Ada-Baseline ipc)"
              % ("fig11_gain", doc["fig11_gain"], "x"))
        print("%-16s %14.6g %-6s (vs the paper's %.3f)"
              % ("fig11_gain_err_pp", doc["fig11_gain_err_pp"], "pp",
                 FIG11_PAPER_GAIN))

    if args.trace:
        layers = per_layer(raw, args.workload)
        names = [m["name"] for m in spec["per_layer"]]
        if sorted(layers) != sorted(names):
            log("perfbench: per-layer names differ from BENCHMARK.json: %s"
                % sorted(set(layers) ^ set(names)))
            sys.exit(5)
        doc["layers"] = layers
        for name in names:
            print("%-30s %14.6g %s" % (name, layers[name], units[name]))
        print("spans %s" % raw["spans_file"])
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["median"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}

    results = os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, int(args.trace)))
    with open(results, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print("results %s" % results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def self_test():
    """The output check must fail a run whose reference digest is wrong."""
    binary = build()
    raw = run_binary(binary, "matrixMul-observed", 1, 0, False)
    reference = load_references()["matrixMul-observed"]["1"]
    attempted, failed, _ = check_outputs(raw, reference)
    ok = attempted > 0 and failed == 0
    flipped = ("0" if reference[0] != "0" else "1") + reference[1:]
    attempted2, failed2, _ = check_outputs(raw, flipped)
    ok = ok and failed2 == attempted2 and attempted2 > 0
    print("self-test: stored reference -> %d/%d failed; perturbed reference "
          "-> %d/%d failed: %s" % (failed, attempted, failed2, attempted2,
                                   "ok" if ok else "FAILED"))
    return 0 if ok else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def make_references(workload, seeds):
    """Records the digest of each seed's first pass, after checking every
    other pass of that run agrees with it."""
    binary = build()
    table = {}
    for seed in seeds:
        raw = run_binary(binary, workload, seed, 0, False)
        digest = raw["reps"][0]["passes"][0]["digest"]
        _, failed, problems = check_outputs(raw, digest)
        if failed:
            log("perfbench: seed %d is not self-consistent: %s"
                % (seed, problems))
            return 1
        table[str(seed)] = digest
        log("%s seed %d: %s" % (workload, seed, digest))
    refs = load_references()
    merged = dict(refs.get(workload, {}))
    for seed, digest in table.items():
        if merged.get(seed, digest) != digest:
            log("perfbench: seed %s replaces stored %s" % (seed, merged[seed]))
    merged.update(table)
    refs[workload] = dict(sorted(merged.items(), key=lambda kv: int(kv[0])))
    with open(REFERENCES, "w") as f:
        json.dump({w: refs[w] for w in sorted(refs)}, f, indent=1)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--make-references", action="store_true")
    ap.add_argument("--seeds", default="1")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.make_references:
        return make_references(args.workload, parse_seeds(args.seeds))
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
