#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload walk_churn_1e5 --seed 1 --seconds 20 --trace 0

Builds gcs_run and perfbench_layers (Release) from this checkout into
.bench_build/, then runs one workload from perfbench/workloads.json:

  --trace 0  execs the shipped gcs_run on the workload until --seconds
             have passed and reports the end-to-end metrics (medians over
             the execs); set-up time comes from perfbench_layers repeating
             the public build calls after each exec.
  --trace 1  pairs an untraced gcs_run exec with a traced perfbench_layers
             run of the same cells until --seconds have passed, refuses the
             per-layer numbers unless the traced trajectory counters equal
             gcs_run's, and reports the per-layer metrics (medians).

Every gcs_run cell runs under --check and is re-audited here; a failing,
errored or missing cell counts into `failed`.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}.  See README.md.
"""
import argparse
import glob
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
GCS_RUN = os.path.join(BUILD, "repo", "gcs_run")
LAYERS = os.path.join(BUILD, "perfbench_layers")
FIXTURE = os.path.join(HERE, "fixtures", "doctored")

RUN_BUDGET_S = 165        # after the build; one run stays under 180 s
MIN_UNTRACED_EXECS = 3
MEM_TOLERANCE = 0.10      # |attributed / gcs_run peak - 1| on one-cell workloads


class BenchError(Exception):
    """The benchmark cannot produce a result (build, usage, crashed child)."""


deadline = None  # monotonic time by which every child must have exited


def time_left():
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its %d s budget" % RUN_BUDGET_S)
    return left


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "gcs_run",
              "perfbench_layers", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    cache = read_cache(os.path.join(BUILD, "CMakeCache.txt"))
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing a non-Release build (CMAKE_BUILD_TYPE=%r)"
                         % cache.get("CMAKE_BUILD_TYPE"))
    return cache


def read_cache(path):
    values = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if m:
                values[m.group(1)] = m.group(2)
    return values


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat: how much CPU the host withheld."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def provenance(workload, cache):
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = "%s %s" % (ident.group(1), version.group(1))
    shards = int(workload["axes"]["shards"])
    return {"nproc": nproc, "cpu_model": cpu, "compiler": compiler,
            "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
            "oversubscribed": shards > 0 and nproc < shards}


def load_workload(name, seed):
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if name not in workloads:
        raise BenchError("unknown workload %r (have %s)"
                         % (name, ", ".join(sorted(workloads))))
    w = workloads[name]
    # --seed picks the cells' seeds; a fixed map keeps them
    # small positive integers whatever --seed is.
    base = 1 + seed % 1000000
    count = w["seed_count"]
    axes = dict(w["axes"])
    axes["seeds"] = str(base) if count == 1 else "%d..%d" % (base, base + count - 1)
    cells = count
    for value in w["axes"].values():
        cells *= len(value.split(","))
    horizon, sample_dt = float(axes["horizon"]), float(axes["sample_dt"])
    w = dict(w, name=name, axes=axes, cells=cells,
             samples=round(horizon / sample_dt),
             flags=["--%s=%s" % kv for kv in sorted(axes.items())])
    return w


def run_child(argv, log_path):
    """Execs argv with stdout+stderr to log_path; returns (rc, wall_s, maxrss_kb)."""
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(time_left(), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def check_tree(tree, log_text, expected_cells, expected_samples):
    """Audits one gcs_run results tree.

    Returns (attempted, failed labels, {label: result}).  A cell fails when
    gcs_run's --check flagged it, when its document breaks one of the
    benchmark's own invariants, or when its document is missing (errored).
    """
    docs = {}
    for path in sorted(glob.glob(os.path.join(tree, "cells", "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        docs[doc["cell"]] = doc["result"]
    attempted = expected_cells
    summary_path = os.path.join(tree, "summary.json")
    if os.path.exists(summary_path):
        with open(summary_path) as f:
            attempted = max(attempted, json.load(f)["cells"])
    failed = set(re.findall(r"^  check: (\S+): ", log_text, re.M))
    for label, r in docs.items():
        rs = r["run_stats"]
        if (rs["messages_delivered"] + rs["messages_dropped"] > rs["messages_sent"]
                or r["clamped_events"] != 0
                or r["samples"] != expected_samples
                or r["global_violations"] or r["envelope_violations"]
                or rs["conformance_monotonicity_failures"]
                or rs["connectivity_windows_disconnected"]):
            failed.add(label)
    missing = attempted - len(docs)
    failed.update("<missing %d>" % i for i in range(missing))
    return attempted, failed, docs


FIXTURE_FAILED = {"clamped", "overcounted", "short-series", "audit-flagged",
                  "envelope-violated", "<missing 0>"}


def fixture_self_check():
    """The doctored tree (7 cells, one errored) must fail all but `good`."""
    with open(os.path.join(FIXTURE, "gcs_run.log")) as f:
        text = f.read()
    attempted, failed, _ = check_tree(FIXTURE, text, 7, 60)
    ok = attempted == 7 and failed == FIXTURE_FAILED
    if not ok:
        log("fixture self-check failed: %d attempted, failed=%s"
            % (attempted, sorted(failed)))
    return ok


def gcs_run_once(w, tag):
    tree = os.path.join(RUNS, w["name"], tag)
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(os.path.dirname(tree), exist_ok=True)
    log_path = tree + ".log"
    argv = [GCS_RUN] + w["flags"] + w["runner"] + ["--quiet", "--out", tree]
    rc, wall, maxrss = run_child(argv, log_path)
    with open(log_path, errors="replace") as f:
        text = f.read()
    attempted, failed, docs = check_tree(tree, text, w["cells"], w["samples"])
    if rc not in (0, 1) or (rc == 1 and not failed):
        failed.update(docs)  # gcs_run died or failed without naming a cell
        failed.add("<gcs_run exit %d>" % rc)
    delivered = sum(r["run_stats"]["messages_delivered"] for r in docs.values())
    return {"wall": wall, "maxrss_kb": maxrss, "attempted": attempted,
            "failed": len(failed), "delivered": delivered, "docs": docs,
            "labels": sorted(failed)}


def layers(args, tag):
    log_path = os.path.join(RUNS, "%s.layers.log" % tag)
    out_path = os.path.join(RUNS, "%s.layers.json" % tag)
    with open(out_path, "wb") as out, open(log_path, "wb") as err:
        proc = subprocess.run([LAYERS] + args, stdout=out, stderr=err,
                              timeout=time_left())
    if proc.returncode != 0:
        with open(log_path, errors="replace") as f:
            log(f.read()[-2000:])
        raise BenchError("perfbench_layers %s exited %d" % (args[0], proc.returncode))
    with open(out_path) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def measure_untraced(w, seconds):
    # Set-up repetitions follow every exec, so both medians sample the
    # whole run rather than one moment of it.
    execs, setup = [], []
    start = time.perf_counter()
    while len(execs) < MIN_UNTRACED_EXECS or time.perf_counter() - start < seconds:
        execs.append(gcs_run_once(w, "untraced"))
        setup += layers(["setup", "--reps", str(w["setup_reps_per_exec"])] + w["flags"],
                        w["name"] + ".setup")["setup_s"]
    attempted = sum(e["attempted"] for e in execs)
    failed = sum(e["failed"] for e in execs)
    for e in execs:
        if e["labels"]:
            log("failed cells:", ", ".join(e["labels"]))
    metrics = {
        "wall_s": statistics.median(e["wall"] for e in execs),
        "setup_s": statistics.median(setup),
        "msgs_per_s": statistics.median(e["delivered"] / e["wall"] for e in execs),
        "peak_rss_mb": statistics.median(e["maxrss_kb"] / 1024 for e in execs),
        "passed_cell_share": 1.0 - failed / attempted,
    }
    print("execs: %d gcs_run + %d set-up repetitions" % (len(execs), len(setup)))
    print("failed_cell_share: %.6g (%d of %d cells)" % (failed / attempted, failed, attempted))
    return metrics, attempted, failed, True


COMPARED = ("events_executed", "messages_delivered", "messages_dropped", "jumps",
            "max_global_skew")


def fidelity(traced_cells, docs):
    """Counters the traced replica must reproduce exactly, per cell."""
    problems = []
    if len(traced_cells) != len(docs):
        problems.append("traced %d cells, gcs_run wrote %d" % (len(traced_cells), len(docs)))
    for c in traced_cells:
        r = docs.get(c["label"])
        if r is None:
            problems.append("%s: no gcs_run cell" % c["label"])
            continue
        ref = {"events_executed": r["events_executed"],
               "messages_delivered": r["run_stats"]["messages_delivered"],
               "messages_dropped": r["run_stats"]["messages_dropped"],
               "jumps": r["run_stats"]["jumps"],
               "max_global_skew": r["max_global_skew"]}
        for key in COMPARED:
            if c[key] != ref[key]:
                problems.append("%s: %s traced %r, gcs_run %r"
                                % (c["label"], key, c[key], ref[key]))
    return problems


def measure_traced(w, seconds):
    pairs = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        untraced = gcs_run_once(w, "untraced")
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        tree = os.path.join(RUNS, w["name"], "traced")
        shutil.rmtree(tree, ignore_errors=True)
        traced = layers(["trace", "--out", tree] + w["runner"] + w["flags"],
                        w["name"] + ".trace")
        problems = fidelity(traced["cells"], untraced["docs"])
        if traced["build_type"] != "Release":
            problems.append("perfbench_layers built as %s" % traced["build_type"])
        if not traced["roundtrip_ok"]:
            problems.append("harness result does not round-trip")
        if traced["campaign_rc"] != 0 or traced["campaign_failed_cells"]:
            problems.append("cli::run_campaign failed %d cell(s)"
                            % traced["campaign_failed_cells"])
        mem = traced["mem"]
        attributed = sum(mem[k] for k in ("base_kb", "net_kb", "clk_kb", "core_kb", "run_kb"))
        share = attributed / untraced["maxrss_kb"]
        if w["cells"] == 1 and abs(share - 1.0) > MEM_TOLERANCE:
            problems.append("memory attribution %.3f of gcs_run peak, outside +-%g"
                            % (share, MEM_TOLERANCE))
        m = dict(traced["metrics"])
        m["bench.trace_overhead"] = traced["replica_wall_s"] / untraced["wall"]
        m["mem.attributed_share"] = share
        pairs.append(m)
        for p in problems:
            log("refusing per-layer numbers:", p)
        correct = correct and not problems
    metrics = {name: statistics.median(p[name] for p in pairs) for name in pairs[0]}
    print("pairs: %d untraced gcs_run + traced perfbench_layers, fidelity %s"
          % (len(pairs), "ok" if correct else "REFUSED"))
    print("trace_overhead: %.4g (traced replica wall / untraced gcs_run wall)"
          % metrics["bench.trace_overhead"])
    return metrics, attempted, failed, correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    w = load_workload(args.workload, args.seed)
    cache = build()
    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(RUNS, exist_ok=True)
    prov = provenance(w, cache)
    prov.update(workload=w["name"], seed=args.seed, cells=w["cells"])
    print("provenance:", json.dumps(prov, sort_keys=True))
    if prov["oversubscribed"]:
        print("note: %s runs %s shards on %d CPUs (oversubscribed)"
              % (w["name"], w["axes"]["shards"], prov["nproc"]))

    steal0, total0 = cpu_ticks()
    fixture_ok = fixture_self_check()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, attempted, failed, correct = measure_traced(w, args.seconds)
    else:
        metrics, attempted, failed, correct = measure_untraced(w, args.seconds)
    if set(metrics) != set(units):
        raise BenchError("measured %s, BENCHMARK.json lists %s"
                         % (sorted(metrics), sorted(units)))
    correct = correct and fixture_ok and failed == 0
    steal1, total1 = cpu_ticks()
    prov["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    print("host steal during the run: %.4f of CPU time" % prov["steal_share"])
    for name, value in metrics.items():
        print("%-34s %.6g %s" % (name, value, units[name]))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(RUNS, "%s-seed%d-trace%d.json"
                           % (w["name"], args.seed, args.trace)), "w") as f:
        json.dump(dict(result, provenance=prov), f, indent=2, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            json.JSONDecodeError) as e:
        log("perfbench:", e)
        sys.exit(2)
