#!/usr/bin/env python3
"""Perf-smoke gate: ratio checks against a committed benchmark baseline.

Usage:
    perf_compare.py BENCH_baseline.json bench_current.json
        [--max-telemetry-overhead 0.10] [--min-sharded-speedup 1.5]
        [--min-columns-speedup 0.9]

Both files are ``bench_engine_perf --benchmark_format=json`` output.  Three
gates run, all on ratios measured within one process so they are
machine-portable (CI runners and dev laptops differ wildly in clock
speed, but the two sides of each ratio run seconds apart on the same
machine; turbo/co-tenancy noise moves both sides together and largely
cancels).  There is no queue-speedup gate: the event engine has one
queue, so the two arms of ``BM_EventQueue_Hold`` time the same heap and
their ratio measures nothing.

1. Telemetry overhead.  ``BM_TelemetryOverhead`` runs one checked
   experiment without and with a full TelemetryRecorder attached, back to
   back in each iteration, and reports the quotient of the two arms'
   minimum wall times as the ``telemetry_overhead_ratio`` counter
   (minima, because interference only adds time).  The current run's
   ratio must stay below 1 + --max-telemetry-overhead (default 10%); the
   recorder contract says observation is passive, and this gate keeps it
   honest.  The baseline's ratio is reported alongside and must exist
   (so the committed baseline documents the overhead at the time it was
   cut).  The ceiling is RELATIVE to the simulation's own speed: when
   the columns store landed and more than halved the bare run time, the
   recorder's unchanged absolute cost doubled in relative terms
   (~2.7% -> ~6.5%), and the ceiling was re-cut from 5% to 10% to keep
   the same proportional headroom.

2. Sharded speedup.  ``BM_ShardedHold`` runs a 10k-node cell shards=1
   and shards=4 back to back per iteration and reports the median
   single/sharded wall-time quotient as ``sharded_speedup_ratio`` plus
   the host's ``hw_threads``.  The current run's ratio must be at least
   --min-sharded-speedup (default 1.5) -- but the floor is only ENFORCED
   when the current host reports >= 4 hardware threads; on smaller hosts
   (where four shards time-slice one core and the ratio measures
   scheduler overhead, not parallelism) the ratio is printed as
   informational.  The shapes must exist in both files either way, so a
   renamed or dropped benchmark still fails loudly.

3. Columns-store speedup.  ``BM_MillionNodeChurn`` runs the scaled-down
   million-node churn cell with the per-node adapter store and the
   struct-of-arrays columns store back to back per iteration and reports
   the median adapter/columns wall-time quotient as the
   ``columns_speedup_ratio`` counter.  The current run's ratio must be
   at least --min-columns-speedup (default 0.9): the flat store may
   never cost more than ~10% over the object path it replaced, and in
   practice it is faster.  This gate is a same-host paired ratio, so it
   is enforced on every host.

If a benchmark was run with repetitions the median aggregate is preferred
over the raw iterations.

Exit codes: 0 pass, 1 regression, 2 unusable input.  Unusable means any
counter a gate depends on is absent: a missing telemetry/sharded/columns
counter, or a current run without ``hw_threads`` (which would otherwise
silently downgrade the sharded gate to informational).  A renamed
benchmark must fail loudly, never skip the gate.
"""

import argparse
import json
import sys

TELEMETRY_NAME = "BM_TelemetryOverhead"
TELEMETRY_COUNTER = "telemetry_overhead_ratio"
SHARDED_NAME = "BM_ShardedHold"
SHARDED_COUNTER = "sharded_speedup_ratio"
SHARDED_THREADS_COUNTER = "hw_threads"
COLUMNS_NAME = "BM_MillionNodeChurn"
COLUMNS_COUNTER = "columns_speedup_ratio"


def load_benchmarks(path):
    """The parsed benchmark entry list of one --benchmark_format=json file."""
    with open(path) as f:
        return json.load(f).get("benchmarks", [])


def telemetry_ratio(benchmarks):
    """The telemetry_overhead_ratio counter, or None if absent.

    Prefers the smallest repetition's ratio: each repetition already
    reports a min-of-pairs quotient, and taking the best repetition
    discards the ones a co-tenant stomped on entirely.
    """
    ratios = []
    for bench in benchmarks:
        base = bench.get("run_name", bench.get("name", ""))
        # The registration pins iterations, which google-benchmark encodes
        # in the name ("BM_TelemetryOverhead/iterations:25"), so match on
        # the prefix.
        if not base.startswith(TELEMETRY_NAME):
            continue
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        value = bench.get(TELEMETRY_COUNTER)
        if isinstance(value, (int, float)) and value > 0:
            ratios.append(value)
    return min(ratios) if ratios else None


def sharded_stats(benchmarks):
    """(best sharded_speedup_ratio, hw_threads) or (None, None) if absent.

    Best (max) over repetitions: each repetition's counter is already a
    median of per-pair quotients, and the best repetition is the one
    least disturbed by co-tenants.
    """
    ratios = []
    threads = None
    for bench in benchmarks:
        base = bench.get("run_name", bench.get("name", ""))
        # Pinned iterations encode in the name ("BM_ShardedHold/
        # iterations:5"), so match on the prefix.
        if not base.startswith(SHARDED_NAME):
            continue
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        value = bench.get(SHARDED_COUNTER)
        if isinstance(value, (int, float)) and value > 0:
            ratios.append(value)
        hw = bench.get(SHARDED_THREADS_COUNTER)
        if isinstance(hw, (int, float)) and hw > 0:
            threads = int(hw)
    return (max(ratios) if ratios else None, threads)


def columns_ratio(benchmarks):
    """Best columns_speedup_ratio over repetitions, or None if absent.

    Best (max), for the same reason as sharded_stats: each repetition's
    counter is already a median of per-pair quotients, and the best
    repetition is the one least disturbed by co-tenants.
    """
    ratios = []
    for bench in benchmarks:
        base = bench.get("run_name", bench.get("name", ""))
        # Pinned iterations encode in the name ("BM_MillionNodeChurn/
        # 20000/iterations:5"), so match on the prefix.
        if not base.startswith(COLUMNS_NAME):
            continue
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        value = bench.get(COLUMNS_COUNTER)
        if isinstance(value, (int, float)) and value > 0:
            ratios.append(value)
    return max(ratios) if ratios else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-telemetry-overhead", type=float, default=0.10,
                        help="max fractional cpu-time cost of an attached "
                             "TelemetryRecorder (default 0.10 = 10%%)")
    parser.add_argument("--min-sharded-speedup", type=float, default=1.5,
                        help="min shards=4 vs shards=1 wall-clock ratio, "
                             "enforced only on hosts with >= 4 hardware "
                             "threads (default 1.5)")
    parser.add_argument("--min-columns-speedup", type=float, default=0.9,
                        help="min adapter-store vs columns-store wall-clock "
                             "ratio (default 0.9: the flat store may cost at "
                             "most ~10%% over the object path)")
    args = parser.parse_args()

    baseline_benchmarks = load_benchmarks(args.baseline)
    current_benchmarks = load_benchmarks(args.current)

    failures = 0
    print(f"{'gate':<24} {'baseline':>9} {'current':>9} {'bound':>9}  verdict")
    base_telemetry = telemetry_ratio(baseline_benchmarks)
    cur_telemetry = telemetry_ratio(current_benchmarks)
    if base_telemetry is None or cur_telemetry is None:
        print(f"perf_compare: {TELEMETRY_NAME}'s {TELEMETRY_COUNTER} counter "
              f"missing from {'baseline' if base_telemetry is None else 'current'}"
              " -- regenerate the baseline with the telemetry benchmark in "
              "the filter", file=sys.stderr)
        return 2
    ceiling = 1.0 + args.max_telemetry_overhead
    telemetry_ok = cur_telemetry <= ceiling
    failures += 0 if telemetry_ok else 1
    print(f"{'telemetry-overhead':<24} {base_telemetry:>8.3f}x "
          f"{cur_telemetry:>8.3f}x {ceiling:>8.3f}x  "
          f"{'ok' if telemetry_ok else 'REGRESSION'} (ceiling)")

    base_sharded, _ = sharded_stats(baseline_benchmarks)
    cur_sharded, cur_threads = sharded_stats(current_benchmarks)
    if base_sharded is None or cur_sharded is None:
        print(f"perf_compare: {SHARDED_NAME}'s {SHARDED_COUNTER} counter "
              f"missing from {'baseline' if base_sharded is None else 'current'}"
              " -- regenerate the baseline with the sharded benchmark in "
              "the filter", file=sys.stderr)
        return 2
    if cur_threads is None:
        # Without the host's thread count the small-host carve-out cannot be
        # decided, and defaulting to "informational" would let a renamed or
        # dropped counter silently disable the gate.
        print(f"perf_compare: {SHARDED_NAME}'s {SHARDED_THREADS_COUNTER} "
              "counter missing from current -- the sharded gate cannot tell "
              "whether this host qualifies for enforcement; regenerate the "
              "run with the counter intact", file=sys.stderr)
        return 2
    enforced = cur_threads >= 4
    sharded_ok = (not enforced) or cur_sharded >= args.min_sharded_speedup
    failures += 0 if sharded_ok else 1
    verdict = ("ok" if sharded_ok else "REGRESSION") if enforced else \
        f"informational ({cur_threads} hw thread(s))"
    print(f"{'sharded-speedup':<24} {base_sharded:>8.2f}x "
          f"{cur_sharded:>8.2f}x {args.min_sharded_speedup:>8.2f}x  {verdict}")

    base_columns = columns_ratio(baseline_benchmarks)
    cur_columns = columns_ratio(current_benchmarks)
    if base_columns is None or cur_columns is None:
        print(f"perf_compare: {COLUMNS_NAME}'s {COLUMNS_COUNTER} counter "
              f"missing from {'baseline' if base_columns is None else 'current'}"
              " -- regenerate the baseline with the million-node benchmark in "
              "the filter", file=sys.stderr)
        return 2
    columns_ok = cur_columns >= args.min_columns_speedup
    failures += 0 if columns_ok else 1
    print(f"{'columns-speedup':<24} {base_columns:>8.2f}x "
          f"{cur_columns:>8.2f}x {args.min_columns_speedup:>8.2f}x  "
          f"{'ok' if columns_ok else 'REGRESSION'}")

    if failures:
        print(f"\nperf_compare: {failures} gate(s) failed "
              f"(telemetry ceiling {ceiling:.3f}x, sharded floor "
              f"{args.min_sharded_speedup}x, columns floor "
              f"{args.min_columns_speedup}x)",
              file=sys.stderr)
        return 1
    print("\nperf_compare: the telemetry-overhead gate, the sharded-speedup "
          "gate, and the columns-speedup gate within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
