#!/usr/bin/env python3
"""Bench regression gate for CI.

Compares the BENCH_*.json metrics files a bench run just produced against the
committed baselines in bench/baselines/:

  * wall time (gauge ``bench.wall_seconds``) must not regress by more than
    --max-slowdown (default 1.25, i.e. +25%);
  * every ``bench.agreement_*`` gauge — the cross-engine result agreement
    recorded by the bench itself, as |a-b| / max(1, |a|, |b|) — must stay
    within --agreement-tolerance (default 1e-8), regardless of the baseline;
  * the ``bench.fault_overhead_fraction`` gauge, when a bench records one —
    the estimated cost of disarmed fault-injection hooks as a fraction of
    engine wall time — must stay below --fault-overhead-limit (default 0.02);
  * the ``bench.checkpoint_overhead_fraction`` gauge, when a bench records
    one — snapshot persists x micro-measured per-persist cost as a fraction
    of the checkpointed pass's wall time — must stay below
    --checkpoint-overhead-limit (default 0.02);
  * peak resident memory (gauge ``bench.peak_rss_mb``) must not grow by more
    than --max-rss-growth (default 1.5, i.e. +50%) over the baseline;
  * per-state storage (gauge ``explore.bytes_per_state``, recorded by the
    engine session for the last explored space) must not grow by more than
    --max-bytes-per-state-growth (default 1.1) over the baseline — the guard
    that keeps the compact exploration engine compact;
  * solve-kernel throughput (gauge ``solve.mat_vec_per_sec``, matrix-vector
    products over the solve span) must not fall below
    --min-throughput-fraction (default 0.75) of the baseline — the guard
    that keeps the SELL-C-sigma transient kernel from quietly regressing.

Memory gates are skipped for baselines that predate the gauge (refresh the
baseline to arm them).

Exit status 0 when everything holds, 1 with a per-file report otherwise.
Baselines are refreshed by re-running the benches with
``AUTOSEC_BENCH_DIR=bench/baselines`` on a quiet machine (see
docs/testing.md).
"""

import argparse
import json
import pathlib
import sys

WALL_GAUGE = "bench.wall_seconds"
AGREEMENT_PREFIX = "bench.agreement_"
FAULT_OVERHEAD_GAUGE = "bench.fault_overhead_fraction"
CHECKPOINT_OVERHEAD_GAUGE = "bench.checkpoint_overhead_fraction"
RSS_GAUGE = "bench.peak_rss_mb"
BYTES_PER_STATE_GAUGE = "explore.bytes_per_state"
THROUGHPUT_GAUGE = "solve.mat_vec_per_sec"


def check_throughput_floor(name, baseline, current, fraction, failures):
    """Gate solve throughput against a fraction of the baseline (higher is
    better, so this is a floor, not a growth ceiling)."""
    base_value = baseline.get(THROUGHPUT_GAUGE)
    cur_value = current.get(THROUGHPUT_GAUGE)
    if base_value is None or base_value <= 0:
        return  # baseline predates the gauge: nothing to compare against
    if cur_value is None:
        failures.append(f"{name}: {THROUGHPUT_GAUGE} gauge missing from current run")
        return
    ratio = cur_value / base_value
    status = "ok" if ratio >= fraction else "REGRESSION"
    print(f"{name}: {THROUGHPUT_GAUGE} {cur_value:.0f} vs baseline "
          f"{base_value:.0f} ({ratio:.2f}x) {status}")
    if ratio < fraction:
        failures.append(
            f"{name}: {THROUGHPUT_GAUGE} {cur_value:.0f} is only {ratio:.2f}x "
            f"the baseline {base_value:.0f} (floor {fraction:.2f}x)")


def check_growth_ratio(name, gauge, baseline, current, limit, failures):
    """Gate a gauge's current/baseline ratio; skip when the baseline lacks it."""
    base_value = baseline.get(gauge)
    cur_value = current.get(gauge)
    if base_value is None or base_value <= 0:
        return  # baseline predates the gauge: nothing to compare against
    if cur_value is None:
        failures.append(f"{name}: {gauge} gauge missing from current run")
        return
    ratio = cur_value / base_value
    status = "ok" if ratio <= limit else "REGRESSION"
    print(f"{name}: {gauge} {cur_value:.1f} vs baseline "
          f"{base_value:.1f} ({ratio:.2f}x) {status}")
    if ratio > limit:
        failures.append(
            f"{name}: {gauge} {cur_value:.1f} is {ratio:.2f}x the "
            f"baseline {base_value:.1f} (limit {limit:.2f}x)")


def load_gauges(path):
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != "autosec-metrics-v1":
        raise ValueError(f"{path}: unexpected schema {data.get('schema')!r}")
    return data.get("gauges", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory with committed BENCH_*.json baselines")
    parser.add_argument("--current-dir", required=True,
                        help="directory with the BENCH_*.json files of this run")
    parser.add_argument("--max-slowdown", type=float, default=1.25,
                        help="allowed wall-time ratio current/baseline")
    parser.add_argument("--agreement-tolerance", type=float, default=1e-8,
                        help="bound on every bench.agreement_* gauge")
    parser.add_argument("--fault-overhead-limit", type=float, default=0.02,
                        help="bound on bench.fault_overhead_fraction when present")
    parser.add_argument("--checkpoint-overhead-limit", type=float, default=0.02,
                        help="bound on bench.checkpoint_overhead_fraction "
                             "when present")
    parser.add_argument("--max-rss-growth", type=float, default=1.5,
                        help="allowed peak-RSS ratio current/baseline")
    parser.add_argument("--max-bytes-per-state-growth", type=float, default=1.1,
                        help="allowed explore.bytes_per_state ratio "
                             "current/baseline")
    parser.add_argument("--min-throughput-fraction", type=float, default=0.75,
                        help="floor on solve.mat_vec_per_sec as a fraction of "
                             "the baseline")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline_dir)
    current_dir = pathlib.Path(args.current_dir)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}", file=sys.stderr)
        return 1

    failures = []
    for baseline_path in baselines:
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            failures.append(f"{baseline_path.name}: missing from {current_dir} "
                            "(bench did not run?)")
            continue
        baseline = load_gauges(baseline_path)
        current = load_gauges(current_path)

        base_wall = baseline.get(WALL_GAUGE)
        cur_wall = current.get(WALL_GAUGE)
        if base_wall is None or cur_wall is None:
            failures.append(f"{baseline_path.name}: {WALL_GAUGE} gauge missing")
        else:
            ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
            status = "ok" if ratio <= args.max_slowdown else "REGRESSION"
            print(f"{baseline_path.name}: wall {cur_wall:.3f}s vs baseline "
                  f"{base_wall:.3f}s ({ratio:.2f}x) {status}")
            if ratio > args.max_slowdown:
                failures.append(
                    f"{baseline_path.name}: wall time {cur_wall:.3f}s is "
                    f"{ratio:.2f}x the baseline {base_wall:.3f}s "
                    f"(limit {args.max_slowdown:.2f}x)")

        for name, value in sorted(current.items()):
            if not name.startswith(AGREEMENT_PREFIX):
                continue
            status = "ok" if value <= args.agreement_tolerance else "DISAGREEMENT"
            print(f"{baseline_path.name}: {name} = {value:.3g} {status}")
            if value > args.agreement_tolerance:
                failures.append(
                    f"{baseline_path.name}: {name} = {value:.3g} exceeds "
                    f"{args.agreement_tolerance:.3g}")

        check_growth_ratio(baseline_path.name, RSS_GAUGE, baseline, current,
                           args.max_rss_growth, failures)
        check_growth_ratio(baseline_path.name, BYTES_PER_STATE_GAUGE, baseline,
                           current, args.max_bytes_per_state_growth, failures)
        check_throughput_floor(baseline_path.name, baseline, current,
                               args.min_throughput_fraction, failures)

        fault_overhead = current.get(FAULT_OVERHEAD_GAUGE)
        if fault_overhead is not None:
            status = ("ok" if fault_overhead <= args.fault_overhead_limit
                      else "OVERHEAD")
            print(f"{baseline_path.name}: {FAULT_OVERHEAD_GAUGE} = "
                  f"{fault_overhead:.3g} {status}")
            if fault_overhead > args.fault_overhead_limit:
                failures.append(
                    f"{baseline_path.name}: {FAULT_OVERHEAD_GAUGE} = "
                    f"{fault_overhead:.3g} exceeds disarmed-hook budget "
                    f"{args.fault_overhead_limit:.3g}")

        checkpoint_overhead = current.get(CHECKPOINT_OVERHEAD_GAUGE)
        if checkpoint_overhead is not None:
            status = ("ok" if checkpoint_overhead <= args.checkpoint_overhead_limit
                      else "OVERHEAD")
            print(f"{baseline_path.name}: {CHECKPOINT_OVERHEAD_GAUGE} = "
                  f"{checkpoint_overhead:.3g} {status}")
            if checkpoint_overhead > args.checkpoint_overhead_limit:
                failures.append(
                    f"{baseline_path.name}: {CHECKPOINT_OVERHEAD_GAUGE} = "
                    f"{checkpoint_overhead:.3g} exceeds checkpoint budget "
                    f"{args.checkpoint_overhead_limit:.3g}")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench regression gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
