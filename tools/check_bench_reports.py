#!/usr/bin/env python3
"""Validate the JSON reports the benches emit.

Usage: check_bench_reports.py [--overhead-baseline BASELINE.json] REPORT.json [...]

Three schemas are understood:

* ExecutionReport payloads from the fig7/8/9 benches
  (docs/observability.md): the overlap/halo/critical-path aggregates plus
  per-device, per-stream and per-container breakdowns.
* The runtime-overhead report from bench_overhead
  (docs/performance.md, "bench": "overhead"): enqueue cost,
  compile-vs-cached sequence() timings, and CPU-device kernel dispatch
  (ns per cell through the devirtualized trampoline path at one host
  thread). The machine-independent gate is speedup >= 10 (a cached
  sequence() must replay, not recompile). With --overhead-baseline, the
  cached-path wall cost and the dispatch ns_per_cell are additionally
  gated at 2x the committed baseline, so a hot-path regression fails CI
  even when the compile path regresses by the same factor.
* The adaptive-repartitioning sweep from bench_repartition
  (docs/robustness.md, "bench": "repartition"): a heterogeneous
  dry-run pool (speed factors with a real spread) runs a stencil+map
  pipeline on the static equal slabs and again after a
  measured-rate repartition. The gate is machine-independent because
  utilization is virtual-time: the rebalanced plan must strictly beat
  the static one, fields must actually migrate (migration bytes > 0),
  and the rebalanced plan must differ from the static plan — otherwise
  the repartitioner has degenerated into a no-op.

Exit status is nonzero on the first missing or malformed report, so CI
fails when a bench stops writing its payload.
"""

import argparse
import json
import sys

TOP_LEVEL_KEYS = [
    "window",
    "events",
    "overlapPercent",
    "haloBytes",
    "deviceUtilization",
    "criticalPath",
    "waitTime",
    "devices",
    "streams",
    "containers",
]

DEVICE_KEYS = ["device", "computeBusy", "transferBusy", "overlap", "haloBytes"]

OVERHEAD_ENQUEUE_KEYS = ["ops_per_run", "runs_measured", "ns_per_op"]
OVERHEAD_SEQUENCE_KEYS = ["repeats", "compile_ns", "cached_ns", "speedup", "cache_hits"]
OVERHEAD_DISPATCH_KEYS = ["cells", "runs_measured", "ns_per_cell"]

# A cached sequence() is a recipe replay; anything under this factor means
# it is recompiling (or the cache stopped hitting).
MIN_CACHED_SPEEDUP = 10.0
# Regression headroom against the committed baseline's cached_ns.
BASELINE_SLACK = 2.0


def load(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), []
    except OSError as exc:
        return None, [f"{path}: cannot read: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"{path}: not valid JSON: {exc}"]


def check_execution_report(path: str, report: dict) -> list[str]:
    errors = []
    for key in TOP_LEVEL_KEYS:
        if key not in report:
            errors.append(f"{path}: missing key '{key}'")
    if errors:
        return errors

    if not 0.0 <= report["overlapPercent"] <= 100.0:
        errors.append(f"{path}: overlapPercent {report['overlapPercent']} out of [0, 100]")
    if report["haloBytes"] < 0:
        errors.append(f"{path}: negative haloBytes")
    if report["criticalPath"] < 0.0:
        errors.append(f"{path}: negative criticalPath")
    if report["events"] <= 0:
        errors.append(f"{path}: no recorded events — was the profiler enabled?")
    if not report["devices"]:
        errors.append(f"{path}: empty device breakdown")
    for dev in report["devices"]:
        for key in DEVICE_KEYS:
            if key not in dev:
                errors.append(f"{path}: device entry missing '{key}'")
                break
    if not report["containers"]:
        errors.append(f"{path}: empty container breakdown")
    return errors


def check_overhead_report(path: str, report: dict, baseline_path: str | None) -> list[str]:
    errors = []
    enqueue = report.get("enqueue")
    sequence = report.get("sequence")
    dispatch = report.get("dispatch")
    if not isinstance(enqueue, dict):
        errors.append(f"{path}: missing 'enqueue' section")
    else:
        for key in OVERHEAD_ENQUEUE_KEYS:
            if key not in enqueue:
                errors.append(f"{path}: enqueue section missing '{key}'")
    if not isinstance(sequence, dict):
        errors.append(f"{path}: missing 'sequence' section")
    else:
        for key in OVERHEAD_SEQUENCE_KEYS:
            if key not in sequence:
                errors.append(f"{path}: sequence section missing '{key}'")
    if not isinstance(dispatch, dict):
        errors.append(f"{path}: missing 'dispatch' section")
    else:
        for key in OVERHEAD_DISPATCH_KEYS:
            if key not in dispatch:
                errors.append(f"{path}: dispatch section missing '{key}'")
    if errors:
        return errors

    if enqueue["ns_per_op"] <= 0:
        errors.append(f"{path}: non-positive ns_per_op")
    if dispatch["ns_per_cell"] <= 0 or dispatch["cells"] <= 0:
        errors.append(f"{path}: non-positive dispatch metrics")
    if sequence["cached_ns"] <= 0 or sequence["compile_ns"] <= 0:
        errors.append(f"{path}: non-positive sequence timings")
    if sequence["cache_hits"] != sequence["repeats"]:
        errors.append(
            f"{path}: only {sequence['cache_hits']}/{sequence['repeats']} cached "
            "sequence() calls hit the schedule cache"
        )
    if sequence["speedup"] < MIN_CACHED_SPEEDUP:
        errors.append(
            f"{path}: cached sequence() only {sequence['speedup']:.1f}x cheaper than "
            f"compile (gate: >= {MIN_CACHED_SPEEDUP:.0f}x) — the cache is not replaying"
        )

    if baseline_path is not None:
        baseline, load_errors = load(baseline_path)
        if load_errors:
            return errors + load_errors
        base_cached = baseline.get("sequence", {}).get("cached_ns")
        if base_cached is None:
            errors.append(f"{baseline_path}: baseline missing sequence.cached_ns")
        elif sequence["cached_ns"] > BASELINE_SLACK * base_cached:
            errors.append(
                f"{path}: cached sequence() cost {sequence['cached_ns']:.0f} ns exceeds "
                f"{BASELINE_SLACK:.0f}x baseline ({base_cached:.0f} ns from {baseline_path})"
            )
        base_dispatch = baseline.get("dispatch", {}).get("ns_per_cell")
        if base_dispatch is None:
            errors.append(f"{baseline_path}: baseline missing dispatch.ns_per_cell")
        elif dispatch["ns_per_cell"] > BASELINE_SLACK * base_dispatch:
            errors.append(
                f"{path}: dispatch cost {dispatch['ns_per_cell']:.2f} ns/cell exceeds "
                f"{BASELINE_SLACK:.0f}x baseline ({base_dispatch:.2f} ns/cell from "
                f"{baseline_path})"
            )
    return errors


def check_repartition_report(path: str, report: dict) -> list[str]:
    errors = []
    devices = report.get("devices")
    if not isinstance(devices, int) or devices < 2:
        errors.append(f"{path}: devices {devices!r} — need a multi-device pool")
    factors = report.get("speedFactors")
    if not isinstance(factors, list) or len(factors) != devices:
        errors.append(f"{path}: speedFactors {factors!r} must list one factor per device")
    elif min(factors) <= 0.0 or max(factors) == min(factors):
        errors.append(
            f"{path}: speedFactors {factors!r} must be positive and heterogeneous"
        )
    plans = report.get("plans")
    if not isinstance(plans, dict) or "static" not in plans or "rebalanced" not in plans:
        errors.append(f"{path}: missing 'plans' {{static, rebalanced}} section")
    migration = report.get("migration")
    if not isinstance(migration, dict) or "bytes" not in migration:
        errors.append(f"{path}: missing 'migration' section with 'bytes'")
    rebalance = report.get("rebalance")
    if not isinstance(rebalance, dict) or "latency_ms" not in rebalance:
        errors.append(f"{path}: missing 'rebalance' section with 'latency_ms'")
    util = report.get("utilization")
    if not isinstance(util, dict) or any(
        k not in util for k in ("static", "rebalanced", "delta")
    ):
        errors.append(f"{path}: missing 'utilization' {{static, rebalanced, delta}}")
    if errors:
        return errors

    for name in ("static", "rebalanced"):
        if not 0.0 <= util[name] <= 1.0:
            errors.append(f"{path}: utilization '{name}' {util[name]} out of [0, 1]")
    if migration["bytes"] <= 0:
        errors.append(
            f"{path}: migration bytes {migration['bytes']} — the rebalance moved no data"
        )
    if rebalance["latency_ms"] < 0.0:
        errors.append(f"{path}: negative rebalance latency {rebalance['latency_ms']}")
    if plans["rebalanced"] == plans["static"]:
        errors.append(f"{path}: rebalanced plan identical to static plan {plans['static']}")
    if errors:
        return errors

    # The acceptance gate: measured-rate rebalancing must strictly improve
    # utilization over static equal slabs on a heterogeneous mix.
    if util["rebalanced"] <= util["static"]:
        errors.append(
            f"{path}: rebalanced utilization {util['rebalanced']:.3f} not above "
            f"static {util['static']:.3f}"
        )
    return errors


def check(path: str, overhead_baseline: str | None) -> list[str]:
    report, errors = load(path)
    if errors:
        return errors
    if report.get("bench") == "overhead":
        return check_overhead_report(path, report, overhead_baseline)
    if report.get("bench") == "repartition":
        return check_repartition_report(path, report)
    return check_execution_report(path, report)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--overhead-baseline",
        metavar="BASELINE.json",
        help="committed overhead baseline; gates cached_ns at "
        f"{BASELINE_SLACK:.0f}x the baseline value",
    )
    parser.add_argument("reports", nargs="+", metavar="REPORT.json")
    args = parser.parse_args()

    failed = False
    for path in args.reports:
        errors = check(path, args.overhead_baseline)
        if errors:
            failed = True
            for error in errors:
                print(f"FAIL {error}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
