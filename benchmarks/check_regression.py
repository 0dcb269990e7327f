"""Benchmark regression gate: fresh BENCH_*.json vs committed baselines.

Usage (what the CI ``bench-smoke`` job runs)::

    BENCH_SMOKE=1 BENCH_RESULTS_DIR=/tmp/bench-fresh pytest bench_*.py
    python check_regression.py --baseline results/smoke \
        --fresh /tmp/bench-fresh --min-seconds 0.05 \
        --max-obs-overhead 1.05 --max-checkpoint-overhead 1.10

Records are matched across the two directories by benchmark name plus
every non-measurement field (method, mode, series, sizes, ...).  Each
matched record yields a slowdown ratio -- ``wall_time_s`` directly, or
the inverse of a throughput field (``items_per_second`` /
``throughput_per_s``) when no wall time was recorded.  Because the
baselines were committed from a different machine, the ratios are
*calibrated*: the median ratio across all compared records is treated
as the machine-speed difference, and a record fails only when its
calibrated ratio exceeds ``--max-ratio`` (default 2x) -- a uniformly
slower runner shifts every ratio equally and fails nothing, while one
kernel regressing ahead of the pack still trips the gate.  Records
whose *baseline* time is below ``--min-seconds`` are skipped
(throughput records use ``n / throughput`` as their implied wall time
when an ``n`` field is present): a sub-floor smoke timing is
scheduler noise, not a kernel measurement, and cannot be gated
reliably.  Records present on only one side are reported but never
fail the gate (benchmarks may be added or retired).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, Tuple

#: Measurement fields: excluded from record identity, compared instead.
MEASUREMENT_KEYS = frozenset({
    "wall_time_s",
    "wall_time_scalar_s",
    "uncached_wall_time_s",
    "repeat_wall_time_s",
    "throughput_per_s",
    "repeat_throughput_per_s",
    "items_per_second",
    "speedup",
    # Wire/transport accounting (bench_distributed_build): run-varying
    # measurements, not identity.
    "bytes_on_wire",
    "raw_bytes",
    "shm_bytes",
    "frames_sent",
    "compression_ratio",
    "fleet_start_s",
    "local_s",
    "best_mp_s",
    "retries",
    # Serving-tier measurements (bench_serving): latency percentiles,
    # achieved/offered rates and queue telemetry all move with the
    # machine, so none of them may enter record identity.
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "p999_ms",
    "offered_per_s",
    "achieved_per_s",
    "closed_loop_per_s",
    "saturation_per_s",
    "speedup_vs_sync",
    "shed",
    "failed",
    "flushes",
    "flushes_size",
    "flushes_deadline",
    "max_queue_depth",
    # Telemetry-overhead measurements (bench_serving obs-overhead
    # records): the ratio is gated by check_obs, the raw times vary
    # with the machine.
    "overhead_ratio",
    "wall_time_disabled_s",
    "wall_time_enabled_s",
    # Durability measurements (bench_recovery): the checkpoint-overhead
    # ratio is gated by check_recovery, the raw times and the
    # whole-run wall time move with the machine.
    "checkpoint_overhead_ratio",
    "wall_time_nostore_s",
    "wall_time_store_s",
    "checkpoint_call_s",
    "total_wall_time_s",
})

#: Throughput fields accepted when a record carries no wall time
#: (higher is better; the gate compares their inverse).
THROUGHPUT_KEYS = ("items_per_second", "throughput_per_s")


def record_identity(benchmark: str, record: dict) -> Tuple:
    """Stable identity of one record: all non-measurement fields."""
    fields = tuple(
        sorted(
            (key, repr(value))
            for key, value in record.items()
            if key not in MEASUREMENT_KEYS
        )
    )
    return (benchmark,) + fields


def record_time(record: dict) -> float:
    """A record's wall time, implied from throughput if necessary.

    Returns seconds (lower is better) or ``nan`` when the record
    carries no comparable measurement.  Throughput-only records use
    ``n / throughput`` when the record names its item count, else
    ``1 / throughput`` (arbitrary but consistent across runs, so the
    ratio is still the slowdown).
    """
    if "wall_time_s" in record:
        return float(record["wall_time_s"])
    for key in THROUGHPUT_KEYS:
        if key in record and float(record[key]) > 0:
            items = float(record.get("n", 1.0))
            return items / float(record[key])
    return float("nan")


def load_records(directory: pathlib.Path) -> Dict[Tuple, float]:
    """Map record identity -> (implied) wall time, over BENCH_*.json."""
    records: Dict[Tuple, float] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        for record in payload.get("records", []):
            seconds = record_time(record)
            if seconds != seconds:  # nan: nothing comparable
                continue
            key = record_identity(payload.get("benchmark", path.stem), record)
            records[key] = seconds
    return records


def check_wire_bytes(directory: pathlib.Path) -> list:
    """Wire-size gate: compressed frames must never exceed raw frames.

    Any fresh record carrying both ``bytes_on_wire`` and ``raw_bytes``
    (the ``wire-codec`` records of the distributed benchmark) fails
    when the compressed framing lost to the raw framing -- a size
    property of the codec, deterministic across machines, so it is
    gated without calibration.
    """
    failures = []
    for path in sorted(directory.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        for record in payload.get("records", []):
            if "bytes_on_wire" not in record or "raw_bytes" not in record:
                continue
            wire = int(record["bytes_on_wire"])
            raw = int(record["raw_bytes"])
            if wire > raw:
                failures.append((payload.get("benchmark", path.stem),
                                 record, wire, raw))
    return failures


def check_obs(
    fresh_dir: pathlib.Path,
    max_overhead: float,
    min_seconds: float,
) -> Tuple[list, int]:
    """Telemetry-overhead gate: enabled vs disabled registry ratio.

    Any fresh record carrying ``overhead_ratio`` (the ``obs-overhead``
    records of the serving benchmark) times the *same* workload twice
    in one process -- telemetry registry disabled, then enabled -- so
    the ratio is self-calibrated and gated without a baseline: it fails
    when enabled instrumentation costs more than ``max_overhead`` on
    the hot path.  A record whose disabled-side wall time is below
    ``min_seconds`` is skipped, same as the main gate: a sub-floor
    timing is scheduler noise, not an overhead measurement.
    """
    failures = []
    compared = 0
    for path in sorted(fresh_dir.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        for record in payload.get("records", []):
            if "overhead_ratio" not in record:
                continue
            if float(record.get("wall_time_disabled_s", 0.0)) < min_seconds:
                continue
            compared += 1
            ratio = float(record["overhead_ratio"])
            if ratio > max_overhead:
                failures.append(
                    (payload.get("benchmark", path.stem), record, ratio)
                )
    return failures, compared


def check_recovery(
    fresh_dir: pathlib.Path,
    max_overhead: float,
    min_seconds: float,
) -> Tuple[list, int]:
    """Durability gate: checkpointing overhead on the ingest hot path.

    Any fresh record carrying ``checkpoint_overhead_ratio`` (the
    ``checkpoint-overhead`` records of the recovery benchmark) times
    the *same* ingest twice in one process -- no store, then the
    write-ahead log attached -- so the ratio is self-calibrated and
    gated without a baseline: it fails when durable logging costs more
    than ``max_overhead`` on the hot path (the <=10% acceptance
    criterion).  Records whose no-store wall time is below
    ``min_seconds`` are skipped, same as the other gates.
    """
    failures = []
    compared = 0
    for path in sorted(fresh_dir.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        for record in payload.get("records", []):
            if "checkpoint_overhead_ratio" not in record:
                continue
            if float(record.get("wall_time_nostore_s", 0.0)) < min_seconds:
                continue
            compared += 1
            ratio = float(record["checkpoint_overhead_ratio"])
            if ratio > max_overhead:
                failures.append(
                    (payload.get("benchmark", path.stem), record, ratio)
                )
    return failures, compared


#: Fields identifying one open-loop sweep point across machines (the
#: offered rate itself is derived from the machine's measured
#: throughput, so only its *factor* is stable identity).
_SERVING_IDENTITY = ("kernel", "mode", "rate_factor", "batch_size")


def _load_serving(directory: pathlib.Path) -> Tuple[dict, dict]:
    """Open-loop sweep records and saturation rates from BENCH_serving."""
    sweeps: dict = {}
    saturations: dict = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        if payload.get("benchmark") != "serving":
            continue
        for record in payload.get("records", []):
            if record.get("mode") == "open-loop":
                key = tuple(
                    (field, repr(record.get(field)))
                    for field in _SERVING_IDENTITY
                )
                sweeps[key] = record
            elif record.get("mode") == "saturation":
                saturations[record.get("kernel")] = float(
                    record.get("saturation_per_s", 0.0)
                )
    return sweeps, saturations


def check_serving(
    baseline_dir: pathlib.Path,
    fresh_dir: pathlib.Path,
    max_ratio: float,
) -> Tuple[list, int]:
    """Serving gate: calibrated p95 regressions + saturation collapse.

    The generic wall-time gate cannot judge the open-loop records (a
    latency percentile is not a wall time, and the per-record query
    counts follow the machine's offered rates), so they get their own
    comparison: sweep points are matched by (kernel, mode,
    rate_factor, batch_size), the median p95 ratio calibrates the
    machine-speed shift exactly like the main gate, and a point fails
    on a calibrated p95 regression beyond ``max_ratio``.  Saturation
    throughput additionally fails on any *collapse*: a calibrated drop
    beyond ``max_ratio`` (or a zero fresh rate), however the latency
    looks.
    """
    base_sweeps, base_sat = _load_serving(baseline_dir)
    fresh_sweeps, fresh_sat = _load_serving(fresh_dir)
    if not base_sweeps:
        return [], 0
    compared = []
    for key, base in sorted(base_sweeps.items()):
        fresh = fresh_sweeps.get(key)
        if fresh is None:
            continue
        base_p95 = float(base.get("p95_ms", float("nan")))
        fresh_p95 = float(fresh.get("p95_ms", float("nan")))
        if not (base_p95 > 0) or fresh_p95 != fresh_p95:
            continue
        compared.append((key, base_p95, fresh_p95, fresh_p95 / base_p95))
    calibration = 1.0
    if compared:
        ratios = sorted(ratio for _k, _b, _f, ratio in compared)
        calibration = ratios[len(ratios) // 2]
    failures = []
    for key, base_p95, fresh_p95, ratio in compared:
        adjusted = ratio / max(calibration, 1e-12)
        if adjusted > max_ratio:
            failures.append(
                (f"{dict(key)}: p95 {base_p95:.2f}ms -> {fresh_p95:.2f}ms"
                 f" ({adjusted:.2f}x calibrated)")
            )
    for kernel, base_rate in sorted(base_sat.items()):
        fresh_rate = fresh_sat.get(kernel)
        if fresh_rate is None or base_rate <= 0:
            continue
        # Throughput scales inversely with machine speed: reuse the
        # latency calibration for the drop.
        drop = base_rate / max(fresh_rate, 1e-9)
        if fresh_rate <= 0 or drop / max(calibration, 1e-12) > max_ratio:
            failures.append(
                (f"{kernel}: saturation collapsed "
                 f"{base_rate:,.0f} -> {fresh_rate:,.0f} q/s")
            )
    return failures, len(compared)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=pathlib.Path,
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--fresh", required=True, type=pathlib.Path,
                        help="directory of freshly generated BENCH_*.json")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when the calibrated slowdown exceeds this")
    parser.add_argument("--min-seconds", type=float, default=0.02,
                        help="skip records whose baseline is below this")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="compare raw ratios (same-machine baselines)")
    parser.add_argument("--max-obs-overhead", type=float, default=1.05,
                        help="fail when enabled-telemetry overhead on the "
                             "hot path exceeds this ratio")
    parser.add_argument("--max-checkpoint-overhead", type=float,
                        default=1.10,
                        help="fail when durable checkpointing overhead on "
                             "the ingest hot path exceeds this ratio")
    args = parser.parse_args(argv)

    baseline = load_records(args.baseline)
    fresh = load_records(args.fresh)
    if not baseline:
        print(f"no baseline records under {args.baseline}; nothing to gate")
        return 0
    if not fresh:
        print(f"ERROR: no fresh records under {args.fresh}")
        return 2

    compared = []
    skipped = 0
    for key, base_time in sorted(baseline.items()):
        if key not in fresh:
            print(f"  [only-baseline] {key[0]}: {dict(key[1:])}")
            continue
        new_time = fresh[key]
        if base_time < args.min_seconds:
            # A sub-floor baseline cannot be gated: its ratio is
            # scheduler noise, not a kernel measurement.
            skipped += 1
            continue
        compared.append((key, base_time, new_time,
                         new_time / max(base_time, 1e-12)))
    for key in sorted(set(fresh) - set(baseline)):
        print(f"  [only-fresh] {key[0]}: {dict(key[1:])}")

    # Machine-speed calibration: the median ratio is the fleet-wide
    # shift between the baseline machine and this one; regressions are
    # judged relative to it.
    calibration = 1.0
    if compared and not args.no_calibrate:
        ratios = sorted(ratio for _k, _b, _n, ratio in compared)
        calibration = ratios[len(ratios) // 2]
    failures = []
    for key, base_time, new_time, ratio in compared:
        adjusted = ratio / max(calibration, 1e-12)
        status = "FAIL" if adjusted > args.max_ratio else "ok"
        print(
            f"  [{status}] {key[0]} {dict(key[1:])}: "
            f"{base_time:.4f}s -> {new_time:.4f}s "
            f"({ratio:.2f}x raw, {adjusted:.2f}x calibrated)"
        )
        if adjusted > args.max_ratio:
            failures.append((key, adjusted))

    wire_failures = check_wire_bytes(args.fresh)
    serving_failures, serving_compared = check_serving(
        args.baseline, args.fresh, args.max_ratio
    )
    obs_failures, obs_compared = check_obs(
        args.fresh, args.max_obs_overhead, args.min_seconds
    )
    recovery_failures, recovery_compared = check_recovery(
        args.fresh, args.max_checkpoint_overhead, args.min_seconds
    )
    print(
        f"compared {len(compared)} records (calibration {calibration:.2f}x),"
        f" skipped {skipped} below {args.min_seconds}s,"
        f" {serving_compared} serving sweep points,"
        f" {obs_compared} telemetry-overhead records,"
        f" {recovery_compared} checkpoint-overhead records,"
        f" {len(failures)} regressions,"
        f" {len(serving_failures)} serving violations,"
        f" {len(wire_failures)} wire-size violations,"
        f" {len(obs_failures)} telemetry-overhead violations,"
        f" {len(recovery_failures)} checkpoint-overhead violations"
    )
    if recovery_failures:
        print(
            "CHECKPOINT-OVERHEAD VIOLATIONS "
            f"(store/no-store > {args.max_checkpoint_overhead:.2f}x):"
        )
        for benchmark, record, ratio in recovery_failures:
            print(f"  {benchmark} {record.get('backend')}: x{ratio:.3f} "
                  f"(no store "
                  f"{record.get('wall_time_nostore_s', 0.0):.4f}s -> "
                  f"store {record.get('wall_time_store_s', 0.0):.4f}s)")
    if obs_failures:
        print(
            "TELEMETRY-OVERHEAD VIOLATIONS "
            f"(enabled/disabled > {args.max_obs_overhead:.2f}x):"
        )
        for benchmark, record, ratio in obs_failures:
            print(f"  {benchmark} {record.get('kernel')}: x{ratio:.3f} "
                  f"(disabled {record.get('wall_time_disabled_s', 0.0):.4f}s"
                  f" -> enabled "
                  f"{record.get('wall_time_enabled_s', 0.0):.4f}s)")
    if serving_failures:
        print("SERVING VIOLATIONS (p95 regression / saturation collapse):")
        for line in serving_failures:
            print(f"  {line}")
    if wire_failures:
        print("WIRE-SIZE VIOLATIONS (compressed > raw):")
        for benchmark, record, wire, raw in wire_failures:
            print(f"  {benchmark} {record.get('method')}/"
                  f"{record.get('mode')}: {wire} > {raw} bytes")
    if failures:
        print("REGRESSIONS (> {:.1f}x calibrated slowdown):".format(
            args.max_ratio))
        for key, adjusted in failures:
            print(f"  {key[0]} {dict(key[1:])}: {adjusted:.2f}x")
    return 1 if (
        failures or wire_failures or serving_failures or obs_failures
        or recovery_failures
    ) else 0


if __name__ == "__main__":
    sys.exit(main())
