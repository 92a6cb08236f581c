"""Repository benchmark: three workloads against the public ``repro`` API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inproc_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no tracing and reports every end-to-end
metric.  ``--trace 1`` reports the per-layer metrics instead: it runs
the chosen workload untraced for half the time and traced for the other
half, and writes the spans as Chrome trace-event JSON to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a human-readable report: host record, per-workload operation
accounting, and every latency series with its p99 and sample count.
The exit code is 1 when any result was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: a seed kept out of development runs, for a later claim to confirm on
CONFIRM_SEED = 7919

WORKLOADS = ("inproc_small", "procs_shm", "async_hooks")

#: share of ``--seconds`` the selected workload measures in an untraced
#: run; the other two workloads share the rest, so every run reports all
#: end-to-end metrics
PRIMARY_SHARE = 0.5

#: a run is cut into this many rounds, each running a slice of every
#: workload in turn, so every metric samples the whole run and slow drift
#: of the host's speed reaches all metrics alike
ROUNDS = 6

#: how procs_shm starts its rank processes (the runtime's own default)
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

#: raw spans kept per process for the Chrome trace export
SPAN_CAP = 50_000

#: (metric, unit)
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("inter_rtt_p50_us", "us"),
    ("intra_rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
    ("allreduce_p50_us", "us"),
    ("allreduce_p90_us", "us"),
    ("user_allreduce_p50_us", "us"),
    ("user_allreduce_p90_us", "us"),
    ("shm_rtt_p50_us", "us"),
    ("shm_rtt_p90_us", "us"),
    ("shm_256k_mb_s", "MB/s"),
    ("shm_1m_mb_s", "MB/s"),
    ("shm_allreduce_1m_mb_s", "MB/s"),
    ("async_lat_p50_us", "us"),
    ("async_lat_p90_us", "us"),
    ("async_tasks_per_s", "1/s"),
]


def _import_runtime():
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

    import layers
    import workloads

    return layers, workloads


def host_record(cpus: list[int], allocator: dict | None) -> dict:
    import repro

    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "python": sys.version.split()[0],
        "gil_enabled": True if gil is None else bool(gil()),
        "lockfree_active": repro.RuntimeConfig().lockfree_active(),
        "REPRO_LOCKFREE": os.environ.get("REPRO_LOCKFREE"),
        "start_method": START_METHOD,
        "binding": "procs_shm: spawned from the first usable CPU, rank r on the r-th",
        "allocator": allocator,
        "confirm_seed": CONFIRM_SEED,
    }


def _pct(xs: list[float], q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def end_to_end(series: dict[str, list[float]], totals: dict[str, float], setup_s: list[float]) -> dict[str, float]:
    def p50_us(key: str) -> float:
        return statistics.median(series[key]) * 1e6

    def p90_us(key: str) -> float:
        return _pct(series[key], 90) * 1e6

    def mb_s(key: str, nbytes: int) -> float:
        return nbytes / statistics.median(series[key]) / 1e6

    return {
        "setup_s": statistics.median(setup_s),
        "inter_rtt_p50_us": p50_us("inter_rtt"),
        "intra_rtt_p50_us": p50_us("intra_rtt"),
        "rtt_p90_us": p90_us("rtt"),
        "allreduce_p50_us": p50_us("allreduce"),
        "allreduce_p90_us": p90_us("allreduce"),
        "user_allreduce_p50_us": p50_us("user_allreduce"),
        "user_allreduce_p90_us": p90_us("user_allreduce"),
        "shm_rtt_p50_us": p50_us("shm_rtt"),
        "shm_rtt_p90_us": p90_us("shm_rtt"),
        # ping-pong moves the payload both ways per round trip
        "shm_256k_mb_s": mb_s("shm_256k", 2 * 256 * 1024),
        "shm_1m_mb_s": mb_s("shm_1m", 2 * (1 << 20)),
        "shm_allreduce_1m_mb_s": mb_s("shm_ar", 1 << 20),
        "async_lat_p50_us": p50_us("async_lat"),
        "async_lat_p90_us": p90_us("async_lat"),
        "async_tasks_per_s": totals["async_done"] / totals["async_s"],
    }


def _run_slice(wl, name: str, seed: int, slice_no: int, seconds: float, cpus: list[int], **kw):
    if name == "inproc_small":
        return wl.run_inproc(seed, slice_no, seconds, **kw)
    if name == "procs_shm":
        return wl.run_procs(seed, slice_no, seconds, start_method=START_METHOD, cpus=cpus, **kw)
    return wl.run_async(seed, slice_no, seconds, **kw)


def _run(wl, plan: list[tuple[str, str, float, dict]], seed: int, cpus: list[int]) -> dict:
    """Run ``plan`` -- (result key, workload, share of the run, options) --
    for ``ROUNDS`` rounds; returns the merged result per key.  A workload
    whose world hung or died runs no further slices."""
    results = {}
    for rnd in range(ROUNDS):
        for key, name, seconds, kw in plan:
            if key in results and results[key].aborted:
                continue
            if rnd and "span_cap" in kw:
                kw = dict(kw, span_cap=0)  # keep raw spans of round 0 only
            gc.collect()  # every slice starts from a collected heap
            r = _run_slice(wl, name, seed, rnd, seconds / ROUNDS, cpus, **kw)
            if key in results:
                results[key].merge(r)
            else:
                results[key] = r
    return results


def _series_report(series: dict[str, list[float]]) -> list[str]:
    lines = []
    for key in sorted(series):
        xs = series[key]
        if not xs:
            lines.append(f"  {key:<16} n=0")
            continue
        lines.append(
            f"  {key:<16} n={len(xs):<7} p50={statistics.median(xs) * 1e6:10.2f} us"
            f"  p90={_pct(xs, 90) * 1e6:10.2f} us  p99={_pct(xs, 99) * 1e6:10.2f} us"
            f" ({max(0, len(xs) - int(0.99 * len(xs)))} samples beyond p99)"
        )
    return lines


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker that
    multiprocessing starts for ``procs_shm``, so no process outlives the
    run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    layers, wl = _import_runtime()
    cpus = wl.usable_cpus()
    host = host_record(cpus, wl.ALLOCATOR if wl.fix_allocator() else None)
    print("host " + json.dumps(host))
    t_origin_ns = time.perf_counter_ns()

    if args.trace:
        # Untraced and traced slices alternate; spans are exported from the
        # first traced slice only.
        half = args.seconds / 2
        traced_kw = {"sample_setup": True, "trace": True, "span_cap": SPAN_CAP, "t_origin_ns": t_origin_ns}
        plan = [
            ("base", args.workload, half, {"sample_setup": True}),
            ("traced", args.workload, half, traced_kw),
        ]
        results = _run(wl, plan, args.seed, cpus)
        base, traced = results["base"], results["traced"]
        runs = {args.workload: traced}
        setup_ms = statistics.median(base.setup_s + traced.setup_s) * 1e3
        procs = args.workload == "procs_shm"
        metrics = layers.layer_metrics(
            traced.traces,
            **{
                "runtime.world_build_ms": 0.0 if procs else setup_ms,
                "runtime.spawn_ms": setup_ms if procs else 0.0,
                "trace.overhead_ratio": (traced.op_wall_s / traced.ops) / (base.op_wall_s / base.ops),
            },
        )
        units = dict(layers.PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"traceEvents": traced.chrome, "displayTimeUnit": "ns"}))
        print(f"trace  {len(traced.chrome)} spans -> {trace_path.relative_to(ROOT)}")
        accounting = [base, traced]
    else:
        others = [w for w in WORKLOADS if w != args.workload]
        plan = [(args.workload, args.workload, args.seconds * PRIMARY_SHARE, {"sample_setup": True})]
        plan += [(w, w, args.seconds * (1 - PRIMARY_SHARE) / len(others), {}) for w in others]
        runs = _run(wl, plan, args.seed, cpus)
        series: dict[str, list[float]] = {}
        totals: dict[str, float] = {}
        for r in runs.values():
            series.update(r.series)
            totals.update(r.totals)
        units = dict(END_TO_END)
        accounting = list(runs.values())
        try:
            metrics = end_to_end(series, totals, runs[args.workload].setup_s)
        except (KeyError, statistics.StatisticsError, ZeroDivisionError):
            metrics = None  # a failure left a series empty

    attempted = sum(r.attempted for r in accounting)
    failed = sum(r.failed for r in accounting)
    wrong = sum(r.wrong for r in accounting)
    for name, r in runs.items():
        print(f"{name}: attempted={r.attempted} failed={r.failed} wrong={r.wrong}")
        for line in _series_report(r.series):
            print(line)
        for note in r.notes[:20]:
            print(f"  ! {note}")
    if metrics is None:
        print("perfbench: no metrics, a workload produced no samples", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"  {name:<32} {value:14.4f} {units[name]}")

    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, host=host, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
