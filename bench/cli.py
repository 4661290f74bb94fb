"""``python3 -m bench`` — run one workload, a whole suite, or a comparison.

    python3 -m bench --workload ring --seed 0 --seconds 30 --trace 0
    python3 -m bench --workload bank --seed 0 --trace 1
    python3 -m bench --suite 10 --out bench/out/A.json
    python3 -m bench --suite 10 --workload ring --out bench/out/BENCH_ring.json
    python3 -m bench --compare A.json B.json
    python3 -m bench --workload ring --quick

One run prints every metric by name with its unit (median over its
samples, the sample count and the high percentile the sample supports),
then — as the last line of standard output — one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` on an untraced run, the per-layer ones on a
traced run. The exit code is non-zero only when the harness itself could
not run; failed ops are reported, not raised.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import compare, harness, legs, probes, spec, surface
from bench.harness import Recorder

#: Seconds a run may take before the watchdog dumps every thread's stack
#: and exits (the driver's own limit is 180).
WATCHDOG_SECONDS = 170


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: a smoke run, not a measurement")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--suite", type=int, metavar="N",
                        help="N seeds of every workload (or of --workload), "
                             "plus one traced run each, into --out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--break-gate", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare.compare_files(*args.compare)
    if args.suite:
        return compare.run_suite(args.suite, args.seed, args.seconds,
                                 args.out, args.workload)
    if not args.workload:
        parser.error("one of --workload, --suite, --compare is required")
    return run_workload(args)


def run_workload(args: argparse.Namespace) -> int:
    """One run of one workload; the contract's last-line JSON."""
    try:
        api = surface.load()
        benchmark = spec.load_benchmark()
    except (surface.SurfaceError, OSError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    regime = spec.REGIMES.get(args.workload)
    if regime is None:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{sorted(spec.REGIMES)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds else benchmark["run_seconds"]
    sizes = legs.Sizes(seconds, args.quick)
    traced = bool(args.trace)
    rec = Recorder(traced=traced)
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    started = time.perf_counter()
    try:
        with harness.scratch_dir() as scratch:
            legs.run_legs(api, regime, rec, sizes, args.seed, scratch)
            if traced:
                probes.run_probes(api, regime, rec, sizes, args.seed, scratch)
            if args.break_gate:
                rec.check(False, "self-test: deliberately wrong expectation")
        leaked = harness.live_children()
        rec.check(not leaked, f"child processes still alive at exit: {leaked}")
    finally:
        faulthandler.cancel_dump_traceback_later()
    wall = time.perf_counter() - started

    wanted = benchmark["per_layer" if traced else "end_to_end"]
    metrics, rows = finalize(rec, wanted)
    for row in rows:
        print(row)
    print(f"ops attempted {rec.attempted}, failed {rec.failed}; "
          f"wall {wall:.1f} s")
    missing = [name for name, entry in metrics.items()
               if entry["value"] is None]
    if missing:
        print(f"bench: metrics without a value: {missing}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0 and not missing,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    if traced:
        trace_path = os.path.join(harness.OUT_DIR,
                                  f"trace.{regime.name}.json")
        harness.write_json(trace_path, rec.chrome_trace())
        print(f"trace written to {os.path.relpath(trace_path)}; self time "
              "per layer (s): " + ", ".join(
                  f"{layer} {secs:.2f}"
                  for layer, secs in sorted(rec.self_times().items())))
    if args.out:
        harness.write_json(args.out, {
            **result,
            "workload": regime.name, "seed": args.seed, "seconds": seconds,
            "traced": traced, "quick": args.quick, "wall_s": wall,
            "failures": rec.failures,
            "host": harness.host_stamp(surface.ROOT),
        })
    print(json.dumps(result))
    return 0


def finalize(rec: Recorder, wanted: List[Dict[str, Any]]
             ) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Reduce samples to one value per wanted metric, in its unit; also
    the printable row of each."""
    derive(rec)
    metrics: Dict[str, Dict[str, Any]] = {}
    rows: List[str] = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        scale = spec.UNIT_SCALE.get(unit, 1.0)
        samples = rec.samples.get(name)
        if samples:
            value: Optional[float] = statistics.median(samples) * scale
            label, high = harness.phigh(samples)
            rows.append(f"{name:42s} {value:14.4f} {unit:6s} "
                        f"n={len(samples)} {label}={high * scale:.4f}")
        else:
            value = rec.values.get(name)
            rows.append(f"{name:42s} "
                        + (f"{value:14.4f}" if value is not None
                           else f"{'null':>14s}") + f" {unit:6s}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, rows


def derive(rec: Recorder) -> None:
    """Metrics that are arithmetic on other metrics of the same run."""
    def med(name: str) -> Optional[float]:
        samples = rec.samples.get(name)
        return statistics.median(samples) if samples else None

    threaded, live = med("user_msgs_per_s.threaded"), med("user_msgs_per_s.live")
    tapped, schedules = med("tapped_msgs_per_s"), med("schedules_per_s")
    if schedules:
        rec.set("check.resident_schedule_ms", 1e3 / schedules)
    if threaded:
        rec.set("runtime.threaded.hop_ms", 1e3 / threaded)
    if live:
        rec.set("distributed.hop_ms", 1e3 / live)
    if live and tapped:
        rec.set("distributed.framegate.tap_ratio", tapped / live)
