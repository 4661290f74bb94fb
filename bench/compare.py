"""Result sets: make one (``--suite``) and compare two (``--compare``).

A result set is N untraced runs of every workload, one seed each — the
same thing the driver makes. ``--compare A B`` applies the bounds of
``BENCHMARK.json`` the way the choosing-metrics guide prescribes: per
metric per workload, each side's median and quartiles; B is a
*regression* when its median is worse than A's by more than the bound,
and *unresolved* (never "unchanged") when a side's own quartile spread
exceeds the bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench import harness
from bench.spec import load_benchmark
from bench.surface import ROOT

#: Ceiling on one child run (the driver's own limit).
RUN_TIMEOUT = 180

#: Per-layer metrics that are counts of a seeded, deterministic run.
EXACT_PREFIXES = ("check.engine.", "check.schedules_run",
                  "check.distinct_states", "check.deduped_nodes",
                  "check.leases", "halting.markers_per_halt.",
                  "halting.des_halt_sim_time", "breakpoints.hits")


def run_suite(runs: int, first_seed: int, seconds: Optional[float],
              out: Optional[str], only: Optional[str] = None) -> int:
    """``runs`` untraced seeds of every workload (or of ``only``) and one
    traced run each, every run in its own interpreter."""
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]
             if only in (None, w["name"])]
    results: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    for workload in names:
        for seed in range(first_seed, first_seed + runs):
            result = _one_run(workload, seed, seconds, trace=0)
            if result is None:
                return 2
            results.append(result)
        result = _one_run(workload, first_seed, seconds, trace=1)
        if result is None:
            return 2
        traced.append(result)
    payload = {"host": harness.host_stamp(ROOT),
               "seconds": seconds or benchmark["run_seconds"],
               "runs": results, "traced": traced}
    if out:
        harness.write_json(out, payload)
    print_spreads(payload, benchmark)
    return 0


def _one_run(workload: str, seed: int, seconds: Optional[float],
             trace: int) -> Optional[Dict[str, Any]]:
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT)
    if done.returncode != 0:
        print(f"bench: run {command} exit {done.returncode}", file=sys.stderr)
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed)
    print(f"{workload} seed {seed} trace {trace}: attempted "
          f"{result['attempted']} failed {result['failed']}", flush=True)
    return result


def summarize(result_set: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``{workload: {metric: {"values", "q1", "median", "q3", "spread"}}}``."""
    table: Dict[str, Dict[str, Any]] = {}
    for run in result_set["runs"]:
        row = table.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            if entry["value"] is not None:
                row.setdefault(name, {"values": []})["values"].append(
                    entry["value"])
    for row in table.values():
        for cell in row.values():
            q1, mid, q3 = harness.quartiles(cell["values"])
            cell.update(q1=q1, median=mid, q3=q3,
                        spread=(q3 - q1) / mid if mid else float("inf"))
    return table


def print_spreads(result_set: Dict[str, Any],
                  benchmark: Dict[str, Any]) -> None:
    """Each metric's quartile spread as a share of its median, against
    its bound (target: a third of the bound)."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    failed = sum(run["failed"] for run in result_set["runs"])
    print(f"failed ops over the set: {failed}")
    for workload, row in summarize(result_set).items():
        for name, cell in row.items():
            bound = bounds.get(name)
            if bound is None:
                continue
            verdict = ("steady" if cell["spread"] <= bound / 3
                       else "within bound" if cell["spread"] <= bound
                       else "TOO NOISY")
            print(f"{workload:6s} {name:28s} median {cell['median']:12.4f} "
                  f"spread {cell['spread']:7.4f} bound {bound:.2f} {verdict}")


def compare_files(path_a: str, path_b: str) -> int:
    """Exit 0 when B holds every bound against A, 1 on a regression or an
    unresolved metric."""
    benchmark = load_benchmark()
    with open(path_a, encoding="utf-8") as fp:
        set_a = json.load(fp)
    with open(path_b, encoding="utf-8") as fp:
        set_b = json.load(fp)
    side_a, side_b = summarize(set_a), summarize(set_b)
    worst = 0
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in side_a:
            a = side_a[workload].get(name)
            b = side_b.get(workload, {}).get(name)
            if a is None or b is None:
                verdict = "MISSING"
            else:
                worse = sign * (b["median"] - a["median"]) / a["median"]
                if max(a["spread"], b["spread"]) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                else:
                    verdict = "ok"
            if verdict != "ok":
                worst = 1
            if a is None or b is None:
                print(f"{workload:6s} {name:28s} {verdict}")
                continue
            print(f"{workload:6s} {name:28s} "
                  f"A {a['median']:11.4f} [{a['q1']:.4f}, {a['q3']:.4f}]  "
                  f"B {b['median']:11.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
                  f"worse by {worse:+.4f} (bound {bound:.2f}) {verdict}")
    return max(worst, _compare_counts(set_a, set_b))


def _compare_counts(set_a: Dict[str, Any], set_b: Dict[str, Any]) -> int:
    """Counts that must repeat exactly between traced runs of one seed."""
    worst = 0
    traced_b = {(run["workload"], run["seed"]): run
                for run in set_b.get("traced", ())}
    for run_a in set_a.get("traced", ()):
        run_b = traced_b.get((run_a["workload"], run_a["seed"]))
        if run_b is None:
            continue
        differing = [
            name for name, entry in run_a["metrics"].items()
            if name.startswith(EXACT_PREFIXES)
            and entry["value"] != run_b["metrics"][name]["value"]
        ]
        print(f"{run_a['workload']:6s} exact-repeat counts, seed "
              f"{run_a['seed']}: "
              + (f"DIFFER {differing}" if differing else "identical"))
        worst = max(worst, 1 if differing else 0)
    return worst
