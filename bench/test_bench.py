"""Self-test of the benchmark harness (not part of tier-1: pytest's
``testpaths`` is ``tests``). Run with::

    python3 -m pytest bench/test_bench.py -q

Every test drives the real command at ``--quick`` sizes in a child
interpreter under ``-W error::ResourceWarning``, so a leaked socket,
thread or file in the harness fails here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(*args, cwd=ROOT, strict=True):
    command = [sys.executable]
    if strict:
        command += ["-W", "error::ResourceWarning"]
    command += ["-m", "bench", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return [m["name"] for m in json.load(fp)[kind]]


@pytest.mark.parametrize("workload", ["ring", "bank"])
def test_quick_untraced_run_reports_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "4",
                 "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(declared("end_to_end"))
    for name, entry in result["metrics"].items():
        assert entry["value"] and entry["value"] > 0, name


def test_quick_traced_run_reports_every_per_layer_metric_and_a_trace():
    done = bench("--workload", "ring", "--seed", "3", "--seconds", "4",
                 "--trace", "1", "--quick")
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert result["correct"] is True, done.stderr
    assert sorted(result["metrics"]) == sorted(declared("per_layer"))
    assert all(e["value"] is not None for e in result["metrics"].values())
    with open(os.path.join(ROOT, "bench", "out", "trace.ring.json"),
              encoding="utf-8") as fp:
        events = json.load(fp)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    ids = {e["args"]["id"] for e in events}
    assert all(e["args"]["parent"] in ids | {0} for e in events)


def test_a_wrong_expectation_is_counted_as_a_failed_op_not_raised():
    done = bench("--workload", "ring", "--seconds", "4", "--quick",
                 "--break-gate")
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert result["failed"] == 1 and result["correct"] is False
    assert "deliberately wrong expectation" in done.stderr


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "ring", "--seed", "0", "--seconds", "4",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert len(done.stderr.strip().splitlines()) == 1, done.stderr


def test_compare_flags_a_regression_and_an_unresolved_spread(tmp_path):
    def result_set(latency, spread):
        runs = [{"workload": "ring", "seed": seed, "failed": 0,
                 "metrics": {"halt_ms.live": {
                     "value": latency * (1 + spread * (seed % 3 - 1)),
                     "unit": "ms"}}} for seed in range(10)]
        return {"runs": runs}

    paths = {}
    for label, (latency, spread) in {
            "base": (10.0, 0.001), "same": (10.2, 0.001),
            "slow": (13.0, 0.001), "noisy": (10.0, 0.3)}.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(result_set(latency, spread)))

    def verdict(other):
        done = bench("--compare", str(paths["base"]), str(paths[other]),
                     strict=False)
        line = [row for row in done.stdout.splitlines()
                if "halt_ms.live" in row][0]
        return done.returncode, line

    assert verdict("same")[1].endswith(" ok")
    assert verdict("slow") == (1, verdict("slow")[1])
    assert verdict("slow")[1].endswith("REGRESSION")
    assert verdict("noisy")[1].endswith("unresolved")
