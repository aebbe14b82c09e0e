"""Smoke test of the benchmark itself, at a tiny size (800 patients).

    python3 -m pytest -q bench/test_bench.py

Builds a small reference through the config overrides, then checks that a
run prints every named metric with its unit, that traced self times add up
to the traced trial time, and that a perturbed reference is caught.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--override", "n_patients=800"]


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _python(*args, check=True, cpus=None):
    done = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=300, check=False, preexec_fn=_one_cpu if cpus == 1 else None)
    if check and done.returncode != 0:
        raise AssertionError(done.stderr)
    return done


def _bench(workload, reference, trace=0, cpus=None):
    done = _python(BENCH / "run.py", "--workload", workload, "--seed", 5, "--seconds", 1,
                   "--trace", trace, "--reference", reference, cpus=cpus)
    lines = done.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record: "))[len("record: "):])
    return lines, record, json.loads(lines[-1])


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    out = tmp_path_factory.mktemp("ref")
    paths = {}
    for workload in WORKLOADS:
        paths[workload] = out / f"{workload}.json"
        _python(BENCH / "make_reference.py", "--workload", workload, "--pool", 2, *TINY,
                "--out", paths[workload])
    return paths


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, references):
    lines, record, result = _bench(workload, references[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, value in record["end_to_end"].items():
        line = next(ln for ln in lines if ln.startswith(f"  {name} = "))
        assert value is None or len(line.split()) == 4, line  # name = value unit
    env = record["environment"]
    assert env["blas_threads"] == "1" and env["seed"] == 5 and env["cpu_count"] >= 1


@pytest.mark.parametrize("workload,cpus", [
    ("nnt_tracking", None),
    ("replication_batch", None),
    ("replication_batch", 1),  # a pool of one runs replications in the traced process
    ("logged_replay", None),
])
def test_traced_self_times_add_up_to_the_trial_time(workload, cpus, references):
    _, record, result = _bench(workload, references[workload], 1, cpus)
    if cpus is not None:
        assert record["environment"]["workers"] == cpus
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    trace = record["trace"]
    assert trace["self_sum_max_rel_gap"] < 1e-9
    layers = trace["layers"]
    # Forked pool workers keep their own span trees, each rooted at one replication.
    roots = ["bench.op"]
    if workload == "replication_batch" and record["environment"]["workers"] > 1:
        roots.append("harness._run_one_replication")
    if workload == "replication_batch":
        assert layers["harness._run_one_replication"]["calls"] > 0
    self_sum = sum(row["self_ms"] for row in layers.values())
    assert self_sum == pytest.approx(sum(layers[name]["ms"] for name in roots))


@pytest.mark.parametrize("workload,path", [
    ("nnt_tracking", ("record", "truth")),
    ("logged_replay", ("record", "digests", "matrix.csv")),
])
def test_perturbed_reference_is_caught(workload, path, references, tmp_path):
    reference = json.loads(references[workload].read_text())
    for entry in reference["entries"]:
        node = entry
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        node[path[-1]] = value + 1e-6 if isinstance(value, float) else "0" * len(value)
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(reference))
    _, record, result = _bench(workload, perturbed)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    if isinstance(value, float):
        assert record["max_abs_drift"] == pytest.approx(1e-6, rel=1e-3)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (tmp_path / "bench" / name).write_text((BENCH / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = _python(tmp_path / "bench" / "run.py", "--workload", "nnt_tracking", "--seed", 1,
                   "--seconds", 1, "--trace", 0, "--reference", BENCH / "reference" /
                   "nnt_tracking.json", check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
