"""Benchmark workloads: inputs made from a seed, one timed operation per
workload, and the output records checked against the stored reference.

Every workload draws its trials from the entries of its reference file, so
every operation a run makes can be checked. The scenarios' entries come in
turn, and one operation runs ``per_op`` of them: a batch runs one entry of
each scenario, because batches of scenarios 1 and 2 differ in cost, and an
operation that mixed them would give its time two modes. The run seed
shuffles each scenario's entries.

- ``nnt_tracking``: scenario 3. The estimator runs inside the simulation
  loop (surface fit, matrix rebuild and effect curve at every NNT update).
- ``replication_batch``: scenarios 1 and 2 in turn, through
  ``run_replications`` with a process pool, 100 replications per batch as in
  the acceptance fixture; rate-tracking updates are cheap, so evaluation,
  the pool and aggregation dominate.
- ``logged_replay``: scenarios 4 and 5 in turn, through ``adaptrd simulate``
  then ``adaptrd estimate`` in-process, writing and re-reading the logged
  files. Cloglog model refits on the growing prefix (recalibration in 4,
  revision in 5) dominate the simulation; the estimator runs at only a few
  updates, so an effect-curve speed-up barely shows here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import adaptrd.cli
import adaptrd.config
import adaptrd.harness

METHODS = adaptrd.harness.METHODS
REL_TOL = 1e-9  # a value drifts out of agreement beyond |a - b| > REL_TOL * max(1, |b|)

SIM_FILES = ("trial.csv", "events.csv", "matrix.csv", "curve.csv", "summary.json")


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str  # trial | batch | replay
    scenarios: tuple[int, ...]
    pool: int  # reference entries made by make_reference.py
    seed_base: int
    per_op: int = 1  # entries in one operation
    replications: int = 0  # per batch, for kind == "batch"

    def ops_per_cycle(self) -> int:
        """Operations that run one entry of every scenario."""
        return len(self.scenarios) // self.per_op


WORKLOADS = {
    "nnt_tracking": WorkloadSpec("trial", (3,), pool=64, seed_base=10_000),
    "replication_batch": WorkloadSpec("batch", (1, 2), pool=32, seed_base=30_000, per_op=2,
                                      replications=100),
    "logged_replay": WorkloadSpec("replay", (4, 5), pool=48, seed_base=40_000),
}


def pool_entries(spec: WorkloadSpec, pool: int) -> list[dict]:
    """(scenario, seed) of every reference entry, scenarios in turn."""
    return [
        {"scenario": spec.scenarios[i % len(spec.scenarios)], "seed": spec.seed_base + i}
        for i in range(pool)
    ]


def schedule(entries: list, seed: int, per_op: int):
    """Endless operations: lists of ``per_op`` entry indices.

    The scenarios' entries come in turn; ``seed`` shuffles each scenario's.
    """
    rng = random.Random(seed)
    queues = {}
    for idx, entry in enumerate(entries):
        queues.setdefault(entry["scenario"], []).append(idx)
    queues = [queues[scenario] for scenario in sorted(queues)]
    for queue in queues:
        rng.shuffle(queue)
    stream = (queue[turn % len(queue)] for turn in itertools.count() for queue in queues)
    while True:
        yield [next(stream) for _ in range(per_op)]


class Inputs:
    """Parsed configs (or config files) for every entry, built in set-up."""

    def __init__(self, spec: WorkloadSpec, entries: list, overrides: list, workdir: Path,
                 workers: int):
        self.spec = spec
        self.entries = entries
        self.workers = workers
        self.workdir = workdir
        self.parse_s = 0.0
        self.parse_calls = 0
        self.configs = []
        self.config_files = {}
        payloads = {}
        for scenario in sorted({e["scenario"] for e in entries}):
            payload = adaptrd.config.load_config_payload(f"scenario{scenario}")
            payloads[scenario] = adaptrd.config.apply_overrides(payload, list(overrides))
        if spec.kind == "replay":
            workdir.mkdir(parents=True, exist_ok=True)
            for scenario, payload in payloads.items():
                path = workdir / f"scenario{scenario}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                self.config_files[scenario] = path
        for entry in entries:
            payload = dict(payloads[entry["scenario"]], seed=entry["seed"])
            t0 = perf_counter()
            config = adaptrd.config.parse_config(payload)
            self.parse_s += perf_counter() - t0
            self.parse_calls += 1
            self.configs.append(config)

    def trials_per_op(self) -> int:
        per_entry = self.spec.replications if self.spec.kind == "batch" else 1
        return per_entry * self.spec.per_op

    def run(self, idx: int, span, warmup: bool = False) -> tuple[dict, dict]:
        """Run entry ``idx`` once; returns (phase seconds, output record).

        The phases time the program's calls only, not the building of the
        record. ``span(name, fn, *args)`` calls ``fn``; a traced run records
        it. A warm-up of a batch is one replication in this process, which
        loads what the program loads lazily before pool workers fork from it.
        """
        if self.spec.kind == "trial":
            return self._trial(idx)
        if self.spec.kind == "batch":
            if warmup:
                return self._batch(idx, 1, 1)
            return self._batch(idx, self.spec.replications, self.workers)
        return self._replay(idx, span)

    def _trial(self, idx: int):
        t0 = perf_counter()
        trial = adaptrd.harness.run_scenario(self.configs[idx])
        t1 = perf_counter()
        result = adaptrd.harness.evaluate_at_final_threshold(trial)
        t2 = perf_counter()
        record = _evaluation_record(trial.final_threshold, result.to_dict())
        return {"simulate": t1 - t0, "evaluate": t2 - t1}, record

    def _batch(self, idx: int, count: int, workers: int):
        t0 = perf_counter()
        report = adaptrd.harness.run_replications(self.configs[idx], count, workers=workers)
        t1 = perf_counter()
        record = {
            "trial_failures": report.trial_failures,
            "final_thresholds": report.final_thresholds,
            "errors": {m: report.per_method[m]["errors"] for m in METHODS},
            "reps": {m: report.per_method[m]["reps"] for m in METHODS},
        }
        return {"batch": t1 - t0}, record

    def _replay(self, idx: int, span):
        entry = self.entries[idx]
        config_file = str(self.config_files[entry["scenario"]])
        sim, est = self.workdir / "simulate", self.workdir / "estimate"
        sim_argv = ["simulate", "--config", config_file, "--seed", str(entry["seed"]),
                    "--out", str(sim)]
        est_argv = ["estimate", "--trial", str(sim / "trial.csv"), "--matrix",
                    str(sim / "matrix.csv"), "--config", config_file, "--out", str(est)]
        t0 = perf_counter()
        rc_sim = span("cli.main.simulate", adaptrd.cli.main, sim_argv)
        t1 = perf_counter()
        rc_est = span("cli.main.estimate", adaptrd.cli.main, est_argv)
        t2 = perf_counter()
        if rc_sim != 0 or rc_est != 0:
            raise RuntimeError(f"adaptrd exited with {rc_sim} (simulate), {rc_est} (estimate)")
        summary = json.loads((sim / "summary.json").read_text(encoding="utf-8"))
        record = _evaluation_record(summary["final_threshold"], summary["local_ate"])
        record["digests"] = {name: _sha256(sim / name) for name in SIM_FILES}
        record["digests"]["estimate/curve.csv"] = _sha256(est / "curve.csv")
        return {"cli_simulate": t1 - t0, "cli_estimate": t2 - t1}, record


def record_key(spec: WorkloadSpec, warmup: bool) -> str:
    """Key of the reference record an operation is checked against."""
    return "warmup_record" if warmup and spec.kind == "batch" else "record"


def _evaluation_record(final_threshold: float, evaluation: dict) -> dict:
    truth = evaluation["truth"]
    estimates = {m: evaluation["methods"][m]["estimate"] for m in METHODS}
    return {
        "final_threshold": final_threshold,
        "truth": truth,
        "estimates": estimates,
        "errors": {m: None if v is None else v - truth for m, v in estimates.items()},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rd_errors(record: dict) -> list:
    """Adaptive-RD errors (estimate - truth) held in a record."""
    errs = record["errors"]["adaptive_rd"]
    errs = errs if isinstance(errs, list) else [errs]
    return [e for e in errs if e is not None]


def compare(record, reference) -> tuple[bool, float]:
    """(agrees, largest absolute drift over the numbers both hold)."""
    drift = 0.0
    ok = True
    stack = [(record, reference)]
    while stack:
        got, want = stack.pop()
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                ok = False
                continue
            stack.extend((got[k], want[k]) for k in want)
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                ok = False
                continue
            stack.extend(zip(got, want))
        elif isinstance(want, float) and isinstance(got, (int, float)):
            gap = abs(float(got) - want)
            drift = max(drift, gap)
            if not gap <= REL_TOL * max(1.0, abs(want)):
                ok = False
        elif got != want or type(got) is not type(want):
            ok = False
    return ok, drift

