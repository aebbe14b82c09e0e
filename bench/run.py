"""adaptrd benchmark runner.

    python3 bench/run.py --workload nnt_tracking --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop (one client, each operation starts when
the previous one ends) for ``--seconds`` seconds (default: ``run_seconds``
of BENCHMARK.json), checks every output against the stored reference in
``bench/reference/``, and prints a human-readable report, one ``record:``
line with everything measured, and as its last line the JSON result. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
every other cycle of operations is traced and the result holds the per-layer metrics.
See bench/README.md.

The program under test is the ``src/`` tree next to this directory; the
runner refuses to run without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"
SETUP_SAMPLES = 3  # this process plus two probe processes
MAX_WORKERS = 2
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it


def pin_environment() -> None:
    """Single-threaded BLAS, so timings and outputs do not depend on the host's cores.

    Must run before numpy is imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment must run before numpy is imported")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import adaptrd from this checkout's src/, never from an installed copy."""
    if not (SRC / "adaptrd" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'adaptrd'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=None,
                   help="reference file (default: bench/reference/<workload>.json)")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once, print it and exit (used for set-up samples)")
    return p.parse_args(argv)


class Setup:
    """Import, config parsing and one untimed warm-up operation."""

    def __init__(self, workload: str, seed: int, reference_path: Path, workdir: Path):
        t0 = perf_counter()
        import numpy  # noqa: F401  (import time is part of set-up)

        import adaptrd  # noqa: F401
        import workloads

        self.import_s = perf_counter() - t0
        self.wl = workloads
        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"error: unknown workload {workload!r}")
        self.reference = json.loads(Path(reference_path).read_text(encoding="utf-8"))
        if self.reference["workload"] != workload:
            raise SystemExit(f"error: {reference_path} is the reference of another workload")
        self.spec = workloads.WORKLOADS[workload]
        self.workers = min(MAX_WORKERS, cpu_count())
        entries = self.reference["entries"]
        self.inputs = workloads.Inputs(
            self.spec, entries, self.reference["overrides"], workdir, self.workers
        )
        self.schedule = workloads.schedule(entries, seed, self.spec.per_op)
        # Warm-up, one entry of each scenario: loads the coefficient table
        # and scipy's lazy modules outside the timed trials (for batches, in
        # this process, before the pool workers fork from it).
        warm = [idx for _ in range(self.spec.ops_per_cycle()) for idx in next(self.schedule)]
        self.warmup = run_op(self, warm, plain_call, warmup=True)
        self.seconds = perf_counter() - t0


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_op(setup: Setup, entries: list, span, warmup: bool = False) -> dict:
    """One operation: one entry of each scenario, each checked against the reference.

    ``phases`` sums the entries' phase seconds, which time the program's
    calls and not the checking; it is None when an entry raised.
    ``seconds`` is their total, the operation's time.
    """
    op = {"checks": [], "phases": {}}
    key = setup.wl.record_key(setup.spec, warmup)
    for idx in entries:
        check = {"idx": idx, "ok": False, "drift": 0.0, "rd_errors": []}
        op["checks"].append(check)
        try:
            phases, record = setup.inputs.run(idx, span, warmup)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            op["phases"] = None
            continue
        check["ok"], check["drift"] = setup.wl.compare(record, setup.reference["entries"][idx][key])
        check["rd_errors"] = setup.wl.rd_errors(record)
        if op["phases"] is not None:
            for name, sec in phases.items():
                op["phases"][name] = op["phases"].get(name, 0.0) + sec
    op["seconds"] = None if op["phases"] is None else sum(op["phases"].values())
    return op


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(args) -> float:
    """Set-up seconds measured by a fresh interpreter running this file."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", "--reference", str(args.reference)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "cpu_count": cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adaptrd").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def measure(setup: Setup, seconds: float, tracer) -> dict:
    """Closed loop for ``seconds``; with a tracer, every other cycle is traced.

    A cycle is the operations that run one entry of every scenario. A run
    ends on a whole cycle, so each scenario is timed (and traced) equally
    often; a traced run goes on past ``seconds`` until one cycle is traced.
    """
    from tracer import TraceTotals

    untraced, traced = [], []
    totals = TraceTotals()
    spool = WORKDIR / f"spool-{os.getpid()}" if setup.spec.kind == "batch" else None
    cycle = setup.spec.ops_per_cycle()
    done = 0
    deadline = perf_counter() + seconds
    while done % cycle or perf_counter() < deadline or (tracer is not None and not traced):
        entries = next(setup.schedule)
        done += 1
        if tracer is None or (done - 1) // cycle % 2 == 0:
            untraced.append(run_op(setup, entries, plain_call))
            continue
        if spool is not None:
            spool.mkdir(parents=True, exist_ok=True)
        tracer.install(spool)
        try:
            traced.append(tracer.span("bench.op", run_op, setup, entries, tracer.span))
        finally:
            tracer.uninstall()
        totals.merge(tracer.take())
        if spool is not None:
            for part in sorted(spool.glob("*.json")):
                totals.merge(TraceTotals.from_dict(json.loads(part.read_text())))
                part.unlink()
    return {"untraced": untraced, "traced": traced, "totals": totals}


def trial_ms(setup: Setup, ops: list) -> list:
    """Milliseconds per trial of every operation that completed, in run order."""
    per_op = setup.inputs.trials_per_op()
    return [1000.0 * op["seconds"] / per_op for op in ops if op["seconds"] is not None]


def end_to_end(setup: Setup, ops: list) -> tuple[dict, dict]:
    """(gated metrics, every end-to-end figure) from untraced operations."""
    samples = trial_ms(setup, ops)
    timed = [op for op in ops if op["seconds"] is not None]
    tail_ms, tail_pct = tail(samples)
    gated = {
        "setup_s": None,  # filled in by main once the probes have run
        "trial_ms_p50": statistics.median(samples),
        "trial_ms_tail": tail_ms,
        "trials_per_s": 1000.0 * len(samples) / sum(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"trial_ms_tail_percentile": tail_pct, "trial_ms_samples": len(samples)}
    # Phases are per scenario entry: a trial, a batch, or a CLI command.
    per_entry = setup.spec.per_op
    for phase in timed[0]["phases"]:
        extra[f"{phase}_ms_p50"] = statistics.median(
            1000.0 * op["phases"][phase] / per_entry for op in timed)
    errs = [e for op in ops for check in op["checks"] for e in check["rd_errors"]]
    extra["rd_mse"] = statistics.fmean(e * e for e in errs) if errs else None
    return gated, extra


def per_layer(setup: Setup, measured: dict) -> tuple[dict, dict]:
    """(metrics listed in BENCHMARK.json, the full per-layer table)."""
    totals = measured["totals"]
    traced_ms = trial_ms(setup, measured["traced"])
    trials = len(measured["traced"]) * setup.inputs.trials_per_op()
    if not traced_ms:
        raise RuntimeError("no traced operation completed")
    c = totals.counts
    ms = {name: 1000.0 * s / trials for name, s in totals.inclusive.items()}
    self_ms = {name: 1000.0 * s / trials for name, s in totals.self_time.items()}
    calls = {name: n / trials for name, n in totals.calls.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    # Busy time of the program's calls over the time the operations took;
    # a batch's replications run on ``workers`` processes.
    busy = (totals.inclusive["harness._run_one_replication"] if setup.spec.kind == "batch"
            else totals.inclusive["bench.op"] - totals.self_time["bench.op"])
    workers = setup.workers if setup.spec.kind == "batch" else 1
    op_seconds = sum(op["seconds"] for op in measured["traced"] if op["seconds"] is not None)
    update_names = ("adaptation.threshold_for_rate", "adaptation.threshold_for_nnt",
                    "adaptation.recalibrate_model", "adaptation.revise_model")
    metrics = {
        "harness.run_scenario.ms": ms.get("harness.run_scenario", 0.0),
        "harness.run_scenario.self_ms": self_ms.get("harness.run_scenario", 0.0),
        "harness.evaluate_at_final_threshold.ms": ms.get("harness.evaluate_at_final_threshold", 0.0),
        "estimator.fit_outcome_surface.ms": ms.get("estimator.fit_outcome_surface", 0.0),
        "estimator.estimate_effect.ms": ms.get("estimator.estimate_effect", 0.0),
        "estimator.naive_diff.ms": ms.get("estimator.naive_diff", 0.0),
        "estimator.outcome_regression_ate.ms": ms.get("estimator.outcome_regression_ate", 0.0),
        "estimator.ipw_ate.ms": ms.get("estimator.ipw_ate", 0.0),
        "estimator.aipw_ate.ms": ms.get("estimator.aipw_ate", 0.0),
        "numerics.fit_glm.surface.ms": ms.get("numerics.fit_glm.surface", 0.0),
        "numerics.fit_glm.comparator.ms": ms.get("numerics.fit_glm.comparator", 0.0),
        "adaptation.update.ms": sum(ms.get(n, 0.0) for n in update_names),
        "risk_engine.build_counterfactual_matrix.ms": ms.get("risk_engine.build_counterfactual_matrix", 0.0),
        "risk_engine.predict_risk_batch.ms": ms.get("risk_engine.predict_risk_batch", 0.0),
        "cohort.sample_cohort.ms": ms.get("cohort.sample_cohort", 0.0),
        "outcomes.outcomes_from_noise.ms": ms.get("outcomes.outcomes_from_noise", 0.0),
        "outcomes.true_smoothed_ate.ms": ms.get("outcomes.true_smoothed_ate", 0.0),
        "setup.import_ms": 1000.0 * setup.import_s,
        "config.parse_config.ms": 1000.0 * setup.inputs.parse_s / setup.inputs.parse_calls,
        "tracing.overhead_ms": (statistics.median(traced_ms)
                                - statistics.median(trial_ms(setup, measured["untraced"]))),
        "estimator.effect_curve.calls": calls.get("estimator.effect_curve", 0.0),
        "estimator.effect_curve.points": c["estimator.effect_curve.points"] / trials,
        "estimator.curve_se_used_ratio": ratio(c["estimator.se_read"], c["estimator.se_computed"]),
        "estimator.fit_outcome_surface.calls": calls.get("estimator.fit_outcome_surface", 0.0),
        "estimator.comparator_fit_reuse_ratio": ratio(
            c["estimator.comparator_distinct_fits"], totals.calls["numerics.fit_glm.comparator"]),
        "numerics.gaussian_kernel_weights.calls": c["numerics.gaussian_kernel_weights.calls"] / trials,
        "adaptation.recalibrate_model.calls": calls.get("adaptation.recalibrate_model", 0.0),
        "adaptation.revise_model.calls": calls.get("adaptation.revise_model", 0.0),
        "adaptation.threshold_for_rate.calls": calls.get("adaptation.threshold_for_rate", 0.0),
        "adaptation.threshold_for_nnt.calls": calls.get("adaptation.threshold_for_nnt", 0.0),
        "risk_engine.build_counterfactual_matrix.calls": calls.get("risk_engine.build_counterfactual_matrix", 0.0),
        "risk_engine.build_counterfactual_matrix.columns": c["risk_engine.build_counterfactual_matrix.columns"] / trials,
        "risk_engine.predict_risk_batch.rows": c["risk_engine.predict_risk_batch.rows"] / trials,
        "risk_engine.rescore_ratio": ratio(c["risk_engine.predict_risk_batch.rows"], c["risk_engine.rescore_base"]),
        "risk_engine.ModelHistory.append.calls": c["risk_engine.ModelHistory.append.calls"] / trials,
        "risk_engine.matrix_csv.bytes": c["risk_engine.matrix_csv.bytes"] / trials,
        "harness.parallel_efficiency": busy / (workers * op_seconds),
    }
    for role in ("surface", "model_update", "comparator"):
        name = f"numerics.fit_glm.{role}"
        metrics[f"{name}.calls"] = calls.get(name, 0.0)
        metrics[f"{name}.iterations"] = c[f"{name}.iterations"] / trials
    table = {
        "trials": trials,
        "self_sum_max_rel_gap": totals.check_self_sum(),
        "layers": {
            name: {"calls": calls[name], "ms": ms[name], "self_ms": self_ms[name]}
            for name in sorted(totals.calls)
        },
        "counts_per_trial": {k: v / trials for k, v in sorted(c.items())},
    }
    return metrics, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.reference is None:
        args.reference = BENCH_DIR / "reference" / f"{args.workload}.json"
    args.reference = Path(args.reference).resolve()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if not args.reference.is_file():
        print(f"error: reference {args.reference} not found", file=sys.stderr)
        return 2
    pin_environment()
    use_checkout_source()
    workdir = WORKDIR / f"run-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(WORKDIR / f"spool-{os.getpid()}", ignore_errors=True)


def _run(args, workdir: Path) -> int:
    setup = Setup(args.workload, args.seed, args.reference, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup.seconds}))
        return 0
    tracer = None
    if args.trace:
        import adaptrd
        from tracer import Tracer

        tracer = Tracer({name: getattr(adaptrd, name) for name in (
            "adaptation", "cli", "cohort", "estimator", "harness", "outcomes", "risk_engine")})
        if setup.spec.kind == "batch" and not tracer.workers_inherit_rebinding():
            print("error: tracing pool workers needs the fork start method", file=sys.stderr)
            return 2
    measured = measure(setup, args.seconds, tracer)
    checks = [c for op in [setup.warmup, *measured["untraced"], *measured["traced"]]
              for c in op["checks"]]
    attempted = len(checks)
    failed = sum(1 for c in checks if not c["ok"])
    drift = max(c["drift"] for c in checks)
    if not trial_ms(setup, measured["untraced"]):
        print("error: no operation completed", file=sys.stderr)
        return 1
    gated, extra = end_to_end(setup, measured["untraced"])
    setup_samples = [setup.seconds]
    if not args.trace:
        setup_samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    gated["setup_s"] = statistics.median(setup_samples)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args, setup.workers),
        "end_to_end": {**gated, **extra},
        "setup_samples_s": setup_samples,
        "trial_ms_in_order": trial_ms(setup, measured["untraced"]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "max_abs_drift": drift,
    }
    if args.trace:
        layer_metrics, table = per_layer(setup, measured)
        record["per_layer"] = layer_metrics
        record["trace"] = table
        result_metrics = layer_metrics
    else:
        result_metrics = gated

    units = unit_table()
    print(f"adaptrd benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  correct={failed == 0} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g} max_abs_drift={drift:.3g}")
    for name, value in record["end_to_end"].items():
        print(f"  {name} = {value!r} {units.get(name, '')}".rstrip())
    if args.trace:
        print(f"  traced trials={table['trials']} "
              f"self-time sum gap={table['self_sum_max_rel_gap']:.2e}")
        for name, row in table["layers"].items():
            print(f"  {name}: {row['calls']:.4g} calls, {row['ms']:.4g} ms, "
                  f"self {row['self_ms']:.4g} ms (per trial)")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result_metrics.items()},
    }))
    return 0


def unit_table() -> dict:
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({
        "trial_ms_tail_percentile": "%", "trial_ms_samples": "count", "rd_mse": "outcome_sq",
        "simulate_ms_p50": "ms", "evaluate_ms_p50": "ms", "batch_ms_p50": "ms",
        "cli_simulate_ms_p50": "ms", "cli_estimate_ms_p50": "ms",
    })
    return units


if __name__ == "__main__":
    sys.exit(main())
