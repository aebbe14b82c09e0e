"""Command-line front end.

Subcommands: ``simulate`` one trial, ``replicate`` a seeded batch,
``estimate`` (offline re-estimation from logged files), ``risk`` (standalone
risk calculator over a cohort CSV), and ``validate-config``. Exit codes:
0 success, 1 runtime failure, 2 configuration/schema error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .cohort import CSV_COLUMNS, covariate_columns, load_cohort_csv, write_csv
from .config import apply_overrides, load_config_payload, parse_config
from .errors import AdaptRdError, ConfigError, IngestionError
from .estimator import (
    EstimatorConfig,
    default_grid,
    effect_curve,
    fit_outcome_surface,
)
from .harness import evaluate_at_final_threshold, run_replications, run_scenario
from .outcomes import BINARY, CONTINUOUS, FAMILY_BY_KIND
from .risk_engine import (
    SUBGROUPS,
    export_matrix_csv,
    import_matrix_csv,
    load_coefficients_file,
    original_pce_model,
    predict_risk_batch,
    subgroup_index,
)
from .trialio import (
    read_trial_csv,
    write_curve_csv,
    write_events_csv,
    write_json,
    write_trial_csv,
)


# The most points a --grid may have (0:1:1e-5 has exactly this many).
MAX_GRID_POINTS = 100_001


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"grid must look like lo:hi:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"grid bounds and step must be finite numbers, got {spec!r}")
    if step <= 0 or hi <= lo:
        raise ConfigError("grid needs hi > lo and step > 0")
    steps = (hi - lo) / step  # inf if hi - lo overflows
    if not steps < MAX_GRID_POINTS - 0.5:  # checked before a single point is made
        raise ConfigError(f"grid {spec!r} has about {steps + 1:g} points, over {MAX_GRID_POINTS}")
    count = int(round(steps)) + 1
    if not math.isclose((count - 1) * step, hi - lo, rel_tol=1e-9):
        raise ConfigError(f"grid step {step!r} does not divide hi - lo = {hi - lo!r}")
    return np.linspace(lo, hi, count)


def _load_scenario(args):
    payload = load_config_payload(args.config)
    payload = apply_overrides(payload, args.override or [])
    if getattr(args, "seed", None) is not None:  # estimate takes no --seed
        payload["seed"] = args.seed
    return parse_config(payload)


def _cmd_simulate(args) -> int:
    config = _load_scenario(args)
    grid = _parse_grid(args.grid) if args.grid else None  # checked before the trial runs
    trial = run_scenario(config)
    out = Path(args.out)  # made once the trial has run, so a failed one leaves none
    out.mkdir(parents=True, exist_ok=True)
    write_trial_csv(trial, out / "trial.csv")
    write_events_csv(trial.events, out / "events.csv")
    export_matrix_csv(trial.matrix, out / "matrix.csv")

    surface = fit_outcome_surface(trial.matrix, trial.treatment, trial.outcome, config.estimator)
    if grid is None:
        grid = default_grid(trial.matrix.focal_shifted)
    curve = effect_curve(surface, config.estimator, grid)
    write_curve_csv(curve, out / "curve.csv")

    evaluation = evaluate_at_final_threshold(trial)
    summary = {
        "scenario": config.scenario_id,
        "seed": config.seed,
        "n_patients": config.n_patients,
        "final_threshold": trial.final_threshold,
        "treated_fraction": float(np.mean(trial.treatment)),
        "n_model_versions": len(trial.matrix.version_ids),
        "n_adaptation_events": len(trial.events),
        "clamp_events": trial.clamp_count,
        "threshold_trajectory": trial.threshold_trajectory(),
        "local_ate": evaluation.to_dict(),
        "curve_points": len(curve.estimates),
        "curve_skipped": [{"r": r, "reason": reason} for r, reason in curve.skipped],
    }
    write_json(summary, out / "summary.json")

    if args.svg and curve.estimates:
        from .svgplot import effect_curve_svg

        effect_curve_svg(
            [e.r for e in curve.estimates],
            [e.beta_hat for e in curve.estimates],
            [e.ci[0] for e in curve.estimates],
            [e.ci[1] for e in curve.estimates],
            out / "curve.svg",
        )
    return 0


def _cmd_replicate(args) -> int:
    config = _load_scenario(args)
    report = run_replications(config, args.replications, workers=args.workers)
    out = Path(args.out)  # made once the batch has run, so a rejected one leaves none
    out.mkdir(parents=True, exist_ok=True)
    write_json(report.to_dict(), out / "report.json")

    rows = (
        (rep, method, err)
        for method, entry in report.per_method.items()
        for rep, err in zip(entry["reps"], entry["errors"])
    )
    write_csv(out / "errors.csv", ("rep", "method", "error"), rows)

    if args.svg:
        groups = {
            method: entry["errors"]
            for method, entry in report.per_method.items()
            if entry["errors"]
        }
        if groups:
            from .svgplot import box_plot_svg

            box_plot_svg(groups, out / "errors_boxplot.svg")
    return 0


def _infer_estimator_config(args, outcomes: np.ndarray) -> EstimatorConfig:
    if args.config:
        return _load_scenario(args).estimator
    if args.override:
        raise ConfigError("--override needs --config: there is no config to override")
    kind = BINARY if np.all(np.isin(outcomes, (0.0, 1.0))) else CONTINUOUS
    return EstimatorConfig(family=FAMILY_BY_KIND[kind])


def _check_same_run(logged, matrix) -> None:
    """Raise ConfigError unless the matrix's diagonal reproduces the logged risks bit for bit."""
    _, _, raw, shifted = matrix.diagonal()
    for name, ours, theirs in (
        ("raw_risk", raw, logged.raw_risk),
        ("shifted_risk", shifted, logged.shifted_risk),
    ):
        differs = ours.view(np.uint64) != theirs.view(np.uint64)
        if differs.any():
            k = int(np.argmax(differs))
            raise ConfigError(
                f"matrix file does not match the trial file: patient {k + 1}'s {name} is "
                f"{float(theirs[k])!r} in the trial file but {float(ours[k])!r} in the matrix"
            )


def _cmd_estimate(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    logged = read_trial_csv(args.trial)
    matrix = import_matrix_csv(args.matrix, logged.column_pairs)
    _check_same_run(logged, matrix)
    config = _infer_estimator_config(args, logged.outcome)
    surface = fit_outcome_surface(matrix, logged.treatment, logged.outcome, config)
    if grid is None:
        grid = default_grid(matrix.focal_shifted)
    curve = effect_curve(surface, config, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(curve, out / "curve.csv")
    return 0


def _cmd_risk(args) -> int:
    table = load_cohort_csv(args.input)
    risks = predict_risk_batch(original_pce_model(), table)
    subgroups = np.array(SUBGROUPS)[subgroup_index(table)].tolist()
    rows = zip(*covariate_columns(table), subgroups, risks.tolist())
    write_csv(args.output, CSV_COLUMNS + ("subgroup", "risk"), rows)
    return 0


def _cmd_validate_config(args) -> int:
    config = _load_scenario(args)
    if config.coefficients_file is not None:
        load_coefficients_file(config.coefficients_file)
    print(f"ok: scenario {config.scenario_id}, n_patients={config.n_patients}, seed={config.seed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptrd",
        description="Adaptive risk-threshold trial simulator and local-effect estimator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p, with_out=True):
        p.add_argument("--config", required=True, help="config JSON path or bundled preset name")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="dotted-key config override (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if with_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run one trial and write its outputs")
    add_config_opts(p)
    p.add_argument("--grid", default=None, help="effect-curve grid as lo:hi:step")
    p.add_argument("--svg", action="store_true", help="also write curve.svg")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("replicate", help="run a replication batch and aggregate")
    add_config_opts(p)
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--svg", action="store_true", help="also write errors_boxplot.svg")
    p.set_defaults(fn=_cmd_replicate)

    p = sub.add_parser("estimate", help="re-estimate the effect curve from logged files")
    p.add_argument("--trial", required=True, help="trial.csv from a previous run")
    p.add_argument("--matrix", required=True, help="matrix.csv from a previous run")
    p.add_argument("--config", default=None, help="optional config for estimator settings")
    p.add_argument("--override", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default=None, help="effect-curve grid as lo:hi:step")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("risk", help="standalone risk calculator over a cohort CSV")
    p.add_argument("--input", required=True, help="cohort CSV")
    p.add_argument("--output", required=True, help="output CSV with risk and subgroup")
    p.set_defaults(fn=_cmd_risk)

    p = sub.add_parser("validate-config", help="parse and validate a config")
    add_config_opts(p, with_out=False)
    p.set_defaults(fn=_cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # let --grid accept values that begin with a minus sign
    while "--grid" in argv[:-1]:
        i = argv.index("--grid")
        argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, IngestionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AdaptRdError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
