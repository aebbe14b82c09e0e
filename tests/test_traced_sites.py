"""Every adaptrd name the benchmark tracer rebinds must exist.

``bench/tracer.py`` swaps adaptrd attributes for timing wrappers in traced
benchmark runs. A renamed or removed name would only fail there, so this
test resolves each site it lists without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("adaptrd_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _module(name):
    return importlib.import_module(f"adaptrd.{name}")


@pytest.mark.parametrize(
    "mod, attr", [(mod, attr) for mod, attr, _ in tracer.TRACED_CALLS + tracer.COUNTED_CALLS]
)
def test_rebound_call_site_resolves(mod, attr):
    assert callable(getattr(_module(mod), attr))


@pytest.mark.parametrize("mod", tracer.FIT_GLM_SITES)
def test_fit_glm_site_resolves(mod):
    assert callable(getattr(_module(mod), "fit_glm"))


def test_replication_and_history_sites_resolve():
    assert callable(_module("harness")._run_one_replication)
    assert callable(_module("risk_engine").ModelHistory.append)


def test_fit_glm_roles_name_traced_spans():
    spans = {name for _, _, name in tracer.TRACED_CALLS}
    assert set(tracer.FIT_GLM_ROLES) <= spans


def test_run_scenario_calls_the_rebound_sample_cohort(monkeypatch):
    # harness looks sample_cohort up at call time; a module-level import
    # would keep the original and the traced cohort.sample_cohort span
    # would silently read zero.
    cohort, harness = _module("cohort"), _module("harness")
    calls = []
    original = cohort.sample_cohort

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohort, "sample_cohort", spy)
    trial = harness.run_scenario(harness.scenario_preset(1, n_patients=600))
    assert len(calls) == 1 and trial.n == 600


def test_traced_curve_points_read_the_grid_argument():
    # The tracer counts an effect curve's points from its third positional
    # argument, so the grid must stay there at every traced call site.
    names = ("adaptation", "cli", "cohort", "estimator", "harness", "outcomes", "risk_engine")
    recorder = tracer.Tracer({name: _module(name) for name in names})
    harness = _module("harness")
    recorder.install()
    try:
        harness.run_scenario(harness.scenario_preset(3, n_patients=700))
    finally:
        recorder.uninstall()
    totals = recorder.take()
    calls = totals.calls["estimator.effect_curve"]
    assert calls > 0
    assert totals.counts["estimator.effect_curve.points"] == 101 * calls
