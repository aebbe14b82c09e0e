"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by rebinding adaptrd names at their call sites (for
example ``adaptrd.harness.effect_curve``) to wrappers that note the name,
start, end and parent span. Nothing under ``src/`` is changed: ``install``
swaps the attributes in and ``uninstall`` puts the originals back, so the
untraced trials of a run execute the program exactly as shipped.

A span's self time is its duration minus the part of it that its child
spans cover; over one span tree the self times add up to the root's
duration, which ``TraceTotals.check_self_sum`` verifies.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
from collections import Counter, defaultdict
from time import perf_counter

# Call sites rebound for tracing: (module, attribute, span name). A name
# is rebound in every module that calls it, because ``from x import f``
# copies the binding into the caller.
TRACED_CALLS = (
    ("harness", "run_scenario", "harness.run_scenario"),
    ("cli", "run_scenario", "harness.run_scenario"),
    ("harness", "evaluate_at_final_threshold", "harness.evaluate_at_final_threshold"),
    ("cli", "evaluate_at_final_threshold", "harness.evaluate_at_final_threshold"),
    ("cohort", "sample_cohort", "cohort.sample_cohort"),
    ("harness", "draw_noise", "outcomes.draw_noise"),
    ("harness", "outcomes_from_noise", "outcomes.outcomes_from_noise"),
    ("harness", "true_smoothed_ate", "outcomes.true_smoothed_ate"),
    ("harness", "predict_risk_batch", "risk_engine.predict_risk_batch"),
    ("risk_engine", "predict_risk_batch", "risk_engine.predict_risk_batch"),
    ("adaptation", "predict_risk_batch", "risk_engine.predict_risk_batch"),
    ("harness", "build_counterfactual_matrix", "risk_engine.build_counterfactual_matrix"),
    ("harness", "threshold_for_rate", "adaptation.threshold_for_rate"),
    ("harness", "threshold_for_nnt", "adaptation.threshold_for_nnt"),
    ("harness", "recalibrate_model", "adaptation.recalibrate_model"),
    ("harness", "revise_model", "adaptation.revise_model"),
    ("harness", "fit_outcome_surface", "estimator.fit_outcome_surface"),
    ("cli", "fit_outcome_surface", "estimator.fit_outcome_surface"),
    ("harness", "default_grid", "estimator.default_grid"),
    ("cli", "default_grid", "estimator.default_grid"),
    ("harness", "effect_curve", "estimator.effect_curve"),
    ("cli", "effect_curve", "estimator.effect_curve"),
    ("harness", "estimate_effect", "estimator.estimate_effect"),
    ("estimator", "estimate_effect", "estimator.estimate_effect"),
    ("harness", "naive_diff", "estimator.naive_diff"),
    ("harness", "outcome_regression_ate", "estimator.outcome_regression_ate"),
    ("harness", "ipw_ate", "estimator.ipw_ate"),
    ("harness", "aipw_ate", "estimator.aipw_ate"),
    ("cli", "export_matrix_csv", "risk_engine.export_matrix_csv"),
    ("cli", "import_matrix_csv", "risk_engine.import_matrix_csv"),
    ("cli", "write_trial_csv", "trialio.write_trial_csv"),
    ("cli", "read_trial_csv", "trialio.read_trial_csv"),
    ("cli", "write_events_csv", "trialio.write_events_csv"),
    ("cli", "write_curve_csv", "trialio.write_curve_csv"),
    ("cli", "write_json", "trialio.write_json"),
    ("cli", "load_config_payload", "config.load_config_payload"),
    ("cli", "parse_config", "config.parse_config"),
)

# fit_glm call sites; the span name carries the role taken from the parent.
FIT_GLM_SITES = ("estimator", "adaptation")
FIT_GLM_ROLES = {
    "estimator.fit_outcome_surface": "surface",
    "adaptation.recalibrate_model": "model_update",
    "adaptation.revise_model": "model_update",
    "estimator.outcome_regression_ate": "comparator",
    "estimator.ipw_ate": "comparator",
    "estimator.aipw_ate": "comparator",
}

# Calls counted without a span: they are cheap and very frequent.
COUNTED_CALLS = (
    ("estimator", "gaussian_kernel_weights", "numerics.gaussian_kernel_weights.calls"),
    ("outcomes", "gaussian_kernel_weights", "numerics.gaussian_kernel_weights.calls"),
)

class Tracer:
    """Records spans and counts while installed; ``take`` drains them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple] = []
        self._clear()

    def _clear(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._comparator_keys: set = set()

    # -- installation -----------------------------------------------------

    def install(self, spool=None) -> None:
        """Rebind the traced call sites.

        With ``spool``, replications run by pool workers are traced too: each
        worker writes its totals to a file there, since the batch report
        does not carry them back.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._pid = os.getpid()  # the installing process; others are pool workers
        if spool is not None:
            harness = self.modules["harness"]
            self._rebind(
                "harness", "_run_one_replication",
                self._wrap_replication(harness._run_one_replication, spool),
            )
        for mod, attr, name in TRACED_CALLS:
            self._rebind(mod, attr, self._wrap(name, getattr(self.modules[mod], attr)))
        for mod in FIT_GLM_SITES:
            self._rebind(mod, "fit_glm", self._wrap_fit_glm(getattr(self.modules[mod], "fit_glm")))
        for mod, attr, key in COUNTED_CALLS:
            self._rebind(mod, attr, self._count(key, getattr(self.modules[mod], attr)))
        history = self.modules["risk_engine"].ModelHistory
        self._rebind_obj(
            history, "append", self._count("risk_engine.ModelHistory.append.calls", history.append)
        )

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def _rebind(self, mod: str, attr: str, wrapper) -> None:
        self._rebind_obj(self.modules[mod], attr, wrapper)

    def _rebind_obj(self, obj, attr: str, wrapper) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.parent_name()
            result = tracer.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(tracer, parent, args, result)
            return result

        return wrapper

    def _wrap_fit_glm(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            parent = tracer.parent_name()
            role = FIT_GLM_ROLES.get(parent, "other")
            name = f"numerics.fit_glm.{role}"
            fit = tracer.span(name, fn, spec, *args, **kwargs)
            tracer.counts[f"{name}.iterations"] += fit.iterations
            if role == "comparator":
                # Same family, design and response means the same fit.
                key = (
                    spec.family,
                    spec.design.shape,
                    spec.design.sum(axis=0).tobytes(),
                    spec.response.tobytes(),
                )
                tracer._comparator_keys.add(key)
            return fit

        return wrapper

    def _wrap_replication(self, fn, spool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(config, rep):
            if os.getpid() == tracer._pid:
                # A pool of one worker runs replications in this process,
                # inside the open span tree.
                return tracer.span("harness._run_one_replication", fn, config, rep)
            tracer._clear()  # a forked worker: drop the parent's open spans
            result = tracer.span("harness._run_one_replication", fn, config, rep)
            path = os.path.join(spool, f"{os.getpid()}-{rep}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.take().to_dict(), fh)
            return result

        return wrapper

    @staticmethod
    def workers_inherit_rebinding() -> bool:
        """Pool workers see the rebound names only when they are forked."""
        return multiprocessing.get_start_method() == "fork"

    def _count(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- draining ---------------------------------------------------------

    def take(self) -> "TraceTotals":
        """Aggregate the recorded spans and counts, then clear them."""
        if self._stack:
            raise RuntimeError("cannot drain the tracer while a span is open")
        totals = TraceTotals.from_spans(self.spans)
        totals.counts.update(self.counts)
        totals.counts["estimator.comparator_distinct_fits"] += len(self._comparator_keys)
        self._clear()
        return totals


def _observe_predict(tracer, parent, args, result):
    tracer.counts["risk_engine.predict_risk_batch.rows"] += len(result)


def _observe_matrix(tracer, parent, args, result):
    tracer.counts["risk_engine.build_counterfactual_matrix.columns"] += result.n_distinct


def _observe_run_scenario(tracer, parent, args, result):
    tracer.counts["risk_engine.rescore_base"] += result.n * len(result.history.models)


def _observe_curve(tracer, parent, args, result):
    tracer.counts["estimator.effect_curve.points"] += len(args[2])


def _observe_estimate(tracer, parent, args, result):
    tracer.counts["estimator.se_computed"] += 1
    if parent == "harness.evaluate_at_final_threshold":
        tracer.counts["estimator.se_read"] += 1


def _observe_write_curve(tracer, parent, args, result):
    tracer.counts["estimator.se_read"] += len(args[0].estimates)


def _observe_export(tracer, parent, args, result):
    tracer.counts["risk_engine.matrix_csv.bytes"] += os.path.getsize(args[1])


_OBSERVERS = {
    "risk_engine.predict_risk_batch": _observe_predict,
    "risk_engine.build_counterfactual_matrix": _observe_matrix,
    "harness.run_scenario": _observe_run_scenario,
    "estimator.effect_curve": _observe_curve,
    "estimator.estimate_effect": _observe_estimate,
    "trialio.write_curve_csv": _observe_write_curve,
    "risk_engine.export_matrix_csv": _observe_export,
}


class TraceTotals:
    """Per span name: calls, inclusive seconds and self seconds, summed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.roots: list[tuple[str, float, float]] = []  # (name, duration, self-time sum)

    @classmethod
    def from_spans(cls, spans: list[list]) -> "TraceTotals":
        out = cls()
        children: defaultdict = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                children[parent].append(idx)
        self_of = []
        for idx, (name, start, end, _) in enumerate(spans):
            covered = _covered(
                start, end, sorted((spans[c][1], spans[c][2]) for c in children[idx])
            )
            own = (end - start) - covered
            self_of.append(own)
            out.calls[name] += 1
            out.inclusive[name] += end - start
            out.self_time[name] += own
        for idx, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                out.roots.append((name, end - start, _tree_self(idx, children, self_of)))
        return out

    def merge(self, other: "TraceTotals") -> None:
        self.calls.update(other.calls)
        for name, value in other.inclusive.items():
            self.inclusive[name] += value
        for name, value in other.self_time.items():
            self.self_time[name] += value
        self.counts.update(other.counts)
        self.roots.extend(other.roots)

    def check_self_sum(self) -> float:
        """Largest relative gap between a tree's self-time sum and its root."""
        worst = 0.0
        for _, duration, self_sum in self.roots:
            worst = max(worst, abs(self_sum - duration) / max(duration, 1e-12))
        return worst

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "roots": self.roots,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceTotals":
        out = cls()
        out.calls.update(payload["calls"])
        out.inclusive.update(payload["inclusive_s"])
        out.self_time.update(payload["self_s"])
        out.counts.update(payload["counts"])
        out.roots = [tuple(r) for r in payload["roots"]]
        return out


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of sorted intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _tree_self(root: int, children: dict, self_of: list) -> float:
    total = 0.0
    stack = [root]
    while stack:
        idx = stack.pop()
        total += self_of[idx]
        stack.extend(children[idx])
    return total
