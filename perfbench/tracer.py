"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions the sweep harness calls, under the
names the calling modules imported them by, so a span opens at each layer
boundary without touching the package source.  Spans stay in memory and
are written out once the run ends.  A wrapped name that a module no longer
has is reported as absent, and so are the metrics built from it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, attribute).  Each attribute is looked up where the
# caller resolves it at call time, so patching it there puts a span around
# every call the sweep makes.
WRAPPED = (
    ("tt_fit", "uncoupled.evaluation", "tt_fit"),
    ("tt_predict", "uncoupled.evaluation", "tt_predict"),
    ("ranker_fit", "uncoupled.evaluation", "ranker_fit"),
    ("rank_predict", "uncoupled.evaluation", "rank_predict"),
    ("lr_fit", "uncoupled.evaluation", "lr_fit"),
    ("ra_fit", "uncoupled.evaluation", "ra_fit"),
    ("tune_weights", "uncoupled.evaluation", "tune_weights"),
    ("tune_weights_empirical", "uncoupled.evaluation", "tune_weights_empirical"),
    ("fit_kde", "uncoupled.evaluation", "fit_kde"),
    ("gaussian_distribution", "uncoupled.evaluation", "gaussian_distribution"),
    ("kde_distribution", "uncoupled.evaluation", "kde_distribution"),
    ("empirical_distribution", "uncoupled.evaluation", "empirical_distribution"),
    ("generate_synthetic", "uncoupled.evaluation", "generate_synthetic"),
    ("sample_pairwise_from_spec", "uncoupled.evaluation", "sample_pairwise_from_spec"),
    ("pairwise_from_arrays", "uncoupled.evaluation", "pairwise_from_arrays"),
    ("minimize_gd.tt", "uncoupled.target_transform", "minimize_gd"),
    ("minimize_gd.rank", "uncoupled.baselines", "minimize_gd"),
    ("minimize_gd.ra", "uncoupled.risk_approx", "minimize_gd"),
    ("load_csv", "uncoupled", "load_csv"),
)

CONSTRUCTORS = ("gaussian_distribution", "kde_distribution", "empirical_distribution")
SOLVERS = ("minimize_gd.tt", "minimize_gd.rank", "minimize_gd.ra")
DIST_CALLABLES = ("pdf", "cdf", "inv_cdf")

# Spans that no single wrapped name opens: the distribution callables come
# from whichever constructor built the distribution, and the harness opens
# the sweep span itself.
_SOURCES = {name: CONSTRUCTORS for name in DIST_CALLABLES}
_SOURCES["sweep"] = ()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    repeat: int | None
    info: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._repeat: int | None = None

    @contextmanager
    def repeat(self, repeat_id: int):
        self._repeat = repeat_id
        try:
            yield
        finally:
            self._repeat = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._repeat)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "repeat": s.repeat,
                    **s.info,
                }
                fh.write(json.dumps(row) + "\n")


def _plain(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _solver(tracer: Tracer, name: str, fn):
    """Counts objective and gradient evaluations and keeps the solver's
    iteration count and convergence flag on the span."""

    @functools.wraps(fn)
    def wrapper(fun, grad, *args, **kwargs):
        with tracer.span(name) as span:
            span.info.update(fun_evals=0, grad_evals=0)

            def counted_fun(x):
                span.info["fun_evals"] += 1
                return fun(x)

            def counted_grad(x):
                span.info["grad_evals"] += 1
                return grad(x)

            result = fn(counted_fun, counted_grad, *args, **kwargs)
            span.info["iterations"] = int(result.iterations)
            span.info["converged"] = bool(result.converged)
            return result

    return wrapper


def _query_counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(values):
        with tracer.span(name) as span:
            span.info["queries"] = int(getattr(values, "size", 1))
            return fn(values)

    return wrapper


def _constructor(tracer: Tracer, name: str, fn):
    """Traces the constructor and every pdf/cdf/inv_cdf call of the
    distribution it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            dist = fn(*args, **kwargs)
        return dataclasses.replace(
            dist,
            **{
                attr: _query_counted(tracer, attr, getattr(dist, attr))
                for attr in DIST_CALLABLES
            },
        )

    return wrapper


def install(tracer: Tracer):
    """Patch every target that exists.  Returns the set of span names whose
    target is missing and a callable that restores the originals."""
    absent: set[str] = set()
    patched = []
    for name, module_name, attr in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.add(name)
            continue
        original = getattr(module, attr, None)
        if original is None:
            absent.add(name)
            continue
        if name in SOLVERS:
            kind = _solver
        elif name in CONSTRUCTORS:
            kind = _constructor
        else:
            kind = _plain
        setattr(module, attr, kind(tracer, name, original))
        patched.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return absent, restore


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer number: `measure` over the spans named in `spans`.

    measure is "total" (summed span durations, children included), "self"
    (durations minus the time child spans cover), "count" (number of spans)
    or a span-info key whose values are summed.
    """

    name: str
    unit: str
    spans: tuple[str, ...]
    measure: str


LAYER_METRICS = (
    LayerMetric("target_transform.tt_fit_s", "s", ("tt_fit",), "total"),
    LayerMetric("target_transform.tt_predict_s", "s", ("tt_predict",), "self"),
    LayerMetric("baselines.ranker_fit_s", "s", ("ranker_fit",), "total"),
    LayerMetric("baselines.rank_predict_s", "s", ("rank_predict",), "self"),
    LayerMetric("baselines.lr_fit_s", "s", ("lr_fit",), "total"),
    LayerMetric("optimize.calls.tt", "count", ("minimize_gd.tt",), "count"),
    LayerMetric("optimize.calls.rank", "count", ("minimize_gd.rank",), "count"),
    LayerMetric("optimize.iterations.tt", "count", ("minimize_gd.tt",), "iterations"),
    LayerMetric("optimize.iterations.rank", "count", ("minimize_gd.rank",), "iterations"),
    LayerMetric("optimize.unconverged.tt", "count", ("minimize_gd.tt",), "unconverged"),
    LayerMetric("optimize.unconverged.rank", "count", ("minimize_gd.rank",), "unconverged"),
    LayerMetric("optimize.fun_evals", "count", SOLVERS, "fun_evals"),
    LayerMetric("optimize.grad_evals", "count", SOLVERS, "grad_evals"),
    LayerMetric("optimize.s", "s", SOLVERS, "total"),
    LayerMetric("distributions.fit_kde_s", "s", ("fit_kde",), "total"),
    LayerMetric("distributions.build_s", "s", CONSTRUCTORS, "total"),
    LayerMetric("distributions.cdf_s", "s", ("cdf",), "total"),
    LayerMetric("distributions.pdf_s", "s", ("pdf",), "total"),
    LayerMetric("distributions.inv_cdf_s", "s", ("inv_cdf",), "total"),
    LayerMetric("distributions.cdf_queries", "count", ("cdf",), "queries"),
    LayerMetric("distributions.pdf_queries", "count", ("pdf",), "queries"),
    LayerMetric("distributions.inv_cdf_queries", "count", ("inv_cdf",), "queries"),
    LayerMetric(
        "risk_approx.tune_weights_s", "s", ("tune_weights", "tune_weights_empirical"), "total"
    ),
    LayerMetric("risk_approx.ra_fit_s", "s", ("ra_fit",), "total"),
    LayerMetric(
        "pairgen.generate_s",
        "s",
        ("generate_synthetic", "sample_pairwise_from_spec", "pairwise_from_arrays"),
        "total",
    ),
    LayerMetric("evaluation.self_s", "s", ("sweep",), "self"),
)

# Measured once per run, outside the repeats: reported as is.
SETUP_METRICS = (LayerMetric("dataio.load_csv_s", "s", ("load_csv",), "total"),)


def _sources(metric: LayerMetric) -> set[str]:
    out: set[str] = set()
    for name in metric.spans:
        out.update(_SOURCES.get(name, (name,)))
    return out


def _span_value(span: Span, measure: str, child_time: float) -> float:
    duration = span.end - span.start
    if measure == "total":
        return duration
    if measure == "self":
        return duration - child_time
    if measure == "count":
        return 1.0
    if measure == "unconverged":
        return 0.0 if span.info.get("converged") else 1.0
    # a solver that raised leaves its counts unfinished; its cell fails
    return float(span.info.get(measure, 0))


def layer_metrics(tracer: Tracer, absent: set[str], repeats: int):
    """Per-repeat means over the spans of the traced repeats, plus the
    set-up metrics.  Returns (metrics, names of absent metrics)."""
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def reduce(metric: LayerMetric, in_repeat: bool) -> float:
        total = 0.0
        for i, s in enumerate(tracer.spans):
            if s.name in metric.spans and (s.repeat is not None) == in_repeat:
                total += _span_value(s, metric.measure, child_time[i])
        return total

    values: dict[str, dict] = {}
    missing: list[str] = []
    for metric, in_repeat in [(m, True) for m in LAYER_METRICS] + [
        (m, False) for m in SETUP_METRICS
    ]:
        if _sources(metric) & absent:
            missing.append(metric.name)
            continue
        value = reduce(metric, in_repeat)
        if in_repeat:
            value /= repeats
        values[metric.name] = {"value": value, "unit": metric.unit}

    solves = [s for s in tracer.spans if s.name in SOLVERS and s.repeat is not None]
    if absent & set(SOLVERS) or not solves:
        missing.append("optimize.converged_frac")
    else:
        converged = sum(1 for s in solves if s.info.get("converged"))
        values["optimize.converged_frac"] = {"value": converged / len(solves), "unit": "ratio"}
    return values, missing
