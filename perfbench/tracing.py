"""In-memory span recording around calls into the bigsurv modules.

The benchmark does not change the package.  It replaces a function at
the name its caller binds (for example ``bigsurv.simulation.solve_weights``
rather than ``bigsurv.calibration.solve_weights``) with a wrapper that
records a span: id, parent id, name, thread, start and end.  Parents
come from a per-thread stack, so spans made inside a worker thread of a
study call have no parent there.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

# (module that binds the name, attribute, span name).  The span name is
# ``layer.function`` after the module that defines the function.
SIM_TARGETS = (
    ("bigsurv.simulation", "_sim1_replicate", "simulation.replicate"),
    ("bigsurv.simulation", "_sim2_replicate", "simulation.replicate"),
    ("bigsurv.simulation", "_draw_srs_fast", "simulation._draw_srs_fast"),
    ("bigsurv.simulation", "generate_population_sim1", "population.generate_population_sim1"),
    ("bigsurv.simulation", "generate_population_sim2", "population.generate_population_sim2"),
    ("bigsurv.simulation", "big_data_inclusion_probabilities",
     "population.big_data_inclusion_probabilities"),
    ("bigsurv.simulation", "build_controls", "calibration.build_controls"),
    ("bigsurv.simulation", "solve_weights", "calibration.solve_weights"),
    ("bigsurv.simulation", "regdi_residuals", "variance.regdi_residuals"),
    ("bigsurv.simulation", "ht_variance_quadratic", "variance.ht_variance_quadratic"),
    ("bigsurv.simulation", "variance_relative_bias", "variance.variance_relative_bias"),
    ("bigsurv.simulation", "fit_measurement_model", "measurement.fit_measurement_model"),
    ("bigsurv.simulation", "pdi_total", "estimators.pdi_total"),
)

CLI_TARGETS = (
    ("bigsurv.cli", "main", "cli.main"),
    ("bigsurv.fileio", "read_sample_csv", "fileio.read_sample_csv"),
    ("bigsurv.fileio", "read_big_data_csv", "fileio.read_big_data_csv"),
    ("bigsurv.fileio", "write_labels_csv", "fileio.write_labels_csv"),
    ("bigsurv.fileio", "write_classifier_model", "fileio.write_classifier_model"),
    ("bigsurv.cli", "build_controls", "calibration.build_controls"),
    ("bigsurv.cli", "regdi_total", "calibration.regdi_total"),
    ("bigsurv.cli", "regdi_residuals", "variance.regdi_residuals"),
    ("bigsurv.cli", "ht_variance_quadratic", "variance.ht_variance_quadratic"),
    ("bigsurv.cli", "estimate_m", "classifier.estimate_m"),
    ("bigsurv.cli", "initial_u", "classifier.initial_u"),
    ("bigsurv.cli", "em_fit", "classifier.em_fit"),
    ("bigsurv.cli", "posterior", "classifier.posterior"),
    ("bigsurv.cli", "classify", "classifier.classify"),
)

# names bound inside the layers themselves: the study calls the
# classifier through its module, and the layers call each other
SHARED_TARGETS = (
    ("bigsurv.classifier", "estimate_m", "classifier.estimate_m"),
    ("bigsurv.classifier", "initial_u", "classifier.initial_u"),
    ("bigsurv.classifier", "em_fit", "classifier.em_fit"),
    ("bigsurv.classifier", "posterior", "classifier.posterior"),
    ("bigsurv.classifier", "propensity_totals", "classifier.propensity_totals"),
    ("bigsurv.classifier", "pdi2_total", "classifier.pdi2_total"),
    ("bigsurv.calibration", "solve_weights", "calibration.solve_weights"),
    ("bigsurv.calibration", "gram_solve", "linalg.gram_solve"),
    ("bigsurv.variance", "weighted_least_squares", "linalg.weighted_least_squares"),
)

# the package's writers, wrapped while the cli-1e6 inputs are written
SETUP_TARGETS = (
    ("bigsurv.fileio", "write_sample_csv", "fileio.write_sample_csv"),
    ("bigsurv.fileio", "write_big_data_csv", "fileio.write_big_data_csv"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start_ns: int
    end_ns: int
    rows: int | None = None
    iterations: int | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _rows_of(name, args, result):
    """Rows read or written by a fileio call, for rows-per-second figures."""
    try:
        if name.startswith("fileio.read_"):
            return len(result.unit_ids)
        if name == "fileio.write_labels_csv":
            return len(args[1])
        if name == "fileio.write_big_data_csv":
            return len(args[1].values)
        if name == "fileio.write_sample_csv":
            return int(args[1].n)
    except (AttributeError, IndexError, TypeError):
        pass  # a changed signature leaves the rate unmeasured, not the call failed
    return None


def _iterations_of(name, result):
    """EM iterations, from the ``loglik_trace`` that ``em_fit`` returns."""
    if name != "classifier.em_fit":
        return None
    try:
        return len(result[1].loglik_trace) - 1
    except (AttributeError, IndexError, TypeError):
        return None


class Tracer:
    """Records spans for the functions it has wrapped until uninstalled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` block.

        The block may set ``rows`` or ``iterations`` on the yielded dict.
        A block that raises leaves no span.
        """
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        extra: dict[str, int | None] = {}
        start = time.perf_counter_ns()
        try:
            yield extra
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        self.spans.append(
            Span(span_id, parent, name, threading.get_ident(), start, end, **extra)
        )

    def _wrap(self, original, name):
        def wrapper(*args, **kwargs):
            with self.span(name) as extra:
                result = original(*args, **kwargs)
                extra["rows"] = _rows_of(name, args, result)
                extra["iterations"] = _iterations_of(name, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self, targets) -> None:
        """Wrap every target; a name that no longer exists is noted, not fatal."""
        for module_name, attr, span_name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing[span_name] = f"{module_name}.{attr} no longer exists"
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_ms(spans) -> dict[int, float]:
    """Each span's duration minus its direct children's durations.

    Children run on their parent's thread one after another, so their
    summed duration is the part of the parent's interval they cover.
    """
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.ms
    return {s.id: s.ms - child.get(s.id, 0.0) for s in spans}


def descendants(spans, roots) -> list[Span]:
    """Spans under any of ``roots`` (span ids), the roots excluded."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out, todo = [], list(roots)
    while todo:
        for s in kids.get(todo.pop(), ()):
            out.append(s)
            todo.append(s.id)
    return out
