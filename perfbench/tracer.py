"""Span tracer that wraps library functions at the module attributes callers use.

A target is a dotted binding such as ``mfachest.estimator.factorize`` plus the
metric name its spans are filed under (``gaussians.factorize``); several
bindings of one function share a metric name. A binding that no longer
resolves is recorded as absent instead of raising, so the benchmark survives
refactors that delete or rename functions. Spans stay in memory; the caller
writes them out once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass


def _observations(args, result) -> int:
    """Rows of ``estimate(model, sigma2, y)``'s y (1 for a single vector)."""
    shape = getattr(args[2], "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _iterations(args, result) -> int:
    """Iteration count of a ``(model, FitTrace)`` fit result."""
    return len(result[1].loglik)


def _megabytes(args, result) -> float:
    return result.samples.nbytes / 1e6


# (metric name, dotted bindings, counter name, counter function(args, result)).
# Each function is wrapped at every module attribute through which the CLI,
# bench or a sibling module reaches it.
TARGETS = (
    ("cli.main", ("mfachest.cli.main",), None, None),
    ("bench.bench_spec_from_json", ("mfachest.bench.bench_spec_from_json",), None, None),
    ("bench.run_snr_sweep", ("mfachest.bench.run_snr_sweep",), None, None),
    ("bench.report_jsonl", ("mfachest.bench.report_jsonl",), None, None),
    ("scenario.generate_channels",
     ("mfachest.scenario.generate_channels", "mfachest.bench.generate_channels"), None, None),
    ("scenario.corrupt", ("mfachest.scenario.corrupt", "mfachest.bench.corrupt"), None, None),
    ("scenario.read_dataset", ("mfachest.scenario.read_dataset", "mfachest.bench.read_dataset"),
     "scenario.read_dataset.mb", _megabytes),
    ("scenario.write_dataset", ("mfachest.scenario.write_dataset",), None, None),
    ("mfa.fit_em", ("mfachest.mfa.fit_em",), "mfa.em_iters", _iterations),
    ("mfa.log_likelihood", ("mfachest.mfa.log_likelihood",), None, None),
    ("mfa.load_model", ("mfachest.mfa.load_model",), None, None),
    ("mfa.save_model", ("mfachest.mfa.save_model",), None, None),
    ("gaussians.factorize",
     ("mfachest.gaussians.factorize", "mfachest.mfa.factorize", "mfachest.estimator.factorize"),
     None, None),
    ("gaussians.woodbury_inverse",
     ("mfachest.gaussians.woodbury_inverse", "mfachest.estimator.woodbury_inverse"), None, None),
    ("estimator.estimate", ("mfachest.estimator.estimate",),
     "estimator.observations", _observations),
    ("estimator.build_filter_bank", ("mfachest.estimator.build_filter_bank",), None, None),
    ("estimator.estimate_with_bank", ("mfachest.estimator.estimate_with_bank",), None, None),
    ("baselines.genie_omp_batch", ("mfachest.baselines.genie_omp_batch",), None, None),
    ("baselines.fit_gmm", ("mfachest.baselines.fit_gmm",),
     "baselines.gmm_iters", _iterations),
    ("baselines.gmm_estimate", ("mfachest.baselines.gmm_estimate",), None, None),
    ("baselines.fit_sample_lmmse", ("mfachest.baselines.fit_sample_lmmse",), None, None),
    ("baselines.sample_lmmse_estimate", ("mfachest.baselines.sample_lmmse_estimate",), None, None),
    ("baselines.ls_estimate", ("mfachest.baselines.ls_estimate",), None, None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for the wrapped targets while installed.

    Single-threaded: the library makes no threads of its own (BLAS threads
    never call back into Python), so one stack of open spans suffices.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.phase = ""
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, counter, count):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), name, parent, tracer.phase, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                key = f"{tracer.phase}:{counter}"
                try:
                    value = count(args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    tracer._note_absent(f"{counter} ({type(exc).__name__}: {exc})")
                else:
                    tracer.counters[key] = tracer.counters.get(key, 0.0) + value
            return result

        return wrapper

    def _note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, bindings, counter, count in self.targets:
            for dotted in bindings:
                module_name, attr = dotted.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self._note_absent(dotted)
                    continue
                func = getattr(module, attr, None)
                if not callable(func):
                    self._note_absent(dotted)
                    continue
                self._saved.append((module, attr, func))
                setattr(module, attr, self._wrap(name, func, counter, count))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per metric name: calls, busy seconds and self seconds within one phase.

        Self time is a span's duration minus the durations of its direct
        children; spans nest properly because the tracer is single-threaded.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.phase != phase:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += span.duration - child_time.get(span.id, 0.0)
        return out

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get(f"{phase}:{name}", 0.0)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
