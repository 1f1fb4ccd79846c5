"""Benchmark sweeps: normalized MSE of registered estimators over SNR,
latent-dimension, and component-count grids, reported as CSV or JSON lines.

Rows are ordered by (estimator, K, L, snr) and all randomness derives from the
spec seed, so a sweep is reproducible apart from the wall-time column.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, estimator as est_mod, mfa
from .scenario import ChannelDataset, ScenarioConfig, corrupt, generate_channels, read_dataset, scenario_from_dict

CSV_COLUMNS = ("estimator", "K", "L", "T", "snr_db", "nmse", "wall_time_ms")

ESTIMATOR_KINDS = (
    "ls",
    "genie-omp",
    "sample-lmmse",
    "mfa",
    "gmm-full",
    "gmm-toep",
    "gmm-circ",
    "mfa-model",
    "gmm-model",
)


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator entry of a bench spec.

    ``k``/``l`` are fit hyperparameters for the mixture kinds; ``model_path``
    points at a serialized model for the *-model kinds (used to benchmark a
    known or externally fitted model); ``s_max`` caps the genie-OMP depth
    (0 means the observation dimension); ``nv``/``nh`` give the array geometry
    of the genie-OMP dictionary (0 means the scenario's; required with dataset
    paths).
    """

    kind: str
    name: str = ""
    k: int = 0
    l: int = 0
    psi_mode: str = "scaled-identity"
    s_max: int = 0
    model_path: str = ""
    nv: int = 0
    nh: int = 0

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


@dataclass(frozen=True)
class BenchSpec:
    estimators: tuple[EstimatorSpec, ...]
    snr_grid_db: tuple[float, ...]
    eval_count: int = 10000
    train_count: int = 50000
    seed: int = 0
    scenario: ScenarioConfig | None = None
    train_path: str = ""
    eval_path: str = ""
    max_iter: int = 100
    rel_tol: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        if self.eval_count < 1 or self.train_count < 1:
            raise ValueError("eval_count and train_count must be >= 1")
        names = [e.name for e in self.estimators]
        if len(set(names)) != len(names):
            raise ValueError("estimator names must be unique")
        has_paths = bool(self.train_path) or bool(self.eval_path)
        if has_paths and (not self.train_path or not self.eval_path):
            raise ValueError("train_path and eval_path must be given together")
        if has_paths == (self.scenario is not None):
            raise ValueError("give either dataset paths or a scenario config")
        for entry in self.estimators:
            if has_paths and entry.kind == "genie-omp" and min(entry.nv, entry.nh) < 1:
                raise ValueError(
                    f"estimator {entry.name!r} needs the array geometry nv and nh "
                    "with dataset paths"
                )


def bench_spec_from_dict(data: dict) -> BenchSpec:
    data = dict(data)
    estimators = tuple(EstimatorSpec(**e) for e in data.pop("estimators", []))
    scenario = data.pop("scenario", None)
    if scenario is not None:
        scenario = scenario_from_dict(scenario)
    snr_grid = tuple(data.pop("snr_grid_db", ()))
    return BenchSpec(estimators=estimators, snr_grid_db=snr_grid, scenario=scenario, **data)


def bench_spec_from_json(path) -> BenchSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return bench_spec_from_dict(json.load(fh))


@dataclass(frozen=True)
class ReportRow:
    estimator: str
    k: int
    l: int
    t: int
    snr_db: float
    nmse: float
    wall_time_ms: float

    def as_tuple(self):
        return (self.estimator, self.k, self.l, self.t, self.snr_db, self.nmse, self.wall_time_ms)


# ---------------------------------------------------------------------------
# Fitted estimator adapters
# ---------------------------------------------------------------------------


class _Fitted:
    """A trained estimator: estimate(sigma2, observations, truths) -> estimates."""

    k = 0
    l = 0

    def estimate(self, sigma2, observations, truths):  # pragma: no cover - interface
        raise NotImplementedError


class _LsFitted(_Fitted):
    def estimate(self, sigma2, observations, truths):
        return baselines.ls_estimate(observations)


class _SampleLmmseFitted(_Fitted):
    def __init__(self, cov):
        self.cov = cov

    def estimate(self, sigma2, observations, truths):
        return baselines.sample_lmmse_estimate(self.cov, sigma2, observations)


class _GenieOmpFitted(_Fitted):
    def __init__(self, dictionary, s_max):
        self.dictionary = dictionary
        self.s_max = s_max

    def estimate(self, sigma2, observations, truths):
        return baselines.genie_omp_batch(observations, self.dictionary, truths, self.s_max)


class _MfaFitted(_Fitted):
    def __init__(self, model, k, l):
        self.model = model
        self.k = k
        self.l = l

    def estimate(self, sigma2, observations, truths):
        # estimate() factors the model at this noise level on every call.
        return est_mod.estimate(self.model, sigma2, observations).value


class _GmmFitted(_Fitted):
    def __init__(self, model, k):
        self.model = model
        self.k = k

    def estimate(self, sigma2, observations, truths):
        return baselines.gmm_estimate(self.model, sigma2, observations)


def _fit_entry(entry: EstimatorSpec, train: ChannelDataset, spec: BenchSpec,
               scenario: ScenarioConfig | None, k=None, l=None) -> _Fitted:
    k = k if k is not None else entry.k
    l = l if l is not None else entry.l
    if entry.kind == "ls":
        return _LsFitted()
    if entry.kind == "sample-lmmse":
        return _SampleLmmseFitted(baselines.fit_sample_lmmse(train))
    if entry.kind == "genie-omp":
        nv, nh = (entry.nv, entry.nh) if entry.nv or entry.nh else (scenario.nv, scenario.nh)
        if nv * nh != train.dim:
            raise ValueError(
                f"estimator {entry.name!r}: array geometry {nv} x {nh} does not match "
                f"the data dimension {train.dim}"
            )
        s_max = entry.s_max or train.dim
        return _GenieOmpFitted(baselines.build_dft_dictionary(nv, nh), s_max)
    if entry.kind == "mfa":
        if k < 1 or l < 1:
            raise ValueError(f"estimator {entry.name!r} needs k >= 1 and l >= 1")
        config = mfa.FitConfig(
            max_iter=spec.max_iter, rel_tol=spec.rel_tol, seed=spec.seed,
            psi_mode=entry.psi_mode,
        )
        model, _ = mfa.fit_em(train, k, l, config)
        return _MfaFitted(model, k, l)
    if entry.kind in ("gmm-full", "gmm-toep", "gmm-circ"):
        if k < 1:
            raise ValueError(f"estimator {entry.name!r} needs k >= 1")
        structure = {"gmm-full": "full", "gmm-toep": "toeplitz", "gmm-circ": "circulant"}[entry.kind]
        config = mfa.FitConfig(max_iter=spec.max_iter, rel_tol=spec.rel_tol, seed=spec.seed)
        model, _ = baselines.fit_gmm(train, k, structure, config)
        return _GmmFitted(model, k)
    if entry.kind == "mfa-model":
        model = mfa.load_model(entry.model_path)
        return _MfaFitted(model, model.n_components, model.latent_dim)
    if entry.kind == "gmm-model":
        model = baselines.load_gmm(entry.model_path)
        return _GmmFitted(model, model.n_components)
    raise ValueError(f"unknown estimator kind {entry.kind!r}")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _load_data(spec: BenchSpec) -> tuple[ChannelDataset, ChannelDataset]:
    if spec.train_path:
        return read_dataset(spec.train_path), read_dataset(spec.eval_path)
    rng = np.random.default_rng([spec.seed, 0xDA7A])
    combined = generate_channels(spec.scenario, spec.train_count + spec.eval_count, rng)
    train = ChannelDataset(combined.samples[: spec.train_count], combined.normalization, spec.seed)
    eval_ds = ChannelDataset(combined.samples[spec.train_count:], combined.normalization, spec.seed)
    return train, eval_ds


def _nmse(estimates: np.ndarray, truths: np.ndarray) -> float:
    return float(np.sum(np.abs(estimates - truths) ** 2) / truths.size)


def _eval_rows(fitted, name, spec, train_count, eval_ds, snr_db, snr_index):
    rng = np.random.default_rng([spec.seed, 0xE7A1, snr_index])
    observations, sigma2 = corrupt(eval_ds.samples, snr_db, rng)
    start = time.perf_counter()
    estimates = fitted.estimate(sigma2, observations, eval_ds.samples)
    wall_ms = (time.perf_counter() - start) * 1e3
    return ReportRow(
        estimator=name,
        k=fitted.k,
        l=fitted.l,
        t=train_count,
        snr_db=float(snr_db),
        nmse=_nmse(estimates, eval_ds.samples),
        wall_time_ms=wall_ms,
    )


def _sorted(rows: list[ReportRow]) -> list[ReportRow]:
    return sorted(rows, key=lambda r: (r.estimator, r.k, r.l, r.snr_db))


def run_snr_sweep(spec: BenchSpec) -> list[ReportRow]:
    """Corrupt the eval set at every SNR of the grid and score every estimator."""
    train, eval_ds = _load_data(spec)
    fitted = [(e.name, _fit_entry(e, train, spec, spec.scenario)) for e in spec.estimators]
    rows = []
    for si, snr in enumerate(spec.snr_grid_db):
        for name, f in fitted:
            rows.append(_eval_rows(f, name, spec, train.num_samples, eval_ds, snr, si))
    return _sorted(rows)


def _fixed_snr_sweep(spec: BenchSpec, shapes) -> list[ReportRow]:
    """Refit every mfa entry at each (K, L) of ``shapes``, where None keeps the
    entry's own value; other estimators get one row. The SNR is fixed to the
    first entry of the spec grid."""
    train, eval_ds = _load_data(spec)
    snr = spec.snr_grid_db[0]
    rows = []
    for entry in spec.estimators:
        for k, latent in (shapes if entry.kind == "mfa" else [(None, None)]):
            f = _fit_entry(entry, train, spec, spec.scenario, k=k, l=latent)
            rows.append(_eval_rows(f, entry.name, spec, train.num_samples, eval_ds, snr, 0))
    return _sorted(rows)


def run_latent_sweep(spec: BenchSpec, l_grid) -> list[ReportRow]:
    """Refit every mfa entry for each latent dimension; other estimators get one row.

    The SNR is fixed to the first entry of the spec grid.
    """
    l_grid = [int(x) for x in l_grid]
    if not l_grid:
        raise ValueError("l_grid must be nonempty")
    return _fixed_snr_sweep(spec, [(None, latent) for latent in l_grid])


def run_grid_sweep(spec: BenchSpec, k_grid, l_grid) -> list[ReportRow]:
    """Full Cartesian (K, L) sweep of the mfa entries at the first grid SNR."""
    k_grid = [int(x) for x in k_grid]
    l_grid = [int(x) for x in l_grid]
    if not k_grid or not l_grid:
        raise ValueError("k_grid and l_grid must be nonempty")
    return _fixed_snr_sweep(spec, [(k, latent) for k in k_grid for latent in l_grid])


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def write_report_csv(rows: list[ReportRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_tuple())


def report_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    write_report_csv(rows, buf)
    return buf.getvalue()


def write_report_jsonl(rows: list[ReportRow], stream) -> None:
    for row in rows:
        stream.write(json.dumps(dict(zip(CSV_COLUMNS, row.as_tuple()))) + "\n")


def report_jsonl(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    write_report_jsonl(rows, buf)
    return buf.getvalue()
