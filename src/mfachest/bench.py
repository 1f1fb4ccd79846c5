"""Benchmark sweeps: normalized MSE of registered estimators over SNR,
latent-dimension, and component-count grids, reported as CSV or JSON lines.

Every sweep fits each estimator once (each mfa entry once per (K, L) of the
grid), then corrupts the eval set once per SNR. That one draw is read-only and
shared by every estimator, so all of them see the same noise. Each K of a sweep
runs k-means once: the mfa and gmm fits at that K, of every L and structure,
share one ``mfa.kmeans_start`` and fit exactly as they would alone. Rows are
ordered by (estimator, K, L, snr) and all randomness derives from the spec
seed, so a sweep is reproducible apart from the wall-time column.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import numbers
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import baselines, estimator as est_mod, mfa
from .scenario import ChannelDataset, ScenarioConfig, check_snr_db, corrupt, generate_channels
from .scenario import _check_field_types, _json_object, read_dataset, scenario_from_dict

CSV_COLUMNS = ("estimator", "K", "L", "T", "snr_db", "nmse", "wall_time_ms")

_GMM_STRUCTURES = {"gmm-full": "full", "gmm-toep": "toeplitz", "gmm-circ": "circulant"}

ESTIMATOR_KINDS = ("ls", "genie-omp", "sample-lmmse", "mfa", *_GMM_STRUCTURES, "mfa-model", "gmm-model")


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
        _check_field_types(self)
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.psi_mode not in mfa.PSI_MODES:
            raise ValueError(f"psi_mode must be one of {mfa.PSI_MODES}, got {self.psi_mode!r}")
        if self.s_max < 0:
            raise ValueError(f"s_max must be >= 0, got {self.s_max}")
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
        _check_field_types(self)
        # The fit settings are checked here, before any data is generated or read.
        mfa.FitConfig(max_iter=self.max_iter, rel_tol=self.rel_tol)
        if not isinstance(self.snr_grid_db, (list, tuple, np.ndarray)) or any(
            isinstance(s, bool) or not isinstance(s, numbers.Real) for s in self.snr_grid_db
        ):
            raise ValueError(f"snr_grid_db must be a list of numbers, got {self.snr_grid_db!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        for snr in self.snr_grid_db:
            check_snr_db(snr)
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
    data = _json_object(data, "bench spec", BenchSpec)
    entries = data.pop("estimators", [])
    if not isinstance(entries, list):
        raise ValueError(f"estimators must be a list, got {entries!r}")
    # A missing kind is rejected like any other non-string one.
    estimators = [
        EstimatorSpec(**{"kind": None, **_json_object(e, f"estimators[{i}]", EstimatorSpec)})
        for i, e in enumerate(entries)
    ]
    scenario = data.pop("scenario", None)
    if scenario is not None:
        scenario = scenario_from_dict(scenario)
    snr_grid = data.pop("snr_grid_db", ())
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


def model_estimator(model):
    """``estimate(sigma2, y, out=None)`` of a fitted or loaded MFA or GMM: the
    MMSE channel estimates of the observations y at noise variance sigma2,
    written into ``out`` when given under ``estimator.estimate``'s contract
    (y itself, or a buffer sharing no memory with y; partial values on an
    error) and into a fresh array otherwise."""
    if isinstance(model, mfa.MfaModel):
        return lambda sigma2, y, out=None: est_mod.estimate(model, sigma2, y, out=out)
    return lambda sigma2, y, out=None: baselines.gmm_estimate(model, sigma2, y, out=out)


def _fit_entry(
    entry: EstimatorSpec, train: ChannelDataset, spec: BenchSpec, k: int, l: int, start_at
):
    """Fit or load one estimator: ``(K, L, estimate)`` with
    ``estimate(sigma2, observations, truths) -> estimates``. The mfa and gmm
    kinds fit at K = ``k`` (and L = ``l``) from the k-means start ``start_at(k)``."""
    fit = dict(max_iter=spec.max_iter, rel_tol=spec.rel_tol, seed=spec.seed,
               psi_mode=entry.psi_mode)
    if entry.kind == "ls":
        return 0, 0, lambda sigma2, y, truths: baselines.ls_estimate(y)
    if entry.kind == "genie-omp":
        dictionary = baselines.build_dft_dictionary(*_geometry(entry, spec))
        s_max = entry.s_max or train.dim
        return 0, 0, lambda sigma2, y, truths: baselines.genie_omp_batch(y, dictionary, truths, s_max)
    if entry.kind == "sample-lmmse":
        model, k, l = baselines.fit_sample_lmmse(train), 0, 0
    elif entry.kind == "mfa":
        model, _ = mfa.fit_em(train, k, l, mfa.FitConfig(**fit), start_at(k))
    elif entry.kind in _GMM_STRUCTURES:
        structure = _GMM_STRUCTURES[entry.kind]
        model, _ = baselines.fit_gmm(train, k, structure, mfa.FitConfig(**fit), start_at(k))
        l = 0
    elif entry.kind == "mfa-model":
        model = mfa.load_model(entry.model_path)
        k, l = model.n_components, model.latent_dim
    else:
        model = baselines.load_gmm(entry.model_path)
        k, l = model.n_components, 0
    estimate = model_estimator(model)
    return k, l, lambda sigma2, y, truths: estimate(sigma2, y)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _load_data(spec: BenchSpec) -> tuple[ChannelDataset, ChannelDataset]:
    if spec.train_path:
        return read_dataset(spec.train_path), read_dataset(spec.eval_path)
    rng = np.random.default_rng([spec.seed, 0xDA7A])
    combined = generate_channels(spec.scenario, spec.train_count + spec.eval_count, rng)
    train = ChannelDataset(combined.samples[: spec.train_count], combined.normalization)
    eval_ds = ChannelDataset(combined.samples[spec.train_count:], combined.normalization)
    return train, eval_ds


def _geometry(entry: EstimatorSpec, spec: BenchSpec) -> tuple[int, int]:
    """The (nv, nh) array geometry of a genie-omp entry: its own, else the scenario's."""
    return (entry.nv, entry.nh) if entry.nv or entry.nh else (spec.scenario.nv, spec.scenario.nh)


def _check_shape(entry: EstimatorSpec, spec: BenchSpec, k: int, l: int, dim: int) -> None:
    """An mfa fit needs K >= 1 and 1 <= L <= N, a gmm fit K >= 1, and a
    genie-omp entry an array geometry nv x nh = N."""
    if entry.kind == "genie-omp":
        nv, nh = _geometry(entry, spec)
        if nv * nh != dim:
            raise ValueError(
                f"estimator {entry.name!r}: array geometry {nv} x {nh} does not match "
                f"the data dimension {dim}"
            )
    if entry.kind == "mfa" and (k < 1 or not 1 <= l <= dim):
        raise ValueError(
            f"estimator {entry.name!r} needs k >= 1 and 1 <= l <= N = {dim}, got k={k}, l={l}"
        )
    if entry.kind in _GMM_STRUCTURES and k < 1:
        raise ValueError(f"estimator {entry.name!r} needs k >= 1")


def _sweep(spec: BenchSpec, shapes, snr_indices) -> list[ReportRow]:
    """Fit every entry, each mfa entry once per (K, L) of ``shapes`` (None keeps
    the entry's own value), and score every fit at each SNR of ``snr_indices``
    (indices into the spec grid) on one shared, read-only draw of the noise.
    Every (K, L) and genie-omp geometry is checked before the first fit, and
    k-means runs once per K, at the first fit that needs it."""
    train, eval_ds = _load_data(spec)
    if eval_ds.dim != train.dim:
        raise ValueError(f"eval dimension {eval_ds.dim} != train dimension {train.dim}")
    jobs = [
        (entry, entry.k if k is None else k, entry.l if l is None else l)
        for entry in spec.estimators
        for k, l in (shapes if entry.kind == "mfa" else [(None, None)])
    ]
    for entry, k, l in jobs:
        _check_shape(entry, spec, k, l, train.dim)
    truths = eval_ds.samples
    start_at = functools.cache(lambda k: mfa.kmeans_start(train, k, spec.seed))
    fitted = [(entry.name, *_fit_entry(entry, train, spec, k, l, start_at)) for entry, k, l in jobs]
    rows = []
    for si in snr_indices:
        snr = spec.snr_grid_db[si]
        observations, sigma2 = corrupt(truths, snr, np.random.default_rng([spec.seed, 0xE7A1, si]))
        observations.flags.writeable = False
        for name, k, l, estimate in fitted:
            start = time.perf_counter()
            estimates = estimate(sigma2, observations, truths)
            wall_ms = (time.perf_counter() - start) * 1e3
            nmse = float(np.sum(np.abs(estimates - truths) ** 2) / truths.size)
            rows.append(ReportRow(name, k, l, train.num_samples, snr, nmse, wall_ms))
    return sorted(rows, key=lambda r: (r.estimator, r.k, r.l, r.snr_db))


def run_snr_sweep(spec: BenchSpec) -> list[ReportRow]:
    """Corrupt the eval set at every SNR of the grid and score every estimator."""
    return _sweep(spec, [(None, None)], range(len(spec.snr_grid_db)))


def run_latent_sweep(spec: BenchSpec, l_grid) -> list[ReportRow]:
    """Refit every mfa entry for each latent dimension; other estimators get one row.

    The SNR is fixed to the first entry of the spec grid.
    """
    l_grid = [int(x) for x in l_grid]
    if not l_grid:
        raise ValueError("l_grid must be nonempty")
    return _sweep(spec, [(None, latent) for latent in l_grid], [0])


def run_grid_sweep(spec: BenchSpec, k_grid, l_grid) -> list[ReportRow]:
    """Full Cartesian (K, L) sweep of the mfa entries at the first grid SNR."""
    k_grid = [int(x) for x in k_grid]
    l_grid = [int(x) for x in l_grid]
    if not k_grid or not l_grid:
        raise ValueError("k_grid and l_grid must be nonempty")
    return _sweep(spec, [(k, latent) for k in k_grid for latent in l_grid], [0])


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def report_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(astuple, rows))
    return buf.getvalue()


def report_jsonl(rows: list[ReportRow]) -> str:
    return "".join(json.dumps(dict(zip(CSV_COLUMNS, astuple(row)))) + "\n" for row in rows)
