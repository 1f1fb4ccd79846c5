"""Baseline channel estimators: least squares, genie-aided OMP over an
oversampled DFT dictionary, sample-covariance LMMSE, and Gaussian mixtures
with full, Toeplitz, or circulant covariances.

OMP grows an orthonormal basis of each observation's support one atom per step
(classical Gram-Schmidt, applied twice). Its stopping rule: a row stops at the
first step where the largest residual correlation is <= 1e-12 * max(||y||, 1)
or the orthogonalised atom has norm <= 1e-10, and its estimate stays frozen.

The structured mixtures parameterize covariances as ``Q^H diag(c) Q`` with a
fixed DFT-based transform: the unitary N-point DFT for circulant covariances
and the 2N-point DFT truncated to N columns for Toeplitz ones. Each structure
enters through one M-step (``_fit_params``, which also starts every k-means
cluster), one restart (``_isotropic``) and one density kernel (``_gmm_factor``
and ``_gmm_logdens``: FFT for circulant, dense Cholesky otherwise) shared by the
E-step, the likelihood and the estimator. EM runs in fit_em's loop and collapse
policy, ``mfa._run_em`` and ``mfa._mixture_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import solve_triangular

from . import mfa as _mfa
from ._binio import ByteReader, ByteWriter, FileFormatError
from .gaussians import COND_LIMIT, LOG_PI, ConditioningError, _check_sigma2, log_sum_exp
from .mfa import FitConfig, FitTrace, MfaModel, _as_samples

GMM_MAGIC = b"GMM1"
GMM_VERSION = 1

GMM_STRUCTURES = ("full", "toeplitz", "circulant")
_STRUCTURE_TAGS = {"full": 0, "toeplitz": 1, "circulant": 2}
_TAG_STRUCTURES = {v: k for k, v in _STRUCTURE_TAGS.items()}

# Relative eigenvalue / spectrum floor, scaled by trace/N of the scatter.
EIG_FLOOR_REL = 1e-8

# Complex entries of one chunk's (B, s, N) OMP basis.
_OMP_CHUNK_BUDGET = 4_000_000
_EST_CHUNK_BUDGET = 8_000_000


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------


def ls_estimate(y: np.ndarray) -> np.ndarray:
    """The observation itself; optimal when nothing is known about the prior."""
    return np.asarray(y, dtype=np.complex128).copy()


# ---------------------------------------------------------------------------
# Dictionary and OMP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm atoms (N, M) over a 2-D oversampled spatial-frequency grid."""

    atoms: np.ndarray
    geometry: str

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.complex128)
        if atoms.ndim != 2:
            raise ValueError("atoms must be an (N, M) matrix")
        norms = np.linalg.norm(atoms, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("dictionary columns must be unit norm")
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]


def _axis_grid(n: int, oversampling: int) -> np.ndarray:
    # A single-element axis has no phase diversity; one atom spans it.
    if n == 1:
        return np.ones((1, 1), dtype=np.complex128)
    m = oversampling * n
    grid = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(m)) / m)
    return grid / np.sqrt(n)


def build_dft_dictionary(
    nv: int = 4,
    nh: int = 16,
    oversampling_v: int = 2,
    oversampling_h: int = 2,
) -> Dictionary:
    """Kronecker product of per-axis oversampled DFT grids, columns unit norm.

    With both axes larger than one, the default 2x2 oversampling yields
    M = 4N atoms.
    """
    if min(nv, nh, oversampling_v, oversampling_h) < 1:
        raise ValueError("grid parameters must be positive")
    atoms = np.kron(_axis_grid(nv, oversampling_v), _axis_grid(nh, oversampling_h))
    return Dictionary(atoms, geometry=f"dft:{nv}x{nh}:ov{oversampling_v}x{oversampling_h}")


def genie_omp_batch(
    observations: np.ndarray,
    dictionary: Dictionary,
    truths: np.ndarray,
    s_max: int,
) -> np.ndarray:
    """Genie-aided OMP over a batch of observations (B, N) or a single (N,).

    Each row runs one orthogonal matching pursuit to depth
    ``min(s_max, N, M)``: pick the atom with the largest residual correlation
    ``|a^H r|`` (atoms already picked are excluded), orthogonalise it against
    the support's orthonormal basis and project the observation onto the grown
    basis. The genie returns the prefix estimate (zero included) closest to the
    row of ``truths``; the per-depth prefix of one run equals independent runs
    at each sparsity.

    Stopping rule: a row stops growing at the first step where its largest
    residual correlation is <= 1e-12 * max(||y||, 1), or where the picked atom,
    orthogonalised against the basis, has norm <= 1e-10 (numerically dependent
    on the support). Its estimate stays frozen from then on.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    obs = np.atleast_2d(np.asarray(observations, dtype=np.complex128))
    tru = np.atleast_2d(np.asarray(truths, dtype=np.complex128))
    atoms = dictionary.atoms
    dim = dictionary.dim
    if obs.ndim != 2 or obs.shape[1] != dim:
        raise ValueError("observation dimension does not match the dictionary")
    if tru.shape != obs.shape:
        raise ValueError("truths must have the shape of the observations")
    depth = min(s_max, dim, dictionary.n_atoms)
    out = np.zeros_like(obs)
    chunk = max(32, _OMP_CHUNK_BUDGET // (dim * depth))
    for start in range(0, obs.shape[0], chunk):
        stop = min(start + chunk, obs.shape[0])
        out[start:stop] = _genie_omp_chunk(obs[start:stop], atoms, tru[start:stop], depth)
    return out[0] if np.asarray(observations).ndim == 1 else out


def _genie_omp_chunk(
    obs: np.ndarray, atoms: np.ndarray, tru: np.ndarray, depth: int
) -> np.ndarray:
    batch, dim = obs.shape
    rows = np.arange(batch)
    atoms_conj = atoms.conj()
    atom_rows = np.ascontiguousarray(atoms.T)
    selected = np.zeros((batch, depth), dtype=np.intp)
    # Orthonormal basis of each row's support, one row of Q per step.
    basis = np.zeros((batch, depth, dim), dtype=np.complex128)
    est = np.zeros_like(obs)
    residual = obs.copy()
    best = np.zeros_like(obs)
    best_err = _row_norm2(tru)
    tol = 1e-12 * np.maximum(np.sqrt(_row_norm2(obs)), 1.0)
    growing = np.ones(batch, dtype=bool)
    for step in range(depth):
        corr = np.abs(residual @ atoms_conj)
        if step:
            np.put_along_axis(corr, selected[:, :step], -1.0, axis=1)
        picks = corr.argmax(axis=1)
        growing &= corr[rows, picks] > tol
        selected[:, step] = picks
        q = atom_rows[picks]
        # Classical Gram-Schmidt against Q, repeated once for orthogonality.
        prev = basis[:, :step]
        for _ in range(2):
            coef = (prev @ q.conj()[:, :, None]).conj()
            q -= (coef.transpose(0, 2, 1) @ prev)[:, 0]
        norm = np.sqrt(_row_norm2(q))
        growing &= norm > 1e-10
        if not growing.any():
            break
        scale = np.zeros(batch)
        scale[growing] = 1.0 / norm[growing]
        q *= scale[:, None]
        basis[:, step] = q
        est += np.einsum("bn,bn->b", q.conj(), obs)[:, None] * q
        np.subtract(obs, est, out=residual)
        err = _row_norm2(est - tru)
        better = err < best_err
        best[better] = est[better]
        best_err[better] = err[better]
    return best


def _row_norm2(rows: np.ndarray) -> np.ndarray:
    return np.einsum("bn,bn->b", rows.conj(), rows).real


# ---------------------------------------------------------------------------
# Sample-covariance LMMSE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleCovariance:
    """Zero-mean sample covariance ``(1/T) sum h h^H`` of a training set."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("covariance must be square")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12 * max(1.0, np.abs(mat).max()):
            raise ValueError("covariance must be Hermitian")
        object.__setattr__(self, "matrix", 0.5 * (mat + mat.conj().T))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fit_sample_lmmse(dataset) -> SampleCovariance:
    samples = _as_samples(dataset)
    cov = samples.T @ samples.conj() / samples.shape[0]
    return SampleCovariance(cov)


def sample_lmmse_estimate(cov: SampleCovariance, sigma2: float, y: np.ndarray) -> np.ndarray:
    """Global LMMSE with the sample covariance and zero mean: C (C + sigma2 I)^{-1} y."""
    sigma2 = _check_sigma2(sigma2)
    if sigma2 <= 0.0:
        raise ValueError("sample-covariance LMMSE requires sigma2 > 0")
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    batch = np.atleast_2d(y)
    if batch.shape[1] != cov.dim:
        raise ValueError("observation dimension does not match the covariance")
    if not np.all(np.isfinite(batch)):
        raise ValueError("observation contains non-finite entries")
    shifted = cov.matrix + sigma2 * np.eye(cov.dim)
    solved = np.linalg.solve(shifted, batch.T).T
    out = batch - sigma2 * solved
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Structured Gaussian mixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def toeplitz_transform(dim: int) -> np.ndarray:
    """2N-point unitary DFT truncated to N columns; Q^H Q = I_N."""
    two_n = 2 * dim
    grid = np.exp(-2j * np.pi * np.outer(np.arange(two_n), np.arange(dim)) / two_n)
    return grid / np.sqrt(two_n)


@lru_cache(maxsize=8)
def _toeplitz_gram(dim: int) -> np.ndarray:
    """G_ij = |q_i^H q_j|^2 for the rank-one basis of the Toeplitz cone."""
    q = toeplitz_transform(dim)
    inner = q @ q.conj().T  # (2N, 2N), entry (i, j) = q_j^H q_i up to conjugation
    return np.abs(inner) ** 2


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture with full, Toeplitz, or circulant covariances.

    ``covariances`` holds (K, N, N) Hermitian PSD matrices for the full
    structure; ``spectra`` holds the nonnegative transform-domain diagonals
    for the structured ones: (K, 2N) for Toeplitz, (K, N) for circulant.
    """

    structure: str
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray | None = None
    spectra: np.ndarray | None = None

    def __post_init__(self):
        if self.structure not in GMM_STRUCTURES:
            raise ValueError(f"structure must be one of {GMM_STRUCTURES}")
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.complex128)
        if weights.ndim != 1 or means.ndim != 2 or means.shape[0] != weights.shape[0]:
            raise ValueError("weights (K,) and means (K, N) are inconsistent")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        k_total, dim = means.shape
        if self.structure == "full":
            covs = np.asarray(self.covariances, dtype=np.complex128)
            if covs.shape != (k_total, dim, dim):
                raise ValueError("full structure needs (K, N, N) covariances")
            scale = max(float(np.abs(covs).max()), 1.0)
            if np.max(np.abs(covs - covs.conj().transpose(0, 2, 1))) > 1e-10 * scale:
                raise ValueError("covariances must be Hermitian")
            min_eigs = np.linalg.eigvalsh(covs)[:, 0]
            for k in np.flatnonzero(min_eigs < -1e-10 * scale):
                raise ValueError(f"covariance {k} is not PSD (min eig {min_eigs[k]:.3e})")
            object.__setattr__(self, "covariances", covs)
            object.__setattr__(self, "spectra", None)
        else:
            expected = 2 * dim if self.structure == "toeplitz" else dim
            spectra = np.asarray(self.spectra, dtype=np.float64)
            if spectra.shape != (k_total, expected):
                raise ValueError(f"{self.structure} structure needs (K, {expected}) spectra")
            if np.any(spectra < 0):
                raise ValueError("spectra must be nonnegative")
            object.__setattr__(self, "spectra", spectra)
            object.__setattr__(self, "covariances", None)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def params(self) -> np.ndarray:
        """The covariance parameters of every component: covariances or spectra."""
        return self.spectra if self.covariances is None else self.covariances

    def dense_covariances(self) -> np.ndarray:
        """Materialize (K, N, N) covariance matrices for any structure."""
        if self.structure == "full":
            return self.covariances.copy()
        if self.structure == "circulant":
            q = np.fft.fft(np.eye(self.dim), norm="ortho")
        else:
            q = toeplitz_transform(self.dim)
        return np.stack([q.conj().T @ (spectrum[:, None] * q) for spectrum in self.spectra])


def _with_params(structure: str, weights, means, params) -> GmmModel:
    key = "covariances" if structure == "full" else "spectra"
    return GmmModel(structure, weights, means, **{key: params})


def gmm_from_mfa(model: MfaModel) -> GmmModel:
    """Full-covariance mixture with C_k = loading loading^H + diag(diag_term)."""
    covs = np.stack([comp.cov.dense() for comp in model.components])
    return GmmModel("full", model.weights, model.means, covariances=covs)


def _project_toeplitz(scatter_diag: np.ndarray, floor: float, dim: int) -> np.ndarray:
    """Spectrum of the Frobenius projection onto the Toeplitz cone, clipped at floor.

    Solves the normal equations G c = b of the projection; G is rank deficient
    (the Toeplitz cone has real dimension 2N - 1), so the minimum-norm
    least-squares solution is used before clipping.
    """
    gram = _toeplitz_gram(dim)
    sol, *_ = np.linalg.lstsq(gram, scatter_diag, rcond=None)
    return np.maximum(sol, floor)


def _fit_params(structure: str, xc: np.ndarray, resp: np.ndarray, mass: float) -> np.ndarray:
    """One component's M-step from centred rows ``xc`` (T, N), weights ``resp`` (T,)
    and their sum ``mass``: the weighted scatter (full), its DFT-domain diagonal
    (circulant) or its projection onto the Toeplitz cone, each floored at
    EIG_FLOOR_REL times the weighted mean energy per entry."""
    dim = xc.shape[1]
    energy = float(resp @ (np.abs(xc) ** 2).sum(axis=1)) / (mass * dim)
    floor = EIG_FLOOR_REL * max(energy, np.finfo(float).tiny)
    if structure == "full":
        scatter = (xc.T * resp) @ xc.conj() / mass
        vals, vecs = np.linalg.eigh(0.5 * (scatter + scatter.conj().T))
        return (vecs * np.maximum(vals, floor)) @ vecs.conj().T
    if structure == "circulant":
        return np.maximum(resp @ np.abs(np.fft.fft(xc, norm="ortho")) ** 2 / mass, floor)
    diag = resp @ np.abs(xc @ toeplitz_transform(dim).T) ** 2 / mass
    return _project_toeplitz(diag, floor, dim)


def _isotropic(structure: str, dim: int, scale: float) -> np.ndarray:
    """Parameters of a restarted component: scale * I for full and circulant.

    The Toeplitz spectrum of 2 * scale on every bin is 2 * scale * I, since
    Q^H Q = I; fitted models depend on that scale, so it stays.
    """
    if structure == "full":
        return scale * np.eye(dim)
    if structure == "circulant":
        return np.full(dim, scale)
    return np.full(2 * dim, 2.0 * scale)


def _gmm_factor(model: GmmModel, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor every C_k + sigma2 I once: (factor, log-constants).

    The factor is the shifted spectra (K, N) of a circulant model and the
    lower Cholesky factors (K, N, N) of the others; the log-constants are
    log w_k - N log pi - log det(C_k + sigma2 I). Raises ConditioningError
    when a Cholesky factorization fails.
    """
    if model.structure == "circulant":
        factor = model.spectra + sigma2
        logdets = np.log(factor).sum(axis=1)
    else:
        shifted = model.dense_covariances() + sigma2 * np.eye(model.dim)
        factor = np.empty_like(shifted)
        for k in range(model.n_components):
            try:
                factor[k] = np.linalg.cholesky(shifted[k])
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"component {k}: covariance + sigma2 I is not positive definite "
                    "(use sigma2 > 0)"
                ) from exc
        logdets = 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2).real).sum(axis=1)
    return factor, np.log(model.weights) - model.dim * LOG_PI - logdets


def _gmm_logdens(model: GmmModel, factored, rows, sigma2: float, filtered=None) -> np.ndarray:
    """(B, K) log w_k + log N_C(rows; mu_k, C_k + sigma2 I) from _gmm_factor(model, sigma2).

    Given ``filtered`` (K, B, N), also writes each component's LMMSE estimate
    rows - sigma2 (C_k + sigma2 I)^{-1} (rows - mu_k) into it.
    """
    factor, logconst = factored
    logdens = np.empty((rows.shape[0], model.n_components))
    for k in range(model.n_components):
        xc = rows - model.means[k]
        if model.structure == "circulant":
            xf = np.fft.fft(xc, norm="ortho")
            # Real division: a subnormal bin of a fitted spectrum then gives inf, not NaN.
            logdens[:, k] = logconst[k] - (np.abs(xf) ** 2 / factor[k]).sum(axis=1)
            if filtered is not None:
                filtered[k] = rows - sigma2 * np.fft.ifft(xf / factor[k], norm="ortho")
        else:
            half = solve_triangular(factor[k], xc.T, lower=True, check_finite=False)
            logdens[:, k] = logconst[k] - (np.abs(half) ** 2).sum(axis=0)
            if filtered is not None:
                solved = solve_triangular(factor[k].conj().T, half, lower=False, check_finite=False)
                filtered[k] = rows - sigma2 * solved.T
    return logdens


def fit_gmm(
    dataset, n_components: int, structure: str, config: FitConfig | None = None
) -> tuple[GmmModel, FitTrace]:
    """EM fit of a Gaussian mixture with the requested covariance structure.

    k-means clusters start the components; a cluster of fewer than two samples
    starts isotropic. The full-covariance M-step is the exact maximizer; the
    Toeplitz and circulant M-steps project the weighted scatter onto the
    structure class, so their likelihood traces are recorded but not
    guaranteed monotone. The loop and the collapse policy are fit_em's.
    """
    config = config or FitConfig()
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"structure must be one of {GMM_STRUCTURES}")
    samples = _as_samples(dataset)
    count, dim = samples.shape
    if count < n_components:
        raise ValueError(f"need at least K={n_components} samples, got {count}")

    rng = np.random.default_rng(config.seed)
    labels = _mfa._kmeans(samples, n_components, rng)
    scale = float(np.mean(np.abs(samples) ** 2))
    means, params = [], []
    for k in range(n_components):
        cluster = samples[labels == k]
        if cluster.shape[0] < 2:
            means.append(cluster[0] if cluster.shape[0] else samples[rng.integers(count)])
            params.append(_isotropic(structure, dim, scale))
            continue
        means.append(cluster.mean(axis=0))
        unit = np.ones(cluster.shape[0])
        params.append(_fit_params(structure, cluster - means[k], unit, unit.size))
    weights = np.full(n_components, 1.0 / n_components)
    start = _with_params(structure, weights, np.stack(means), np.stack(params))
    return _mfa._run_em(partial(_gmm_update, samples), start, config)


def _gmm_update(samples: np.ndarray, model: GmmModel) -> tuple[float, GmmModel]:
    """One EM iteration of fit_gmm; returns the incoming model's average
    log-likelihood and the updated model. Components that collapse under
    ``mfa._mixture_weights`` restart at the sample the incoming model fits worst,
    with ``_isotropic`` parameters at the data's mean energy per entry."""
    count, dim = samples.shape
    logdens = _gmm_logdens(model, _gmm_factor(model, 0.0), samples, 0.0)
    per_sample = log_sum_exp(logdens, axis=1)
    resp = np.exp(logdens - per_sample[:, None])
    resp /= resp.sum(axis=1, keepdims=True)
    masses = resp.sum(axis=0)
    weights, collapsed = _mfa._mixture_weights(masses, count)
    means, params = model.means.copy(), model.params.copy()
    for k in range(model.n_components):
        if k in collapsed:
            means[k] = samples[np.argmin(per_sample)]
            params[k] = _isotropic(model.structure, dim, float(np.mean(np.abs(samples) ** 2)))
        else:
            means[k] = resp[:, k] @ samples / masses[k]
            params[k] = _fit_params(model.structure, samples - means[k], resp[:, k], masses[k])
    return float(per_sample.mean()), _with_params(model.structure, weights, means, params)


def gmm_log_likelihood(model: GmmModel, dataset) -> float:
    """Average per-sample log of the mixture density, via log-sum-exp."""
    samples = _as_samples(dataset)
    logdens = _gmm_logdens(model, _gmm_factor(model, 0.0), samples, 0.0)
    return float(np.mean(log_sum_exp(logdens, axis=1)))


def gmm_estimate(model: GmmModel, sigma2: float, y: np.ndarray) -> np.ndarray:
    """Responsibility-weighted per-component LMMSE under the mixture model.

    Circulant covariances invert in the DFT domain; full and Toeplitz ones use
    dense Cholesky solves of C + sigma2 I. Raises ConditioningError when some
    C_k + sigma2 I is numerically singular: a circulant bin at or below its
    component's largest bin / COND_LIMIT, or a failed Cholesky.
    """
    sigma2 = _check_sigma2(sigma2)
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    batch = np.atleast_2d(y)
    if batch.shape[1] != model.dim:
        raise ValueError("observation dimension does not match the model")
    if not np.all(np.isfinite(batch)):
        raise ValueError("observation contains non-finite entries")
    if model.structure == "circulant":
        shifted = model.spectra + sigma2
        singular = (shifted <= shifted.max(axis=1, keepdims=True) / COND_LIMIT).any(axis=1)
        if singular.any():
            raise ConditioningError(
                f"component {singular.argmax()}: circulant spectrum + sigma2 has a zero bin "
                f"(at or below its largest / {COND_LIMIT:.0e}); use sigma2 > 0"
            )
    factored = _gmm_factor(model, sigma2)
    k_total, dim = model.n_components, model.dim
    out = np.empty_like(batch)
    chunk = max(64, _EST_CHUNK_BUDGET // (k_total * dim))
    for start in range(0, batch.shape[0], chunk):
        rows = batch[start:start + chunk]
        filtered = np.empty((k_total, rows.shape[0], dim), dtype=np.complex128)
        logdens = _gmm_logdens(model, factored, rows, sigma2, filtered)
        resp = np.exp(logdens - logdens.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        out[start:start + chunk] = np.einsum("kbn,bk->bn", filtered, resp)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_gmm(model: GmmModel, path) -> None:
    """Write the GMM1 container (structure tag byte after the version)."""
    w = ByteWriter()
    w.magic(GMM_MAGIC)
    w.u32(GMM_VERSION)
    w.u8(_STRUCTURE_TAGS[model.structure])
    w.u32(model.dim)
    w.u32(model.n_components)
    for k in range(model.n_components):
        w.f64(float(model.weights[k]))
        w.complex_array(model.means[k])
        if model.structure == "full":
            w.complex_array(model.covariances[k], order="F")
        else:
            w.f64_array(model.spectra[k])
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_gmm(path) -> GmmModel:
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read())
    reader.magic(GMM_MAGIC)
    version = reader.u32("version")
    if version != GMM_VERSION:
        raise FileFormatError(f"unsupported model version {version}", reader.offset - 4)
    tag = reader.u8("structure tag")
    if tag not in _TAG_STRUCTURES:
        raise FileFormatError(f"unknown structure tag {tag}", reader.offset - 1)
    structure = _TAG_STRUCTURES[tag]
    dim = reader.u32("dimension N")
    k_total = reader.u32("component count K")
    if dim == 0 or k_total == 0:
        raise FileFormatError("model header declares an empty model", reader.offset)
    bins = 2 * dim if structure == "toeplitz" else dim
    weights = np.empty(k_total)
    means = np.empty((k_total, dim), dtype=np.complex128)
    params = []
    for k in range(k_total):
        weights[k] = reader.f64("weight")
        means[k] = reader.complex_array(dim, "mean")
        if structure == "full":
            params.append(reader.complex_array(dim * dim, "covariance").reshape((dim, dim), order="F"))
        else:
            params.append(reader.f64_array(bins, "spectrum"))
    reader.expect_eof()
    return _with_params(structure, weights, means, np.stack(params))
