"""Baseline channel estimators: least squares, genie-aided OMP over an
oversampled DFT dictionary, sample-covariance LMMSE, and Gaussian mixtures
with full, Toeplitz, or circulant covariances.

OMP grows an orthonormal basis of each observation's support one atom per step
(classical Gram-Schmidt, applied twice). Its stopping rule: a row stops at the
first step where the largest residual correlation is <= 1e-12 * max(||y||, 1)
or the orthogonalised atom has norm <= 1e-10, and its estimate stays frozen.

The structured mixtures parameterize covariances as ``Q^H diag(c) Q`` with a
fixed DFT-based transform: the unitary N-point DFT for circulant covariances
and the 2N-point DFT truncated to N columns for Toeplitz ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from . import mfa as _mfa
from ._binio import ByteReader, ByteWriter, FileFormatError
from .gaussians import LOG_PI, ConditioningError, _check_sigma2, log_sum_exp
from .mfa import FitConfig, FitTrace, MfaModel, WEIGHT_FLOOR, _as_samples

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
            for k in range(k_total):
                min_eig = float(np.linalg.eigvalsh(covs[k])[0])
                if min_eig < -1e-10 * scale:
                    raise ValueError(f"covariance {k} is not PSD (min eig {min_eig:.3e})")
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

    def dense_covariances(self) -> np.ndarray:
        """Materialize (K, N, N) covariance matrices for any structure."""
        if self.structure == "full":
            return self.covariances.copy()
        k_total, dim = self.means.shape
        out = np.empty((k_total, dim, dim), dtype=np.complex128)
        if self.structure == "circulant":
            dft = np.fft.fft(np.eye(dim), norm="ortho")
            for k in range(k_total):
                out[k] = dft.conj().T @ (self.spectra[k][:, None] * dft)
        else:
            q = toeplitz_transform(dim)
            for k in range(k_total):
                out[k] = q.conj().T @ (self.spectra[k][:, None] * q)
        return out


def gmm_from_mfa(model: MfaModel) -> GmmModel:
    """Full-covariance mixture with C_k = loading loading^H + diag(diag_term)."""
    covs = np.stack([comp.cov.dense() for comp in model.components])
    return GmmModel("full", model.weights, model.means, covariances=covs)


def _dense_chol_logdens(
    samples: np.ndarray, mean: np.ndarray, cov: np.ndarray
) -> np.ndarray:
    """Complex Gaussian log-density with a dense covariance, via Cholesky."""
    dim = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    xc = samples - mean
    half = solve_triangular(chol, xc.T, lower=True, check_finite=False)
    quad = (np.abs(half) ** 2).sum(axis=0)
    logdet = 2.0 * float(np.log(chol.diagonal().real).sum())
    return -dim * LOG_PI - logdet - quad


def _circulant_logdens(samples: np.ndarray, mean: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    dim = spectrum.shape[0]
    xf = np.fft.fft(samples - mean, norm="ortho")
    quad = (np.abs(xf) ** 2 / spectrum).sum(axis=1)
    return -dim * LOG_PI - float(np.log(spectrum).sum()) - quad


def _toeplitz_dense(spectrum: np.ndarray) -> np.ndarray:
    dim = spectrum.shape[0] // 2
    q = toeplitz_transform(dim)
    cov = q.conj().T @ (spectrum[:, None] * q)
    return 0.5 * (cov + cov.conj().T)


def _project_toeplitz(scatter_diag: np.ndarray, floor: float, dim: int) -> np.ndarray:
    """Spectrum of the Frobenius projection onto the Toeplitz cone, clipped at floor.

    Solves the normal equations G c = b of the projection; G is rank deficient
    (the Toeplitz cone has real dimension 2N - 1), so the minimum-norm
    least-squares solution is used before clipping.
    """
    gram = _toeplitz_gram(dim)
    sol, *_ = np.linalg.lstsq(gram, scatter_diag, rcond=None)
    return np.maximum(sol, floor)


def fit_gmm(
    dataset, n_components: int, structure: str, config: FitConfig | None = None
) -> tuple[GmmModel, FitTrace]:
    """EM fit of a Gaussian mixture with the requested covariance structure.

    The full-covariance M-step is the exact maximizer; the Toeplitz and
    circulant M-steps project the weighted scatter onto the structure class,
    so their likelihood traces are recorded but not guaranteed monotone.
    """
    config = config or FitConfig()
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"structure must be one of {GMM_STRUCTURES}")
    samples = _as_samples(dataset)
    count, dim = samples.shape
    if count < n_components:
        raise ValueError(f"need at least K={n_components} samples, got {count}")

    rng = np.random.default_rng(config.seed)
    weights, means, covs, spectra = _init_gmm(samples, n_components, structure, rng)

    trace: list[float] = []
    prev = None
    for _ in range(config.max_iter):
        logdens = _gmm_logdens(samples, structure, weights, means, covs, spectra)
        per_sample = log_sum_exp(logdens, axis=1)
        avg = float(per_sample.mean())
        trace.append(avg)
        if prev is not None and abs(avg - prev) <= config.rel_tol * max(abs(prev), 1e-12):
            break
        prev = avg

        resp = np.exp(logdens - per_sample[:, None])
        resp /= resp.sum(axis=1, keepdims=True)
        masses = resp.sum(axis=0)
        raw_weights = masses / count

        for k in range(n_components):
            mass = max(float(masses[k]), np.finfo(float).tiny)
            mean_k = (resp[:, k] @ samples) / mass
            means[k] = mean_k
            xc = samples - mean_k
            floor_k = EIG_FLOOR_REL * max(
                float((resp[:, k] @ (np.abs(xc) ** 2).sum(axis=1)) / (mass * dim)),
                np.finfo(float).tiny,
            )
            if structure == "full":
                scatter = (xc.T * resp[:, k]) @ xc.conj() / mass
                scatter = 0.5 * (scatter + scatter.conj().T)
                vals, vecs = np.linalg.eigh(scatter)
                vals = np.maximum(vals, floor_k)
                covs[k] = (vecs * vals) @ vecs.conj().T
            elif structure == "circulant":
                xf = np.fft.fft(xc, norm="ortho")
                spectra[k] = np.maximum((resp[:, k] @ (np.abs(xf) ** 2)) / mass, floor_k)
            else:
                q = toeplitz_transform(dim)
                proj = xc @ q.T  # rows are (Q xc)^T
                diag = (resp[:, k] @ (np.abs(proj) ** 2)) / mass
                spectra[k] = _project_toeplitz(diag, floor_k, dim)

        collapsed = np.flatnonzero(raw_weights < WEIGHT_FLOOR)
        if collapsed.size:
            worst = int(np.argmin(per_sample))
            scale = float(np.mean(np.abs(samples) ** 2))
            for k in collapsed:
                means[k] = samples[worst]
                if structure == "full":
                    covs[k] = scale * np.eye(dim)
                elif structure == "circulant":
                    spectra[k] = np.full(dim, scale)
                else:
                    spectra[k] = np.full(2 * dim, 2.0 * scale)
                raw_weights[k] = 1.0 / n_components
        weights = np.maximum(raw_weights, WEIGHT_FLOOR)
        weights /= weights.sum()

    model = GmmModel(
        structure,
        weights,
        means,
        covariances=covs if structure == "full" else None,
        spectra=spectra if structure != "full" else None,
    )
    return model, FitTrace(np.array(trace))


def _init_gmm(samples, n_components, structure, rng):
    count, dim = samples.shape
    labels = _mfa._kmeans(samples, n_components, rng)
    weights = np.full(n_components, 1.0 / n_components)
    means = np.empty((n_components, dim), dtype=np.complex128)
    covs = np.empty((n_components, dim, dim), dtype=np.complex128) if structure == "full" else None
    bins = 2 * dim if structure == "toeplitz" else dim
    spectra = np.empty((n_components, bins)) if structure != "full" else None
    global_scale = float(np.mean(np.abs(samples) ** 2))
    for k in range(n_components):
        cluster = samples[labels == k]
        if cluster.shape[0] < 2:
            means[k] = cluster[0] if cluster.shape[0] else samples[rng.integers(count)]
            if structure == "full":
                covs[k] = global_scale * np.eye(dim)
            elif structure == "circulant":
                spectra[k] = np.full(dim, global_scale)
            else:
                spectra[k] = np.full(2 * dim, 2.0 * global_scale)
            continue
        means[k] = cluster.mean(axis=0)
        xc = cluster - means[k]
        floor_k = EIG_FLOOR_REL * max(float(np.mean(np.abs(xc) ** 2)), np.finfo(float).tiny)
        if structure == "full":
            scatter = xc.T @ xc.conj() / cluster.shape[0]
            scatter = 0.5 * (scatter + scatter.conj().T)
            vals, vecs = np.linalg.eigh(scatter)
            covs[k] = (vecs * np.maximum(vals, floor_k)) @ vecs.conj().T
        elif structure == "circulant":
            xf = np.fft.fft(xc, norm="ortho")
            spectra[k] = np.maximum((np.abs(xf) ** 2).mean(axis=0), floor_k)
        else:
            q = toeplitz_transform(dim)
            diag = (np.abs(xc @ q.T) ** 2).mean(axis=0)
            spectra[k] = _project_toeplitz(diag, floor_k, dim)
    return weights, means, covs, spectra


def _gmm_logdens(samples, structure, weights, means, covs, spectra) -> np.ndarray:
    count = samples.shape[0]
    k_total = weights.shape[0]
    logdens = np.empty((count, k_total))
    for k in range(k_total):
        if structure == "full":
            logdens[:, k] = _dense_chol_logdens(samples, means[k], covs[k])
        elif structure == "circulant":
            logdens[:, k] = _circulant_logdens(samples, means[k], spectra[k])
        else:
            logdens[:, k] = _dense_chol_logdens(samples, means[k], _toeplitz_dense(spectra[k]))
        logdens[:, k] += math.log(weights[k])
    return logdens


def gmm_log_likelihood(model: GmmModel, dataset) -> float:
    samples = _as_samples(dataset)
    logdens = _gmm_logdens(
        samples, model.structure, model.weights, model.means, model.covariances, model.spectra
    )
    return float(np.mean(log_sum_exp(logdens, axis=1)))


def gmm_estimate(model: GmmModel, sigma2: float, y: np.ndarray) -> np.ndarray:
    """Responsibility-weighted per-component LMMSE under the mixture model.

    Circulant covariances invert in the DFT domain; full and Toeplitz ones use
    dense Hermitian solves of C + sigma2 I. Raises ConditioningError when some
    C_k + sigma2 I is singular: a zero circulant bin or a failed Cholesky.
    """
    sigma2 = _check_sigma2(sigma2)
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    batch = np.atleast_2d(y)
    if batch.shape[1] != model.dim:
        raise ValueError("observation dimension does not match the model")
    if not np.all(np.isfinite(batch)):
        raise ValueError("observation contains non-finite entries")
    k_total, dim = model.n_components, model.dim

    chols = None
    logdets = np.empty(k_total)
    if model.structure == "circulant":
        shifted = model.spectra + sigma2
        singular = np.flatnonzero((shifted <= 0.0).any(axis=1))
        if singular.size:
            raise ConditioningError(
                f"component {singular[0]}: circulant spectrum + sigma2 has a zero bin; "
                "the covariance is singular (use sigma2 > 0)"
            )
        logdets[:] = np.log(shifted).sum(axis=1)
    else:
        dense = model.dense_covariances()
        chols = np.empty_like(dense)
        for k in range(k_total):
            try:
                chols[k] = np.linalg.cholesky(dense[k] + sigma2 * np.eye(dim))
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"component {k}: covariance + sigma2 I is not positive definite "
                    "(use sigma2 > 0)"
                ) from exc
            logdets[k] = 2.0 * float(np.log(chols[k].diagonal().real).sum())

    out = np.empty_like(batch)
    chunk = max(64, _EST_CHUNK_BUDGET // (k_total * dim))
    logconst = np.log(model.weights) - dim * LOG_PI - logdets
    for start in range(0, batch.shape[0], chunk):
        stop = min(start + chunk, batch.shape[0])
        yb = batch[start:stop]
        filtered = np.empty((k_total, yb.shape[0], dim), dtype=np.complex128)
        logdens = np.empty((yb.shape[0], k_total))
        for k in range(k_total):
            yc = yb - model.means[k]
            if model.structure == "circulant":
                yf = np.fft.fft(yc, norm="ortho")
                scaled = yf / (model.spectra[k] + sigma2)
                quad = np.einsum("bn,bn->b", yf.conj(), scaled).real
                filtered[k] = yb - sigma2 * np.fft.ifft(scaled, norm="ortho")
            else:
                half = solve_triangular(chols[k], yc.T, lower=True, check_finite=False)
                quad = (np.abs(half) ** 2).sum(axis=0)
                solved = solve_triangular(chols[k].conj().T, half, lower=False, check_finite=False).T
                filtered[k] = yb - sigma2 * solved
            logdens[:, k] = logconst[k] - quad
        shift = logdens.max(axis=1, keepdims=True)
        resp = np.exp(logdens - shift)
        resp /= resp.sum(axis=1, keepdims=True)
        out[start:stop] = np.einsum("kbn,bk->bn", filtered, resp)
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
    weights = np.empty(k_total)
    means = np.empty((k_total, dim), dtype=np.complex128)
    covs = np.empty((k_total, dim, dim), dtype=np.complex128) if structure == "full" else None
    bins = 2 * dim if structure == "toeplitz" else dim
    spectra = np.empty((k_total, bins)) if structure != "full" else None
    for k in range(k_total):
        weights[k] = reader.f64("weight")
        means[k] = reader.complex_array(dim, "mean")
        if structure == "full":
            covs[k] = reader.complex_array(dim * dim, "covariance").reshape((dim, dim), order="F")
        else:
            spectra[k] = reader.f64_array(bins, "spectrum")
    reader.expect_eof()
    return GmmModel(structure, weights, means, covariances=covs, spectra=spectra)
