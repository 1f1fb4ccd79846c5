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
enters through one M-step, one restart (``_isotropic``) and one density kernel
shared by the E-step, the likelihood and the estimator. EM runs in fit_em's
loop and collapse policy, ``mfa._run_em`` and ``mfa._mixture_weights``, and an
iteration touches the data a fixed number of times, whatever K is:

- ``_m_step`` updates all K components (and starts every k-means cluster) from
  moment-form sufficient statistics, weighted second moments minus the means'
  outer products, over samples transformed once per iteration. For exactly
  one-hot weights the difference is exactly zero; on the benchmark's channels
  |mean|^2 / variance was at most 1.4e-3, so the cancellation loses little.
- ``_gmm_factor`` and ``_gmm_logdens``: full and Toeplitz models factor each
  C_k + sigma2 I once and whiten a row chunk against all K components with one
  product by the stacked inverse Cholesky factors; circulant models subtract
  the means' DFTs from the transformed rows and divide by the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import mfa as _mfa
from ._binio import ByteReader, ByteWriter, FileFormatError
from .estimator import _softmax_rows
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
# Complex entries of one (B, K*N) temporary of the GMM kernel and M-step: 2 MB,
# a quarter of gaussians._STACK_CHUNK_BUDGET. At K=16, N=64 (128 rows) the
# circulant E-step over 10k rows ran in 77-85 ms against 110-126 ms at 512 rows
# (2 cores, 2 BLAS threads).
_GMM_CHUNK_BUDGET = 1 << 17


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


def _project_toeplitz(scatter_diag: np.ndarray, floor: float | np.ndarray, dim: int) -> np.ndarray:
    """Spectra of the Frobenius projection onto the Toeplitz cone, clipped at floor.

    ``scatter_diag`` is one (2N,) transform-domain diagonal or a (K, 2N) stack,
    and ``floor`` broadcasts against the result. Solves the normal equations
    G c = b of the projection; G is rank deficient (the Toeplitz cone has real
    dimension 2N - 1), so c is the minimum-norm least-squares solution, through
    the cached pseudo-inverse of G, before clipping.
    """
    return np.maximum(scatter_diag @ _toeplitz_pinv(dim).T, floor)


@lru_cache(maxsize=8)
def _toeplitz_pinv(dim: int) -> np.ndarray:
    pinv = np.linalg.pinv(_toeplitz_gram(dim), hermitian=True)
    pinv.flags.writeable = False
    return pinv


def _kernel_rows(structure: str, rows: np.ndarray) -> np.ndarray:
    """Observations as ``_gmm_logdens`` and ``_m_step`` take them: their unitary
    DFT for a circulant model, the observations themselves otherwise."""
    return np.fft.fft(rows, norm="ortho") if structure == "circulant" else rows


def _row_chunks(count: int, width: int):
    """Row slices that keep a (B, width) temporary within _GMM_CHUNK_BUDGET entries."""
    step = max(1, _GMM_CHUNK_BUDGET // max(width, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def _m_step(
    structure: str, samples: np.ndarray, rows: np.ndarray, resp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means (K, N) and parameters of every component from weights ``resp`` (T, K)
    over ``samples`` (T, N), with ``rows = _kernel_rows(structure, samples)``.

    Full: the scatter (X^T diag(r_k) conj(X)) / m_k - mu_k^T conj(mu_k), with all
    K second moments accumulated as one (K N, N) product per row chunk, and one
    batched ``eigh`` to floor the eigenvalues. Circulant and Toeplitz: the
    transform-domain diagonal r_k^T |X_t|^2 / m_k - |r_k^T X_t / m_k|^2 from one
    real product, projected onto the cone for Toeplitz. The floor is
    EIG_FLOOR_REL times the weighted mean energy per entry of the centred rows:
    trace / N, which is sum(diag) / N (Parseval; Q^H Q = I for Toeplitz).
    """
    k_total, dim = resp.shape[1], samples.shape[1]
    masses = resp.sum(axis=0)
    means = resp.T @ samples / masses[:, None]
    if structure == "full":
        second = np.zeros((k_total * dim, dim), dtype=np.complex128)
        for part in _row_chunks(samples.shape[0], k_total * dim):
            x = samples[part]
            second += (resp[part, :, None] * x[:, None, :]).reshape(len(x), -1).T @ x.conj()
        stats = second.reshape(k_total, dim, dim) / masses[:, None, None]
        stats -= means[:, :, None] * means[:, None, :].conj()
        energy = np.trace(stats, axis1=1, axis2=2).real
    else:
        xt = rows @ toeplitz_transform(dim).T if structure == "toeplitz" else rows
        stats = resp.T @ np.abs(xt) ** 2 / masses[:, None]
        stats -= np.abs(resp.T @ xt / masses[:, None]) ** 2
        energy = stats.sum(axis=1)
    floor = EIG_FLOOR_REL * np.maximum(energy / dim, np.finfo(float).tiny)[:, None]
    if structure == "circulant":
        return means, np.maximum(stats, floor)
    if structure == "toeplitz":
        return means, _project_toeplitz(stats, floor, dim)
    vals, vecs = np.linalg.eigh(0.5 * (stats + stats.conj().transpose(0, 2, 1)))
    return means, (vecs * np.maximum(vals, floor)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def _isotropic(structure: str, dim: int, scale: float) -> np.ndarray:
    """Parameters of a restarted component: scale * I for full and circulant.

    The Toeplitz spectrum of 2 * scale on every bin is 2 * scale * I, since
    Q^H Q = I; fitted models depend on that scale, so it stays.
    """
    if structure == "full":
        return scale * np.eye(dim, dtype=np.complex128)
    if structure == "circulant":
        return np.full(dim, scale)
    return np.full(2 * dim, 2.0 * scale)


def _check_spectra(model: GmmModel, sigma2: float) -> None:
    """Raise ConditioningError when a circulant C_k + sigma2 I is numerically
    singular: a bin at or below its component's largest bin / COND_LIMIT."""
    if model.structure != "circulant":
        return
    shifted = model.spectra + sigma2
    singular = (shifted <= shifted.max(axis=1, keepdims=True) / COND_LIMIT).any(axis=1)
    if singular.any():
        raise ConditioningError(
            f"component {singular.argmax()}: circulant spectrum + sigma2 has a zero bin "
            f"(at or below its largest / {COND_LIMIT:.0e}); use sigma2 > 0"
        )


def _gmm_factor(model: GmmModel, sigma2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor every C_k + sigma2 I once: (whitener, centres, log-constants).

    Circulant: the shifted spectra (K, N) and the means' unitary DFTs (K, N).
    Full and Toeplitz: with the lower Cholesky factors C_k + sigma2 I = L_k L_k^H,
    the stacked whitener [L_1^{-T} ... L_K^{-T}] (N, K N) and the whitened means
    [mu_1 L_1^{-T} ... mu_K L_K^{-T}] (K N,). The log-constants are
    log w_k - N log pi - log det(C_k + sigma2 I). Raises ConditioningError when
    a Cholesky factorization fails.
    """
    if model.structure == "circulant":
        shifted = model.spectra + sigma2
        logdets = np.log(shifted).sum(axis=1)
        whitener, centres = shifted, np.fft.fft(model.means, norm="ortho")
    else:
        dim = model.dim
        shifted = model.dense_covariances() + sigma2 * np.eye(dim)
        chol = np.empty_like(shifted)
        for k in range(model.n_components):
            try:
                chol[k] = np.linalg.cholesky(shifted[k])
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"component {k}: covariance + sigma2 I is not positive definite "
                    "(use sigma2 > 0)"
                ) from exc
        logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2).real).sum(axis=1)
        # numpy's inverse, not scipy's triangular solve: scipy's LAPACK runs its
        # own BLAS thread pool, and switching pools measured slower.
        inverse = np.linalg.inv(chol)
        whitener = inverse.transpose(2, 0, 1).reshape(dim, -1)
        centres = (inverse @ model.means[:, :, None]).reshape(-1)
    return whitener, centres, np.log(model.weights) - model.dim * LOG_PI - logdets


def _gmm_logdens(model: GmmModel, factored, rows, sigma2: float, out=None) -> np.ndarray:
    """(B, K) log w_k + log N_C(y; mu_k, C_k + sigma2 I) from _gmm_factor(model, sigma2),
    with ``rows = _kernel_rows(model.structure, y)``, in row chunks that keep
    every (B, K N) temporary within _GMM_CHUNK_BUDGET entries.

    Full and Toeplitz whiten a chunk against all K components with one product,
    z = y [L_1^{-T} ... L_K^{-T}] - [mu_1 L_1^{-T} ...]; the quadratic forms are
    block sums of |z|^2. Circulant: |DFT(y) - DFT(mu_k)|^2 over the spectrum.
    Given ``out`` (B, N), also writes the responsibility-weighted LMMSE estimate
    y - sigma2 sum_k r_k (C_k + sigma2 I)^{-1} (y - mu_k) into it, the sum over
    k being one matmul of r_k z_k with [conj(L_1^{-1}); ...] (in the DFT domain
    with z_k / spectrum_k for circulant).
    """
    whitener, centres, logconst = factored
    k_total, dim = model.n_components, model.dim
    circulant = model.structure == "circulant"
    logdens = np.empty((rows.shape[0], k_total))
    back = None if circulant or out is None else whitener.T.conj()
    for part in _row_chunks(rows.shape[0], k_total * dim):
        y = rows[part]
        if circulant:
            z = y[:, None, :] - centres
            # Real division: a subnormal bin of a fitted spectrum then gives inf, not NaN.
            logdens[part] = logconst - (np.abs(z) ** 2 / whitener).sum(axis=2)
        else:
            z = y @ whitener
            z -= centres
            logdens[part] = logconst - (np.abs(z) ** 2).reshape(len(y), k_total, dim).sum(axis=2)
        if out is None:
            continue
        resp = _softmax_rows(logdens[part])
        if circulant:
            solved = (resp[:, None, :] @ (z / whitener))[:, 0]
            out[part] = np.fft.ifft(y - sigma2 * solved, norm="ortho")
        else:
            z = (z.reshape(len(y), k_total, dim) * resp[:, :, None]).reshape(len(y), -1)
            out[part] = y - sigma2 * (z @ back)
    return logdens


def fit_gmm(
    dataset, n_components: int, structure: str, config: FitConfig | None = None
) -> tuple[GmmModel, FitTrace]:
    """EM fit of a Gaussian mixture with the requested covariance structure.

    k-means clusters start the components through ``_m_step`` with one-hot
    weights; a cluster of fewer than two samples starts isotropic. The
    full-covariance M-step is the exact maximizer; the Toeplitz and circulant
    M-steps project the weighted scatter onto the structure class, so their
    likelihood traces are recorded but not guaranteed monotone. The loop and
    the collapse policy are fit_em's.
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
    sizes = np.bincount(labels, minlength=n_components)
    fitted = sizes >= 2
    scale = float(np.mean(np.abs(samples) ** 2))
    means = np.empty((n_components, dim), dtype=np.complex128)
    params = np.stack([_isotropic(structure, dim, scale)] * n_components)
    onehot = (labels[:, None] == np.flatnonzero(fitted)).astype(np.float64)
    means[fitted], params[fitted] = _m_step(
        structure, samples, _kernel_rows(structure, samples), onehot
    )
    for k in np.flatnonzero(~fitted):
        means[k] = samples[labels == k][0] if sizes[k] else samples[rng.integers(count)]
    weights = np.full(n_components, 1.0 / n_components)
    start = _with_params(structure, weights, means, params)
    return _mfa._run_em(partial(_gmm_update, samples), start, config)


def _gmm_update(samples: np.ndarray, model: GmmModel) -> tuple[float, GmmModel]:
    """One EM iteration of fit_gmm; returns the incoming model's average
    log-likelihood and the updated model. The samples are transformed once and
    serve both the E-step and the M-step. Components that collapse under
    ``mfa._mixture_weights`` restart at the sample the incoming model fits worst,
    with ``_isotropic`` parameters at the data's mean energy per entry."""
    count, dim = samples.shape
    rows = _kernel_rows(model.structure, samples)
    logdens = _gmm_logdens(model, _gmm_factor(model, 0.0), rows, 0.0)
    per_sample = log_sum_exp(logdens, axis=1)
    resp = np.exp(logdens - per_sample[:, None])
    resp /= resp.sum(axis=1, keepdims=True)
    weights, collapsed = _mfa._mixture_weights(resp.sum(axis=0), count)
    means, params = model.means.copy(), model.params.copy()
    live = np.setdiff1d(np.arange(model.n_components), collapsed)
    means[live], params[live] = _m_step(model.structure, samples, rows, resp[:, live])
    if collapsed.size:
        means[collapsed] = samples[np.argmin(per_sample)]
        scale = float(np.mean(np.abs(samples) ** 2))
        params[collapsed] = _isotropic(model.structure, dim, scale)
    return float(per_sample.mean()), _with_params(model.structure, weights, means, params)


def gmm_log_likelihood(model: GmmModel, dataset) -> float:
    """Average per-sample log of the mixture density, via log-sum-exp.

    Raises ConditioningError when some C_k is numerically singular, as
    gmm_estimate does at sigma2 = 0.
    """
    samples = _as_samples(dataset)
    _check_spectra(model, 0.0)
    rows = _kernel_rows(model.structure, samples)
    logdens = _gmm_logdens(model, _gmm_factor(model, 0.0), rows, 0.0)
    return float(np.mean(log_sum_exp(logdens, axis=1)))


def gmm_estimate(model: GmmModel, sigma2: float, y: np.ndarray) -> np.ndarray:
    """Responsibility-weighted per-component LMMSE under the mixture model.

    Circulant covariances invert in the DFT domain; full and Toeplitz ones
    through the whitener of their dense Cholesky factors (``_gmm_factor``).
    Raises ConditioningError when some C_k + sigma2 I is numerically singular:
    a circulant bin at or below its component's largest bin / COND_LIMIT, or a
    failed Cholesky.
    """
    sigma2 = _check_sigma2(sigma2)
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    batch = np.atleast_2d(y)
    if batch.shape[1] != model.dim:
        raise ValueError("observation dimension does not match the model")
    if not np.all(np.isfinite(batch)):
        raise ValueError("observation contains non-finite entries")
    _check_spectra(model, sigma2)
    out = np.empty_like(batch)
    rows = _kernel_rows(model.structure, batch)
    _gmm_logdens(model, _gmm_factor(model, sigma2), rows, sigma2, out)
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
