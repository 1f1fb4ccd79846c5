"""Baseline channel estimators: least squares, genie-aided OMP over an
oversampled DFT dictionary, sample-covariance LMMSE, and Gaussian mixtures
with full, Toeplitz, or circulant covariances. The sample-covariance LMMSE is
the one-component, zero-mean full GMM (``fit_sample_lmmse``), estimated by
``gmm_estimate`` like every other mixture.

OMP grows an orthonormal basis of each observation's support one atom per step
(classical Gram-Schmidt, applied twice). Its stopping rule: a row stops at the
first step where the largest residual correlation is <= 1e-12 * max(||y||, 1)
or the orthogonalised atom has norm <= 1e-10, and its estimate stays frozen.

A ``GmmModel`` holds its components' covariance parameters in one ``params``
array: the covariances themselves for the full structure, and the spectra c
for the structured ones, which parameterize covariances as ``Q^H diag(c) Q``
with a fixed DFT-based transform: the unitary N-point DFT for circulant
covariances and the 2N-point DFT truncated to N columns for Toeplitz ones.
Weights and means pass the checks ``mfa.MfaModel`` applies
(``gaussians.check_mixture``). Each structure enters through one M-step, one
restart (``_isotropic``) and one chunked pass of the density kernel shared by
the E-step and the estimator. EM runs in ``mfa.fit_mixture``, fit_em's driver,
with ``_GmmFamily`` supplying this math; it transforms the samples once per fit,
and an iteration touches the data a fixed number of times, whatever K is:

- ``_m_step`` updates all K components (and starts every k-means cluster) from
  moment-form sufficient statistics, weighted second moments minus the means'
  outer products. For exactly one-hot weights the difference is exactly zero;
  on the benchmark's channels |mean|^2 / variance was at most 1.4e-3, so the
  cancellation loses little. The Toeplitz spectra are the Frobenius projection
  of the scatter onto the Toeplitz cone in closed form (``_project_toeplitz``):
  the inverse DFT of the scatter's transform-domain diagonal gives its diagonal
  sums by lag, the projection averages each diagonal, and a DFT of the averages
  gives the minimum-norm spectrum.
- ``_gmm_factor`` factors every C_k + sigma2 I once per call, and ``_gmm_chunks``
  is the one chunked pass over the rows, spent in matrix products: full and
  Toeplitz models whiten and centre a row chunk against all K components with
  one product by the stacked inverse Cholesky factors, the negated whitened
  means appended as one more row. A circulant component is diagonal on the DFT
  rows, an L = 0 factor-analyzer component, so circulant densities come from
  the MFA kernel (``gaussians.mixture_logdens``) on an L = 0 stack of the
  spectra. Only a component whose spectrum has no finite inverse (a fit's
  one-sample component, floored at EIG_FLOOR_REL * tiny) is evaluated by the
  exact quadratic form instead. The pass yields each chunk's responsibilities
  (and the whitened rows of a full or Toeplitz model); the E-step keeps the
  responsibilities and ``gmm_estimate`` applies only its filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._binio import Container, FileFormatError, write_container
from .gaussians import (
    COND_LIMIT,
    LOG_PI,
    ConditioningError,
    MixtureStack,
    _UNINVERTIBLE,
    _check_observation,
    _check_sigma2,
    check_mixture,
    cholesky,
    component_rows,
    mixture_logdens,
    responsibilities,
)
from .mfa import FitConfig, FitTrace, MfaModel, _as_samples, fit_mixture

GMM_MAGIC = b"GMM1"
GMM_VERSION = 1

GMM_STRUCTURES = ("full", "toeplitz", "circulant")

# Relative eigenvalue / spectrum floor, scaled by trace/N of the scatter.
EIG_FLOOR_REL = 1e-8

# A failed Cholesky of C_k + sigma2 I: an estimate needs more noise for a
# singular covariance; a fit (sigma2 = 0) has shrunk component k onto one sample
# or identical ones, so that its scatter and its relative floor vanish.
_ESTIMATE_NOT_PD = "component {k}: covariance + sigma2 I is not positive definite (use sigma2 > 0)"
_FIT_NOT_PD = ("component {k}: covariance is not positive definite: EM collapsed the "
               "component onto one sample or identical samples (fit fewer components)")

# Complex entries of one chunk's (B, s, N) OMP basis.
_OMP_CHUNK_BUDGET = 4_000_000
# Complex entries of one (B, K*N) temporary of the full and Toeplitz E-step
# (whose row count the circulant pass shares), and of the rows of a (B, N) chunk
# the full M-step gathers per component: 2 MB, a quarter of
# gaussians._STACK_CHUNK_BUDGET. At K=16, N=64 and 10k rows (2 cores, 2 BLAS
# threads), 512-row chunks made the three 3-iteration fits 0.94 s against
# 1.00 s at 128 rows, but raised the benchmark sweep's peak RSS from 117 to
# 124 MB, so 128 rows stay: one pass then takes 93-106 ms (full), 85-112 ms
# (Toeplitz) and 13-19 ms (circulant).
_GMM_CHUNK_BUDGET = 1 << 17


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------


def ls_estimate(y: np.ndarray) -> np.ndarray:
    """The observation itself; optimal when nothing is known about the prior.
    Takes finite observations (N,) or (B, N), as every estimator does."""
    batch, single = _check_observation(y, np.atleast_1d(y).shape[-1])
    return (batch[0] if single else batch).copy()


# ---------------------------------------------------------------------------
# Dictionary and OMP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm atoms (N, M) over a 2-D oversampled spatial-frequency grid."""

    atoms: np.ndarray

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
    return Dictionary(atoms)


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
    on the support). Its estimate stays frozen from then on. Observations and
    truths must be finite and of the dictionary's dimension.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    atoms = dictionary.atoms
    dim = dictionary.dim
    obs, single = _check_observation(observations, dim)
    tru = _check_observation(truths, dim, "truth")[0]
    if tru.shape != obs.shape:
        raise ValueError("truths must have the shape of the observations")
    depth = min(s_max, dim, dictionary.n_atoms)
    out = np.zeros_like(obs)
    chunk = max(32, _OMP_CHUNK_BUDGET // (dim * depth))
    for start in range(0, obs.shape[0], chunk):
        stop = min(start + chunk, obs.shape[0])
        out[start:stop] = _genie_omp_chunk(obs[start:stop], atoms, tru[start:stop], depth)
    return out[0] if single else out


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
# Structured Gaussian mixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def toeplitz_transform(dim: int) -> np.ndarray:
    """2N-point unitary DFT truncated to N columns; Q^H Q = I_N."""
    two_n = 2 * dim
    grid = np.exp(-2j * np.pi * np.outer(np.arange(two_n), np.arange(dim)) / two_n)
    return grid / np.sqrt(two_n)


def _param_shape(structure: str, dim: int) -> tuple[int, ...]:
    """One component's parameters: an (N, N) covariance, a (2N,) Toeplitz or an
    (N,) circulant spectrum."""
    return {"full": (dim, dim), "toeplitz": (2 * dim,), "circulant": (dim,)}[structure]


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture with full, Toeplitz, or circulant covariances.

    ``params`` holds the covariance parameters of every component: (K, N, N)
    Hermitian PSD matrices for the full structure, and the nonnegative
    transform-domain diagonals (spectra) for the structured ones, (K, 2N) for
    Toeplitz and (K, N) for circulant. Weights, means and parameters must be
    finite.
    """

    structure: str
    weights: np.ndarray
    means: np.ndarray
    params: np.ndarray

    def __post_init__(self):
        if self.structure not in GMM_STRUCTURES:
            raise ValueError(f"structure must be one of {GMM_STRUCTURES}")
        weights, means = check_mixture(self.weights, self.means, np.size(self.weights))
        full = self.structure == "full"
        params = np.asarray(self.params, dtype=np.complex128 if full else np.float64)
        shape = (len(weights), *_param_shape(self.structure, means.shape[1]))
        if params.shape != shape:
            raise ValueError(f"{self.structure} structure needs params of shape {shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("covariance parameters must be finite")
        if full:
            scale = max(float(np.abs(params).max()), 1.0)
            if np.max(np.abs(params - params.conj().transpose(0, 2, 1))) > 1e-10 * scale:
                raise ValueError("covariances must be Hermitian")
            # One batched Cholesky of params + tol I passes every PSD stack; only a
            # failure pays for the eigenvalues that name the component.
            tol = 1e-10 * scale
            try:
                np.linalg.cholesky(params + tol * np.eye(params.shape[1]))
            except np.linalg.LinAlgError:
                min_eigs = np.linalg.eigvalsh(params)[:, 0]
                for k in np.flatnonzero(min_eigs < -tol):
                    raise ValueError(f"covariance {k} is not PSD (min eig {min_eigs[k]:.3e})")
        elif np.any(params < 0):
            raise ValueError("spectra must be nonnegative")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "params", params)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def dense_covariances(self) -> np.ndarray:
        """Materialize (K, N, N) covariance matrices for any structure."""
        if self.structure == "full":
            return self.params.copy()
        if self.structure == "circulant":
            q = np.fft.fft(np.eye(self.dim), norm="ortho")
        else:
            q = toeplitz_transform(self.dim)
        return np.stack([q.conj().T @ (spectrum[:, None] * q) for spectrum in self.params])


def gmm_from_mfa(model: MfaModel) -> GmmModel:
    """Full-covariance mixture with C_k = loading loading^H + diag(diag_term)."""
    return GmmModel("full", model.weights, model.means, model.dense_covariances())


def fit_sample_lmmse(dataset) -> GmmModel:
    """The sample-covariance LMMSE prior: one zero-mean full component with the
    Hermitian part of C = (1/T) X^T conj(X). Under it ``gmm_estimate`` returns
    C (C + sigma2 I)^{-1} y."""
    samples = _as_samples(dataset)
    cov = samples.T @ samples.conj() / samples.shape[0]
    cov = 0.5 * (cov + cov.conj().T)
    return GmmModel("full", [1.0], np.zeros((1, samples.shape[1])), cov[None])


def _project_toeplitz(scatter_diag: np.ndarray, floor: float | np.ndarray, dim: int) -> np.ndarray:
    """Spectra of the Frobenius projection onto the Toeplitz cone, clipped at floor.

    ``scatter_diag`` is one (2N,) transform-domain diagonal b_p = q_p^H S q_p or
    a (K, 2N) stack, and ``floor`` broadcasts against the result. The inverse
    DFT of b is S's diagonal sums by lag over 2N; the projection averages each
    diagonal (N - |m| entries at lag m), and the minimum-norm spectrum leaves
    lag N, which no N x N matrix has, at zero. Its DFT is the spectrum before
    clipping: c = 2N Re DFT(IDFT(b) w), with w_m = 1 / (N - |m|), w_N = 0.
    """
    lags = np.abs(np.fft.fftfreq(2 * dim, 1.0 / (2 * dim)))
    weights = np.divide(1.0, dim - lags, out=np.zeros(2 * dim), where=lags < dim)
    spectra = 2 * dim * np.fft.fft(np.fft.ifft(scatter_diag) * weights).real
    return np.maximum(spectra, floor)


def _kernel_rows(structure: str, rows: np.ndarray) -> np.ndarray:
    """Observations as ``_gmm_chunks`` and ``_m_step`` take them: their unitary
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

    Full: the scatter (X^T diag(r_k) conj(X)) / m_k - mu_k^T conj(mu_k), and one
    batched ``eigh`` to floor the eigenvalues. The second moments are sparse:
    per row chunk, ``gaussians.component_rows`` gathers the rows with a nonzero
    weight for each component (its cluster under one-hot k-means weights, a few
    components per row under ``responsibilities``' relative floor) for one
    (N, n_k) x (n_k, N) product. Circulant and Toeplitz: the
    transform-domain diagonal r_k^T |X_t|^2 / m_k - |r_k^T X_t / m_k|^2 from one
    real product, projected onto the cone for Toeplitz. The floor is
    EIG_FLOOR_REL times the weighted mean energy per entry of the centred rows:
    trace / N, which is sum(diag) / N (Parseval; Q^H Q = I for Toeplitz).
    """
    k_total, dim = resp.shape[1], samples.shape[1]
    masses = resp.sum(axis=0)
    means = resp.T @ samples / masses[:, None]
    if structure == "full":
        stats = np.zeros((k_total, dim, dim), dtype=np.complex128)
        for part in _row_chunks(samples.shape[0], dim):
            x, weights = samples[part], resp[part]
            for k, rows in component_rows(weights):
                x_k = x[rows]
                stats[k] += (x_k * weights[rows, k][:, None]).T @ x_k.conj()
        stats /= masses[:, None, None]
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
    singular: a bin at or below its component's largest bin / COND_LIMIT, or at
    or below 1 / max float, whose inverse overflows (``gaussians.factorize``'s
    bound)."""
    if model.structure != "circulant":
        return
    shifted = model.params + sigma2
    bound = np.maximum(shifted.max(axis=1, keepdims=True) / COND_LIMIT, _UNINVERTIBLE)
    singular = (shifted <= bound).any(axis=1)
    if singular.any():
        raise ConditioningError(
            f"component {singular.argmax()}: circulant spectrum + sigma2 has a zero bin "
            f"(at or below its largest / {COND_LIMIT:.0e} or 1 / max float); use sigma2 > 0"
        )


def _gmm_factor(model: GmmModel, sigma2: float, not_pd: str = _ESTIMATE_NOT_PD) -> tuple:
    """Factor every C_k + sigma2 I once, as ``_gmm_chunks`` takes it.

    Circulant: (stack, exact). On the DFT rows a circulant component is the
    diagonal Gaussian N_C(F mu_k, diag(c_k + sigma2)), so ``stack`` is an L = 0
    ``gaussians.MixtureStack`` with d = 1 / (c_k + sigma2) and
    d_mean = d conj(F mu_k) as columns, the intercept-only projection (the
    last of its N + 1 rows is 1), empty latent roots and log-constants
    log w_k - N log pi - sum log(c_k + sigma2) - sum d |F mu_k|^2. It is built
    here, not by ``stack_mixture``: a fitted spectrum may sit on the
    EIG_FLOOR_REL * tiny floor, which ``factorize`` rejects. A component with a
    bin at or below 1 / max float, whose inverse overflows, gets zero columns
    and no mean term, and ``exact`` lists it as (k, c_k + sigma2, F mu_k) for
    the exact quadratic form.
    Full and Toeplitz: (whitener, logconst). With the lower Cholesky factors
    C_k + sigma2 I = L_k L_k^H, the whitener is the stacked
    [L_1^{-T} ... L_K^{-T}] (N, K N) with the negated whitened means
    -[mu_1 L_1^{-T} ... mu_K L_K^{-T}] appended as row N + 1, and the
    log-constants are log w_k - N log pi - log det(C_k + sigma2 I). Raises
    ConditioningError with ``not_pd.format(k=k)`` when the Cholesky
    factorization of component k fails.
    """
    logweights = np.log(model.weights) - model.dim * LOG_PI
    if model.structure == "circulant":
        shifted = model.params + sigma2
        centres = np.fft.fft(model.means, norm="ortho")
        overflow = (shifted <= _UNINVERTIBLE).any(axis=1)
        d = np.divide(1.0, shifted, out=np.zeros_like(shifted), where=~overflow[:, None])
        logconst = logweights - np.log(shifted).sum(axis=1) - (d * np.abs(centres) ** 2).sum(axis=1)
        intercept = np.zeros((model.dim + 1, model.n_components), dtype=np.complex128)
        intercept[-1] = 1.0
        stack = MixtureStack(
            np.ascontiguousarray(d.T), (d * centres.conj()).T, intercept,
            np.empty((model.n_components, 0, 0)), logconst,
        )
        exact = [(k, shifted[k], centres[k]) for k in np.flatnonzero(overflow)]
        return stack, exact
    dim = model.dim
    chol = cholesky(model.dense_covariances() + sigma2 * np.eye(dim), not_pd)
    logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2).real).sum(axis=1)
    inverse = np.linalg.inv(chol)
    centres = (inverse @ model.means[:, :, None]).reshape(1, -1)
    whitener = np.concatenate([inverse.transpose(2, 0, 1).reshape(dim, -1), -centres])
    return whitener, logweights - logdets


def _gmm_chunks(model: GmmModel, factor: tuple, rows: np.ndarray):
    """Yield ``(part, y, z, resp, lse)`` for each ``_row_chunks`` chunk of
    ``rows = _kernel_rows(model.structure, y)``, with ``factor`` the model's
    ``_gmm_factor``: the chunk's slice and rows, the whitened centred rows z
    (B, K, N) of a full or Toeplitz model (None for circulant), and the
    ``responsibilities`` and per-row log-sum-exp of the weighted log-densities
    log w_k + log N_C(y; mu_k, C_k + sigma2 I). Every (B, K N) temporary stays
    within _GMM_CHUNK_BUDGET entries.

    Full and Toeplitz whiten and centre a chunk against all K components with
    one product, z = [y 1] [L_1^{-T} ... L_K^{-T}; -mu_1 L_1^{-T} ...], through
    one reused (B, N + 1) buffer whose last column is 1; the quadratic forms are
    the sums of |z_k|^2, one real product over z's interleaved real view.
    Circulant densities come from ``gaussians.mixture_logdens`` at L = 0 on
    the same [y 1] rows, the expansion |y|^2 d - 2 Re(y d conj(F mu)) + d |F mu|^2
    in two (B, N) x (N, K) products; a component in ``exact`` takes the exact sum of
    |y - F mu_k|^2 / (c_k + sigma2) instead, which is inf (a zero density) for
    every row but those equal to its mean.
    """
    k_total, dim = model.n_components, model.dim
    buffer = np.ones((0, dim + 1), dtype=np.complex128)
    for part in _row_chunks(rows.shape[0], k_total * dim):
        y = rows[part]
        if len(y) > len(buffer):
            buffer = np.ones((len(y), dim + 1), dtype=np.complex128)
        block = buffer[:len(y)]
        block[:, :dim] = y
        if model.structure == "circulant":
            stack, exact = factor
            intercepts = np.empty((len(y), k_total, 1), dtype=np.complex128)
            logdens = mixture_logdens(stack, block, np.abs(y) ** 2, intercepts)
            with np.errstate(over="ignore"):
                for k, spectrum, centre in exact:
                    logdens[:, k] -= (np.abs(y - centre) ** 2 / spectrum).sum(axis=1)
            yield part, y, None, *responsibilities(logdens)
        else:
            whitener, logconst = factor
            z = (block @ whitener).reshape(len(y), k_total, dim)
            flat = z.view(np.float64)
            yield part, y, z, *responsibilities(logconst - np.einsum("bkl,bkl->bk", flat, flat))


def fit_gmm(
    dataset, n_components: int, structure: str, config: FitConfig | None = None, start=None
) -> tuple[GmmModel, FitTrace]:
    """EM fit of a Gaussian mixture with the requested covariance structure.

    k-means clusters start the components through ``_m_step`` with one-hot
    weights; a cluster of fewer than two samples starts isotropic. The full and
    circulant M-steps are exact maximizers: the floored eigenvalues of the
    weighted scatter, and the floored diagonal of its DFT-domain form. The
    Toeplitz M-step projects the weighted scatter onto the Toeplitz class, so
    its likelihood trace is recorded but not guaranteed monotone. The start, the
    loop and the collapse policy are fit_em's, in ``mfa.fit_mixture``; ``start``,
    when given, is ``mfa.kmeans_start(dataset, n_components, config.seed)`` and
    yields the same fit as none. When EM shrinks a component onto one sample or
    identical ones, a full fit raises ConditioningError naming it.
    """
    config = config or FitConfig()
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"structure must be one of {GMM_STRUCTURES}")
    return fit_mixture(dataset, n_components, config, partial(_GmmFamily, structure), start)


class _GmmFamily:
    """fit_gmm's math in ``mfa.fit_mixture``: params (params,). The samples are
    transformed once per fit (``_kernel_rows``) for the start, the E-steps and
    the M-steps."""

    def __init__(self, structure: str, samples: np.ndarray):
        self.structure = structure
        self.model = partial(GmmModel, structure)
        self.dim = samples.shape[1]
        self.scale = float(np.mean(np.abs(samples) ** 2))
        self.rows = _kernel_rows(structure, samples)

    def start(self, samples: np.ndarray, labels: np.ndarray, fitted: np.ndarray):
        """The clusters in ``fitted`` through ``_m_step`` with one-hot weights."""
        means = np.empty((fitted.size, self.dim), dtype=np.complex128)
        params = np.stack([_isotropic(self.structure, self.dim, self.scale)] * fitted.size)
        onehot = (labels[:, None] == np.flatnonzero(fitted)).astype(np.float64)
        means[fitted], params[fitted] = _m_step(self.structure, samples, self.rows, onehot)
        return means, (params,)

    def restart(self, rng: np.random.Generator):
        """``_isotropic`` parameters at the data's mean energy per entry."""
        return (_isotropic(self.structure, self.dim, self.scale),)

    def pool(self, params, sizes: np.ndarray):
        return params

    def e_step(self, samples: np.ndarray, model: GmmModel):
        resp = np.empty((samples.shape[0], model.n_components))
        per_sample = np.empty(samples.shape[0])
        factor = _gmm_factor(model, 0.0, _FIT_NOT_PD)
        for part, _, _, chunk_resp, lse in _gmm_chunks(model, factor, self.rows):
            resp[part], per_sample[part] = chunk_resp, lse
        return float(per_sample.mean()), int(np.argmin(per_sample)), resp.sum(axis=0), resp

    def m_step(self, samples: np.ndarray, model: GmmModel, resp, live: np.ndarray):
        means, params = model.means.copy(), model.params.copy()
        means[live], params[live] = _m_step(self.structure, samples, self.rows, resp[:, live])
        return means, (params,)


def gmm_estimate(model: GmmModel, sigma2: float, y: np.ndarray) -> np.ndarray:
    """Responsibility-weighted per-component LMMSE under the mixture model.

    The filter of component k is y - sigma2 (C_k + sigma2 I)^{-1} (y - mu_k).
    Circulant: on the DFT rows that is ``estimator.estimate``'s accumulation at
    L = 0, (resp D) y - resp (D F mu)^T with the stacked D_k = 1 / (c_k + sigma2),
    two (B, K) x (K, N) products and one inverse DFT per chunk. Full and
    Toeplitz: the whitened centred rows z_k (``_gmm_chunks``), weighted by the
    responsibilities, through the stacked [conj(L_1^{-1}); ...] in one product.
    Raises ConditioningError when some C_k + sigma2 I is numerically singular:
    a circulant bin at or below its component's largest bin / COND_LIMIT or
    1 / max float, a failed Cholesky, or an estimate that is not finite (a
    subnormal pivot whose whitened rows overflow, say).
    """
    sigma2 = _check_sigma2(sigma2)
    batch, single = _check_observation(y, model.dim)
    _check_spectra(model, sigma2)
    out = np.empty_like(batch)
    with np.errstate(all="ignore"):
        factor = _gmm_factor(model, sigma2)
        chunks = _gmm_chunks(model, factor, _kernel_rows(model.structure, batch))
        if model.structure == "circulant":
            # (K, N) rows D_k and D_k F mu_k; no component is exact past _check_spectra.
            d, d_mean = factor[0].d.T, factor[0].d_mean.T.conj()
            for part, rows, _, resp, _ in chunks:
                prec = (resp @ d) * rows
                prec -= resp @ d_mean
                out[part] = np.fft.ifft(rows - sigma2 * prec, norm="ortho")
        else:
            # The stacked [conj(L_1^{-1}); ...; conj(L_K^{-1})] (K N, N), once per call.
            back = factor[0][:-1].T.conj()
            for part, rows, z, resp, _ in chunks:
                out[part] = rows - sigma2 * ((z * resp[:, :, None]).reshape(len(rows), -1) @ back)
    if not np.all(np.isfinite(out)):
        raise ConditioningError("covariance + sigma2 I is numerically singular: the estimate "
                                "is not finite (use a larger sigma2)")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_GMM_HEADER = [("version", "<u4"), ("tag", "u1"), ("dim", "<u4"), ("count", "<u4")]


def _gmm_records(structure: str, dim: int) -> list:
    """One GMM1 component record; a full covariance is stored column-major."""
    params = ("params", "<c16" if structure == "full" else "<f8", _param_shape(structure, dim))
    return [("weight", "<f8", ()), ("mean", "<c16", (dim,)), params]


def save_gmm(model: GmmModel, path) -> None:
    """Write the GMM1 container; the structure tag is its index in GMM_STRUCTURES."""
    params = model.params.transpose(0, 2, 1) if model.structure == "full" else model.params
    write_container(
        path, GMM_MAGIC, _GMM_HEADER,
        (GMM_VERSION, GMM_STRUCTURES.index(model.structure), model.dim, model.n_components),
        _gmm_records(model.structure, model.dim), model.weights, model.means, params,
    )


def load_gmm(path) -> GmmModel:
    reader = Container(path, GMM_MAGIC, _GMM_HEADER)
    version, tag, dim, k_total = reader.header
    if version != GMM_VERSION:
        raise FileFormatError(f"unsupported model version {version}", reader.offset_of("version"))
    if tag >= len(GMM_STRUCTURES):
        raise FileFormatError(f"unknown structure tag {tag}", reader.offset_of("tag"))
    structure = GMM_STRUCTURES[tag]
    if dim == 0 or k_total == 0:
        raise FileFormatError("model header declares an empty model", reader.offset)
    rec = reader.body(_gmm_records(structure, dim), k_total, "components")
    params = rec["params"].transpose(0, 2, 1) if structure == "full" else rec["params"]
    return GmmModel(structure, rec["weight"], rec["mean"], params)
