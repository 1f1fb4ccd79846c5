"""Baseline channel estimators: least squares, genie-aided OMP over an
oversampled DFT dictionary, sample-covariance LMMSE, and Gaussian mixtures
with full, Toeplitz, or circulant covariances. The sample-covariance LMMSE is
the one-component, zero-mean full GMM (``fit_sample_lmmse``), estimated by
``gmm_estimate`` like every other mixture.

OMP grows an orthonormal basis of each observation's support one atom per step
(classical Gram-Schmidt, applied twice). Its stopping rule: a row stops at the
first step where the largest residual correlation is <= 1e-12 * max(||y||, 1)
or the orthogonalised atom has norm <= 1e-10, and its estimate stays frozen.
The genie also stops a row early, with the same result, once the noise's
projection onto the support shows that no deeper prefix can be closer to the
truth (``genie_omp_batch``).

A ``GmmModel`` holds its components' covariance parameters in one ``params``
array: the covariances themselves for the full structure, and the spectra c
for the structured ones, which parameterize covariances as ``Q^H diag(c) Q``
with a fixed DFT-based transform: the unitary N-point DFT for circulant
covariances and the 2N-point DFT truncated to N columns for Toeplitz ones.
Weights and means pass the checks ``mfa.MfaModel`` applies
(``gaussians.check_mixture``). A circulant covariance is diagonal on the
unitary DFT rows F y, so a circulant component is N_C(F mu_k, diag(c_k)) there:
an L = 0 factor-analyzer component with a diagonal Psi_k = c_k. The circulant
GMM is therefore fitted by the MFA's own EM (``mfa._MfaFamily`` at L = 0, mode
``diagonal``) and estimated by ``estimator.estimate``'s accumulation, both on
the DFT rows. The full and Toeplitz structures each enter through one M-step,
one restart (``_isotropic``) and one chunked pass of the density kernel shared
by the E-step and the estimator. EM runs in ``mfa.fit_mixture``, fit_em's
driver, with ``_GmmFamily`` supplying this math; an iteration touches the data
a fixed number of times, whatever K is:

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
  is the one chunked pass over the rows, spent in matrix products by the
  stacked inverse Cholesky factors, the negated whitened means appended as one
  more row. A bound from the first whitened coordinates skips every component
  whose responsibility would be exactly 0 (a partial-distance search), and one
  product per component whitens and centres the rows that remain. The pass
  yields each chunk's responsibilities and, for ``gmm_estimate``'s filter, its
  whitened rows; the E-step keeps the responsibilities.
- The Toeplitz M-step weights the powers |X Q^T|^2 of the transformed
  samples, which ``_GmmFamily`` computes once per fit, chunk by chunk, and
  keeps in place of the complex transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._binio import Container, FileFormatError, write_container
from .estimator import _conditional_mean
from .gaussians import (
    COND_LIMIT,
    LOG_PI,
    RESP_REL,
    ConditioningError,
    _check_observation,
    _check_sigma2,
    check_mixture,
    cholesky,
    component_rows,
    responsibilities,
    row_chunks,
    stack_mixture,
)
from .mfa import FitConfig, FitTrace, MfaModel, _MfaFamily, _as_samples, fit_mixture, kmeans_start

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
# A genie-OMP row stops once ||P_s n||^2, a lower bound on the error of every
# deeper prefix, exceeds its best error by this relative margin, far above the
# rounding of either, so no deeper prefix that is strictly better is skipped.
_OMP_STOP_REL = 1e-9
# Complex entries of gmm_estimate's (B, K, N) whitened rows per chunk, and of
# the rows of a (B, N) chunk the full M-step gathers per component: 2 MB, a
# quarter of gaussians._STACK_CHUNK_BUDGET. Doubling it regroups the M-step's
# sums, which moved gmm-full's nMSE by up to 4e-9 dB on the benchmark sweep
# (splitting 10k rows into five even chunks, not four of 2048, by 2.5e-8 dB).
# The E-step's pruned pass is sized by _BOUND_BUDGET instead. At K=16, N=64
# and 10k rows (2 cores, 2 BLAS threads), a pass took 53-75 ms (full) and
# 79-102 ms (Toeplitz), the first pass of a fit the slowest; the dense pass
# it replaced took 94-99 and 93-94 ms in 128-row chunks.
_GMM_CHUNK_BUDGET = 1 << 17
# Complex entries of the (B, K m) bound of one chunk of the E-step's pruned
# pass: 4 MB, at most 2048 rows (full) or 1024 rows (Toeplitz) at K=16. Each chunk runs
# its component loops once, so at half this budget the three passes of a fit
# took 14 ms (full) and 20 ms (Toeplitz) longer.
_BOUND_BUDGET = 1 << 18
# Whitened coordinates of _gmm_chunks' bound on each log-density, and the gap
# below a row's guessed log-density beyond which a component is skipped:
# ln(1 / RESP_REL), where responsibilities() zeroes it, plus one nat for the
# rounding of the bound and of the exact value.
_BOUND_COORDS = {"full": 8, "toeplitz": 16}
_PRUNE_NATS = float(-np.log(RESP_REL)) + 1.0


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

    Early stop: with P_s the projection onto the first s picked atoms and
    n = y - h the noise, the prefix error is
    ||P_s n||^2 + ||(I - P_s) h||^2 >= ||P_s n||^2, and the supports are nested,
    so ||P_s n||^2 (the sum of |q_j^H n|^2 over the basis) bounds the error of
    every deeper prefix from below and never falls. A row stops once it
    exceeds the row's best error by the relative margin _OMP_STOP_REL; the
    returned estimates are those of the full-depth run. Stopped rows leave the
    working set once they are half of it.
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
    atoms_conj = atoms.conj()
    atom_rows = np.ascontiguousarray(atoms.T)
    best = np.zeros_like(obs)
    best_err = _row_norm2(tru)
    # The working rows: ``live`` indexes them into the chunk, and every other
    # array holds their state. ``bound`` is ||P_s n||^2 over the support so far.
    live = np.arange(batch)
    noise = obs - tru
    selected = np.zeros((batch, depth), dtype=np.intp)
    # Orthonormal basis of each row's support, one row of Q per step.
    basis = np.zeros((batch, depth, dim), dtype=np.complex128)
    est = np.zeros_like(obs)
    residual = obs.copy()
    tol = 1e-12 * np.maximum(np.sqrt(_row_norm2(obs)), 1.0)
    bound = np.zeros(batch)
    growing = np.ones(batch, dtype=bool)
    for step in range(depth):
        # A stopped row never changes again; drop the stopped rows once they
        # are half the working rows, so the copies stay rare.
        if 2 * np.count_nonzero(growing) <= len(live):
            if not growing.any():
                break
            keep = np.flatnonzero(growing)
            live, obs, tru, noise, selected, basis, est, residual, tol, bound, best_err, growing = (
                part[keep] for part in (live, obs, tru, noise, selected, basis, est, residual,
                                        tol, bound, best_err, growing)
            )
        corr = np.abs(residual @ atoms_conj)
        if step:
            np.put_along_axis(corr, selected[:, :step], -1.0, axis=1)
        picks = corr.argmax(axis=1)
        growing &= np.take_along_axis(corr, picks[:, None], axis=1)[:, 0] > tol
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
        scale = np.zeros(len(live))
        scale[growing] = 1.0 / norm[growing]
        q *= scale[:, None]
        basis[:, step] = q
        est += np.einsum("bn,bn->b", q.conj(), obs)[:, None] * q
        np.subtract(obs, est, out=residual)
        err = _row_norm2(est - tru)
        better = err < best_err
        best[live[better]] = est[better]
        best_err[better] = err[better]
        bound += np.abs(np.einsum("bn,bn->b", q.conj(), noise)) ** 2
        growing &= bound <= (1.0 + _OMP_STOP_REL) * best_err
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
    """Full-covariance mixture with C_k = loading loading^H + diag(diag_term).

    No estimator in the package calls it, but the benchmark does
    (``perfbench/workloads.py``): its dense full-GMM estimate is the oracle
    that each MFA estimate is checked against, so it stays here."""
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


def _toeplitz_power(samples: np.ndarray) -> np.ndarray:
    """The (T, 2N) powers |X Q^T|^2 of the rows of ``samples`` (T, N), each
    ``row_chunks`` chunk transformed on its own, so the complex transform is
    never held whole."""
    dim = samples.shape[1]
    q_t = toeplitz_transform(dim).T
    power = np.empty((samples.shape[0], 2 * dim))
    for part in row_chunks(samples.shape[0], 2 * dim, _GMM_CHUNK_BUDGET):
        chunk = np.abs(samples[part] @ q_t, out=power[part])
        chunk *= chunk
    return power


def _m_step(
    structure: str, samples: np.ndarray, resp: np.ndarray, power: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Means (K, N) and full or Toeplitz parameters of every component from
    weights ``resp`` (T, K) over ``samples`` (T, N). A Toeplitz step reads the
    powers ``_toeplitz_power(samples)`` (T, 2N) from ``power``; a full one
    takes None there.

    Full: the scatter (X^T diag(r_k) conj(X)) / m_k - mu_k^T conj(mu_k), and one
    batched ``eigh`` to floor the eigenvalues. The second moments are sparse:
    per row chunk, ``gaussians.component_rows`` gathers the rows with a nonzero
    weight for each component (its cluster under one-hot k-means weights, a few
    components per row under ``responsibilities``' relative floor) for one
    (N, n_k) x (n_k, N) product. Toeplitz: the transform-domain diagonal
    r_k^T |X Q^T|^2 / m_k - |mu_k Q^T|^2 from one real product, projected onto
    the cone; the mean term is the weighted means' own transform, since
    r_k^T (X Q^T) / m_k = mu_k Q^T. The floor is EIG_FLOOR_REL times the
    weighted mean energy per entry of the centred rows: trace / N, which is
    sum(diag) / N for Toeplitz (Q^H Q = I).
    """
    k_total, dim = resp.shape[1], samples.shape[1]
    masses = resp.sum(axis=0)
    means = resp.T @ samples / masses[:, None]
    if structure == "full":
        stats = np.zeros((k_total, dim, dim), dtype=np.complex128)
        for part in row_chunks(samples.shape[0], dim, _GMM_CHUNK_BUDGET):
            x, weights = samples[part], resp[part]
            for k, rows in component_rows(weights):
                x_k = x[rows]
                stats[k] += (x_k * weights[rows, k][:, None]).T @ x_k.conj()
        stats /= masses[:, None, None]
        stats -= means[:, :, None] * means[:, None, :].conj()
        energy = np.trace(stats, axis1=1, axis2=2).real
    else:
        stats = resp.T @ power / masses[:, None]
        stats -= np.abs(means @ toeplitz_transform(dim).T) ** 2
        energy = stats.sum(axis=1)
    floor = EIG_FLOOR_REL * np.maximum(energy / dim, np.finfo(float).tiny)[:, None]
    if structure == "toeplitz":
        return means, _project_toeplitz(stats, floor, dim)
    vals, vecs = np.linalg.eigh(0.5 * (stats + stats.conj().transpose(0, 2, 1)))
    return means, (vecs * np.maximum(vals, floor)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def _isotropic(structure: str, dim: int, scale: float) -> np.ndarray:
    """Parameters of a restarted component: scale * I for full.

    The Toeplitz spectrum of 2 * scale on every bin is 2 * scale * I, since
    Q^H Q = I; fitted models depend on that scale, so it stays.
    """
    if structure == "full":
        return scale * np.eye(dim, dtype=np.complex128)
    return np.full(2 * dim, 2.0 * scale)


def _check_spectra(model: GmmModel, sigma2: float) -> None:
    """Raise ConditioningError when a circulant C_k + sigma2 I is numerically
    singular: a bin at or below its component's largest bin / COND_LIMIT. A bin
    whose inverse overflows is ``gaussians.factorize``'s to reject."""
    shifted = model.params + sigma2
    singular = (shifted <= shifted.max(axis=1, keepdims=True) / COND_LIMIT).any(axis=1)
    if singular.any():
        raise ConditioningError(
            f"component {singular.argmax()}: circulant spectrum + sigma2 has a zero bin "
            f"(at or below its largest / {COND_LIMIT:.0e}); use sigma2 > 0"
        )


def _gmm_factor(model: GmmModel, sigma2: float, not_pd: str = _ESTIMATE_NOT_PD) -> tuple:
    """Factor every full or Toeplitz C_k + sigma2 I once, as ``_gmm_chunks``
    takes it: (whitener, logconst). With the lower Cholesky factors
    C_k + sigma2 I = L_k L_k^H, the whitener is the stacked
    [L_1^{-T} ... L_K^{-T}] (N, K N) with the negated whitened means
    -[mu_1 L_1^{-T} ... mu_K L_K^{-T}] appended as row N + 1, and the
    log-constants are log w_k - N log pi - log det(C_k + sigma2 I). Raises
    ConditioningError with ``not_pd.format(k=k)`` when the Cholesky
    factorization of component k fails.
    """
    logweights = np.log(model.weights) - model.dim * LOG_PI
    dim = model.dim
    chol = cholesky(model.dense_covariances() + sigma2 * np.eye(dim), not_pd)
    logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2).real).sum(axis=1)
    inverse = np.linalg.inv(chol)
    centres = (inverse @ model.means[:, :, None]).reshape(1, -1)
    whitener = np.concatenate([inverse.transpose(2, 0, 1).reshape(dim, -1), -centres])
    return whitener, logweights - logdets


def _gmm_chunks(model: GmmModel, factor: tuple, rows: np.ndarray, guess=None, whitened=False):
    """Yield ``(part, y, z, resp, lse)`` for each ``row_chunks`` chunk of the
    observations ``rows`` of a full or Toeplitz model, with ``factor`` its
    ``_gmm_factor``: the chunk's slice and rows, with ``whitened`` the whitened
    centred rows z (B, K, N), z_k = [y 1] [L_k^{-T}; -mu_k L_k^{-T}], where the
    log-density was computed and 0 elsewhere (else None), and the
    ``responsibilities`` and per-row log-sum-exp of the weighted log-densities
    log w_k + log N_C(y; mu_k, C_k + sigma2 I).

    The pass is a partial-distance search (Bei & Gray, 1985). Each block
    L_k^{-T} is upper triangular, so the first m whitened coordinates of
    component k depend on y_1 ... y_m and the centring row alone, and their
    |z|^2 is a lower bound on the Mahalanobis term: one (B, m) x (m, K m)
    product bounds every log-density from above (m = _BOUND_COORDS of the
    structure; the computed inverse's rounding-level upper entries, which the
    bound leaves out, are what the spare nat of _PRUNE_NATS covers). Each
    row's guess, ``guess`` (T,) when given and the bound's argmax otherwise, is
    computed exactly, and then every component whose bound is less than
    _PRUNE_NATS below that value. A skipped component lies more than
    ln(1 / RESP_REL) nats below the row's largest log-density, where
    ``responsibilities`` sets it to exactly 0; its log-density is -inf, so the
    log-sum-exp loses only terms below RESP_REL of its largest. The guess
    decides the work, not the result: in a fit it is the bound's argmax on the
    first pass, as in ``gmm_estimate``, and the previous E-step's argmax after
    that. An exact log-density is one product per component
    (``component_rows``), of its gathered rows [y 1] by its (N + 1, N) block
    of the whitener: the sums of the unpruned pass, which
    made the one (B, N + 1) x (N + 1, K N) product, in the same order. The
    (B, K m) bound stays within _BOUND_BUDGET entries, and with ``whitened``
    z within _GMM_CHUNK_BUDGET.
    """
    k_total, dim = model.n_components, model.dim
    whitener, logconst = factor
    width = min(_BOUND_COORDS[model.structure], dim)
    heads = (np.arange(k_total)[:, None] * dim + np.arange(width)).ravel()
    head, centre = whitener[:width, heads], whitener[-1, heads]
    buffer = np.ones((0, dim + 1), dtype=np.complex128)
    if whitened:
        chunks = row_chunks(rows.shape[0], k_total * dim, _GMM_CHUNK_BUDGET)
    else:
        chunks = row_chunks(rows.shape[0], k_total * width, _BOUND_BUDGET)
    for part in chunks:
        y = rows[part]
        if len(y) > len(buffer):
            buffer = np.ones((len(y), dim + 1), dtype=np.complex128)
        block = buffer[:len(y)]
        block[:, :dim] = y
        near = y[:, :width] @ head
        near += centre
        near = near.view(np.float64).reshape(len(y), k_total, -1)
        bound = logconst - np.einsum("bkl,bkl->bk", near, near)
        picks = bound.argmax(axis=1) if guess is None else guess[part]
        first = picks[:, None] == np.arange(k_total)
        logdens = np.full((len(y), k_total), -np.inf)
        z = np.zeros((len(y), k_total, dim), dtype=np.complex128) if whitened else None
        _exact(block, factor, first, logdens, z)
        rest = ~first & ~(bound < logdens[first][:, None] - _PRUNE_NATS)
        _exact(block, factor, rest, logdens, z)
        yield part, y, z, *responsibilities(logdens)


def _exact(block: np.ndarray, factor: tuple, pairs: np.ndarray, logdens: np.ndarray, z) -> None:
    """Write the log-densities of the (row, component) ``pairs`` (B, K) of the
    rows [y 1] ``block`` into ``logdens``, one product per component over its
    gathered rows, and the whitened rows into ``z`` (B, K, N) unless it is
    None."""
    whitener, logconst = factor
    dim = block.shape[1] - 1
    for k, idx in component_rows(pairs):
        # numpy runs a one-row product as a matrix-vector product, which rounds
        # differently from the rows of a matrix product; pad it to two rows.
        rows = block[idx if len(idx) > 1 else np.repeat(idx, 2)]
        z_k = (rows @ whitener[:, k * dim:(k + 1) * dim])[:len(idx)]
        flat = z_k.view(np.float64)
        logdens[idx, k] = logconst[k] - np.einsum("bl,bl->b", flat, flat)
        if z is not None:
            z[idx, k] = z_k


def fit_gmm(
    dataset, n_components: int, structure: str, config: FitConfig | None = None, start=None
) -> tuple[GmmModel, FitTrace]:
    """EM fit of a Gaussian mixture with the requested covariance structure.

    The circulant fit is the MFA's L = 0 ``diagonal`` EM (``mfa._MfaFamily``)
    on the unitary DFT rows F x, where component k is N_C(F mu_k, diag(c_k)).
    Its M-step is an exact maximizer: the weighted variance of each DFT bin,
    floored at mfa.PSI_FLOOR_REL times the data's mean energy per entry.
    ``config.psi_mode`` is not read. The full and Toeplitz fits start the
    k-means clusters through ``_m_step`` with one-hot weights, and a cluster
    of fewer than two samples starts isotropic. The full M-step is an exact
    maximizer, the floored eigenvalues of the weighted scatter. The Toeplitz
    M-step projects the weighted scatter onto the Toeplitz class, so its
    likelihood trace is recorded but not guaranteed monotone. The start, the
    loop and the collapse policy are fit_em's, in ``mfa.fit_mixture``; k-means
    runs on the samples for every structure, and ``start``, when given, is
    ``mfa.kmeans_start(dataset, n_components, config.seed)`` and yields the
    same fit as none. When EM shrinks a component onto one sample or identical
    ones, a full fit raises ConditioningError naming it.
    """
    config = config or FitConfig()
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"structure must be one of {GMM_STRUCTURES}")
    if structure != "circulant":
        return fit_mixture(dataset, n_components, config, partial(_GmmFamily, structure), start)
    samples = _as_samples(dataset)
    if start is None:
        start = kmeans_start(samples, n_components, config.seed)
    rows, family = np.fft.fft(samples, norm="ortho"), partial(_MfaFamily, 0, "diagonal")
    model, trace = fit_mixture(rows, n_components, config, family, start)
    means = np.fft.ifft(model.means, norm="ortho")
    return GmmModel("circulant", model.weights, means, model.diag_terms), trace


class _GmmFamily:
    """fit_gmm's full and Toeplitz math in ``mfa.fit_mixture``: params (params,).

    ``guess`` holds each sample's guessed component for ``_gmm_chunks``. It is
    None until the first E-step, whose pass takes the bound's argmax; only
    ``e_step`` sets it, to its responsibilities' argmax.
    """

    def __init__(self, structure: str, samples: np.ndarray):
        self.structure = structure
        self.model = partial(GmmModel, structure)
        self.dim = samples.shape[1]
        self.scale = float(np.mean(np.abs(samples) ** 2))
        self.guess = None
        # The Toeplitz M-step's powers |X Q^T|^2, once per fit.
        self.power = _toeplitz_power(samples) if structure == "toeplitz" else None

    def start(self, samples: np.ndarray, labels: np.ndarray, fitted: np.ndarray):
        """The clusters in ``fitted`` through ``_m_step`` with one-hot weights."""
        means = np.empty((fitted.size, self.dim), dtype=np.complex128)
        params = np.stack([_isotropic(self.structure, self.dim, self.scale)] * fitted.size)
        onehot = (labels[:, None] == np.flatnonzero(fitted)).astype(np.float64)
        means[fitted], params[fitted] = _m_step(self.structure, samples, onehot, self.power)
        return means, (params,)

    def restart(self, rng: np.random.Generator):
        """``_isotropic`` parameters at the data's mean energy per entry."""
        return (_isotropic(self.structure, self.dim, self.scale),)

    def e_step(self, samples: np.ndarray, model: GmmModel):
        resp = np.empty((samples.shape[0], model.n_components))
        per_sample = np.empty(samples.shape[0])
        factor = _gmm_factor(model, 0.0, _FIT_NOT_PD)
        for part, _, _, chunk_resp, lse in _gmm_chunks(model, factor, samples, self.guess):
            resp[part], per_sample[part] = chunk_resp, lse
        self.guess = resp.argmax(axis=1)
        return float(per_sample.mean()), int(np.argmin(per_sample)), resp.sum(axis=0), resp

    def m_step(self, samples: np.ndarray, model: GmmModel, resp, live: np.ndarray):
        means, params = model.means.copy(), model.params.copy()
        means[live], params[live] = _m_step(self.structure, samples, resp[:, live], self.power)
        return means, (params,)


def gmm_estimate(model: GmmModel, sigma2: float, y: np.ndarray) -> np.ndarray:
    """Responsibility-weighted per-component LMMSE under the mixture model.

    The filter of component k is y - sigma2 (C_k + sigma2 I)^{-1} (y - mu_k).
    Circulant: on the DFT rows that is ``estimator.estimate``'s accumulation for
    the L = 0 ``MfaModel`` with diagonals c_k + sigma2, then one inverse DFT.
    Full and Toeplitz: the whitened centred rows z_k (``_gmm_chunks``), weighted
    by the responsibilities, through the stacked [conj(L_1^{-1}); ...] in one
    product.
    Raises ConditioningError when some C_k + sigma2 I is numerically singular:
    a circulant bin at or below its component's largest bin / COND_LIMIT or
    one with no finite inverse, a failed Cholesky, or an estimate that is not
    finite (a subnormal pivot whose whitened rows overflow, say).
    """
    sigma2 = _check_sigma2(sigma2)
    batch, single = _check_observation(y, model.dim)
    if model.structure == "circulant":
        _check_spectra(model, sigma2)
        means = np.fft.fft(model.means, norm="ortho")
        loadings = np.empty((*model.params.shape, 0), dtype=np.complex128)
        view = MfaModel(model.weights, means, loadings, model.params + sigma2)
        rows = _conditional_mean(stack_mixture(view, 0.0), sigma2, np.fft.fft(batch, norm="ortho"))
        out = np.fft.ifft(rows, norm="ortho")
    else:
        out = np.empty_like(batch)
        with np.errstate(all="ignore"):
            factor = _gmm_factor(model, sigma2)
            # The stacked [conj(L_1^{-1}); ...; conj(L_K^{-1})] (K N, N), once per call.
            back = factor[0][:-1].T.conj()
            for part, rows, z, resp, _ in _gmm_chunks(model, factor, batch, whitened=True):
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
    with open(path, "rb") as fh:
        reader = Container(fh, GMM_MAGIC, _GMM_HEADER)
        version, tag, dim, k_total = reader.header
        if version != GMM_VERSION:
            offset = reader.offset_of("version")
            raise FileFormatError(f"unsupported model version {version}", offset)
        if tag >= len(GMM_STRUCTURES):
            raise FileFormatError(f"unknown structure tag {tag}", reader.offset_of("tag"))
        structure = GMM_STRUCTURES[tag]
        if dim == 0 or k_total == 0:
            raise FileFormatError("model header declares an empty model", reader.offset)
        rec = reader.body(_gmm_records(structure, dim), k_total, "components")
    params = rec["params"].transpose(0, 2, 1) if structure == "full" else rec["params"]
    return GmmModel(structure, rec["weight"], rec["mean"], params)
