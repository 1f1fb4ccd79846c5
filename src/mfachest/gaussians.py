"""Complex-Gaussian numerics over low-rank-plus-diagonal covariances.

Covariances are kept in factored form ``C = loading @ loading^H + diag(diag_term)``,
and every routine works through the small latent-dimension system instead of a
dense N x N factorization: inversion uses the Woodbury identity, the
log-determinant the matrix determinant lemma, and densities never leave the
log domain. A whole mixture is factored once per noise level into a
``MixtureStack``, and ``mixture_logdens`` evaluates every component on a batch
of rows with a few stacked matrix products; EM, the likelihood and the MMSE
estimator all run through that one kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

LOG_PI = float(np.log(np.pi))

# Condition-number guard for the latent-dimension system; estimated from the
# Cholesky diagonal, which is exact for diagonal matrices and a lower bound
# otherwise.
COND_LIMIT = 1e12

# Complex entries per batch row of the mixture kernel's temporaries, which are
# (B, K*(L+1)) in the kernel and (B, N) in estimate(). At K=64, N=64, L=8 (about
# 800 rows) it timed fastest of 2^17..2^21 for estimate() on 10k rows, with a
# 35 MB transient peak; the peak grows with the budget.
_STACK_CHUNK_BUDGET = 1 << 19


class ConditioningError(ArithmeticError):
    """A covariance system is numerically singular: the latent L x L system of a
    low-rank component beyond the condition limit, a zero bin of a circulant
    spectrum plus sigma2, or a full/Toeplitz C + sigma2 I that is not positive
    definite."""


@dataclass(frozen=True)
class LowRankCovariance:
    """Covariance ``loading @ loading^H + diag(diag_term)``.

    Parameters
    ----------
    loading : ndarray, shape (N, L)
        Complex factor loading matrix; L <= N.
    diag_term : ndarray, shape (N,)
        Strictly positive diagonal term.
    """

    loading: np.ndarray
    diag_term: np.ndarray

    def __post_init__(self):
        loading = np.asarray(self.loading, dtype=np.complex128)
        diag_term = np.asarray(self.diag_term, dtype=np.float64)
        if loading.ndim != 2:
            raise ValueError("loading must be a 2-D (N, L) array")
        if diag_term.ndim != 1 or diag_term.shape[0] != loading.shape[0]:
            raise ValueError("diag_term must be a length-N vector")
        if loading.shape[1] > loading.shape[0]:
            raise ValueError("latent dimension L must not exceed N")
        if not np.all(np.isfinite(loading)):
            raise ValueError("loading entries must be finite")
        if not np.all(np.isfinite(diag_term)) or np.any(diag_term <= 0.0):
            raise ValueError("diag_term entries must be finite and > 0")
        object.__setattr__(self, "loading", loading)
        object.__setattr__(self, "diag_term", diag_term)

    @property
    def dim(self) -> int:
        return self.loading.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.loading.shape[1]

    def dense(self, sigma2: float = 0.0) -> np.ndarray:
        """Materialize the (N, N) covariance, optionally with sigma2 added to the diagonal."""
        w = self.loading
        out = w @ w.conj().T + np.diag(self.diag_term + sigma2)
        return 0.5 * (out + out.conj().T)


class _CovFactors(NamedTuple):
    """Shared Woodbury factorization of ``C + sigma2*I``.

    d is the inverse of the diagonal part, wd = diag(d) @ loading, chol the lower
    Cholesky factor of the latent system ``I + loading^H diag(d) loading``, and
    logdet the log-determinant of the full covariance.
    """

    d: np.ndarray
    wd: np.ndarray
    chol: np.ndarray
    logdet: float


def _check_sigma2(sigma2: float) -> float:
    sigma2 = float(sigma2)
    if not np.isfinite(sigma2) or sigma2 < 0.0:
        raise ValueError("sigma2 must be finite and >= 0")
    return sigma2


def factorize(cov: LowRankCovariance, sigma2: float, label: str = "covariance") -> _CovFactors:
    """Factor ``C + sigma2*I`` through the latent L x L system.

    Raises ConditioningError (naming `label`) when that system is not positive
    definite or its condition estimate exceeds COND_LIMIT.
    """
    sigma2 = _check_sigma2(sigma2)
    diag = cov.diag_term + sigma2
    if np.any(diag <= 0.0):
        raise ValueError("diag_term + sigma2 must be entrywise positive")
    d = 1.0 / diag
    wd = cov.loading * d[:, None]
    latent = cov.latent_dim
    a_inv = np.eye(latent, dtype=np.complex128) + cov.loading.conj().T @ wd
    a_inv = 0.5 * (a_inv + a_inv.conj().T)
    if latent:
        try:
            chol = np.linalg.cholesky(a_inv)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                f"latent system of {label} is not positive definite"
            ) from exc
        pivots = chol.diagonal().real
        cond_est = (pivots.max() / pivots.min()) ** 2
        if not np.isfinite(cond_est) or cond_est > COND_LIMIT:
            raise ConditioningError(
                f"latent system of {label} is ill-conditioned "
                f"(estimate {cond_est:.2e} > {COND_LIMIT:.0e})"
            )
        logdet_latent = 2.0 * float(np.log(pivots).sum())
    else:
        chol = np.zeros((0, 0), dtype=np.complex128)
        logdet_latent = 0.0
    logdet = float(np.log(diag).sum()) + logdet_latent
    return _CovFactors(d=d, wd=wd, chol=chol, logdet=logdet)


def woodbury_inverse(cov: LowRankCovariance, sigma2: float) -> np.ndarray:
    """Dense inverse of ``loading @ loading^H + diag(diag_term) + sigma2*I``.

    Computed as ``D - D W A W^H D`` with diagonal ``D`` and the L x L capacitance
    ``A = (I + W^H D W)^{-1}``; the result is exactly Hermitian.
    """
    f = factorize(cov, sigma2)
    inv = np.diag(f.d).astype(np.complex128)
    if cov.latent_dim:
        # D W A W^H D == half^H half with half = chol^{-1} (W^H D).
        half = solve_triangular(f.chol, f.wd.conj().T, lower=True, check_finite=False)
        inv -= half.conj().T @ half
    return 0.5 * (inv + inv.conj().T)


def lowrank_logdet(cov: LowRankCovariance, sigma2: float) -> float:
    """log det of ``loading @ loading^H + diag(diag_term) + sigma2*I``."""
    return factorize(cov, sigma2).logdet


def cgauss_logpdf(
    x: np.ndarray,
    mean: np.ndarray,
    cov: LowRankCovariance,
    sigma2: float = 0.0,
) -> np.ndarray | float:
    """Circularly-symmetric complex Gaussian log-density with covariance C + sigma2*I.

    Accepts a single vector ``x`` of shape (N,) or a batch of shape (T, N);
    returns a float or a length-T vector accordingly. The density convention is
    ``pi^-N det(C)^-1 exp(-(x-mean)^H C^-1 (x-mean))`` and the evaluation stays
    in the log domain throughout.
    """
    f = factorize(cov, sigma2)
    x = np.asarray(x, dtype=np.complex128)
    single = x.ndim == 1
    xc = np.atleast_2d(x) - np.asarray(mean, dtype=np.complex128)
    if xc.shape[1] != cov.dim:
        raise ValueError("x/mean dimension does not match the covariance")
    quad = _quad_form(xc, f)
    out = -cov.dim * LOG_PI - f.logdet - quad
    return float(out[0]) if single else out


def _quad_form(xc: np.ndarray, f: _CovFactors) -> np.ndarray:
    """Mahalanobis terms ``xc^H (C + sigma2 I)^{-1} xc`` for rows of xc."""
    # einsum over the real/imag views: no (T, N)-sized temporaries or conj copies
    quad = np.einsum("tn,tn,n->t", xc.real, xc.real, f.d)
    quad += np.einsum("tn,tn,n->t", xc.imag, xc.imag, f.d)
    if f.wd.shape[1]:
        proj = xc @ f.wd.conj()  # rows are (W^H D xc)^T
        half = solve_triangular(f.chol, proj.T, lower=True, check_finite=False)
        quad -= np.einsum("lt,lt->t", half.real, half.real)
        quad -= np.einsum("lt,lt->t", half.imag, half.imag)
    return quad


class MixtureStack(NamedTuple):
    """Every component of a mixture factored at one noise level, stacked by component.

    With D_k the inverse of ``diag_term_k + sigma2``, W_k the loading and mu_k
    the mean of component k, ``d`` holds D_k as columns (N, K), ``d_mean``
    D_k conj(mu_k) as columns (N, K), ``wd_conj`` conj(D_k W_k) as column
    blocks (N, K*L), ``mean_proj`` the rows (W_k^H D_k mu_k)^T (K, L),
    ``latent_cov`` the latent posterior covariances
    ``A_k = (I + W_k^H D_k W_k)^{-1}`` (K, L, L) and ``logconst``
    ``log w_k - N log pi - log det(C_k + sigma2 I) - mu_k^H D_k mu_k`` (K,).
    """

    d: np.ndarray
    d_mean: np.ndarray
    wd_conj: np.ndarray
    mean_proj: np.ndarray
    latent_cov: np.ndarray
    logconst: np.ndarray

    def chunk_rows(self) -> int:
        """Rows per batch that keep the (B, K*(L+1)) and (B, N) temporaries near a fixed budget."""
        k_total, latent = self.latent_cov.shape[:2]
        return max(64, _STACK_CHUNK_BUDGET // (k_total * (latent + 1) + self.d.shape[0]))


def stack_mixture(components, sigma2: float) -> MixtureStack:
    """Factor every ``(weight, mean, cov)`` component of a mixture at noise level sigma2.

    Each component goes through ``factorize``, so the same sigma2 validation
    and ConditioningError (naming the component) apply.
    """
    k_total = len(components)
    dim, latent = components[0].cov.dim, components[0].cov.latent_dim
    d = np.empty((dim, k_total))
    d_mean = np.empty((dim, k_total), dtype=np.complex128)
    wd_conj = np.empty((dim, k_total * latent), dtype=np.complex128)
    mean_proj = np.empty((k_total, latent), dtype=np.complex128)
    latent_cov = np.empty((k_total, latent, latent), dtype=np.complex128)
    logconst = np.empty(k_total)
    eye = np.eye(latent, dtype=np.complex128)
    for k, comp in enumerate(components):
        f = factorize(comp.cov, sigma2, label=f"component {k}")
        d[:, k] = f.d
        d_mean[:, k] = f.d * comp.mean.conj()
        wd_conj[:, k * latent:(k + 1) * latent] = f.wd.conj()
        mean_proj[k] = comp.mean @ f.wd.conj()
        latent_cov[k] = cho_solve((f.chol, True), eye)
        logconst[k] = (
            math.log(comp.weight)
            - dim * LOG_PI
            - f.logdet
            - float((f.d * np.abs(comp.mean) ** 2).sum())
        )
    return MixtureStack(d, d_mean, wd_conj, mean_proj, latent_cov, logconst)


def mixture_logdens(
    stack: MixtureStack, block: np.ndarray, abs2: np.ndarray, latent_out: np.ndarray
) -> np.ndarray:
    """Weighted component log-densities ``log w_k + log N_C(y; mu_k, C_k + sigma2 I)``, (B, K).

    ``block`` holds B observations as rows and ``abs2`` their entrywise
    squared magnitudes. The latent posterior means ``A_k W_k^H D_k (y - mu_k)``
    are written to ``latent_out[:, k]``, which must have shape (B, K, L).

    Every term is a batched product with the stacked factors: the diagonal part
    of the Mahalanobis term comes from the expansion
    |y-mu|^2 = |y|^2 - 2 Re(y conj(mu)) + |mu|^2, and the low-rank correction
    p^H A p from the projected residual p = W^H D (y - mu) and its posterior mean.
    """
    latent = stack.latent_cov.shape[1]
    logdens = stack.logconst - abs2 @ stack.d
    logdens += 2.0 * (block @ stack.d_mean).real
    proj = block @ stack.wd_conj
    for k in range(stack.logconst.shape[0]):
        p_k = proj[:, k * latent:(k + 1) * latent] - stack.mean_proj[k]
        m_k = p_k @ stack.latent_cov[k].T
        # p^H A p = Re(conj(p) . m) completes the low-rank quadratic term
        logdens[:, k] += np.einsum("cl,cl->c", p_k.real, m_k.real)
        logdens[:, k] += np.einsum("cl,cl->c", p_k.imag, m_k.imag)
        latent_out[:, k] = m_k
    return logdens


def sample_component(
    mean: np.ndarray,
    cov: LowRankCovariance,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw ``mean + loading @ z + u`` with z standard complex normal and u ~ N_C(0, diag).

    With ``size=None`` a single (N,) vector is returned, otherwise a (size, N)
    array. Draw order (z first, then u) is fixed, so outputs are reproducible
    for a seeded generator.
    """
    mean = np.asarray(mean, dtype=np.complex128)
    n_draws = 1 if size is None else int(size)
    latent = cov.latent_dim
    z = _std_cnormal(rng, (n_draws, latent))
    u = _std_cnormal(rng, (n_draws, cov.dim)) * np.sqrt(cov.diag_term)
    out = mean + z @ cov.loading.T + u
    return out[0] if size is None else out


def _std_cnormal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex normal: unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def log_sum_exp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """``log(sum(exp(values)))`` via max shift; exact for single-element input."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("log_sum_exp requires a nonempty input")
    shift = np.max(values, axis=axis, keepdims=True)
    # An all--inf slice would propagate nan through the subtraction.
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = np.log(np.exp(values - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)
