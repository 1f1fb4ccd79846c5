"""Mixture-based MMSE channel estimation from noisy pilot observations.

The estimate is a convex combination of per-component LMMSE filters, weighted
by noise-aware responsibilities. Every component is factored once per call at
the observation noise level (``gaussians.stack_mixture``), and the stacked
low-rank kernel's pass (``gaussians.mixture_chunks``) yields both the
responsibilities and the whitened latent coordinates the filters need, so no
N x N matrix is formed and the per-observation cost is O(KNL). The circulant
GMM's estimate (``baselines.gmm_estimate``) is the same accumulation at L = 0
on the DFT rows, through ``_conditional_mean``.

Both estimators take an optional ``out``: a writeable C-ordered complex128
array of y's shape that receives the estimates and is returned. It may be y
itself, which is then overwritten, and must otherwise share no memory with y;
anything else raises ValueError. Without it the estimates go into a fresh
array and y is left untouched, so y may be read-only. An error raised after
the rows are written leaves partial values in ``out``.
"""

from __future__ import annotations

import numpy as np

from .gaussians import _check_observation, _check_sigma2, mixture_chunks, stack_mixture
from .mfa import MfaModel


def estimate(model: MfaModel, sigma2: float, y: np.ndarray, out=None) -> np.ndarray:
    """The estimates of observations y, (N,) or (B, N) like y: the convex
    combination of the per-component LMMSE filters. They go into ``out`` when
    given (see the module docstring), which may be y itself, and ``out`` is
    returned. A ConditioningError from the factorization is raised before
    ``out`` is written.

    With ``(C_k + sigma2 I)^{-1} = D_k - D_k W_k A_k W_k^H D_k`` the filter of
    component k is ``y - sigma2 (D_k (y - mu_k) - D_k W_k m_k)`` with the latent
    posterior mean ``m_k = A_k W_k^H D_k (y - mu_k) = R_k q_k``, so
    ``D_k W_k m_k = (D_k W_k R_k) q_k``. The kernel's latent buffer holds
    [q_k 1] per component, so after weighting by the responsibilities one
    product with the stacked rows [(D_k W_k R_k)^T; (D_k mu_k)^T] gives both
    sum_k r_k (D_k W_k R_k) q_k and sum_k r_k D_k mu_k.
    """
    batch, single = _check_observation(y, model.dim)
    sigma2 = _check_sigma2(sigma2)
    value = _output(out, y, batch)
    _conditional_mean(stack_mixture(model, sigma2), sigma2, batch, value)
    return _result(out, value, single)


def _output(out, y, batch: np.ndarray) -> np.ndarray:
    """The (B, N) buffer that takes the estimates of ``batch``, the checked
    observations ``y``: a fresh one when ``out`` is None, else ``out`` viewed as
    (B, N). Raises ValueError unless ``out`` is a writeable C-ordered
    complex128 array of y's shape that is y's own memory or shares none of it."""
    if out is None:
        return np.empty(batch.shape, dtype=np.complex128)
    if not isinstance(out, np.ndarray) or out.dtype != np.complex128:
        raise ValueError(f"out must be a complex128 array, got {getattr(out, 'dtype', type(out))}")
    if out.shape != np.shape(y):
        raise ValueError(f"out has shape {out.shape}, the observations {np.shape(y)}")
    if not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writeable C-ordered array")
    value = out.reshape(batch.shape)
    # Only a complex128 y can be out's memory: any other y was converted into a new batch.
    same = batch.flags.c_contiguous and value.ctypes.data == batch.ctypes.data
    if isinstance(y, np.ndarray) and not same and np.shares_memory(out, y):
        raise ValueError("out overlaps the observations without being them")
    return value


def _result(out, value: np.ndarray, single: bool) -> np.ndarray:
    """What an estimator returns: ``out`` when given, else its estimates
    ``value`` in the observations' shape."""
    if out is not None:
        return out
    return value[0] if single else value


def _conditional_mean(stack, sigma2: float, batch: np.ndarray, out: np.ndarray) -> None:
    """``estimate``'s accumulation over the (B, N) rows ``batch`` into ``out``
    (B, N), with ``stack`` the mixture's ``gaussians.MixtureStack`` at sigma2.
    ``out`` may be ``batch``: each chunk's rows are read before its estimates
    are stored."""
    latent = stack.latent_root.shape[1]
    # (K*(L+1), N): the conjugated projection rows, with each intercept row D_k mu_k.
    back = stack.proj[:-1].T.conj()
    back[latent::latent + 1] = stack.d_mean.T.conj()

    for start, yb, _, lat, resp, _ in mixture_chunks(stack, batch):
        lat *= resp[:, :, None]
        prec_y = (resp @ stack.d.T) * yb
        prec_y -= lat.reshape(len(yb), -1) @ back
        prec_y *= sigma2
        np.subtract(yb, prec_y, out=out[start:start + len(yb)])
