"""Mixture-based MMSE channel estimation from noisy pilot observations.

The estimate is a convex combination of per-component LMMSE filters, weighted
by noise-aware responsibilities. Every component is factored once per call at
the observation noise level (``gaussians.stack_mixture``), and the stacked
low-rank kernel's pass (``gaussians.mixture_chunks``) yields both the
responsibilities and the whitened latent coordinates the filters need, so no
N x N matrix is formed and the per-observation cost is O(KNL).
"""

from __future__ import annotations

import numpy as np

from .gaussians import _check_observation, _check_sigma2, mixture_chunks, stack_mixture
from .mfa import MfaModel


def estimate(model: MfaModel, sigma2: float, y: np.ndarray) -> np.ndarray:
    """The estimates of observations y, (N,) or (B, N) like y: the convex
    combination of the per-component LMMSE filters.

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
    stack = stack_mixture(model, sigma2)
    # (K*(L+1), N): the conjugated projection rows, with each intercept row D_k mu_k.
    back = stack.proj[:-1].T.conj()
    back[model.latent_dim::model.latent_dim + 1] = stack.d_mean.T.conj()

    value = np.empty_like(batch)
    for start, yb, _, lat, resp, _ in mixture_chunks(stack, batch):
        lat *= resp[:, :, None]
        prec_y = (resp @ stack.d.T) * yb
        prec_y -= lat.reshape(len(yb), -1) @ back
        value[start:start + len(yb)] = yb - sigma2 * prec_y
    return value[0] if single else value
