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
    ``D_k W_k m_k = (D_k W_k R_k) q_k`` and the responsibility-weighted sum over
    k is three products with the stacked factors.
    """
    batch, single = _check_observation(y, model.dim)
    sigma2 = _check_sigma2(sigma2)
    stack = stack_mixture(model, sigma2)
    k_total, latent = model.n_components, model.latent_dim
    dwr = stack.dwr_conj.conj()  # (N, K*L) column blocks D_k W_k R_k
    d_mu = stack.d_mean.conj()  # (N, K) columns D_k mu_k

    value = np.empty_like(batch)
    for start, yb, _, lat, resp, _ in mixture_chunks(stack, batch):
        lat *= resp[:, :, None]
        prec_y = (resp @ stack.d.T) * yb
        prec_y -= resp @ d_mu.T
        prec_y -= lat.reshape(len(yb), k_total * latent) @ dwr.T
        value[start:start + len(yb)] = yb - sigma2 * prec_y
    return value[0] if single else value
