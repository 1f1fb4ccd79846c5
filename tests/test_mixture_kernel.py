"""Property tests of the stacked mixture kernel against dense Cholesky oracles."""

import numpy as np
from hypothesis import given, strategies as st

from mfachest.baselines import gmm_estimate, gmm_from_mfa
from mfachest.estimator import estimate
from mfachest.gaussians import LowRankCovariance
from mfachest.mfa import MfaComponent, MfaModel, log_likelihood


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@st.composite
def models(draw):
    """A random MFA with K in [1, 4], N in [1, 8], L in [1, N], plus a generator."""
    k_total = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 8))
    latent = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.2, 1.0, k_total)
    weights /= weights.sum()
    comps = tuple(
        MfaComponent(
            weights[k],
            rng.uniform(0.0, 3.0) * crandn(rng, dim),
            LowRankCovariance(crandn(rng, dim, latent), rng.uniform(0.05, 2.0, dim)),
        )
        for k in range(k_total)
    )
    return MfaModel(comps), rng


noise_levels = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=10.0, exclude_min=True)
)


def observations(model, rng, count=25):
    picks = rng.integers(model.n_components, size=count)
    return model.means[picks] + rng.uniform(0.1, 3.0) * crandn(rng, count, model.dim)


def dense_logdens(model, sigma2, y):
    """log w_k + log N_C(y; mu_k, C_k + sigma2 I) by dense Cholesky, (B, K)."""
    out = np.empty((y.shape[0], model.n_components))
    for k, comp in enumerate(model.components):
        chol = np.linalg.cholesky(comp.cov.dense(sigma2))
        half = np.linalg.solve(chol, (y - comp.mean).T)
        out[:, k] = (
            np.log(comp.weight)
            - model.dim * np.log(np.pi)
            - 2.0 * np.log(chol.diagonal().real).sum()
            - (np.abs(half) ** 2).sum(axis=0)
        )
    return out


@given(models(), noise_levels)
def test_estimate_matches_dense_mixture_estimator(drawn, sigma2):
    model, rng = drawn
    y = observations(model, rng)
    got = estimate(model, sigma2, y)

    want = gmm_estimate(gmm_from_mfa(model), sigma2, y)
    assert np.abs(got.value - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    logdens = dense_logdens(model, sigma2, y)
    resp = np.exp(logdens - logdens.max(axis=1, keepdims=True))
    resp /= resp.sum(axis=1, keepdims=True)
    assert np.abs(got.responsibilities - resp).max() <= 1e-9


@given(models())
def test_log_likelihood_matches_dense_mixture_density(drawn):
    model, rng = drawn
    y = observations(model, rng)
    logdens = dense_logdens(model, 0.0, y)
    shift = logdens.max(axis=1)
    want = float(np.mean(np.log(np.exp(logdens - shift[:, None]).sum(axis=1)) + shift))
    assert abs(log_likelihood(model, y) - want) <= 1e-9 * max(1.0, abs(want))
