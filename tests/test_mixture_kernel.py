"""Property tests of the stacked mixture kernel and the EM sweep against dense oracles."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfachest import gaussians
from mfachest.baselines import gmm_estimate, gmm_from_mfa
from mfachest.estimator import estimate
from mfachest.gaussians import mixture_logdens, stack_mixture
from mfachest.mfa import WEIGHT_FLOOR, MfaModel, _em_iteration, log_likelihood
from oracles import (
    crandn,
    dense_conditional_mean,
    dense_logdens,
    em_regression,
    kernel_responsibilities,
    models,
    observations,
    out_contract,
    posterior,
    with_intercept,
    woodbury_logdens,
)

noise_levels = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=10.0, exclude_min=True)
)


@given(models(), noise_levels)
def test_estimate_matches_dense_mixture_estimator(drawn, sigma2):
    model, rng = drawn
    y = observations(model, rng)
    got = out_contract(lambda rows, out: estimate(model, sigma2, rows, out=out), y)
    dense = gmm_from_mfa(model)
    want = out_contract(lambda rows, out: gmm_estimate(dense, sigma2, rows, out=out), y)
    with patch.object(gaussians, "_CHUNK_BYTES", 1):
        # In place across chunks of four rows.
        out_contract(lambda rows, out: estimate(model, sigma2, rows, out=out), y)
        out_contract(lambda rows, out: gmm_estimate(dense, sigma2, rows, out=out), y)

    assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    want, resp, _ = dense_conditional_mean(model, sigma2, y)
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
    assert np.abs(kernel_responsibilities(model, sigma2, y) - resp).max() <= 1e-9


@given(models())
def test_log_likelihood_matches_dense_mixture_density(drawn):
    model, rng = drawn
    y = observations(model, rng)
    want = posterior(dense_logdens(model, 0.0, y))[1].mean()
    assert abs(log_likelihood(model, y) - want) <= 1e-9 * max(1.0, abs(want))


def floor_model(seed, k_total, dim, latent, floor):
    """A model whose component 0 has its diagonal scaled down by ``floor``, with
    the rows near each mean at up to 10 of its diagonal's standard deviations."""
    rng = np.random.default_rng(seed)
    means = 3.0 * crandn(rng, k_total, dim) + 5.0
    diag = rng.uniform(0.5, 2.0, (k_total, dim))
    diag[0] *= floor
    loadings = crandn(rng, k_total, dim, latent)
    model = MfaModel(np.full(k_total, 1.0 / k_total), means, loadings, diag)
    offsets = 10.0 ** rng.uniform(-8.0, 1.0, (3 * k_total, 1)) * crandn(rng, 3 * k_total, dim)
    return model, np.tile(means, (3, 1)) + offsets * np.sqrt(np.tile(diag, (3, 1)))


def kernel_logdens(model, y):
    buffer = np.empty((len(y), model.n_components, model.latent_dim + 1), dtype=np.complex128)
    return mixture_logdens(stack_mixture(model, 0.0), y, np.abs(y) ** 2, buffer, with_intercept(y))


floor_models = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 8), st.floats(1e-12, 1.0)
)


@given(floor_models, st.data())
def test_diagonal_log_densities_match_dense_near_their_means(drawn, data):
    # The expansion |y|^2 D - 2 Re(y D conj(mu)) + |mu|^2 D of the diagonal form;
    # on component 0's diagonal, scaled down by ``floor``, its terms exceed the
    # form by up to 1 / floor for rows near the mean. At L >= 1 the dense
    # Cholesky of W W^H + diag is itself off by about 1e-8 there, so the
    # reference is the centred Woodbury form; its low-rank correction cancels
    # most of the diagonal form, so each is rounded at the correction's scale.
    seed, k_total, dim, floor = drawn
    latent = data.draw(st.integers(0, dim), label="latent")
    model, y = floor_model(seed, k_total, dim, latent, floor)
    want, correction = woodbury_logdens(model, 0.0, y)
    got = kernel_logdens(model, y)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want) + correction))


@given(floor_models, st.data())
def test_log_density_at_a_component_mean_is_its_normalizer(drawn, data):
    # At y = mu_k the quadratic form and q_k vanish, whatever the diagonal's scale.
    seed, k_total, dim, floor = drawn
    latent = data.draw(st.integers(0, dim), label="latent")
    model, _ = floor_model(seed, k_total, dim, latent, floor)
    got = np.diagonal(kernel_logdens(model, model.means))
    want = stack_mixture(model, 0.0).lognorm
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("budget", [gaussians._CHUNK_BYTES, 1], ids=["default", "4-rows"])
@given(models(), st.integers(1, 200))
def test_log_likelihood_is_the_em_sweep_likelihood(budget, drawn, count):
    # Both sum the chunks' log-sum-exp of one pass (gaussians.mixture_chunks).
    model, rng = drawn
    samples = observations(model, rng, count)
    with patch.object(gaussians, "_CHUNK_BYTES", budget):
        assert log_likelihood(model, samples) == _em_iteration(samples, model)[0]


@pytest.mark.parametrize("budget", [gaussians._CHUNK_BYTES, 1], ids=["default", "4-rows"])
@given(models(), noise_levels, st.integers(1, 200))
def test_chunks_yield_latent_coordinates_and_intercept(budget, drawn, sigma2, count):
    # The kernel's one product writes [q_k 1] with q_k = (y - mu_k)^T conj(D_k W_k R_k),
    # D_k = 1 / (diag_k + sigma2) and R_k = L_k^{-H}, L_k L_k^H = I + W_k^H D_k W_k.
    model, rng = drawn
    samples = observations(model, rng, count)
    latent = model.latent_dim
    want = np.empty((count, model.n_components, latent), dtype=np.complex128)
    for k in range(model.n_components):
        dw = model.loadings[k] / (model.diag_terms[k] + sigma2)[:, None]
        root = np.linalg.inv(np.linalg.cholesky(np.eye(latent) + model.loadings[k].conj().T @ dw))
        want[:, k] = (samples - model.means[k]) @ (dw @ root.conj().T).conj()
    with patch.object(gaussians, "_CHUNK_BYTES", budget):
        stack = stack_mixture(model, sigma2)
        got = np.concatenate([lat.copy() for *_, lat, _, _ in gaussians.mixture_chunks(stack, samples)])
    assert got.shape == (count, model.n_components, latent + 1)
    assert np.all(got[:, :, latent] == 1.0)
    assert np.abs(got[:, :, :latent] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def reference_sweep(model, samples):
    """The EM sweep with one dense pass per component and no responsibility floor.

    Latent posterior means are A_k p_k with A_k = (I + W_k^H D_k W_k)^{-1} and
    p_k = W_k^H D_k (y - mu_k); S_zz is summed per component and the posterior
    covariance enters as masses_k A_k; the regression is ``oracles.em_regression``.
    Returns what ``_em_iteration`` returns, then the latent means (T, K, L), the
    responsibilities and the weighted energies sum_t r |x|^2 (N, K).
    """
    count = samples.shape[0]
    k_total, latent = model.n_components, model.latent_dim
    logdens = dense_logdens(model, 0.0, samples)
    aug = np.ones((count, k_total, latent + 1), dtype=np.complex128)
    latent_covs = []
    for k in range(k_total):
        wd = model.loadings[k] / model.diag_terms[k][:, None]
        a_k = np.linalg.inv(np.eye(latent) + model.loadings[k].conj().T @ wd)
        aug[:, k, :latent] = (samples - model.means[k]) @ wd.conj() @ a_k.T
        latent_covs.append(a_k)
    resp, lse = posterior(logdens)
    weighted = aug.conj() * resp[:, :, None]
    masses = resp.sum(axis=0)
    r_abs2 = (np.abs(samples) ** 2).T @ resp

    s_xz = np.stack([samples.T @ weighted[:, k] for k in range(k_total)])
    s_zz = np.stack([aug[:, k].T @ weighted[:, k] for k in range(k_total)])
    s_zz[:, :latent, :latent] += masses[:, None, None] * np.stack(latent_covs)
    loadings, means, per_entry = em_regression(s_xz, s_zz, masses, r_abs2.T)
    sweep = (float(lse.mean()), int(np.argmin(lse)), masses, loadings, means, per_entry)
    return sweep, aug[:, :, :latent], resp, r_abs2


def far_component_samples(model, rng, count):
    """Samples from components 0..K-2 plus three from component K-1, whose mean is
    moved along a random direction until its largest responsibility at the other
    samples is about 1e-310 (log -713.8), so some responsibilities fall between
    1e-320 and 1e-300. Returns the moved model and the samples."""
    dim, latent = model.dim, model.latent_dim
    weights = model.weights
    main = model.means[rng.integers(model.n_components - 1, size=count - 3)]
    main = main + rng.uniform(0.1, 1.0) * crandn(rng, count - 3, dim)
    direction = crandn(rng, dim)
    direction /= np.linalg.norm(direction)
    # A broad component: at offset 0 it sits on a sample with a density that
    # no other component beats by hundreds of nats.
    loadings = model.loadings.copy()
    loadings[-1] = 0.5 * crandn(rng, dim, latent)
    diag_terms = model.diag_terms.copy()
    diag_terms[-1] = 1.0
    own = 0.3 * crandn(rng, 3, dim)

    def moved(offset):
        means = model.means.copy()
        means[-1] = main[0] + offset * direction
        return MfaModel(weights, means, loadings, diag_terms)

    def peak_log_resp(offset):
        logdens = dense_logdens(moved(offset), 0.0, main)
        lse = posterior(logdens)[1]
        return float((logdens[:, -1] - lse).max())

    target = np.log(1e-310)
    lo, hi = 0.0, 1.0
    while peak_log_resp(hi) > target - 30.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if peak_log_resp(mid) > target:
            lo = mid
        else:
            hi = mid
        if abs(peak_log_resp(hi) - target) < 5.0:
            break
    far_model = moved(hi)
    return far_model, np.concatenate([main, far_model.means[-1] + own])


@st.composite
def em_cases(draw):
    """A random MFA and samples near it, T in [K, 40]. When K >= 2 one family
    moves the last component far from the rest of the data (far_component_samples)."""
    model, rng = draw(models())
    count = draw(st.integers(model.n_components, 40))
    if model.n_components >= 2 and count >= 4 and draw(st.booleans()):
        model, samples = far_component_samples(model, rng, count)
        return model, samples, True
    picks = rng.integers(model.n_components, size=count)
    samples = model.means[picks] + rng.uniform(0.1, 3.0) * crandn(rng, count, model.dim)
    return model, samples, False


@given(em_cases())
def test_em_sweep_matches_per_component_reference(case):
    model, samples, far = case
    (ll, worst, masses, loadings, means, per_entry), latent_means, resp, r_abs2 = (
        reference_sweep(model, samples)
    )
    if far:
        assert np.any((resp > 1e-320) & (resp < 1e-300))

    got = _em_iteration(samples, model)
    assert abs(got[0] - ll) <= 1e-9 * max(1.0, abs(ll))
    assert got[1] == worst
    assert np.abs(got[2] - masses).max() <= 1e-9 * masses.max()
    # Components below the weight floor are re-seeded by the caller, so only
    # the survivors' regressions are compared; the residual energies are
    # measured against the weighted energy they are computed from.
    for k in np.flatnonzero(masses >= WEIGHT_FLOOR * samples.shape[0]):
        scale = max(np.abs(loadings[k]).max(), np.abs(means[k]).max())
        assert np.abs(got[3][k] - loadings[k]).max() <= 1e-9 * scale
        assert np.abs(got[4][k] - means[k]).max() <= 1e-9 * scale
    energy = r_abs2.max()
    for k in range(model.n_components):
        assert np.abs(got[5][k] - per_entry[k]).max() <= 1e-9 * energy

    # The kernel's whitened coordinates map back to the posterior means: R_k q_k = A_k p_k.
    stack = stack_mixture(model, 0.0)
    whitened = np.empty((len(samples), model.n_components, model.latent_dim + 1), dtype=np.complex128)
    mixture_logdens(stack, samples, np.abs(samples) ** 2, whitened, with_intercept(samples))
    mapped = np.einsum("kij,tkj->tki", stack.latent_root, whitened[:, :, :-1])
    assert np.abs(mapped - latent_means).max() <= 1e-9 * max(1.0, np.abs(latent_means).max())
