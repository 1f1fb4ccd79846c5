import numpy as np
import pytest
from scipy.optimize import nnls

from mfachest.estimator import estimate
from mfachest.mfa import FitConfig, MfaModel, fit_em, log_likelihood
from oracles import (
    crandn,
    dense_conditional_mean,
    dense_cov,
    dense_logdens,
    kernel_responsibilities,
    make_model,
    posterior,
    sample,
    single,
)


def scalar_model(weights, means, loadings, psis):
    """A mixture of scalar (N = L = 1) components."""
    k_total = len(weights)
    return MfaModel(
        np.array(weights),
        np.array(means, complex).reshape(k_total, 1),
        np.array(loadings, complex).reshape(k_total, 1, 1),
        np.array(psis, float).reshape(k_total, 1),
    )


def quadrature_cme(weights, means, variances, sigma2, y, order=80):
    """Conditional mean by Gauss-Hermite quadrature for a scalar complex mixture prior."""
    nodes, wts = np.polynomial.hermite.hermgauss(order)
    grid_w = np.outer(wts, wts) / np.pi
    numerator = 0.0
    denominator = 0.0
    for w, mu, var in zip(weights, means, variances):
        h = mu + np.sqrt(var) * (nodes[:, None] + 1j * nodes[None, :])
        lik = np.exp(-np.abs(y - h) ** 2 / sigma2) / (np.pi * sigma2)
        denominator += w * np.sum(grid_w * lik)
        numerator += w * np.sum(grid_w * lik * h)
    return numerator / denominator


class TestComponentLmmse:
    """estimate() on a one-component model is that component's LMMSE filter."""

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(70)
        model = make_model(rng, 1, 6, 2)
        y = crandn(rng, 6)
        out = estimate(model, 0.0, y)
        assert np.array_equal(out, y)

    def test_huge_noise_returns_mean(self):
        rng = np.random.default_rng(71)
        model = make_model(rng, 1, 6, 2)
        mean = model.means[0]
        y = crandn(rng, 6)
        out = estimate(model, 1e12, y)
        assert np.abs(out - mean).max() < 1e-6 * np.abs(mean).max()

    def test_scalar_half_gain(self):
        comp = single(np.zeros((1, 1), complex), np.ones(1))
        out = estimate(comp, 1.0, np.array([2.0 + 0j]))
        assert out[0] == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_rejects_nonfinite(self):
        rng = np.random.default_rng(72)
        model = make_model(rng, 1, 4, 1)
        y = np.zeros(4, complex)
        y[2] = np.inf
        with pytest.raises(ValueError):
            estimate(model, 1.0, y)


class TestNoisyResponsibilities:
    """Posterior component probabilities that estimate() weights its filters
    with, as the stacked kernel's pass yields them."""

    def test_single_component(self):
        rng = np.random.default_rng(73)
        model = make_model(rng, 1, 5, 2)
        resp = kernel_responsibilities(model, 0.5, crandn(rng, 5))
        assert np.array_equal(resp, np.array([1.0]))

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(74)
        dim = 4
        mean = crandn(rng, dim)
        loading = crandn(rng, dim, 2)
        model = MfaModel(
            np.full(2, 0.5), np.stack([mean, -mean]), np.stack([loading, loading]),
            np.full((2, dim), 0.4),
        )
        resp = kernel_responsibilities(model, 1.0, np.zeros(dim, complex))
        assert resp == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_huge_noise_returns_priors(self):
        rng = np.random.default_rng(75)
        model = make_model(rng, 3, 6, 2)
        resp = kernel_responsibilities(model, 1e12, crandn(rng, 6))
        assert np.abs(resp - model.weights).max() < 1e-6

    def test_simplex(self):
        rng = np.random.default_rng(76)
        model = make_model(rng, 4, 6, 2, sep=1.0)
        resp = kernel_responsibilities(model, 0.3, crandn(rng, 100, 6))
        assert np.all(resp >= 0)
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-12


    def test_subnormal_responsibility_is_zero(self):
        # Unit-variance scalar components at 0 and sqrt(720): at y = 0 the far
        # one has posterior weight e^-720 = 2.03e-313, a subnormal number,
        # which falls below the responsibility floor.
        model = scalar_model([0.5, 0.5], [0.0, np.sqrt(720.0)], [0.0, 0.0], [1.0, 1.0])
        resp = kernel_responsibilities(model, 0.0, np.zeros((1, 1), complex))
        assert resp[0, 1] == 0.0
        assert resp.sum(axis=1) == pytest.approx([1.0], abs=1e-15)


class TestEstimate:
    def test_single_component_equals_lmmse(self):
        rng = np.random.default_rng(77)
        model = make_model(rng, 1, 6, 2)
        y = crandn(rng, 6)
        got = estimate(model, 0.7, y)
        ref = dense_conditional_mean(model, 0.7, y)[0]
        assert np.abs(got - ref).max() < 1e-12
        assert kernel_responsibilities(model, 0.7, y) == pytest.approx([1.0])

    def test_zero_noise_identity(self):
        rng = np.random.default_rng(78)
        model = make_model(rng, 3, 6, 2)
        y = crandn(rng, 50, 6)
        got = estimate(model, 0.0, y)
        assert np.abs(got - y).max() < 1e-10

    def test_matches_quadrature_cme(self):
        model = scalar_model(
            weights=[0.4, 0.6],
            means=[1.0 + 0.5j, -0.8 - 0.2j],
            loadings=[0.9, 0.3],
            psis=[0.2, 0.5],
        )
        sigma2 = 0.7
        variances = [abs(0.9) ** 2 + 0.2, abs(0.3) ** 2 + 0.5]
        for y in [0.3 + 0.1j, -1.2 + 0.9j, 2.0 - 2.0j, 0.0 + 0.0j]:
            got = estimate(model, sigma2, np.array([y]))[0]
            want = quadrature_cme([0.4, 0.6], [1.0 + 0.5j, -0.8 - 0.2j], variances, sigma2, y)
            assert abs(got - want) < 1e-6

    def test_prior_mean_limit(self):
        rng = np.random.default_rng(79)
        model = make_model(rng, 3, 8, 2)
        prior_mean = model.weights @ model.means
        got = estimate(model, 1e12, crandn(rng, 20, 8))
        rel = np.abs(got - prior_mean).max() / np.linalg.norm(prior_mean)
        assert rel < 1e-5

    def test_convex_hull_membership(self):
        rng = np.random.default_rng(80)
        model = make_model(rng, 4, 5, 2, sep=1.5)
        sigma2 = 0.6
        for _ in range(20):
            y = crandn(rng, 5)
            got = estimate(model, sigma2, y)
            points = dense_conditional_mean(model, sigma2, y)[2]  # (K, N)
            # membership: nonnegative weights summing to 1 reproducing the estimate
            stacked = np.concatenate(
                [points.real, points.imag, np.ones((4, 1))], axis=1
            ).T  # (2N+1, K)
            target = np.concatenate([got.real, got.imag, [1.0]])
            _, resid = nnls(stacked, target)
            assert resid < 1e-8

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_sigma2(self, sigma2):
        rng = np.random.default_rng(81)
        model = make_model(rng, 2, 4, 1)
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
            estimate(model, sigma2, crandn(rng, 3, 4))


class TestMmseConvergence:
    """The paper's central claim: fitted by EM on more and more samples, the
    MFA estimator approaches the MMSE estimator, which is ``estimate`` under
    the true model (the exact conditional mean)."""

    def test_fitted_estimator_approaches_true_mmse(self):
        rng = np.random.default_rng(160)
        true = make_model(rng, 3, 8, 2)
        truths = sample(true, 4000, np.random.default_rng(161)).samples
        noise = crandn(rng, *truths.shape)
        snrs_db = (0.0, 10.0, 20.0)
        excess_db = {}
        for count in (500, 20_000):
            data = sample(true, count, np.random.default_rng(162))
            # EM from a k-means start now and then settles in a local optimum
            # (two centres seeded in one cluster); the best of three seeds by
            # likelihood stands in for the maximum-likelihood fit.
            fits = [fit_em(data, 3, 2, FitConfig(max_iter=60, rel_tol=1e-6, seed=seed))
                    for seed in range(3)]
            model = max(fits, key=lambda fit: log_likelihood(fit[0], data))[0]
            for snr_db in snrs_db:
                sigma2 = 10.0 ** (-snr_db / 10.0)
                y = truths + np.sqrt(sigma2) * noise
                mse = [np.mean(np.abs(estimate(m, sigma2, y) - truths) ** 2)
                       for m in (model, true)]
                excess_db[count, snr_db] = 10.0 * np.log10(mse[0] / mse[1])
        for snr_db in snrs_db:
            # Measured excess: 0.002-0.036 dB at T = 500, below 4e-4 dB at T = 20k.
            assert excess_db[20_000, snr_db] < excess_db[500, snr_db]
            assert excess_db[20_000, snr_db] < 0.01


class TestFilterBank:
    """estimate() applies every component filter through the stacked factorization
    at one noise level; these pin it to dense per-component filters."""

    def test_bank_matches_direct(self):
        rng = np.random.default_rng(81)
        model = make_model(rng, 3, 6, 2)
        sigma2 = 0.4
        y = crandn(rng, 1000, 6)
        got = estimate(model, sigma2, y)
        value, resp, _ = dense_conditional_mean(model, sigma2, y)
        assert np.abs(got - value).max() < 1e-12 * np.abs(value).max()
        assert np.abs(kernel_responsibilities(model, sigma2, y) - resp).max() < 1e-12

    def test_paper_size_matches_direct(self):
        # N=64, L=32: the dense solves themselves carry errors near 2e-13 here.
        rng = np.random.default_rng(88)
        model = make_model(rng, 3, 64, 32, sep=0.3)
        y = model.means[rng.integers(3, size=200)] + 3.0 * crandn(rng, 200, 64)
        got = estimate(model, 0.5, y)
        value, resp, _ = dense_conditional_mean(model, 0.5, y)
        assert np.abs(got - value).max() < 1e-11 * np.abs(value).max()
        assert np.abs(kernel_responsibilities(model, 0.5, y) - resp).max() < 1e-11

    def test_zero_latent_dimension(self):
        # L=0 is a mixture of diagonal Gaussians; MFA1 files may hold one.
        rng = np.random.default_rng(83)
        diag_terms = np.stack([rng.uniform(0.3, 2.0, 6) for _ in range(2)])
        means = np.stack([crandn(rng, 6) for _ in range(2)])
        model = MfaModel(np.array([0.3, 0.7]), means, np.zeros((2, 6, 0)), diag_terms)
        y = 2.0 * crandn(rng, 50, 6)
        got = estimate(model, 0.4, y)
        value, resp, _ = dense_conditional_mean(model, 0.4, y)
        assert np.abs(got - value).max() < 1e-12 * np.abs(value).max()
        assert np.abs(kernel_responsibilities(model, 0.4, y) - resp).max() < 1e-12
        want = posterior(dense_logdens(model, 0.0, y))[1].mean()
        assert log_likelihood(model, y) == pytest.approx(want, rel=1e-12)

    def test_single_component_identity_cov(self):
        comp = single(np.zeros((4, 1), complex), np.ones(4))
        y = crandn(np.random.default_rng(87), 10, 4)
        got = estimate(comp, 1.0, y)
        assert np.abs(got - 0.5 * y).max() < 1e-14

    def test_rebuild_bit_identical(self):
        rng = np.random.default_rng(82)
        model = make_model(rng, 2, 5, 2)
        y = crandn(rng, 300, 5)
        a = estimate(model, 0.3, y)
        b = estimate(model, 0.3, y)
        assert np.array_equal(a, b)
        assert np.array_equal(kernel_responsibilities(model, 0.3, y),
                              kernel_responsibilities(model, 0.3, y))

    def test_single_component_affine_form(self):
        rng = np.random.default_rng(84)
        model = make_model(rng, 1, 5, 2)
        mean = model.means[0]
        gain = np.eye(5) - 0.8 * np.linalg.inv(model.dense_covariances()[0] + 0.8 * np.eye(5))
        bias = mean - gain @ mean
        y = crandn(rng, 5)
        got = estimate(model, 0.8, y)
        assert np.abs(got - (gain @ y + bias)).max() < 1e-12
        assert np.abs(got - dense_conditional_mean(model, 0.8, y)[0]).max() < 1e-12

    def test_zero_input_zero_mean(self):
        rng = np.random.default_rng(85)
        model = make_model(rng, 1, 5, 2, zero_mean=True)
        got = estimate(model, 0.5, np.zeros(5, complex))
        assert np.abs(got).max() == 0.0

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(86)
        model = make_model(rng, 1, 5, 2)
        with pytest.raises(ValueError):
            estimate(model, 0.5, np.zeros(4, complex))


class TestCmeOracle:
    """estimate() under the generating prior is the exact conditional mean."""

    def test_gaussian_prior_trace_formula(self):
        # Monte-Carlo MSE of the K=1 oracle matches (1/N) tr(C - C (C + s I)^-1 C).
        rng = np.random.default_rng(87)
        model = make_model(rng, 1, 6, 2, sep=0.0)
        cov = dense_cov(model, 0)
        sigma2 = 0.5
        shifted = cov + sigma2 * np.eye(6)
        want = np.trace(cov - cov @ np.linalg.solve(shifted, cov)).real / 6

        draws = sample(model, 40_000, np.random.default_rng(88)).samples
        noise = crandn(np.random.default_rng(89), 40_000, 6) * np.sqrt(sigma2)
        got_est = estimate(model, sigma2, draws + noise)
        mse = float(np.mean(np.abs(got_est - draws) ** 2) * 6 / 6)
        assert mse == pytest.approx(want, rel=0.02)

    def test_scalar_two_component_quadrature(self):
        model = scalar_model(
            weights=[0.5, 0.5],
            means=[1.5 + 0j, -1.5 + 0j],
            loadings=[0.5, 0.7],
            psis=[0.3, 0.2],
        )
        sigma2 = 0.4
        variances = [0.25 + 0.3, 0.49 + 0.2]
        for y in [0.2 + 0.3j, -0.9 - 0.4j, 1.4 + 0j]:
            got = estimate(model, sigma2, np.array([y]))[0]
            want = quadrature_cme([0.5, 0.5], [1.5, -1.5], variances, sigma2, y)
            assert abs(got - want) < 1e-6

    def test_zero_noise_identity(self):
        rng = np.random.default_rng(90)
        model = make_model(rng, 2, 4, 1)
        y = crandn(rng, 4)
        assert np.abs(estimate(model, 0.0, y) - y).max() < 1e-12
