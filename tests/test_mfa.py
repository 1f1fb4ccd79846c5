import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.optimize import linear_sum_assignment

from mfachest.estimator import estimate
from mfachest.gaussians import (
    LowRankCovariance,
    mixture_logdens,
    sample_component,
    stack_mixture,
)
from mfachest.mfa import (
    FitConfig,
    MfaComponent,
    MfaModel,
    _em_update,
    fit_em,
    load_model,
    log_likelihood,
    parameter_count,
    sample,
    save_model,
)
from mfachest.scenario import ChannelDataset


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def make_model(rng, k_total, dim, latent, sep=6.0, psi=0.2):
    comps = []
    weights = rng.uniform(0.5, 1.5, k_total)
    weights /= weights.sum()
    for k in range(k_total):
        mean = sep * crandn(rng, dim)
        loading = crandn(rng, dim, latent)
        comps.append(
            MfaComponent(weights[k], mean, LowRankCovariance(loading, np.full(dim, psi)))
        )
    return MfaModel(tuple(comps))


def dense_cov(comp):
    w = comp.cov.loading
    return w @ w.conj().T + np.diag(comp.cov.diag_term)


def dense_logdens(samples, mean, cov):
    chol = np.linalg.cholesky(cov)
    half = np.linalg.solve(chol, (samples - mean).T)
    return (
        -cov.shape[0] * np.log(np.pi)
        - 2 * np.log(chol.diagonal().real).sum()
        - (np.abs(half) ** 2).sum(axis=0)
    )


def em_update(comps, data, mode="scaled-identity", seed=0):
    """One iteration of fit_em's loop from the given components."""
    return _em_update(data, np.abs(data) ** 2, list(comps), mode, np.random.default_rng(seed))


def dense_mixture_ll(model, samples):
    dens = np.stack(
        [
            np.log(c.weight) + dense_logdens(samples, c.mean, dense_cov(c))
            for c in model.components
        ],
        axis=1,
    )
    shift = dens.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(dens - shift).sum(axis=1)) + shift[:, 0]))


class TestFitSingleGaussian:
    def test_matches_closed_form_fa(self):
        # Closed-form maximum likelihood for an isotropic-residual factor model:
        # top-L eigenvectors of the sample covariance scaled by
        # sqrt(eigenvalue - residual variance), residual variance = mean of the
        # discarded eigenvalues.
        rng = np.random.default_rng(21)
        dim, latent, count = 8, 3, 4000
        true = make_model(rng, 1, dim, latent, sep=0.0, psi=0.3)
        data = sample(true, count, np.random.default_rng(22)).samples

        model, trace = fit_em(
            ChannelDataset(data), 1, latent, FitConfig(max_iter=500, rel_tol=1e-12, seed=0)
        )
        comp = model.components[0]
        sample_mean = data.mean(axis=0)
        assert np.abs(comp.mean - sample_mean).max() < 1e-6

        centered = data - sample_mean
        scov = centered.T @ centered.conj() / count
        vals, vecs = np.linalg.eigh(0.5 * (scov + scov.conj().T))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        resid = vals[latent:].mean()
        oracle_loading = vecs[:, :latent] * np.sqrt(np.maximum(vals[:latent] - resid, 0.0))
        oracle = MfaModel(
            (
                MfaComponent(
                    1.0, sample_mean, LowRankCovariance(oracle_loading, np.full(dim, resid))
                ),
            )
        )
        ll_fit = log_likelihood(model, data)
        ll_oracle = dense_mixture_ll(oracle, data)
        assert abs(ll_fit - ll_oracle) < 1e-3

    def test_planted_mixture_likelihood(self):
        rng = np.random.default_rng(23)
        true = make_model(rng, 3, 8, 2, sep=4.0)
        train = sample(true, 50_000, np.random.default_rng(24))
        held = sample(true, 20_000, np.random.default_rng(25)).samples
        model, _ = fit_em(train, 3, 2, FitConfig(max_iter=80, rel_tol=1e-7, seed=1))
        ll_fit = log_likelihood(model, held)
        ll_true = dense_mixture_ll(true, held)
        assert abs(ll_fit - ll_true) < 0.05

    def test_single_iteration_contract(self):
        rng = np.random.default_rng(26)
        data = crandn(rng, 50, 4)
        model, trace = fit_em(ChannelDataset(data), 2, 1, FitConfig(max_iter=1, seed=0))
        assert trace.loglik.shape == (1,)
        assert not trace.converged
        assert model.n_components == 2
        assert abs(model.weights.sum() - 1.0) < 1e-12

    def test_converged_trace_describes_returned_model(self):
        rng = np.random.default_rng(28)
        data = sample(make_model(rng, 2, 5, 2), 300, np.random.default_rng(29)).samples
        model, trace = fit_em(data, 2, 2, FitConfig(max_iter=5, rel_tol=1.0, seed=0))
        assert trace.converged and trace.loglik.shape == (2,)
        assert log_likelihood(model, data) == pytest.approx(trace.loglik[-1], abs=1e-10)

    def test_trace_times_every_iteration(self):
        rng = np.random.default_rng(30)
        data = sample(make_model(rng, 2, 5, 2), 300, np.random.default_rng(31)).samples
        for config in (FitConfig(max_iter=3, seed=0), FitConfig(max_iter=5, rel_tol=1.0, seed=0)):
            _, trace = fit_em(data, 2, 2, config)
            assert trace.seconds.shape == trace.loglik.shape
            assert np.all(trace.seconds > 0)

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(27)
        data = crandn(rng, 3, 4)
        with pytest.raises(ValueError):
            fit_em(ChannelDataset(data), 4, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        rng = np.random.default_rng(29)
        data = crandn(rng, 20, 4)
        data[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_em(ChannelDataset(data), 2, 1)
        with pytest.raises(ValueError, match="non-finite"):
            log_likelihood(make_model(rng, 2, 4, 1), data)

    def test_bad_latent_dim_rejected(self):
        rng = np.random.default_rng(28)
        data = crandn(rng, 10, 4)
        with pytest.raises(ValueError):
            fit_em(ChannelDataset(data), 2, 5)


class TestEStep:
    """Responsibilities and latent posteriors from the stacked kernel at sigma2 = 0,
    the E-step that fit_em runs."""

    def test_single_component_unit_responsibility(self):
        rng = np.random.default_rng(31)
        model = make_model(rng, 1, 6, 2)
        data = crandn(rng, 40, 6)
        resp = estimate(model, 0.0, data).responsibilities
        assert np.array_equal(resp, np.ones((40, 1)))

    def test_well_separated_means(self):
        rng = np.random.default_rng(32)
        model = make_model(rng, 3, 8, 2, sep=30.0, psi=0.1)
        data = model.means
        resp = estimate(model, 0.0, data).responsibilities
        assert np.all(resp.diagonal() > 0.99)
        # direct density-ratio oracle agrees on the winning component
        for t in range(3):
            dens = [
                np.log(c.weight) + dense_logdens(data[t : t + 1], c.mean, dense_cov(c))[0]
                for c in model.components
            ]
            assert int(np.argmax(dens)) == t

    def test_zero_loading_latent_posterior(self):
        dim = 5
        comp = MfaComponent(
            1.0, np.zeros(dim, complex), LowRankCovariance(np.zeros((dim, 2), complex), np.ones(dim))
        )
        stack = stack_mixture((comp,), 0.0)
        rng = np.random.default_rng(33)
        data = crandn(rng, 10, dim)
        latent = np.full((10, 1, 2), np.nan, dtype=complex)
        mixture_logdens(stack, data, np.abs(data) ** 2, latent)
        assert np.abs(latent).max() == 0.0
        assert np.allclose(stack.latent_cov[0], np.eye(2))

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(34)
        model = make_model(rng, 4, 6, 2, sep=1.0)
        data = crandn(rng, 200, 6)
        resp = estimate(model, 0.0, data).responsibilities
        assert np.all(resp >= 0)
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-12


class TestMStep:
    """The parameter update of one fit_em iteration from a given start model."""

    def test_mean_update_is_sample_mean_for_zero_loading(self):
        rng = np.random.default_rng(35)
        dim = 4
        data = crandn(rng, 100, dim) + np.array([1.0, -2.0, 0.5, 3.0])
        comp = MfaComponent(
            1.0, np.zeros(dim, complex), LowRankCovariance(np.zeros((dim, 2), complex), np.ones(dim))
        )
        _, comps = em_update((comp,), data)
        assert np.abs(comps[0].mean - data.mean(axis=0)).max() < 1e-10

    def test_single_sample_psi_hits_floor(self):
        # Each component sits on one of two samples, so it owns that sample alone.
        rng = np.random.default_rng(36)
        data = crandn(rng, 2, 4)
        start = [
            MfaComponent(0.5, data[k], LowRankCovariance(0.01 * crandn(rng, 4, 1), np.full(4, 0.01)))
            for k in range(2)
        ]
        _, comps = em_update(start, data)
        floor = 1e-8 * float(np.mean(np.abs(data) ** 2))
        assert comps[0].cov.diag_term[0] == pytest.approx(floor)
        assert comps[1].cov.diag_term[0] == pytest.approx(floor)

    def test_full_em_step_never_decreases_likelihood(self):
        rng = np.random.default_rng(37)
        model = make_model(rng, 3, 6, 2, sep=2.0)
        data = sample(model, 500, np.random.default_rng(38)).samples
        start = make_model(np.random.default_rng(39), 3, 6, 2, sep=2.0)
        before = log_likelihood(start, data)
        for mode in ("scaled-identity", "shared-diagonal", "diagonal"):
            avg, comps = em_update(start.components, data, mode)
            assert avg == pytest.approx(before, rel=1e-12)
            after = log_likelihood(MfaModel(tuple(comps)), data)
            assert after >= before - 1e-10 * abs(before)


class TestLogLikelihood:
    def test_at_mean_identity(self):
        dim = 7
        comp = MfaComponent(
            1.0, np.ones(dim, complex), LowRankCovariance(np.zeros((dim, 1), complex), np.ones(dim))
        )
        model = MfaModel((comp,))
        data = np.ones((5, dim), complex)
        assert log_likelihood(model, data) == pytest.approx(-dim * np.log(np.pi), abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        model = make_model(rng, 3, 6, 2, sep=2.0)
        data = crandn(rng, 100, 6)
        assert log_likelihood(model, data) == pytest.approx(
            dense_mixture_ll(model, data), abs=1e-9
        )

    def test_duplicate_component_invariance(self):
        rng = np.random.default_rng(42)
        model = make_model(rng, 2, 5, 2)
        data = crandn(rng, 50, 5)
        comps = list(model.components)
        first = comps[0]
        split = (
            MfaComponent(first.weight / 2, first.mean, first.cov),
            MfaComponent(first.weight / 2, first.mean, first.cov),
            comps[1],
        )
        assert log_likelihood(MfaModel(split), data) == pytest.approx(
            log_likelihood(model, data), abs=1e-12
        )


class TestSampling:
    def test_component_frequencies(self):
        rng = np.random.default_rng(43)
        model = make_model(rng, 3, 4, 1, sep=50.0)
        n = 100_000
        draws = sample(model, n, np.random.default_rng(44)).samples
        # classify by nearest mean (components are far apart)
        dist = np.abs(draws[:, None, :] - model.means[None]).sum(axis=2)
        counts = np.bincount(dist.argmin(axis=1), minlength=3)
        for k, w in enumerate(model.weights):
            se = np.sqrt(n * w * (1 - w))
            assert abs(counts[k] - n * w) < 3.5 * se

    def test_seed_determinism(self):
        rng = np.random.default_rng(45)
        model = make_model(rng, 2, 4, 2)
        a = sample(model, 64, np.random.default_rng(7)).samples
        b = sample(model, 64, np.random.default_rng(7)).samples
        assert np.array_equal(a, b)

    def test_single_component_matches_component_sampler(self):
        rng = np.random.default_rng(46)
        model = make_model(rng, 1, 4, 2)
        draws = sample(model, 50_000, np.random.default_rng(47)).samples
        comp = model.components[0]
        ref = sample_component(comp.mean, comp.cov, np.random.default_rng(48), size=50_000)
        assert np.abs(draws.mean(0) - ref.mean(0)).max() < 0.05
        assert abs(np.mean(np.abs(draws) ** 2) - np.mean(np.abs(ref) ** 2)) < 0.1


class TestParameterCount:
    def test_printed_values(self):
        assert parameter_count("mfa", 64, 64, 2) == 12416
        assert parameter_count("gmm-full", 64, 64) == 139328
        assert parameter_count("gmm-circ", 64, 64) == 8256
        assert parameter_count("gmm-toep", 64, 64) == 20544

    def test_odd_dimension_rounds_up(self):
        # N^2/2 rounds up for odd N
        assert parameter_count("gmm-full", 1, 3) == 5 + 6 + 1

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            parameter_count("vae", 1, 4)


class TestEmProperties:
    @pytest.mark.parametrize("mode", ["scaled-identity", "shared-diagonal", "diagonal"])
    def test_monotone_traces(self, mode):
        for seed in range(7):
            rng = np.random.default_rng(100 + seed)
            true = make_model(rng, 2, 5, 2, sep=2.0)
            data = sample(true, 400, np.random.default_rng(200 + seed))
            _, trace = fit_em(
                data, 2, 2, FitConfig(max_iter=40, rel_tol=1e-12, seed=seed, psi_mode=mode)
            )
            diffs = np.diff(trace.loglik)
            slack = 1e-8 * np.abs(trace.loglik[:-1])
            assert np.all(diffs >= -slack)

    def test_planted_recovery(self):
        rng = np.random.default_rng(51)
        true = make_model(rng, 3, 12, 2, sep=8.0, psi=0.05)
        data = sample(true, 12_000, np.random.default_rng(52))
        model, _ = fit_em(data, 3, 2, FitConfig(max_iter=60, rel_tol=1e-8, seed=3))

        cost = np.abs(model.means[:, None, :] - true.means[None]).sum(axis=2)
        fit_idx, true_idx = linear_sum_assignment(cost)
        for f, t in zip(fit_idx, true_idx):
            assert abs(model.components[f].weight - true.components[t].weight) < 0.02
            angles = subspace_angles(
                model.components[f].cov.loading, true.components[t].cov.loading
            )
            assert angles.max() < 0.1

    def test_likelihood_consistency(self):
        # Average log-density of fresh samples matches an independent
        # Monte-Carlo estimate of the negative differential entropy.
        rng = np.random.default_rng(53)
        model = make_model(rng, 2, 8, 2, sep=3.0)
        ll_a = log_likelihood(model, sample(model, 100_000, np.random.default_rng(54)))
        ll_b = dense_mixture_ll(model, sample(model, 100_000, np.random.default_rng(55)).samples)
        assert abs(ll_a - ll_b) < 0.05

    def test_reseed_collapsed(self):
        # The third start component sits far from the data with a vanishing
        # weight, so its responsibility mass collapses in the first iteration.
        rng = np.random.default_rng(56)
        base = make_model(rng, 3, 5, 2, sep=2.0)
        weights = np.array([0.5, 0.5 - 1e-12, 1e-12])
        means = [base.components[0].mean, base.components[1].mean, np.full(5, 50.0 + 0j)]
        broken = MfaModel(
            tuple(MfaComponent(weights[k], means[k], c.cov) for k, c in enumerate(base.components))
        )
        data = sample(base, 200, np.random.default_rng(57)).samples
        _, comps = em_update(broken.components, data, seed=58)
        fixed = MfaModel(tuple(comps))
        assert fixed.n_components == 3
        assert np.all(fixed.weights > 1e-3)
        assert abs(fixed.weights.sum() - 1.0) < 1e-12
        # the re-seeded mean sits on the sample the start model fits worst
        dens = np.stack(
            [dense_logdens(data, c.mean, dense_cov(c)) for c in broken.components]
        )
        mix = np.log(np.exp(dens - dens.max(0)).T @ broken.weights) + dens.max(0)
        worst = data[np.argmin(mix)]
        assert np.abs(fixed.components[2].mean - worst).max() < 1e-12
        # the other components keep their (updated) places
        assert np.abs(fixed.components[0].mean - base.components[0].mean).max() < 2.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        model = make_model(rng, 3, 6, 2)
        path = tmp_path / "model.mfa"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_components == model.n_components
        for a, b in zip(loaded.components, model.components):
            assert a.weight == b.weight
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.cov.loading, b.cov.loading)
            assert np.array_equal(a.cov.diag_term, b.cov.diag_term)

    def test_truncated_rejected(self, tmp_path):
        from mfachest._binio import FileFormatError

        rng = np.random.default_rng(62)
        model = make_model(rng, 2, 4, 1)
        path = tmp_path / "model.mfa"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        from mfachest._binio import FileFormatError

        path = tmp_path / "bogus.mfa"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FileFormatError):
            load_model(path)
