import numpy as np
import pytest

from mfachest.baselines import (
    Dictionary,
    GmmModel,
    build_dft_dictionary,
    fit_gmm,
    fit_sample_lmmse,
    genie_omp,
    genie_omp_batch,
    gmm_estimate,
    gmm_from_mfa,
    gmm_log_likelihood,
    load_gmm,
    ls_estimate,
    omp,
    sample_lmmse_estimate,
    save_gmm,
    toeplitz_transform,
)
from mfachest.estimator import estimate
from mfachest.gaussians import LowRankCovariance
from mfachest.mfa import FitConfig, MfaComponent, MfaModel, sample
from mfachest.scenario import ChannelDataset


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def make_mfa(rng, k_total, dim, latent, sep=4.0, psi=0.3):
    weights = rng.uniform(0.5, 1.5, k_total)
    weights /= weights.sum()
    comps = []
    for k in range(k_total):
        comps.append(
            MfaComponent(
                weights[k],
                sep * crandn(rng, dim),
                LowRankCovariance(crandn(rng, dim, latent), np.full(dim, psi)),
            )
        )
    return MfaModel(tuple(comps))


class TestLsEstimate:
    def test_zero(self):
        assert np.array_equal(ls_estimate(np.zeros(4, complex)), np.zeros(4))

    def test_identity(self):
        rng = np.random.default_rng(90)
        y = crandn(rng, 8)
        assert np.array_equal(ls_estimate(y), y)

    def test_nmse_equals_noise_power(self):
        # With E||h||^2 = N and sigma2 = 10^(-snr/10), LS nMSE is sigma2.
        rng = np.random.default_rng(91)
        h = crandn(rng, 20_000, 8)
        snr_db = 7.0
        sigma2 = 10 ** (-snr_db / 10)
        noise = crandn(rng, 20_000, 8) * np.sqrt(sigma2)
        nmse = float(np.mean(np.abs(ls_estimate(h + noise) - h) ** 2))
        assert nmse == pytest.approx(sigma2, rel=0.03)


class TestDictionary:
    def test_trivial_single_atom(self):
        d = build_dft_dictionary(1, 1, 2, 2)
        assert d.atoms.shape == (1, 1)
        assert d.atoms[0, 0] == pytest.approx(1.0 + 0j)

    def test_dirichlet_inner_products(self):
        d = build_dft_dictionary(1, 2, 2, 2)
        assert d.atoms.shape == (2, 4)
        gram = d.atoms.conj().T @ d.atoms
        for p in range(4):
            for q in range(4):
                want = abs(np.cos(np.pi * (p - q) / 4))
                assert abs(gram[p, q]) == pytest.approx(want, abs=1e-12)

    def test_default_shape_and_norms(self):
        d = build_dft_dictionary(4, 16, 2, 2)
        assert d.atoms.shape == (64, 256)
        assert np.abs(np.linalg.norm(d.atoms, axis=0) - 1.0).max() < 1e-12

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            Dictionary(np.ones((2, 2), complex), "bad")


class TestOmp:
    def test_single_atom_recovery(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        y = 3.0 * d.atoms[:, 5]
        coeffs, est = omp(y, d, 1)
        assert np.flatnonzero(np.abs(coeffs) > 1e-10).tolist() == [5]
        assert coeffs[5] == pytest.approx(3.0 + 0j, abs=1e-12)
        assert np.linalg.norm(y - est) < 1e-12

    def test_three_sparse_recovery(self):
        d = build_dft_dictionary(2, 8, 2, 2)
        # pairwise-orthogonal atoms: even horizontal offsets, vertical offset 2
        idx = [0, 4, 40]
        coeff = np.array([2.0, -1.5 + 1j, 0.8j])
        y = d.atoms[:, idx] @ coeff
        _, est = omp(y, d, 3)
        assert np.linalg.norm(y - est) < 1e-8

    def test_full_sparsity_zero_residual(self):
        rng = np.random.default_rng(92)
        d = build_dft_dictionary(2, 4, 2, 2)
        y = crandn(rng, 8)
        _, est = omp(y, d, 8)
        assert np.linalg.norm(y - est) < 1e-8

    def test_residual_monotone(self):
        rng = np.random.default_rng(93)
        d = build_dft_dictionary(2, 8, 2, 2)
        y = crandn(rng, 16)
        norms = []
        for s in range(1, 10):
            _, est = omp(y, d, s)
            norms.append(np.linalg.norm(y - est))
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_sparsity_bounds(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        with pytest.raises(ValueError):
            omp(np.zeros(8, complex), d, 0)
        with pytest.raises(ValueError):
            omp(np.zeros(8, complex), d, 9)


class TestGenieOmp:
    def test_single_atom(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        y = 2.0 * d.atoms[:, 3]
        got = genie_omp(y, d, y, 4)
        assert np.linalg.norm(got - y) < 1e-12

    def test_prefix_equals_per_depth_reruns(self):
        rng = np.random.default_rng(94)
        d = build_dft_dictionary(2, 8, 2, 2)
        for _ in range(25):
            h = crandn(rng, 16)
            y = h + 0.3 * crandn(rng, 16)
            got = genie_omp(y, d, h, 8)
            best = None
            for s in range(1, 9):
                _, est = omp(y, d, s)
                err = np.linalg.norm(est - h)
                if best is None or err < best[0]:
                    best = (err, est)
            assert np.abs(got - best[1]).max() < 1e-9

    def test_depth_one(self):
        rng = np.random.default_rng(95)
        d = build_dft_dictionary(2, 4, 2, 2)
        y = crandn(rng, 8)
        got = genie_omp(y, d, y, 1)
        _, ref = omp(y, d, 1)
        err_ref = np.linalg.norm(ref - y)
        # depth-1 genie returns the depth-1 estimate unless the zero estimate is closer
        if err_ref <= np.linalg.norm(y):
            assert np.abs(got - ref).max() < 1e-12

    def test_genie_beats_fixed_sparsity(self):
        rng = np.random.default_rng(96)
        d = build_dft_dictionary(2, 8, 2, 2)
        for _ in range(10):
            h = crandn(rng, 16)
            y = h + 0.5 * crandn(rng, 16)
            got = genie_omp(y, d, h, 8)
            err_genie = np.linalg.norm(got - h)
            for s in range(1, 9):
                _, est = omp(y, d, s)
                assert err_genie <= np.linalg.norm(est - h) + 1e-10

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(97)
        d = build_dft_dictionary(2, 8, 2, 2)
        h = crandn(rng, 40, 16)
        y = h + 0.4 * crandn(rng, 40, 16)
        got = genie_omp_batch(y, d, h, 8)
        for t in range(40):
            ref = genie_omp(y[t], d, h[t], 8)
            assert np.abs(got[t] - ref).max() < 1e-8


class TestSampleLmmse:
    def test_rank_one_closed_form(self):
        e1 = np.zeros(4, complex)
        e1[0] = 1.0
        data = np.tile(e1, (10, 1))
        cov = fit_sample_lmmse(ChannelDataset(data))
        assert np.allclose(cov.matrix, np.outer(e1, e1.conj()), atol=1e-14)
        rng = np.random.default_rng(98)
        y = crandn(rng, 4)
        got = sample_lmmse_estimate(cov, 1.0, y)
        assert np.abs(got - 0.5 * y[0] * e1).max() < 1e-12

    def test_huge_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(99)
        data = crandn(rng, 100, 5)
        cov = fit_sample_lmmse(ChannelDataset(data))
        got = sample_lmmse_estimate(cov, 1e12, crandn(rng, 5))
        assert np.abs(got).max() < 1e-10

    def test_large_sample_matches_analytic_mse(self):
        rng = np.random.default_rng(100)
        dim = 6
        root = crandn(rng, dim, dim)
        cov_true = root @ root.conj().T / dim + 0.1 * np.eye(dim)
        chol = np.linalg.cholesky(cov_true)
        draws = crandn(rng, 60_000, dim) @ chol.T
        cov = fit_sample_lmmse(ChannelDataset(draws))
        sigma2 = 0.5
        noise = crandn(rng, 60_000, dim) * np.sqrt(sigma2)
        got = sample_lmmse_estimate(cov, sigma2, draws + noise)
        nmse = float(np.mean(np.abs(got - draws) ** 2))
        shifted = cov_true + sigma2 * np.eye(dim)
        want = np.trace(cov_true - cov_true @ np.linalg.solve(shifted, cov_true)).real / dim
        assert nmse == pytest.approx(want, rel=0.03)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0, 0.0])
    def test_rejects_bad_sigma2(self, sigma2):
        rng = np.random.default_rng(113)
        cov = fit_sample_lmmse(ChannelDataset(crandn(rng, 50, 4)))
        with pytest.raises(ValueError):
            sample_lmmse_estimate(cov, sigma2, crandn(rng, 4))


class TestSampleValidation:
    @pytest.mark.parametrize(
        "fit",
        [
            fit_sample_lmmse,
            lambda data: fit_gmm(data, 2, "full", FitConfig(max_iter=2)),
            lambda data: gmm_log_likelihood(
                GmmModel("circulant", np.array([1.0]), np.zeros((1, 4)), spectra=np.ones((1, 4))),
                data,
            ),
        ],
        ids=["fit_sample_lmmse", "fit_gmm", "gmm_log_likelihood"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_samples(self, fit, bad):
        data = crandn(np.random.default_rng(114), 20, 4)
        data[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(ChannelDataset(data))


class TestFitGmm:
    def test_full_single_component_is_sample_covariance(self):
        rng = np.random.default_rng(101)
        data = crandn(rng, 500, 5) + crandn(rng, 5)
        model, _ = fit_gmm(ChannelDataset(data), 1, "full", FitConfig(max_iter=2, seed=0))
        mean = data.mean(axis=0)
        xc = data - mean
        want = xc.T @ xc.conj() / 500
        assert np.abs(model.means[0] - mean).max() < 1e-10
        assert np.abs(model.covariances[0] - want).max() < 1e-10

    def test_circulant_spectrum_recovery(self):
        rng = np.random.default_rng(102)
        dim = 8
        spectrum = rng.uniform(0.5, 3.0, dim)
        dft = np.fft.fft(np.eye(dim), norm="ortho")
        chol_spec = dft.conj().T * np.sqrt(spectrum)
        draws = crandn(rng, 50_000, dim) @ chol_spec.T
        model, _ = fit_gmm(ChannelDataset(draws), 1, "circulant", FitConfig(max_iter=3, seed=0))
        rel = np.abs(model.spectra[0] - spectrum) / spectrum
        assert rel.max() < 0.05

    def test_toeplitz_projection_idempotent(self):
        rng = np.random.default_rng(103)
        dim = 6
        q = toeplitz_transform(dim)
        spectrum = rng.uniform(0.5, 2.0, 2 * dim)
        target = q.conj().T @ (spectrum[:, None] * q)
        chol = np.linalg.cholesky(target)
        draws = crandn(rng, 120_000, dim) @ chol.T
        model, _ = fit_gmm(ChannelDataset(draws), 1, "toeplitz", FitConfig(max_iter=2, seed=0))
        rebuilt = q.conj().T @ (model.spectra[0][:, None] * q)
        xc = draws - draws.mean(axis=0)
        scatter = xc.T @ xc.conj() / draws.shape[0]
        # the projection of an (empirically near-)Toeplitz scatter stays close to it
        assert np.linalg.norm(rebuilt - scatter) < 5e-2 * np.linalg.norm(scatter)

    def test_toeplitz_projection_exact_on_structured_input(self):
        from mfachest.baselines import _project_toeplitz

        rng = np.random.default_rng(104)
        dim = 6
        q = toeplitz_transform(dim)
        spectrum = rng.uniform(0.5, 2.0, 2 * dim)
        target = q.conj().T @ (spectrum[:, None] * q)
        diag = np.einsum("in,nm,im->i", q, target, q.conj()).real
        sol = _project_toeplitz(diag, 1e-12, dim)
        rebuilt = q.conj().T @ (sol[:, None] * q)
        assert np.linalg.norm(rebuilt - target) < 1e-8

    def test_too_few_samples(self):
        rng = np.random.default_rng(105)
        with pytest.raises(ValueError):
            fit_gmm(ChannelDataset(crandn(rng, 2, 4)), 3, "full")

    def test_full_em_monotone(self):
        rng = np.random.default_rng(106)
        true = make_mfa(rng, 2, 5, 2, sep=3.0)
        data = sample(true, 800, np.random.default_rng(107))
        _, trace = fit_gmm(data, 2, "full", FitConfig(max_iter=30, rel_tol=1e-12, seed=1))
        diffs = np.diff(trace.loglik)
        assert np.all(diffs >= -1e-8 * np.abs(trace.loglik[:-1]))


class TestGmmEstimate:
    def test_single_component_zero_mean_is_lmmse(self):
        rng = np.random.default_rng(108)
        dim = 5
        root = crandn(rng, dim, dim)
        cov = root @ root.conj().T / dim
        model = GmmModel(
            "full", np.array([1.0]), np.zeros((1, dim), complex), covariances=cov[None]
        )
        sigma2 = 0.6
        y = crandn(rng, dim)
        got = gmm_estimate(model, sigma2, y)
        want = cov @ np.linalg.solve(cov + sigma2 * np.eye(dim), y)
        assert np.abs(got - want).max() < 1e-12

    def test_flat_circulant_spectrum(self):
        dim = 6
        model = GmmModel(
            "circulant",
            np.array([1.0]),
            np.zeros((1, dim), complex),
            spectra=np.ones((1, dim)),
        )
        rng = np.random.default_rng(109)
        y = crandn(rng, dim)
        got = gmm_estimate(model, 0.5, y)
        assert np.abs(got - y / 1.5).max() < 1e-12

    def test_full_from_mfa_matches_mfa_estimator(self):
        rng = np.random.default_rng(110)
        mfa_model = make_mfa(rng, 3, 6, 2)
        gmm = gmm_from_mfa(mfa_model)
        sigma2 = 0.4
        y = crandn(rng, 200, 6)
        got = gmm_estimate(gmm, sigma2, y)
        want = estimate(mfa_model, sigma2, y).value
        assert np.abs(got - want).max() < 1e-10

    def test_structured_matches_dense_operations(self):
        rng = np.random.default_rng(111)
        dim = 8
        for structure, bins in (("circulant", dim), ("toeplitz", 2 * dim)):
            spectra = rng.uniform(0.5, 2.0, (2, bins))
            means = crandn(rng, 2, dim)
            model = GmmModel(structure, np.array([0.5, 0.5]), means, spectra=spectra)
            dense = model.dense_covariances()
            dense_model = GmmModel("full", np.array([0.5, 0.5]), means, covariances=dense)
            y = crandn(rng, 50, dim)
            got = gmm_estimate(model, 0.7, y)
            want = gmm_estimate(dense_model, 0.7, y)
            assert np.abs(got - want).max() < 1e-9

    def test_log_likelihood_matches_dense(self):
        rng = np.random.default_rng(112)
        dim = 6
        spectra = rng.uniform(0.5, 2.0, (2, dim))
        means = crandn(rng, 2, dim)
        model = GmmModel("circulant", np.array([0.3, 0.7]), means, spectra=spectra)
        dense_model = GmmModel(
            "full", np.array([0.3, 0.7]), means, covariances=model.dense_covariances()
        )
        data = crandn(rng, 100, dim)
        assert gmm_log_likelihood(model, data) == pytest.approx(
            gmm_log_likelihood(dense_model, data), abs=1e-9
        )


    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_sigma2(self, structure, sigma2):
        rng = np.random.default_rng(115)
        dim = 4
        if structure == "full":
            model = gmm_from_mfa(make_mfa(rng, 2, dim, 1))
        else:
            bins = 2 * dim if structure == "toeplitz" else dim
            model = GmmModel(
                structure, np.array([0.5, 0.5]), crandn(rng, 2, dim),
                spectra=rng.uniform(0.5, 2.0, (2, bins)),
            )
        with pytest.raises(ValueError):
            gmm_estimate(model, sigma2, crandn(rng, 3, dim))


class TestGmmSerialization:
    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    def test_round_trip(self, structure, tmp_path):
        rng = np.random.default_rng(113)
        dim = 5
        means = crandn(rng, 2, dim)
        weights = np.array([0.4, 0.6])
        if structure == "full":
            root = crandn(rng, dim, dim)
            cov = root @ root.conj().T / dim + 0.2 * np.eye(dim)
            model = GmmModel(structure, weights, means, covariances=np.stack([cov, 2 * cov]))
        else:
            bins = 2 * dim if structure == "toeplitz" else dim
            model = GmmModel(structure, weights, means, spectra=rng.uniform(0.3, 2.0, (2, bins)))
        path = tmp_path / "model.gmm"
        save_gmm(model, path)
        loaded = load_gmm(path)
        assert loaded.structure == model.structure
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.means, model.means)
        if structure == "full":
            assert np.array_equal(loaded.covariances, model.covariances)
        else:
            assert np.array_equal(loaded.spectra, model.spectra)

    def test_corrupted_rejected(self, tmp_path):
        from mfachest._binio import FileFormatError

        rng = np.random.default_rng(114)
        model = GmmModel(
            "circulant",
            np.array([1.0]),
            crandn(rng, 1, 4),
            spectra=rng.uniform(0.5, 1.0, (1, 4)),
        )
        path = tmp_path / "model.gmm"
        save_gmm(model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")  # bad version
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_gmm(path)
