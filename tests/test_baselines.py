import re
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfachest import baselines, gaussians, mfa
from mfachest.baselines import (
    EIG_FLOOR_REL,
    GMM_STRUCTURES,
    Dictionary,
    GmmModel,
    _GmmFamily,
    _m_step,
    _project_toeplitz,
    build_dft_dictionary,
    fit_gmm,
    fit_sample_lmmse,
    genie_omp_batch,
    gmm_estimate,
    gmm_from_mfa,
    load_gmm,
    ls_estimate,
    save_gmm,
    toeplitz_transform,
)
from mfachest.estimator import estimate
from mfachest.gaussians import ConditioningError
from mfachest.mfa import PSI_FLOOR_REL, FitConfig, MfaModel, _em_step, log_likelihood
from mfachest.scenario import (
    ChannelDataset,
    ScenarioConfig,
    corrupt,
    generate_channels,
)
from oracles import (
    collapsing_data,
    crandn,
    dense_conditional_mean,
    dense_gmm_pass,
    dense_logdens,
    em_problems,
    genie_omp_full_depth,
    gmm_models,
    kernel_responsibilities,
    make_model,
    posterior,
    sample,
    steering_batch,
    traced_peak,
)


def e_step_log_likelihood(model, samples):
    """Average log-likelihood of a GmmModel over samples (T, N): the value
    fit_gmm's E-step records in its trace, for a circulant model the dense
    oracle's."""
    samples = np.asarray(samples, dtype=complex)
    if model.structure == "circulant":
        return posterior(dense_logdens(model, 0.0, samples))[1].mean()
    return _GmmFamily(model.structure, samples).e_step(samples, model)[0]


def circulant_family(samples):
    """The unitary DFT rows of samples (T, N) and fit_gmm's circulant math on
    them: L = 0 factor analyzers with per-component diagonals."""
    rows = np.fft.fft(samples, norm="ortho")
    return rows, mfa._MfaFamily(0, "diagonal", rows)


def circulant_view(model):
    """A circulant GmmModel as the L = 0 MfaModel it is on the DFT rows."""
    k_total, dim = model.params.shape
    means = np.fft.fft(model.means, norm="ortho")
    return MfaModel(model.weights, means, np.zeros((k_total, dim, 0)), model.params)


def circulant_m_step(samples, resp):
    """fit_gmm's circulant M-step on the weights ``resp`` (T, K): the L = 0
    diagonal update on the DFT rows, its E-step fed ``resp`` in place of the
    responsibilities. Returns the means on the DFT rows and the spectra."""
    rows, family = circulant_family(samples)
    k_total, dim = resp.shape[1], samples.shape[1]
    model = MfaModel(np.full(k_total, 1.0 / k_total), np.zeros((k_total, dim)),
                     np.zeros((k_total, dim, 0)), np.ones((k_total, dim)))
    offset = 0

    def injected(logdens):
        nonlocal offset
        offset += len(logdens)
        return resp[offset - len(logdens):offset].copy(), posterior(logdens)[1]

    with patch.object(gaussians, "responsibilities", injected):
        stats = family.e_step(rows, model)[3]
    means, (_, spectra) = family.m_step(rows, model, stats, np.ones(k_total, dtype=bool))
    return means, spectra


def m_step(structure, samples, resp):
    """fit_gmm's M-step of any structure on the weights ``resp`` (T, K): the
    means (K, N) and the covariance parameters."""
    if structure != "circulant":
        power = baselines._toeplitz_power(samples) if structure == "toeplitz" else None
        return _m_step(structure, samples, resp, power)
    means, spectra = circulant_m_step(samples, resp)
    return np.fft.ifft(means, norm="ortho"), spectra


class TestLsEstimate:
    def test_zero(self):
        assert np.array_equal(ls_estimate(np.zeros(4, complex)), np.zeros(4))

    def test_identity(self):
        rng = np.random.default_rng(90)
        y = crandn(rng, 8)
        assert np.array_equal(ls_estimate(y), y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        y = np.zeros((3, 4), complex)
        y[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ls_estimate(y)

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
            Dictionary(np.ones((2, 2), complex))


def reference_omp_prefixes(y, dictionary, sparsity):
    """Scalar OMP with a dense least-squares refit on the support at every step.

    The reference for ``genie_omp_batch``: the same atom choice and stopping
    rule, computed without an orthonormal basis. Returns the coefficients of
    the last step and the estimates of every prefix, the zero one first.
    """
    atoms = dictionary.atoms
    if not 1 <= sparsity <= dictionary.dim:
        raise ValueError("sparsity must satisfy 1 <= s <= N")
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    support = []
    solution = np.zeros(0, dtype=np.complex128)
    residual = y.copy()
    prefixes = [np.zeros_like(y)]
    tol = 1e-12 * max(float(np.linalg.norm(y)), 1.0)
    for _ in range(sparsity):
        corr = np.abs(atoms.conj().T @ residual)
        if support:
            corr[support] = -1.0
        pick = int(corr.argmax())
        if corr[pick] <= tol:
            break
        if support:
            basis = atoms[:, support]
            coef, *_ = np.linalg.lstsq(basis, atoms[:, pick], rcond=None)
            if np.linalg.norm(atoms[:, pick] - basis @ coef) <= 1e-10:
                break
        support.append(pick)
        basis = atoms[:, support]
        solution, *_ = np.linalg.lstsq(basis, y, rcond=None)
        prefixes.append(basis @ solution)
        residual = y - prefixes[-1]
    coeffs = np.zeros(dictionary.n_atoms, dtype=np.complex128)
    coeffs[support] = solution
    return coeffs, prefixes


def reference_omp(y, dictionary, sparsity):
    """(coefficients, estimate) of the dense reference OMP at one sparsity."""
    coeffs, prefixes = reference_omp_prefixes(y, dictionary, sparsity)
    return coeffs, prefixes[-1]


def reference_genie_omp(y, dictionary, h_true, s_max):
    """The prefix of the dense reference OMP closest to ``h_true``, first on ties."""
    depth = min(s_max, dictionary.dim, dictionary.n_atoms)
    _, prefixes = reference_omp_prefixes(y, dictionary, depth)
    errs = [np.linalg.norm(est - h_true) for est in prefixes]
    return prefixes[int(np.argmin(errs))]


class TestOmp:
    def test_single_atom_recovery(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        y = 3.0 * d.atoms[:, 5]
        coeffs, est = reference_omp(y, d, 1)
        assert np.flatnonzero(np.abs(coeffs) > 1e-10).tolist() == [5]
        assert coeffs[5] == pytest.approx(3.0 + 0j, abs=1e-12)
        assert np.linalg.norm(y - est) < 1e-12
        assert np.linalg.norm(y - genie_omp_batch(y, d, y, 1)) < 1e-12

    def test_three_sparse_recovery(self):
        d = build_dft_dictionary(2, 8, 2, 2)
        # pairwise-orthogonal atoms: even horizontal offsets, vertical offset 2
        idx = [0, 4, 40]
        coeff = np.array([2.0, -1.5 + 1j, 0.8j])
        y = d.atoms[:, idx] @ coeff
        _, est = reference_omp(y, d, 3)
        assert np.linalg.norm(y - est) < 1e-8
        assert np.linalg.norm(y - genie_omp_batch(y, d, y, 3)) < 1e-8

    def test_full_sparsity_zero_residual(self):
        rng = np.random.default_rng(92)
        d = build_dft_dictionary(2, 4, 2, 2)
        y = crandn(rng, 8)
        _, est = reference_omp(y, d, 8)
        assert np.linalg.norm(y - est) < 1e-8
        assert np.linalg.norm(y - genie_omp_batch(y, d, y, 8)) < 1e-8

    def test_residual_monotone(self):
        rng = np.random.default_rng(93)
        d = build_dft_dictionary(2, 8, 2, 2)
        y = crandn(rng, 16)
        norms = []
        for s in range(1, 10):
            _, est = reference_omp(y, d, s)
            norms.append(np.linalg.norm(y - est))
            # With the observation as the genie's truth, the deepest prefix wins.
            assert np.abs(genie_omp_batch(y, d, y, s) - est).max() < 1e-10
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_sparsity_bounds(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        with pytest.raises(ValueError):
            reference_omp(np.zeros(8, complex), d, 0)
        with pytest.raises(ValueError):
            reference_omp(np.zeros(8, complex), d, 9)
        with pytest.raises(ValueError):
            genie_omp_batch(np.zeros(8, complex), d, np.zeros(8, complex), 0)
        y = crandn(np.random.default_rng(116), 8)
        assert np.array_equal(genie_omp_batch(y, d, y, 9), genie_omp_batch(y, d, y, 8))

    def test_rejects_mismatched_shapes(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        with pytest.raises(ValueError):
            genie_omp_batch(np.zeros((2, 7), complex), d, np.zeros((2, 7), complex), 2)
        with pytest.raises(ValueError):
            genie_omp_batch(np.zeros((2, 8), complex), d, np.zeros((3, 8), complex), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        d = build_dft_dictionary(2, 4, 2, 2)
        y = crandn(np.random.default_rng(117), 3, 8)
        broken = y.copy()
        broken[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            genie_omp_batch(broken, d, y, 2)
        with pytest.raises(ValueError, match="non-finite"):
            genie_omp_batch(y, d, broken, 2)

    def test_errors_name_the_truths(self):
        d = build_dft_dictionary(2, 4)
        with pytest.raises(ValueError, match="truth contains non-finite entries"):
            genie_omp_batch(np.ones(8), d, np.full(8, np.nan), 2)
        with pytest.raises(ValueError, match="truth dimension 6 != model dimension 8"):
            genie_omp_batch(np.ones(8), d, np.ones(6), 2)


class TestGenieOmp:
    def test_single_atom(self):
        d = build_dft_dictionary(2, 4, 2, 2)
        y = 2.0 * d.atoms[:, 3]
        got = genie_omp_batch(y, d, y, 4)
        assert np.linalg.norm(got - y) < 1e-12

    def test_on_grid_steering_vector_is_one_atom(self):
        # Pins scenario's steering layout to the dictionary's atom order: on the
        # default 4x16 URA these angles put the phase steps on the 2x oversampled
        # grid, -1/8 of a turn per vertical and -3/32 per horizontal element, so
        # the steering vector is sqrt(N) times atom 32 * 1 + 3.
        config = ScenarioConfig()
        el = np.arcsin(-1.0 / 8.0)
        az = np.arcsin(-3.0 / (16.0 * np.cos(el)))
        a = steering_batch(np.array([az]), np.array([el]), config)[0]
        d = build_dft_dictionary(config.nv, config.nh)
        assert np.abs(a - 8.0 * d.atoms[:, 35]).max() < 1e-12
        corr = np.sort(np.abs(d.atoms.conj().T @ a)) / 8.0
        assert corr[-1] == pytest.approx(1.0, abs=1e-12)
        assert corr[-2] < 0.7
        h = (0.6 - 0.3j) * a
        assert np.abs(genie_omp_batch(h, d, h, 1) - h).max() < 1e-13 * np.abs(h).max()

    def test_prefix_equals_per_depth_reruns(self):
        rng = np.random.default_rng(94)
        d = build_dft_dictionary(2, 8, 2, 2)
        for _ in range(25):
            h = crandn(rng, 16)
            y = h + 0.3 * crandn(rng, 16)
            got = genie_omp_batch(y, d, h, 8)
            best = None
            for s in range(1, 9):
                _, est = reference_omp(y, d, s)
                err = np.linalg.norm(est - h)
                if best is None or err < best[0]:
                    best = (err, est)
            assert np.abs(got - best[1]).max() < 1e-9

    def test_depth_one(self):
        rng = np.random.default_rng(95)
        d = build_dft_dictionary(2, 4, 2, 2)
        y = crandn(rng, 8)
        got = genie_omp_batch(y, d, y, 1)
        _, ref = reference_omp(y, d, 1)
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
            got = genie_omp_batch(y, d, h, 8)
            err_genie = np.linalg.norm(got - h)
            for s in range(1, 9):
                _, est = reference_omp(y, d, s)
                assert err_genie <= np.linalg.norm(est - h) + 1e-10

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(97)
        d = build_dft_dictionary(2, 8, 2, 2)
        h = crandn(rng, 40, 16)
        y = h + 0.4 * crandn(rng, 40, 16)
        got = genie_omp_batch(y, d, h, 8)
        for t in range(40):
            ref = reference_genie_omp(y[t], d, h[t], 8)
            assert np.abs(got[t] - ref).max() < 1e-9

    @pytest.mark.parametrize(
        "atoms, y, want",
        [
            # residual correlation 1e-7 <= 1e-12 * ||y||: stops after one atom
            (np.eye(2), [1e6, 1e-7], [1e6, 0.0]),
            # ||y|| < 1: the threshold is 1e-12, so no atom is picked
            (np.eye(2), [1e-13, 0.0], [0.0, 0.0]),
            # a2 = e1 lies within 1e-11 of the span of the first pick, a1: stops there
            (
                np.array([[1.0, 1.0], [1e-11, 0.0]]) / np.array([np.hypot(1.0, 1e-11), 1.0]),
                [1.0, 1.0],
                [1.0 + 1e-11, 1e-11],
            ),
        ],
        ids=["small-residual", "small-observation", "dependent-atom"],
    )
    def test_stopping_rule(self, atoms, y, want):
        d = Dictionary(atoms.astype(complex))
        y = np.array(y, dtype=complex)
        # With the observation as truth, the genie returns the deepest prefix.
        got = genie_omp_batch(y, d, y, 2)
        assert np.abs(got - want).max() < 1e-13
        assert np.abs(reference_genie_omp(y, d, y, 2) - want).max() < 1e-13

    @given(data=st.data())
    def test_batch_matches_dense_reference(self, data):
        d = build_dft_dictionary(
            data.draw(st.integers(1, 3), label="nv"),
            data.draw(st.integers(1, 4), label="nh"),
            data.draw(st.integers(1, 3), label="oversampling_v"),
            data.draw(st.integers(1, 3), label="oversampling_h"),
        )
        dim = d.dim
        s_max = data.draw(st.integers(1, dim + 3), label="s_max")
        kinds = data.draw(
            st.lists(st.sampled_from(["noisy", "zero", "sparse"]), min_size=1, max_size=6),
            label="rows",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        h = crandn(rng, len(kinds), dim)
        y = h + 0.3 * crandn(rng, len(kinds), dim)
        for t, kind in enumerate(kinds):
            if kind == "zero":
                y[t] = 0.0
            elif kind == "sparse":
                # In the span of a few atoms: the residual vanishes before s_max.
                count = int(rng.integers(1, min(3, dim) + 1))
                idx = rng.choice(d.n_atoms, size=count, replace=False)
                y[t] = d.atoms[:, idx] @ crandn(rng, count)
        got = genie_omp_batch(y, d, h, s_max)
        for t in range(len(kinds)):
            assert np.abs(got[t] - reference_genie_omp(y[t], d, h[t], s_max)).max() < 1e-9
        t = data.draw(st.integers(0, len(kinds) - 1), label="single row")
        single = genie_omp_batch(y[t], d, h[t], s_max)
        assert single.shape == (dim,)
        assert np.array_equal(single, genie_omp_batch(y[t : t + 1], d, h[t : t + 1], s_max)[0])

    @given(data=st.data())
    def test_early_stop_matches_full_depth(self, data):
        # The early stop returns the full-depth run's estimates bit for bit:
        # noise from -10 to 40 dB, noiseless rows (h = y), zero observations
        # and zero truths, rows in the span of a few atoms, and dictionaries
        # with duplicated atoms.
        d = build_dft_dictionary(
            data.draw(st.integers(1, 3), label="nv"),
            data.draw(st.integers(1, 4), label="nh"),
            data.draw(st.integers(1, 3), label="oversampling_v"),
            data.draw(st.integers(1, 3), label="oversampling_h"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="duplicate atoms"):
            copies = rng.integers(d.n_atoms, size=rng.integers(1, d.n_atoms + 1))
            d = Dictionary(np.concatenate([d.atoms, d.atoms[:, copies]], axis=1))
        dim = d.dim
        s_max = data.draw(st.integers(1, dim + 3), label="s_max")
        kinds = data.draw(
            st.lists(st.sampled_from(["noisy", "exact", "zero", "zero-truth", "sparse"]),
                     min_size=1, max_size=8),
            label="rows",
        )
        snr_db = data.draw(st.lists(st.floats(-10.0, 40.0), min_size=len(kinds),
                                    max_size=len(kinds)), label="snr_db")
        h = crandn(rng, len(kinds), dim)
        for t, kind in enumerate(kinds):
            if kind == "sparse":
                count = int(rng.integers(1, min(3, dim) + 1))
                idx = rng.choice(d.n_atoms, size=count, replace=False)
                h[t] = d.atoms[:, idx] @ crandn(rng, count)
        y = h + 10.0 ** (-np.array(snr_db)[:, None] / 20.0) * crandn(rng, len(kinds), dim)
        for t, kind in enumerate(kinds):
            if kind == "exact":
                y[t] = h[t]
            elif kind == "zero":
                y[t] = 0.0
            elif kind == "zero-truth":
                h[t] = 0.0
        want = genie_omp_full_depth(y, d.atoms, h, min(s_max, dim, d.n_atoms))
        assert np.array_equal(genie_omp_batch(y, d, h, s_max), want)
        t = data.draw(st.integers(0, len(kinds) - 1), label="single row")
        assert np.array_equal(genie_omp_batch(y[t], d, h[t], s_max), want[t])

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, None])
    def test_early_stop_matches_full_depth_at_paper_scale(self, snr_db):
        # The benchmark's shape: the 4x16 URA, rows that stop at every depth,
        # and the working set shrunk several times; None is the noiseless h = y.
        config = ScenarioConfig()
        rng = np.random.default_rng(98)
        h = generate_channels(config, 48, rng).samples
        y = h if snr_db is None else corrupt(h, snr_db, rng)[0]
        d = build_dft_dictionary(config.nv, config.nh)
        for s_max in (64, 20):
            want = genie_omp_full_depth(y, d.atoms, h, s_max)
            assert np.array_equal(genie_omp_batch(y, d, h, s_max), want)

    @pytest.mark.parametrize(
        "atoms, y",
        [
            (np.eye(2), [1e6, 1e-7]),
            (np.eye(2), [1e-13, 0.0]),
            (
                np.array([[1.0, 1.0], [1e-11, 0.0]]) / np.array([np.hypot(1.0, 1e-11), 1.0]),
                [1.0, 1.0],
            ),
        ],
        ids=["small-residual", "small-observation", "dependent-atom"],
    )
    def test_early_stop_keeps_frozen_rows(self, atoms, y):
        # The stopping rule's rows of test_stopping_rule, against truths that
        # the early stop can act on.
        d = Dictionary(atoms.astype(complex))
        y = np.array(y, dtype=complex)
        truths = np.stack([y, 0.5 * y, y + np.array([1e-3, -1e-3]), np.zeros(2), [0.0, 1.0]])
        obs = np.repeat(y[None], len(truths), axis=0)
        want = genie_omp_full_depth(obs, d.atoms, truths.astype(complex), 2)
        assert np.array_equal(genie_omp_batch(obs, d, truths, 2), want)


class TestSampleLmmse:
    def test_rank_one_closed_form(self):
        e1 = np.zeros(4, complex)
        e1[0] = 1.0
        data = np.tile(e1, (10, 1))
        cov = fit_sample_lmmse(ChannelDataset(data))
        assert np.allclose(cov.params[0], np.outer(e1, e1.conj()), atol=1e-14)
        rng = np.random.default_rng(98)
        y = crandn(rng, 4)
        got = gmm_estimate(cov, 1.0, y)
        assert np.abs(got - 0.5 * y[0] * e1).max() < 1e-12

    def test_huge_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(99)
        data = crandn(rng, 100, 5)
        cov = fit_sample_lmmse(ChannelDataset(data))
        got = gmm_estimate(cov, 1e12, crandn(rng, 5))
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
        got = gmm_estimate(cov, sigma2, draws + noise)
        nmse = float(np.mean(np.abs(got - draws) ** 2))
        shifted = cov_true + sigma2 * np.eye(dim)
        want = np.trace(cov_true - cov_true @ np.linalg.solve(shifted, cov_true)).real / dim
        assert nmse == pytest.approx(want, rel=0.03)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_sigma2(self, sigma2):
        rng = np.random.default_rng(113)
        cov = fit_sample_lmmse(ChannelDataset(crandn(rng, 50, 4)))
        with pytest.raises(ValueError):
            gmm_estimate(cov, sigma2, crandn(rng, 4))

    def test_zero_sigma2_returns_observation(self):
        # The sigma2 contract of estimate and gmm_estimate: no noise, no change.
        rng = np.random.default_rng(113)
        cov = fit_sample_lmmse(ChannelDataset(crandn(rng, 50, 4)))
        y = crandn(rng, 7, 4)
        assert np.array_equal(gmm_estimate(cov, 0.0, y), y)
        assert np.array_equal(gmm_estimate(cov, 0.0, y[2]), y[2])

    @pytest.mark.parametrize("sigma2", [0.0, 1e-320])
    def test_singular_covariance_raises(self, sigma2):
        # An entry that is zero in every sample leaves C singular; a subnormal
        # sigma2 on its diagonal overflows the solve instead of failing it.
        rng = np.random.default_rng(118)
        data = crandn(rng, 50, 4)
        data[:, 3] = 0.0
        cov = fit_sample_lmmse(ChannelDataset(data))
        with pytest.raises(ConditioningError):
            gmm_estimate(cov, sigma2, crandn(rng, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_observation(self, bad):
        rng = np.random.default_rng(117)
        cov = fit_sample_lmmse(ChannelDataset(crandn(rng, 50, 4)))
        y = crandn(rng, 4)
        y[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gmm_estimate(cov, 1.0, y)

    def test_overflowing_estimate_raises(self):
        # Three Cholesky pivots near 1e-160 pass, and the whitened rows then
        # overflow |z|^2: no warning and no non-finite estimate may escape.
        cov = np.zeros((4, 4), complex)
        cov[0, 0] = 1.0
        model = GmmModel("full", [1.0], np.zeros((1, 4)), cov[None])
        y = crandn(np.random.default_rng(119), 3, 4)
        with pytest.raises(ConditioningError, match="not finite"):
            gmm_estimate(model, 1e-320, y)

    @given(
        st.integers(1, 8),
        st.data(),
        st.floats(1e-3, 10.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, dim, data, sigma2, seed):
        # Oracle: the dense solve C (C + sigma2 I)^{-1} y = y - sigma2 (C + sigma2 I)^{-1} y.
        count = data.draw(st.integers(1, 3 * dim), label="T")
        rank = data.draw(st.integers(0, dim), label="rank")
        rng = np.random.default_rng(seed)
        samples = crandn(rng, count, rank) @ crandn(rng, rank, dim)
        y = crandn(rng, 5, dim)
        cov = samples.T @ samples.conj() / count
        cov = 0.5 * (cov + cov.conj().T)
        want = y - sigma2 * np.linalg.solve(cov + sigma2 * np.eye(dim), y.T).T
        got = gmm_estimate(fit_sample_lmmse(ChannelDataset(samples)), sigma2, y)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(y).max()


class TestSampleValidation:
    @pytest.mark.parametrize(
        "fit",
        [
            fit_sample_lmmse,
            lambda data: fit_gmm(data, 2, "full", FitConfig(max_iter=2)),
        ],
        ids=["fit_sample_lmmse", "fit_gmm"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_samples(self, fit, bad):
        data = crandn(np.random.default_rng(114), 20, 4)
        data[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(ChannelDataset(data))

    @pytest.mark.parametrize(
        "apply, shape",
        [
            (lambda y: estimate(
                make_model(np.random.default_rng(116), 2, 4, 1), 0.1, y
            ), (2, 4, 4)),
            (lambda y: gmm_estimate(
                GmmModel("circulant", np.array([1.0]), np.zeros((1, 4)), np.ones((1, 4))), 0.1, y
            ), (2, 4, 4)),
            (lambda y: gmm_estimate(
                GmmModel("full", [1.0], np.zeros((1, 4)), np.eye(4)[None]), 0.1, y
            ), (2, 4, 4)),
            (lambda y: estimate(make_model(np.random.default_rng(116), 1, 1, 1), 0.5, y), ()),
            (lambda y: gmm_estimate(
                gmm_from_mfa(make_model(np.random.default_rng(116), 1, 1, 1)), 0.5, y
            ), ()),
            (ls_estimate, ()),
        ],
        ids=["estimate", "gmm_estimate", "sample_lmmse_estimate",
             "estimate-0d", "gmm_estimate-0d", "ls_estimate-0d"],
    )
    def test_rejects_observations_above_two_dimensions(self, apply, shape):
        # The middle axis equals N, so the (B, N) dimension check alone passes
        # them; a 0-d observation would pass as a (1, 1) batch on an N=1 model.
        y = crandn(np.random.default_rng(117), *shape)
        got = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"must be \(N,\) or \(B, N\), got shape {got}"):
            apply(y)


_STRUCTURED = ("toeplitz", "circulant")
# (case, structures, field, index, value, message): one entry of a valid model set to value.
_GMM_MODEL_REJECTIONS = [
    ("nan-weight", GMM_STRUCTURES, "weights", 0, np.nan, "finite"),
    ("inf-weight", GMM_STRUCTURES, "weights", 0, np.inf, "finite"),
    ("nan-mean", GMM_STRUCTURES, "means", (0, 1), np.nan, "means must be finite"),
    ("inf-mean", GMM_STRUCTURES, "means", (1, 0), np.inf, "means must be finite"),
    ("nan-param", GMM_STRUCTURES, "params", (1, 0), np.nan, "must be finite"),
    ("inf-param", GMM_STRUCTURES, "params", (0, 2), np.inf, "must be finite"),
    ("weight-sum", GMM_STRUCTURES, "weights", 1, 0.6, "sum to 1"),
    ("negative-spectrum", _STRUCTURED, "params", (1, 1), -0.1, "nonnegative"),
    ("non-hermitian", ("full",), "params", (0, 0, 1), 0.5, "Hermitian"),
    ("non-psd", ("full",), "params", (1, 2, 2), -1.0, "not PSD"),
]


class TestGmmModel:
    @staticmethod
    def valid_arrays(structure, dim=3):
        if structure == "full":
            params = np.stack([np.eye(dim, dtype=complex)] * 2)
        else:
            params = np.ones((2, 2 * dim if structure == "toeplitz" else dim))
        return {"weights": np.full(2, 0.5), "means": np.zeros((2, dim), complex), "params": params}

    @pytest.mark.parametrize(
        "structure, field, index, value, message",
        [pytest.param(structure, *edit, id=f"{structure}-{case}")
         for case, structures, *edit in _GMM_MODEL_REJECTIONS for structure in structures],
    )
    def test_rejects_invalid_arrays(self, structure, field, index, value, message):
        arrays = self.valid_arrays(structure)
        GmmModel(structure, **arrays)
        arrays[field][index] = value
        with pytest.raises(ValueError, match=message):
            GmmModel(structure, **arrays)

    @pytest.mark.parametrize("structure", GMM_STRUCTURES)
    @pytest.mark.parametrize("which", ["params-width", "params-count", "weights-count"])
    def test_rejects_wrong_shapes(self, structure, which):
        arrays = self.valid_arrays(structure)
        if which == "params-width":
            arrays["params"] = arrays["params"][:, 1:]
        elif which == "params-count":
            arrays["params"] = arrays["params"][:1]
        else:
            arrays["weights"] = np.ones(1)
        message = "disagree" if which == "weights-count" else "needs params of shape"
        with pytest.raises(ValueError, match=message):
            GmmModel(structure, **arrays)


class TestFitGmm:
    def test_toeplitz_family_holds_powers_not_the_complex_transform(self):
        # The family keeps |X Q^T|^2 (T, 2N) floats, built chunk by chunk, so it
        # never holds the (T, 2N) complex transform, 10 MB here.
        count, dim = 20_000, 16
        samples = crandn(np.random.default_rng(138), count, dim)
        family, peak = traced_peak(_GmmFamily, "toeplitz", samples)
        assert peak < count * 2 * dim * 16
        held = [v for v in vars(family).values() if isinstance(v, np.ndarray)]
        assert not any(np.iscomplexobj(v) and v.shape == (count, 2 * dim) for v in held)
        want = np.abs(samples @ toeplitz_transform(dim).T) ** 2
        assert np.abs(family.power - want).max() <= 1e-12 * want.max()

    def test_full_single_component_is_sample_covariance(self):
        rng = np.random.default_rng(101)
        data = crandn(rng, 500, 5) + crandn(rng, 5)
        model, _ = fit_gmm(ChannelDataset(data), 1, "full", FitConfig(max_iter=2, seed=0))
        mean = data.mean(axis=0)
        xc = data - mean
        want = xc.T @ xc.conj() / 500
        assert np.abs(model.means[0] - mean).max() < 1e-10
        assert np.abs(model.params[0] - want).max() < 1e-10

    def test_circulant_spectrum_recovery(self):
        rng = np.random.default_rng(102)
        dim = 8
        spectrum = rng.uniform(0.5, 3.0, dim)
        dft = np.fft.fft(np.eye(dim), norm="ortho")
        chol_spec = dft.conj().T * np.sqrt(spectrum)
        draws = crandn(rng, 50_000, dim) @ chol_spec.T
        model, _ = fit_gmm(ChannelDataset(draws), 1, "circulant", FitConfig(max_iter=3, seed=0))
        rel = np.abs(model.params[0] - spectrum) / spectrum
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
        rebuilt = q.conj().T @ (model.params[0][:, None] * q)
        xc = draws - draws.mean(axis=0)
        scatter = xc.T @ xc.conj() / draws.shape[0]
        # the projection of an (empirically near-)Toeplitz scatter stays close to it
        assert np.linalg.norm(rebuilt - scatter) < 5e-2 * np.linalg.norm(scatter)

    def test_toeplitz_projection_exact_on_structured_input(self):
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

    @pytest.mark.parametrize("k_total", [0, -1])
    def test_component_count_below_one_rejected(self, k_total):
        rng = np.random.default_rng(106)
        with pytest.raises(ValueError, match="n_components"):
            fit_gmm(ChannelDataset(crandn(rng, 10, 4)), k_total, "full")

    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    def test_reseed_collapsed(self, structure):
        # The third start component sits far from the data with a vanishing
        # weight, so its responsibility mass is exactly zero.
        rng = np.random.default_rng(118)
        dim = 4
        data = crandn(rng, 200, dim) + np.where(rng.random(200) < 0.5, 3.0, -3.0)[:, None]
        means = np.array([[3.0] * dim, [-3.0] * dim, [1e3] * dim], dtype=complex)
        weights = np.array([0.5, 0.5 - 1e-12, 1e-12])
        if structure == "full":
            start = GmmModel(structure, weights, means, np.stack([np.eye(dim)] * 3))
        else:
            bins = 2 * dim if structure == "toeplitz" else dim
            start = GmmModel(structure, weights, means, np.ones((3, bins)))
        if structure == "circulant":
            # fit_gmm's circulant EM: L = 0 factor analyzers on the DFT rows.
            rows, family = circulant_family(data)
            _, fixed = _em_step(rows, family, np.random.default_rng(0), circulant_view(start))
            reseeded = fixed.means[2]
            fixed = GmmModel(structure, fixed.weights, np.fft.ifft(fixed.means, norm="ortho"),
                             fixed.diag_terms)
        else:
            rows = data
            _, fixed = _em_step(data, _GmmFamily(structure, data), np.random.default_rng(0), start)
            reseeded = fixed.means[2]
        assert fixed.n_components == 3
        assert np.all(fixed.weights > 1e-3)
        assert abs(fixed.weights.sum() - 1.0) < 1e-12
        # the re-seeded mean sits on the sample the start model fits worst
        _, mix = posterior(dense_logdens(start, 0.0, data))
        assert np.array_equal(reseeded, rows[np.argmin(mix)])
        # and restarts isotropic: its covariance is a positive multiple of I
        restart = fixed.dense_covariances()[2]
        scale = restart[0, 0].real
        assert scale > 0
        assert np.abs(restart - scale * np.eye(dim)).max() <= 1e-12 * scale
        # the other components keep their (updated) places
        assert np.abs(fixed.means[0] - 3.0).max() < 1.0

    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    def test_converged_trace_describes_returned_model(self, structure):
        rng = np.random.default_rng(119)
        data = sample(make_model(rng, 2, 5, 2, sep=3.0), 300, np.random.default_rng(120)).samples
        model, trace = fit_gmm(data, 2, structure, FitConfig(max_iter=5, rel_tol=1.0, seed=0))
        assert trace.converged and trace.loglik.shape == (2,)
        assert trace.seconds.shape == (2,) and np.all(trace.seconds > 0)
        assert e_step_log_likelihood(model, data) == pytest.approx(trace.loglik[-1], abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_collapse_names_component_and_advises_fewer(self, seed):
        # Each outlier starts a one-sample cluster; EM shrinks the component
        # onto it, and the next E-step cannot factor its floored covariance.
        data = collapsing_data()
        with pytest.raises(ConditioningError) as caught:
            fit_gmm(data, 5, "full", FitConfig(seed=seed))
        message = str(caught.value)
        assert re.fullmatch(r"component \d: .*EM collapsed the component onto one sample.*"
                            r"\(fit fewer components\)", message)
        assert "sigma2" not in message

    def test_collapsed_circulant_component_keeps_its_sample(self):
        # The one-hot component the circulant M-step leaves on a collapsed fit:
        # every bin on the floor, PSI_FLOOR_REL times the mean energy per entry,
        # and the mean on the DFT row of sample 2. The E-step is the L = 0 kernel's.
        rng = np.random.default_rng(117)
        samples = crandn(rng, 6, 4) + 2.0
        rows, family = circulant_family(samples)
        resp = np.column_stack([rng.uniform(0.2, 1.0, 6), np.eye(6)[2]])
        means, spectra = circulant_m_step(samples, resp)
        assert np.all(spectra[1] == PSI_FLOOR_REL * np.mean(np.abs(rows) ** 2))
        model = MfaModel(np.array([0.7, 0.3]), means, np.zeros((2, 4, 0)), spectra)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loglik, worst, _, _ = family.e_step(rows, model)
            got = kernel_responsibilities(model, 0.0, rows)
        # The division form over the (B, K, N) centred DFT rows.
        centred = rows[:, None, :] - means
        quad = (np.abs(centred) ** 2 / spectra).sum(axis=2)
        logdens = np.log(model.weights) - 4 * np.log(np.pi) - np.log(spectra).sum(axis=1) - quad
        want, lse = posterior(logdens)
        assert got[2, 1] == 1.0
        assert np.abs(got - want).max() <= 1e-12
        assert abs(loglik - lse.mean()) <= 1e-12 * abs(lse.mean())
        assert worst == np.argmin(lse)

    @pytest.mark.parametrize("seed", range(4))
    def test_collapsed_circulant_fit_keeps_its_samples(self, seed):
        # Each outlier takes a component of its own: its mean on the outlier,
        # its weight one sample's and its spectrum on the floor, PSI_FLOOR_REL
        # times the data's mean energy per entry. EM goes on with no warning.
        data = collapsing_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, trace = fit_gmm(data, 5, "circulant", FitConfig(max_iter=20, seed=seed))
        floor = PSI_FLOOR_REL * np.mean(np.abs(np.fft.fft(data, norm="ortho")) ** 2)
        collapsed = np.flatnonzero(np.all(model.params == floor, axis=1))
        gaps = np.abs(model.means[collapsed, None] - data[None, 120:]).max(axis=2)
        assert sorted(gaps.argmin(axis=1)) == [0, 1, 2]
        assert np.all(gaps.min(axis=1) <= 1e-14 * np.abs(data).max())
        assert np.abs(model.weights[collapsed] * len(data) - 1.0).max() <= 1e-12
        assert np.all(np.isfinite(trace.loglik))

    def test_full_em_monotone(self):
        rng = np.random.default_rng(106)
        true = make_model(rng, 2, 5, 2, sep=3.0)
        data = sample(true, 800, np.random.default_rng(107))
        _, trace = fit_gmm(data, 2, "full", FitConfig(max_iter=30, rel_tol=1e-12, seed=1))
        diffs = np.diff(trace.loglik)
        assert np.all(diffs >= -1e-8 * np.abs(trace.loglik[:-1]))

    @given(em_problems())
    def test_circulant_em_monotone(self, problem):
        # The circulant M-step is an exact maximizer, the floored diagonal of the
        # DFT-domain weighted scatter, so the trace cannot fall.
        data, k_total, _, config = problem
        _, trace = fit_gmm(data, k_total, "circulant", config)
        diffs = np.diff(trace.loglik)
        assert np.all(diffs >= -1e-8 * np.abs(trace.loglik[:-1]))


class TestGmmEstimate:
    def test_single_component_zero_mean_is_lmmse(self):
        rng = np.random.default_rng(108)
        dim = 5
        root = crandn(rng, dim, dim)
        cov = root @ root.conj().T / dim
        model = GmmModel(
            "full", np.array([1.0]), np.zeros((1, dim), complex), cov[None]
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
            np.ones((1, dim)),
        )
        rng = np.random.default_rng(109)
        y = crandn(rng, dim)
        got = gmm_estimate(model, 0.5, y)
        assert np.abs(got - y / 1.5).max() < 1e-12

    def test_full_from_mfa_matches_mfa_estimator(self):
        rng = np.random.default_rng(110)
        mfa_model = make_model(rng, 3, 6, 2)
        gmm = gmm_from_mfa(mfa_model)
        sigma2 = 0.4
        y = crandn(rng, 200, 6)
        got = gmm_estimate(gmm, sigma2, y)
        want = estimate(mfa_model, sigma2, y)
        assert np.abs(got - want).max() < 1e-10

    def test_structured_matches_dense_operations(self):
        rng = np.random.default_rng(111)
        dim = 8
        for structure, bins in (("circulant", dim), ("toeplitz", 2 * dim)):
            spectra = rng.uniform(0.5, 2.0, (2, bins))
            means = crandn(rng, 2, dim)
            model = GmmModel(structure, np.array([0.5, 0.5]), means, spectra)
            dense = model.dense_covariances()
            dense_model = GmmModel("full", np.array([0.5, 0.5]), means, dense)
            y = crandn(rng, 50, dim)
            got = gmm_estimate(model, 0.7, y)
            want = gmm_estimate(dense_model, 0.7, y)
            assert np.abs(got - want).max() < 1e-9

    def test_log_likelihood_matches_dense(self):
        rng = np.random.default_rng(112)
        dim = 6
        spectra = rng.uniform(0.5, 2.0, (2, dim))
        means = crandn(rng, 2, dim)
        model = GmmModel("circulant", np.array([0.3, 0.7]), means, spectra)
        dense_model = GmmModel(
            "full", np.array([0.3, 0.7]), means, model.dense_covariances()
        )
        data = crandn(rng, 100, dim)
        assert e_step_log_likelihood(model, data) == pytest.approx(
            e_step_log_likelihood(dense_model, data), abs=1e-9
        )

    @given(gmm_models())
    def test_structured_kernel_matches_dense_oracle(self, drawn):
        model, rng, sigma2, singular = drawn
        y = model.means[rng.integers(model.n_components, size=20)]
        y = y + rng.uniform(0.1, 3.0) * crandn(rng, 20, model.dim)
        want = dense_conditional_mean(model, sigma2, y)[0]
        got = gmm_estimate(model, sigma2, y)
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
        if singular:
            return  # the likelihood has no noise to regularize a singular C_k

        logdens = dense_logdens(model, 0.0, y)
        want_resp, want_lse = posterior(logdens)
        want_ll = want_lse.mean()
        if model.structure == "circulant":
            rows, view = np.fft.fft(y, norm="ortho"), circulant_view(model)
            loglik, resp = log_likelihood(view, rows), kernel_responsibilities(view, 0.0, rows)
        else:
            loglik, _, _, resp = _GmmFamily(model.structure, y).e_step(y, model)
        assert abs(loglik - want_ll) <= 1e-9 * max(1.0, abs(want_ll))
        assert np.abs(resp - want_resp).max() <= 1e-9 * max(1.0, np.abs(logdens).max())

    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    def test_row_chunks_match_one_chunk(self, structure, monkeypatch):
        # The circulant model runs on the MFA kernel, whose chunks hold at
        # least 64 rows, so it takes more rows.
        rng = np.random.default_rng(116)
        dim, k_total = 5, 3
        count, rows = (150, 83) if structure == "circulant" else (40, 23)
        data = sample(make_model(rng, k_total, dim, 2, sep=2.0), count, rng).samples
        start, _ = fit_gmm(data, k_total, structure, FitConfig(max_iter=2, seed=0))
        y = crandn(rng, rows, dim) + data[:rows]
        resp = rng.dirichlet(np.ones(k_total), size=count)

        def outputs():
            if structure == "circulant":
                loglik = log_likelihood(circulant_view(start), np.fft.fft(data, norm="ortho"))
            else:
                loglik = e_step_log_likelihood(start, data)
            return gmm_estimate(start, 0.3, y), loglik, *m_step(structure, data, resp)

        whole = outputs()
        # Chunks of four rows, the smallest, or three and four for the 23 rows
        # (64 on the MFA kernel, its smallest).
        monkeypatch.setattr(baselines, "_GMM_CHUNK_BUDGET", 3 * k_total * dim)
        monkeypatch.setattr(baselines, "_BOUND_BUDGET", 3 * k_total * dim)
        monkeypatch.setattr(gaussians, "_STACK_CHUNK_BUDGET", 1)
        chunked = outputs()
        for got, want in zip(chunked, whole):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_sigma2(self, structure, sigma2):
        rng = np.random.default_rng(115)
        dim = 4
        if structure == "full":
            model = gmm_from_mfa(make_model(rng, 2, dim, 1))
        else:
            bins = 2 * dim if structure == "toeplitz" else dim
            model = GmmModel(
                structure, np.array([0.5, 0.5]), crandn(rng, 2, dim),
                rng.uniform(0.5, 2.0, (2, bins)),
            )
        with pytest.raises(ValueError):
            gmm_estimate(model, sigma2, crandn(rng, 3, dim))

    @pytest.mark.parametrize(
        "structure, singular",
        [
            ("circulant", {"params": np.array([[1.0, 0.0, 1.0, 1.0]])}),
            ("toeplitz", {"params": np.array([[1.0, 0, 0, 0, 0, 0, 0, 0]])}),
            ("full", {"params": np.diag([1.0, 0.0, 1.0, 1.0]).astype(complex)[None]}),
            # A positive but subnormal bin: dividing by it overflows to inf.
            ("circulant", {"params": np.array([[1.0, 1e-315, 1.0, 1.0]])}),
            # Every bin subnormal: none is small against the largest, but no inverse is finite.
            ("circulant", {"params": np.full((1, 4), 1e-315)}),
        ],
    )
    def test_singular_covariance_at_zero_noise(self, structure, singular):
        model = GmmModel(structure, np.array([1.0]), np.zeros((1, 4), complex), **singular)
        y = np.ones((2, 4), complex)
        with pytest.raises(ConditioningError, match="component 0"):
            gmm_estimate(model, 0.0, y)
        assert np.all(np.isfinite(gmm_estimate(model, 0.1, y)))


def dense_tolerance(want_resp, want_lse, scale):
    """Per row, 1e-12 relative to the log-sum-exp plus 1e-13 times the rounding
    scale of the log-densities it weights: the dense pass's own rounding, which
    a collapsed component makes large."""
    with np.errstate(invalid="ignore"):
        rounding = 1e-13 * np.nansum(want_resp * scale, axis=1)
    return 1e-12 * np.maximum(1.0, np.abs(want_lse)) + rounding


def check_pruned_pass(model, factor, rows, guess=None):
    """``baselines._gmm_chunks`` over rows with the guess ``guess`` against the
    dense pass: responsibilities and log-sum-exp within ``dense_tolerance``.
    Returns the dense log-densities."""
    logdens, want_resp, want_lse, scale = dense_gmm_pass(model, factor, rows)
    chunks = list(baselines._gmm_chunks(model, factor, rows, guess))
    tol = dense_tolerance(want_resp, want_lse, scale)
    assert np.all(np.abs(np.concatenate([c[3] for c in chunks]) - want_resp).max(axis=1) <= tol)
    assert np.all(np.abs(np.concatenate([c[4] for c in chunks]) - want_lse) <= tol)
    return logdens


class TestPrunedPass:
    @given(
        gmm_models().filter(lambda drawn: drawn[0].structure != "circulant"),
        st.sampled_from(["bound", "worst", "random"]),
        st.booleans(),
        st.integers(1, 8),
    )
    def test_matches_dense_pass(self, drawn, guess_kind, collapsed, width):
        # The bound over the first ``width`` coordinates (all of them when
        # width >= N), a guess that is the bound's argmax, each row's worst
        # component or random, and optionally component 0 collapsed onto a row.
        model, rng, sigma2, _ = drawn
        rows = model.means[rng.integers(model.n_components, size=30)]
        rows = rows + rng.uniform(0.1, 3.0) * crandn(rng, 30, model.dim)
        if collapsed:
            params, means = model.params.copy(), model.means.copy()
            params[0] = 1e-9 * np.eye(model.dim) if model.structure == "full" else 1e-9
            means[0] = rows[0]
            model = GmmModel(model.structure, model.weights, means, params)
        factor = baselines._gmm_factor(model, sigma2)
        guess = {
            "bound": None,
            "worst": dense_gmm_pass(model, factor, rows)[0].argmin(axis=1),
            "random": rng.integers(model.n_components, size=len(rows)),
        }[guess_kind]
        with patch.dict(baselines._BOUND_COORDS, {model.structure: width}):
            check_pruned_pass(model, factor, rows, guess)

    @given(em_problems(), st.sampled_from(["full", "toeplitz"]), st.integers(1, 6))
    def test_fit_passes_match_dense_pass(self, problem, structure, width):
        # Every E-step of a fit (no guess, so the bound's argmax, on the first
        # pass, then the last argmax), and the same passes with every row
        # guessing its worst component. A fit that collapses a full component
        # ends early.
        samples, k_total, _, config = problem
        family = _GmmFamily(structure, samples)
        passes, e_step = [], family.e_step

        def recorded(rows, model):
            guess = family.guess
            out = e_step(rows, model)
            passes.append((model, guess, out))
            return out

        family.e_step = recorded
        with patch.dict(baselines._BOUND_COORDS, {structure: width}):
            try:
                mfa.fit_mixture(samples, k_total, config, lambda _: family)
            except ConditioningError:
                pass
            assert passes
            for model, guess, (loglik, _, _, resp) in passes:
                factor = baselines._gmm_factor(model, 0.0)
                logdens, want_resp, want_lse, scale = dense_gmm_pass(model, factor, samples)
                tol = dense_tolerance(want_resp, want_lse, scale)
                assert np.all(np.abs(resp - want_resp).max(axis=1) <= tol)
                assert abs(loglik - want_lse.mean()) <= tol.mean()
                check_pruned_pass(model, factor, samples, logdens.argmin(axis=1))

    @pytest.mark.parametrize("structure", ["full", "toeplitz"])
    def test_prunes_at_paper_scale(self, structure):
        # N = 64 with the structure's own bound width: most components of a
        # row are skipped, and the result is still the dense pass's.
        rng = np.random.default_rng(122)
        data = generate_channels(ScenarioConfig(), 1200, rng).samples
        model, _ = fit_gmm(data, 8, structure, FitConfig(max_iter=2, seed=0))
        factor = baselines._gmm_factor(model, 0.0)
        logdens = check_pruned_pass(model, factor, data)
        check_pruned_pass(model, factor, data, logdens.argmin(axis=1))
        chunks = baselines._gmm_chunks(model, factor, data, whitened=True)
        computed = sum(np.any(z != 0, axis=2).sum() for _, _, z, _, _ in chunks)
        assert computed < 0.75 * data.shape[0] * model.n_components


def toeplitz_gram(dim):
    """G_ij = |q_i^H q_j|^2 for the rank-one basis q_p q_p^H of the Toeplitz cone:
    the normal equations G c = b of the Frobenius projection."""
    q = toeplitz_transform(dim)
    return np.abs(q @ q.conj().T) ** 2


def reference_m_step(structure, samples, resp):
    """Means and parameters of each component (column of ``resp``) by the
    per-component centred formula: the weighted scatter of samples - mean with
    floored eigenvalues (full), its DFT-domain diagonal floored at PSI_FLOOR_REL
    times the data's mean energy per entry (circulant) or the floored min-norm
    lstsq projection of its diagonal onto the Toeplitz cone."""
    dim = samples.shape[1]
    means, params = [], []
    for weights in resp.T:
        mass = weights.sum()
        means.append(weights @ samples / mass)
        xc = samples - means[-1]
        energy = float(weights @ (np.abs(xc) ** 2).sum(axis=1)) / (mass * dim)
        floor = EIG_FLOOR_REL * max(energy, np.finfo(float).tiny)
        if structure == "full":
            scatter = (xc.T * weights) @ xc.conj() / mass
            vals, vecs = np.linalg.eigh(0.5 * (scatter + scatter.conj().T))
            params.append((vecs * np.maximum(vals, floor)) @ vecs.conj().T)
        elif structure == "circulant":
            diag = weights @ np.abs(np.fft.fft(xc, norm="ortho")) ** 2 / mass
            params.append(np.maximum(diag, PSI_FLOOR_REL * np.mean(np.abs(samples) ** 2)))
        else:
            diag = weights @ np.abs(xc @ toeplitz_transform(dim).T) ** 2 / mass
            sol, *_ = np.linalg.lstsq(toeplitz_gram(dim), diag, rcond=None)
            params.append(np.maximum(sol, floor))
    return np.stack(means), np.stack(params)


class TestMStep:
    @given(
        st.sampled_from(["full", "toeplitz", "circulant"]),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_component_reference(self, structure, k_total, dim, count, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0.0, 3.0) * crandn(rng, dim) + crandn(rng, count, dim)
        resp = rng.uniform(0.0, 1.0, (count, k_total))
        # One component's weights are exactly one-hot on one sample.
        hot = rng.integers(k_total)
        resp[:, hot] = 0.0
        resp[rng.integers(count), hot] = 1.0
        means, params = m_step(structure, samples, resp)
        want_means, want_params = reference_m_step(structure, samples, resp)
        scale = np.abs(samples).max()
        assert np.abs(means - want_means).max() <= 1e-9 * scale
        # The moment form cancels |mean|^2 against the second moment, so its
        # rounding is relative to the second moment's scale.
        tol = 1e-9 * max(np.abs(want_params).max(), scale**2)
        assert np.abs(params - want_params).max() <= tol

    @given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_toeplitz_projection_matches_min_norm_lstsq(self, dim, k_total, seed):
        # Any real diagonals, so the Gram matrix's null direction (lag N; at
        # N=1 lag 1) carries weight that the minimum-norm solution drops.
        rng = np.random.default_rng(seed)
        diag = rng.normal(size=(k_total, 2 * dim)) * rng.uniform(0.1, 10.0, (k_total, 1))
        floor = rng.uniform(0.0, 1.0, (k_total, 1))
        sol, *_ = np.linalg.lstsq(toeplitz_gram(dim), diag.T, rcond=None)
        got = _project_toeplitz(diag, floor, dim)
        assert got.shape == diag.shape
        assert np.abs(got - np.maximum(sol.T, floor)).max() <= 1e-9 * np.abs(diag).max()

    @pytest.mark.parametrize("structure", ["full", "toeplitz", "circulant"])
    def test_floors_match_reference_on_singular_scatter(self, structure):
        # Two empty DFT bins make every scatter singular, so the floors bind.
        rng = np.random.default_rng(121)
        spectrum = np.fft.fft(crandn(rng, 40, 6) + 1.5, norm="ortho")
        spectrum[:, [1, 4]] = 0.0
        samples = np.fft.ifft(spectrum, norm="ortho")
        resp = rng.dirichlet(np.ones(2), size=40)
        _, params = m_step(structure, samples, resp)
        _, want = reference_m_step(structure, samples, resp)
        if structure == "full":
            params, want = np.linalg.eigvalsh(params), np.linalg.eigvalsh(want)
        assert np.allclose(params, want, rtol=1e-6, atol=0.0)

    def test_one_hot_circulant_component_sits_on_the_floor(self):
        # The floor is PSI_FLOOR_REL times the data's mean energy per entry,
        # and the mean is the sample's DFT row.
        rng = np.random.default_rng(117)
        samples = crandn(rng, 6, 4) + 2.0
        resp = np.column_stack([rng.uniform(0.2, 1.0, 6), np.eye(6)[2]])
        means, spectra = circulant_m_step(samples, resp)
        rows = np.fft.fft(samples, norm="ortho")
        assert np.array_equal(means[1], rows[2])
        assert np.all(spectra[1] == PSI_FLOOR_REL * np.mean(np.abs(rows) ** 2))
        assert np.all(spectra[0] > 1e-3)


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
            model = GmmModel(structure, weights, means, np.stack([cov, 2 * cov]))
        else:
            bins = 2 * dim if structure == "toeplitz" else dim
            model = GmmModel(structure, weights, means, rng.uniform(0.3, 2.0, (2, bins)))
        path = tmp_path / "model.gmm"
        save_gmm(model, path)
        loaded = load_gmm(path)
        assert loaded.structure == model.structure
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.means, model.means)
        if structure == "full":
            assert np.array_equal(loaded.params, model.params)
        else:
            assert np.array_equal(loaded.params, model.params)

    def test_corrupted_rejected(self, tmp_path):
        from mfachest._binio import FileFormatError

        rng = np.random.default_rng(114)
        model = GmmModel(
            "circulant",
            np.array([1.0]),
            crandn(rng, 1, 4),
            rng.uniform(0.5, 1.0, (1, 4)),
        )
        path = tmp_path / "model.gmm"
        save_gmm(model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")  # bad version
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_gmm(path)
