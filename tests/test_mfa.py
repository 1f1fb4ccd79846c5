from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import subspace_angles
from scipy.optimize import linear_sum_assignment

from mfachest.gaussians import mixture_logdens, stack_mixture
from mfachest import baselines, gaussians, mfa
from mfachest.mfa import (
    FitConfig,
    MfaModel,
    fit_em,
    load_model,
    log_likelihood,
    parameter_count,
    save_model,
)
from mfachest.scenario import ChannelDataset
from oracles import (
    crandn,
    dense_cov,
    dense_logdens,
    em_problems,
    em_regression,
    kernel_responsibilities,
    kmeans_reference,
    make_model,
    posterior,
    sample,
    sample_component,
    single,
    start_reference,
    traced_peak,
    with_intercept,
)


def em_update(model, data, mode="scaled-identity", seed=0):
    """One iteration of fit_em's loop from the given model."""
    family = mfa._MfaFamily(model.latent_dim, mode, data)
    return mfa._em_step(data, family, np.random.default_rng(seed), model)


class TestMfaModel:
    def test_rejects_nonpositive_diag(self):
        with pytest.raises(ValueError, match="diag_term"):
            single(np.zeros((3, 1), complex), np.array([1.0, 0.0, 1.0]))

    def test_rejects_wide_loading(self):
        with pytest.raises(ValueError, match="must not exceed N"):
            single(np.zeros((2, 3), complex), np.ones(2))

    def test_rejects_nonfinite(self):
        loading = np.zeros((2, 1), complex)
        loading[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            single(loading, np.ones(2))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weights", np.array([0.5, 0.6]), "sum to 1"),
            ("weights", np.array([1.5, -0.5]), r"\(0, 1\]"),
            ("weights", np.array([np.nan, 1.0]), r"\(0, 1\]"),
            ("weights", np.ones(1), "disagree"),
            ("means", np.zeros((2, 4)), "disagree"),
            ("means", np.full((2, 3), np.inf), "means must be finite"),
            ("diag_terms", np.ones((2, 2)), "disagree"),
            ("loadings", np.zeros((3, 1)), "loadings must be a"),
            ("loadings", np.zeros((0, 3, 1)), "at least one component"),
        ],
    )
    def test_rejects_inconsistent_arrays(self, field, value, message):
        arrays = {
            "weights": np.full(2, 0.5),
            "means": np.zeros((2, 3)),
            "loadings": np.zeros((2, 3, 1)),
            "diag_terms": np.ones((2, 3)),
        }
        arrays[field] = value
        with pytest.raises(ValueError, match=message):
            MfaModel(**arrays)

    def test_dense_covariances(self):
        rng = np.random.default_rng(20)
        model = make_model(rng, 3, 5, 2, sep=6.0, psi=0.2)
        model = MfaModel(model.weights, model.means, model.loadings, rng.uniform(0.1, 1.0, (3, 5)))
        dense = model.dense_covariances()
        for k in range(3):
            want = dense_cov(model, k)
            assert np.abs(dense[k] - want).max() <= 1e-14 * np.abs(want).max()
            assert np.array_equal(dense[k], dense[k].conj().T)


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
        sample_mean = data.mean(axis=0)
        assert np.abs(model.means[0] - sample_mean).max() < 1e-6

        centered = data - sample_mean
        scov = centered.T @ centered.conj() / count
        vals, vecs = np.linalg.eigh(0.5 * (scov + scov.conj().T))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        resid = vals[latent:].mean()
        oracle_loading = vecs[:, :latent] * np.sqrt(np.maximum(vals[:latent] - resid, 0.0))
        oracle = single(oracle_loading, np.full(dim, resid), sample_mean)
        ll_fit = log_likelihood(model, data)
        ll_oracle = posterior(dense_logdens(oracle, 0.0, data))[1].mean()
        assert abs(ll_fit - ll_oracle) < 1e-3

    def test_planted_mixture_likelihood(self):
        rng = np.random.default_rng(23)
        true = make_model(rng, 3, 8, 2, sep=4.0, psi=0.2)
        train = sample(true, 50_000, np.random.default_rng(24))
        held = sample(true, 20_000, np.random.default_rng(25)).samples
        model, _ = fit_em(train, 3, 2, FitConfig(max_iter=80, rel_tol=1e-7, seed=1))
        ll_fit = log_likelihood(model, held)
        ll_true = posterior(dense_logdens(true, 0.0, held))[1].mean()
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
        true = make_model(rng, 2, 5, 2, sep=6.0, psi=0.2)
        data = sample(true, 300, np.random.default_rng(29)).samples
        model, trace = fit_em(data, 2, 2, FitConfig(max_iter=5, rel_tol=1.0, seed=0))
        assert trace.converged and trace.loglik.shape == (2,)
        assert log_likelihood(model, data) == pytest.approx(trace.loglik[-1], abs=1e-10)

    def test_trace_times_every_iteration(self):
        rng = np.random.default_rng(30)
        true = make_model(rng, 2, 5, 2, sep=6.0, psi=0.2)
        data = sample(true, 300, np.random.default_rng(31)).samples
        for config in (FitConfig(max_iter=3, seed=0), FitConfig(max_iter=5, rel_tol=1.0, seed=0)):
            _, trace = fit_em(data, 2, 2, config)
            assert trace.seconds.shape == trace.loglik.shape
            assert np.all(trace.seconds > 0)

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(27)
        data = crandn(rng, 3, 4)
        with pytest.raises(ValueError):
            fit_em(ChannelDataset(data), 4, 1)

    @pytest.mark.parametrize("k_total", [0, -1])
    def test_component_count_below_one_rejected(self, k_total):
        rng = np.random.default_rng(28)
        with pytest.raises(ValueError, match="n_components"):
            fit_em(ChannelDataset(crandn(rng, 10, 4)), k_total, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        rng = np.random.default_rng(29)
        data = crandn(rng, 20, 4)
        data[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_em(ChannelDataset(data), 2, 1)
        with pytest.raises(ValueError, match="non-finite"):
            log_likelihood(make_model(rng, 2, 4, 1, sep=6.0, psi=0.2), data)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_nonpositive_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="rel_tol"):
            FitConfig(rel_tol=tol)

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
        model = make_model(rng, 1, 6, 2, sep=6.0, psi=0.2)
        data = crandn(rng, 40, 6)
        resp = kernel_responsibilities(model, 0.0, data)
        assert np.array_equal(resp, np.ones((40, 1)))

    def test_well_separated_means(self):
        rng = np.random.default_rng(32)
        model = make_model(rng, 3, 8, 2, sep=30.0, psi=0.1)
        data = model.means
        resp = kernel_responsibilities(model, 0.0, data)
        assert np.all(resp.diagonal() > 0.99)
        # direct density-ratio oracle agrees on the winning component
        assert np.array_equal(dense_logdens(model, 0.0, data).argmax(axis=1), np.arange(3))

    def test_zero_loading_latent_posterior(self):
        dim = 5
        comp = single(np.zeros((dim, 2), complex), np.ones(dim))
        stack = stack_mixture(comp, 0.0)
        rng = np.random.default_rng(33)
        data = crandn(rng, 10, dim)
        latent = np.full((10, 1, 3), np.nan, dtype=complex)
        mixture_logdens(stack, data, np.abs(data) ** 2, latent, with_intercept(data))
        assert np.abs(latent[:, :, :2]).max() == 0.0
        assert np.all(latent[:, :, 2] == 1.0)
        root = stack.latent_root[0]
        assert np.allclose(root @ root.conj().T, np.eye(2))

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(34)
        model = make_model(rng, 4, 6, 2, sep=1.0, psi=0.2)
        data = crandn(rng, 200, 6)
        resp = kernel_responsibilities(model, 0.0, data)
        assert np.all(resp >= 0)
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-12


def reference_psi(per_entry, masses, psi_mode, floor, total):
    """The diagonal update one component at a time, the loop _resolve_psi replaces."""
    if psi_mode == "shared-diagonal":
        shared = np.maximum(np.sum(list(per_entry), axis=0) / total, floor)
        return np.stack([shared] * len(per_entry))
    out = []
    for entry, mass in zip(per_entry, masses):
        denom = max(float(mass), np.finfo(float).tiny)
        if psi_mode == "scaled-identity":
            out.append(np.full(entry.size, max(float(entry.sum()) / (entry.size * denom), floor)))
        else:
            out.append(np.maximum(entry / denom, floor))
    return np.stack(out)


class TestMStep:
    @given(
        st.integers(1, 12),
        st.integers(1, 70),
        st.sampled_from(mfa.PSI_MODES),
        st.integers(0, 2**32 - 1),
    )
    def test_resolve_psi_matches_per_component_loop(self, k_total, dim, mode, seed):
        # Masses include exact zeros and residual energies include values below
        # the floor, so both the tiny-mass guard and the floor are exercised.
        rng = np.random.default_rng(seed)
        masses = rng.uniform(0.0, 50.0, k_total) * (rng.random(k_total) > 0.2)
        per_entry = rng.uniform(0.0, 3.0, (k_total, dim)) * masses[:, None]
        per_entry[rng.random((k_total, dim)) < 0.1] = 1e-12
        floor = 1e-3
        got = mfa._resolve_psi(per_entry, masses, mode, floor, 60)
        assert np.array_equal(got, reference_psi(per_entry, masses, mode, floor, 60))

    """The parameter update of one fit_em iteration from a given start model."""

    def test_mean_update_is_sample_mean_for_zero_loading(self):
        rng = np.random.default_rng(35)
        dim = 4
        data = crandn(rng, 100, dim) + np.array([1.0, -2.0, 0.5, 3.0])
        comp = single(np.zeros((dim, 2), complex), np.ones(dim))
        _, fitted = em_update(comp, data)
        assert np.abs(fitted.means[0] - data.mean(axis=0)).max() < 1e-10

    def test_single_sample_psi_hits_floor(self):
        # Each component sits on one of two samples, so it owns that sample alone.
        rng = np.random.default_rng(36)
        data = crandn(rng, 2, 4)
        loadings = np.stack([0.01 * crandn(rng, 4, 1) for _ in range(2)])
        start = MfaModel(np.full(2, 0.5), data, loadings, np.full((2, 4), 0.01))
        _, fitted = em_update(start, data)
        floor = 1e-8 * float(np.mean(np.abs(data) ** 2))
        assert fitted.diag_terms[0, 0] == pytest.approx(floor)
        assert fitted.diag_terms[1, 0] == pytest.approx(floor)

    def test_full_em_step_never_decreases_likelihood(self):
        rng = np.random.default_rng(37)
        model = make_model(rng, 3, 6, 2, sep=2.0, psi=0.2)
        data = sample(model, 500, np.random.default_rng(38)).samples
        start = make_model(np.random.default_rng(39), 3, 6, 2, sep=2.0, psi=0.2)
        before = log_likelihood(start, data)
        for mode in ("scaled-identity", "shared-diagonal", "diagonal"):
            avg, fitted = em_update(start, data, mode)
            assert avg == pytest.approx(before, rel=1e-12)
            after = log_likelihood(fitted, data)
            assert after >= before - 1e-10 * abs(before)


class TestLogLikelihood:
    def test_at_mean_identity(self):
        dim = 7
        model = single(np.zeros((dim, 1), complex), np.ones(dim), np.ones(dim, complex))
        data = np.ones((5, dim), complex)
        assert log_likelihood(model, data) == pytest.approx(-dim * np.log(np.pi), abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        model = make_model(rng, 3, 6, 2, sep=2.0, psi=0.2)
        data = crandn(rng, 100, 6)
        assert log_likelihood(model, data) == pytest.approx(
            posterior(dense_logdens(model, 0.0, data))[1].mean(), abs=1e-9
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(40)
        model = make_model(rng, 2, 3, 1, sep=6.0, psi=0.2)
        with pytest.raises(ValueError, match="observation dimension 4 != model dimension 3"):
            log_likelihood(model, crandn(rng, 5, 4))

    def test_duplicate_component_invariance(self):
        rng = np.random.default_rng(42)
        model = make_model(rng, 2, 5, 2, sep=6.0, psi=0.2)
        data = crandn(rng, 50, 5)
        parts = [0, 0, 1]
        weights = model.weights[parts] / np.array([2.0, 2.0, 1.0])
        split = MfaModel(
            weights, model.means[parts], model.loadings[parts], model.diag_terms[parts]
        )
        assert log_likelihood(split, data) == pytest.approx(
            log_likelihood(model, data), abs=1e-12
        )


class TestSampling:
    def test_component_frequencies(self):
        rng = np.random.default_rng(43)
        model = make_model(rng, 3, 4, 1, sep=50.0, psi=0.2)
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
        model = make_model(rng, 2, 4, 2, sep=6.0, psi=0.2)
        a = sample(model, 64, np.random.default_rng(7)).samples
        b = sample(model, 64, np.random.default_rng(7)).samples
        assert np.array_equal(a, b)

    def test_single_component_matches_component_sampler(self):
        rng = np.random.default_rng(46)
        model = make_model(rng, 1, 4, 2, sep=6.0, psi=0.2)
        draws = sample(model, 50_000, np.random.default_rng(47)).samples
        ref = sample_component(model, 0, np.random.default_rng(48), size=50_000)
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


class TestKmeans:
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 200),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
    )
    def test_labels_match_elementwise_reference(self, k_total, dim, extra, subsample, seed):
        # Rows are a strided view, as _as_samples may return; a subsample
        # budget below T exercises the subsampled Lloyd and final assignment.
        # The rows are distinct: on repeated ones the exact zero distances and
        # the expansion's rounding pick different farthest rows to reseed at,
        # so duplicated rows are the mask-loop property's.
        count = min(k_total + extra, 200)
        data = crandn(np.random.default_rng(seed), count, 2 * dim)[:, ::2]
        saved = mfa._KMEANS_SUBSAMPLE
        mfa._KMEANS_SUBSAMPLE = subsample
        try:
            got = mfa._kmeans(data, k_total, np.random.default_rng(seed))
        finally:
            mfa._KMEANS_SUBSAMPLE = saved
        want = kmeans_reference(data, k_total, np.random.default_rng(seed), subsample, True)
        assert np.array_equal(got, want)
        if count <= max(subsample, 10 * k_total):
            # Lloyd ran on every row, and no reseed empties a cluster.
            assert np.bincount(got, minlength=k_total).min() >= 1

    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 12),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    def test_labels_match_mask_loop_reference(self, distinct, dim, copies, data, seed):
        # Rows repeat a few distinct ones, so centres collide (a mean of copies
        # may round off its row, and a later cluster then takes them) and
        # several clusters go empty in one Lloyd step; K runs up to T, and a
        # subsample budget below T takes the subsampled Lloyd and the final
        # assignment. Up to three rows of their own join the copies.
        rng = np.random.default_rng(seed)
        count = distinct * copies + data.draw(st.integers(0, 3))
        samples = crandn(rng, count, dim)
        samples[: distinct * copies] = samples[rng.integers(distinct, size=distinct * copies)]
        k_total = data.draw(st.integers(1, count))
        subsample = data.draw(st.sampled_from([count, max(1, count // 2)]))
        with patch.object(mfa, "_KMEANS_SUBSAMPLE", subsample):
            got = mfa._kmeans(samples, k_total, np.random.default_rng(seed))
        want = kmeans_reference(samples, k_total, np.random.default_rng(seed), subsample)
        assert np.array_equal(got, want)
        if count <= max(subsample, 10 * k_total):
            # Lloyd ran on every row, and no reseed empties a cluster.
            assert np.bincount(got, minlength=k_total).min() >= 1

    @pytest.mark.parametrize("seed, distinct, dim, copies, k_total", [
        (0, 5, 2, 10, 15), (9, 5, 2, 11, 34), (312, 4, 2, 8, 5),
    ])
    def test_reseed_takes_a_sample_from_a_later_cluster(self, seed, distinct, dim, copies, k_total):
        # Found by search: a lower cluster goes empty while a later one holds
        # the copies, so the reseed moves a sample out of a cluster whose
        # members are not gathered yet.
        rng = np.random.default_rng(seed)
        samples = crandn(rng, distinct, dim)[rng.integers(distinct, size=distinct * copies)]
        got = mfa._kmeans(samples, k_total, np.random.default_rng(seed))
        want = kmeans_reference(samples, k_total, np.random.default_rng(seed), mfa._KMEANS_SUBSAMPLE)
        assert np.array_equal(got, want)

    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(2, 12),
        st.integers(4, 9),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    def test_chunked_labels_match_one_shot_reference(self, distinct, dim, copies, rows, data, seed):
        # The distances run in chunks of a few rows, so T spans several (the
        # subsampled Lloyd and the final assignment too). The rows repeat a few
        # distinct ones, so clusters go empty and reseed from the per-row
        # nearest distances gathered chunk by chunk.
        rng = np.random.default_rng(seed)
        count = distinct * copies + data.draw(st.integers(0, 3))
        samples = crandn(rng, count, dim)
        samples[: distinct * copies] = samples[rng.integers(distinct, size=distinct * copies)]
        k_total = data.draw(st.integers(1, count))
        subsample = data.draw(st.sampled_from([count, max(1, count // 2)]))
        with patch.object(mfa, "_KMEANS_SUBSAMPLE", subsample), \
                patch.object(gaussians, "_STACK_CHUNK_BUDGET", rows * (2 * dim + k_total)):
            got = mfa._kmeans(samples, k_total, np.random.default_rng(seed))
        want = kmeans_reference(samples, k_total, np.random.default_rng(seed), subsample)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed, distinct, dim, copies, k_total", [
        (0, 5, 2, 10, 15), (9, 5, 2, 11, 34), (312, 4, 2, 8, 5),
    ])
    def test_chunked_reseed_matches_one_shot_reference(self, seed, distinct, dim, copies, k_total):
        # The reseed cases above, with the distances in chunks of 4 to 5 rows.
        rng = np.random.default_rng(seed)
        samples = crandn(rng, distinct, dim)[rng.integers(distinct, size=distinct * copies)]
        with patch.object(gaussians, "_STACK_CHUNK_BUDGET", 4 * (2 * dim + k_total)):
            got = mfa._kmeans(samples, k_total, np.random.default_rng(seed))
        want = kmeans_reference(samples, k_total, np.random.default_rng(seed), mfa._KMEANS_SUBSAMPLE)
        assert np.array_equal(got, want)

    def test_holds_no_distance_array_of_every_row(self):
        # At K=64 a (T, K) distance array is 10 MB, twice what the rows, their
        # energies, labels and one chunk of distances hold at once.
        count, k_total = 20_000, 64
        samples = crandn(np.random.default_rng(5), count, 4)
        _, peak = traced_peak(mfa._kmeans, samples, k_total, np.random.default_rng(5))
        assert peak < count * k_total * 8

    def test_empty_clusters_reseed_at_distinct_samples(self):
        # Eight copies of one row: every centre lands on it, the first takes
        # every sample, and each of the four empty clusters takes its own.
        data = np.ones((8, 3), dtype=complex)
        labels = mfa._kmeans(data, 5, np.random.default_rng(0))
        assert np.array_equal(np.bincount(labels, minlength=5), [4, 1, 1, 1, 1])


@st.composite
def start_problems(draw):
    """Standard complex normal samples with K in [1, 4], N in [2, 5], T in [K, 30]
    and up to two rows scaled by 50, some draws repeating two or three of those
    rows throughout, plus L in [1, N], a seed and an iteration cap in [1, 3].
    Most draws leave a k-means cluster of fewer than two samples, whose restart
    draws from the generator k-means left. Repeated rows tie k-means distances
    exactly, and on the DFT rows rounding breaks those ties otherwise, so a
    circulant fit matches its shared start only with k-means on the samples."""
    k_total, dim = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    count = draw(st.integers(k_total, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = crandn(rng, count, dim)
    data[: draw(st.integers(0, min(2, count)))] *= 50.0
    distinct = draw(st.sampled_from([0, 2, 3]))
    if distinct:
        data = data[rng.integers(min(distinct, count), size=count)]
    latent = draw(st.integers(1, dim))
    return data, k_total, latent, draw(st.integers(0, 2**16)), draw(st.integers(1, 3))


def fit_outcome(family, data, k_total, latent, config, start=None):
    """The arrays of a fit_em (``family`` a psi_mode) or fit_gmm (a structure)
    fit and its trace's log-likelihoods and convergence flag, or the type and
    message of the error it raised."""
    try:
        if family in mfa.PSI_MODES:
            config = replace(config, psi_mode=family)
            model, trace = fit_em(data, k_total, latent, config, start)
        else:
            model, trace = baselines.fit_gmm(data, k_total, family, config, start)
    except (gaussians.ConditioningError, RuntimeWarning) as exc:
        return [type(exc).__name__, str(exc)]
    arrays = [value for value in vars(model).values() if isinstance(value, np.ndarray)]
    return [*arrays, trace.loglik, trace.converged]


def same_outcome(got, want) -> bool:
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


class TestKmeansStart:
    """A fit from ``kmeans_start`` is the fit without one, bit for bit."""

    @pytest.mark.parametrize("family", [*mfa.PSI_MODES, *baselines.GMM_STRUCTURES])
    @given(start_problems())
    def test_shared_start_fits_bit_identical(self, family, problem):
        data, k_total, latent, seed, max_iter = problem
        config = FitConfig(max_iter=max_iter, rel_tol=1e-12, seed=seed)
        start = mfa.kmeans_start(data, k_total, seed)
        # The start holds what _kmeans returns and the generator as it leaves it.
        rng = np.random.default_rng(seed)
        labels = mfa._kmeans(data, k_total, rng)
        assert np.array_equal(start.labels, labels)
        assert np.array_equal(start.generator().random(4), rng.random(4))
        want = fit_outcome(family, data, k_total, latent, config)
        # One start serves two fits, as in a sweep, and leaves its labels as they were.
        for _ in range(2):
            assert same_outcome(fit_outcome(family, data, k_total, latent, config, start), want)
        assert np.array_equal(start.labels, labels)
        assert not start.labels.flags.writeable

    @pytest.mark.parametrize("fit", ["mfa", "gmm"])
    @pytest.mark.parametrize("change, message", [
        ({"count": 11}, "sample count is 12, the fit's is 11"),
        ({"k_total": 2}, "K is 3, the fit's is 2"),
        ({"seed": 4}, "seed is 5, the fit's is 4"),
    ], ids=["samples", "components", "seed"])
    def test_mismatched_start_rejected(self, fit, change, message):
        data = crandn(np.random.default_rng(63), 12, 4)
        start = mfa.kmeans_start(data, 3, 5)
        args = {"count": 12, "k_total": 3, "seed": 5, **change}
        rows, config = data[: args["count"]], FitConfig(seed=args["seed"])
        with pytest.raises(ValueError, match=f"k-means start mismatch: its {message}"):
            if fit == "mfa":
                fit_em(rows, args["k_total"], 2, config, start)
            else:
                baselines.fit_gmm(rows, args["k_total"], "full", config, start)

    def test_start_checks_component_count(self):
        data = crandn(np.random.default_rng(64), 4, 3)
        with pytest.raises(ValueError, match="need at least K=5 samples"):
            mfa.kmeans_start(data, 5, 0)
        with pytest.raises(ValueError, match="n_components must be >= 1"):
            mfa.kmeans_start(data, 0, 0)


class TestEmProperties:
    @given(em_problems())
    def test_monotone_trace_property(self, problem):
        data, k_total, latent, config = problem
        _, trace = fit_em(data, k_total, latent, config)
        slack = 1e-8 * np.abs(trace.loglik[:-1])
        diffs = np.diff(trace.loglik)
        assert np.all(diffs >= -slack)

    @pytest.mark.parametrize("k_total", [1, 3, 6])
    def test_shared_diagonal_start_pools_cluster_residuals(self, k_total):
        # The k-means start under shared-diagonal gives every component the
        # residual diagonal the per-component start gives each, pooled entry
        # by entry by cluster size.
        rng = np.random.default_rng(59)
        data = sample(make_model(rng, 3, 5, 2, sep=2.0, psi=0.2), 60, rng).samples
        begin = mfa.kmeans_start(data, k_total, 60)
        start = lambda mode: mfa._em_start(
            data, k_total, mfa._MfaFamily(2, mode, data), begin.labels, begin.generator()
        )
        shared, own = start("shared-diagonal"), start("diagonal")
        sizes = np.bincount(begin.labels, minlength=k_total)
        floor = mfa.PSI_FLOOR_REL * float(np.mean(np.abs(data) ** 2))
        pooled = np.maximum(sizes @ own.diag_terms / 60, floor)
        assert np.ptp(pooled) > 0.0
        assert np.all(shared.diag_terms == pooled)
        assert np.array_equal(shared.loadings, own.loadings)

    @given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from(["diagonal", "shared-diagonal"]))
    def test_diagonal_starts_match_dense_reference(self, data, k_total, dim, seed, mode):
        # Clusters of any size, so some start at the restart diagonal and some
        # at the floor; L runs from 0, the circulant GMM's, to N.
        latent = data.draw(st.integers(0, dim))
        count = data.draw(st.integers(k_total, 40))
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0.0, 3.0) * crandn(rng, dim) + crandn(rng, count, dim)
        labels = rng.integers(k_total, size=count)
        fitted = np.bincount(labels, minlength=k_total) >= 2
        family = mfa._MfaFamily(latent, mode, samples)
        means, (loadings, diagonals) = family.start(samples, labels, fitted)
        want_means, want_products, want_diagonals = start_reference(
            samples, labels, k_total, latent, mode
        )
        scale = np.abs(samples).max()
        products = loadings @ loadings.conj().transpose(0, 2, 1)
        assert np.abs(means[fitted] - want_means[fitted]).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(products[fitted] - want_products[fitted]).max(initial=0.0) <= 1e-9 * scale**2
        assert np.abs(diagonals - want_diagonals).max() <= 1e-9 * scale**2

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_scaled_identity_start_at_l0(self, k_total, dim, seed):
        # With no axis to take, each cluster's scale is its mean per-entry
        # variance, trace(S_k) / N, floored; no eigenvalues are read.
        rng = np.random.default_rng(seed)
        count = int(rng.integers(k_total, 41))
        samples = rng.uniform(0.0, 3.0) * crandn(rng, dim) + crandn(rng, count, dim)
        labels = rng.integers(k_total, size=count)
        fitted = np.bincount(labels, minlength=k_total) >= 2
        family = mfa._MfaFamily(0, "scaled-identity", samples)
        with patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh at L = 0")):
            means, (loadings, diagonals) = family.start(samples, labels, fitted)
        assert loadings.shape == (k_total, dim, 0)
        for k in np.flatnonzero(fitted):
            cluster = samples[labels == k]
            spread = np.mean(np.abs(cluster - cluster.mean(axis=0)) ** 2)
            want = max(spread, family.floor)
            assert np.allclose(diagonals[k], want, rtol=1e-12, atol=0.0)
        assert np.all(diagonals[~fitted] == max(family.scale, family.floor))

    def test_scaled_identity_fits_at_l0(self):
        # The isotropic GMM: an exact M-step, so the trace does not fall.
        data = sample(make_model(np.random.default_rng(63), 3, 5, 2, sep=3.0), 300,
                      np.random.default_rng(64)).samples
        config = FitConfig(max_iter=10, rel_tol=1e-12, seed=3)
        model, trace = mfa.fit_mixture(data, 3, config, partial(mfa._MfaFamily, 0, "scaled-identity"))
        assert model.latent_dim == 0
        assert np.all(model.diag_terms == model.diag_terms[:, :1])
        assert np.all(np.diff(trace.loglik) >= -1e-8 * np.abs(trace.loglik[:-1]))

    @pytest.mark.parametrize("family", ["scaled-identity", "diagonal", *baselines.GMM_STRUCTURES])
    def test_small_cluster_start(self, family):
        # k-means leaves cluster 1 with one sample and cluster 2 empty. Both
        # restart: cluster 1 at its sample, cluster 2 at a random one, with the
        # family's restart parameters, drawn in component order. The circulant
        # GMM fits as L = 0 factor analyzers on the DFT rows, whose restart
        # loading is empty and draws nothing.
        data = crandn(np.random.default_rng(61), 12, 4)
        labels = np.array([0] * 10 + [1, 0])
        if family == "circulant":
            data = np.fft.fft(data, norm="ortho")
            math = mfa._MfaFamily(0, "diagonal", data)
        elif family in mfa.PSI_MODES:
            math = mfa._MfaFamily(2, family, data)
        else:
            math = baselines._GmmFamily(family, data)
        start = mfa._em_start(data, 3, math, labels, np.random.default_rng(62))
        scale = float(np.mean(np.abs(data) ** 2))
        draws = np.random.default_rng(62)
        if family == "circulant":
            empty_at = draws.integers(12)
            assert start.loadings.shape == (3, 4, 0)
            assert np.all(start.diag_terms[1:] == max(scale, mfa.PSI_FLOOR_REL * scale))
        elif family in mfa.PSI_MODES:
            loading = lambda: 0.3 * np.sqrt(scale) * gaussians._std_cnormal(draws, (4, 2))
            single_loading = loading()
            empty_at = draws.integers(12)
            assert np.array_equal(start.loadings[1], single_loading)
            assert np.array_equal(start.loadings[2], loading())
            assert np.all(start.diag_terms[1:] == max(scale, mfa.PSI_FLOOR_REL * scale))
        else:
            empty_at = draws.integers(12)
            restart = baselines._isotropic(family, 4, scale)
            assert np.array_equal(start.params[1:], np.stack([restart, restart]))
        assert np.array_equal(start.means[1], data[10])
        assert np.array_equal(start.means[2], data[empty_at])
        assert np.array_equal(start.weights, np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize("mode", ["scaled-identity", "shared-diagonal", "diagonal"])
    def test_monotone_traces(self, mode):
        for seed in range(7):
            rng = np.random.default_rng(100 + seed)
            true = make_model(rng, 2, 5, 2, sep=2.0, psi=0.2)
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
            assert abs(model.weights[f] - true.weights[t]) < 0.02
            angles = subspace_angles(model.loadings[f], true.loadings[t])
            assert angles.max() < 0.1

    def test_likelihood_consistency(self):
        # Average log-density of fresh samples matches an independent
        # Monte-Carlo estimate of the negative differential entropy.
        rng = np.random.default_rng(53)
        model = make_model(rng, 2, 8, 2, sep=3.0, psi=0.2)
        ll_a = log_likelihood(model, sample(model, 100_000, np.random.default_rng(54)))
        draws = sample(model, 100_000, np.random.default_rng(55)).samples
        ll_b = posterior(dense_logdens(model, 0.0, draws))[1].mean()
        assert abs(ll_a - ll_b) < 0.05

    def test_reseed_collapsed(self):
        # The third start component sits far from the data with a vanishing
        # weight, so its responsibility mass collapses in the first iteration.
        rng = np.random.default_rng(56)
        base = make_model(rng, 3, 5, 2, sep=2.0, psi=0.2)
        weights = np.array([0.5, 0.5 - 1e-12, 1e-12])
        means = base.means.copy()
        means[2] = 50.0
        broken = MfaModel(weights, means, base.loadings, base.diag_terms)
        data = sample(base, 200, np.random.default_rng(57)).samples
        _, fixed = em_update(broken, data, seed=58)
        assert fixed.n_components == 3
        assert np.all(fixed.weights > 1e-3)
        assert abs(fixed.weights.sum() - 1.0) < 1e-12
        # the re-seeded mean sits on the sample the start model fits worst
        _, mix = posterior(dense_logdens(broken, 0.0, data))
        worst = data[np.argmin(mix)]
        assert np.abs(fixed.means[2] - worst).max() < 1e-12
        # the other components keep their (updated) places
        assert np.abs(fixed.means[0] - base.means[0]).max() < 2.0

    def test_shared_diagonal_survives_a_collapse(self):
        # The second start component sits far from the data, so its mass is
        # exactly zero and it restarts on the diagonal the others share.
        data = crandn(np.random.default_rng(63), 200, 4)
        means = np.zeros((2, 4), complex)
        means[1] = 1e3
        start = MfaModel([0.5, 0.5], means, np.full((2, 4, 1), 0.1 + 0j), np.ones((2, 4)))
        _, fixed = em_update(start, data, mode="shared-diagonal")
        assert fixed.weights[1] == pytest.approx(1.0 / 3.0)
        assert np.all(fixed.diag_terms == fixed.diag_terms[0])
        assert np.ptp(fixed.diag_terms[0]) > 0.01


@st.composite
def sparse_responsibilities(draw, count, k_total, chunk):
    """(count, K) weights as the EM accumulations see them: exact zeros
    throughout, rows normalized or exactly one-hot, one component with no rows
    in a chunk of ``chunk`` rows and one component with a single row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        resp = np.eye(k_total)[rng.integers(k_total, size=count)]
    else:
        kept = rng.random((count, k_total)) < draw(st.floats(0.05, 1.0))
        resp = rng.uniform(1e-3, 1.0, (count, k_total)) * kept
        totals = resp.sum(axis=1, keepdims=True)
        np.divide(resp, totals, out=resp, where=totals > 0)
    start = chunk * draw(st.integers(0, (count - 1) // chunk))
    resp[start:start + chunk, draw(st.integers(0, k_total - 1))] = 0.0
    single = draw(st.integers(0, k_total - 1))
    resp[:, single] = 0.0
    resp[draw(st.integers(0, count - 1)), single] = draw(st.sampled_from([1.0, 0.3, 1e-3]))
    return resp


def dense_em_iteration(samples, abs2, model, resp_all):
    """_em_iteration with the given weights, accumulated densely over every
    (row, component) pair with a few large products, as before the sparse
    accumulator."""
    count, dim = samples.shape
    k_total, latent = model.n_components, model.latent_dim
    width = latent + 1
    stack = stack_mixture(model, 0.0)
    s_xq_flat = np.zeros((dim, k_total * width), dtype=complex)
    s_qq = np.zeros((k_total, width, width), dtype=complex)
    r_abs2 = np.zeros((dim, k_total))
    masses = np.zeros(k_total)
    ll_sum, worst_val, worst_idx = 0.0, np.inf, 0
    chunk = stack.chunk_rows()
    for start in range(0, count, chunk):
        block = samples[start:start + chunk]
        size = len(block)
        aug = np.empty((size, k_total, width), dtype=complex)
        abs2_block = abs2[start:start + size]
        logdens = mixture_logdens(stack, block, abs2_block, aug, with_intercept(block))
        resp, lse = resp_all[start:start + size], posterior(logdens)[1]
        ll_sum += float(lse.sum())
        if lse.min() < worst_val:
            worst_val, worst_idx = float(lse.min()), start + int(np.argmin(lse))
        weighted = aug.conj() * resp[:, :, None]
        s_xq_flat += block.T @ weighted.reshape(size, k_total * width)
        s_qq += np.matmul(aug.transpose(1, 2, 0), weighted.transpose(1, 0, 2))
        r_abs2 += abs2_block.T @ resp
        masses += resp.sum(axis=0)
    roots = np.zeros((k_total, width, width), dtype=complex)
    roots[:, :latent, :latent] = stack.latent_root
    roots[:, latent, latent] = 1.0
    roots_h = roots.conj().transpose(0, 2, 1)
    s_xz = s_xq_flat.reshape(dim, k_total, width).transpose(1, 0, 2) @ roots_h
    s_qq[:, :latent, :latent] += masses[:, None, None] * np.eye(latent)
    s_zz = roots @ s_qq @ roots_h
    return (ll_sum / count, worst_idx, masses, *em_regression(s_xz, s_zz, masses, r_abs2.T))


class TestSparseAccumulator:
    """The EM accumulations run over the nonzero weights only
    (``gaussians.component_rows``); they match dense accumulations over every
    (row, component) pair to 1e-12 relative."""

    @given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 150))
    def test_em_iteration_matches_dense(self, data, k_total, dim, count):
        latent = data.draw(st.integers(1, dim))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        model = make_model(rng, k_total, dim, latent, sep=2.0, psi=0.2)
        samples = sample(model, count, rng).samples
        abs2 = np.abs(samples) ** 2
        # The smallest budget gives 64-row chunks, so the sweep spans up to three.
        resp = data.draw(sparse_responsibilities(count, k_total, 64))
        feed = iter(range(0, count, 64))

        def injected(logdens):
            start = next(feed)
            return resp[start:start + len(logdens)].copy(), posterior(logdens)[1]

        with patch.object(gaussians, "_STACK_CHUNK_BUDGET", 1), \
                patch.object(gaussians, "responsibilities", injected):
            got = mfa._em_iteration(samples, model)
            want = dense_em_iteration(samples, abs2, model, resp)
        assert got[:2] == want[:2]
        # Each statistic relative to its own scale: the masses, the data for
        # the regression (a single-row loading is rounding noise) and the
        # weighted energies for the residuals.
        data_scale = np.abs(samples).max()
        scales = (want[2].max(), data_scale, data_scale, (resp.T @ abs2).max())
        for a, b, scale in zip(got[2:], want[2:], scales):
            assert np.abs(a - b).max() <= 1e-12 * max(scale, 1e-300)

    @given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 150),
           st.sampled_from([1, 97, 1 << 17]))
    def test_full_m_step_matches_dense(self, data, k_total, dim, count, budget):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        samples = rng.uniform(0.0, 3.0) * crandn(rng, dim) + crandn(rng, count, dim)
        chunk = max(4, budget // dim)  # row_chunks' step, before its even split
        resp = data.draw(sparse_responsibilities(count, k_total, chunk))
        resp = resp[:, resp.sum(axis=0) > 0]  # fits pass live components only
        with patch.object(baselines, "_GMM_CHUNK_BUDGET", budget):
            means, params = baselines._m_step("full", samples, resp, None)
        masses = resp.sum(axis=0)
        want_means = resp.T @ samples / masses[:, None]
        second = (resp[:, :, None] * samples[:, None, :]).reshape(count, -1).T @ samples.conj()
        stats = second.reshape(-1, dim, dim) / masses[:, None, None]
        stats -= want_means[:, :, None] * want_means[:, None, :].conj()
        energy = np.trace(stats, axis1=1, axis2=2).real
        floor = baselines.EIG_FLOOR_REL * np.maximum(energy / dim, np.finfo(float).tiny)
        vals, vecs = np.linalg.eigh(0.5 * (stats + stats.conj().transpose(0, 2, 1)))
        want = (vecs * np.maximum(vals, floor[:, None])[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        assert np.array_equal(means, want_means)
        # Relative to the second moments, which the moment form starts from.
        scale = np.abs(samples).max() ** 2
        assert np.abs(params - want).max() <= 1e-12 * scale


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        model = make_model(rng, 3, 6, 2, sep=6.0, psi=0.2)
        path = tmp_path / "model.mfa"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_components == model.n_components
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.means, model.means)
        assert np.array_equal(loaded.loadings, model.loadings)
        assert np.array_equal(loaded.diag_terms, model.diag_terms)

    def test_truncated_rejected(self, tmp_path):
        from mfachest._binio import FileFormatError

        rng = np.random.default_rng(62)
        model = make_model(rng, 2, 4, 1, sep=6.0, psi=0.2)
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
