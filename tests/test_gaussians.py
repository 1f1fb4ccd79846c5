from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mfachest import gaussians
from mfachest.gaussians import (
    LOG_PI,
    RESP_REL,
    ConditioningError,
    component_rows,
    mixture_logdens,
    responsibilities,
    row_chunks,
    row_energy,
    stack_mixture,
)
from mfachest.mfa import MfaModel
from oracles import (
    component_rows_reference,
    crandn,
    dense_cov,
    dense_logdens,
    posterior,
    responsibilities_reference,
    sample_component,
    single,
    traced_peak,
    with_intercept,
)


def random_cov(rng, dim, latent, psi_lo=0.3, psi_hi=2.0):
    """A random zero-mean one-component mixture."""
    loading = crandn(rng, dim, latent)
    return single(loading, rng.uniform(psi_lo, psi_hi, dim))


def stack_inverse(comp, sigma2):
    """(C + sigma2 I)^{-1} read off the stacked factors: D - (D W R)(D W R)^H."""
    stack = stack_mixture(comp, sigma2)
    dwr = stack.proj[:-1, :-1].conj()
    return np.diag(stack.d[:, 0]) - dwr @ dwr.conj().T


def stack_logdet(comp, sigma2):
    """log det(C + sigma2 I) from the logconst of a weight-1, zero-mean stack."""
    return -comp.dim * LOG_PI - stack_mixture(comp, sigma2).logconst[0]


def logpdf(x, mean, comp, sigma2=0.0):
    """Complex Gaussian log-density from the mixture kernel with K=1 and weight 1."""
    x = np.asarray(x, dtype=np.complex128)
    rows = np.atleast_2d(x)
    latent = np.empty((rows.shape[0], 1, comp.latent_dim + 1), dtype=np.complex128)
    stack = stack_mixture(replace(comp, means=mean[None]), sigma2)
    out = mixture_logdens(stack, rows, np.abs(rows) ** 2, latent, with_intercept(rows))
    return float(out[0, 0]) if x.ndim == 1 else out[:, 0]


class TestWoodburyInverse:
    """The inverse (C + sigma2 I)^{-1} = D - D W A W^H D held by the stacked factors."""

    def test_zero_loading_is_diagonal(self):
        cov = single(np.zeros((4, 2), complex), np.full(4, 0.5))
        inv = stack_inverse(cov, 1.5)
        assert np.allclose(inv, np.eye(4) / 2.0, atol=1e-14)

    def test_two_by_two_hand_case(self):
        # W = [1; 0], Psi = I, sigma2 = 1 -> C = diag(3, 2)
        cov = single(np.array([[1.0], [0.0]], complex), np.ones(2))
        inv = stack_inverse(cov, 1.0)
        assert np.allclose(inv, np.diag([1 / 3, 1 / 2]), atol=1e-14)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(11)
        cov = random_cov(rng, 8, 3)
        inv = stack_inverse(cov, 0.4)
        oracle = np.linalg.inv(dense_cov(cov, 0, 0.4))
        assert np.abs(inv - oracle).max() < 1e-10

    def test_hermitian_and_identity_product(self):
        rng = np.random.default_rng(12)
        for dim, latent in [(5, 1), (16, 8), (64, 32)]:
            cov = random_cov(rng, dim, latent)
            sigma2 = rng.uniform(0.01, 2.0)
            inv = stack_inverse(cov, sigma2)
            assert np.abs(inv - inv.conj().T).max() <= 1e-12 * np.abs(inv).max()
            resid = inv @ dense_cov(cov, 0, sigma2) - np.eye(dim)
            assert np.linalg.norm(resid, 2) < 1e-9

    def test_conditioning_error(self):
        # Huge loading over a tiny diagonal drives the latent system of
        # component 1 singular; the error names that component.
        loadings = np.stack([np.ones((4, 2)), 1e12 * np.ones((4, 2))])
        diag_terms = np.stack([np.ones(4), np.full(4, 1e-12)])
        model = MfaModel(np.full(2, 0.5), np.zeros((2, 4)), loadings, diag_terms)
        with pytest.raises(ConditioningError, match="component 1 is not positive definite"):
            stack_mixture(model, 0.0)

    def test_ill_conditioned_component_named(self):
        # Latent system diag(1 + 1e14, 1): positive definite, condition estimate 1e14.
        loading = np.zeros((3, 2), complex)
        loading[0, 0] = 1e7
        loadings = np.stack([np.ones((3, 2), complex), loading])
        model = MfaModel(np.full(2, 0.5), np.zeros((2, 3)), loadings, np.ones((2, 3)))
        message = r"component 1 is ill-conditioned \(estimate 1\.00e\+14"
        with pytest.raises(ConditioningError, match=message):
            stack_mixture(model, 0.0)

    @pytest.mark.parametrize(
        "tiny", [1e-320, 1.0 / np.finfo(float).max], ids=["subnormal", "one-over-max"]
    )
    def test_uninvertible_diagonal_component_named(self, tiny):
        # 1 / max float itself rounds down, so its inverse overflows as well.
        diag_terms = np.stack([np.ones(3), np.full(3, tiny)])
        model = MfaModel(np.full(2, 0.5), np.zeros((2, 3)), np.ones((2, 3, 1)), diag_terms)
        with pytest.raises(ConditioningError, match="diagonal of component 1 is not invertible"):
            stack_mixture(model, 0.0)

    @pytest.mark.parametrize("loading, message", [
        (1.0, "factors of component 1 are not finite"),
        (1e10, "latent system of component 1 is not finite"),
    ], ids=["large-mean", "large-loading"])
    def test_nonfinite_factors_component_named(self, loading, message):
        # Over a diagonal of 1e-300, which is invertible, a mean of 1e10
        # overflows D mu and the log-constant, and loadings of 1e10 overflow the
        # latent system; either raises without a RuntimeWarning.
        loadings = np.stack([np.ones((4, 1)), np.full((4, 1), loading)])
        means = np.stack([np.zeros(4), np.full(4, 1e10)])
        diag_terms = np.stack([np.ones(4), np.full(4, 1e-300)])
        model = MfaModel(np.full(2, 0.5), means, loadings, diag_terms)
        with pytest.raises(ConditioningError, match=message):
            stack_mixture(model, 0.0)

    def test_smallest_invertible_diagonal_factors(self):
        smallest = np.nextafter(1.0 / np.finfo(float).max, np.inf)
        stack = stack_mixture(single(np.zeros((3, 1), complex), np.full(3, smallest)), 0.0)
        assert np.all(stack.d == 1.0 / smallest)

    def test_requires_positive_shifted_diag(self):
        cov = single(np.zeros((2, 1), complex), np.ones(2))
        with pytest.raises(ValueError):
            stack_mixture(cov, -2.0)


class TestLowrankLogdet:
    """log det(C + sigma2 I) by the determinant lemma, read off the stack's logconst."""

    def test_identity(self):
        cov = single(np.zeros((5, 2), complex), np.ones(5))
        assert stack_logdet(cov, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_two_by_two_hand_case(self):
        cov = single(np.array([[1.0], [0.0]], complex), np.ones(2))
        assert stack_logdet(cov, 1.0) == pytest.approx(np.log(6.0), abs=1e-14)

    def test_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            cov = random_cov(rng, 8, 3)
            sigma2 = rng.uniform(0.0, 1.0)
            oracle = np.linalg.slogdet(dense_cov(cov, 0, sigma2))[1]
            assert stack_logdet(cov, sigma2) == pytest.approx(oracle, abs=1e-10)


class TestCgaussLogpdf:
    """The mixture kernel's log-density at K=1 and weight 1."""

    def test_at_mean_identity_cov(self):
        dim = 6
        cov = single(np.zeros((dim, 1), complex), np.ones(dim))
        mean = np.arange(dim) + 1j * np.ones(dim)
        val = logpdf(mean, mean, cov, 0.0)
        assert val == pytest.approx(-dim * np.log(np.pi), abs=1e-12)

    def test_scalar_case(self):
        cov = single(np.zeros((1, 1), complex), np.ones(1))
        val = logpdf(np.array([1.0 + 0j]), np.array([0.0 + 0j]), cov, 0.0)
        assert val == pytest.approx(-np.log(np.pi) - 1.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        cov = random_cov(rng, 8, 3)
        mean = crandn(rng, 8)
        x = crandn(rng, 20, 8) + mean
        oracle = dense_logdens(replace(cov, means=mean[None]), 0.3, x)[:, 0]
        got = logpdf(x, mean, cov, 0.3)
        assert np.abs(got - oracle).max() < 1e-9

    def test_integrates_to_one_importance(self):
        # Importance-sample the density mass with a wider proposal on N=2.
        rng = np.random.default_rng(15)
        cov = random_cov(rng, 2, 1, psi_lo=0.4, psi_hi=1.0)
        mean = np.array([0.3 - 0.2j, -0.1 + 0.5j])
        prop_var = 6.0
        draws = crandn(rng, 200_000, 2) * np.sqrt(prop_var) + mean
        log_q = -2 * np.log(np.pi * prop_var) - (np.abs(draws - mean) ** 2).sum(1) / prop_var
        log_p = logpdf(draws, mean, cov, 0.0)
        mass = np.mean(np.exp(log_p - log_q))
        assert mass == pytest.approx(1.0, rel=0.02)


class TestSampleComponent:
    def test_degenerate_covariance_returns_mean(self):
        mean = np.array([1.0 + 2.0j, -3.0j, 0.5])
        comp = single(np.zeros((3, 1), complex), np.full(3, 1e-12), mean)
        draw = sample_component(comp, 0, np.random.default_rng(0))
        assert np.abs(draw - mean).max() < 1e-5

    def test_moment_match(self):
        rng = np.random.default_rng(16)
        cov = random_cov(rng, 4, 2)
        mean = crandn(rng, 4)
        n = 100_000
        comp = replace(cov, means=mean[None])
        draws = sample_component(comp, 0, np.random.default_rng(17), size=n)
        centered = draws - draws.mean(axis=0)
        emp = centered.T @ centered.conj() / n
        target = dense_cov(cov, 0)
        # entrywise standard error of a complex covariance estimate
        scale = np.sqrt(np.outer(target.diagonal().real, target.diagonal().real) / n)
        assert np.all(np.abs(emp - target) < 3.5 * scale + 1e-12)
        mean_se = np.sqrt(target.diagonal().real / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * mean_se)

    def test_seed_determinism(self):
        rng = np.random.default_rng(18)
        cov = random_cov(rng, 5, 2)
        comp = replace(cov, means=crandn(rng, 5)[None])
        a = sample_component(comp, 0, np.random.default_rng(99))
        b = sample_component(comp, 0, np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestLogSumExp:
    """The per-row log-sum-exp that ``responsibilities`` returns."""

    def test_single_element(self):
        assert responsibilities(np.array([[0.0]]))[1][0] == 0.0

    def test_small_exact(self):
        got = responsibilities(np.log(np.array([[1.0, 3.0]])))[1][0]
        assert got == pytest.approx(np.log(4.0), abs=1e-14)

    def test_underflow_shift(self):
        got = responsibilities(np.array([[-1000.0, -1000.0]]))[1][0]
        assert got == pytest.approx(-1000.0 + np.log(2.0), abs=1e-12)

    def test_axis(self):
        vals = np.log(np.array([[1.0, 3.0], [2.0, 2.0]]))
        got = responsibilities(vals)[1]
        assert np.allclose(got, np.log([4.0, 4.0]))


@st.composite
def log_densities(draw):
    """(B, K) log-densities spread over 1500 nats, so that many rows hold
    entries whose exponentials are subnormal or underflow to zero."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return draw(arrays(np.float64, shape, elements=st.floats(-1500.0, 50.0)))


class TestResponsibilities:
    @given(log_densities())
    def test_floor_and_simplex(self, logdens):
        # The floor is relative: an entry is kept when its exponential, shifted
        # by the row max, is at least RESP_REL, i.e. RESP_REL of the row's largest.
        resp, lse = responsibilities(logdens)
        assert np.abs(resp.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(resp.max(axis=1) >= (1.0 - 1e-12) / logdens.shape[1])
        unfloored, want_lse = posterior(logdens)
        assert np.array_equal(lse, want_lse)
        relative = np.exp(logdens - logdens.max(axis=1, keepdims=True))
        kept = resp > 0.0
        assert np.array_equal(kept, relative >= RESP_REL)
        assert np.all(resp[kept] >= RESP_REL / logdens.shape[1])
        assert np.allclose(resp[kept], unfloored[kept], rtol=1e-12, atol=0.0)

    @given(log_densities())
    def test_leaves_its_input_unchanged(self, logdens):
        # The shift and the exponential run in the one array it returns.
        before = logdens.copy()
        resp, _ = responsibilities(logdens)
        assert np.array_equal(logdens, before)
        assert not np.shares_memory(resp, logdens)


@st.composite
def shifted_log_densities(draw):
    """(B, K) log-densities up to 800 nats below a finite row max, with -inf
    entries, and rows that are all -inf or hold a NaN."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    gaps = draw(arrays(np.float64, (rows, cols), elements=st.one_of(
        st.floats(-800.0, 0.0), st.just(-np.inf))))
    logdens = gaps + draw(st.floats(-1e4, 1e4))
    kinds = draw(arrays(np.int8, rows, elements=st.integers(0, 3)))
    logdens[kinds == 1] = -np.inf
    logdens[kinds == 2, draw(st.integers(0, cols - 1))] = np.nan
    return logdens


class TestResponsibilitiesMatchReference:
    @given(shifted_log_densities())
    def test_bit_identical_to_unclamped_exp(self, logdens):
        # The exponent clamp changes no value: not the responsibilities, not the
        # log-sum-exp, not the NaN or overflow of a row without a finite max.
        with np.errstate(all="ignore"):
            resp, lse = responsibilities(logdens)
            want_resp, want_lse = responsibilities_reference(logdens)
        assert np.array_equal(resp, want_resp, equal_nan=True)
        assert np.array_equal(lse, want_lse, equal_nan=True)


class TestComponentRows:
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                  elements=st.sampled_from([0.0, 1e-300, 0.25, 1.0])))
    def test_groups_nonzero_entries(self, resp):
        got = {k: rows.tolist() for k, rows in component_rows(resp)}
        want = {k: np.flatnonzero(resp[:, k]).tolist() for k in range(resp.shape[1])}
        assert got == {k: rows for k, rows in want.items() if rows}

    @given(st.data(), st.integers(1, 40), st.integers(1, 12),
           st.sampled_from(["bool", "float", "nan", "zero"]))
    def test_matches_transposed_nonzero(self, data, rows, cols, kind):
        # Bool masks and float weights, with empty columns, all-zero input,
        # one row and NaN entries (which count as nonzero).
        values = {"bool": [False, True], "float": [0.0, 1e-300, 0.5],
                  "nan": [0.0, np.nan, 2.0], "zero": [0.0]}[kind]
        weights = data.draw(arrays(np.bool_ if kind == "bool" else np.float64, (rows, cols),
                                   elements=st.sampled_from(values)))
        got = [(k, idx.tolist()) for k, idx in component_rows(weights)]
        want = [(k, idx.tolist()) for k, idx in component_rows_reference(weights)]
        assert got == want


class TestRowChunks:
    @given(st.integers(0, 1000), st.integers(1, 1 << 12), st.integers(1, 1 << 16))
    def test_even_split_within_budget(self, count, row_bytes, budget):
        # In order and tiling 0..count, sizes within one of each other, four rows
        # a chunk at least (all of them when fewer), and within the budget when
        # it holds eight rows or more; a smaller budget gives four to seven rows.
        parts = list(row_chunks(count, row_bytes, budget))
        bounds = [0, *(part.stop for part in parts)]
        assert [part.start for part in parts] == bounds[:-1] and bounds[-1] == count
        sizes = [part.stop - part.start for part in parts]
        if sizes:
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= min(4, count)
            assert max(sizes) <= max(7, budget // row_bytes)


class TestRowEnergy:
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 2000), st.integers(0, 2**32 - 1))
    def test_chunks_sum_each_row_as_one_pass_does(self, count, dim, budget, seed):
        # Entries over 40 binary orders of magnitude, so a changed order of
        # operations would show in the last bits.
        rng = np.random.default_rng(seed)
        samples = crandn(rng, count, dim) * 2.0 ** rng.integers(-20, 20, (count, dim))
        with patch.object(gaussians, "_FILL_BYTES", budget):
            got = row_energy(samples)
        assert np.array_equal(got, (np.abs(samples) ** 2).sum(axis=1))

    def test_holds_one_chunk_of_squares(self):
        samples = crandn(np.random.default_rng(1), 20_000, 64)
        _, peak = traced_peak(row_energy, samples)
        assert peak <= gaussians._FILL_BYTES + 20_000 * 8 + (64 << 10)
