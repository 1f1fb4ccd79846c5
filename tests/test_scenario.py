from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given

from mfachest import gaussians, scenario
from mfachest._binio import FileFormatError
from mfachest.mfa import FitConfig, fit_em
from mfachest.scenario import (
    ChannelDataset,
    ScenarioConfig,
    corrupt,
    generate_channels,
    read_dataset,
    scenario_from_dict,
    write_dataset,
)
from oracles import (
    crandn,
    kronecker_channels,
    normalize_dataset,
    scenarios,
    steering_batch,
    traced_peak,
)


def steering(azimuth, elevation, config):
    """The steering vector (N,) of one angle pair."""
    return steering_batch(np.array([azimuth]), np.array([elevation]), config)[0]


class TestSteering:
    def test_broadside_all_ones(self):
        config = ScenarioConfig(nv=4, nh=16)
        a = steering(0.0, 0.0, config)
        assert np.allclose(a, np.ones(64), atol=1e-15)

    def test_single_element(self):
        config = ScenarioConfig(nv=1, nh=1, num_clusters=1)
        a = steering(0.7, -0.3, config)
        assert a.shape == (1,)
        assert a[0] == pytest.approx(1.0 + 0j)

    def test_energy_is_dim(self):
        config = ScenarioConfig(nv=3, nh=5)
        rng = np.random.default_rng(120)
        for _ in range(20):
            az, el = rng.uniform(-1.2, 1.2, 2)
            a = steering(az, el, config)
            assert np.linalg.norm(a) ** 2 == pytest.approx(15.0, abs=1e-10)
            assert np.abs(np.abs(a) - 1.0).max() < 1e-12

    def test_batch_matches_closed_form(self):
        # Entry (v, h) of pair i is exp(2 pi j (d_v v sin el_i + d_h h sin az_i cos el_i)),
        # at index v * nh + h.
        config = ScenarioConfig(nv=3, nh=5, spacing_v=0.7, spacing_h=0.4)
        rng = np.random.default_rng(121)
        az, el = rng.uniform(-1.2, 1.2, (2, 7))
        got = steering_batch(az, el, config)
        v, h = np.divmod(np.arange(15), 5)
        phase = 0.7 * v * np.sin(el)[:, None] + 0.4 * h * (np.sin(az) * np.cos(el))[:, None]
        assert got.shape == (7, 15)
        assert np.abs(got - np.exp(2j * np.pi * phase)).max() < 1e-12


class TestGenerate:
    @given(scenarios())
    def test_matches_kronecker_atoms(self, drawn):
        # The phasor-power product against explicit Kronecker atoms of exact exps:
        # the same draws (the generator ends in the same state) and the same
        # channels up to the recurrence's rounding.
        config, count, budget, seed = drawn
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = kronecker_channels(config, count, want_rng)
        with patch.object(gaussians, "_FILL_BYTES", budget):
            got = generate_channels(config, count, got_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got.samples.shape == want.samples.shape == (count, config.dim)
        scale = np.abs(want.samples).max()
        assert np.abs(got.samples - want.samples).max() <= 1e-13 * scale
        assert got.normalization == pytest.approx(want.normalization, rel=1e-12)

    def test_scales_its_draws_as_normalize_dataset_does(self):
        # In place, bit for bit what the copying oracle returns.
        config = ScenarioConfig(nv=2, nh=4, num_clusters=3, seed=9)
        raw = scenario._draw_channels(config, 300, np.random.default_rng(11))
        want = normalize_dataset(ChannelDataset(raw))
        got = generate_channels(config, 300, np.random.default_rng(11))
        assert np.array_equal(got.samples, want.samples)
        assert got.normalization == want.normalization

    def test_peak_memory_is_bounded_by_its_output(self):
        # The samples are the only (T, N) array: the energies are summed by row
        # chunks, so the draws held beside the samples set the peak, 1.44
        # times the output on the 4x16 URA (1.5 times with a (T, N) float of
        # the energies, 2.5 times when the normalization copied the samples).
        ds, peak = traced_peak(generate_channels, ScenarioConfig(), 20_000, np.random.default_rng(3))
        assert peak <= 1.5 * ds.samples.nbytes

    def test_zero_spread_single_path_is_scaled_steering(self):
        config = ScenarioConfig(
            nv=2, nh=4, num_clusters=1, paths_per_cluster=1, angle_spread_deg=0.0, seed=3
        )
        ds = generate_channels(config, 50, np.random.default_rng(4))
        # all samples are complex multiples of one vector
        ref = ds.samples[0] / np.linalg.norm(ds.samples[0])
        for row in ds.samples:
            overlap = abs(ref.conj() @ row) / np.linalg.norm(row)
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_zero_spread_rank_one_covariance(self):
        config = ScenarioConfig(
            nv=2, nh=4, num_clusters=1, paths_per_cluster=5, angle_spread_deg=0.0, seed=5
        )
        ds = generate_channels(config, 500, np.random.default_rng(6))
        cov = ds.samples.T @ ds.samples.conj() / 500
        vals = np.linalg.eigvalsh(cov)[::-1]
        assert vals[1] < 1e-8 * vals[0]

    def test_seed_reproducibility(self):
        config = ScenarioConfig(nv=2, nh=4, num_clusters=3, seed=9)
        a = generate_channels(config, 200, np.random.default_rng(11)).samples
        b = generate_channels(config, 200, np.random.default_rng(11)).samples
        assert np.array_equal(a, b)

    def test_normalization_invariant(self):
        config = ScenarioConfig(nv=2, nh=8, num_clusters=4, seed=1)
        ds = generate_channels(config, 1000, np.random.default_rng(2))
        energy = np.mean(np.sum(np.abs(ds.samples) ** 2, axis=1))
        assert energy == pytest.approx(16.0, abs=1e-9)

    def test_low_rank_structure_detectable(self):
        # With zero angle spread each cluster is rank one, so L=1 fits as well
        # as any larger latent dimension.
        config = ScenarioConfig(
            nv=2, nh=4, num_clusters=3, paths_per_cluster=6, angle_spread_deg=0.0, seed=21
        )
        ds = generate_channels(config, 3000, np.random.default_rng(22))
        lls = {}
        for latent in range(1, 5):
            model, trace = fit_em(
                ds, 3, latent, FitConfig(max_iter=60, rel_tol=1e-8, seed=0)
            )
            lls[latent] = trace.loglik[-1]
        assert lls[1] >= max(lls.values()) - 0.1


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(130)
        raw = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        once = raw * scenario._normalization(raw)
        assert abs(scenario._normalization(once) - 1.0) < 1e-12

    def test_scale_invariant(self):
        rng = np.random.default_rng(131)
        raw = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        a = raw * scenario._normalization(raw)
        b = 7.0 * raw * scenario._normalization(7.0 * raw)
        assert np.abs(a - b).max() < 1e-12

    def test_single_sample_target_norm(self):
        v = np.zeros((1, 4), complex)
        v[0, 1] = 1.0
        assert np.linalg.norm(v[0] * scenario._normalization(v)) == pytest.approx(2.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            scenario._normalization(np.zeros((5, 3), complex))


class TestCorrupt:
    def test_snr_zero_db(self):
        _, sigma2 = corrupt(np.zeros(4, complex), 0.0, np.random.default_rng(0))
        assert sigma2 == 1.0

    def test_snr_twenty_db(self):
        _, sigma2 = corrupt(np.zeros(4, complex), 20.0, np.random.default_rng(0))
        assert sigma2 == pytest.approx(0.01)

    def test_noise_power(self):
        rng = np.random.default_rng(132)
        h = np.zeros((100_000, 4), complex)
        y, sigma2 = corrupt(h, 3.0, rng)
        power = float(np.mean(np.sum(np.abs(y) ** 2, axis=1)))
        se = sigma2 * 4 / np.sqrt(100_000)
        assert abs(power - 4 * sigma2) < 3 * se

    def test_real_imag_split(self):
        rng = np.random.default_rng(133)
        y, sigma2 = corrupt(np.zeros((200_000, 2), complex), 5.0, rng)
        var_re = float(np.var(y.real))
        var_im = float(np.var(y.imag))
        se = (sigma2 / 2) * np.sqrt(2 / 400_000) * 3
        assert abs(var_re - sigma2 / 2) < se
        assert abs(var_im - sigma2 / 2) < se

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, -1e4])
    def test_rejects_snr_without_finite_noise_power(self, snr_db):
        with pytest.raises(ValueError):
            corrupt(np.zeros(4, complex), snr_db, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(64,), (300, 7)])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 7.3, 30.0])
    def test_same_noise_as_complex_draw(self, shape, snr_db):
        # The noise is (a + j b) sqrt(sigma2 / 2) with a, b the generator's next
        # two standard normal blocks, bit for bit.
        h = np.random.default_rng(134).standard_normal(shape) + 0.5j
        want_rng, got_rng = np.random.default_rng(135), np.random.default_rng(135)
        sigma2 = float(10.0 ** (-snr_db / 10.0))
        noise = want_rng.standard_normal(shape) + 1j * want_rng.standard_normal(shape)
        noise *= np.sqrt(sigma2 / 2.0)
        y, got_sigma2 = corrupt(h, snr_db, got_rng)
        assert got_sigma2 == sigma2
        assert np.array_equal(y, h + noise)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_infinite_snr_is_noiseless(self):
        h = np.arange(4) + 1j
        y, sigma2 = corrupt(h, np.inf, np.random.default_rng(0))
        assert sigma2 == 0.0
        assert np.array_equal(y, h)


class TestDatasetIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(134)
        ds = ChannelDataset(
            rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6)),
            normalization=0.37,
        )
        path = tmp_path / "data.chd"
        write_dataset(path, ds)
        loaded = read_dataset(path)
        assert np.array_equal(loaded.samples, ds.samples)
        assert loaded.normalization == ds.normalization

    def test_read_holds_the_body_once(self, tmp_path):
        # The body is read straight into the returned samples: no bytes copy.
        ds = ChannelDataset(crandn(np.random.default_rng(137), 4000, 64))
        path = tmp_path / "data.chd"
        write_dataset(path, ds)
        loaded, peak = traced_peak(read_dataset, path)
        assert np.array_equal(loaded.samples, ds.samples)
        assert peak <= 1.05 * ds.samples.nbytes

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(135)
        ds = ChannelDataset(rng.standard_normal((5, 3)) + 0j)
        path = tmp_path / "data.chd"
        write_dataset(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FileFormatError) as err:
            read_dataset(path)
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(136)
        ds = ChannelDataset(rng.standard_normal((5, 3)) + 0j)
        path = tmp_path / "data.chd"
        write_dataset(path, ds)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileFormatError):
            read_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.chd"
        path.write_bytes(b"WRNG" + b"\x00" * 40)
        with pytest.raises(FileFormatError):
            read_dataset(path)

    def test_empty_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "e.chd", ChannelDataset(np.zeros((0, 4), complex)))


class TestConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"nv": 2, "bogus": 1})

    def test_int_float_fields_stored_as_float(self):
        config = scenario_from_dict({"spacing_v": 1, "angle_spread_deg": np.int64(5)})
        assert type(config.spacing_v) is float and type(config.angle_spread_deg) is float

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(nv=0)
        with pytest.raises(ValueError):
            ScenarioConfig(spacing_h=-1.0)
