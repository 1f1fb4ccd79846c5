import json

import numpy as np
import pytest

from mfachest import bench, mfa
from mfachest.bench import (
    BenchSpec,
    EstimatorSpec,
    _load_data,
    bench_spec_from_dict,
    report_csv,
    report_jsonl,
    run_grid_sweep,
    run_latent_sweep,
    run_snr_sweep,
)
from mfachest.mfa import FitConfig, MfaModel, fit_em, save_model
from mfachest.scenario import ScenarioConfig, corrupt, write_dataset
from oracles import sample


def small_scenario(seed=0):
    return ScenarioConfig(nv=2, nh=4, num_clusters=3, paths_per_cluster=5, seed=seed)


def small_spec(estimators, **kwargs):
    defaults = dict(
        estimators=tuple(estimators),
        snr_grid_db=(0.0, 10.0),
        eval_count=400,
        train_count=1500,
        seed=7,
        scenario=small_scenario(),
        max_iter=30,
        rel_tol=1e-6,
    )
    defaults.update(kwargs)
    return BenchSpec(**defaults)


class TestSpecValidation:
    def test_unique_names(self):
        with pytest.raises(ValueError):
            small_spec([EstimatorSpec("ls"), EstimatorSpec("ls")])

    def test_needs_source(self):
        with pytest.raises(ValueError):
            BenchSpec(estimators=(), snr_grid_db=(0.0,))

    def test_nonempty_grid(self):
        with pytest.raises(ValueError):
            small_spec([EstimatorSpec("ls")], snr_grid_db=())

    @pytest.mark.parametrize("field", ["eval_count", "train_count"])
    def test_counts_at_least_one(self, field):
        with pytest.raises(ValueError, match=field):
            small_spec([EstimatorSpec("ls")], **{field: 0})

    @pytest.mark.parametrize("field, value, message", [
        ("max_iter", 0, "max_iter must be >= 1"),
        ("rel_tol", 0.0, "rel_tol must be > 0"),
        ("rel_tol", float("nan"), "rel_tol must be > 0"),
    ], ids=["zero-max-iter", "zero-rel-tol", "nan-rel-tol"])
    def test_fit_settings_checked(self, field, value, message):
        # Checked even when no estimator fits, before any data is generated.
        with pytest.raises(ValueError, match=message):
            small_spec([EstimatorSpec("ls")], **{field: value})

    def test_from_dict(self):
        spec = bench_spec_from_dict(
            {
                "estimators": [{"kind": "ls"}, {"kind": "mfa", "k": 2, "l": 1}],
                "snr_grid_db": [0, 10],
                "eval_count": 100,
                "train_count": 200,
                "seed": 1,
                "scenario": {"nv": 2, "nh": 4, "num_clusters": 2, "seed": 3},
            }
        )
        assert spec.estimators[1].k == 2
        assert spec.scenario.nh == 4


class TestSnrSweep:
    def test_ls_nmse_tracks_noise_power(self):
        spec = small_spec([EstimatorSpec("ls")], snr_grid_db=(0.0,), eval_count=3000)
        rows = run_snr_sweep(spec)
        assert len(rows) == 1
        assert rows[0].nmse == pytest.approx(1.0, rel=0.06)

    def test_true_model_beats_baselines(self, tmp_path):
        # Data generated from a planted mixture: the estimator that owns the
        # true parameters is the conditional mean and wins.
        rng = np.random.default_rng(140)
        means = np.empty((2, 8), complex)
        loadings = np.empty((2, 8, 2), complex)
        for k in range(2):
            means[k] = 3.0 * ((rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2))
            loadings[k] = (
                rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
            ) / np.sqrt(2)
        true = MfaModel(np.full(2, 0.5), means, loadings, np.full((2, 8), 0.2))
        train = sample(true, 2000, np.random.default_rng(141))
        eval_ds = sample(true, 1500, np.random.default_rng(142))
        train_path = tmp_path / "train.chd"
        eval_path = tmp_path / "eval.chd"
        write_dataset(train_path, train)
        write_dataset(eval_path, eval_ds)
        model_path = tmp_path / "true.mfa"
        save_model(true, model_path)

        spec = BenchSpec(
            estimators=(
                EstimatorSpec("ls"),
                EstimatorSpec("sample-lmmse"),
                EstimatorSpec("mfa-model", model_path=str(model_path), name="true-mfa"),
            ),
            snr_grid_db=(0.0, 10.0),
            seed=5,
            train_path=str(train_path),
            eval_path=str(eval_path),
        )
        rows = run_snr_sweep(spec)
        by_est = {}
        for row in rows:
            by_est.setdefault(row.estimator, {})[row.snr_db] = row.nmse
        for snr in (0.0, 10.0):
            best = by_est["true-mfa"][snr]
            assert best <= by_est["ls"][snr] + 1e-9
            assert best <= by_est["sample-lmmse"][snr] + 1e-9

    def test_empty_estimators(self):
        spec = small_spec([])
        rows = run_snr_sweep(spec)
        assert rows == []
        csv_text = report_csv(rows)
        assert csv_text == "estimator,K,L,T,snr_db,nmse,wall_time_ms\n"

    def test_deterministic_apart_from_timing(self):
        spec = small_spec([EstimatorSpec("ls"), EstimatorSpec("mfa", k=2, l=1)])
        a = run_snr_sweep(spec)
        b = run_snr_sweep(spec)
        strip = lambda rows: [(r.estimator, r.k, r.l, r.t, r.snr_db, r.nmse) for r in rows]
        assert strip(a) == strip(b)

    def test_missing_dataset_fails_before_estimation(self):
        spec = BenchSpec(
            estimators=(EstimatorSpec("ls"),),
            snr_grid_db=(0.0,),
            train_path="/nonexistent/train.chd",
            eval_path="/nonexistent/eval.chd",
        )
        with pytest.raises(OSError):
            run_snr_sweep(spec)


class TestSharedDraw:
    """Every estimator is scored on one read-only draw of the noise per SNR."""

    ENTRIES = [
        EstimatorSpec("ls"),
        EstimatorSpec("sample-lmmse"),
        EstimatorSpec("genie-omp"),
        EstimatorSpec("gmm-circ", k=2),
        EstimatorSpec("gmm-full", k=2),
        EstimatorSpec("mfa", k=2, l=1),
    ]

    def test_rows_equal_single_estimator_sweeps(self):
        # Each one-estimator sweep draws its own noise and runs its own k-means,
        # so an estimator that wrote into the shared observations, or a fit that
        # changed the shared k-means start, would change the others' rows.
        strip = lambda rows: [(r.estimator, r.k, r.l, r.t, r.snr_db, r.nmse) for r in rows]
        kwargs = dict(snr_grid_db=(0.0, 10.0, 20.0), max_iter=5)
        shared = run_snr_sweep(small_spec(self.ENTRIES, **kwargs))
        single = [row for e in self.ENTRIES for row in run_snr_sweep(small_spec([e], **kwargs))]
        assert strip(shared) == sorted(strip(single))

    @pytest.mark.parametrize("sweep, draws", [
        (run_snr_sweep, 3),
        (lambda spec: run_latent_sweep(spec, [1, 2]), 1),
        (lambda spec: run_grid_sweep(spec, [1, 2], [1, 2]), 1),
    ], ids=["snr", "latent", "grid"])
    def test_one_corrupt_call_per_snr(self, monkeypatch, sweep, draws):
        calls = []

        def counting_corrupt(samples, snr_db, rng):
            calls.append(snr_db)
            return corrupt(samples, snr_db, rng)

        monkeypatch.setattr(bench, "corrupt", counting_corrupt)
        rows = sweep(small_spec(self.ENTRIES, snr_grid_db=(0.0, 10.0, 20.0), max_iter=2))
        assert calls == [0.0, 10.0, 20.0][:draws]
        assert len({(r.estimator, r.k, r.l) for r in rows}) * draws == len(rows)


class TestSharedStart:
    """The mfa and gmm fits of a sweep share one k-means run per K."""

    ENTRIES = [
        EstimatorSpec("ls"),
        EstimatorSpec("gmm-full", k=2),
        EstimatorSpec("gmm-toep", k=2),
        EstimatorSpec("gmm-circ", k=2),
        EstimatorSpec("mfa", k=2, l=1),
    ]

    @pytest.mark.parametrize("sweep, runs", [
        (run_snr_sweep, 1),
        (lambda spec: run_latent_sweep(spec, [1, 2]), 1),
        (lambda spec: run_grid_sweep(spec, [1, 2], [1, 2]), 2),
    ], ids=["snr", "latent", "grid"])
    def test_one_kmeans_per_component_count(self, monkeypatch, sweep, runs):
        calls = []

        def counting_kmeans(samples, k_total, rng):
            calls.append(k_total)
            return kmeans(samples, k_total, rng)

        kmeans = mfa._kmeans
        monkeypatch.setattr(mfa, "_kmeans", counting_kmeans)
        sweep(small_spec(self.ENTRIES, max_iter=2))
        assert sorted(calls) == [1, 2][-runs:]


class TestGenieOmpGeometry:
    """genie-OMP builds its dictionary from the array geometry nv x nh: the
    scenario's, or the entry's own, which dataset paths require."""

    def write_scenario_data(self, tmp_path):
        spec = small_spec([EstimatorSpec("genie-omp")], eval_count=60, train_count=40)
        train, eval_ds = _load_data(spec)
        paths = {"train_path": str(tmp_path / "train.chd"), "eval_path": str(tmp_path / "eval.chd")}
        write_dataset(paths["train_path"], train)
        write_dataset(paths["eval_path"], eval_ds)
        return spec, paths

    def test_dataset_paths_match_scenario_form(self, tmp_path):
        spec, paths = self.write_scenario_data(tmp_path)
        entry = EstimatorSpec("genie-omp", nv=2, nh=4)
        from_paths = small_spec([entry], scenario=None, **paths)
        nmse = lambda rows: [r.nmse for r in rows]
        assert nmse(run_snr_sweep(from_paths)) == nmse(run_snr_sweep(spec))

    @pytest.mark.parametrize("geometry", [{}, {"nv": 2}, {"nh": 4}])
    def test_dataset_paths_need_geometry(self, tmp_path, geometry):
        _, paths = self.write_scenario_data(tmp_path)
        with pytest.raises(ValueError, match="nv and nh"):
            small_spec([EstimatorSpec("genie-omp", **geometry)], scenario=None, **paths)

    @pytest.mark.parametrize("scenario_form", [True, False])
    def test_geometry_must_match_dimension(self, tmp_path, scenario_form):
        _, paths = self.write_scenario_data(tmp_path)
        entry = EstimatorSpec("genie-omp", nv=2, nh=3)
        spec = small_spec([entry]) if scenario_form else small_spec([entry], scenario=None, **paths)
        with pytest.raises(ValueError, match="2 x 3 does not match the data dimension 8"):
            run_snr_sweep(spec)


class TestLatentSweep:
    def test_grid_of_one_gives_single_row_per_estimator(self):
        spec = small_spec(
            [EstimatorSpec("ls"), EstimatorSpec("mfa", k=2, l=1)], snr_grid_db=(10.0,)
        )
        rows = run_latent_sweep(spec, [2])
        assert len(rows) == 2
        mfa_rows = [r for r in rows if r.estimator == "mfa"]
        assert mfa_rows[0].l == 2

    def test_full_latent_matches_analytic_lmmse_on_gaussian_data(self, tmp_path):
        # K=1, L=N on Gaussian data: the fitted factor model covers the full
        # covariance, so nMSE matches the analytic LMMSE error.
        rng = np.random.default_rng(143)
        dim = 6
        root = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        cov_true = root @ root.conj().T / dim + 0.1 * np.eye(dim)
        chol = np.linalg.cholesky(cov_true)
        draws = ((rng.standard_normal((25_000, dim)) + 1j * rng.standard_normal((25_000, dim))) / np.sqrt(2)) @ chol.T
        mean_energy = float(np.mean(np.abs(draws) ** 2))
        draws /= np.sqrt(mean_energy)
        cov_true /= mean_energy

        from mfachest.scenario import ChannelDataset

        train = ChannelDataset(draws[:20_000])
        eval_ds = ChannelDataset(draws[20_000:])
        train_path = tmp_path / "train.chd"
        eval_path = tmp_path / "eval.chd"
        write_dataset(train_path, train)
        write_dataset(eval_path, eval_ds)

        snr_db = 10.0
        sigma2 = 10 ** (-snr_db / 10)
        spec = BenchSpec(
            estimators=(EstimatorSpec("mfa", k=1, l=dim),),
            snr_grid_db=(snr_db,),
            seed=3,
            train_path=str(train_path),
            eval_path=str(eval_path),
            max_iter=60,
        )
        rows = run_latent_sweep(spec, [dim])
        shifted = cov_true + sigma2 * np.eye(dim)
        want = np.trace(cov_true - cov_true @ np.linalg.solve(shifted, cov_true)).real / dim
        assert rows[0].nmse == pytest.approx(want, rel=0.05)


class TestGridSweep:
    def test_k1_column_equals_standalone_fa(self):
        spec = small_spec([EstimatorSpec("mfa", k=2, l=1)], snr_grid_db=(10.0,))
        rows = run_grid_sweep(spec, [1, 2], [1])
        k1 = [r for r in rows if r.k == 1][0]

        from mfachest.bench import _load_data
        from mfachest.estimator import estimate

        train, eval_ds = _load_data(spec)
        model, _ = fit_em(
            train, 1, 1, FitConfig(max_iter=spec.max_iter, rel_tol=spec.rel_tol, seed=spec.seed)
        )
        rng = np.random.default_rng([spec.seed, 0xE7A1, 0])
        observations, sigma2 = corrupt(eval_ds.samples, 10.0, rng)
        got = estimate(model, sigma2, observations)
        want_nmse = float(np.mean(np.abs(got - eval_ds.samples) ** 2))
        assert k1.nmse == pytest.approx(want_nmse, abs=1e-12)

    def test_row_ordering(self):
        spec = small_spec([EstimatorSpec("mfa", k=2, l=1), EstimatorSpec("ls")], snr_grid_db=(5.0,))
        rows = run_grid_sweep(spec, [2, 1], [2, 1])
        keys = [(r.estimator, r.k, r.l, r.snr_db) for r in rows]
        assert keys == sorted(keys)


class TestReports:
    def test_csv_fixed_columns(self):
        spec = small_spec([EstimatorSpec("ls")], snr_grid_db=(0.0,))
        rows = run_snr_sweep(spec)
        text = report_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "estimator,K,L,T,snr_db,nmse,wall_time_ms"
        assert len(lines) == 2
        assert lines[1].startswith("ls,0,0,1500,0.0,")

    def test_jsonl_round_trip(self):
        spec = small_spec([EstimatorSpec("ls")], snr_grid_db=(0.0,))
        rows = run_snr_sweep(spec)
        parsed = [json.loads(line) for line in report_jsonl(rows).strip().split("\n")]
        assert parsed[0]["estimator"] == "ls"
        assert parsed[0]["T"] == 1500
        assert parsed[0]["nmse"] == rows[0].nmse
