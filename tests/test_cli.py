import json
import re
import struct

import numpy as np
import pytest

from mfachest import baselines, bench, estimator, mfa
from mfachest.baselines import GmmModel, fit_gmm, gmm_estimate, load_gmm, save_gmm
from mfachest.cli import main
from mfachest.mfa import FitConfig, fit_em, load_model, save_model
from mfachest.scenario import ChannelDataset, corrupt, read_dataset, write_dataset
from oracles import collapsing_data, crandn, make_model, traced_peak


def write_scenario_config(tmp_path, **overrides):
    config = {"nv": 2, "nh": 4, "num_clusters": 3, "paths_per_cluster": 5, "seed": 11}
    config.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return path


class TestParamCount:
    def test_prints_table_value(self, capsys):
        code = main(["param-count", "--kind", "mfa", "--k", "64", "--n", "64", "--l", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "12416"

    def test_runtime_error_exit_code(self, capsys):
        code = main(["param-count", "--kind", "mfa", "--k", "64", "--n", "64"])
        assert code == 2  # mfa kind requires --l >= 1

    def test_latent_above_dim_exit_code(self, capsys):
        code = main(["param-count", "--kind", "mfa", "--k", "1", "--n", "4", "--l", "9"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 <= L <= N" in captured.err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code = main(["param-count", "--kind", "mfa", "--k", "1", "--n", "1", "--wat", "3"])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1


class TestPipeline:
    def test_generate_fit_estimate(self, tmp_path, capsys):
        config_path = write_scenario_config(tmp_path)
        data_path = tmp_path / "train.chd"
        code = main(
            ["generate", "--config", str(config_path), "--t", "800", "--out", str(data_path)]
        )
        assert code == 0
        dataset = read_dataset(data_path)
        assert dataset.samples.shape == (800, 8)

        model_path = tmp_path / "model.mfa"
        code = main(
            [
                "fit-mfa", "--data", str(data_path), "--k", "3", "--l", "1",
                "--out", str(model_path), "--max-iter", "40", "--seed", "1",
            ]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.n_components == 3

        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nmse=" in out
        nmse = float(out.rsplit("nmse=", 1)[1].split()[0])
        assert 0.0 < nmse < 0.2

    def test_fit_gmm_and_estimate(self, tmp_path, capsys):
        config_path = write_scenario_config(tmp_path)
        data_path = tmp_path / "train.chd"
        assert main(["generate", "--config", str(config_path), "--t", "500", "--out", str(data_path)]) == 0
        model_path = tmp_path / "model.gmm"
        code = main(
            [
                "fit-gmm", "--data", str(data_path), "--k", "2", "--structure", "circulant",
                "--out", str(model_path), "--max-iter", "20",
            ]
        )
        assert code == 0
        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "5"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "nan"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert "snr_db" in captured.err

    @pytest.mark.parametrize(
        "command", [["fit-mfa", "--l", "1"], ["fit-gmm", "--structure", "full"]]
    )
    def test_zero_components_exit_2(self, tmp_path, capsys, command):
        config_path = write_scenario_config(tmp_path)
        data_path = tmp_path / "train.chd"
        assert main(["generate", "--config", str(config_path), "--t", "50", "--out", str(data_path)]) == 0
        model_path = tmp_path / "model.bin"
        code = main(
            [*command, "--data", str(data_path), "--k", "0", "--out", str(model_path)]
        )
        assert code == 2
        assert "n_components" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("override, field", [
        ({"nv": 2.5}, "nv must be an integer"),
        ({"num_clusters": True}, "num_clusters must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
    ], ids=["float-nv", "bool-clusters", "string-seed"])
    def test_generate_mistyped_config_exit_2(self, tmp_path, capsys, override, field):
        config_path = write_scenario_config(tmp_path, **override)
        data_path = tmp_path / "train.chd"
        code = main(["generate", "--config", str(config_path), "--t", "50", "--out", str(data_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err
        assert not data_path.exists()

    @pytest.mark.parametrize("snr", ["-1e1", "-inf"])
    def test_negative_snr_in_exponent_form_is_a_value(self, tmp_path, capsys, snr):
        # argparse alone reads only -5 and -.5 as numbers, and -1e1 as an option.
        data = np.random.default_rng(15).standard_normal((40, 4)) + 0j
        data_path, model_path = tmp_path / "data.chd", tmp_path / "model.mfa"
        write_dataset(data_path, ChannelDataset(data))
        save_model(fit_em(ChannelDataset(data), 2, 1, FitConfig(max_iter=2))[0], model_path)
        code = main(["estimate", "--model", str(model_path), "--data", str(data_path),
                     "--snr-db", snr])
        captured = capsys.readouterr()
        if snr == "-1e1":
            assert code == 0
            assert captured.out.startswith("snr_db=-10.0 sigma2=10 ")
        else:
            assert code == 2
            assert "snr_db must be >= -3000 dB" in captured.err

    def test_singular_circulant_model_at_infinite_snr(self, tmp_path, capsys):
        model_path = tmp_path / "singular.gmm"
        save_gmm(
            GmmModel(
                "circulant", np.array([1.0]), np.zeros((1, 4), complex),
                np.array([[1.0, 0.0, 1.0, 1.0]]),
            ),
            model_path,
        )
        data_path = tmp_path / "ones.chd"
        write_dataset(data_path, ChannelDataset(np.ones((3, 4), complex)))
        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "inf"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert "zero bin" in captured.err

    def test_uninvertible_diagonal_model_at_infinite_snr(self, tmp_path, capsys):
        model_path = tmp_path / "tiny.mfa"
        save_model(
            mfa.MfaModel(np.ones(1), np.zeros((1, 4)), np.ones((1, 4, 1)), np.full((1, 4), 1e-320)),
            model_path,
        )
        data_path = tmp_path / "ones.chd"
        write_dataset(data_path, ChannelDataset(np.ones((3, 4), complex)))
        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "inf"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert "diagonal of component 0 is not invertible" in captured.err

    @pytest.mark.parametrize("loading, message", [
        (1.0, "factors of component 0 are not finite"),
        (1e10, "latent system of component 0 is not finite"),
    ], ids=["large-mean", "large-loading"])
    def test_nonfinite_factor_model_at_infinite_snr(self, tmp_path, capsys, loading, message):
        model_path = tmp_path / "huge.mfa"
        save_model(
            mfa.MfaModel(np.ones(1), np.full((1, 4), 1e10), np.full((1, 4, 1), loading),
                         np.full((1, 4), 1e-300)),
            model_path,
        )
        data_path = tmp_path / "ones.chd"
        write_dataset(data_path, ChannelDataset(np.ones((3, 4), complex)))
        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "inf"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize(
        "command", [["fit-mfa", "--l", "1"], ["fit-gmm", "--structure", "toeplitz"]],
        ids=["fit-mfa", "fit-gmm"],
    )
    def test_fit_reports_iteration_cap(self, tmp_path, capsys, command):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "train.chd"
        write_dataset(data_path, ChannelDataset(rng.standard_normal((60, 4)) + 0j))
        argv = [command[0], "--data", str(data_path), "--k", "2", *command[1:]]
        argv += ["--out", str(tmp_path / "model")]
        assert main(argv + ["--max-iter", "1"]) == 0
        out = capsys.readouterr().out
        assert "stopped at --max-iter 1 without converging" in out
        assert "avg log-likelihood before the last update" in out
        # A tolerance this loose converges at the second iteration.
        assert main(argv + ["--max-iter", "5", "--tol", "1"]) == 0
        out = capsys.readouterr().out
        assert "in 2 iterations, avg log-likelihood" in out
        assert "stopped" not in out
        assert re.search(r"avg log-likelihood \S+, \d+\.\d{3} s per iteration", out)

    def test_collapsed_full_fit_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "train.chd"
        write_dataset(data_path, ChannelDataset(collapsing_data()))
        argv = ["fit-gmm", "--data", str(data_path), "--k", "5", "--structure", "full",
                "--out", str(tmp_path / "model.gmm")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "EM collapsed the component onto one sample" in err
        assert "fit fewer components" in err and "sigma2" not in err
        assert not (tmp_path / "model.gmm").exists()

    def test_nan_tolerance_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        data_path = tmp_path / "train.chd"
        write_dataset(data_path, ChannelDataset(rng.standard_normal((40, 4)) + 0j))
        model_path = tmp_path / "model.mfa"
        code = main(
            ["fit-mfa", "--data", str(data_path), "--k", "2", "--l", "1", "--tol", "nan",
             "--out", str(model_path)]
        )
        assert code == 2
        assert "rel_tol" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("magic, header", [
        (b"MFA1", struct.pack("<4I", 1, 8, 1, 2**31)),
        (b"GMM1", struct.pack("<IB2I", 1, 0, 8, 2**31)),
    ], ids=["mfa", "gmm"])
    def test_oversized_model_header_exit_2(self, tmp_path, capsys, magic, header):
        # A header that declares 2^31 components in a file of a few bytes.
        model_path = tmp_path / "huge.model"
        model_path.write_bytes(magic + header)
        data_path = tmp_path / "ones.chd"
        write_dataset(data_path, ChannelDataset(np.ones((3, 8), complex)))
        code = main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "10"]
        )
        assert code == 2
        assert "truncated file" in capsys.readouterr().err

    def test_missing_data_file(self, capsys):
        code = main(
            ["fit-mfa", "--data", "/nope.chd", "--k", "2", "--l", "1", "--out", "/tmp/x.mfa"]
        )
        assert code == 2


class TestBenchCommands:
    def make_spec(self, tmp_path, estimators):
        spec = {
            "estimators": estimators,
            "snr_grid_db": [0.0, 10.0],
            "eval_count": 200,
            "train_count": 600,
            "seed": 2,
            "scenario": {"nv": 2, "nh": 4, "num_clusters": 2, "paths_per_cluster": 4, "seed": 5},
            "max_iter": 20,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_bench_snr_csv(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [{"kind": "ls"}, {"kind": "mfa", "k": 2, "l": 1}])
        out_path = tmp_path / "report.csv"
        code = main(["bench-snr", "--spec", str(spec_path), "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "estimator,K,L,T,snr_db,nmse,wall_time_ms"
        assert len(lines) == 5

    def test_bench_snr_empty_estimators_header_only(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [])
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "estimator,K,L,T,snr_db,nmse,wall_time_ms\n"

    def test_bench_latent_jsonl(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [{"kind": "mfa", "k": 2, "l": 1}])
        code = main(
            ["bench-latent", "--spec", str(spec_path), "--l-grid", "1,2", "--format", "jsonl"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert [r["L"] for r in rows] == [1, 2]

    def test_bench_grid(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [{"kind": "mfa", "k": 1, "l": 1}])
        code = main(
            ["bench-grid", "--spec", str(spec_path), "--k-grid", "1,2", "--l-grid", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3

    def test_bench_snr_empty_eval_set_exit_2(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [{"kind": "ls"}])
        spec = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**spec, "eval_count": 0}))
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert "eval_count" in captured.err

    @pytest.mark.parametrize("field, value, message", [
        ("max_iter", 0, "max_iter must be >= 1"),
        ("rel_tol", float("nan"), "rel_tol must be > 0"),
    ], ids=["zero-max-iter", "nan-rel-tol"])
    def test_bench_snr_bad_fit_settings_exit_2(self, tmp_path, monkeypatch, capsys, field,
                                               value, message):
        draws = []
        monkeypatch.setattr(bench, "generate_channels", lambda *args: draws.append(args))
        spec_path = self.make_spec(tmp_path, [{"kind": "ls"}])
        spec = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**spec, field: value}))
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 2
        assert draws == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bench_snr_infinite_snr(self, tmp_path, capsys):
        # Every estimator takes sigma2 = 0 (SNR +inf) and returns y exactly.
        spec_path = self.make_spec(tmp_path, [{"kind": "ls"}, {"kind": "sample-lmmse"}])
        spec = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**spec, "snr_grid_db": [float("inf")]}))
        code = main(["bench-snr", "--spec", str(spec_path), "--format", "jsonl"])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
        assert [(r["estimator"], r["nmse"]) for r in rows] == [("ls", 0.0), ("sample-lmmse", 0.0)]

    @pytest.mark.parametrize("grid", [[10.0, float("nan")], [10.0, -3001.0], [float("-inf")]],
                             ids=["nan", "below-3000-db", "minus-inf"])
    def test_bad_snr_grid_exit_2_before_fitting(self, tmp_path, monkeypatch, capsys, grid):
        fits = []
        monkeypatch.setattr(mfa, "fit_em", lambda *args, **kwargs: fits.append(args))
        spec_path = self.make_spec(tmp_path, [{"kind": "mfa", "k": 2, "l": 1}])
        spec = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**spec, "snr_grid_db": grid}))
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 2
        assert fits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snr_db must be >= -3000 dB" in captured.err

    @pytest.mark.parametrize("grids, message", [
        (["bench-grid", "--k-grid", "0", "--l-grid", "1"], "got k=0, l=1"),
        (["bench-grid", "--k-grid", "1", "--l-grid", "0"], "got k=1, l=0"),
        (["bench-grid", "--k-grid", "1", "--l-grid", "1,9"], "got k=1, l=9"),
        (["bench-latent", "--l-grid", "0"], "got k=2, l=0"),
        (["bench-latent", "--l-grid", "9"], "got k=2, l=9"),
    ], ids=["k0", "l0", "l-above-n", "latent-l0", "latent-l-above-n"])
    def test_bad_shape_grid_exit_2_before_fitting(self, tmp_path, monkeypatch, capsys, grids,
                                                  message):
        fits = []
        monkeypatch.setattr(baselines, "fit_gmm", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(mfa, "fit_em", lambda *args, **kwargs: fits.append(args))
        spec_path = self.make_spec(
            tmp_path, [{"kind": "gmm-full", "k": 2}, {"kind": "mfa", "name": "m", "k": 2, "l": 1}]
        )
        code = main([grids[0], "--spec", str(spec_path), *grids[1:]])
        assert code == 2
        assert fits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "estimator 'm' needs k >= 1 and 1 <= l <= N = 8" in captured.err
        assert message in captured.err

    def test_bad_genie_omp_geometry_exit_2_before_fitting(self, tmp_path, monkeypatch, capsys):
        fits = []
        monkeypatch.setattr(baselines, "fit_gmm", lambda *args, **kwargs: fits.append(args))
        spec_path = self.make_spec(
            tmp_path, [{"kind": "gmm-full", "k": 2}, {"kind": "genie-omp", "nv": 3, "nh": 2}]
        )
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 2
        assert fits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "array geometry 3 x 2 does not match the data dimension 8" in captured.err

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "mfa", "k": 2, "l": 1, "psi_mode": "isotropic"}, "psi_mode must be one of"),
        ({"kind": "genie-omp", "s_max": -3}, "s_max must be >= 0, got -3"),
    ], ids=["psi-mode", "negative-s-max"])
    def test_bad_entry_field_exit_2_before_fitting(self, tmp_path, monkeypatch, capsys, entry,
                                                   message):
        fits = []
        monkeypatch.setattr(baselines, "fit_gmm", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(mfa, "fit_em", lambda *args, **kwargs: fits.append(args))
        spec_path = self.make_spec(tmp_path, [{"kind": "gmm-circ", "k": 2}, entry])
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 2
        assert fits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bench_genie_omp_on_dataset_paths_needs_geometry(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data = (rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))) / np.sqrt(2)
        write_dataset(tmp_path / "train.chd", ChannelDataset(data[:20]))
        write_dataset(tmp_path / "eval.chd", ChannelDataset(data[20:]))
        spec = {
            "estimators": [{"kind": "genie-omp"}],
            "snr_grid_db": [10.0],
            "train_path": str(tmp_path / "train.chd"),
            "eval_path": str(tmp_path / "eval.chd"),
        }
        spec_path = tmp_path / "spec.json"
        for geometry, message in [({}, "nv and nh"), ({"nv": 3, "nh": 2}, "3 x 2 does not match")]:
            spec["estimators"][0].update(geometry)
            spec_path.write_text(json.dumps(spec))
            code = main(["bench-snr", "--spec", str(spec_path)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
        spec["estimators"][0].update({"nv": 2, "nh": 4})
        spec_path.write_text(json.dumps(spec))
        assert main(["bench-snr", "--spec", str(spec_path)]) == 0

    def test_bench_mismatched_datasets_exit_2_before_fitting(self, tmp_path, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_em ran")

        monkeypatch.setattr(mfa, "fit_em", no_fit)
        rng = np.random.default_rng(14)
        write_dataset(tmp_path / "train.chd", ChannelDataset(rng.standard_normal((20, 8)) + 0j))
        write_dataset(tmp_path / "eval.chd", ChannelDataset(rng.standard_normal((10, 4)) + 0j))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "estimators": [{"kind": "mfa", "k": 2, "l": 1}], "snr_grid_db": [10.0],
            "train_path": str(tmp_path / "train.chd"), "eval_path": str(tmp_path / "eval.chd"),
        }))
        assert main(["bench-snr", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eval dimension 4 != train dimension 8" in captured.err

    def test_bench_nonfinite_eval_set_exit_2(self, tmp_path, capsys):
        # LS and genie-OMP take the estimators' observation contract, so a NaN
        # channel in the eval set fails instead of reporting nmse = nan.
        rng = np.random.default_rng(13)
        data = (rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))) / np.sqrt(2)
        data[23, 2] = np.nan
        write_dataset(tmp_path / "train.chd", ChannelDataset(data[:20]))
        write_dataset(tmp_path / "eval.chd", ChannelDataset(data[20:]))
        spec_path = tmp_path / "spec.json"
        for kind in ({"kind": "ls"}, {"kind": "genie-omp", "nv": 2, "nh": 4}):
            spec_path.write_text(json.dumps({
                "estimators": [kind], "snr_grid_db": [10.0],
                "train_path": str(tmp_path / "train.chd"), "eval_path": str(tmp_path / "eval.chd"),
            }))
            assert main(["bench-snr", "--spec", str(spec_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "non-finite" in captured.err

    @pytest.mark.parametrize("override, field", [
        ({"estimators": [{"kind": "ls", "foo": 1}]}, "foo"),
        ({"bar": 1}, "bar"),
        ({"estimators": ["ls"]}, "estimators[0]"),
        ({"estimators": {"kind": "ls"}}, "estimators"),
        ({"estimators": [{"name": "x"}]}, "kind"),
        ([1, 2], "bench spec"),
        ({"scenario": 5}, "scenario"),
        ({"eval_count": 100.5}, "eval_count"),
        ({"train_count": True}, "train_count"),
        ({"seed": 1.5}, "seed"),
        ({"max_iter": "20"}, "max_iter"),
        ({"rel_tol": "1e-5"}, "rel_tol"),
        ({"snr_grid_db": "10"}, "snr_grid_db"),
        ({"snr_grid_db": [0.0, True]}, "snr_grid_db"),
        ({"estimators": [{"kind": "mfa", "k": 2.0, "l": 1}]}, "k must be an integer"),
        ({"estimators": [{"kind": "mfa", "k": 2, "l": True}]}, "l must be an integer"),
        ({"estimators": [{"kind": "genie-omp", "s_max": 1.5}]}, "s_max"),
        ({"estimators": [{"kind": "genie-omp", "nv": "2", "nh": 4}]}, "nv"),
        ({"estimators": [{"kind": "genie-omp", "nv": 2, "nh": 4.0}]}, "nh"),
        ({"estimators": [{"kind": "mfa-model", "model_path": 3}]}, "model_path"),
        ({"scenario": {"nv": 2.5, "nh": 4}}, "nv must be an integer"),
    ], ids=[
        "unknown-entry-key", "unknown-key", "entry-not-object", "estimators-not-list", "no-kind",
        "spec-not-object", "scenario-not-object", "float-count", "bool-count", "float-seed",
        "string-max-iter", "string-rel-tol", "string-grid", "bool-in-grid", "float-k", "bool-l",
        "float-s-max", "string-nv", "float-nh", "int-model-path", "float-scenario-nv",
    ])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, override, field):
        spec_path = self.make_spec(tmp_path, [{"kind": "ls"}])
        spec = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**spec, **override} if isinstance(override, dict) else override))
        code = main(["bench-snr", "--spec", str(spec_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    def write_eval_data(self, tmp_path):
        rng = np.random.default_rng(13)
        data = (rng.standard_normal((300, 8)) + 1j * rng.standard_normal((300, 8))) / np.sqrt(2)
        write_dataset(tmp_path / "train.chd", ChannelDataset(data[:200]))
        write_dataset(tmp_path / "eval.chd", ChannelDataset(data[200:]))
        model, _ = fit_gmm(ChannelDataset(data[:200]), 2, "toeplitz", FitConfig(max_iter=5))
        save_gmm(model, tmp_path / "model.gmm")
        return {"snr_grid_db": [0.0, 10.0], "seed": 4,
                "train_path": str(tmp_path / "train.chd"), "eval_path": str(tmp_path / "eval.chd")}

    def test_gmm_model_rows_match_gmm_estimate(self, tmp_path, capsys):
        spec = self.write_eval_data(tmp_path)
        path = tmp_path / "model.gmm"
        spec["estimators"] = [{"kind": "gmm-model", "model_path": str(path)}]
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["bench-snr", "--spec", str(tmp_path / "spec.json"), "--format", "jsonl"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
        truths = read_dataset(tmp_path / "eval.chd").samples
        assert [(r["estimator"], r["K"], r["L"], r["T"], r["snr_db"]) for r in rows] == [
            ("gmm-model", 2, 0, 200, 0.0), ("gmm-model", 2, 0, 200, 10.0)]
        for si, row in enumerate(rows):
            rng = np.random.default_rng([spec["seed"], 0xE7A1, si])
            observations, sigma2 = corrupt(truths, row["snr_db"], rng)
            estimates = gmm_estimate(load_gmm(path), sigma2, observations)
            want = float(np.sum(np.abs(estimates - truths) ** 2) / truths.size)
            assert row["nmse"] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["mfa", "full", "toeplitz", "circulant"])
    def test_nan_weight_model_file_exit_2(self, tmp_path, capsys, kind):
        # The first record's weight follows the magic and the header: offset
        # 20 in MFA1 (four u4 fields), 17 in GMM1 (u4, u1, u4, u4).
        spec = self.write_eval_data(tmp_path)
        dim, weights, means = 8, np.full(2, 0.5), np.zeros((2, 8))
        if kind == "mfa":
            path, offset, load, entry = tmp_path / "nan.mfa", 20, load_model, "mfa-model"
            loadings = np.full((2, dim, 1), 0.1)
            save_model(mfa.MfaModel(weights, means, loadings, np.ones((2, dim))), path)
        else:
            path, offset, load, entry = tmp_path / "nan.gmm", 17, load_gmm, "gmm-model"
            if kind == "full":
                params = np.stack([np.eye(dim)] * 2)
            else:
                params = np.ones((2, 2 * dim if kind == "toeplitz" else dim))
            save_gmm(GmmModel(kind, weights, means, params), path)
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<d", data, offset) == (0.5,)
        struct.pack_into("<d", data, offset, np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="finite"):
            load(path)
        spec["estimators"] = [{"kind": entry, "model_path": str(path)}]
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        estimate = ["estimate", "--model", str(path), "--data", spec["eval_path"], "--snr-db", "10"]
        for argv in (estimate, ["bench-snr", "--spec", str(tmp_path / "spec.json")]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "finite" in captured.err

    def test_mfa_model_given_gmm_file_exit_2(self, tmp_path, capsys):
        spec = self.write_eval_data(tmp_path)
        spec["estimators"] = [{"kind": "mfa-model", "model_path": str(tmp_path / "model.gmm")}]
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["bench-snr", "--spec", str(tmp_path / "spec.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad magic b'GMM1'" in captured.err

    def test_bad_grid_argument(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [])
        code = main(["bench-latent", "--spec", str(spec_path), "--l-grid", "1,x"])
        assert code == 1


class TestEstimateMemory:
    """``estimate`` holds two (T, N) arrays, the truths and the observations:
    the estimates go into the observations' buffer, the error into the truths'."""

    @pytest.mark.parametrize("kind", ["mfa", *baselines.GMM_STRUCTURES])
    def test_peak_below_three_arrays(self, tmp_path, capsys, kind):
        count, dim = 20_000, 64
        rng = np.random.default_rng(16)
        data_path, model_path = tmp_path / "data.chd", tmp_path / "model"
        write_dataset(data_path, ChannelDataset(crandn(rng, count, dim)))
        model = make_model(rng, 4, dim, 2, sep=1.0, psi=0.5)
        if kind == "mfa":
            save_model(model, model_path)
        elif kind == "full":
            save_gmm(baselines.gmm_from_mfa(model), model_path)
        else:
            bins = 2 * dim if kind == "toeplitz" else dim
            spectra = rng.uniform(0.5, 2.0, (4, bins))
            save_gmm(GmmModel(kind, model.weights, model.means, spectra), model_path)
        argv = ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "10"]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert "nmse=" in capsys.readouterr().out
        assert peak < 3 * count * dim * 16


class TestTracedLayers:
    """The benchmark's tracer wraps library functions at their module
    attributes; bench and the CLI must look them up there at call time."""

    def test_calls_reach_module_attributes(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(14)
        data = (rng.standard_normal((200, 8)) + 1j * rng.standard_normal((200, 8))) / np.sqrt(2)
        data_path, mfa_path, gmm_path = tmp_path / "data.chd", tmp_path / "m.mfa", tmp_path / "m.gmm"
        write_dataset(data_path, ChannelDataset(data))
        save_model(fit_em(ChannelDataset(data), 2, 1, FitConfig(max_iter=3))[0], mfa_path)
        save_gmm(fit_gmm(ChannelDataset(data), 2, "circulant", FitConfig(max_iter=3))[0], gmm_path)

        calls = {}
        for module, name in [(mfa, "fit_em"), (baselines, "fit_gmm"), (estimator, "estimate"),
                             (mfa, "load_model"), (baselines, "gmm_estimate")]:
            def counted(*args, _func=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _func(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        spec = {
            "estimators": [{"kind": "ls"}, {"kind": "mfa", "k": 2, "l": 1}, {"kind": "gmm-circ", "k": 2},
                           {"kind": "mfa-model", "model_path": str(mfa_path)}],
            "snr_grid_db": [0.0, 10.0], "eval_count": 50, "train_count": 100, "max_iter": 2,
            "scenario": {"nv": 2, "nh": 4, "num_clusters": 2, "seed": 5},
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["bench-snr", "--spec", str(tmp_path / "spec.json")]) == 0
        assert calls == {"fit_em": 1, "fit_gmm": 1, "load_model": 1, "estimate": 4, "gmm_estimate": 2}
        for model_path in (mfa_path, gmm_path):
            argv = ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "5"]
            assert main(argv) == 0
        assert calls == {"fit_em": 1, "fit_gmm": 1, "load_model": 2, "estimate": 5, "gmm_estimate": 3}
