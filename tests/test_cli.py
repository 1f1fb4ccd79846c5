import json
import re

import numpy as np
import pytest

from mfachest.baselines import GmmModel, save_gmm
from mfachest.cli import cli_main
from mfachest.mfa import load_model
from mfachest.scenario import ChannelDataset, read_dataset, write_dataset


def write_scenario_config(tmp_path, **overrides):
    config = {"nv": 2, "nh": 4, "num_clusters": 3, "paths_per_cluster": 5, "seed": 11}
    config.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return path


class TestParamCount:
    def test_prints_table_value(self, capsys):
        code = cli_main(["param-count", "--kind", "mfa", "--k", "64", "--n", "64", "--l", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "12416"

    def test_runtime_error_exit_code(self, capsys):
        code = cli_main(["param-count", "--kind", "mfa", "--k", "64", "--n", "64"])
        assert code == 2  # mfa kind requires --l >= 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code = cli_main(["param-count", "--kind", "mfa", "--k", "1", "--n", "1", "--wat", "3"])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_command(self, capsys):
        assert cli_main([]) == 1

    def test_unknown_command(self, capsys):
        assert cli_main(["transmogrify"]) == 1


class TestPipeline:
    def test_generate_fit_estimate(self, tmp_path, capsys):
        config_path = write_scenario_config(tmp_path)
        data_path = tmp_path / "train.chd"
        code = cli_main(
            ["generate", "--config", str(config_path), "--t", "800", "--out", str(data_path)]
        )
        assert code == 0
        dataset = read_dataset(data_path)
        assert dataset.samples.shape == (800, 8)

        model_path = tmp_path / "model.mfa"
        code = cli_main(
            [
                "fit-mfa", "--data", str(data_path), "--k", "3", "--l", "1",
                "--out", str(model_path), "--max-iter", "40", "--seed", "1",
            ]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.n_components == 3

        code = cli_main(
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
        assert cli_main(["generate", "--config", str(config_path), "--t", "500", "--out", str(data_path)]) == 0
        model_path = tmp_path / "model.gmm"
        code = cli_main(
            [
                "fit-gmm", "--data", str(data_path), "--k", "2", "--structure", "circulant",
                "--out", str(model_path), "--max-iter", "20",
            ]
        )
        assert code == 0
        code = cli_main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "5"]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "nan"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert "snr_db" in captured.err

    def test_singular_circulant_model_at_infinite_snr(self, tmp_path, capsys):
        model_path = tmp_path / "singular.gmm"
        save_gmm(
            GmmModel(
                "circulant", np.array([1.0]), np.zeros((1, 4), complex),
                spectra=np.array([[1.0, 0.0, 1.0, 1.0]]),
            ),
            model_path,
        )
        data_path = tmp_path / "ones.chd"
        write_dataset(data_path, ChannelDataset(np.ones((3, 4), complex)))
        code = cli_main(
            ["estimate", "--model", str(model_path), "--data", str(data_path), "--snr-db", "inf"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nmse" not in captured.out
        assert "zero bin" in captured.err

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
        assert cli_main(argv + ["--max-iter", "1"]) == 0
        out = capsys.readouterr().out
        assert "stopped at --max-iter 1 without converging" in out
        assert "avg log-likelihood before the last update" in out
        # A tolerance this loose converges at the second iteration.
        assert cli_main(argv + ["--max-iter", "5", "--tol", "1"]) == 0
        out = capsys.readouterr().out
        assert "in 2 iterations, avg log-likelihood" in out
        assert "stopped" not in out
        assert re.search(r"avg log-likelihood \S+, \d+\.\d{3} s per iteration", out)

    def test_missing_data_file(self, capsys):
        code = cli_main(
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
        code = cli_main(["bench-snr", "--spec", str(spec_path), "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "estimator,K,L,T,snr_db,nmse,wall_time_ms"
        assert len(lines) == 5

    def test_bench_snr_empty_estimators_header_only(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [])
        code = cli_main(["bench-snr", "--spec", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "estimator,K,L,T,snr_db,nmse,wall_time_ms\n"

    def test_bench_latent_jsonl(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [{"kind": "mfa", "k": 2, "l": 1}])
        code = cli_main(
            ["bench-latent", "--spec", str(spec_path), "--l-grid", "1,2", "--format", "jsonl"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert [r["L"] for r in rows] == [1, 2]

    def test_bench_grid(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [{"kind": "mfa", "k": 1, "l": 1}])
        code = cli_main(
            ["bench-grid", "--spec", str(spec_path), "--k-grid", "1,2", "--l-grid", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3

    def test_bad_grid_argument(self, tmp_path, capsys):
        spec_path = self.make_spec(tmp_path, [])
        code = cli_main(["bench-latent", "--spec", str(spec_path), "--l-grid", "1,x"])
        assert code == 1
