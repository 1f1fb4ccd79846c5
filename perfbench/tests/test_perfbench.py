"""Tests of the benchmark itself, at smoke size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return done.returncode, {}, {}
    return done.returncode, json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    rc, details, result = _run(workload, 1, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert np.isfinite(emitted["value"])
    env = details["environment"]
    assert {"numpy", "scipy", "blas", "blas_version", "blas_threads", "nproc", "python",
            "git_sha", "git_dirty", "seed"} <= set(env)
    assert details["absent"] == []


def test_traced_runs_keep_idle_layers_idle():
    _, _, fit = _run("fit-k64", 1, 1)
    _, _, est = _run("cli-estimate", 1, 1)
    for result in (fit, est):
        metrics = result["metrics"]
        assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("baselines."))
    assert est["metrics"]["mfa.fit_em.calls"]["value"] == 0
    assert est["metrics"]["setup.mfa.fit_em.s"]["value"] > 0
    assert fit["metrics"]["mfa.fit_em.calls"]["value"] == 1


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    inputs = []
    for seed in (1, 2):
        work = workloads.FitK64("smoke", seed, tmp_path / str(seed))
        work.workdir.mkdir()
        work.setup()
        inputs.append(work.train.read_bytes())
        again = workloads.FitK64("smoke", seed, tmp_path / f"{seed}-again")
        again.workdir.mkdir()
        again.setup()
        assert again.train.read_bytes() == inputs[-1]
    assert inputs[0] != inputs[1]
    names = []
    for seed in (1, 2):
        rc, _, result = _run("paper-sweep", seed, 0)
        assert rc == 0 and result["correct"]
        names.append(set(result["metrics"]))
    assert names[0] == names[1]


def test_gate_rejects_non_finite_estimates():
    estimates = np.ones((4, 3), dtype=complex)
    estimates[2, 1] = np.nan
    assert gate.check_finite("x", estimates)
    assert gate.check_oracle("x", estimates, np.ones((4, 3), dtype=complex))


def test_gate_rejects_a_perturbed_estimate():
    rng = np.random.default_rng(0)
    oracle = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    assert gate.check_oracle("x", oracle.copy(), oracle) == []
    perturbed = oracle.copy()
    perturbed[3, 2] += 1e-4
    assert gate.check_oracle("x", perturbed, oracle)


def test_gate_rejects_values_off_their_references():
    references = {"fit-k64": {"1": {"fit_loglik": 6.0, "nmse_db.mfa@10": -15.0},
                              "2": {"fit_loglik": 6.1, "nmse_db.mfa@10": -15.2}}}
    good = {"fit_loglik": 6.0, "nmse_db.mfa@10": -15.0}
    assert gate.check_references("fit-k64", 1, good, references) == []
    assert gate.check_references("fit-k64", 1, {**good, "nmse_db.mfa@10": -14.99}, references)
    assert gate.check_references("fit-k64", 1, {**good, "fit_loglik": float("nan")}, references)
    assert gate.check_references("fit-k64", 1, {"fit_loglik": 6.0}, references)
    # An unrecorded seed is held to the band the recorded seeds span.
    assert gate.check_references("fit-k64", 7, {"fit_loglik": 6.2, "nmse_db.mfa@10": -15.5},
                                 references) == []
    assert gate.check_references("fit-k64", 7, {"fit_loglik": 6.2, "nmse_db.mfa@10": -9.0},
                                 references)


def test_recorded_references_cover_every_workload():
    references = gate.load_references()
    assert set(references) == set(WORKLOAD_NAMES)
    assert all(len(per_seed) >= 5 for per_seed in references.values())


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_reports_unresolved_targets_as_absent():
    from mfachest import estimator
    from tracer import Tracer

    targets = (
        ("estimator.gone", ("mfachest.estimator.no_such_function",), None, None),
        ("gone.module", ("mfachest.no_such_module.f",), None, None),
        ("estimator.estimate", ("mfachest.estimator.estimate",), None, None),
    )
    tracer = Tracer(targets)
    original = estimator.estimate
    tracer.install()
    try:
        assert estimator.estimate is not original
    finally:
        tracer.uninstall()
    assert estimator.estimate is original
    assert tracer.absent == ["mfachest.estimator.no_such_function", "mfachest.no_such_module.f"]
    assert tracer.totals("") == {}
