"""The benchmark's workloads: set-up, one timed unit of CLI work, and the checks.

Every workload drives ``mfachest.cli.main`` in-process, the entry point the
``mfachest`` console script runs. ``cli.main`` is looked up on its module at
each call, so the tracer's wrapper is used while it is installed. WORKLOADS.md
records why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mfachest import baselines, cli, mfa, scenario

import gate

SNR_GRID_DB = (-10.0, 0.0, 10.0, 20.0, 30.0)

# Input sizes. "paper" is the measured configuration: the paper's 4x16 URA
# (N = 64), K in {16, 64}, L = 8. "smoke" runs the same code paths in seconds
# for the benchmark's own tests.
SIZES = {
    "paper": {
        "scenario": {"nv": 4, "nh": 16, "seed": 0},
        "oracle_rows": 64,
        "fit-k64": {"train": 20000, "eval": 1000, "k": 64, "l": 8, "max_iter": 4},
        "cli-estimate": {"train": 4096, "eval": 10000, "k": 64, "l": 8, "max_iter": 3},
        "paper-sweep": {"train": 10000, "eval": 100, "k": 16, "l": 8, "max_iter": 3},
    },
    "smoke": {
        "scenario": {"nv": 2, "nh": 4, "seed": 0},
        "oracle_rows": 16,
        "fit-k64": {"train": 800, "eval": 100, "k": 4, "l": 2, "max_iter": 2},
        "cli-estimate": {"train": 400, "eval": 300, "k": 4, "l": 2, "max_iter": 2},
        "paper-sweep": {"train": 400, "eval": 20, "k": 2, "l": 2, "max_iter": 2},
    },
}

# The paper's seven estimators; bench fits each once and scores it at every SNR.
SWEEP_KINDS = ("ls", "sample-lmmse", "genie-omp", "gmm-full", "gmm-toep", "gmm-circ", "mfa")

# bench's default EM tolerance, written into the spec and used by the refit.
SWEEP_REL_TOL = 1e-5

# Stream keys bench uses to derive its data and noise from the spec seed.
BENCH_DATA_KEY = 0xDA7A
BENCH_NOISE_KEY = 0xE7A1

_NMSE_RE = re.compile(r"nmse=(\S+)")


class SetupError(RuntimeError):
    """A set-up step failed, so the workload cannot be measured."""


def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class Call:
    """One CLI call: its exit code, captured stdout and wall time."""

    rc: int
    stdout: str
    seconds: float


def call_cli(argv: list[str]) -> Call:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        rc = -1
    return Call(rc, out.getvalue(), time.perf_counter() - start)


def _require(call: Call, what: str) -> None:
    if call.rc != 0:
        raise SetupError(f"{what} exited with code {call.rc}")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


@dataclass
class Unit:
    """One timed unit: wall time, operation counts and the outputs the checks need."""

    seconds: float
    attempted: int
    failed: int
    outputs: list = field(default_factory=list)


class Workload:
    name = ""
    # Units needed before the window may close (cli-estimate covers its grid).
    min_units = 1

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = SIZES[size]
        self.params = self.size[self.name]
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self.quality: dict[str, float] = {}

    def path(self, name: str) -> Path:
        return self.workdir / name

    def _generate(self, count: int, stream: int, name: str) -> Path:
        config = self.path("scenario.json")
        config.write_text(json.dumps(self.size["scenario"]), encoding="utf-8")
        out = self.path(name)
        call = call_cli(["generate", "--config", str(config), "--t", str(count),
                         "--out", str(out), "--seed", str(derive_seed(self.seed, stream))])
        _require(call, f"generate {name}")
        return out

    def _fit_argv(self, data: Path, out: Path) -> list[str]:
        p = self.params
        return ["fit-mfa", "--data", str(data), "--k", str(p["k"]), "--l", str(p["l"]),
                "--out", str(out), "--max-iter", str(p["max_iter"]),
                "--seed", str(derive_seed(self.seed, 3)), "--psi-mode", "scaled-identity"]

    def _noise_seed(self, snr_index: int) -> int:
        return derive_seed(self.seed, 10 + snr_index)

    def _estimate_argv(self, model: Path, data: Path, snr_index: int, out: Path) -> list[str]:
        return ["estimate", "--model", str(model), "--data", str(data),
                "--snr-db", repr(SNR_GRID_DB[snr_index]),
                "--seed", str(self._noise_seed(snr_index)), "--out", str(out)]

    def _check_estimates(self, model, truths: np.ndarray, snr_index: int,
                         estimates: np.ndarray) -> None:
        """Finite estimates, and the oracle check on the first observations."""
        what = f"estimate @ {SNR_GRID_DB[snr_index]:g} dB"
        self.problems += gate.check_finite(what, estimates)
        rows = self.size["oracle_rows"]
        rng = np.random.default_rng(self._noise_seed(snr_index))
        observations, sigma2 = scenario.corrupt(truths, SNR_GRID_DB[snr_index], rng)
        oracle = baselines.gmm_estimate(baselines.gmm_from_mfa(model), sigma2, observations[:rows])
        self.problems += gate.check_oracle(what + " vs dense oracle", estimates[:rows], oracle)

    def obs_per_unit(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def argv(self, index: int) -> list[str]:
        """Arguments of the timed CLI call of unit ``index``."""
        raise NotImplementedError

    def finish(self, index: int, call: Call) -> Unit:
        """Account for the call's operations; runs untimed and untraced."""
        raise NotImplementedError

    def check(self, units: list[Unit]) -> None:
        raise NotImplementedError


class FitK64(Workload):
    """fit-mfa at paper scale with an iteration cap far below convergence."""

    name = "fit-k64"

    def obs_per_unit(self) -> int:
        return self.params["train"]

    def setup(self) -> None:
        self.train = self._generate(self.params["train"], 1, "train.chd")
        self.eval = self._generate(self.params["eval"], 2, "eval.chd")
        self.model = self.path("model.mfa")

    def argv(self, index: int) -> list[str]:
        return self._fit_argv(self.train, self.model)

    def finish(self, index: int, call: Call) -> Unit:
        failed = int(call.rc != 0)
        return Unit(call.seconds, 1, failed, outputs=[_file_digest(self.model)])

    def check(self, units: list[Unit]) -> None:
        digests = {u.outputs[0] for u in units}
        if len(digests) != 1:
            self.problems.append(f"fit-mfa wrote {len(digests)} different models for one seed")
        model = mfa.load_model(self.model)
        train = scenario.read_dataset(self.train).samples
        self.quality["fit_loglik"] = mfa.log_likelihood(model, train)
        truths = scenario.read_dataset(self.eval).samples
        out = self.path("estimates.chd")
        for si, snr in enumerate(SNR_GRID_DB):
            call = call_cli(self._estimate_argv(self.model, self.eval, si, out))
            if call.rc != 0:
                self.problems.append(f"estimate @ {snr:g} dB exited with code {call.rc}")
                continue
            estimates = scenario.read_dataset(out).samples
            self._check_estimates(model, truths, si, estimates)
            self.quality[f"nmse_db.mfa@{snr:g}"] = gate.to_db(gate.nmse(estimates, truths))


class CliEstimate(Workload):
    """Repeated ``estimate`` calls with a K=64 model fitted during set-up."""

    name = "cli-estimate"
    min_units = len(SNR_GRID_DB)

    def obs_per_unit(self) -> int:
        return self.params["eval"]

    def setup(self) -> None:
        self.train = self._generate(self.params["train"], 1, "train.chd")
        self.model = self.path("model.mfa")
        _require(call_cli(self._fit_argv(self.train, self.model)), "fit-mfa")
        self.eval = self._generate(self.params["eval"], 2, "eval.chd")
        self.out = self.path("estimates.chd")
        # Per SNR index: printed nMSE of every call, and the estimates of the first.
        self.nmse: dict[int, list[float]] = {}
        self.first: dict[int, np.ndarray] = {}

    def argv(self, index: int) -> list[str]:
        self.out.unlink(missing_ok=True)
        return self._estimate_argv(self.model, self.eval, index % len(SNR_GRID_DB), self.out)

    def finish(self, index: int, call: Call) -> Unit:
        si = index % len(SNR_GRID_DB)
        match = _NMSE_RE.search(call.stdout)
        printed = float(match.group(1)) if match else float("nan")
        ok = call.rc == 0 and np.isfinite(printed) and self.out.exists()
        if ok:
            estimates = scenario.read_dataset(self.out).samples
            ok = bool(np.all(np.isfinite(estimates)))
            self.first.setdefault(si, estimates)
        self.nmse.setdefault(si, []).append(printed)
        return Unit(call.seconds, 1, int(not ok))

    def check(self, units: list[Unit]) -> None:
        model = mfa.load_model(self.model)
        train = scenario.read_dataset(self.train).samples
        self.quality["fit_loglik"] = mfa.log_likelihood(model, train)
        truths = scenario.read_dataset(self.eval).samples
        for si, snr in enumerate(SNR_GRID_DB):
            if si not in self.first:
                self.problems.append(f"no successful estimate @ {snr:g} dB")
                continue
            estimates = self.first[si]
            self._check_estimates(model, truths, si, estimates)
            value = gate.nmse(estimates, truths)
            for printed in self.nmse[si]:
                self.problems += gate.check_close(
                    f"printed nMSE @ {snr:g} dB", printed, value, 0.0, gate.PRINT_ATOL)
            self.quality[f"nmse_db.mfa@{snr:g}"] = gate.to_db(value)


class PaperSweep(Workload):
    """``bench-snr`` with the paper's seven estimators on the scenario form of the spec."""

    name = "paper-sweep"

    def obs_per_unit(self) -> int:
        return self.params["eval"] * len(SNR_GRID_DB) * len(SWEEP_KINDS)

    def setup(self) -> None:
        p = self.params
        self.spec_seed = derive_seed(self.seed, 5)
        estimators = []
        for kind in SWEEP_KINDS:
            entry = {"kind": kind}
            if kind.startswith("gmm-") or kind == "mfa":
                entry["k"] = p["k"]
            if kind == "mfa":
                entry["l"] = p["l"]
            estimators.append(entry)
        spec = {
            "estimators": estimators,
            "snr_grid_db": list(SNR_GRID_DB),
            "eval_count": p["eval"],
            "train_count": p["train"],
            "seed": self.spec_seed,
            # The scenario form: with dataset paths bench would build a 1 x N
            # DFT dictionary for genie-OMP instead of the array's own.
            "scenario": self.size["scenario"],
            "max_iter": p["max_iter"],
            "rel_tol": SWEEP_REL_TOL,
        }
        self.spec = self.path("spec.json")
        self.spec.write_text(json.dumps(spec), encoding="utf-8")
        self.report = self.path("rows.jsonl")
        # The same draw bench makes from the spec seed, kept for the checks.
        rng = np.random.default_rng([self.spec_seed, BENCH_DATA_KEY])
        config = scenario.scenario_from_dict(self.size["scenario"])
        combined = scenario.generate_channels(config, p["train"] + p["eval"], rng)
        self.train = combined.samples[: p["train"]]
        self.truths = combined.samples[p["train"]:]

    def argv(self, index: int) -> list[str]:
        self.report.unlink(missing_ok=True)
        return ["bench-snr", "--spec", str(self.spec), "--out", str(self.report),
                "--format", "jsonl"]

    def finish(self, index: int, call: Call) -> Unit:
        expected = len(SWEEP_KINDS) * len(SNR_GRID_DB)
        rows = []
        if call.rc == 0 and self.report.exists():
            with open(self.report, "r", encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh if line.strip()]
        good = {(r["estimator"], r["snr_db"]) for r in rows if np.isfinite(r["nmse"])}
        wanted = {(kind, snr) for kind in SWEEP_KINDS for snr in SNR_GRID_DB}
        return Unit(call.seconds, expected, len(wanted - good), outputs=rows)

    def check(self, units: list[Unit]) -> None:
        table = {(r["estimator"], r["snr_db"]): r["nmse"] for r in units[0].outputs}
        for unit in units[1:]:
            for row in unit.outputs:
                key = (row["estimator"], row["snr_db"])
                self.problems += gate.check_close(
                    f"repeated {key[0]} @ {key[1]:g} dB", row["nmse"], table.get(key, np.nan),
                    gate.REPEAT_RTOL)
        for kind in SWEEP_KINDS:
            for snr in SNR_GRID_DB:
                value = table.get((kind, snr), float("nan"))
                self.problems += gate.check_finite(f"{kind} @ {snr:g} dB nMSE", [value])
                self.quality[f"nmse_db.{kind}@{snr:g}"] = gate.to_db(value)
        p = self.params
        model, _ = mfa.fit_em(self.train, p["k"], p["l"], mfa.FitConfig(
            max_iter=p["max_iter"], rel_tol=SWEEP_REL_TOL, seed=self.spec_seed,
            psi_mode="scaled-identity"))
        self.quality["fit_loglik"] = mfa.log_likelihood(model, self.train)
        dense = baselines.gmm_from_mfa(model)
        for si, snr in enumerate(SNR_GRID_DB):
            rng = np.random.default_rng([self.spec_seed, BENCH_NOISE_KEY, si])
            observations, sigma2 = scenario.corrupt(self.truths, snr, rng)
            self.problems += gate.check_close(
                f"ls @ {snr:g} dB nMSE vs sigma2", table.get(("ls", snr), np.nan), sigma2,
                gate.ls_rtol(self.truths.size))
            oracle = gate.nmse(baselines.gmm_estimate(dense, sigma2, observations), self.truths)
            self.problems += gate.check_close(
                f"mfa @ {snr:g} dB nMSE vs dense oracle", table.get(("mfa", snr), np.nan),
                oracle, gate.SWEEP_ORACLE_RTOL)


WORKLOADS = {cls.name: cls for cls in (FitK64, CliEstimate, PaperSweep)}
