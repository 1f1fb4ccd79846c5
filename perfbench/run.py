"""Benchmark of the mfachest CLI on paper-scale workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-k64 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run. The line
before it holds the run's details (environment record, checks, operations),
which are also written with the spans to ``.perfbench/`` in the checkout.
See WORKLOADS.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# BLAS threads, capped by the cores this process may use. Set before numpy loads.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up repetitions of an untraced run; setup_s is their median.
SETUP_REPS = 3


def _import_program():
    """Import mfachest from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import mfachest

    if Path(mfachest.__file__).resolve().parent != src / "mfachest":
        raise ImportError(f"mfachest imported from {mfachest.__file__}, not from {src}")
    return mfachest


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str,
        check_references: bool = True) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details).

    References are recorded at paper size only, so smoke runs skip them.
    """
    import gate
    import workloads
    from tracer import Tracer

    workdir = OUT_DIR / f"work-{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        work = workloads.WORKLOADS[workload_name](size, seed, workdir)

        setup_times = []
        for _ in range(1 if trace else SETUP_REPS):
            tracer.phase = "setup"
            if trace:
                tracer.install()
            start = time.perf_counter()
            try:
                work.setup()
            finally:
                setup_times.append(time.perf_counter() - start)
                tracer.uninstall()

        # The timed phase: units until the window has passed. A traced run
        # alternates untraced and traced units to measure the tracing overhead.
        units, traced_flags = [], []
        tracer.phase = "run"
        window_start = time.perf_counter()
        while True:
            index = len(units)
            traced = trace and index % 2 == 1
            argv = work.argv(index)
            if traced:
                tracer.install()
            try:
                call = workloads.call_cli(argv)
            finally:
                tracer.uninstall()
            units.append(work.finish(index, call))
            traced_flags.append(traced)
            enough = len(units) >= max(work.min_units, 2 if trace else 1)
            if enough and time.perf_counter() - window_start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            work.check(units)
        except Exception as exc:  # a broken output fails the gate, not the run
            traceback.print_exc()
            work.problems.append(f"checks raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    plain = [u.seconds for u, t in zip(units, traced_flags) if not t]
    run_s = _median(plain)
    nmse_db = [v for k, v in work.quality.items() if k.startswith("nmse_db.mfa@")]
    if trace:
        traced_units = [u for u, t in zip(units, traced_flags) if t]
        metrics = layer_metrics(tracer, traced_units, run_s)
    else:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "obs_per_s": (work.obs_per_unit() / run_s, "obs/s"),
            "nmse_db": (statistics.fmean(nmse_db) if nmse_db else float("nan"), "dB"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    problems = list(work.problems)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    reference_problems = []
    if check_references and size == "paper":
        reference_problems = gate.check_references(workload_name, seed, work.quality,
                                                   gate.load_references())
    result = {
        "correct": not problems and not reference_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload_name,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "problems": problems,
        "reference_problems": reference_problems,
        "error_rate": failed / attempted if attempted else 0.0,
        "setup_times_s": setup_times,
        "units": [{"seconds": u.seconds, "traced": t, "attempted": u.attempted,
                   "failed": u.failed} for u, t in zip(units, traced_flags)],
        "quality": work.quality,
        "absent": tracer.absent,
    }
    return result, {**details, "spans": tracer.dump()}


def layer_metrics(tracer, traced_units, untraced_run_s: float) -> dict:
    """Per-layer metrics of the traced units, per unit, plus set-up layer times."""
    import workloads

    count = len(traced_units)
    run = tracer.totals("run")
    setup = tracer.totals("setup")

    def busy(name, phase_totals=run, per=count):
        return phase_totals.get(name, {}).get("s", 0.0) / per

    def calls(name):
        return run.get(name, {}).get("calls", 0) / count

    def self_s(prefix):
        return sum(v["self_s"] for k, v in run.items() if k.startswith(prefix)) / count

    em_iters = tracer.counter("run", "mfa.em_iters") / count
    observations = tracer.counter("run", "estimator.observations") / count
    build, apply_ = busy("estimator.build_filter_bank"), busy("estimator.estimate_with_bank")
    traced_run_s = _median([u.seconds for u in traced_units])
    out = {
        "cli.main.s": (busy("cli.main"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli."), "s"),
        "bench.self_s": (self_s("bench."), "s"),
    }
    for kind in workloads.SWEEP_KINDS:
        total = sum(r["wall_time_ms"] for u in traced_units for r in u.outputs
                    if isinstance(r, dict) and r.get("estimator") == kind)
        out[f"bench.estimate_ms.{kind}"] = (total / count, "ms")
    for name in ("scenario.generate_channels", "scenario.corrupt", "scenario.read_dataset",
                 "scenario.write_dataset", "mfa.load_model", "mfa.save_model"):
        out[f"{name}.s"] = (busy(name), "s")
    out["scenario.read_dataset.mb"] = (tracer.counter("run", "scenario.read_dataset.mb") / count, "MB")
    out.update({
        "mfa.fit_em.s": (busy("mfa.fit_em"), "s"),
        "mfa.fit_em.calls": (calls("mfa.fit_em"), "count"),
        "mfa.em_iters": (em_iters, "count"),
        "mfa.em_iter_ms": (1e3 * busy("mfa.fit_em") / em_iters if em_iters else 0.0, "ms"),
        "mfa.log_likelihood.s": (busy("mfa.log_likelihood"), "s"),
        "gaussians.factorize.s": (busy("gaussians.factorize"), "s"),
        "gaussians.factorize.calls": (calls("gaussians.factorize"), "count"),
        "gaussians.woodbury_inverse.s": (busy("gaussians.woodbury_inverse"), "s"),
        "gaussians.woodbury_inverse.calls": (calls("gaussians.woodbury_inverse"), "count"),
        "estimator.estimate.s": (busy("estimator.estimate"), "s"),
        "estimator.estimate.calls": (calls("estimator.estimate"), "count"),
        "estimator.obs_per_busy_s": (
            observations / busy("estimator.estimate") if observations else 0.0, "obs/s"),
        "estimator.build_filter_bank.s": (build, "s"),
        "estimator.build_filter_bank.calls": (calls("estimator.build_filter_bank"), "count"),
        "estimator.estimate_with_bank.s": (apply_, "s"),
        "estimator.prep_share": (build / (build + apply_) if build + apply_ else 0.0, "ratio"),
        "baselines.genie_omp_batch.s": (busy("baselines.genie_omp_batch"), "s"),
        "baselines.fit_gmm.s": (busy("baselines.fit_gmm"), "s"),
        "baselines.gmm_iters": (tracer.counter("run", "baselines.gmm_iters") / count, "count"),
        "baselines.gmm_estimate.s": (busy("baselines.gmm_estimate"), "s"),
        "baselines.fit_sample_lmmse.s": (busy("baselines.fit_sample_lmmse"), "s"),
        "baselines.sample_lmmse_estimate.s": (busy("baselines.sample_lmmse_estimate"), "s"),
        "setup.scenario.generate_channels.s": (busy("scenario.generate_channels", setup, 1), "s"),
        "setup.scenario.write_dataset.s": (busy("scenario.write_dataset", setup, 1), "s"),
        "setup.mfa.fit_em.s": (busy("mfa.fit_em", setup, 1), "s"),
        "setup.mfa.save_model.s": (busy("mfa.save_model", setup, 1), "s"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
        "trace.spans": (sum(v["calls"] for v in run.values()) / count, "count"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-k64", "cli-estimate", "paper-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window; a unit started in it runs to the end")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "smoke"), default="paper",
                        help="input sizes; smoke is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"result": result, **details}, fh)
    details.pop("spans")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
