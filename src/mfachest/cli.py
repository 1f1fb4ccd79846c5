"""Command-line frontend: dataset generation, model fitting, estimation, sweeps.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import baselines, bench, mfa, scenario
from ._binio import FileFormatError
from .gaussians import ConditioningError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfachest", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="generate a synthetic channel dataset")
    p.add_argument("--config", required=True, help="scenario config JSON file")
    p.add_argument("--t", type=int, required=True, help="number of samples")
    p.add_argument("--out", required=True, help="output dataset path (.chd)")
    p.add_argument("--seed", type=int, default=None, help="sample-draw seed (default: scenario seed)")

    fits = (("fit-mfa", "mixture of factor analyzers"), ("fit-gmm", "Gaussian mixture baseline"))
    defaults = mfa.FitConfig()
    for name, kind in fits:
        p = sub.add_parser(name, help=f"fit a {kind}")
        p.add_argument("--data", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--max-iter", type=int, default=defaults.max_iter)
        p.add_argument("--tol", type=float, default=defaults.rel_tol)
        p.add_argument("--seed", type=int, default=defaults.seed)
        if name == "fit-mfa":
            p.add_argument("--l", type=int, required=True)
            p.add_argument("--psi-mode", choices=mfa.PSI_MODES, default=defaults.psi_mode)
        else:
            p.add_argument("--structure", choices=baselines.GMM_STRUCTURES, required=True)

    p = sub.add_parser(
        "estimate",
        help="corrupt a dataset at one SNR, estimate with a model, report the nMSE",
    )
    p.add_argument("--model", required=True, help="MFA or GMM model file")
    p.add_argument("--data", required=True, help="dataset of true channels")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--out", default="", help="optional path for the estimates (.chd)")

    for name in ("bench-snr", "bench-latent", "bench-grid"):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} sweep of a bench spec")
        p.add_argument("--spec", required=True, help="bench spec JSON file")
        p.add_argument("--out", default="", help="report path (default: stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        if name == "bench-latent":
            p.add_argument("--l-grid", required=True, type=_int_list)
        if name == "bench-grid":
            p.add_argument("--k-grid", required=True, type=_int_list)
            p.add_argument("--l-grid", required=True, type=_int_list)

    p = sub.add_parser("param-count", help="stored-parameter count of a model family")
    p.add_argument("--kind", choices=mfa.PARAM_KINDS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=0)

    return parser


def _load_model(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == mfa.MODEL_MAGIC:
        return mfa.load_model(path)
    if magic == baselines.GMM_MAGIC:
        return baselines.load_gmm(path)
    raise FileFormatError(f"unrecognized model magic {magic!r}", 0)


def _cmd_generate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = scenario.scenario_from_dict(json.load(fh))
    seed = config.seed if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    dataset = scenario.generate_channels(config, args.t, rng)
    scenario.write_dataset(args.out, dataset)
    print(f"wrote {dataset.num_samples} x {dataset.dim} dataset to {args.out}")
    return 0


def _cmd_fit_mfa(args) -> int:
    dataset = scenario.read_dataset(args.data)
    config = mfa.FitConfig(
        max_iter=args.max_iter, rel_tol=args.tol, seed=args.seed, psi_mode=args.psi_mode
    )
    model, trace = mfa.fit_em(dataset, args.k, args.l, config)
    mfa.save_model(model, args.out)
    print(f"fit K={args.k} L={args.l} {_fit_summary(trace)}; wrote {args.out}")
    return 0


def _cmd_fit_gmm(args) -> int:
    dataset = scenario.read_dataset(args.data)
    config = mfa.FitConfig(max_iter=args.max_iter, rel_tol=args.tol, seed=args.seed)
    model, trace = baselines.fit_gmm(dataset, args.k, args.structure, config)
    baselines.save_gmm(model, args.out)
    print(f"fit {args.structure} GMM K={args.k} {_fit_summary(trace)}; wrote {args.out}")
    return 0


def _fit_summary(trace: mfa.FitTrace) -> str:
    if trace.converged:
        summary = f"in {trace.loglik.size} iterations, avg log-likelihood {trace.loglik[-1]:.6f}"
    else:
        # The returned model is one update past the last traced value; computing
        # its own log-likelihood would cost another pass over the data.
        summary = (
            f"stopped at --max-iter {trace.loglik.size} without converging; "
            f"avg log-likelihood before the last update {trace.loglik[-1]:.6f}"
        )
    return f"{summary}, {trace.seconds.mean():.3f} s per iteration"


def _cmd_estimate(args) -> int:
    model = _load_model(args.model)
    dataset = scenario.read_dataset(args.data)
    rng = np.random.default_rng(args.seed)
    observations, sigma2 = scenario.corrupt(dataset.samples, args.snr_db, rng)
    estimates = bench.model_estimator(model)(sigma2, observations)
    nmse = float(np.sum(np.abs(estimates - dataset.samples) ** 2) / dataset.samples.size)
    print(f"snr_db={args.snr_db} sigma2={sigma2:.6g} nmse={nmse:.8f}")
    if args.out:
        scenario.write_dataset(args.out, scenario.ChannelDataset(estimates, dataset.normalization))
        print(f"wrote estimates to {args.out}")
    return 0


def _write_report(rows, args) -> None:
    text = bench.report_csv(rows) if args.format == "csv" else bench.report_jsonl(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bench(args) -> int:
    spec = bench.bench_spec_from_json(args.spec)
    if args.command == "bench-snr":
        rows = bench.run_snr_sweep(spec)
    elif args.command == "bench-latent":
        rows = bench.run_latent_sweep(spec, args.l_grid)
    else:
        rows = bench.run_grid_sweep(spec, args.k_grid, args.l_grid)
    _write_report(rows, args)
    return 0


def _cmd_param_count(args) -> int:
    print(mfa.parameter_count(args.kind, args.k, args.n, args.l))
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "fit-mfa": _cmd_fit_mfa,
    "fit-gmm": _cmd_fit_gmm,
    "estimate": _cmd_estimate,
    "bench-snr": _cmd_bench,
    "bench-latent": _cmd_bench,
    "bench-grid": _cmd_bench,
    "param-count": _cmd_param_count,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, FileFormatError, ConditioningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
