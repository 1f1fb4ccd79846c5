"""Correctness gate: checks on the outputs of a run, made outside the timed phase.

Every check returns a list of problems (empty when it passes), so a run can
report all of them at once. Tolerances are module constants, stated here once.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# MFA estimates against the dense full-covariance oracle: ||a - b|| / ||b||.
ORACLE_RTOL = 1e-6
# nMSE of one sweep row against the oracle nMSE for the same noise draw.
SWEEP_ORACLE_RTOL = 1e-6
# LS nMSE against its expectation sigma2: the mean of n squared noise
# magnitudes has relative standard deviation 1/sqrt(n); allow 8 of them
# (10 % for the 100 x 64 entries of the paper-sweep eval set).
LS_SIGMAS = 8.0
# Repeated calls on identical inputs must give the same nMSE.
REPEAT_RTOL = 1e-9
# The CLI prints nMSE with 8 decimals.
PRINT_ATOL = 1e-8
# Recorded seeds: nMSE in dB and fit log-likelihood must match to these.
REF_DB_ATOL = 1e-4
REF_LOGLIK_RTOL = 1e-5
# Unrecorded seeds: values must lie within this many times the largest
# deviation seen across recorded seeds, and never tighter than the floors.
BAND_FACTOR = 3.0
BAND_FLOOR = {"nmse_db": 1.0, "fit_loglik": 0.5}


def nmse(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Normalized MSE as the CLI and bench define it: sum |e - h|^2 / h.size."""
    return float(np.sum(np.abs(estimates - truths) ** 2) / truths.size)


def to_db(value: float) -> float:
    return 10.0 * math.log10(value) if value > 0 else float("nan")


def check_finite(what: str, values) -> list[str]:
    arr = np.asarray(values)
    bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
    return [f"{what}: {bad} non-finite of {arr.size}"] if bad else []


def check_oracle(what: str, estimates: np.ndarray, oracle: np.ndarray) -> list[str]:
    """Relative distance of the estimates from the oracle's, on the same observations."""
    problems = check_finite(what, estimates)
    if problems:
        return problems
    if estimates.shape != oracle.shape:
        return [f"{what}: shape {estimates.shape} != oracle shape {oracle.shape}"]
    rel = float(np.linalg.norm(estimates - oracle) / np.linalg.norm(oracle))
    if not rel <= ORACLE_RTOL:
        return [f"{what}: relative distance {rel:.3e} from the oracle exceeds {ORACLE_RTOL:g}"]
    return []


def check_close(what: str, value: float, expected: float, rtol: float,
                atol: float = 0.0) -> list[str]:
    if not math.isfinite(value):
        return [f"{what}: non-finite value {value}"]
    if not abs(value - expected) <= rtol * abs(expected) + atol:
        return [f"{what}: {value!r} differs from {expected!r} by more than "
                f"{rtol:g} relative + {atol:g}"]
    return []


def ls_rtol(entries: int) -> float:
    return LS_SIGMAS / math.sqrt(entries)


def load_references(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def _kind(key: str) -> str:
    return "fit_loglik" if key == "fit_loglik" else "nmse_db"


def check_references(workload: str, seed: int, values: dict[str, float],
                     references: dict) -> list[str]:
    """Compare quality values against the recorded ones.

    ``values`` maps keys such as ``fit_loglik`` or ``nmse_db.mfa@10`` to
    numbers. A recorded seed must match to the tight tolerances; any other
    seed must fall inside the band the recorded seeds span. A workload
    without recorded references is not checked here.
    """
    recorded: dict[str, dict[str, float]] = references.get(workload, {})
    if not recorded:
        return []
    problems = []
    exact = recorded.get(str(seed))
    for key, value in sorted(values.items()):
        if not math.isfinite(value):
            problems.append(f"{key}: non-finite value {value}")
            continue
        if exact is not None:
            if key not in exact:
                problems.append(f"{key}: no reference recorded for seed {seed}")
                continue
            ref = exact[key]
            if _kind(key) == "fit_loglik":
                ok = abs(value - ref) <= REF_LOGLIK_RTOL * max(1.0, abs(ref))
            else:
                ok = abs(value - ref) <= REF_DB_ATOL
            if not ok:
                problems.append(f"{key}: {value!r} != reference {ref!r} for seed {seed}")
            continue
        seen = [per_seed[key] for per_seed in recorded.values() if key in per_seed]
        if not seen:
            problems.append(f"{key}: no reference recorded for any seed")
            continue
        center = statistics.median(seen)
        width = max(BAND_FLOOR[_kind(key)], BAND_FACTOR * max(abs(v - center) for v in seen))
        if not abs(value - center) <= width:
            problems.append(
                f"{key}: {value!r} outside {center!r} +- {width:.3g} spanned by recorded seeds"
            )
    if exact is not None:
        missing = sorted(set(exact) - set(values))
        problems.extend(f"{key}: recorded but not produced" for key in missing)
    return problems
