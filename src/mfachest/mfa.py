"""Mixture-of-factor-analyzers model: EM fitting, likelihood, sampling, serialization.

Each mixture component models the data on an L-dimensional linear subspace
(factor loading) plus a diagonal residual term, which is equivalent to a
Gaussian mixture whose covariances are low-rank plus diagonal. Fitting uses
the classical EM recursion for factor-analyzer mixtures, adapted to
circularly-symmetric complex Gaussians: conjugate transposes throughout and
no real-case 1/2 factors in the variance accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import gaussians
from ._binio import ByteReader, ByteWriter, FileFormatError
from .gaussians import LowRankCovariance, log_sum_exp
from .scenario import ChannelDataset

MODEL_MAGIC = b"MFA1"
MODEL_VERSION = 1

PSI_MODES = ("scaled-identity", "shared-diagonal", "diagonal")
INIT_MODES = ("kmeans-pca", "random")

# Mixture weights below this floor count as collapsed components.
WEIGHT_FLOOR = 1e-8
# Relative floor applied to diagonal terms: scaled by the mean per-entry
# energy of the training data.
PSI_FLOOR_REL = 1e-8
# Ridge on the latent regression Gram matrix, relative to its trace scale.
RIDGE_REL = 1e-10

_KMEANS_ITER = 20
_KMEANS_SUBSAMPLE = 20_000


@dataclass(frozen=True)
class MfaComponent:
    weight: float
    mean: np.ndarray
    cov: LowRankCovariance

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.complex128)
        if mean.ndim != 1 or mean.shape[0] != self.cov.dim:
            raise ValueError("component mean must be a length-N vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("component mean must be finite")
        if not (0.0 < self.weight <= 1.0):
            raise ValueError("component weight must lie in (0, 1]")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class MfaModel:
    components: tuple[MfaComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("model needs at least one component")
        dims = {c.cov.dim for c in comps}
        lats = {c.cov.latent_dim for c in comps}
        if len(dims) != 1 or len(lats) != 1:
            raise ValueError("all components must share N and L")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].cov.dim

    @property
    def latent_dim(self) -> int:
        return self.components[0].cov.latent_dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @property
    def means(self) -> np.ndarray:
        return np.stack([c.mean for c in self.components])


@dataclass(frozen=True)
class FitConfig:
    max_iter: int = 300
    rel_tol: float = 1e-6
    seed: int = 0
    psi_mode: str = "scaled-identity"
    init: str = "kmeans-pca"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.psi_mode not in PSI_MODES:
            raise ValueError(f"psi_mode must be one of {PSI_MODES}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")


@dataclass(frozen=True)
class FitTrace:
    """Average log-likelihood at the start of each EM iteration, and the wall
    time in seconds of the update that computed it (one entry per ``loglik``).

    ``converged`` is True when the relative change fell below ``rel_tol``; the
    returned parameters are then the ones ``loglik[-1]`` describes. When EM
    stopped at ``max_iter`` instead, the returned parameters are one update
    past ``loglik[-1]``.
    """

    loglik: np.ndarray
    seconds: np.ndarray
    converged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "loglik", np.asarray(self.loglik, dtype=np.float64))
        object.__setattr__(self, "seconds", np.asarray(self.seconds, dtype=np.float64))


def _as_samples(dataset) -> np.ndarray:
    """The (T, N) samples of a ChannelDataset or array; rejects empty or non-finite data."""
    if isinstance(dataset, ChannelDataset):
        samples = dataset.samples
    else:
        samples = np.asarray(dataset, dtype=np.complex128)
    if samples.ndim != 2:
        raise ValueError("dataset must be a ChannelDataset or a (T, N) array")
    if samples.shape[0] < 1:
        raise ValueError("dataset must hold at least one sample")
    if not np.all(np.isfinite(samples)):
        raise ValueError("dataset contains non-finite samples")
    return samples


def _psi_floor(samples: np.ndarray) -> float:
    return PSI_FLOOR_REL * float(np.mean(np.abs(samples) ** 2))


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def log_likelihood(model: MfaModel, dataset) -> float:
    """Average per-sample log of the mixture density, via log-sum-exp."""
    samples = _as_samples(dataset)
    stack = gaussians.stack_mixture(model.components, 0.0)
    chunk = stack.chunk_rows()
    latent = np.empty((chunk, model.n_components, model.latent_dim), dtype=np.complex128)
    total = 0.0
    for start in range(0, samples.shape[0], chunk):
        block = samples[start:start + chunk]
        logdens = gaussians.mixture_logdens(stack, block, np.abs(block) ** 2, latent[:len(block)])
        total += float(log_sum_exp(logdens, axis=1).sum())
    return total / samples.shape[0]


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def _resolve_psi(
    per_entry: list[np.ndarray],
    masses: list[float],
    psi_mode: str,
    floor: float,
    total: int,
    dim: int,
) -> list[np.ndarray]:
    if psi_mode == "shared-diagonal":
        pooled = np.sum(per_entry, axis=0) / total
        shared = np.maximum(pooled, floor)
        return [shared.copy() for _ in per_entry]
    out = []
    for entry, mass in zip(per_entry, masses):
        denom = max(mass, np.finfo(float).tiny)
        if psi_mode == "scaled-identity":
            value = max(float(entry.sum()) / (dim * denom), floor)
            out.append(np.full(dim, value))
        else:  # per-component diagonal
            out.append(np.maximum(entry / denom, floor))
    return out


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _kmeans(samples: np.ndarray, k_total: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding plus Lloyd iterations on complex vectors; returns labels.

    Lloyd runs on a subsample when the dataset is large; the final assignment
    always covers all samples.
    """
    count = samples.shape[0]
    budget = max(_KMEANS_SUBSAMPLE, 10 * k_total)
    if count > budget:
        work = samples[rng.choice(count, size=budget, replace=False)]
    else:
        work = samples
    n_work = work.shape[0]
    energy = (np.abs(work) ** 2).sum(axis=1)

    centers = np.empty((k_total, samples.shape[1]), dtype=np.complex128)
    centers[0] = work[rng.integers(n_work)]
    d2 = (np.abs(work - centers[0]) ** 2).sum(axis=1)
    for k in range(1, k_total):
        total = d2.sum()
        if total <= 0:
            centers[k] = work[rng.integers(n_work)]
            continue
        centers[k] = work[rng.choice(n_work, p=d2 / total)]
        d2 = np.minimum(d2, (np.abs(work - centers[k]) ** 2).sum(axis=1))

    labels = np.zeros(n_work, dtype=np.intp)
    for _ in range(_KMEANS_ITER):
        cross = work @ centers.conj().T
        dist = energy[:, None] - 2.0 * cross.real + (np.abs(centers) ** 2).sum(axis=1)
        new_labels = dist.argmin(axis=1)
        for k in range(k_total):
            mask = new_labels == k
            if mask.any():
                centers[k] = work[mask].mean(axis=0)
            else:
                # Empty cluster: reseed at the sample farthest from its center.
                far = dist[np.arange(n_work), new_labels].argmax()
                centers[k] = work[far]
                new_labels[far] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    if work is samples:
        return labels
    cross = samples @ centers.conj().T
    full_energy = (np.abs(samples) ** 2).sum(axis=1)
    dist = full_energy[:, None] - 2.0 * cross.real + (np.abs(centers) ** 2).sum(axis=1)
    return dist.argmin(axis=1)


def _init_components(
    samples: np.ndarray, k_total: int, latent: int, config: FitConfig, rng: np.random.Generator
) -> list[MfaComponent]:
    count, dim = samples.shape
    floor = _psi_floor(samples)
    scale = float(np.mean(np.abs(samples) ** 2))

    if config.init == "random":
        picks = rng.choice(count, size=k_total, replace=False)
        comps = []
        for k in range(k_total):
            loading = 0.3 * np.sqrt(scale) * gaussians._std_cnormal(rng, (dim, latent))
            psi = np.full(dim, max(scale, floor))
            comps.append(
                MfaComponent(1.0 / k_total, samples[picks[k]], LowRankCovariance(loading, psi))
            )
        return comps

    labels = _kmeans(samples, k_total, rng)
    comps = []
    for k in range(k_total):
        cluster = samples[labels == k]
        if cluster.shape[0] < 2:
            mean = cluster[0] if cluster.shape[0] else samples[rng.integers(count)]
            loading = 0.3 * np.sqrt(scale) * gaussians._std_cnormal(rng, (dim, latent))
            psi = np.full(dim, max(scale, floor))
            comps.append(MfaComponent(1.0 / k_total, mean, LowRankCovariance(loading, psi)))
            continue
        mean = cluster.mean(axis=0)
        centered = cluster - mean
        cov = centered.T @ centered.conj() / cluster.shape[0]
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
        vals = np.maximum(vals[::-1], 0.0)
        vecs = vecs[:, ::-1]
        loading = vecs[:, :latent] * np.sqrt(vals[:latent])
        resid = float(vals[latent:].mean()) if latent < dim else floor
        psi = np.full(dim, max(resid, floor))
        comps.append(MfaComponent(1.0 / k_total, mean, LowRankCovariance(loading, psi)))
    return comps


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------

_EM_CHUNK = 8192


def _em_iteration(
    samples: np.ndarray, abs2: np.ndarray, comps: list[MfaComponent]
) -> tuple[float, int, np.ndarray, list, list, list]:
    """One fused E+M sweep over the data, chunked and stacked across components.

    The E-step is the stacked mixture kernel (``gaussians.mixture_logdens``),
    which writes the latent posterior means straight into the regression
    buffer; the M-step statistics are a few large matrix products, and the
    residual energies use the collapsed identity
    ``sum_t r E||x - W~ z~||^2 = sum_t r |x|^2 - Re diag(W~ S_xz^H)``,
    which equals the explicit residual form at the regression optimum.

    Returns (average log-likelihood of the incoming parameters, worst-fit
    sample index, responsibility masses, loadings, means, per-entry residual
    energies).
    """
    count, dim = samples.shape
    k_total = len(comps)
    latent = comps[0].cov.latent_dim
    width = latent + 1
    stack = gaussians.stack_mixture(comps, 0.0)

    s_xz_flat = np.zeros((dim, k_total * width), dtype=np.complex128)
    s_zz = np.zeros((k_total, width, width), dtype=np.complex128)
    r_abs2 = np.zeros((dim, k_total))
    masses = np.zeros(k_total)
    ll_sum = 0.0
    worst_val, worst_idx = np.inf, 0

    chunk = max(256, min(_EM_CHUNK, 4_000_000 // (k_total * width)))
    # Rows of aug are the augmented latent vectors [m_k; 1] of every component;
    # the kernel fills the m_k blocks, the intercept column is set once.
    aug_big = np.empty((chunk, k_total * width), dtype=np.complex128)
    aug_big.reshape(chunk, k_total, width)[:, :, latent] = 1.0
    conj_big = np.empty_like(aug_big)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        block = samples[start:stop]
        size = stop - start
        aug = aug_big[:size]
        lat_means = aug.reshape(size, k_total, width)[:, :, :latent]
        logdens = gaussians.mixture_logdens(stack, block, abs2[start:stop], lat_means)

        lse = log_sum_exp(logdens, axis=1)
        ll_sum += float(lse.sum())
        block_min = int(np.argmin(lse))
        if lse[block_min] < worst_val:
            worst_val = float(lse[block_min])
            worst_idx = start + block_min
        resp = np.exp(logdens - lse[:, None])
        resp /= resp.sum(axis=1, keepdims=True)

        weighted = np.conjugate(aug, out=conj_big[:size])
        weighted.reshape(size, k_total, width)[:] *= resp[:, :, None]
        s_xz_flat += block.T @ weighted
        for k in range(k_total):
            cols = slice(k * width, (k + 1) * width)
            s_zz[k] += aug[:, cols].T @ weighted[:, cols]
        r_abs2 += abs2[start:stop].T @ resp
        masses += resp.sum(axis=0)

    loadings, means, per_entry = [], [], []
    for k in range(k_total):
        s_xz = s_xz_flat[:, k * width:(k + 1) * width]
        s_zz[k, :latent, :latent] += masses[k] * stack.latent_cov[k]
        s_zz[k] = 0.5 * (s_zz[k] + s_zz[k].conj().T)
        # Ridge only on the latent block: rank deficiency lives there, and the
        # intercept row must stay exact so the mean update is the weighted mean.
        trace_scale = max(float(np.trace(s_zz[k]).real) / width, np.finfo(float).tiny)
        s_zz[k, :latent, :latent] += (RIDGE_REL * trace_scale) * np.eye(latent)
        if masses[k] == 0.0:
            # A mass that underflows to zero leaves the regression system
            # singular; the caller re-seeds the collapsed component.
            joint = np.zeros((dim, width), dtype=np.complex128)
        else:
            joint = np.linalg.solve(s_zz[k], s_xz.conj().T).conj().T
        loadings.append(np.ascontiguousarray(joint[:, :latent]))
        means.append(np.ascontiguousarray(joint[:, latent]))
        per_entry.append(r_abs2[:, k] - np.einsum("nj,nj->n", joint, s_xz.conj()).real)

    return ll_sum / count, worst_idx, masses, loadings, means, per_entry


def fit_em(
    dataset, n_components: int, latent_dim: int, config: FitConfig | None = None
) -> tuple[MfaModel, FitTrace]:
    """Fit the mixture by EM; deterministic given config.seed.

    The returned trace holds the average log-likelihood at the start of each
    iteration and is non-decreasing up to floating-point slack. Iteration stops
    when the relative change drops below ``config.rel_tol`` or after
    ``config.max_iter`` steps. Components whose weight collapses below the
    floor are re-seeded at the worst-fit sample rather than dropped.
    """
    config = config or FitConfig()
    samples = _as_samples(dataset)
    count, dim = samples.shape
    if count < n_components:
        raise ValueError(f"need at least K={n_components} samples, got {count}")
    if not (1 <= latent_dim <= dim):
        raise ValueError("latent dimension must satisfy 1 <= L <= N")

    rng = np.random.default_rng(config.seed)
    comps = _init_components(samples, n_components, latent_dim, config, rng)
    abs2 = np.abs(samples) ** 2
    comps, trace = _run_em(
        lambda state: _em_update(samples, abs2, state, config.psi_mode, rng), comps, config
    )
    return MfaModel(tuple(comps)), trace


def _run_em(update, state, config: FitConfig):
    """The EM loop of fit_em and baselines.fit_gmm.

    ``update(state)`` returns the average log-likelihood of ``state`` and the
    next state. The loop stops when that value changes by at most
    ``config.rel_tol`` relative to the previous one, keeping the state it
    describes, or after ``config.max_iter`` updates, keeping the last update.
    Returns the final state and its ``FitTrace``, which times each update
    with ``time.perf_counter``.
    """
    trace: list[float] = []
    seconds: list[float] = []
    prev = None
    for _ in range(config.max_iter):
        start = time.perf_counter()
        avg, updated = update(state)
        seconds.append(time.perf_counter() - start)
        trace.append(avg)
        if prev is not None and abs(avg - prev) <= config.rel_tol * max(abs(prev), 1e-12):
            return state, FitTrace(trace, seconds, converged=True)
        prev = avg
        state = updated
    return state, FitTrace(trace, seconds)


def _mixture_weights(masses: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The collapse policy shared by every EM update: (weights, collapsed indices).

    A component whose responsibility mass is below ``WEIGHT_FLOOR`` of the
    data has collapsed; the caller re-seeds it and it restarts at weight 1/K
    before renormalization. Every weight is floored at ``WEIGHT_FLOOR``.
    """
    weights = masses / count
    collapsed = np.flatnonzero(weights < WEIGHT_FLOOR)
    weights[collapsed] = 1.0 / weights.size
    weights = np.maximum(weights, WEIGHT_FLOOR)
    return weights / weights.sum(), collapsed


def _em_update(
    samples: np.ndarray,
    abs2: np.ndarray,
    comps: list[MfaComponent],
    psi_mode: str,
    rng: np.random.Generator,
) -> tuple[float, list[MfaComponent]]:
    """One EM iteration of fit_em: the fused sweep, the diagonal update and the reseed.

    Components whose responsibility mass falls below the weight floor are
    re-seeded at the sample the incoming parameters fit worst, with a fresh
    small random loading, a data-scale diagonal and weight 1/K before
    renormalization; K never changes. Returns the average log-likelihood of
    the incoming components and the updated components.
    """
    count, dim = samples.shape
    k_total, latent = len(comps), comps[0].cov.latent_dim
    scale = float(np.mean(abs2))
    floor = PSI_FLOOR_REL * scale
    avg, worst, masses, loadings, means, per_entry = _em_iteration(samples, abs2, comps)

    psis = _resolve_psi(per_entry, list(masses), psi_mode, floor, count, dim)
    weights, collapsed = _mixture_weights(masses, count)
    for k in collapsed:
        means[k] = samples[worst].copy()
        loadings[k] = 0.3 * np.sqrt(scale) * gaussians._std_cnormal(rng, (dim, latent))
        psis[k] = np.full(dim, max(scale, floor))
    updated = [
        MfaComponent(weights[k], means[k], LowRankCovariance(loadings[k], psis[k]))
        for k in range(k_total)
    ]
    return avg, updated


# ---------------------------------------------------------------------------
# Sampling and parameter accounting
# ---------------------------------------------------------------------------


def sample(model: MfaModel, count: int, rng: np.random.Generator) -> ChannelDataset:
    """Draw ``count`` samples: a categorical component pick, then the component draw."""
    if count < 1:
        raise ValueError("count must be >= 1")
    picks = rng.choice(model.n_components, size=count, p=model.weights)
    out = np.empty((count, model.dim), dtype=np.complex128)
    for k, comp in enumerate(model.components):
        mask = picks == k
        n_k = int(mask.sum())
        if n_k:
            out[mask] = gaussians.sample_component(comp.mean, comp.cov, rng, size=n_k)
    return ChannelDataset(out, normalization=1.0, seed=None)


PARAM_KINDS = ("mfa", "gmm-full", "gmm-toep", "gmm-circ")


def parameter_count(kind: str, n_components: int, dim: int, latent_dim: int = 0) -> int:
    """Stored-parameter count of each model family.

    mfa: K(LN + N + 2); gmm-full: K(N^2/2 + 2N + 1) with N^2/2 rounded up for
    odd N; gmm-toep: K(5N + 1); gmm-circ: K(2N + 1). The mfa count assumes a
    per-component scaled-identity diagonal (one scale plus one weight per
    component); counts treat a complex entry and a real scalar alike.
    """
    if kind not in PARAM_KINDS:
        raise ValueError(f"kind must be one of {PARAM_KINDS}")
    if n_components < 1 or dim < 1:
        raise ValueError("n_components and dim must be positive")
    if kind == "mfa":
        if latent_dim < 1:
            raise ValueError("mfa parameter count needs latent_dim >= 1")
        return n_components * (latent_dim * dim + dim + 2)
    if kind == "gmm-full":
        return n_components * (-(-dim * dim // 2) + 2 * dim + 1)
    if kind == "gmm-toep":
        return n_components * (5 * dim + 1)
    return n_components * (2 * dim + 1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: MfaModel, path) -> None:
    """Write the MFA1 container (little-endian; loadings stored column-major)."""
    w = ByteWriter()
    w.magic(MODEL_MAGIC)
    w.u32(MODEL_VERSION)
    w.u32(model.dim)
    w.u32(model.latent_dim)
    w.u32(model.n_components)
    for comp in model.components:
        w.f64(comp.weight)
        w.complex_array(comp.mean)
        w.complex_array(comp.cov.loading, order="F")
        w.f64_array(comp.cov.diag_term)
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_model(path) -> MfaModel:
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read())
    reader.magic(MODEL_MAGIC)
    version = reader.u32("version")
    if version != MODEL_VERSION:
        raise FileFormatError(f"unsupported model version {version}", reader.offset - 4)
    dim = reader.u32("dimension N")
    latent = reader.u32("latent dimension L")
    k_total = reader.u32("component count K")
    if dim == 0 or k_total == 0:
        raise FileFormatError("model header declares an empty model", reader.offset)
    comps = []
    for _ in range(k_total):
        weight = reader.f64("weight")
        mean = reader.complex_array(dim, "mean")
        loading = reader.complex_array(dim * latent, "loading").reshape((dim, latent), order="F")
        psi = reader.f64_array(dim, "diagonal term")
        comps.append(MfaComponent(weight, mean, LowRankCovariance(loading, psi)))
    reader.expect_eof()
    return MfaModel(tuple(comps))
