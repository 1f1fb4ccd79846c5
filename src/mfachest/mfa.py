"""Mixture-of-factor-analyzers model: EM fitting, likelihood, serialization.

Each mixture component models the data on an L-dimensional linear subspace
(factor loading) plus a diagonal residual term, which is equivalent to a
Gaussian mixture whose covariances are low-rank plus diagonal. Fitting uses
the classical EM recursion for factor-analyzer mixtures, adapted to
circularly-symmetric complex Gaussians: conjugate transposes throughout and
no real-case 1/2 factors in the variance accounting.

``MfaModel`` holds the K components as stacked arrays (weights, means,
loadings, diagonals). The EM state is the model itself: each iteration's
regression solve and diagonal update run batched over K, and the likelihood,
the estimator and the MFA1 codec read the arrays directly.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gaussians
from ._binio import Container, write_container
from .scenario import ChannelDataset, _check_field_types

MODEL_MAGIC = b"MFA1"
MODEL_VERSION = 1

PSI_MODES = ("scaled-identity", "shared-diagonal", "diagonal")

# A child of the package logger, which is silent until the caller configures it.
_LOG = logging.getLogger(__name__)

# Mixture weights below this floor count as collapsed components.
WEIGHT_FLOOR = 1e-8
# Relative floor applied to diagonal terms: scaled by the mean per-entry
# energy of the training data.
PSI_FLOOR_REL = 1e-8
# Ridge on the latent regression Gram matrix, relative to its trace scale.
RIDGE_REL = 1e-10

_KMEANS_ITER = 20


@dataclass(frozen=True)
class MfaModel:
    """A mixture of K factor analyzers, stacked by component.

    ``weights`` (K,) are the mixture weights, ``means`` (K, N) the means,
    ``loadings`` (K, N, L) the factor loadings W_k with L <= N, and
    ``diag_terms`` (K, N) the strictly positive diagonals Psi_k; component k
    has covariance ``W_k W_k^H + diag(Psi_k)``.
    """

    weights: np.ndarray
    means: np.ndarray
    loadings: np.ndarray
    diag_terms: np.ndarray

    def __post_init__(self):
        loadings = np.ascontiguousarray(self.loadings, dtype=np.complex128)
        diag_terms = np.ascontiguousarray(self.diag_terms, dtype=np.float64)
        if loadings.ndim != 3:
            raise ValueError("loadings must be a (K, N, L) array")
        k_total, dim, latent = loadings.shape
        weights, means = gaussians.check_mixture(self.weights, self.means, k_total)
        if means.shape[1] != dim or diag_terms.shape != (k_total, dim):
            raise ValueError("means (K, N), loadings (K, N, L) and diag_terms (K, N) disagree")
        if latent > dim:
            raise ValueError("latent dimension L must not exceed N")
        if not np.all(np.isfinite(loadings)):
            raise ValueError("loading entries must be finite")
        if not np.all(np.isfinite(diag_terms)) or np.any(diag_terms <= 0.0):
            raise ValueError("diag_term entries must be finite and > 0")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "diag_terms", diag_terms)

    @property
    def dim(self) -> int:
        return self.loadings.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.loadings.shape[2]

    @property
    def n_components(self) -> int:
        return self.loadings.shape[0]

    def dense_covariances(self) -> np.ndarray:
        """Materialize the (K, N, N) covariances W_k W_k^H + diag(diag_term_k)."""
        out = self.loadings @ self.loadings.conj().transpose(0, 2, 1)
        diag = np.arange(self.dim)
        out[:, diag, diag] += self.diag_terms
        return 0.5 * (out + out.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class FitConfig:
    max_iter: int = 300
    rel_tol: float = 1e-6
    seed: int = 0
    psi_mode: str = "scaled-identity"

    def __post_init__(self):
        _check_field_types(self)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.rel_tol > 0:  # also rejects NaN
            raise ValueError("rel_tol must be > 0")
        if self.psi_mode not in PSI_MODES:
            raise ValueError(f"psi_mode must be one of {PSI_MODES}")


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


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def log_likelihood(model: MfaModel, dataset) -> float:
    """Average per-sample log of the mixture density, via log-sum-exp."""
    samples = gaussians._check_observation(_as_samples(dataset), model.dim)[0]
    total = 0.0
    for *_, lse in gaussians.mixture_chunks(gaussians.stack_mixture(model, 0.0), samples):
        total += float(lse.sum())
    return total / samples.shape[0]


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def _resolve_psi(
    per_entry: np.ndarray, masses: np.ndarray, psi_mode: str, floor: float, total: int
) -> np.ndarray:
    """The (K, N) diagonal terms from the residual energies ``per_entry`` (K, N)
    and responsibility masses (K,), floored at ``floor``: their mean over the
    entries of each component, the pooled diagonal shared by all components, or
    each component's own diagonal."""
    if psi_mode == "shared-diagonal":
        pooled = per_entry.sum(axis=0) / total
        return np.tile(np.maximum(pooled, floor), (per_entry.shape[0], 1))
    denom = np.maximum(masses, np.finfo(float).tiny)[:, None]
    if psi_mode == "scaled-identity":
        scale = per_entry.sum(axis=1, keepdims=True) / (per_entry.shape[1] * denom)
        return np.repeat(np.maximum(scale, floor), per_entry.shape[1], axis=1)
    return np.maximum(per_entry / denom, floor)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KmeansStart:
    """The k-means start of a fit (``kmeans_start``): the read-only (T,) cluster
    labels, the state of the seed's generator right after ``_kmeans``, and the
    seed and component count K it was made for."""

    labels: np.ndarray
    rng_state: dict
    seed: int
    n_components: int

    def generator(self) -> np.random.Generator:
        """A generator at the state k-means left. The start's small-cluster
        restarts and EM's collapse restarts draw from it, as in a fit without
        a shared start."""
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.state = self.rng_state
        return rng


def kmeans_start(dataset, n_components: int, seed: int) -> KmeansStart:
    """Run ``_kmeans`` on the samples with the generator of ``seed``. Fits of one
    training set at one (K, seed), fit_em's and fit_gmm's of any L or structure,
    can share the result: each then starts exactly as it would on its own."""
    samples = _as_samples(dataset)
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    if samples.shape[0] < n_components:
        raise ValueError(f"need at least K={n_components} samples, got {samples.shape[0]}")
    rng = np.random.default_rng(seed)
    labels = _kmeans(samples, n_components, rng)
    labels.flags.writeable = False
    return KmeansStart(labels, rng.bit_generator.state, seed, n_components)


def _kmeans(samples: np.ndarray, k_total: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding plus Lloyd iterations on complex vectors; returns labels.

    Squared distances use the expansion |x|^2 - 2 Re(x c^H) + |c|^2 with the
    cross term as one real product over the interleaved real/imaginary parts:
    a GEMV per centre while seeding, and in each Lloyd step a GEMM per row
    chunk of ``_nearest`` (no (T, K) distance array exists). Each Lloyd step
    groups the rows by label with one stable sort, so every centre is the mean
    of its members gathered in ascending order. A cluster left empty is
    reseeded, in order of k, at the farthest sample from its centre whose
    cluster keeps another member; the sample leaves its cluster, whose centre
    keeps it when already updated. So with T >= K no cluster of the returned
    labels is empty. The rows' |x|^2 come from ``gaussians.row_energy``, so
    the samples are the only (T, N) array held.
    """
    samples = np.ascontiguousarray(samples)
    count = samples.shape[0]
    energy = gaussians.row_energy(samples)
    flat = samples.view(np.float64)

    def seed_dist(k: int) -> np.ndarray:
        return np.maximum(_center_dist(flat, energy, centers[k:k + 1])[:, 0], 0.0)

    centers = np.empty((k_total, samples.shape[1]), dtype=np.complex128)
    centers[0] = samples[rng.integers(count)]
    d2 = seed_dist(0)
    for k in range(1, k_total):
        total = d2.sum()
        if total <= 0:
            centers[k] = samples[rng.integers(count)]
            continue
        centers[k] = samples[rng.choice(count, p=d2 / total)]
        d2 = np.minimum(d2, seed_dist(k))

    labels = np.zeros(count, dtype=np.intp)
    # Each sample's distance to the centre it was assigned before any reseed
    # moved it: the reseed rule's input.
    nearest = np.empty(count)
    for _ in range(_KMEANS_ITER):
        new_labels = np.empty(count, dtype=np.intp)
        _nearest(samples, energy, centers, new_labels, nearest)
        order = np.argsort(new_labels, kind="stable")
        bounds = np.searchsorted(new_labels[order], np.arange(k_total + 1))
        # Cluster sizes, kept current through the reseeds.
        sizes = np.diff(bounds)
        for k in range(k_total):
            # The cluster's rows, less any that an earlier reseed took.
            members = order[bounds[k]:bounds[k + 1]]
            members = members[new_labels[members] == k]
            if members.size:
                centers[k] = samples[members].mean(axis=0)
            else:
                far = np.where(sizes[new_labels] > 1, nearest, -np.inf).argmax()
                sizes[new_labels[far]] -= 1
                sizes[k] += 1
                centers[k] = samples[far]
                new_labels[far] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def _nearest(
    rows: np.ndarray, energy: np.ndarray, centers: np.ndarray, labels: np.ndarray,
    nearest: np.ndarray,
) -> None:
    """Write each row's nearest centre to ``labels`` (T,) and its squared
    distance there to ``nearest`` (T,), given the rows' |x|^2 ``energy``, in
    ``gaussians.row_chunks`` chunks, so no (T, K) array and no product the
    height of ``rows`` exists, and the labels are those of the one-shot
    product."""
    # Per row: the rows' contiguous copy and the copy BLAS packs of it, their
    # energy, and the distances.
    row_bytes = 32 * rows.shape[1] + 8 * (1 + centers.shape[0])
    parts = list(gaussians.row_chunks(rows.shape[0], row_bytes))
    dist = np.empty((max(part.stop - part.start for part in parts), centers.shape[0]))
    for part in parts:
        block = np.ascontiguousarray(rows[part])
        dist_part = _center_dist(block.view(np.float64), energy[part], centers, dist[:len(block)])
        dist_part.argmin(axis=1, out=labels[part])
        nearest[part] = np.take_along_axis(dist_part, labels[part, None], axis=1)[:, 0]


def _center_dist(flat: np.ndarray, energy: np.ndarray, centers: np.ndarray, out=None) -> np.ndarray:
    """(T, K) squared distances |x|^2 - 2 Re(x c^H) + |c|^2 from rows x, given as
    their interleaved real view ``flat`` and energies, to the complex centres,
    computed in the one (T, K) array of the cross term: ``out`` when given."""
    # Doubling the centres, not the (T, K) product, is exact in binary floating point.
    dist = np.matmul(flat, 2.0 * centers.view(np.float64).T, out=out)
    np.subtract(energy[:, None], dist, out=dist)
    dist += (np.abs(centers) ** 2).sum(axis=1)
    return dist


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def _em_iteration(
    samples: np.ndarray, model: MfaModel
) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One fused E+M sweep over the data, stacked across components.

    The E-step is the stacked mixture kernel's pass (``gaussians.mixture_chunks``),
    whose latent buffer holds the augmented regressors [q_k; 1], and stays
    dense: every row needs every component's density. The accumulation is
    sparse. ``gaussians.responsibilities`` zeroes the weights below RESP_REL of
    their row's largest, so a row keeps a few of its K components; per chunk,
    ``gaussians.component_rows`` groups the nonzero weights by component, and
    S_xq = sum_t r x [q; 1]^H and S_qq = sum_t r [q; 1][q; 1]^H of each
    component are two small products over its gathered rows. The masses and
    sum_t r |x|^2 are dense products. The statistics are mapped back in one
    batch over the components: the latent regressors are z = [m; 1] = T_k [q; 1]
    with T_k = blockdiag(R_k, 1), so S_xz = S_xq T_k^H and
    S_zz = T_k (S_qq + mass_k diag(I, 0)) T_k^H, the identity block carrying
    the posterior covariance A_k = R_k R_k^H. The residual energies use the
    collapsed identity ``sum_t r E||x - W~ z~||^2 = sum_t r |x|^2 - Re diag(W~ S_xz^H)``,
    which equals the explicit residual form at the regression optimum.

    Returns (average log-likelihood of the incoming parameters, worst-fit
    sample index, responsibility masses (K,), loadings (K, N, L), means (K, N),
    per-entry residual energies (K, N)).
    """
    count, dim = samples.shape
    k_total, latent = model.n_components, model.latent_dim
    width = latent + 1
    stack = gaussians.stack_mixture(model, 0.0)

    s_xq = np.zeros((k_total, dim, width), dtype=np.complex128)
    s_qq = np.zeros((k_total, width, width), dtype=np.complex128)
    r_abs2 = np.zeros((dim, k_total))
    masses = np.zeros(k_total)
    ll_sum = 0.0
    worst_val, worst_idx = np.inf, 0

    for start, block, abs2, aug, resp, lse in gaussians.mixture_chunks(stack, samples):
        ll_sum += float(lse.sum())
        block_min = int(np.argmin(lse))
        if lse[block_min] < worst_val:
            worst_val = float(lse[block_min])
            worst_idx = start + block_min

        for k, rows in gaussians.component_rows(resp):
            regressors = aug[rows, k]
            weighted = regressors.conj()
            weighted *= resp[rows, k][:, None]
            s_xq[k] += block[rows].T @ weighted
            s_qq[k] += regressors.T @ weighted
        r_abs2 += abs2.T @ resp
        masses += resp.sum(axis=0)

    roots = np.zeros((k_total, width, width), dtype=np.complex128)
    roots[:, :latent, :latent] = stack.latent_root
    roots[:, latent, latent] = 1.0
    roots_h = roots.conj().transpose(0, 2, 1)
    s_xz = s_xq @ roots_h
    s_qq[:, :latent, :latent] += masses[:, None, None] * np.eye(latent)
    s_zz = roots @ s_qq @ roots_h
    s_zz = 0.5 * (s_zz + s_zz.conj().transpose(0, 2, 1))
    # Ridge only on the latent block: rank deficiency lives there, and the
    # intercept row must stay exact so the mean update is the weighted mean.
    trace_scale = np.maximum(np.trace(s_zz, axis1=1, axis2=2).real / width, np.finfo(float).tiny)
    s_zz[:, :latent, :latent] += (RIDGE_REL * trace_scale)[:, None, None] * np.eye(latent)
    # A mass that underflows to zero leaves the regression system singular;
    # its regression is zeroed and the caller re-seeds the collapsed component.
    empty = masses == 0.0
    s_zz[empty] = np.eye(width)
    joint = np.linalg.solve(s_zz, s_xz.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    joint[empty] = 0.0
    per_entry = r_abs2.T.copy()
    per_entry -= np.einsum("knj,knj->kn", joint, s_xz.conj()).real
    loadings, means = joint[:, :, :latent], joint[:, :, latent]
    return ll_sum / count, worst_idx, masses, loadings, means, per_entry


class _MfaFamily:
    """fit_em's math in ``fit_mixture``: params (loadings, diag_terms)."""

    model = MfaModel

    def __init__(self, latent: int, psi_mode: str, samples: np.ndarray):
        # L = 0 is the circulant GMM's diagonal Gaussian (baselines.fit_gmm);
        # fit_em rejects it at its boundary.
        if latent > samples.shape[1]:
            raise ValueError("latent dimension must satisfy 1 <= L <= N")
        self.latent, self.psi_mode, self.dim = latent, psi_mode, samples.shape[1]
        self.scale = float(np.mean(np.abs(samples) ** 2))
        self.floor = PSI_FLOOR_REL * self.scale

    def start(self, samples: np.ndarray, labels: np.ndarray, fitted: np.ndarray):
        """Each cluster in ``fitted`` starts at its mean and its L principal
        axes W_k. Its diagonal comes from the residual scatter S_k - W_k W_k^H,
        floored: under scaled-identity the mean of the other N - L eigenvalues
        (the floor when L = N), under diagonal the residual's diagonal (at
        L = 0 the per-entry variance), and under shared-diagonal that diagonal
        pooled entry by entry over all clusters by size. Clusters outside
        ``fitted`` start at the diagonal max(scale, floor)."""
        k_total, dim, latent = fitted.size, self.dim, self.latent
        means = np.empty((k_total, dim), dtype=np.complex128)
        loadings = np.empty((k_total, dim, latent), dtype=np.complex128)
        psis = np.full((k_total, dim), max(self.scale, self.floor))
        for k in np.flatnonzero(fitted):
            cluster = samples[labels == k]
            means[k] = cluster.mean(axis=0)
            centered = cluster - means[k]
            cov = centered.T @ centered.conj() / cluster.shape[0]
            # At L = 0 no axis is taken, and scaled-identity reads only the
            # eigenvalues' mean, which is the diagonal's: trace / N.
            vals = cov.diagonal().real
            if latent:
                vals, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
                vals = np.maximum(vals[::-1], 0.0)
                loadings[k] = vecs[:, ::-1][:, :latent] * np.sqrt(vals[:latent])
            if self.psi_mode == "scaled-identity":
                resid = float(vals[latent:].mean()) if latent < dim else self.floor
            else:
                resid = cov.diagonal().real - (np.abs(loadings[k]) ** 2).sum(axis=1)
            psis[k] = np.maximum(resid, self.floor)
        if self.psi_mode == "shared-diagonal":
            psis[:] = np.maximum(np.bincount(labels, minlength=k_total) @ psis / len(labels), self.floor)
        return means, (loadings, psis)

    def restart(self, rng: np.random.Generator):
        """A random loading at 0.3 sqrt(scale) per entry, and the diagonal
        max(scale, floor) unless it is shared: a restarted component then keeps
        the pooled one."""
        loading = 0.3 * np.sqrt(self.scale) * gaussians._std_cnormal(rng, (self.dim, self.latent))
        if self.psi_mode == "shared-diagonal":
            return (loading,)
        return loading, np.full(self.dim, max(self.scale, self.floor))

    def e_step(self, samples: np.ndarray, model: MfaModel):
        avg, worst, masses, loadings, means, per_entry = _em_iteration(samples, model)
        return avg, worst, masses, (masses, loadings, means, per_entry)

    def m_step(self, samples: np.ndarray, model: MfaModel, stats, live: np.ndarray):
        masses, loadings, means, per_entry = stats
        psis = _resolve_psi(per_entry, masses, self.psi_mode, self.floor, samples.shape[0])
        return means, (loadings, psis)


def fit_em(
    dataset, n_components: int, latent_dim: int, config: FitConfig | None = None, start=None
) -> tuple[MfaModel, FitTrace]:
    """Fit the mixture by EM (``fit_mixture``); deterministic given config.seed.
    ``start``, when given, is ``kmeans_start(dataset, n_components, config.seed)``
    and yields the same fit as none.

    The returned trace holds the average log-likelihood at the start of each
    iteration and is non-decreasing up to floating-point slack, except when
    L = N: the diagonals then sit at the psi floor and an update can lose
    likelihood (up to 7e-6 per iteration on a K=4, N=L=2 fit, confirmed in
    40-digit arithmetic). Iteration stops when the relative change drops below
    ``config.rel_tol`` or after ``config.max_iter`` steps. Components whose
    weight collapses below the floor are re-seeded at the worst-fit sample
    rather than dropped.
    """
    config = config or FitConfig()
    if latent_dim < 1:
        raise ValueError("latent dimension must satisfy 1 <= L <= N")
    family = partial(_MfaFamily, latent_dim, config.psi_mode)
    return fit_mixture(dataset, n_components, config, family, start)


def fit_mixture(dataset, n_components: int, config: FitConfig, family, start=None):
    """The EM fit of fit_em and baselines.fit_gmm; deterministic given config.seed.

    EM runs ``_em_step`` from ``_em_start`` until the average log-likelihood
    changes by at most ``config.rel_tol`` relative to the previous one (keeping
    the model it describes) or for ``config.max_iter`` steps (keeping the last).
    ``family(samples)`` checks its own arguments and returns the family's math,
    with ``params`` the tuple of a model's stacked covariance parameters:
    ``model(weights, means, *params)``; ``start(samples, labels, fitted)`` ->
    (means, params), set for the k-means clusters ``fitted``; ``restart(rng)``
    -> the leading params a restarted component resets, the others keeping
    their values; ``e_step(samples, model)`` -> (average log-likelihood, worst-fit sample,
    masses, stats); ``m_step(samples, model, stats, live)`` -> (means, params),
    set for the ``live`` components. ``start`` is the ``kmeans_start`` of the
    samples at (n_components, config.seed); without one, the fit makes it.
    Returns the model and its ``FitTrace``. Each EM iteration logs one DEBUG
    record: the iteration (from 1), the incoming model's average
    log-likelihood, the seconds it took and the components it reseeded.
    """
    samples = _as_samples(dataset)
    family = family(samples)
    if start is None:
        start = kmeans_start(samples, n_components, config.seed)
    for what, got, want in (
        ("sample count", start.labels.shape[0], samples.shape[0]),
        ("K", start.n_components, n_components),
        ("seed", start.seed, config.seed),
    ):
        if got != want:
            raise ValueError(f"k-means start mismatch: its {what} is {got}, the fit's is {want}")
    rng = start.generator()
    model = _em_start(samples, n_components, family, start.labels, rng)
    trace, seconds, prev = [], [], None
    for iteration in range(1, config.max_iter + 1):
        tick = time.perf_counter()
        avg, updated, reseeded = _em_step(samples, family, rng, model)
        seconds.append(time.perf_counter() - tick)
        trace.append(avg)
        _LOG.debug("EM iteration %d: average log-likelihood %.9g, %.4f s, reseeded %s",
                   iteration, avg, seconds[-1], reseeded)
        if prev is not None and abs(avg - prev) <= config.rel_tol * max(abs(prev), 1e-12):
            return model, FitTrace(trace, seconds, converged=True)
        prev, model = avg, updated
    return model, FitTrace(trace, seconds)


def _em_start(
    samples: np.ndarray, k_total: int, family, labels: np.ndarray, rng: np.random.Generator
):
    """The start of ``fit_mixture`` at weights 1/K: ``family.start`` on the
    k-means clusters ``labels`` of at least two samples, a restart at its
    sample for each cluster of one."""
    sizes = np.bincount(labels, minlength=k_total)
    means, params = family.start(samples, labels, sizes >= 2)
    for k in np.flatnonzero(sizes < 2):
        _restart(family, rng, means, params, k, samples[labels == k][0])
    return family.model(np.full(k_total, 1.0 / k_total), means, *params)


def _em_step(samples: np.ndarray, family, rng: np.random.Generator, model):
    """One EM iteration: the incoming model's average log-likelihood, the
    updated model and the list of components it reseeded. A component with
    less than ``WEIGHT_FLOOR`` of the mass has collapsed and restarts at the
    worst-fit sample, at weight 1/K before renormalization; ``family.m_step``
    updates the others. Weights are floored."""
    avg, worst, masses, stats = family.e_step(samples, model)
    weights = masses / samples.shape[0]
    collapsed = weights < WEIGHT_FLOOR
    weights[collapsed] = 1.0 / weights.size
    weights = np.maximum(weights, WEIGHT_FLOOR)
    means, params = family.m_step(samples, model, stats, ~collapsed)
    reseeded = np.flatnonzero(collapsed).tolist()
    for k in reseeded:
        _restart(family, rng, means, params, k, samples[worst])
    return avg, family.model(weights / weights.sum(), means, *params), reseeded


def _restart(family, rng: np.random.Generator, means, params, k: int, mean) -> None:
    """Start component k afresh at ``mean`` with ``family.restart`` parameters."""
    means[k] = mean
    for array, value in zip(params, family.restart(rng)):
        array[k] = value


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------


PARAM_KINDS = ("mfa", "gmm-full", "gmm-toep", "gmm-circ")


def parameter_count(kind: str, n_components: int, dim: int, latent_dim: int = 0) -> int:
    """Stored-parameter count of each model family.

    mfa: K(LN + N + 2) for 1 <= L <= N; gmm-full: K(N^2/2 + 2N + 1) with
    N^2/2 rounded up for odd N; gmm-toep: K(5N + 1); gmm-circ: K(2N + 1). The
    mfa count assumes a per-component scaled-identity diagonal (one scale plus
    one weight per component); counts treat a complex entry and a real scalar
    alike.
    """
    if kind not in PARAM_KINDS:
        raise ValueError(f"kind must be one of {PARAM_KINDS}")
    if n_components < 1 or dim < 1:
        raise ValueError("n_components and dim must be positive")
    if kind == "mfa":
        if not 1 <= latent_dim <= dim:
            raise ValueError("latent dimension must satisfy 1 <= L <= N")
        return n_components * (latent_dim * dim + dim + 2)
    if kind == "gmm-full":
        return n_components * (-(-dim * dim // 2) + 2 * dim + 1)
    if kind == "gmm-toep":
        return n_components * (5 * dim + 1)
    return n_components * (2 * dim + 1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_MODEL_HEADER = [("version", "<u4"), ("dim", "<u4"), ("latent", "<u4"), ("count", "<u4")]


def _model_records(dim: int, latent: int) -> list:
    """One MFA1 component record; the loading is stored column-major."""
    return [
        ("weight", "<f8", ()),
        ("mean", "<c16", (dim,)),
        ("loading", "<c16", (latent, dim)),
        ("diag_term", "<f8", (dim,)),
    ]


def save_model(model: MfaModel, path) -> None:
    """Write the MFA1 container (little-endian; loadings stored column-major)."""
    write_container(
        path, MODEL_MAGIC, _MODEL_HEADER,
        (MODEL_VERSION, model.dim, model.latent_dim, model.n_components),
        _model_records(model.dim, model.latent_dim),
        model.weights, model.means, model.loadings.transpose(0, 2, 1), model.diag_terms,
    )


def load_model(path) -> MfaModel:
    with open(path, "rb") as fh:
        reader = Container(fh, MODEL_MAGIC, _MODEL_HEADER, MODEL_VERSION, "model")
        _, dim, latent, k_total = reader.header
        rec = reader.body(_model_records(dim, latent), k_total, "components")
    return MfaModel(rec["weight"], rec["mean"], rec["loading"].transpose(0, 2, 1), rec["diag_term"])
