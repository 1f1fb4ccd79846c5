"""Random models, hypothesis strategies and dense references shared by the tests.

Every density is circularly-symmetric complex Gaussian. For component k of a
mixture, w_k is its weight, mu_k its mean and C_k its covariance: an MFA's
C_k = W_k W_k^H + diag(psi_k), a GMM's C_k as ``GmmModel.dense_covariances``
materializes it. The oracles:

- ``crandn``: z = (a + i b) / sqrt(2) with a, b standard normal, so E|z|^2 = 1.
- ``make_model``: weights w_k ~ U[0.5, 1.5] normalized, then per component
  mu_k = sep * crandn(N) (zero, and not drawn, when ``zero_mean``) and
  W_k = crandn(N, L), with psi_k = psi everywhere.
- ``single``: the one-component MFA with w = 1, loading W, diagonal psi and
  mean mu (zero by default).
- ``sample_component``: draws mu_k + W_k z + u from component k of an MFA,
  z = ``crandn`` (L,) first, then u = ``crandn`` (N,) sqrt(psi_k).
- ``sample``: a ``ChannelDataset`` of draws from an MFA: one categorical pick
  of k per draw (``rng.choice`` with p = w), then the picks of each k, in
  ascending k, from ``sample_component``.
- ``dense_cov``: W_k W_k^H + diag(psi_k + sigma2), formed from the factors.
- ``dense_logdens``: with S_k = C_k + sigma2 I = G_k G_k^H (lower Cholesky,
  C_k from ``dense_covariances()``), l_bk = log w_k - N log pi - log det S_k
  - |G_k^{-1} (y_b - mu_k)|^2. The Cholesky factorization fails loudly when
  S_k is not positive definite.
- ``posterior``: with m_b = max_k l_bk, the responsibilities
  r_bk = exp(l_bk - m_b) / sum_j exp(l_bj - m_b) and the log-sum-exp
  log(sum_j exp(l_bj - m_b)) + m_b, in the order of operations that
  ``gaussians.responsibilities`` uses for its log-sum-exp.
- ``responsibilities_reference``: ``gaussians.responsibilities`` with every
  shifted entry exponentiated as it is, subnormal, zero and exp(-inf) results
  included, then floored at RESP_REL and divided by the row sums.
- ``component_rows_reference``: the nonzero (row, component) pairs of a
  (B, K) array from one ``nonzero`` over its transpose, grouped by component
  with ``searchsorted``.
- ``dense_conditional_mean``: the exact MMSE estimate under the mixture prior
  with noise variance sigma2, E[h | y] = sum_k r_bk h_bk, with r from
  ``dense_logdens`` at sigma2 and the per-component LMMSE estimates
  h_bk = mu_k + C_k S_k^{-1} (y_b - mu_k) = y_b - sigma2 S_k^{-1} (y_b - mu_k),
  by dense solves.
- ``em_regression``: the MFA M-step regression of x on z = [latent; 1], as
  ``mfa._em_iteration`` solves it. S_zz + ridge, with the ridge
  RIDGE_REL tr(S_zz) / (L + 1) on the latent block of the Hermitian part,
  gives [W_k mu_k] = S_xz S_zz^{-1} and the residual energies
  sum_t r |x|^2 - Re diag([W_k mu_k] S_xz^H).
- ``kmeans_reference``: k-means++ seeding, then Lloyd steps that update each
  centre from a boolean mask of its members, one cluster after another. A
  cluster left empty is reseeded at the farthest sample (by distance to its
  own centre) whose cluster, counted afresh, keeps another member, and the
  sample moves to it. Distances are either the expansion over the interleaved real
  view that ``mfa._kmeans`` computes, in its order of operations, or the
  elementwise |x - c|^2 while seeding and the complex cross product in Lloyd.
- ``start_reference``: the k-means start of a ``diagonal`` or
  ``shared-diagonal`` MFA fit, cluster by cluster: the mean, the scatter
  S = (1/n) sum (x - mean)^H (x - mean) in column form, its eigenpairs by a
  dense ``eigh`` in descending order, the loading products W W^H of the L
  leading pairs and the residual diagonal, the sum of lambda_j |u_j|^2 over the
  other pairs. At L = 0 that is the per-entry variance of the cluster.
- ``with_intercept``: the rows [y 1] that ``gaussians.mixture_logdens`` takes.
- ``kernel_responsibilities``: not dense; the responsibilities that
  ``gaussians.mixture_chunks`` yields, which ``estimate`` weights its filters
  with.
- ``dense_gmm_pass``: the full and Toeplitz pass without pruning, every
  log-density from one product [y 1] W by the whole ``baselines._gmm_factor``
  whitener W, then ``gaussians.responsibilities``; with the scale of each
  log-density's rounding, sum_j (sum_i |x_i| |W_ij|)^2.
- ``genie_omp_full_depth``: genie-aided OMP that runs every row to the full
  depth, or to the stopping rule of ``genie_omp_batch``, with the same
  classical Gram-Schmidt basis, and keeps the first prefix closest to the truth.
- ``steering_batch``: URA steering vectors as explicit Kronecker products of
  exact exps, exp(j m phi_v) for the vertical and exp(j n phi_h) for the
  horizontal response, entry (m, n) at index m nh + n.
- ``kronecker_channels``: ``scenario.generate_channels`` with every path's
  atom from ``steering_batch``, all (T, P, N) atoms at once and one einsum
  over the paths; the same draws in the same order.

And one measurement: ``traced_peak``, the most memory a call held at once
beyond what was held before it, as ``tracemalloc`` counts numpy's buffers.
"""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from mfachest import mfa
from mfachest.baselines import GmmModel
from mfachest.gaussians import RESP_REL, mixture_chunks, responsibilities, stack_mixture
from mfachest.mfa import PSI_MODES, RIDGE_REL, FitConfig, MfaModel
from mfachest.scenario import ChannelDataset, ScenarioConfig, cluster_centers


def normalize_dataset(dataset):
    """A copy of the dataset with all samples rescaled by one factor, so the
    empirical mean of ||h||^2 equals N: what ``generate_channels`` does to its
    draws in place."""
    factor = np.sqrt(1.0 / float(np.mean(np.abs(dataset.samples) ** 2)))
    return ChannelDataset(dataset.samples * factor, normalization=dataset.normalization * factor)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def make_model(rng, k_total, dim, latent, sep=4.0, psi=0.3, zero_mean=False):
    weights = rng.uniform(0.5, 1.5, k_total)
    weights /= weights.sum()
    means = np.zeros((k_total, dim), complex)
    loadings = np.empty((k_total, dim, latent), complex)
    for k in range(k_total):
        if not zero_mean:
            means[k] = sep * crandn(rng, dim)
        loadings[k] = crandn(rng, dim, latent)
    return MfaModel(weights, means, loadings, np.full((k_total, dim), psi))


def single(loading, diag_term, mean=None):
    """A one-component MFA with weight 1 and, by default, zero mean."""
    loading = np.asarray(loading, dtype=complex)
    mean = np.zeros(loading.shape[0], complex) if mean is None else np.asarray(mean)
    return MfaModel(np.ones(1), mean[None], loading[None], np.asarray(diag_term, float)[None])


def sample_component(model, k, rng, size=None):
    """Draw mean + loading @ z + u from component k of an MfaModel, with z
    standard complex normal and u ~ N_C(0, diag): z first, then u. With
    ``size=None`` one (N,) vector, otherwise a (size, N) array."""
    n_draws = 1 if size is None else int(size)
    z = crandn(rng, n_draws, model.latent_dim)
    u = crandn(rng, n_draws, model.dim) * np.sqrt(model.diag_terms[k])
    out = model.means[k] + z @ model.loadings[k].T + u
    return out[0] if size is None else out


def sample(model, count, rng):
    """``count`` draws from an MfaModel as a ChannelDataset: a categorical
    component pick per draw, then each component's draws in ascending k."""
    picks = rng.choice(model.n_components, size=count, p=model.weights)
    out = np.empty((count, model.dim), dtype=np.complex128)
    for k in range(model.n_components):
        mask = picks == k
        n_k = int(mask.sum())
        if n_k:
            out[mask] = sample_component(model, k, rng, size=n_k)
    return ChannelDataset(out)


def dense_cov(model, k, sigma2=0.0):
    """C_k + sigma2 I of MFA component k, formed from its factors, (N, N)."""
    w = model.loadings[k]
    return w @ w.conj().T + np.diag(model.diag_terms[k] + sigma2)


def dense_logdens(model, sigma2, y):
    """log w_k + log N_C(y; mu_k, C_k + sigma2 I) by dense Cholesky, (B, K), for an
    MfaModel or a GmmModel."""
    out = np.empty((y.shape[0], model.n_components))
    shift = sigma2 * np.eye(model.dim)
    for k, cov in enumerate(model.dense_covariances()):
        chol = np.linalg.cholesky(cov + shift)
        half = np.linalg.solve(chol, (y - model.means[k]).T)
        out[:, k] = (
            np.log(model.weights[k])
            - model.dim * np.log(np.pi)
            - 2.0 * np.log(chol.diagonal().real).sum()
            - (np.abs(half) ** 2).sum(axis=0)
        )
    return out


def posterior(logdens):
    """The responsibilities (B, K) and the per-row log-sum-exp (B,) of (B, K)
    log-densities, shifted by the row max."""
    shift = logdens.max(axis=1, keepdims=True)
    scaled = np.exp(logdens - shift)
    total = scaled.sum(axis=1)
    return scaled / total[:, None], np.log(total) + shift[:, 0]


def dense_conditional_mean(model, sigma2, y):
    """The conditional mean of an MfaModel or a GmmModel at noise variance sigma2,
    with the responsibilities and the per-component LMMSE estimates it weights:
    (N,), (K,) and (K, N) for y (N,); (B, N), (B, K) and (K, B, N) for y (B, N)."""
    batch = np.atleast_2d(np.asarray(y, dtype=complex))
    resp, _ = posterior(dense_logdens(model, sigma2, batch))
    shift = sigma2 * np.eye(model.dim)
    parts = np.stack([
        batch - sigma2 * np.linalg.solve(cov + shift, (batch - mean).T).T
        for mean, cov in zip(model.means, model.dense_covariances())
    ])
    value = np.einsum("kbn,bk->bn", parts, resp)
    return (value[0], resp[0], parts[:, 0]) if np.ndim(y) == 1 else (value, resp, parts)


def responsibilities_reference(logdens):
    """``gaussians.responsibilities`` without its exponent clamp: every shifted
    entry goes through exp as it is."""
    shift = np.max(logdens, axis=1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    resp = logdens - shift
    np.exp(resp, out=resp)
    total = resp.sum(axis=1, keepdims=True)
    resp[resp < RESP_REL] = 0.0
    resp /= total
    return resp, (np.log(total) + shift)[:, 0]


def component_rows_reference(weights):
    """(k, rows) pairs as ``gaussians.component_rows`` yields them, from one
    ``nonzero`` over the transpose and one ``searchsorted``."""
    comps, rows = np.nonzero(weights.T)
    bounds = np.searchsorted(comps, np.arange(weights.shape[1] + 1))
    return [(int(k), rows[bounds[k]:bounds[k + 1]]) for k in np.flatnonzero(np.diff(bounds))]


def em_regression(s_xz, s_zz, masses, r_abs2):
    """The regression of x on z = [latent; 1] per component, from the weighted
    statistics S_xz (K, N, L + 1), S_zz (K, L + 1, L + 1) (posterior covariances
    included), the masses (K,) and the weighted energies sum_t r |x|^2 (K, N).

    S_zz is made Hermitian and its latent block gets the ridge RIDGE_REL * tr/(L + 1);
    the joint [W_k mu_k] = S_xz S_zz^{-1} (zero for a component of zero mass),
    and the residual energies are r_abs2 - Re diag(joint S_xz^H). Returns the
    loadings (K, N, L), the means (K, N) and the residual energies (K, N)."""
    width = s_zz.shape[1]
    latent = width - 1
    s_zz = 0.5 * (s_zz + s_zz.conj().transpose(0, 2, 1))
    trace_scale = np.maximum(np.trace(s_zz, axis1=1, axis2=2).real / width, np.finfo(float).tiny)
    s_zz[:, :latent, :latent] += (RIDGE_REL * trace_scale)[:, None, None] * np.eye(latent)
    empty = masses == 0.0
    s_zz[empty] = np.eye(width)
    joint = np.linalg.solve(s_zz, s_xz.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    joint[empty] = 0.0
    per_entry = r_abs2 - np.einsum("knj,knj->kn", joint, s_xz.conj()).real
    return joint[:, :, :latent], joint[:, :, latent], per_entry


def kmeans_reference(samples, k_total, rng, subsample, elementwise=False):
    """The (T,) k-means labels of ``samples`` with ``rng`` drawn as ``mfa._kmeans``
    draws it: Lloyd on ``max(subsample, 10 K)`` rows drawn without replacement
    when T is larger, then a final assignment of every sample. With
    ``elementwise`` the distances are |x - c|^2 entry by entry while seeding and
    |x|^2 - 2 Re(x c^H) + |c|^2 with a complex cross product in Lloyd; otherwise
    the same expansion with the cross product over the interleaved real view."""

    def dist(rows, centres):
        energy = (np.abs(rows) ** 2).sum(axis=1)
        if elementwise:
            cross = (rows @ centres.conj().T).real
        else:
            cross = np.ascontiguousarray(rows).view(np.float64) @ centres.view(np.float64).T
        return energy[:, None] - 2.0 * cross + (np.abs(centres) ** 2).sum(axis=1)

    def seed_dist(centre):
        if elementwise:
            return (np.abs(work - centre) ** 2).sum(axis=1)
        return np.maximum(dist(work, centre[None])[:, 0], 0.0)

    count = samples.shape[0]
    budget = max(subsample, 10 * k_total)
    work = samples[rng.choice(count, size=budget, replace=False)] if count > budget else samples
    n_work = work.shape[0]
    centers = np.empty((k_total, samples.shape[1]), dtype=np.complex128)
    centers[0] = work[rng.integers(n_work)]
    d2 = seed_dist(centers[0])
    for k in range(1, k_total):
        total = d2.sum()
        if total <= 0:
            centers[k] = work[rng.integers(n_work)]
            continue
        centers[k] = work[rng.choice(n_work, p=d2 / total)]
        d2 = np.minimum(d2, seed_dist(centers[k]))

    labels = np.zeros(n_work, dtype=np.intp)
    for _ in range(mfa._KMEANS_ITER):
        distances = dist(work, centers)
        new_labels = distances.argmin(axis=1)
        nearest = distances[np.arange(n_work), new_labels]
        for k in range(k_total):
            mask = new_labels == k
            if mask.any():
                centers[k] = work[mask].mean(axis=0)
            else:
                donors = np.flatnonzero(np.bincount(new_labels, minlength=k_total)[new_labels] > 1)
                far = donors[np.argmax(nearest[donors])]
                centers[k] = work[far]
                new_labels[far] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels if work is samples else dist(samples, centers).argmin(axis=1)


def start_reference(samples, labels, k_total, latent, psi_mode):
    """The means (K, N), loading products W_k W_k^H (K, N, N) and diagonals
    (K, N) that the start of an MFA fit under ``psi_mode`` (``diagonal`` or
    ``shared-diagonal``) gives the clusters of ``labels`` with at least two
    samples; the others keep zeros and the diagonal max(scale, floor), scale
    the mean energy per entry of the samples and floor PSI_FLOOR_REL times
    scale. Each residual diagonal is floored; shared-diagonal then averages
    all K diagonals weighted by cluster size, entry by entry, and floors that."""
    scale = float(np.mean(np.abs(samples) ** 2))
    floor = mfa.PSI_FLOOR_REL * scale
    dim = samples.shape[1]
    means = np.zeros((k_total, dim), complex)
    products = np.zeros((k_total, dim, dim), complex)
    diagonals = np.full((k_total, dim), max(scale, floor))
    sizes = np.bincount(labels, minlength=k_total)
    for k in np.flatnonzero(sizes >= 2):
        cluster = samples[labels == k]
        means[k] = cluster.mean(axis=0)
        centred = cluster - means[k]
        vals, vecs = np.linalg.eigh(centred.T @ centred.conj() / len(cluster))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        lead = vecs[:, :latent] * np.sqrt(np.maximum(vals[:latent], 0.0))
        products[k] = lead @ lead.conj().T
        diagonals[k] = np.maximum((np.abs(vecs[:, latent:]) ** 2) @ vals[latent:], floor)
    if psi_mode == "shared-diagonal":
        diagonals[:] = np.maximum(sizes @ diagonals / sizes.sum(), floor)
    return means, products, diagonals


def with_intercept(y):
    """The (B, N + 1) rows [y 1] of (B, N) observations y."""
    return np.concatenate([y, np.ones((y.shape[0], 1), dtype=np.complex128)], axis=1)


def kernel_responsibilities(model, sigma2, y):
    """The responsibilities ``estimate`` weights its filters with: the ``resp``
    that ``gaussians.mixture_chunks`` yields, (K,) for y (N,) and (B, K) for y (B, N)."""
    batch = np.atleast_2d(np.asarray(y, dtype=complex))
    chunks = mixture_chunks(stack_mixture(model, sigma2), batch)
    resp = np.concatenate([resp for *_, resp, _ in chunks])
    return resp[0] if np.ndim(y) == 1 else resp


def dense_gmm_pass(model, factor, rows):
    """The log-densities (B, K) of a full or Toeplitz model over rows (B, N),
    every one computed, with ``factor`` its ``baselines._gmm_factor``, their
    responsibilities (B, K) and per-row log-sum-exp (B,), and the scale of
    each log-density's rounding (B, K): sum_j (sum_i |x_i| |W_ij|)^2 over
    component k's columns j of the whitener W, with x = [y 1]. A quadratic form
    |x W_k|^2 computed in any order differs from the exact value by at most
    about 2 (N + 1) eps times it. Overflowing forms are -inf log-densities."""
    whitener, logconst = factor
    rows1 = with_intercept(rows)
    shape = (len(rows), model.n_components, model.dim)
    with np.errstate(over="ignore"):
        flat = (rows1 @ whitener).reshape(shape).view(np.float64)
        logdens = logconst - np.einsum("bkl,bkl->bk", flat, flat)
        scale = ((np.abs(rows1) @ np.abs(whitener)).reshape(shape) ** 2).sum(axis=2)
    return logdens, *responsibilities(logdens), scale


def genie_omp_full_depth(obs, atoms, tru, depth):
    """Genie-aided OMP estimates (B, N) of obs (B, N) with truths tru (B, N)
    over the unit-norm atoms (N, M), each row run to ``depth`` steps unless the
    stopping rule of ``genie_omp_batch`` freezes it first."""
    batch, dim = obs.shape
    rows = np.arange(batch)
    atoms_conj = atoms.conj()
    atom_rows = np.ascontiguousarray(atoms.T)
    selected = np.zeros((batch, depth), dtype=np.intp)
    basis = np.zeros((batch, depth, dim), dtype=np.complex128)
    est = np.zeros_like(obs)
    residual = obs.copy()
    best = np.zeros_like(obs)
    best_err = np.einsum("bn,bn->b", tru.conj(), tru).real
    tol = 1e-12 * np.maximum(np.sqrt(np.einsum("bn,bn->b", obs.conj(), obs).real), 1.0)
    growing = np.ones(batch, dtype=bool)
    for step in range(depth):
        corr = np.abs(residual @ atoms_conj)
        if step:
            np.put_along_axis(corr, selected[:, :step], -1.0, axis=1)
        picks = corr.argmax(axis=1)
        growing &= corr[rows, picks] > tol
        selected[:, step] = picks
        q = atom_rows[picks]
        prev = basis[:, :step]
        for _ in range(2):
            coef = (prev @ q.conj()[:, :, None]).conj()
            q -= (coef.transpose(0, 2, 1) @ prev)[:, 0]
        norm = np.sqrt(np.einsum("bn,bn->b", q.conj(), q).real)
        growing &= norm > 1e-10
        if not growing.any():
            break
        scale = np.zeros(batch)
        scale[growing] = 1.0 / norm[growing]
        q *= scale[:, None]
        basis[:, step] = q
        est += np.einsum("bn,bn->b", q.conj(), obs)[:, None] * q
        np.subtract(obs, est, out=residual)
        diff = est - tru
        err = np.einsum("bn,bn->b", diff.conj(), diff).real
        better = err < best_err
        best[better] = est[better]
        best_err[better] = err[better]
    return best


def steering_batch(az, el, config):
    """Steering vectors for paired angle arrays of shape (n,), as (n, N) rows.

    Each row is the Kronecker product of a vertical uniform-linear response
    (phase along sin(el)) and a horizontal one (along sin(az) cos(el)), the
    atom layout of ``baselines.build_dft_dictionary``; its entries have unit
    modulus, and broadside (0, 0) gives all ones.
    """
    phase_v = 2.0 * np.pi * config.spacing_v * np.sin(el)
    phase_h = 2.0 * np.pi * config.spacing_h * np.sin(az) * np.cos(el)
    vert = np.exp(1j * np.outer(phase_v, np.arange(config.nv)))
    horiz = np.exp(1j * np.outer(phase_h, np.arange(config.nh)))
    return (vert[:, :, None] * horiz[:, None, :]).reshape(az.shape[0], config.dim)


def kronecker_channels(config, count, rng):
    """``count`` normalized channels from the draws of ``generate_channels``,
    each a gain-weighted sum of ``steering_batch`` atoms."""
    az_c, el_c = cluster_centers(config)
    spread = np.deg2rad(config.angle_spread_deg)
    paths = config.paths_per_cluster

    idx = rng.integers(0, config.num_clusters, size=count)
    off_az = rng.laplace(0.0, spread, size=(count, paths)) if spread > 0 else np.zeros((count, paths))
    off_el = rng.laplace(0.0, spread, size=(count, paths)) if spread > 0 else np.zeros((count, paths))
    gains = (rng.standard_normal((count, paths)) + 1j * rng.standard_normal((count, paths)))
    gains /= np.sqrt(2.0 * paths)

    az = az_c[idx][:, None] + off_az
    el = el_c[idx][:, None] + off_el

    atoms = steering_batch(az.ravel(), el.ravel(), config).reshape(count, paths, config.dim)
    return normalize_dataset(ChannelDataset(np.einsum("bp,bpn->bn", gains, atoms)))


@st.composite
def models(draw):
    """A random MFA with K in [1, 4], N in [1, 8], L in [1, N], plus a generator."""
    k_total = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 8))
    latent = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.2, 1.0, k_total)
    weights /= weights.sum()
    means = np.empty((k_total, dim), complex)
    loadings = np.empty((k_total, dim, latent), complex)
    diag_terms = np.empty((k_total, dim))
    for k in range(k_total):
        means[k] = rng.uniform(0.0, 3.0) * crandn(rng, dim)
        loadings[k] = crandn(rng, dim, latent)
        diag_terms[k] = rng.uniform(0.05, 2.0, dim)
    return MfaModel(weights, means, loadings, diag_terms), rng


def observations(model, rng, count=25):
    """``count`` rows, each a random component mean plus crandn noise at one
    random scale in [0.1, 3]."""
    picks = rng.integers(model.n_components, size=count)
    return model.means[picks] + rng.uniform(0.1, 3.0) * crandn(rng, count, model.dim)


@st.composite
def gmm_models(draw):
    """A full, Toeplitz or circulant GmmModel with K in [1, 3] and N in [1, 8], a
    generator, and a noise variance sigma2 in {0} or (0, 10]. Full models may hold
    one rank-deficient covariance; sigma2 is then at least 0.01."""
    structure = draw(st.sampled_from(["full", "circulant", "toeplitz"]))
    k_total = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.2, 1.0, k_total)
    means = rng.uniform(0.0, 3.0) * crandn(rng, k_total, dim)
    singular = structure == "full" and draw(st.booleans())
    if structure == "full":
        roots = crandn(rng, k_total, dim, dim)
        if singular:
            roots[0, :, draw(st.integers(0, dim - 1)):] = 0.0
        covs = roots @ roots.conj().transpose(0, 2, 1) / dim
        covs[int(singular):] += 0.05 * np.eye(dim)
        model = GmmModel(structure, weights / weights.sum(), means, covs)
    else:
        bins = 2 * dim if structure == "toeplitz" else dim
        spectra = rng.uniform(0.05, 2.0, (k_total, bins))
        model = GmmModel(structure, weights / weights.sum(), means, spectra)
    positive = st.floats(0.01 if singular else 0.0, 10.0, exclude_min=True)
    sigma2 = draw(positive if singular else st.one_of(st.just(0.0), positive))
    return model, rng, sigma2, singular


@st.composite
def em_problems(draw):
    """Samples from a random MFA with K in [1, 4], N in [2, 6] and L in [1, N - 1],
    T in [8K, 48], plus a fit configuration for the same K and L.

    L = N is left out: the diagonal then sits at the psi floor, the latent
    systems reach condition numbers near |W|^2 / floor, and the updates are no
    longer exact enough for a monotone trace (a K=4, N=L=2 fit lost up to 7e-6
    per iteration, confirmed in 40-digit arithmetic)."""
    k_total, dim = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    latent = draw(st.integers(1, dim - 1))
    count = draw(st.integers(8 * k_total, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    true = make_model(rng, k_total, dim, latent, sep=draw(st.floats(0.0, 4.0)), psi=0.2)
    config = FitConfig(
        max_iter=8,
        rel_tol=1e-12,
        seed=draw(st.integers(0, 2**16)),
        psi_mode=draw(st.sampled_from(PSI_MODES)),
    )
    return sample(true, count, rng).samples, k_total, latent, config


@st.composite
def scenarios(draw):
    """A ScenarioConfig with nv, nh in 1..8 or the paper's 4x16, 1..12 paths,
    a zero or positive angle spread and random spacings, plus a sample count
    and a chunk budget of 1..4 samples' phasor blocks (so counts cross chunks)."""
    nv, nh = draw(st.one_of(st.just((4, 16)), st.tuples(st.integers(1, 8), st.integers(1, 8))))
    paths = draw(st.integers(1, 12))
    config = ScenarioConfig(
        nv=nv,
        nh=nh,
        spacing_v=draw(st.floats(0.1, 2.0)),
        spacing_h=draw(st.floats(0.1, 2.0)),
        num_clusters=draw(st.integers(1, 6)),
        paths_per_cluster=paths,
        angle_spread_deg=draw(st.one_of(st.just(0.0), st.floats(0.01, 30.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    budget = draw(st.integers(1, 4)) * paths * (nv + nh)
    return config, draw(st.integers(1, 20)), budget, draw(st.integers(0, 2**32 - 1))


def collapsing_data():
    """120 standard complex normal rows (N=6) and 3 rows at 60x scale: a full
    GMM fit at K=5 collapses a component onto an outlier."""
    rng = np.random.default_rng(0)
    return np.concatenate([crandn(rng, 120, 6), 60.0 * crandn(rng, 3, 6)])


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes it held at once beyond those
    traced before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
