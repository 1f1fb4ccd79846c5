"""Complex-Gaussian numerics over low-rank-plus-diagonal covariances.

A mixture (``mfa.MfaModel``) holds its K covariances stacked in factored form,
``C_k = loadings[k] @ loadings[k]^H + diag(diag_terms[k])``, and every routine
works through the small latent-dimension systems instead of a dense N x N
factorization: the inverse follows the Woodbury identity, the log-determinant
the matrix determinant lemma, and densities never leave the log domain. The
stacked arrays are factored once per noise level into a ``MixtureStack``, with
one batched Cholesky and inverse of the K latent L x L systems
(``factorize``), and ``mixture_logdens`` evaluates every component on a batch
of rows with a few stacked matrix products. EM, the likelihood and the MMSE
estimator all run through one chunked pass of that kernel (``mixture_chunks``)
and keep only their own accumulations. So does the circulant GMM of
``baselines``, whose fit and estimate are the MFA's at L = 0 on the unitary
DFT rows, where a circulant covariance is diagonal. The kernel works in
whitened latent coordinates q_k = R_k^H W_k^H D_k (y - mu_k), with R_k R_k^H
the latent posterior covariance, so the low-rank correction is the squared
norm |q_k|^2 and the posterior mean is R_k q_k. One product of the rows [y 1] with the
stacked augmented projection writes [q_k 1] for every component straight
into the pass's latent buffer: the centring and EM's intercept column come
out of that product, not out of a copy. At L = 0 that buffer is the constant
1, and the pass holds no [y 1] rows at all.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

LOG_PI = float(np.log(np.pi))

# Condition-number guard for the latent-dimension system; estimated from the
# Cholesky diagonal, which is exact for diagonal matrices and a lower bound
# otherwise.
COND_LIMIT = 1e12

# A diagonal entry or spectrum bin at or below this has no finite inverse
# (1 / max float itself rounds down, so its inverse overflows too).
_UNINVERTIBLE = 1.0 / np.finfo(float).max

# Bytes per chunk of the passes that ``row_chunks`` splits, each counting every
# array it holds per row. _CHUNK_BYTES sizes the passes that reduce over a
# chunk: the mixture kernel, the GMM pass, k-means, the full GMM M-step, the
# sample covariance and genie-OMP. Smaller chunks cost time (2 cores): at K=64,
# N=64, L=8 an EM sweep on 20k rows took 228, 184, 161 and 147 ms with the
# kernel's (B, K*(L+1)) and (B, N) complex temporaries at 2^17..2^20 entries,
# and estimate() on 10k rows 96, 90, 88 and 90 ms; at half its budget the GMM
# bound pass made the three E-steps of a K=16 fit on 10k rows 14 ms (full) and
# 20 ms (Toeplitz) slower. Larger ones cost memory: estimate()'s transient peak
# was 13 MB beside its 10 MB output at 2^19 entries, 24 MB at 2^20. _FILL_BYTES
# sizes the passes that fill an output or copy an input already held whole:
# the generator's samples, the Toeplitz powers, the |x|^2 row sums
# (``row_energy``) and the body records of ``_binio.write_container``. There
# chunk size bought no speed: on the 4x16 URA (2-core Xeon, 2 MB L2 per core)
# generation times were flat from 2^15 to 2^18 complex entries. At 8 MiB those
# passes broke two memory guards: 20k channels peaked at 40.5 MB against 1.6
# times their 20.5 MB, and the Toeplitz family at 10.25 MB against the 10.24 MB
# of the complex transform it must not hold.
_CHUNK_BYTES = 8 << 20
_FILL_BYTES = 1 << 20

# Responsibilities below RESP_REL times their row's largest are set to exactly
# 0. The largest is at least 1/K, so every kept weight is at least RESP_REL / K,
# far above the subnormal range whose operands take BLAS's slow path, and every
# dropped term is below the rounding of its row's largest term. Most rows keep a
# handful of components, so the EM accumulations run over the nonzero entries
# only (``component_rows``).
RESP_REL = 1e-16

# An L = 0 density whose expansion terms |y|^2 D_k + |mu_k|^2 D_k exceed its
# quadratic form by more than this factor is recomputed in the direct form; at
# or below it the expansion's rounding is within a few hundred ulps of the form.
_EXPANSION_GAIN = 64.0

# The smallest shifted log-density ``responsibilities`` exponentiates: exp(-708)
# is a normal number (about 3.3e-308), far below RESP_REL.
_EXP_MIN = -708.0


class ConditioningError(ArithmeticError):
    """A covariance system is numerically singular: a low-rank component whose
    diagonal has no finite inverse, whose latent L x L system is not finite or
    is beyond the condition limit, or whose stacked factors are not finite, a
    circulant spectrum plus sigma2 with a bin at or below its largest bin /
    COND_LIMIT (a zero or a subnormal bin, say), a full/Toeplitz C + sigma2 I
    that is not positive definite, or a full/Toeplitz estimate that is not
    finite."""


def _check_sigma2(sigma2: float) -> float:
    sigma2 = float(sigma2)
    if not np.isfinite(sigma2) or sigma2 < 0.0:
        raise ValueError("sigma2 must be finite and >= 0")
    return sigma2


def _check_observation(
    y: np.ndarray, dim: int, name: str = "observation"
) -> tuple[np.ndarray, bool]:
    """Observations (N,) or (B, N) as a finite complex (B, N) batch, and whether
    a single vector was given. Error messages call the rows ``name``."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim not in (1, 2):
        raise ValueError(f"{name}s must be (N,) or (B, N), got shape {y.shape}")
    batch = np.atleast_2d(y)
    if batch.shape[1] != dim:
        raise ValueError(f"{name} dimension {batch.shape[1]} != model dimension {dim}")
    if not np.all(np.isfinite(batch)):
        raise ValueError(f"{name} contains non-finite entries")
    return batch, y.ndim == 1


def check_mixture(weights, means, k_total: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights (K,) and means (K, N) of a mixture of ``k_total`` components, as
    contiguous float and complex arrays. ``k_total`` is the component count of
    the model's stacked covariance parameters. Raises ValueError unless K >= 1,
    the shapes agree with K, the means are finite and the weights are finite,
    lie in (0, 1] and sum to 1."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    means = np.ascontiguousarray(means, dtype=np.complex128)
    if k_total == 0:
        raise ValueError("model needs at least one component")
    if weights.shape != (k_total,) or means.ndim != 2 or means.shape[0] != k_total:
        raise ValueError(f"weights (K,) and means (K, N) disagree with K={k_total} components")
    if not np.all(np.isfinite(means)):
        raise ValueError("component means must be finite")
    if not np.all((weights > 0.0) & (weights <= 1.0)):
        raise ValueError("component weights must be finite and lie in (0, 1]")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"component weights must sum to 1 (got {weights.sum()!r})")
    return weights, means


def cholesky(stack: np.ndarray, message: str) -> np.ndarray:
    """Lower Cholesky factors of a (K, M, M) stack, in one batched call. When that
    fails, the components are factored one by one to raise ConditioningError with
    ``message.format(k=k)`` for the first k that is not positive definite."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        for k, matrix in enumerate(stack):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(message.format(k=k)) from exc
        raise


def factorize(
    loadings: np.ndarray, diag_terms: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor every ``C_k + sigma2 I`` through its latent L x L system, in one batch.

    ``loadings`` (K, N, L) holds W_k and ``diag_terms`` (K, N) the diagonal of
    C_k. Returns D_k = 1 / (diag_k + sigma2) (K, N), R_k = L_k^{-H} for the
    lower Cholesky factor L_k of ``I + W_k^H D_k W_k`` (K, L, L), and
    log det(C_k + sigma2 I) (K,). Raises ConditioningError naming the first
    component whose ``diag_term + sigma2`` has an entry at or below 1 / max
    float, whose latent system is not finite (large loadings over a tiny
    diagonal overflow it), is not positive definite (found one by one once the
    batched Cholesky fails) or has a condition estimate above COND_LIMIT.
    """
    sigma2 = _check_sigma2(sigma2)
    diag = diag_terms + sigma2
    bad = np.flatnonzero((diag <= _UNINVERTIBLE).any(axis=1))
    if bad.size:
        raise ConditioningError(
            f"diagonal of component {bad[0]} is not invertible: diag_term + sigma2 has an "
            f"entry at or below 1 / max float ({_UNINVERTIBLE:.2e})"
        )
    d = 1.0 / diag
    latent = loadings.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        a_inv = np.eye(latent) + loadings.conj().transpose(0, 2, 1) @ (loadings * d[:, :, None])
        a_inv = 0.5 * (a_inv + a_inv.conj().transpose(0, 2, 1))
    bad = np.flatnonzero(~np.isfinite(a_inv).all(axis=(1, 2)))
    if bad.size:
        raise ConditioningError(
            f"latent system of component {bad[0]} is not finite: its loadings are too "
            "large for its diag_term + sigma2"
        )
    chol = cholesky(a_inv, "latent system of component {k} is not positive definite")
    pivots = np.diagonal(chol, axis1=1, axis2=2).real
    logdet = np.log(diag).sum(axis=1)
    if latent:
        cond_est = (pivots.max(axis=1) / pivots.min(axis=1)) ** 2
        bad = np.flatnonzero(~np.isfinite(cond_est) | (cond_est > COND_LIMIT))
        if bad.size:
            raise ConditioningError(
                f"latent system of component {bad[0]} is ill-conditioned "
                f"(estimate {cond_est[bad[0]]:.2e} > {COND_LIMIT:.0e})"
            )
        logdet += 2.0 * np.log(pivots).sum(axis=1)
    return d, np.linalg.inv(chol).conj().transpose(0, 2, 1), logdet


class MixtureStack(NamedTuple):
    """Every component of a mixture factored at one noise level, stacked by component.

    With D_k the inverse of ``diag_term_k + sigma2``, W_k the loading and mu_k
    the mean of component k, and R_k = L_k^{-H} for the lower Cholesky factor
    L_k of ``I + W_k^H D_k W_k`` (so that the latent posterior covariance is
    ``A_k = R_k R_k^H``), ``d`` holds D_k as columns (N, K), ``d_mean``
    D_k conj(mu_k) as columns (N, K), ``proj`` the augmented projection
    (N + 1, K*(L+1)) whose column block k is ``[[conj(D_k W_k R_k), 0],
    [-mu_k^T conj(D_k W_k R_k), 1]]``, so that ``[y 1] proj`` is [q_k 1] for
    every k, ``latent_root`` R_k (K, L, L), ``means`` mu_k (K, N), ``lognorm``
    ``log w_k - N log pi - log det(C_k + sigma2 I)`` (K,) and ``logconst``
    ``lognorm_k - mu_k^H D_k mu_k`` (K,).
    """

    d: np.ndarray
    d_mean: np.ndarray
    proj: np.ndarray
    latent_root: np.ndarray
    means: np.ndarray
    lognorm: np.ndarray
    logconst: np.ndarray


def stack_mixture(model, sigma2: float) -> MixtureStack:
    """Factor every component of an ``mfa.MfaModel`` at noise level sigma2.

    The model's stacked loadings and diagonals go through one ``factorize``
    call, a batched Cholesky and inverse of the K latent systems, so its sigma2
    validation and ConditioningError (naming the component) apply; the
    remaining factors are a few batched products. Raises ConditioningError
    naming the first component whose factors are not finite: a mean too large
    for its diagonal, whose sum D_k |mu_k|^2 overflows.
    """
    means, loadings = model.means, model.loadings
    k_total, dim, latent = loadings.shape
    d, latent_root, logdet = factorize(loadings, model.diag_terms, sigma2)
    lognorm = np.log(model.weights) - dim * LOG_PI - logdet
    with np.errstate(over="ignore"):
        logconst = lognorm - (d * np.abs(means) ** 2).sum(axis=1)
    # Entries of D_k W_k R_k are at most sqrt(D_k) (R_k^H W_k^H D_k W_k R_k <= I),
    # so a finite sum D_k |mu_k|^2 keeps D_k mu_k and the projection finite as well.
    bad = np.flatnonzero(~np.isfinite(logconst))
    if bad.size:
        raise ConditioningError(
            f"factors of component {bad[0]} are not finite: its mean is too large for its "
            "diag_term + sigma2"
        )
    dwr_conj = ((loadings * d[:, :, None]) @ latent_root).conj()
    proj = np.zeros((dim + 1, k_total, latent + 1), dtype=np.complex128)
    proj[:dim, :, :latent] = dwr_conj.transpose(1, 0, 2)
    proj[dim, :, :latent] = -(means[:, None, :] @ dwr_conj)[:, 0]
    proj[dim, :, latent] = 1.0
    d = np.ascontiguousarray(d.T)
    return MixtureStack(d, d * means.T.conj(), proj.reshape(dim + 1, -1), latent_root, means,
                        lognorm, logconst)


def mixture_logdens(
    stack: MixtureStack, block: np.ndarray, abs2: np.ndarray, latent_out: np.ndarray, rows
) -> np.ndarray:
    """Weighted component log-densities ``log w_k + log N_C(y; mu_k, C_k + sigma2 I)``, (B, K).

    ``block`` (B, N) holds B observations y and ``abs2`` (B, N) their entrywise
    squared magnitudes. At L >= 1, ``rows`` (B, N + 1) holds them as the rows
    [y 1], and one product ``rows @ stack.proj`` writes [q_k 1], with the
    whitened latent coordinates ``q_k = R_k^H W_k^H D_k (y - mu_k)``, to
    ``latent_out[:, k]``, which must be a C-contiguous (B, K, L+1) array; the
    latent posterior mean is R_k q_k. At L = 0, [q_k 1] is the constant 1,
    written to ``latent_out`` on every call, since ``estimate`` scales it in
    place, and ``rows`` is not read (None will do).

    Every term is a batched product with the stacked factors: the diagonal part
    of the Mahalanobis term comes from the expansion
    |y-mu|^2 = |y|^2 - 2 Re(y conj(mu)) + |mu|^2, and the low-rank correction
    p^H A_k p with p = W_k^H D_k (y - mu_k) is |q_k|^2, since A_k = R_k R_k^H.

    At L = 0 the expansion is the whole quadratic form. Where its terms exceed
    the form by more than _EXPANSION_GAIN (a diagonal on the floor and y near
    mu_k, say), their rounding would swamp it, so those densities are taken
    again in the direct form sum_n D_kn |y_n - mu_kn|^2.
    """
    latent = stack.latent_root.shape[1]
    expanded = abs2 @ stack.d
    logdens = stack.logconst - expanded
    logdens += 2.0 * (block @ stack.d_mean).real
    if latent:
        np.matmul(rows, stack.proj, out=latent_out.reshape(len(rows), -1))
        flat = latent_out.view(np.float64)[:, :, :2 * latent]
        logdens += np.einsum("bkl,bkl->bk", flat, flat)
        return logdens
    latent_out.fill(1.0)
    # terms / _EXPANSION_GAIN > quadratic form = lognorm - logdens, in place:
    # two (B, K) temporaries here raised paper-sweep's peak RSS from 121 to
    # 131 MB (glibc malloc, 2 cores).
    expanded += stack.lognorm - stack.logconst
    expanded /= _EXPANSION_GAIN
    expanded += logdens
    for k, idx in component_rows(expanded > stack.lognorm):
        gap = block[idx] - stack.means[k]
        logdens[idx, k] = stack.lognorm[k] - (gap.real ** 2 + gap.imag ** 2) @ stack.d[:, k]
    return logdens


def mixture_chunks(stack: MixtureStack, samples: np.ndarray):
    """Yield ``(start, block, abs2, latent, resp, lse)`` for each ``row_chunks``
    chunk of ``samples``: the first row index, the rows, their entrywise |y|^2,
    the (B, K, L+1) latent buffer of ``mixture_logdens``, shared by all chunks,
    with q_k in its first L columns and exactly 1 in the last, and the
    ``responsibilities`` and per-row log-sum-exp. At L >= 1 the rows [y 1] the
    kernel multiplies live in one reused (B, N + 1) buffer; at L = 0 there is
    no product, and no such buffer."""
    k_total, latent = stack.latent_root.shape[:2]
    count, dim = samples.shape
    # Per row: the latent buffer and the rows [y 1] (complex); |y|^2, the
    # log-densities and the responsibilities (float).
    row_bytes = (16 * (k_total * (latent + 1) + (dim + 1 if latent else 0))
                 + 8 * (dim + 2 * k_total))
    parts = list(row_chunks(count, row_bytes))
    height = max((part.stop - part.start for part in parts), default=0)
    if latent:
        rows = np.ones((height, dim + 1), dtype=np.complex128)
    buffer = np.empty((height, k_total, latent + 1), dtype=np.complex128)
    for part in parts:
        block = samples[part]
        size = len(block)
        aug_rows = None
        if latent:
            aug_rows = rows[:size]
            aug_rows[:, :-1] = block
        abs2 = np.abs(block) ** 2
        logdens = mixture_logdens(stack, block, abs2, buffer[:size], aug_rows)
        yield part.start, block, abs2, buffer[:size], *responsibilities(logdens)


def _std_cnormal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex normal: unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def responsibilities(logdens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior component probabilities of (B, K) log-densities, and the per-row
    log-sum-exp.

    One exp per entry: with the row max as shift, e = exp(logdens - shift) and
    its row sums give both the log-sum-exp and the probabilities e / sum(e).
    e is computed in place in the one array returned; ``logdens`` is unchanged.
    Entries of e below RESP_REL (relative to the row's largest, exp(0) = 1) are
    set to exactly 0 before the division. In a row with a finite max, shifted
    values below _EXP_MIN are raised to it first: their e is then the normal
    exp(_EXP_MIN), not a subnormal, 0 or exp(-inf), which numpy's exp computes
    6 to over 100 times slower. Either way e is below RESP_REL and below the
    rounding of the row sum, which holds exp(0) = 1, so the results are the
    same. A row without a finite max is not clamped and keeps its NaN.
    """
    shift = np.max(logdens, axis=1, keepdims=True)
    finite = np.isfinite(shift)
    # An all--inf row would propagate nan through the subtraction.
    shift = np.where(finite, shift, 0.0)
    resp = logdens - shift
    np.maximum(resp, _EXP_MIN, out=resp, where=finite)
    np.exp(resp, out=resp)
    total = resp.sum(axis=1, keepdims=True)
    np.copyto(resp, 0.0, where=resp < RESP_REL)
    resp /= total
    return resp, (np.log(total) + shift)[:, 0]


def component_rows(weights: np.ndarray):
    """Yield (k, rows) for every component k of a (B, K) weight or mask chunk
    that has nonzero entries, in ascending k, with ``rows`` the ascending indices
    of those entries (NaN counts as nonzero).

    The nonzero flags are laid out column by column in one contiguous array;
    one ``any`` finds the live columns, and one ``flatnonzero`` per live column
    gathers its rows. EM accumulates its statistics component by component
    over the gathered rows; the pruned GMM pass and ``mixture_logdens`` at
    L = 0 compute log-densities over them.
    """
    nonzero = np.ascontiguousarray((weights != 0).T)
    for k in np.flatnonzero(nonzero.any(axis=1)):
        yield int(k), np.flatnonzero(nonzero[k])


def row_chunks(count: int, row_bytes: int, budget: int | None = None):
    """Row slices that split ``count`` rows evenly into chunks of at most
    ``budget`` bytes at ``row_bytes`` a row, at four rows a chunk at least (all
    ``count`` rows when fewer). The budget is _CHUNK_BYTES when None, read at
    call time; a pass that fills an output or copies an input already held
    whole passes _FILL_BYTES. A budget of fewer than eight rows gives chunks of
    four to seven rows. So no chunk holds a single row, which numpy would
    multiply as a matrix-vector product that rounds differently from the rows
    of a matrix product."""
    budget = _CHUNK_BYTES if budget is None else budget
    pieces = min(-(-count // max(budget // max(row_bytes, 1), 1)), max(count // 4, 1))
    return (slice(count * i // pieces, count * (i + 1) // pieces) for i in range(pieces))


def row_energy(samples: np.ndarray) -> np.ndarray:
    """The (T,) row sums of |x|^2 of ``samples`` (T, N), each summed exactly as
    ``(np.abs(samples) ** 2).sum(axis=1)`` sums it, one ``row_chunks`` chunk
    at a time at _FILL_BYTES through one reused (B, N) buffer, so no (T, N)
    float is held."""
    count, dim = samples.shape
    energy = np.empty(count)
    parts = list(row_chunks(count, 8 * dim, _FILL_BYTES))
    buffer = np.empty((max((part.stop - part.start for part in parts), default=0), dim))
    for part in parts:
        abs2 = np.abs(samples[part], out=buffer[:part.stop - part.start])
        np.square(abs2, out=abs2)
        abs2.sum(axis=1, out=energy[part])
    return energy
