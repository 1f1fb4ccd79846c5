"""Synthetic uplink channel scenarios for a uniform rectangular array.

Channels are sums of clustered multipath components: each scenario fixes a set
of cluster centers, and every sample draws one cluster, perturbs it with
Laplacian angle offsets, and superimposes complex Gaussian path gains on the
corresponding steering vectors. This is a synthetic stand-in for measured
urban-micro channels, not a calibrated reproduction of any campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._binio import ByteReader, ByteWriter, FileFormatError

DATASET_MAGIC = b"CHD1"
DATASET_VERSION = 1

# Complex entries of one block of (samples, paths, N) steering vectors (4 MB);
# the block, not the sample count, bounds generation's transient memory.
_GEN_CHUNK_BUDGET = 1 << 18


@dataclass(frozen=True)
class ScenarioConfig:
    """Array geometry and multipath statistics of a synthetic scenario.

    Spacings are in wavelengths. ``seed`` fixes the cluster centers, so two
    generators with the same config describe the same propagation environment.
    """

    nv: int = 4
    nh: int = 16
    spacing_v: float = 1.0
    spacing_h: float = 0.5
    num_clusters: int = 16
    paths_per_cluster: int = 10
    angle_spread_deg: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.nv < 1 or self.nh < 1:
            raise ValueError("nv and nh must be positive")
        if self.spacing_v <= 0 or self.spacing_h <= 0:
            raise ValueError("antenna spacings must be positive")
        if self.num_clusters < 1 or self.paths_per_cluster < 1:
            raise ValueError("num_clusters and paths_per_cluster must be positive")
        if self.angle_spread_deg < 0:
            raise ValueError("angle_spread_deg must be >= 0")

    @property
    def dim(self) -> int:
        return self.nv * self.nh


def scenario_from_dict(data: dict) -> ScenarioConfig:
    known = {f for f in ScenarioConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    return ScenarioConfig(**data)


@dataclass(frozen=True)
class ChannelDataset:
    """T complex channel vectors of dimension N plus normalization metadata.

    ``normalization`` is the cumulative scale factor that has been applied to
    the raw samples; ``seed`` records generation provenance when known.
    """

    samples: np.ndarray
    normalization: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ValueError("samples must be a (T, N) array")
        object.__setattr__(self, "samples", samples)

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def ura_steering(azimuth: float, elevation: float, config: ScenarioConfig) -> np.ndarray:
    """Steering vector of the configured array; unit-modulus entries, ||a||^2 = N.

    The vector is the Kronecker product of a vertical uniform-linear response
    (phase progression along sin(elevation)) and a horizontal one (along
    sin(azimuth) cos(elevation)); broadside (0, 0) gives the all-ones vector.
    """
    return _steering_batch(
        np.asarray([azimuth], dtype=float), np.asarray([elevation], dtype=float), config
    )[0]


def _steering_batch(az: np.ndarray, el: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Steering vectors for paired angle arrays of shape (n,); returns (n, N)."""
    phase_v = 2.0 * np.pi * config.spacing_v * np.sin(el)
    phase_h = 2.0 * np.pi * config.spacing_h * np.sin(az) * np.cos(el)
    vert = np.exp(1j * np.outer(phase_v, np.arange(config.nv)))
    horiz = np.exp(1j * np.outer(phase_h, np.arange(config.nh)))
    return (vert[:, :, None] * horiz[:, None, :]).reshape(az.shape[0], config.dim)


def cluster_centers(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth/elevation cluster centers, fixed by config.seed."""
    rng = np.random.default_rng([config.seed, 0x5CE9A])
    az = rng.uniform(-np.pi / 3.0, np.pi / 3.0, size=config.num_clusters)
    el = rng.uniform(-np.pi / 6.0, np.pi / 6.0, size=config.num_clusters)
    return az, el


def generate_channels(
    config: ScenarioConfig, count: int, rng: np.random.Generator
) -> ChannelDataset:
    """Draw ``count`` channel samples and normalize the dataset to mean energy N.

    Cluster centers come from config.seed; per-sample cluster choices, Laplacian
    angle offsets, and complex Gaussian path gains come from ``rng``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
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

    samples = np.empty((count, config.dim), dtype=np.complex128)
    chunk = max(1, _GEN_CHUNK_BUDGET // (paths * config.dim))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        block = stop - start
        atoms = _steering_batch(az[start:stop].ravel(), el[start:stop].ravel(), config)
        atoms = atoms.reshape(block, paths, config.dim)
        samples[start:stop] = np.einsum("bp,bpn->bn", gains[start:stop], atoms)

    dataset = ChannelDataset(samples, normalization=1.0, seed=config.seed)
    return normalize_dataset(dataset)


def normalize_dataset(dataset: ChannelDataset) -> ChannelDataset:
    """Rescale all samples by one factor so the empirical mean of ||h||^2 equals N."""
    energy = float(np.mean(np.abs(dataset.samples) ** 2))
    if energy <= 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    factor = np.sqrt(1.0 / energy)  # target mean energy per entry is exactly 1
    return ChannelDataset(
        dataset.samples * factor,
        normalization=dataset.normalization * factor,
        seed=dataset.seed,
    )


def corrupt(
    h: np.ndarray, snr_db: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Additive white complex Gaussian noise at the requested SNR.

    Under the dataset normalization the SNR is 1/sigma^2, so
    ``sigma2 = 10**(-snr_db/10)``. Noise real/imag parts are independent with
    variance sigma2/2 each. Works on a single vector or a (T, N) batch. An SNR
    of +inf means no noise; NaN, and SNRs so low that sigma2 would overflow,
    are rejected.
    """
    if not snr_db >= -3000.0:
        raise ValueError(f"snr_db must be >= -3000 dB (finite noise power), got {snr_db!r}")
    h = np.asarray(h, dtype=np.complex128)
    sigma2 = float(10.0 ** (-snr_db / 10.0))
    noise = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
    noise *= np.sqrt(sigma2 / 2.0)
    return h + noise, sigma2


def write_dataset(path, dataset: ChannelDataset) -> None:
    """Write the CHD1 container; empty datasets are rejected."""
    if dataset.num_samples == 0:
        raise ValueError("refusing to write an empty dataset")
    w = ByteWriter()
    w.magic(DATASET_MAGIC)
    w.u32(DATASET_VERSION)
    w.u32(dataset.dim)
    w.u64(dataset.num_samples)
    w.f64(dataset.normalization)
    w.complex_array(dataset.samples, order="C")
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def read_dataset(path) -> ChannelDataset:
    """Read a CHD1 container; raises FileFormatError on any structural defect."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read())
    reader.magic(DATASET_MAGIC)
    version = reader.u32("version")
    if version != DATASET_VERSION:
        raise FileFormatError(f"unsupported dataset version {version}", reader.offset - 4)
    dim = reader.u32("dimension N")
    count = reader.u64("sample count T")
    if dim == 0 or count == 0:
        raise FileFormatError("dataset header declares an empty dataset", reader.offset)
    normalization = reader.f64("normalization")
    samples = reader.complex_array(count * dim, "samples").reshape(count, dim)
    reader.expect_eof()
    return ChannelDataset(samples, normalization=normalization, seed=None)


def with_samples(dataset: ChannelDataset, samples: np.ndarray) -> ChannelDataset:
    """Copy of the dataset with replaced sample matrix (metadata preserved)."""
    return replace(dataset, samples=samples)
