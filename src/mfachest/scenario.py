"""Synthetic uplink channel scenarios for a uniform rectangular array.

Channels are sums of clustered multipath components: each scenario fixes a set
of cluster centers, and every sample draws one cluster, perturbs it with
Laplacian angle offsets, and superimposes complex Gaussian path gains on the
corresponding steering vectors. This is a synthetic stand-in for measured
urban-micro channels, not a calibrated reproduction of any campaign.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from ._binio import Container, FileFormatError, write_container

DATASET_MAGIC = b"CHD1"
DATASET_VERSION = 1

# Complex entries of one chunk's vertical and horizontal phasor powers, nv + nh
# per path and sample (1 MB); the chunk, not the sample count, bounds
# generation's transient memory. On the 4x16 URA (2-core Xeon, 2 MB L2 per
# core) times were flat from 2^15 to 2^18 entries.
_GEN_CHUNK_BUDGET = 1 << 16

# Annotation of a scalar dataclass field -> (accepted type, stored type, description).
_FIELD_TYPES = {
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
    "str": (str, str, "a string"),
}


def _check_field_types(config) -> None:
    """Store each scalar field as a plain int, float or str; any other value,
    a bool included, is rejected with an error that names the field."""
    for f in fields(config):
        if f.type in _FIELD_TYPES:
            kind, cast, what = _FIELD_TYPES[f.type]
            value = getattr(config, f.name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            object.__setattr__(config, f.name, cast(value))


def _json_object(data, what: str, cls) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(data)


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
        _check_field_types(self)
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
    return ScenarioConfig(**_json_object(data, "scenario", ScenarioConfig))


@dataclass(frozen=True)
class ChannelDataset:
    """T complex channel vectors of dimension N plus normalization metadata.

    ``normalization`` is the cumulative scale factor that has been applied to
    the raw samples.
    """

    samples: np.ndarray
    normalization: float = 1.0

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


def _phasor_powers(phase: np.ndarray, count: int) -> np.ndarray:
    """Powers 0 .. count - 1 of e^{j phase}, as a (count, *phase.shape) block.

    Power k is power k - 1 times power 1, the one complex exp, so it carries
    about k roundings more than an exact exp(j k phase) would.
    """
    out = np.empty((count,) + phase.shape, dtype=np.complex128)
    out[0] = 1.0
    if count > 1:
        np.exp(1j * phase, out=out[1])
        for k in range(2, count):
            np.multiply(out[k - 1], out[1], out=out[k])
    return out


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
    angle offsets (azimuth, then elevation), and complex Gaussian path gains
    come from ``rng``, drawn in that order before any channel is formed.

    A path at azimuth az and elevation el has the steering vector
    v (x) h on the URA: v_m = e^{j m phi_v} with phi_v = 2 pi d_v sin(el) and
    h_n = e^{j n phi_h} with phi_h = 2 pi d_h sin(az) cos(el), entry (m, n) at
    index m nh + n, the atom layout of ``baselines.build_dft_dictionary``.
    With the path gains g_p folded into the vertical responses, V = [g_p v_p]
    (P, nv) and H = [h_p] (P, nh), a sample is the (nv, nh) matrix V^T H. The
    powers e^{j k phi} come from one complex exp per path and axis by the
    recurrence e^{j k phi} = e^{j (k - 1) phi} e^{j phi}, so entry k carries
    about k roundings; on the 4x16 URA the samples differ from exact exps by
    about 2e-15 of the largest entry.

    The draws are freed before the samples are scaled in place, so the
    samples are the only (T, N) array held beside the energies' temporary.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    samples = _draw_channels(config, count, rng)
    factor = _normalization(samples)
    samples *= factor
    return ChannelDataset(samples, normalization=factor)


def _draw_channels(config: ScenarioConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """The (T, N) channels of ``generate_channels`` before normalization."""
    az_c, el_c = cluster_centers(config)
    spread = np.deg2rad(config.angle_spread_deg)
    paths = config.paths_per_cluster

    idx = rng.integers(0, config.num_clusters, size=count)
    # The offsets, then the centres added in place: the angles az and el.
    az = rng.laplace(0.0, spread, size=(count, paths)) if spread > 0 else np.zeros((count, paths))
    el = rng.laplace(0.0, spread, size=(count, paths)) if spread > 0 else np.zeros((count, paths))
    gains = (rng.standard_normal((count, paths)) + 1j * rng.standard_normal((count, paths)))
    gains /= np.sqrt(2.0 * paths)
    az += az_c[idx][:, None]
    el += el_c[idx][:, None]

    nv, nh = config.nv, config.nh
    samples = np.empty((count, config.dim), dtype=np.complex128)
    chunk = max(1, _GEN_CHUNK_BUDGET // (paths * (nv + nh)))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        az_b, el_b = az[start:stop], el[start:stop]
        vert = _phasor_powers(2.0 * np.pi * config.spacing_v * np.sin(el_b), nv)
        vert *= gains[start:stop]
        horiz = _phasor_powers(2.0 * np.pi * config.spacing_h * np.sin(az_b) * np.cos(el_b), nh)
        # (b, nv, P) x (b, P, nh), written into the rows' (nv, nh) views.
        np.matmul(vert.transpose(1, 0, 2), horiz.transpose(1, 2, 0),
                  out=samples[start:stop].reshape(stop - start, nv, nh))
    return samples


def _normalization(samples: np.ndarray) -> float:
    """The factor that brings the mean energy per entry of ``samples`` to 1."""
    energy = float(np.mean(np.abs(samples) ** 2))
    if energy <= 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    return np.sqrt(1.0 / energy)


def check_snr_db(snr_db: float) -> None:
    """Reject an SNR that is NaN or below -3000 dB, where sigma2 would overflow."""
    if not snr_db >= -3000.0:
        raise ValueError(f"snr_db must be >= -3000 dB (finite noise power), got {snr_db!r}")


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
    check_snr_db(snr_db)
    h = np.asarray(h, dtype=np.complex128)
    sigma2 = float(10.0 ** (-snr_db / 10.0))
    scale = np.sqrt(sigma2 / 2.0)
    noisy = np.empty(h.shape, dtype=np.complex128)
    draw = rng.standard_normal(h.shape)
    draw *= scale
    noisy.real = draw
    rng.standard_normal(out=draw)
    draw *= scale
    noisy.imag = draw
    noisy += h
    return noisy, sigma2


_DATASET_HEADER = [("version", "<u4"), ("dim", "<u4"), ("count", "<u8"), ("normalization", "<f8")]


def _dataset_records(dim: int) -> list:
    """One CHD1 record: a channel sample."""
    return [("sample", "<c16", (dim,))]


def write_dataset(path, dataset: ChannelDataset) -> None:
    """Write the CHD1 container; empty datasets are rejected."""
    if dataset.num_samples == 0:
        raise ValueError("refusing to write an empty dataset")
    write_container(
        path, DATASET_MAGIC, _DATASET_HEADER,
        (DATASET_VERSION, dataset.dim, dataset.num_samples, dataset.normalization),
        _dataset_records(dataset.dim), dataset.samples,
    )


def read_dataset(path) -> ChannelDataset:
    """Read a CHD1 container; raises FileFormatError on any structural defect."""
    with open(path, "rb") as fh:
        reader = Container(fh, DATASET_MAGIC, _DATASET_HEADER)
        version, dim, count, normalization = reader.header
        if version != DATASET_VERSION:
            offset = reader.offset_of("version")
            raise FileFormatError(f"unsupported dataset version {version}", offset)
        if dim == 0 or count == 0:
            # Reported where the counts end, just before the normalization.
            offset = reader.offset_of("normalization")
            raise FileFormatError("dataset header declares an empty dataset", offset)
        rec = reader.body(_dataset_records(dim), count, "samples")
    return ChannelDataset(rec["sample"], normalization=normalization)
