"""Round-trip properties of the MFA1, GMM1 and CHD1 containers.

Each property checks that arrays come back bit-equal, that the file cut at
every byte raises FileFormatError, and that the bytes equal those of a writer
that emits one component (or sample block) at a time, the layout the formats
were defined by.
"""

import os
import struct
import tempfile
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import traced_peak, write_container_whole
from mfachest._binio import Container, FileFormatError, write_container
from mfachest.baselines import GMM_STRUCTURES, GmmModel, load_gmm, save_gmm
from mfachest.mfa import MfaModel, load_model, save_model
from mfachest import baselines, gaussians, mfa, scenario
from mfachest.scenario import ChannelDataset, read_dataset, write_dataset

def wide(rng, shape):
    """Normal draws scaled by 10^e, e uniform in [-300, 300], per entry."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)


def wide_complex(rng, shape):
    return wide(rng, shape) + 1j * wide(rng, shape)


def weight_vector(rng, k_total):
    raw = rng.uniform(0.01, 1.0, k_total)
    return raw / raw.sum()


seeds = st.integers(0, 2**32 - 1)


@st.composite
def mfa_models(draw, max_components=3):
    k_total, dim = draw(st.integers(1, max_components)), draw(st.integers(1, 3))
    latent = draw(st.integers(0, dim))
    rng = np.random.default_rng(draw(seeds))
    return MfaModel(
        weight_vector(rng, k_total),
        wide_complex(rng, (k_total, dim)),
        wide_complex(rng, (k_total, dim, latent)),
        np.abs(wide(rng, (k_total, dim))) + 1e-300,
    )


@st.composite
def gmm_models(draw, max_components=3):
    structure = draw(st.sampled_from(GMM_STRUCTURES))
    k_total, dim = draw(st.integers(1, max_components)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    weights, means = weight_vector(rng, k_total), wide_complex(rng, (k_total, dim))
    if structure == "full":
        roots = wide_complex(rng, (k_total, dim, dim)) * 1e-150
        covariances = roots @ roots.conj().transpose(0, 2, 1)
        return GmmModel(structure, weights, means, covariances)
    bins = 2 * dim if structure == "toeplitz" else dim
    spectra = np.abs(wide(rng, (k_total, bins)))
    return GmmModel(structure, weights, means, spectra)


@st.composite
def datasets(draw, max_count=6):
    count, dim = draw(st.integers(1, max_count)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    return ChannelDataset(wide_complex(rng, (count, dim)), normalization=float(wide(rng, ())))


def reference_mfa1(model):
    """MFA1 written component by component; loadings column-major."""
    parts = [b"MFA1", struct.pack("<4I", 1, model.dim, model.latent_dim, model.n_components)]
    for k in range(model.n_components):
        parts.append(struct.pack("<d", model.weights[k]))
        parts.append(model.means[k].astype("<c16").tobytes())
        parts.append(model.loadings[k].astype("<c16").tobytes(order="F"))
        parts.append(model.diag_terms[k].astype("<f8").tobytes())
    return b"".join(parts)


STRUCTURE_TAGS = {"full": 0, "toeplitz": 1, "circulant": 2}


def reference_gmm1(model):
    """GMM1 written component by component; full covariances column-major."""
    tag = STRUCTURE_TAGS[model.structure]
    parts = [b"GMM1", struct.pack("<IB2I", 1, tag, model.dim, model.n_components)]
    for k in range(model.n_components):
        parts.append(struct.pack("<d", model.weights[k]))
        parts.append(model.means[k].astype("<c16").tobytes())
        if model.structure == "full":
            parts.append(model.params[k].astype("<c16").tobytes(order="F"))
        else:
            parts.append(model.params[k].astype("<f8").tobytes())
    return b"".join(parts)


def reference_chd1(dataset):
    header = struct.pack("<2IQd", 1, dataset.dim, dataset.num_samples, dataset.normalization)
    return b"CHD1" + header + dataset.samples.astype("<c16").tobytes()


def written(save, obj):
    """The bytes ``save(obj, path)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        save(obj, path)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(load, data):
    """``load`` on a file holding ``data``, and on every proper prefix of it,
    which must each raise FileFormatError; returns the full file's result."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "wb") as fh:
            fh.write(data)
        loaded = load(path)
        accepted = []
        for cut in range(len(data) - 1, -1, -1):
            os.truncate(path, cut)
            try:
                load(path)
            except FileFormatError:
                continue
            accepted.append(cut)
    assert accepted == [], f"cuts loaded without FileFormatError: {accepted}"
    return loaded


@given(mfa_models())
def test_mfa1_round_trip(model):
    data = written(save_model, model)
    assert data == reference_mfa1(model)
    loaded = load_bytes(load_model, data)
    for name in ("weights", "means", "loadings", "diag_terms"):
        got, want = getattr(loaded, name), getattr(model, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(gmm_models())
def test_gmm1_round_trip(model):
    data = written(save_gmm, model)
    assert data == reference_gmm1(model)
    loaded = load_bytes(load_gmm, data)
    assert loaded.structure == model.structure
    for name in ("weights", "means", "params"):
        got, want = getattr(loaded, name), getattr(model, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(datasets())
def test_chd1_round_trip(dataset):
    data = written(lambda ds, path: write_dataset(path, ds), dataset)
    assert data == reference_chd1(dataset)
    loaded = load_bytes(read_dataset, data)
    assert loaded.samples.tobytes() == dataset.samples.tobytes()
    assert struct.pack("<d", loaded.normalization) == struct.pack("<d", dataset.normalization)


def save_dataset(dataset, path):
    write_dataset(path, dataset)


# (module whose write_container the writer calls, writer, strategy of what it
# writes); counts up to 40 cross the chunk boundaries of a few-record budget.
CONTAINER_WRITERS = [
    pytest.param(scenario, save_dataset, datasets(max_count=40), id="chd1"),
    pytest.param(mfa, save_model, mfa_models(max_components=40), id="mfa1"),
    pytest.param(baselines, save_gmm, gmm_models(max_components=40), id="gmm1"),
]


@pytest.mark.parametrize("module, save, objects", CONTAINER_WRITERS)
def test_chunked_write_matches_one_structured_write(module, save, objects):
    # A budget of 1 to 2000 bytes splits the body into chunks of four records
    # or more, up to all of them.
    @given(objects, st.integers(1, 2000))
    def check(obj, budget):
        with patch.object(module, "write_container", write_container_whole):
            want = written(save, obj)
        with patch.object(gaussians, "_FILL_BYTES", budget):
            assert written(save, obj) == want

    check()


def test_write_holds_one_chunk_of_records(tmp_path):
    # A structured copy of the whole body would be 20.5 MB for 20k channels
    # at N = 64.
    dataset = ChannelDataset(np.ones((20_000, 64), dtype=complex))
    _, peak = traced_peak(write_dataset, tmp_path / "data.chd", dataset)
    assert peak <= gaussians._FILL_BYTES + (64 << 10)


_BODY = [("weight", "<f8", ()), ("mean", "<c16", (2,))]


@pytest.mark.parametrize("columns, field", [
    pytest.param((np.ones(3), np.ones((4, 2), dtype=complex)), "mean", id="longer"),
    pytest.param((np.ones(3), np.ones((2, 2), dtype=complex)), "mean", id="shorter"),
    pytest.param((np.ones(3), np.ones((1, 2), dtype=complex)), "mean", id="length-1"),
    pytest.param((np.ones(3), np.ones((3, 3), dtype=complex)), "mean", id="wrong-shape"),
    pytest.param((np.ones((3, 1)), np.ones((3, 2), dtype=complex)), "weight", id="scalar-field"),
])
def test_write_rejects_a_mismatched_column_before_opening(tmp_path, columns, field):
    path = tmp_path / "file"
    with pytest.raises(ValueError, match=f"column '{field}'"):
        write_container(path, b"TEST", [("count", "<u4")], (3,), _BODY, *columns)
    assert not path.exists()


def test_write_rejects_a_missing_column(tmp_path):
    path = tmp_path / "file"
    with pytest.raises(ValueError, match="1 columns for 2 fields"):
        write_container(path, b"TEST", [("count", "<u4")], (3,), _BODY, np.ones(3))
    assert not path.exists()


# Headers that declare far more components than the file holds: the record
# reader must reject them from the length alone, before allocating.
OVERSIZED = [(3, 2**31), (2**20, 2**31)]


@pytest.mark.parametrize("dim, k_total", OVERSIZED)
@pytest.mark.parametrize("latent", [1, 2**20])
def test_mfa1_oversized_header(tmp_path, dim, k_total, latent):
    path = tmp_path / "huge.mfa"
    path.write_bytes(b"MFA1" + struct.pack("<4I", 1, dim, latent, k_total))
    with pytest.raises(FileFormatError, match="truncated"):
        load_model(path)


@pytest.mark.parametrize("dim, k_total", OVERSIZED)
@pytest.mark.parametrize("structure", GMM_STRUCTURES)
def test_gmm1_oversized_header(tmp_path, dim, k_total, structure):
    path = tmp_path / "huge.gmm"
    header = struct.pack("<IB2I", 1, STRUCTURE_TAGS[structure], dim, k_total)
    path.write_bytes(b"GMM1" + header)
    with pytest.raises(FileFormatError, match="truncated"):
        load_gmm(path)


def test_chd1_oversized_header(tmp_path):
    path = tmp_path / "huge.chd"
    path.write_bytes(b"CHD1" + struct.pack("<IIQd", 1, 2**20, 2**62, 1.0))
    with pytest.raises(FileFormatError, match="truncated"):
        read_dataset(path)


def test_body_cut_after_the_header_was_read(tmp_path):
    # The sizes are checked against the handle's fstat when the header is
    # read; a file cut in place after that reads short through the same
    # handle, which raises instead of returning uninitialized records.
    path = tmp_path / "cut.chd"
    # Larger than the handle's read buffer, so the cut part is not buffered.
    write_dataset(path, ChannelDataset(np.ones((4096, 3), dtype=complex)))
    with open(path, "rb") as fh:
        reader = Container(fh, scenario.DATASET_MAGIC, scenario._DATASET_HEADER,
                           scenario.DATASET_VERSION, "dataset")
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(FileFormatError, match="shrank while read"):
            reader.body(scenario._dataset_records(3), 4096, "samples")


def mfa1_header(version=1, dim=2, latent=1, k_total=1):
    return b"MFA1" + struct.pack("<4I", version, dim, latent, k_total)


def gmm1_header(version=1, tag=0, dim=2, k_total=1):
    return b"GMM1" + struct.pack("<IB2I", version, tag, dim, k_total)


def chd1_header(version=1, dim=2, count=1):
    return b"CHD1" + struct.pack("<2IQd", version, dim, count, 1.0)


EMPTY_MODEL = "model header declares an empty model"
EMPTY_DATASET = "dataset header declares an empty dataset"

# (loader, file, message, offset) for every semantic header error. Each file
# carries a full header, so the error, not a truncation, is what is reported.
HEADER_ERRORS = [
    pytest.param(load_model, b"XXXX" + mfa1_header()[4:], "bad magic b'XXXX', expected b'MFA1'", 0,
                 id="mfa1-magic"),
    pytest.param(load_model, mfa1_header(version=7), "unsupported model version 7", 4,
                 id="mfa1-version"),
    pytest.param(load_model, mfa1_header(dim=0), EMPTY_MODEL, 20, id="mfa1-no-dim"),
    pytest.param(load_model, mfa1_header(k_total=0), EMPTY_MODEL, 20, id="mfa1-no-components"),
    pytest.param(load_gmm, b"XXXX" + gmm1_header()[4:], "bad magic b'XXXX', expected b'GMM1'", 0,
                 id="gmm1-magic"),
    pytest.param(load_gmm, gmm1_header(version=7), "unsupported model version 7", 4,
                 id="gmm1-version"),
    pytest.param(load_gmm, gmm1_header(tag=3), "unknown structure tag 3", 8, id="gmm1-tag"),
    pytest.param(load_gmm, gmm1_header(dim=0), EMPTY_MODEL, 17, id="gmm1-no-dim"),
    pytest.param(load_gmm, gmm1_header(k_total=0), EMPTY_MODEL, 17, id="gmm1-no-components"),
    pytest.param(read_dataset, b"XXXX" + chd1_header()[4:], "bad magic b'XXXX', expected b'CHD1'", 0,
                 id="chd1-magic"),
    pytest.param(read_dataset, chd1_header(version=7), "unsupported dataset version 7", 4,
                 id="chd1-version"),
    pytest.param(read_dataset, chd1_header(dim=0), EMPTY_DATASET, 20, id="chd1-no-dim"),
    pytest.param(read_dataset, chd1_header(count=0), EMPTY_DATASET, 20, id="chd1-no-samples"),
]


@pytest.mark.parametrize("load, data, message, offset", HEADER_ERRORS)
def test_header_errors(tmp_path, load, data, message, offset):
    path = tmp_path / "file"
    path.write_bytes(data + bytes(64))
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(err.value) == f"{message} (at byte offset {offset})"
    assert err.value.offset == offset
