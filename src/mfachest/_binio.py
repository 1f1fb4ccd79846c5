"""The little-endian container shared by the dataset (CHD1) and model (MFA1,
GMM1) file formats.

A container is a 4-byte magic, one header record and a body of records, and
nothing after them. A record layout is a list of fields packed without
padding: ``(name, dtype)`` pairs for a header, e.g.
``[("version", "<u4"), ("dim", "<u4")]``, and ``(name, dtype, shape)``
triples for a body record, e.g.
``[("weight", "<f8", ()), ("mean", "<c16", (N,))]``. The header gives the
body's layout and record count; the body's byte count is
checked against the file's size before its dtype or array is built, so a
header that declares more records than the file holds raises FileFormatError
instead of allocating. The body is read straight into its structured array
through the handle the header came from, so the file is read once, with no
second copy. It is written from its columns in chunks of records, through one
reused chunk, so no second copy of the columns is built either.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import gaussians


class FileFormatError(ValueError):
    """A binary file failed structural validation (bad magic, version, truncation)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class Container:
    """A container file read from the open binary handle ``fh``: ``header``
    holds its header record as a tuple of Python scalars in field order, and
    ``body`` reads the records that follow from the same handle.

    Every header has ``version``, ``dim`` and ``count`` fields. The constructor
    raises FileFormatError, naming the file's ``kind`` ("dataset", "model"),
    on a bad magic, a version other than ``version`` (at the version field) and
    a zero ``dim`` or ``count`` (where the count field ends)."""

    def __init__(self, fh, magic: bytes, header: list, version: int, kind: str):
        self._fh = fh
        self._size = os.fstat(fh.fileno()).st_size
        self._magic = magic
        self._header = np.dtype(header)
        self.offset = 0
        got = self._take(len(magic), "magic")
        if got != magic:
            raise FileFormatError(f"bad magic {got!r}, expected {magic!r}", 0)
        record = np.frombuffer(self._take(self._header.itemsize, "header"), self._header)
        self.header = record[0].item()
        if record["version"][0] != version:
            raise FileFormatError(f"unsupported {kind} version {record['version'][0]}",
                                  self.offset_of("version"))
        if record["dim"][0] == 0 or record["count"][0] == 0:
            raise FileFormatError(f"{kind} header declares an empty {kind}",
                                  self.offset_of("count") + self._header["count"].itemsize)

    def offset_of(self, name: str) -> int:
        """File offset of the header field ``name``."""
        return len(self._magic) + self._header.fields[name][1]

    def _check(self, count: int, what: str) -> None:
        """Raise FileFormatError unless ``count`` bytes follow the offset."""
        if self.offset + count > self._size:
            raise FileFormatError(
                f"truncated file: need {count} bytes for {what}, "
                f"have {self._size - self.offset}",
                self.offset,
            )

    def _take(self, count: int, what: str) -> bytes:
        self._check(count, what)
        self.offset += count
        return self._fh.read(count)

    def body(self, fields: list, count: int, what: str) -> np.ndarray:
        """The ``count`` records of the layout ``fields`` that end the file, as a
        structured array."""
        size = sum(np.dtype(base).itemsize * math.prod(shape) for _, base, shape in fields)
        self._check(size * count, what)
        end = self.offset + size * count
        if end != self._size:
            raise FileFormatError(f"trailing data: {self._size - end} unexpected bytes", end)
        records = np.empty(count, dtype=np.dtype(fields))
        if self._fh.readinto(records.view(np.uint8)) != size * count:
            raise FileFormatError(f"truncated file: {what} shrank while read", self.offset)
        return records


def write_container(path, magic: bytes, header: list, values: tuple, body: list, *columns) -> None:
    """Write ``magic``, the header record ``values`` of the layout ``header`` and
    one body record of the layout ``body`` per leading index of the columns,
    which follow the order of the body's fields. The records go out in
    ``gaussians.row_chunks`` chunks at _FILL_BYTES through one reused buffer.
    Raises ValueError naming the field, before the file is opened, unless there
    is one column per field and each has the first column's length and its
    field's shape after it."""
    if len(columns) != len(body):
        raise ValueError(f"{len(columns)} columns for {len(body)} fields")
    count = len(columns[0])
    for (name, _, shape), column in zip(body, columns):
        want = (count, *shape)
        if np.shape(column) != want:
            raise ValueError(f"column {name!r} has shape {np.shape(column)}, expected {want}")
    dtype = np.dtype(body)
    parts = list(gaussians.row_chunks(count, dtype.itemsize, gaussians._FILL_BYTES))
    records = np.empty(max((part.stop - part.start for part in parts), default=0), dtype)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.array(values, dtype=np.dtype(header)).tobytes())
        for part in parts:
            chunk = records[:part.stop - part.start]
            for (name, _, _), column in zip(body, columns):
                chunk[name] = column[part]
            fh.write(chunk.view(np.uint8))
