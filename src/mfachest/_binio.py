"""The little-endian container shared by the dataset (CHD1) and model (MFA1,
GMM1) file formats.

A container is a 4-byte magic, one header record and a body of records, and
nothing after them. A record layout is a list of fields packed without
padding: ``(name, dtype)`` pairs for a header, e.g.
``[("version", "<u4"), ("dim", "<u4")]``, and ``(name, dtype, shape)``
triples for a body record, e.g.
``[("weight", "<f8", ()), ("mean", "<c16", (N,))]``. The header gives the
body's layout and record count; the body's byte count is
checked against the rest of the file before its dtype or array is built, so a
header that declares more records than the file holds raises FileFormatError
instead of allocating.
"""

from __future__ import annotations

import math

import numpy as np


class FileFormatError(ValueError):
    """A binary file failed structural validation (bad magic, version, truncation)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class Container:
    """A container file read whole: ``header`` holds its header record as a tuple
    of Python scalars in field order, and ``body`` reads the records that follow."""

    def __init__(self, path, magic: bytes, header: list):
        with open(path, "rb") as fh:
            self._data = fh.read()
        self._magic = magic
        self.offset = 0
        got = bytes(self._take(len(magic), "magic"))
        if got != magic:
            raise FileFormatError(f"bad magic {got!r}, expected {magic!r}", 0)
        self._header = np.dtype(header)
        record = np.frombuffer(self._take(self._header.itemsize, "header"), self._header)[0]
        self.header = record.item()

    def offset_of(self, name: str) -> int:
        """File offset of the header field ``name``."""
        return len(self._magic) + self._header.fields[name][1]

    def _take(self, count: int, what: str) -> memoryview:
        end = self.offset + count
        if end > len(self._data):
            raise FileFormatError(
                f"truncated file: need {count} bytes for {what}, "
                f"have {len(self._data) - self.offset}",
                self.offset,
            )
        chunk = memoryview(self._data)[self.offset:end]
        self.offset = end
        return chunk

    def body(self, fields: list, count: int, what: str) -> np.ndarray:
        """The ``count`` records of the layout ``fields`` that end the file, as a
        structured array."""
        size = sum(np.dtype(base).itemsize * math.prod(shape) for _, base, shape in fields)
        chunk = self._take(size * count, what)
        if self.offset != len(self._data):
            raise FileFormatError(
                f"trailing data: {len(self._data) - self.offset} unexpected bytes", self.offset
            )
        return np.frombuffer(chunk, dtype=np.dtype(fields), count=count).copy()


def write_container(path, magic: bytes, header: list, values: tuple, body: list, *columns) -> None:
    """Write ``magic``, the header record ``values`` of the layout ``header`` and
    one body record of the layout ``body`` per leading index of the columns,
    which follow the order of the body's fields."""
    records = np.empty(len(columns[0]), dtype=np.dtype(body))
    for (name, _, _), column in zip(body, columns):
        records[name] = column
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.array(values, dtype=np.dtype(header)).tobytes())
        records.tofile(fh)
