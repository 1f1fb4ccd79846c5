"""Little-endian binary container helpers shared by the dataset and model file formats.

The model formats store their K components as K fixed-size records, which
``ByteReader.records`` and ``ByteWriter.records`` move as one numpy
structured array. A record layout is a list of ``(name, dtype, shape)``
fields, e.g. ``[("weight", "<f8", ()), ("mean", "<c16", (N,))]``.
"""

from __future__ import annotations

import math
import struct

import numpy as np


class FileFormatError(ValueError):
    """A binary file failed structural validation (bad magic, version, truncation)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ByteReader:
    """Sequential reader over an in-memory buffer with offset-aware errors."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def offset(self) -> int:
        return self._pos

    def _take(self, count: int, what: str) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise FileFormatError(
                f"truncated file: need {count} bytes for {what}, "
                f"have {len(self._data) - self._pos}",
                self._pos,
            )
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def magic(self, expected: bytes) -> None:
        got = self._take(len(expected), "magic")
        if got != expected:
            raise FileFormatError(f"bad magic {got!r}, expected {expected!r}", 0)

    def u8(self, what: str = "u8") -> int:
        return self._take(1, what)[0]

    def u32(self, what: str = "u32") -> int:
        return struct.unpack("<I", self._take(4, what))[0]

    def u64(self, what: str = "u64") -> int:
        return struct.unpack("<Q", self._take(8, what))[0]

    def f64(self, what: str = "f64") -> float:
        return struct.unpack("<d", self._take(8, what))[0]

    def complex_array(self, count: int, what: str = "complex array") -> np.ndarray:
        chunk = self._take(16 * count, what)
        return np.frombuffer(chunk, dtype="<c16").astype(np.complex128)

    def records(self, fields: list, count: int, what: str = "records") -> np.ndarray:
        """``count`` records of the layout ``fields`` as a structured array.

        The byte count is checked against the rest of the file before the
        dtype or the array is built, so a header that declares more records
        than the file holds raises FileFormatError instead of allocating.
        """
        size = sum(np.dtype(base).itemsize * math.prod(shape) for _, base, shape in fields)
        chunk = self._take(size * count, what)
        return np.frombuffer(chunk, dtype=np.dtype(fields), count=count).copy()

    def expect_eof(self) -> None:
        if self._pos != len(self._data):
            raise FileFormatError(
                f"trailing data: {len(self._data) - self._pos} unexpected bytes",
                self._pos,
            )


class ByteWriter:
    """Builds the little-endian byte stream mirrored by ByteReader."""

    def __init__(self):
        self._parts: list[bytes] = []

    def magic(self, value: bytes) -> None:
        self._parts.append(value)

    def u8(self, value: int) -> None:
        self._parts.append(bytes([value]))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def complex_array(self, values: np.ndarray) -> None:
        self._parts.append(np.asarray(values, dtype="<c16").tobytes())

    def records(self, fields: list, *columns: np.ndarray) -> None:
        """One record of the layout ``fields`` per leading index of the columns,
        which follow the order of the fields."""
        out = np.empty(len(columns[0]), dtype=np.dtype(fields))
        for (name, _, _), column in zip(fields, columns):
            out[name] = column
        self._parts.append(out.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)
