"""Versioned, checksummed, mmap-able model artifacts.

The container holds named float/int arrays (struct-of-arrays model state)
behind a small self-describing header::

    offset 0   magic          b"GBAF"                      (4 bytes)
    offset 4   format version uint32, little-endian        (4 bytes)
    offset 8   header length  uint64, little-endian        (8 bytes)
    offset 16  header         UTF-8 JSON
    ...        zero padding to a 64-byte boundary
    data       the arrays, each at a 64-byte-aligned offset
               (relative offsets recorded in the header)

The header JSON records every array's dtype/shape/offset, arbitrary model
metadata, and a CRC-32 over the whole data section.  Design goals, in
order:

* **mmap-read-only load.**  :func:`load_artifact` maps the file and hands
  out zero-copy array views; N serving processes opening the same artifact
  share one page-cache copy, so attach time is near zero and memory cost
  is paid once per machine, not per process (the lesson of the PR 3 data
  plane, applied to model state).
* **Fail loudly.**  A wrong magic, a future format version, a truncated
  file or a flipped payload bit each raise :class:`ValueError` with a
  message naming the problem — never an opaque numpy/JSON error.
* **Publish atomically.**  :func:`write_artifact` spools to a temporary
  sibling, fsyncs, and ``os.replace``-s into place, so readers only ever
  see complete artifacts (same discipline as the experiment cell store).

64-byte alignment keeps every array cacheline- and SIMD-aligned however
the preceding arrays are sized.
"""

from __future__ import annotations

import json
import mmap
import os
import time
import zlib
from pathlib import Path

import numpy as np

__all__ = [
    "Artifact",
    "FORMAT_VERSION",
    "MAGIC",
    "freeze_classifier",
    "load_artifact",
    "write_artifact",
]

MAGIC = b"GBAF"
FORMAT_VERSION = 1

_ALIGN = 64
_PREFIX_BYTES = 16  # magic + version + header length


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _corrupt(path, why: str) -> ValueError:
    return ValueError(f"{path}: corrupt model artifact — {why}")


def write_artifact(path, arrays: dict[str, np.ndarray], meta: dict) -> dict:
    """Write an artifact file atomically; returns the header written.

    Parameters
    ----------
    path:
        Destination file.  The write spools to a ``.tmp-<pid>`` sibling in
        the same directory and renames into place, so a crash never leaves
        a half-written artifact under the final name.
    arrays:
        Named model arrays.  Stored C-contiguous in insertion order.
    meta:
        JSON-serialisable model metadata, stored verbatim in the header.
    """
    path = Path(path)
    canonical = {
        name: np.ascontiguousarray(array) for name, array in arrays.items()
    }
    layout = {}
    rel = 0
    for name, array in canonical.items():
        rel = _align(rel)
        layout[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": rel,
            "nbytes": array.nbytes,
        }
        rel += array.nbytes
    data_nbytes = rel

    crc = 0
    cursor = 0
    for name, array in canonical.items():
        pad = layout[name]["offset"] - cursor
        if pad:
            crc = zlib.crc32(b"\0" * pad, crc)
        crc = zlib.crc32(array.view(np.uint8).reshape(-1).data, crc)
        cursor = layout[name]["offset"] + array.nbytes

    header = {
        "arrays": layout,
        "meta": meta,
        "data_nbytes": data_nbytes,
        "data_crc32": crc,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(_PREFIX_BYTES + len(header_bytes))

    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(FORMAT_VERSION.to_bytes(4, "little"))
            handle.write(len(header_bytes).to_bytes(8, "little"))
            handle.write(header_bytes)
            handle.write(b"\0" * (data_start - _PREFIX_BYTES - len(header_bytes)))
            cursor = 0
            for name, array in canonical.items():
                pad = layout[name]["offset"] - cursor
                if pad:
                    handle.write(b"\0" * pad)
                handle.write(array.view(np.uint8).reshape(-1).data)
                cursor = layout[name]["offset"] + array.nbytes
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return header


class Artifact:
    """A loaded (memory-mapped) model artifact.

    Attributes
    ----------
    arrays:
        Name → read-only zero-copy array view into the mapping.
    meta:
        The metadata dict stored at freeze time.
    version:
        Format version of the file.
    nbytes:
        Total file size in bytes.

    The mapping stays open for the life of the object (array views borrow
    it); use as a context manager or call :meth:`close` when done.
    """

    def __init__(self, path, version: int, meta: dict,
                 arrays: dict[str, np.ndarray], mapping: mmap.mmap,
                 nbytes: int):
        self.path = Path(path)
        self.version = int(version)
        self.meta = meta
        self.arrays = arrays
        self.nbytes = int(nbytes)
        self._mapping = mapping

    @property
    def closed(self) -> bool:
        """``True`` once the mapping has been released."""
        return self._mapping is None

    def close(self) -> None:
        """Release the mapping (every array view must be dropped first)."""
        self.arrays = {}
        if self._mapping is not None:
            try:
                self._mapping.close()
            except BufferError:
                raise BufferError(
                    f"{self.path}: cannot close the artifact while array "
                    "views into it are still alive; drop them first"
                ) from None
            self._mapping = None

    def __enter__(self) -> "Artifact":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_artifact(path, verify: bool = True) -> Artifact:
    """Map an artifact read-only and return zero-copy array views.

    Parameters
    ----------
    path:
        Artifact file written by :func:`write_artifact`.
    verify:
        Check the data-section CRC-32 (touches every page once; later
        readers of the same artifact hit the shared page cache).  Pass
        ``False`` for the fastest possible attach when the file's
        integrity is assured by other means.

    Raises
    ------
    ValueError
        On a wrong magic, a format version this build cannot read, a
        corrupt header, a truncated file, or (with ``verify``) a checksum
        mismatch.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX_BYTES)
        if len(prefix) < _PREFIX_BYTES or prefix[:4] != MAGIC:
            raise ValueError(
                f"{path}: not a model artifact (bad magic; expected "
                f"{MAGIC!r})"
            )
        version = int.from_bytes(prefix[4:8], "little")
        if not 1 <= version <= FORMAT_VERSION:
            raise ValueError(
                f"{path}: artifact format version {version} is not "
                f"readable by this build (supports 1..{FORMAT_VERSION}); "
                "upgrade, or re-freeze the model with this release"
            )
        header_len = int.from_bytes(prefix[8:16], "little")
        file_size = os.fstat(handle.fileno()).st_size
        if _PREFIX_BYTES + header_len > file_size:
            raise _corrupt(path, "header extends past end of file")
        header_bytes = handle.read(header_len)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            layout = header["arrays"]
            meta = header["meta"]
            data_nbytes = int(header["data_nbytes"])
            data_crc32 = int(header["data_crc32"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise _corrupt(path, f"unreadable header ({exc})") from None

        data_start = _align(_PREFIX_BYTES + header_len)
        if data_start + data_nbytes != file_size:
            raise _corrupt(
                path,
                f"expected {data_start + data_nbytes} bytes, file has "
                f"{file_size} (truncated or trailing garbage)",
            )

        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        if verify:
            actual = zlib.crc32(memoryview(mapping)[data_start:])
            if actual != data_crc32:
                raise _corrupt(
                    path,
                    f"data checksum mismatch (stored {data_crc32:#010x}, "
                    f"computed {actual:#010x})",
                )
        arrays = {}
        for name, spec in layout.items():
            offset = data_start + int(spec["offset"])
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if offset + count * dtype.itemsize > file_size:
                raise _corrupt(path, f"array {name!r} extends past end of file")
            arrays[name] = np.frombuffer(
                mapping, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
    except Exception:
        mapping.close()
        raise
    return Artifact(path, version, meta, arrays, mapping, file_size)


def freeze_classifier(clf, path) -> dict:
    """Freeze a fitted :class:`GranularBallClassifier` into an artifact.

    The artifact stores the SoA ball geometry (centres, radii, original
    labels and their 0..K-1 codes) plus the precomputed acceleration state
    (cached squared centre norms) that the chunked nearest-ball kernel
    consumes — exactly the arrays the in-memory predict path uses, so
    :class:`~repro.serving.predictor.FrozenPredictor` is bit-identical to
    ``clf.predict`` by construction.

    Returns the header dict written (handy for logging the layout).
    """
    from repro.classifiers.base import validate_fitted

    validate_fitted(clf)
    ball_set = clf.ball_set_
    if len(ball_set) == 0:
        raise ValueError("cannot freeze an empty ball set")
    classes = np.asarray(clf.classes_)
    labels = ball_set.labels
    label_codes = np.searchsorted(classes, labels).astype(np.int64)
    arrays = {
        "centers": ball_set.centers.astype(np.float64, copy=False),
        "radii": ball_set.radii.astype(np.float64, copy=False),
        "labels": labels.astype(np.int64, copy=False),
        "label_codes": label_codes,
        "center_sq_norms": ball_set.center_sq_norms.astype(
            np.float64, copy=False
        ),
    }
    meta = {
        "kind": "granular-ball-classifier",
        "n_balls": int(len(ball_set)),
        "n_features": int(ball_set.centers.shape[1]),
        "n_source_samples": int(ball_set.n_source_samples),
        "classes": [int(c) for c in classes],
        "params": {
            "rho": int(clf.rho),
            "random_state": clf.random_state,
            "include_orphans": bool(clf.include_orphans),
        },
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return write_artifact(path, arrays, meta)
