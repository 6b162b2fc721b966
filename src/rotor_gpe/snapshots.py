"""Field snapshot I/O: raw binary arrays with JSON sidecars.

A snapshot is a pair of files sharing one stem:

* ``<stem>.bin`` — the field values as little-endian interleaved
  ``(re, im)`` 64-bit floats in C order with the third index fastest
  (``z-fastest``), exactly the in-memory layout of a field's
  ``complex128`` array;
* ``<stem>.json`` — a sidecar with keys ``{n, extent, t, omega, beta,
  layout, dtype}`` where ``layout`` is always ``"z-fastest"`` and
  ``dtype`` always ``"c128"``.

The format is deliberately language-neutral: any consumer can
reconstruct the array from the sidecar alone.  Readers validate the
sidecar (``extent``, ``t``, ``omega`` and ``beta`` must be finite JSON
numbers), the byte count and the finiteness of the payload and raise
:class:`SnapshotFormatError` on any mismatch.

Every file the package writes (snapshots, the diagnostics CSV, manifests
and tables) goes through :func:`atomic_write`: the bytes land in a
temporary file in the target directory, which then replaces the final
name in one ``os.replace``.  An interrupted write therefore never leaves
a file under the final name that looks complete; the ``.bin`` is written
before its sidecar, so a new snapshot never shows a sidecar without its
data.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError
from .grid import Field, GridSpec, PhysicsParams

__all__ = ["SIDECAR_KEYS", "atomic_write", "write_snapshot", "read_snapshot"]

SIDECAR_KEYS = ("n", "extent", "t", "omega", "beta", "layout", "dtype")


def _write_all(fh, data) -> None:
    fh.write(data)


def atomic_write(path: str | Path, data) -> None:
    """Write ``data`` to ``path`` through a temporary file and ``os.replace``.

    ``data`` is any bytes-like object (``bytes``, a ``memoryview``, a
    C-contiguous array), written from its own buffer without a copy.
    The parent directory is created if needed.  On any failure the
    temporary file is removed and the error propagates; ``path`` then
    keeps whatever it held before (or stays absent).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            _write_all(fh, data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(
    stem: str | Path,
    field: Field,
    t: float,
    params: PhysicsParams,
) -> tuple[Path, Path]:
    """Write ``<stem>.bin`` then ``<stem>.json``, each atomically; returns the two paths.

    The payload is written straight from the field's buffer (a copy is
    made only on a big-endian host).
    """
    stem = Path(stem)
    bin_path = stem.with_suffix(".bin")
    json_path = stem.with_suffix(".json")
    data = np.ascontiguousarray(field.data, dtype="<c16")
    atomic_write(bin_path, memoryview(data).cast("B"))
    sidecar = {
        "n": field.grid.n,
        "extent": field.grid.extent,
        "t": float(t),
        "omega": params.omega,
        "beta": params.beta,
        "layout": "z-fastest",
        "dtype": "c128",
    }
    atomic_write(json_path, (json.dumps(sidecar, indent=2) + "\n").encode("utf-8"))
    return bin_path, json_path


def read_snapshot(stem: str | Path) -> tuple[Field, dict]:
    """Read a snapshot pair back into a field plus its sidecar dict.

    ``stem`` may be the bare stem or either of the two file paths.  The
    payload is read once into the field's own array (a copy is made
    only on a big-endian host), and ``Field`` checks it for NaN and Inf.
    """
    stem = Path(stem)
    if stem.suffix in (".bin", ".json"):
        stem = stem.with_suffix("")
    bin_path = stem.with_suffix(".bin")
    json_path = stem.with_suffix(".json")
    if not json_path.exists():
        raise SnapshotFormatError(f"sidecar {json_path} not found")
    if not bin_path.exists():
        raise SnapshotFormatError(f"binary file {bin_path} not found")
    try:
        sidecar = json.loads(json_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or past int()'s digit limit
        raise SnapshotFormatError(f"sidecar {json_path} is not valid JSON: {exc}")
    if not isinstance(sidecar, dict):
        raise SnapshotFormatError(
            f"sidecar {json_path}: expected a JSON object, got {type(sidecar).__name__}"
        )
    missing = [k for k in SIDECAR_KEYS if k not in sidecar]
    if missing:
        raise SnapshotFormatError(f"sidecar {json_path} lacks keys {missing}")
    if sidecar["layout"] != "z-fastest":
        raise SnapshotFormatError(
            f"unsupported layout {sidecar['layout']!r}; expected 'z-fastest'"
        )
    if sidecar["dtype"] != "c128":
        raise SnapshotFormatError(
            f"unsupported dtype {sidecar['dtype']!r}; expected 'c128'"
        )
    for key in ("extent", "t", "omega", "beta"):
        value = sidecar[key]
        try:  # a non-number raises TypeError, an integer past the float range OverflowError
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise SnapshotFormatError(f"sidecar {json_path}: {key} = {value!r} is not a finite number")
    try:
        grid = GridSpec(n=sidecar["n"], extent=sidecar["extent"])
    except ValueError as exc:  # ConfigInvalid
        raise SnapshotFormatError(f"sidecar {json_path}: {exc}") from None
    n = grid.n
    raw = np.fromfile(bin_path, dtype=np.uint8)
    expected = n**3 * 16
    if raw.size != expected:
        raise SnapshotFormatError(
            f"{bin_path} holds {raw.size} bytes; {expected} expected for n = {n}"
        )
    try:  # Field checks finiteness, and copies only on a big-endian host
        return Field(grid, raw.view("<c16").reshape(n, n, n)), sidecar
    except ValueError:
        raise SnapshotFormatError(f"{bin_path} holds NaN or Inf amplitudes") from None
