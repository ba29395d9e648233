"""Minimal NIfTI-1 codec: single-file 3D volumes, optionally gzipped.

Only the subset of the format this pipeline needs is supported: one 3D
frame, scalar datatypes, spacing from ``pixdim``, orientation fields
(qform/sform) read and carried through verbatim.  Data is stored on disk
in the standard NIfTI layout (x fastest), which is how arrays are kept
in memory here as well.

A ``.nii.gz`` is written as one gzip member, mtime 0 and no file name,
deflated with zlib's run-length strategy (``Z_RLE``) in about a fifth
of the time of gzip's level-9 default: float32 intensities barely
compress at any level, and run-length matches suit label maps.  What a
file holds is its decoded header and voxels; its compressed bytes are
not a contract.  Any valid gzip stream reads, so files written at
another level or strategy load unchanged.

``atomic_open`` also lives here, at the bottom of the import graph:
every output file, volumes and the ``run-config.json`` echo included, is
written through it.  So do the package's one JSON writer, ``write_json``,
and its one reader and writer of per-case CSV tables, ``read_case_table``
and ``write_case_table``.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"

# datatype codes from the NIfTI-1 standard
_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
    256: np.dtype(np.int8),
    512: np.dtype(np.uint16),
    768: np.dtype(np.uint32),
}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}

_HEADER_DTYPE = np.dtype(
    [
        ("sizeof_hdr", "<i4"),
        ("data_type", "S10"),
        ("db_name", "S18"),
        ("extents", "<i4"),
        ("session_error", "<i2"),
        ("regular", "S1"),
        ("dim_info", "u1"),
        ("dim", "<i2", (8,)),
        ("intent_p1", "<f4"),
        ("intent_p2", "<f4"),
        ("intent_p3", "<f4"),
        ("intent_code", "<i2"),
        ("datatype", "<i2"),
        ("bitpix", "<i2"),
        ("slice_start", "<i2"),
        ("pixdim", "<f4", (8,)),
        ("vox_offset", "<f4"),
        ("scl_slope", "<f4"),
        ("scl_inter", "<f4"),
        ("slice_end", "<i2"),
        ("slice_code", "u1"),
        ("xyzt_units", "u1"),
        ("cal_max", "<f4"),
        ("cal_min", "<f4"),
        ("slice_duration", "<f4"),
        ("toffset", "<f4"),
        ("glmax", "<i4"),
        ("glmin", "<i4"),
        ("descrip", "S80"),
        ("aux_file", "S24"),
        ("qform_code", "<i2"),
        ("sform_code", "<i2"),
        ("quatern_b", "<f4"),
        ("quatern_c", "<f4"),
        ("quatern_d", "<f4"),
        ("qoffset_x", "<f4"),
        ("qoffset_y", "<f4"),
        ("qoffset_z", "<f4"),
        ("srow_x", "<f4", (4,)),
        ("srow_y", "<f4", (4,)),
        ("srow_z", "<f4", (4,)),
        ("intent_name", "S16"),
        ("magic", "S4"),
    ]
)
if _HEADER_DTYPE.itemsize != HEADER_SIZE:
    raise RuntimeError(
        f"NIfTI-1 header layout is {_HEADER_DTYPE.itemsize} bytes,"
        f" not {HEADER_SIZE}"
    )


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI file."""


@dataclass(frozen=True)
class Orientation:
    """Raw qform/sform header fields, preserved across load/save.

    The pipeline itself never uses these (all computation happens in
    voxel/spacing space); they exist so that files written back next to
    their inputs keep the original physical frame.
    """

    qform_code: int = 0
    sform_code: int = 1
    qfac: float = 1.0
    quatern: tuple[float, float, float] = (0.0, 0.0, 0.0)
    qoffset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    srow_x: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    srow_y: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 0.0)
    srow_z: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 0.0)


@dataclass
class RawNifti:
    """Decoded file: array in (x, y, z) index order plus geometry."""

    data: np.ndarray
    spacing: tuple[float, float, float]
    orientation: Orientation = field(default_factory=Orientation)


def _read_bytes(path: Path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                try:
                    return gz.read()
                except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
                    raise NiftiError(f"{path}: corrupt gzip stream: {exc}") from exc
        return fh.read()


def read_nifti(path: str | Path) -> RawNifti:
    """Read a single-file NIfTI-1 volume (.nii or .nii.gz).

    Raises NiftiError for malformed headers, unsupported datatypes, or
    non-3D frames.  Voxel order on disk (x fastest) is preserved, so the
    value written at index (i, j, k) is read back at (i, j, k).
    """
    path = Path(path)
    blob = _read_bytes(path)
    if len(blob) < HEADER_SIZE:
        raise NiftiError(f"{path}: file shorter than a NIfTI-1 header")

    hdr = np.frombuffer(blob[:HEADER_SIZE], dtype=_HEADER_DTYPE)[0]
    swapped = False
    if int(hdr["sizeof_hdr"]) != HEADER_SIZE:
        hdr = np.frombuffer(blob[:HEADER_SIZE], dtype=_HEADER_DTYPE.newbyteorder())[0]
        swapped = True
        if int(hdr["sizeof_hdr"]) != HEADER_SIZE:
            raise NiftiError(f"{path}: bad sizeof_hdr, not a NIfTI-1 file")
    magic = bytes(hdr["magic"]).rstrip(b"\x00")
    if magic not in (b"n+1", b"ni1"):
        raise NiftiError(f"{path}: unrecognized magic {magic!r}")
    if magic != b"n+1":
        raise NiftiError(f"{path}: two-file (.hdr/.img) NIfTI is not supported")

    dim = np.asarray(hdr["dim"], dtype=int)
    ndim = int(dim[0])
    if ndim < 3 or ndim > 7:
        raise NiftiError(f"{path}: expected a 3D volume, got dim[0]={ndim}")
    if any(d != 1 for d in dim[4 : ndim + 1]):
        raise NiftiError(f"{path}: higher-dimensional frames are not supported")
    nx, ny, nz = (int(d) for d in dim[1:4])
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise NiftiError(f"{path}: non-positive dimensions {(nx, ny, nz)}")

    code = int(hdr["datatype"])
    if code not in _DTYPES:
        raise NiftiError(f"{path}: unsupported datatype code {code}")
    dtype = _DTYPES[code]
    if swapped:
        dtype = dtype.newbyteorder()

    vox_offset = float(hdr["vox_offset"])
    if not np.isfinite(vox_offset):
        raise NiftiError(f"{path}: non-finite vox_offset {vox_offset}")
    offset = int(vox_offset)
    nbytes = nx * ny * nz * dtype.itemsize
    if offset < HEADER_SIZE or offset + nbytes > len(blob):
        raise NiftiError(f"{path}: voxel data truncated")
    data = np.frombuffer(blob[offset : offset + nbytes], dtype=dtype)
    data = data.reshape((nx, ny, nz), order="F")
    if swapped:
        data = data.astype(dtype.newbyteorder("="))

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if (slope not in (0.0, 1.0)) or inter != 0.0:
        eff = slope if slope != 0.0 else 1.0
        data = data.astype(np.float64) * eff + inter

    pixdim = np.asarray(hdr["pixdim"], dtype=float)
    spacing = (float(pixdim[1]), float(pixdim[2]), float(pixdim[3]))
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise NiftiError(f"{path}: non-positive pixdim spacing {spacing}")

    orient = Orientation(
        qform_code=int(hdr["qform_code"]),
        sform_code=int(hdr["sform_code"]),
        qfac=float(pixdim[0]) if pixdim[0] in (-1.0, 1.0) else 1.0,
        quatern=(float(hdr["quatern_b"]), float(hdr["quatern_c"]), float(hdr["quatern_d"])),
        qoffset=(float(hdr["qoffset_x"]), float(hdr["qoffset_y"]), float(hdr["qoffset_z"])),
        srow_x=tuple(float(v) for v in hdr["srow_x"]),
        srow_y=tuple(float(v) for v in hdr["srow_y"]),
        srow_z=tuple(float(v) for v in hdr["srow_z"]),
    )
    return RawNifti(data=data, spacing=spacing, orientation=orient)


def write_nifti(raw: RawNifti, path: str | Path) -> None:
    """Write a 3D array as single-file NIfTI-1; gzip when path ends in .gz."""
    path = Path(path)
    data = np.asarray(raw.data)
    if data.ndim != 3:
        raise NiftiError(f"expected 3D data, got shape {data.shape}")
    dtype = np.dtype(data.dtype).newbyteorder("=")
    if dtype not in _DTYPE_CODES:
        raise NiftiError(f"unsupported on-disk dtype {dtype}")

    hdr = np.zeros(1, dtype=_HEADER_DTYPE)[0]
    o = raw.orientation
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = [3, data.shape[0], data.shape[1], data.shape[2], 1, 1, 1, 1]
    hdr["datatype"] = _DTYPE_CODES[dtype]
    hdr["bitpix"] = dtype.itemsize * 8
    hdr["pixdim"] = [o.qfac, raw.spacing[0], raw.spacing[1], raw.spacing[2], 0, 0, 0, 0]
    hdr["vox_offset"] = HEADER_SIZE + 4
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # millimetres
    hdr["qform_code"] = o.qform_code
    hdr["sform_code"] = o.sform_code
    hdr["quatern_b"], hdr["quatern_c"], hdr["quatern_d"] = o.quatern
    hdr["qoffset_x"], hdr["qoffset_y"], hdr["qoffset_z"] = o.qoffset
    hdr["srow_x"] = o.srow_x
    hdr["srow_y"] = o.srow_y
    hdr["srow_z"] = o.srow_z
    hdr["magic"] = MAGIC_SINGLE

    blob = hdr.tobytes() + b"\x00\x00\x00\x00" + np.asfortranarray(data).tobytes(order="F")
    if path.suffix == ".gz":
        # wbits 31 writes the gzip wrapper with mtime 0 and no file name,
        # so identical volumes produce byte-identical files
        gz = zlib.compressobj(9, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
        blob = gz.compress(blob) + gz.flush()
    with atomic_open(path, binary=True) as fh:
        fh.write(blob)


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None,
                binary: bool = False):
    """Text handle, or binary with ``binary``, that replaces ``path`` whole.

    Writes go to a temporary file beside ``path``.  It replaces ``path``
    only when the block exits cleanly and is removed otherwise, so a
    failed or killed write never leaves a truncated ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc) -> None:
    """``doc`` as JSON, indented by 2 with sorted keys and a final newline."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_case_table(path: str | Path, columns, rows, key: str = "case_id") -> None:
    """A CSV table: the header ``key`` and ``columns``, then per ``(id,
    values)`` of ``rows`` a line of the id and the ``repr`` of each value,
    which reads back exactly."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([key, *columns])
        writer.writerows([name, *(repr(float(v)) for v in values)] for name, values in rows)


def read_case_table(path: str | Path, what: str) -> tuple[list, list, list]:
    """``(columns, case_ids, rows)`` of a ``write_case_table`` CSV, with
    each row's values as floats.  A file without the ``case_id`` column
    (a ``what``), a row of the wrong width or a cell that is not a finite
    number raises ValueError naming ``path`` and, for a cell, its case
    and column."""
    with open(path, newline="") as fh:
        header, *records = list(csv.reader(fh)) or [None]
    if not header or header[0] != "case_id":
        raise ValueError(f"{path}: not a {what} (missing case_id column)")
    columns, rows = header[1:], []
    for rec in records:
        if len(rec) != len(header):
            raise ValueError(f"{path}: row {len(rows) + 1} has {len(rec)}"
                             f" fields, expected {len(header)}")
        rows.append([])
        for column, cell in zip(columns, rec[1:]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan  # not a number at all
            if not math.isfinite(value):
                raise ValueError(f"{path}: case {rec[0]!r}, column {column!r}: "
                                 f"not a finite number: {cell!r}")
            rows[-1].append(value)
    return columns, [rec[0] for rec in records], rows
