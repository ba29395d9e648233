"""File-format codec tests: round trips, header handling, bad inputs.

Offsets used for byte patching (112 scl_slope, 116 scl_inter, 344 magic,
70 datatype, 40 dim) come from the published NIfTI-1 header layout, not
from the module under test.
"""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gliopost.nifti import NiftiError, Orientation, RawNifti, read_nifti, write_nifti


def _round_trip(tmp_path, data, spacing=(1.0, 1.0, 1.0), name="vol.nii.gz", orient=None):
    path = tmp_path / name
    kwargs = {} if orient is None else {"orientation": orient}
    write_nifti(RawNifti(data=data, spacing=spacing, **kwargs), path)
    return read_nifti(path)


def test_round_trip_zero_labels(tmp_path):
    data = np.zeros((4, 4, 4), dtype=np.uint8)
    back = _round_trip(tmp_path, data)
    assert back.data.dtype == np.uint8
    assert np.array_equal(back.data, data)
    assert back.spacing == (1.0, 1.0, 1.0)


def test_round_trip_random_scalar_bitwise(tmp_path):
    rng = np.random.default_rng(42)
    data = rng.standard_normal((8, 8, 8)).astype(np.float32)
    back = _round_trip(tmp_path, data, spacing=(1.0, 1.25, 2.5))
    assert back.data.dtype == np.float32
    assert back.data.tobytes() == data.tobytes()
    assert back.spacing == (1.0, 1.25, 2.5)


def test_round_trip_single_voxel(tmp_path):
    back = _round_trip(tmp_path, np.full((1, 1, 1), 3, dtype=np.uint8))
    assert back.data.shape == (1, 1, 1)
    assert back.data[0, 0, 0] == 3


def test_index_order_preserved(tmp_path):
    data = np.arange(3 * 4 * 5, dtype=np.int32).reshape(3, 4, 5)
    back = _round_trip(tmp_path, data)
    assert np.array_equal(back.data, data)
    assert back.data[2, 1, 4] == data[2, 1, 4]


def test_uncompressed_nii_supported(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    back = _round_trip(tmp_path, data, name="vol.nii")
    assert np.array_equal(back.data, data)


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    data = (rng.random((6, 5, 4)) * 4).astype(np.uint8)
    raw = RawNifti(data=data, spacing=(1.0, 1.0, 1.0))
    write_nifti(raw, tmp_path / "a.nii.gz")
    write_nifti(raw, tmp_path / "b.nii.gz")
    assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()

    back = read_nifti(tmp_path / "a.nii.gz")
    write_nifti(back, tmp_path / "c.nii.gz")
    assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "c.nii.gz").read_bytes()


def test_orientation_preserved(tmp_path):
    orient = Orientation(
        qform_code=1,
        sform_code=2,
        qfac=-1.0,
        quatern=(0.5, 0.25, 0.125),
        qoffset=(-96.0, -128.0, -74.0),
        srow_x=(0.0, 1.0, 0.0, -96.0),
        srow_y=(-1.0, 0.0, 0.0, -128.0),
        srow_z=(0.0, 0.0, 1.0, -74.0),
    )
    data = np.zeros((2, 2, 2), dtype=np.uint8)
    back = _round_trip(tmp_path, data, orient=orient)
    assert back.orientation == orient


def test_scl_slope_and_inter_applied(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "scaled.nii"
    write_nifti(RawNifti(data=data, spacing=(1.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    blob[112:116] = np.float32(2.0).tobytes()
    blob[116:120] = np.float32(0.5).tobytes()
    path.write_bytes(bytes(blob))
    back = read_nifti(path)
    assert np.allclose(back.data, data.astype(np.float64) * 2.0 + 0.5)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nii"
    write_nifti(RawNifti(data=np.zeros((2, 2, 2), np.uint8), spacing=(1, 1, 1)), path)
    blob = bytearray(path.read_bytes())
    blob[344:348] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(NiftiError):
        read_nifti(path)


def test_unsupported_datatype_rejected(tmp_path):
    path = tmp_path / "bad.nii"
    write_nifti(RawNifti(data=np.zeros((2, 2, 2), np.uint8), spacing=(1, 1, 1)), path)
    blob = bytearray(path.read_bytes())
    blob[70:72] = np.int16(1).tobytes()  # 1-bit binary, unsupported
    path.write_bytes(bytes(blob))
    with pytest.raises(NiftiError):
        read_nifti(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.nii"
    write_nifti(RawNifti(data=np.zeros((4, 4, 4), np.uint8), spacing=(1, 1, 1)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(NiftiError):
        read_nifti(path)

    short = tmp_path / "short.nii"
    short.write_bytes(blob[:100])
    with pytest.raises(NiftiError):
        read_nifti(short)


def test_garbage_gzip_member_rejected(tmp_path):
    path = tmp_path / "garbage.nii.gz"
    path.write_bytes(gzip.compress(b"not a nifti at all"))
    with pytest.raises(NiftiError):
        read_nifti(path)


def test_nonpositive_pixdim_rejected(tmp_path):
    path = tmp_path / "bad.nii"
    write_nifti(RawNifti(data=np.zeros((2, 2, 2), np.uint8), spacing=(1, 1, 1)), path)
    blob = bytearray(path.read_bytes())
    blob[80:84] = np.float32(0.0).tobytes()  # pixdim[1]
    path.write_bytes(bytes(blob))
    with pytest.raises(NiftiError):
        read_nifti(path)


def test_four_dim_single_frame_accepted(tmp_path):
    path = tmp_path / "vol4d.nii"
    write_nifti(RawNifti(data=np.ones((3, 3, 3), np.uint8), spacing=(1, 1, 1)), path)
    blob = bytearray(path.read_bytes())
    blob[40:42] = np.int16(4).tobytes()  # dim[0] = 4, dim[4] stays 1
    path.write_bytes(bytes(blob))
    back = read_nifti(path)
    assert back.data.shape == (3, 3, 3)

    blob[48:50] = np.int16(2).tobytes()  # dim[4] = 2: a real 4D stack
    path.write_bytes(bytes(blob))
    with pytest.raises(NiftiError):
        read_nifti(path)


def test_byte_swapped_header_read(tmp_path):
    from gliopost.nifti import _HEADER_DTYPE  # layout factory for a foreign-endian file

    data = np.arange(2 * 2 * 3, dtype=np.int16).reshape(2, 2, 3)
    hdr = np.zeros(1, dtype=_HEADER_DTYPE.newbyteorder(">"))[0]
    hdr["sizeof_hdr"] = 348
    hdr["dim"] = [3, 2, 2, 3, 1, 1, 1, 1]
    hdr["datatype"] = 4
    hdr["bitpix"] = 16
    hdr["pixdim"] = [1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0]
    hdr["vox_offset"] = 352.0
    hdr["scl_slope"] = 1.0
    hdr["magic"] = b"n+1"
    big = data.astype(">i2")
    path = tmp_path / "big.nii"
    path.write_bytes(hdr.tobytes() + b"\x00" * 4 + np.asfortranarray(big).tobytes(order="F"))
    back = read_nifti(path)
    assert np.array_equal(back.data, data)


def test_non_finite_vox_offset_rejected(tmp_path):
    path = tmp_path / "offset.nii"
    write_nifti(RawNifti(data=np.zeros((2, 2, 2), np.uint8), spacing=(1, 1, 1)), path)
    blob = bytearray(path.read_bytes())
    for value in (np.inf, -np.inf, np.nan):
        blob[108:112] = np.float32(value).tobytes()  # vox_offset
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match=str(path)):
            read_nifti(path)


# (byte offset, struct format) of every numeric NIfTI-1 header field and
# the magic, from the published layout
_HEADER_FIELDS = (
    [(0, "<i"), (32, "<i"), (36, "<h"), (38, "<B"), (39, "<B")]
    + [(40 + 2 * i, "<h") for i in range(8)]  # dim
    + [(56, "<f"), (60, "<f"), (64, "<f")]  # intent_p1..p3
    + [(68, "<h"), (70, "<h"), (72, "<h"), (74, "<h")]  # intent_code..slice_start
    + [(76 + 4 * i, "<f") for i in range(8)]  # pixdim
    + [(108, "<f"), (112, "<f"), (116, "<f")]  # vox_offset, scl_slope, scl_inter
    + [(120, "<h"), (122, "<B"), (123, "<B")]
    + [(124 + 4 * i, "<f") for i in range(4)]  # cal_max..toffset
    + [(140, "<i"), (144, "<i"), (252, "<h"), (254, "<h")]
    + [(256 + 4 * i, "<f") for i in range(18)]  # quatern, qoffset, srow
    + [(344, "4s")]
)
_FIELD_VALUES = {
    "<B": st.integers(0, 2**8 - 1),
    "<h": st.integers(-(2**15), 2**15 - 1),
    "<i": st.integers(-(2**31), 2**31 - 1),
    "<f": st.floats(width=32),
    "4s": st.binary(min_size=4, max_size=4),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_raises_only_nifti_error(tmp_path, data):
    """Cutting a valid file short, plain or gzipped, overwriting one
    header field, or flipping one byte of the gzip stream reads or
    raises NiftiError.  The reader checks the size the header asks for
    against the bytes present before it allocates, so no drawn dim makes
    it allocate more than the 592-byte file holds."""
    plain = tmp_path / "vol.nii"
    write_nifti(RawNifti(data=np.arange(60, dtype=np.float32).reshape(3, 4, 5),
                         spacing=(1.0, 1.5, 2.0)), plain)
    blob = bytearray(plain.read_bytes())
    damage = data.draw(st.sampled_from(("truncate", "truncate-gz", "field", "flip-gz")))
    if damage.endswith("gz"):
        blob = bytearray(gzip.compress(bytes(blob), mtime=0))
    if damage.startswith("truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    elif damage == "flip-gz":
        at = data.draw(st.integers(0, len(blob) - 1), label="byte")
        blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    else:
        offset, fmt = data.draw(st.sampled_from(_HEADER_FIELDS), label="field")
        value = data.draw(_FIELD_VALUES[fmt], label="value")
        blob[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    path = tmp_path / "damaged.nii"
    path.write_bytes(bytes(blob))
    try:
        read_nifti(path)
    except NiftiError:
        pass
