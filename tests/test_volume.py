"""Grid types, validation rules, and corpus-layout helpers."""

import numpy as np
import pytest

from gliopost.nifti import NiftiError, RawNifti, write_nifti
from gliopost.volume import (
    CaseBundle,
    LabelMap,
    ScalarVolume,
    Spacing,
    discover_case_ids,
    load_case_bundle,
    load_nifti,
    save_nifti,
    seg_filename,
    seq_filename,
)

SP = Spacing(1.0, 1.0, 1.0)


def test_spacing_validation():
    assert Spacing(1.0, 1.25, 2.5).voxel_volume == pytest.approx(3.125)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Spacing(bad, 1.0, 1.0)


def test_label_map_accepts_all_labels():
    data = np.zeros((2, 3, 2), dtype=np.uint8)
    data.flat[:5] = [0, 1, 2, 3, 4]
    lm = LabelMap(data=data, spacing=SP)
    assert lm.dims == (2, 3, 2)
    assert (lm.data == 3).sum() == 1


def test_label_map_rejects_out_of_range():
    data = np.zeros((2, 2, 2), dtype=np.uint8)
    data[0, 0, 0] = 5
    with pytest.raises(ValueError):
        LabelMap(data=data, spacing=SP)
    with pytest.raises(ValueError):
        LabelMap(data=np.full((2, 2, 2), -1, dtype=np.int8), spacing=SP)


def test_label_map_rejects_non_integral():
    with pytest.raises(ValueError):
        LabelMap(data=np.full((2, 2, 2), 3.7), spacing=SP)


def test_label_map_accepts_integral_floats():
    lm = LabelMap(data=np.full((2, 2, 2), 2.0), spacing=SP)
    assert lm.data.dtype == np.uint8
    assert int(lm.data[0, 0, 0]) == 2


def test_label_map_data_is_frozen():
    lm = LabelMap(data=np.zeros((2, 2, 2), np.uint8), spacing=SP)
    with pytest.raises(ValueError):
        lm.data[0, 0, 0] = 1


def test_with_data_keeps_geometry():
    lm = LabelMap(data=np.zeros((2, 2, 2), np.uint8), spacing=Spacing(1.0, 1.25, 2.5))
    out = lm.with_data(np.ones((2, 2, 2), np.uint8))
    assert out.spacing == lm.spacing
    assert out.orientation == lm.orientation
    assert out.data.sum() == 8


def test_scalar_volume_rejects_non_finite():
    data = np.ones((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarVolume(data=data, spacing=SP)


def test_case_bundle_congruence_checks():
    pred = LabelMap(data=np.zeros((3, 3, 3), np.uint8), spacing=SP)
    small = LabelMap(data=np.zeros((2, 3, 3), np.uint8), spacing=SP)
    other = LabelMap(data=np.zeros((3, 3, 3), np.uint8), spacing=Spacing(2.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="dims"):
        CaseBundle(case_id="c", prediction=pred, ground_truth=small)
    with pytest.raises(ValueError, match="spacing"):
        CaseBundle(case_id="c", prediction=pred, ground_truth=other)
    seq = ScalarVolume(data=np.zeros((2, 3, 3), np.float32), spacing=SP)
    with pytest.raises(ValueError, match="t1n"):
        CaseBundle(case_id="c", prediction=pred, sequences={"t1n": seq})


def test_save_load_label_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.integers(0, 5, size=(6, 5, 4)).astype(np.uint8)
    lm = LabelMap(data=data, spacing=Spacing(1.0, 1.25, 2.5))
    save_nifti(lm, tmp_path / "m.nii.gz")
    back = load_nifti(tmp_path / "m.nii.gz", kind="label")
    assert isinstance(back, LabelMap)
    assert np.array_equal(back.data, data)
    assert back.spacing == lm.spacing


def test_save_load_scalar_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((5, 4, 3)).astype(np.float32)
    sv = ScalarVolume(data=data, spacing=SP)
    save_nifti(sv, tmp_path / "s.nii.gz")
    back = load_nifti(tmp_path / "s.nii.gz", kind="scalar")
    assert isinstance(back, ScalarVolume)
    assert back.data.tobytes() == data.tobytes()


def test_load_label_rejects_fractional_file(tmp_path):
    path = tmp_path / "frac.nii.gz"
    write_nifti(RawNifti(data=np.full((2, 2, 2), 3.7, np.float32), spacing=(1, 1, 1)), path)
    with pytest.raises(NiftiError, match="non-integral"):
        load_nifti(path, kind="label")


def test_load_label_rounds_near_integers(tmp_path):
    path = tmp_path / "near.nii.gz"
    write_nifti(
        RawNifti(data=np.full((2, 2, 2), 2.0002, np.float32), spacing=(1, 1, 1)), path
    )
    back = load_nifti(path, kind="label")
    assert np.array_equal(back.data, np.full((2, 2, 2), 2, np.uint8))


def test_load_label_rejects_out_of_range_file(tmp_path):
    path = tmp_path / "range.nii.gz"
    write_nifti(RawNifti(data=np.full((2, 2, 2), 7, np.uint8), spacing=(1, 1, 1)), path)
    with pytest.raises(NiftiError, match="range"):
        load_nifti(path, kind="label")


def test_load_scalar_rejects_nan_file(tmp_path):
    path = tmp_path / "nan.nii.gz"
    write_nifti(RawNifti(data=np.full((2, 2, 2), np.nan, np.float32), spacing=(1, 1, 1)), path)
    with pytest.raises(NiftiError, match="non-finite"):
        load_nifti(path, kind="scalar")


def test_load_scalar_rejects_float64_beyond_float32_range(tmp_path):
    path = tmp_path / "huge.nii.gz"
    data = np.ones((2, 2, 2), np.float64)
    data[1, 0, 1] = 1e39  # finite as float64, inf as float32
    write_nifti(RawNifti(data=data, spacing=(1, 1, 1)), path)
    with pytest.raises(NiftiError, match="non-finite"):
        load_nifti(path, kind="scalar")


def test_load_nifti_bad_kind():
    with pytest.raises(ValueError):
        load_nifti("whatever.nii.gz", kind="mask")


def test_save_to_missing_directory_raises(tmp_path):
    lm = LabelMap(data=np.zeros((2, 2, 2), np.uint8), spacing=SP)
    with pytest.raises(OSError):
        save_nifti(lm, tmp_path / "no" / "such" / "dir" / "x.nii.gz")


def test_filenames():
    assert seg_filename("case-0001") == "case-0001-seg.nii.gz"
    assert seq_filename("case-0001", "t2f") == "case-0001-t2f.nii.gz"


def test_discover_case_ids(tmp_path):
    lm = LabelMap(data=np.zeros((2, 2, 2), np.uint8), spacing=SP)
    for cid in ("b-2", "a-10", "a-2"):
        save_nifti(lm, tmp_path / seg_filename(cid))
    (tmp_path / "stray.nii.gz").write_bytes(b"")
    assert discover_case_ids(tmp_path) == ["a-10", "a-2", "b-2"]


def test_discover_case_ids_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_case_ids(tmp_path / "nope")


def _write_case(tmp_path, cid, with_images=True, with_gt=True):
    preds = tmp_path / "preds"
    images = tmp_path / "images"
    gt = tmp_path / "gt"
    for d in (preds, images, gt):
        d.mkdir(exist_ok=True)
    lm = LabelMap(data=np.zeros((3, 3, 3), np.uint8), spacing=SP)
    save_nifti(lm, preds / seg_filename(cid))
    if with_gt:
        save_nifti(lm, gt / seg_filename(cid))
    if with_images:
        sv = ScalarVolume(data=np.zeros((3, 3, 3), np.float32), spacing=SP)
        for seq in ("t1n", "t1c", "t2w", "t2f"):
            save_nifti(sv, images / seq_filename(cid, seq))
    return preds, images, gt


def test_load_case_bundle_full(tmp_path):
    preds, images, gt = _write_case(tmp_path, "case-7")
    bundle = load_case_bundle("case-7", preds, images_dir=images, gt_dir=gt)
    assert bundle.case_id == "case-7"
    assert set(bundle.sequences) == {"t1n", "t1c", "t2w", "t2f"}
    assert bundle.ground_truth is not None
    assert bundle.prediction.spacing == SP


def test_load_case_bundle_masks_only(tmp_path):
    preds, _, _ = _write_case(tmp_path, "case-8", with_images=False, with_gt=False)
    bundle = load_case_bundle("case-8", preds)
    assert bundle.sequences == {}
    assert bundle.ground_truth is None


def test_load_case_bundle_missing_files(tmp_path):
    preds, images, gt = _write_case(tmp_path, "case-9", with_images=False)
    with pytest.raises(FileNotFoundError, match="case-9"):
        load_case_bundle("case-9", preds, images_dir=images)
    with pytest.raises(FileNotFoundError, match="missing prediction"):
        load_case_bundle("missing-id", preds)
    with pytest.raises(FileNotFoundError, match="missing ground truth"):
        load_case_bundle("case-9", preds, gt_dir=tmp_path / "empty-gt")
