"""Grid types, validation rules, corpus-layout helpers, and the field
check and JSON builder of the configuration classes."""

import json
import math
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from gliopost.metrics import RankObjective
from gliopost.nifti import NiftiError, RawNifti, write_nifti
from gliopost.policy import RelabelRule
from gliopost.radiomics import ExtractionSettings
from gliopost.synth import IslandSpec, SwapSpec, SynthConfig
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


# -- configuration classes -------------------------------------------------------------

CONFIGS = (
    SynthConfig(seed=11, dims=(24, 24, 24), islands=(IslandSpec(3, (1, 2), (3, 8)),),
                swap=SwapSpec(3, 1, 0.085), jitter=2),
    ExtractionSettings(bin_width=10.0, bin_count=16, sequences=("t1c", "t2f")),
    RelabelRule(cluster=1, src=3, dst=1, cutoff=0.05),
    RankObjective.for_task("gli-post"),
)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_round_trips_through_json(config):
    doc = json.loads(json.dumps(config.to_dict()))
    assert type(config).from_dict(doc) == config


# An integer and a real field of each class, as paths into its JSON; a
# SynthConfig's top-level keys have defaults, so its swap entry stands in.
FIELDS = (
    (CONFIGS[0], ("swap", "src"), ("swap", "trigger")),
    (CONFIGS[1], ("bin_count",), ("bin_width",)),
    (CONFIGS[2], ("src",), ("cutoff",)),
    (CONFIGS[3], ("dilation_iters",), ("tolerances", 0)),
)
MISSING = object()


def _rejections():
    for config, integer, real in FIELDS:
        name = type(config).__name__
        for path in (integer, real):
            key = path if isinstance(path[-1], str) else path[:-1]
            bad = {"bool": True, "string": "1", "nan": math.nan, "missing": MISSING}
            if path is integer:
                bad["fraction"] = 2.5
            for what, value in bad.items():
                yield pytest.param(config, key if value is MISSING else path, value,
                                   key[-1], id=f"{name}-{key[-1]}-{what}")
        yield pytest.param(config, (*integer[:-1], "extra"), 0, "extra",
                           id=f"{name}-unknown-key")


@pytest.mark.parametrize("config, path, value, named", _rejections())
def test_config_rejects_bad_fields(config, path, value, named):
    """No value is cast and no key is ignored or defaulted: a bool, a
    fraction for an integer, a string, NaN, a missing and an unknown key
    each raise ValueError naming the key."""
    doc = json.loads(json.dumps(config.to_dict()))
    *parents, key = path
    node = reduce(getitem, parents, doc)
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(ValueError, match=named):
        type(config).from_dict(doc)
