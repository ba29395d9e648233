"""Case-level feature extraction: the 386-name contract, sentinels,
invariances, and persistence."""

import numpy as np
import pytest

from gliopost.radiomics import (
    ExtractionSettings,
    FeatureMatrix,
    FeatureVector,
    extract_case_features,
    feature_names,
    read_feature_csv,
    write_feature_csv,
    write_manifest,
)
from gliopost.radiomics.extract import FEATURES_PER_SEQUENCE
from gliopost.radiomics.texture import discretize, neighbour_pairs
from gliopost.volume import SEQUENCES, CaseBundle, LabelMap, ScalarVolume, Spacing

SP = Spacing(1.0, 1.0, 1.0)


def _bundle(case_id="case-x", dims=(12, 12, 12), seed=0, seg=None):
    rng = np.random.default_rng(seed)
    if seg is None:
        seg = np.zeros(dims, dtype=np.uint8)
        seg[3:8, 3:8, 3:8] = 1
        seg[4:7, 4:7, 4:7] = 3
        seg[8:10, 3:6, 3:6] = 2
    seqs = {
        s: ScalarVolume(
            data=(rng.normal(500, 80, size=dims)).astype(np.float32), spacing=SP
        )
        for s in SEQUENCES
    }
    return CaseBundle(
        case_id=case_id,
        prediction=LabelMap(data=seg, spacing=SP),
        sequences=seqs,
    )


def test_feature_name_contract():
    names = feature_names()
    assert len(names) == 386
    assert len(names) == 14 + 4 * 93
    assert FEATURES_PER_SEQUENCE == 93
    assert names[0] == "shape/voxel_count"
    assert names[13] == "shape/flatness"
    assert names[14] == "t1n/firstorder/energy"
    # one block of 93 per sequence, in configured order
    for i, seq in enumerate(SEQUENCES):
        block = names[14 + i * 93 : 14 + (i + 1) * 93]
        assert all(n.startswith(f"{seq}/") for n in block)
    families = [n.split("/")[1] for n in names[14:107]]
    order = [f for k, f in enumerate(families) if k == 0 or families[k - 1] != f]
    assert order == ["firstorder", "glcm", "glrlm", "glszm", "gldm", "ngtdm"]


def test_feature_names_scale_with_sequences():
    two = ExtractionSettings(sequences=("t1c", "t2f"))
    assert len(feature_names(two)) == 14 + 2 * 93


def test_extract_full_case():
    vec = extract_case_features(_bundle())
    assert vec.values.shape == (386,)
    assert vec.values.any()
    assert np.isfinite(vec.values).all()
    d = dict(zip(vec.names, vec.values))
    assert d["shape/voxel_count"] == float(5 * 5 * 5 + 2 * 3 * 3)
    assert d["t1n/firstorder/mean"] != 0.0


def test_extract_is_deterministic():
    a = extract_case_features(_bundle(seed=5))
    b = extract_case_features(_bundle(seed=5))
    assert np.array_equal(a.values, b.values)


def test_one_pair_geometry_per_case_and_one_discretize_per_sequence(monkeypatch):
    """The neighbour pairs are built once per case, from the whole-tumor
    mask, and each sequence is discretized once."""
    from gliopost.radiomics import extract

    calls = {"discretize": 0, "neighbour_pairs": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(extract, "discretize", counting("discretize", discretize))
    monkeypatch.setattr(extract, "neighbour_pairs",
                        counting("neighbour_pairs", neighbour_pairs))
    extract_case_features(_bundle())
    assert calls == {"discretize": len(SEQUENCES), "neighbour_pairs": 1}


def test_degenerate_whole_tumor_sentinel():
    seg = np.zeros((8, 8, 8), dtype=np.uint8)
    seg[0, 0, 0] = 3  # single whole-tumor voxel: below the 2-voxel floor
    seg[5, 5, 5] = 4  # resection cavity alone never counts toward WT
    vec = extract_case_features(_bundle(seg=seg, dims=(8, 8, 8)))
    assert vec.values.shape == (386,)
    assert not vec.values.any()

    empty = np.zeros((8, 8, 8), dtype=np.uint8)
    vec = extract_case_features(_bundle(seg=empty, dims=(8, 8, 8)))
    assert vec.values.shape == (386,)
    assert not vec.values.any()


def test_missing_sequence_rejected():
    bundle = _bundle()
    del bundle.sequences["t2w"]
    with pytest.raises(ValueError, match="t2w"):
        extract_case_features(bundle)


@pytest.mark.parametrize("field, value", [
    ("bin_width", float("nan")), ("bin_width", float("inf")), ("bin_width", 0.0),
    ("bin_width", -25.0), ("bin_count", 0), ("bin_count", -1),
])
def test_extraction_settings_reject_bad_bins(field, value):
    with pytest.raises(ValueError, match=field):
        ExtractionSettings(**{field: value})
    with pytest.raises(ValueError, match=field):
        ExtractionSettings.from_dict(dict(ExtractionSettings().to_dict(), **{field: value}))


def test_relabeling_outside_wt_does_not_change_features():
    seg = np.zeros((12, 12, 12), dtype=np.uint8)
    seg[3:8, 3:8, 3:8] = 2
    seg[9, 9, 9] = 4
    with_rc = extract_case_features(_bundle(seg=seg, seed=9))
    seg2 = seg.copy()
    seg2[9, 9, 9] = 0  # drop the cavity; WT mask is identical
    without_rc = extract_case_features(_bundle(seg=seg2, seed=9))
    assert np.array_equal(with_rc.values, without_rc.values)


def test_swapping_labels_inside_wt_keeps_whole_tumor_features():
    seg = np.zeros((12, 12, 12), dtype=np.uint8)
    seg[3:8, 3:8, 3:8] = 1
    swapped = seg.copy()
    swapped[seg == 1] = 3  # different label, same WT footprint
    a = extract_case_features(_bundle(seg=seg, seed=11))
    b = extract_case_features(_bundle(seg=swapped, seed=11))
    assert np.array_equal(a.values, b.values)


def test_translation_invariance_of_full_vector():
    rng = np.random.default_rng(13)
    core = rng.integers(0, 4, size=(5, 5, 5)).astype(np.uint8)
    core[2, 2, 2] = 1
    seq_patch = {s: rng.normal(400, 60, size=(5, 5, 5)) for s in SEQUENCES}

    vecs = []
    for offset in ((1, 1, 1), (6, 5, 4)):
        dims = (14, 14, 14)
        seg = np.zeros(dims, dtype=np.uint8)
        sl = tuple(slice(o, o + 5) for o in offset)
        seg[sl] = core
        seqs = {}
        for s in SEQUENCES:
            data = np.zeros(dims, dtype=np.float32)
            data[sl] = seq_patch[s]
            seqs[s] = ScalarVolume(data=data, spacing=SP)
        bundle = CaseBundle(
            case_id="t",
            prediction=LabelMap(data=seg, spacing=SP),
            sequences=seqs,
        )
        vecs.append(extract_case_features(bundle))
    assert np.abs(vecs[0].values - vecs[1].values).max() <= 1e-9


def test_feature_vector_validation():
    with pytest.raises(ValueError, match="3 values"):
        FeatureVector(case_id="c", names=("a", "b"), values=np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        FeatureVector(case_id="c", names=("a",), values=np.array([np.nan]))


def test_feature_matrix_round_trip(tmp_path):
    vectors = [extract_case_features(_bundle(case_id=f"case-{i}", seed=i)) for i in range(3)]
    seg = np.zeros((12, 12, 12), dtype=np.uint8)
    vectors.append(extract_case_features(_bundle(case_id="case-degen", seg=seg)))
    matrix = FeatureMatrix.from_vectors(vectors)
    path = tmp_path / "features.csv"
    write_feature_csv(path, matrix)
    back = read_feature_csv(path)
    assert back.names == matrix.names
    assert back.case_ids == matrix.case_ids
    assert np.array_equal(back.values, matrix.values)  # repr round trip is exact
    assert [bool(row.any()) for row in back.values] == [True, True, True, False]


def test_feature_matrix_name_mismatch():
    a = FeatureVector(case_id="a", names=("x",), values=np.zeros(1))
    b = FeatureVector(case_id="b", names=("y",), values=np.zeros(1))
    with pytest.raises(ValueError, match="name order"):
        FeatureMatrix.from_vectors([a, b])
    with pytest.raises(ValueError):
        FeatureMatrix.from_vectors([])


def test_manifest_round_trip(tmp_path):
    import json

    settings = ExtractionSettings(bin_width=10.0, bin_count=16, sequences=("t1c", "t2f"))
    path = tmp_path / "feature-manifest.json"
    write_manifest(path, settings)
    with open(path) as fh:
        doc = json.load(fh)
    assert ExtractionSettings.from_dict(doc["settings"]) == settings
    assert tuple(doc["feature_names"]) == feature_names(settings)


def test_failed_artifact_writes_keep_old_files(tmp_path, monkeypatch):
    import csv
    import json

    matrix = FeatureMatrix.from_vectors([extract_case_features(_bundle())])
    csv_path = tmp_path / "features.csv"
    manifest_path = tmp_path / "feature-manifest.json"
    write_feature_csv(csv_path, matrix)
    write_manifest(manifest_path, ExtractionSettings())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class FailingWriter:
        def __init__(self, fh):
            self.fh = fh

        def writerow(self, row):
            self.fh.write("case_id,")
            raise RuntimeError("serializer failed")

    def failing_dump(doc, fh, **kwargs):
        fh.write('{"feature_names": ')
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(csv, "writer", FailingWriter)
    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(RuntimeError, match="serializer failed"):
        write_feature_csv(csv_path, matrix)
    with pytest.raises(RuntimeError, match="serializer failed"):
        write_manifest(manifest_path, ExtractionSettings(bin_count=8))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    # metrics.csv, ranking.csv, confusion.csv, fit-report.txt, masks
    # (gzipped or not), inventory.json and run-config.json: the handle
    # atomic_open writes through fails after a few characters or bytes
    from gliopost import nifti
    from gliopost.cli import _write_run_config
    from gliopost.metrics import CaseMetrics, write_metrics_csv
    from gliopost.policy import FitReport, write_confusion_csv, write_fit_report
    from gliopost.ranking import rank_candidates, write_ranking_csv
    from gliopost.synth import SynthConfig, write_inventory
    from gliopost.volume import LabelMap, Spacing, save_nifti
    from test_policy import _manual_policy

    monkeypatch.undo()

    def writes(value):
        rows = [CaseMetrics("a", {"LW_Dice_ET": value})]
        other = [CaseMetrics("a", {"LW_Dice_ET": 0.5})]
        cm = np.full((5, 5), int(value * 100))
        report = FitReport(["a"], [0], cm, [])
        mask = LabelMap(np.full((4, 4, 4), int(value * 4), dtype=np.uint8),
                        Spacing(1.0, 1.0, 1.0))
        return {
            "metrics.csv": lambda p: write_metrics_csv(p, rows),
            "ranking.csv": lambda p: write_ranking_csv(
                p, rank_candidates({"x": rows, "y": other})),
            "confusion.csv": lambda p: write_confusion_csv(p, cm),
            "fit-report.txt": lambda p: write_fit_report(p, _manual_policy(), report),
            "case-seg.nii.gz": lambda p: save_nifti(mask, p),
            "case-seg.nii": lambda p: save_nifti(mask, p),
            "inventory.json": lambda p: write_inventory(
                p.parent, SynthConfig(), {"a": {"value": value}}),
            "run-config.json": lambda p: _write_run_config(
                p.parent, "rank", {"out": str(p.parent)},
                run={"wall_s": value}),
        }

    for name, write in writes(0.25).items():
        write(tmp_path / name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class FailingHandle:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.fh.write(text[:3])
            raise RuntimeError("write failed")

    monkeypatch.setattr(nifti, "open",
                        lambda *a, **k: FailingHandle(open(*a, **k)),
                        raising=False)
    for name, write in writes(0.75).items():
        with pytest.raises(RuntimeError, match="write failed"):
            write(tmp_path / name)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
