"""Seeded corpus generation: shells, islands, swaps, inventory."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import mask_of, union_find_components
from test_policy_gate import CORPORA

from gliopost.cli import main
from gliopost.synth import (
    IslandSpec,
    ShellSpec,
    SwapSpec,
    SynthConfig,
    case_name,
    generate_case,
)
from gliopost.volume import load_case_bundle


def _reconstruct_truth(pred_data, inventory):
    """Invert the recorded corruption; valid only when jitter is off."""
    out = pred_data.copy()
    for island in inventory["islands"]:
        for v in island["voxels"]:
            out[tuple(v)] = 0
    swap = inventory["swap"]
    if swap is not None and swap["fired"]:
        for v in swap["voxels"]:
            out[tuple(v)] = swap["src"]
    return out


def test_case_name():
    assert case_name(0) == "case-0000"
    assert case_name(123) == "case-0123"


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(lesion_count=(2, 1))
    with pytest.raises(ValueError):
        SynthConfig(lesion_radius=(0.0, 5.0))
    with pytest.raises(ValueError):
        SynthConfig(shells=())
    with pytest.raises(ValueError):
        SynthConfig(islands=(IslandSpec(3, (1, 1), (0, 3)),))
    with pytest.raises(ValueError):
        SynthConfig(islands=(IslandSpec(3, (3, 1), (1, 3)),))


@pytest.mark.parametrize("override, message", (
    ({"islands": [{"label": 1}]}, "island entry must be an object with keys"),
    ({"islands": [{"label": 1, "count": [1, 2], "size": [3, 8], "x": 0}]},
     "island entry must be an object with keys"),
    ({"islands": [{"label": 1, "count": [1.5, 2], "size": [3, 8]}]},
     "island 1 count range"),
    ({"islands": [{"label": 1, "count": [1, 2], "size": "38"}]},
     "island 1 size range"),
    ({"islands": {"label": 1}}, "islands must be a list"),
    ({"shells": [{"label": 1, "outer": "ab"}]}, "shell 1 outer range"),
    ({"shells": [{"label": 1, "outer": [0.5, float("nan")]}]}, "shell 1 outer range"),
    ({"shells": [{"label": 1, "outer": [0.5, None]}]}, "shell 1 outer range"),
    ({"shells": [{"label": 1, "outer": 0.5}]}, "shell 1 outer range"),
    ({"shells": [{"label": 9, "outer": [1.0, 1.0]}]}, "shell label must be"),
    ({"shells": [{"label": None, "outer": [1.0, 1.0]}]}, "shell label must be"),
    ({"shells": [3]}, "shell entry must be an object"),
    ({"swap": {"src": 3, "dst": 1}}, "swap entry must be an object"),
    ({"swap": {"src": 3, "dst": 1, "trigger": "x"}}, "swap trigger"),
    ({"swap": {"src": 3, "dst": "1", "trigger": 0.1}}, "swap dst label"),
    ({"shells": [{"label": 1, "outer": [0.5, 10 ** 400]}]}, "shell 1 outer range"),
    ({"jitter": -1}, "jitter must be an integer >= 0"),
    ({"island_margin": 0}, "island margin must be an integer >= 1"),
    ({"lesion_separation": float("inf")}, "lesion separation must be a finite number"),
    ({"noise_sigma": -0.5}, "noise sigma must be a finite number >= 0"),
    ({"noise_amplitude": float("nan")}, "noise amplitude must be a finite number"),
    ({"sequences": []}, "sequences must be distinct non-empty names"),
    ({"sequences": ["t1n", "t1n"]}, "sequences must be distinct"),
    ({"sequences": ["a/b"]}, "without a path separator"),
    ({"sequences": ["t1n", ""]}, "sequences must be distinct non-empty names"),
    ({"seed": -3}, "seed must be an integer >= 0"),
    ({"seed": 5.7}, "seed must be an integer"),
    ({"dims": [64.5, 64, 64]}, "dims must be 3 integers >= 1"),
    ({"dims": [64, 64]}, "dims must be 3 integers >= 1"),
    ({"jitter": 1.0}, "jitter must be an integer"),
    ({"noise_sigma": "2"}, "noise sigma must be a finite number"),
    ({"lesion_count": [1, True]}, "lesion count range"),
    ({"swap": {"src": 3, "dst": 1, "trigger": 0.1, "x": 0}}, "swap entry must be an object"),
    ({"noise": 2.0}, "SynthConfig must be an object with keys"),
))
def test_from_dict_checks_nested_entries(override, message):
    recipe = dict(SynthConfig().to_dict(), **override)
    with pytest.raises(ValueError, match=message):
        SynthConfig.from_dict(recipe)


def test_config_round_trip():
    cfg = SynthConfig(
        seed=11,
        dims=(24, 24, 24),
        islands=(IslandSpec(3, (1, 2), (3, 8)), IslandSpec(1, (0, 1), (1, 4))),
        swap=SwapSpec(3, 1, 0.085),
        jitter=2,
    )
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg
    assert SynthConfig.from_dict(SynthConfig().to_dict()) == SynthConfig()


def test_generate_case_is_deterministic():
    cfg = SynthConfig(
        seed=5,
        dims=(32, 32, 32),
        lesion_count=(1, 1),
        lesion_radius=(5.0, 7.0),
        islands=(IslandSpec(3, (1, 2), (3, 8)),),
        swap=SwapSpec(3, 1, 0.5),
    )
    a, inv_a = generate_case(cfg, 4)
    b, inv_b = generate_case(cfg, 4)
    assert a.prediction.data.tobytes() == b.prediction.data.tobytes()
    assert a.ground_truth.data.tobytes() == b.ground_truth.data.tobytes()
    for seq in cfg.sequences:
        assert a.sequences[seq].data.tobytes() == b.sequences[seq].data.tobytes()
    assert inv_a == inv_b

    c, _ = generate_case(cfg, 5)
    assert c.ground_truth.data.tobytes() != a.ground_truth.data.tobytes()
    with pytest.raises(ValueError):
        generate_case(cfg, -1)


def test_ground_truth_shells_are_nested():
    cfg = SynthConfig(seed=9, dims=(48, 48, 48), lesion_radius=(7.0, 10.0))
    bundle, _ = generate_case(cfg, 0)
    gt = bundle.ground_truth.data
    assert sorted(np.unique(gt).tolist()) == [0, 1, 2, 3]
    # lesions never touch the grid boundary
    for axis in range(3):
        assert not gt.take(0, axis=axis).any()
        assert not gt.take(-1, axis=axis).any()
    # within each lesion the labels sit in concentric order: enhancing
    # core innermost, then non-enhancing, then edema
    for comp in union_find_components(gt > 0, 26):
        coords = np.array(sorted(comp))
        center = coords.mean(axis=0)
        labels = gt[tuple(coords.T)]
        spread = {
            label: np.linalg.norm(coords[labels == label] - center, axis=1).mean()
            for label in (3, 1, 2)
        }
        assert spread[3] < spread[1] < spread[2]


def test_zero_lesions_allowed():
    cfg = SynthConfig(
        seed=2, dims=(16, 16, 16), lesion_count=(0, 0), swap=SwapSpec(3, 1, 0.5)
    )
    bundle, inventory = generate_case(cfg, 0)
    assert not bundle.ground_truth.data.any()
    assert not bundle.prediction.data.any()
    assert inventory["swap"]["fired"] is False


def test_island_injection_and_inventory():
    cfg = SynthConfig(
        seed=7,
        dims=(32, 32, 32),
        lesion_count=(1, 1),
        lesion_radius=(5.0, 7.0),
        islands=(IslandSpec(3, (2, 2), (3, 8)),),
        island_margin=7,
    )
    bundle, inventory = generate_case(cfg, 1)
    gt = bundle.ground_truth.data
    pred = bundle.prediction.data

    assert len(inventory["islands"]) == 2
    island_voxels = []
    for island in inventory["islands"]:
        assert island["label"] == 3
        voxels = [tuple(v) for v in island["voxels"]]
        assert 3 <= len(voxels) <= 8
        for v in voxels:
            assert pred[v] == 3 and gt[v] == 0
        # islands are a single 6-connected blob
        assert len(union_find_components(mask_of(voxels, cfg.dims), 6)) == 1
        island_voxels.append(np.array(voxels))

    # spacing contract: Chebyshev distance at least island_margin from
    # any true voxel, and islands never touch each other
    true_coords = np.argwhere(gt > 0)
    for voxels in island_voxels:
        gaps = np.abs(voxels[:, None, :] - true_coords[None, :, :]).max(axis=2)
        assert gaps.min() >= cfg.island_margin
    cross = np.abs(island_voxels[0][:, None, :] - island_voxels[1][None, :, :])
    assert cross.max(axis=2).min() >= 2

    # the inventory pinpoints every corrupted voxel
    assert np.array_equal(_reconstruct_truth(pred, inventory), gt)
    mismatch = pred != gt
    assert mismatch.sum() == sum(len(i["voxels"]) for i in inventory["islands"])


def test_swap_fires_on_small_core_ratio():
    small_core = SynthConfig(
        seed=3,
        dims=(24, 24, 24),
        lesion_count=(1, 1),
        lesion_radius=(6.0, 8.0),
        shells=(ShellSpec(3, (0.3, 0.3)), ShellSpec(2, (1.0, 1.0))),
        swap=SwapSpec(3, 1, 0.1),
    )
    bundle, inventory = generate_case(small_core, 0)
    gt = bundle.ground_truth.data
    pred = bundle.prediction.data
    swap = inventory["swap"]
    assert swap["fired"] is True
    assert (gt == 3).sum() > 0
    assert (pred == 3).sum() == 0
    assert np.array_equal(pred == 1, gt == 3)
    assert len(swap["voxels"]) == int((gt == 3).sum())
    assert np.array_equal(_reconstruct_truth(pred, inventory), gt)


def test_swap_holds_on_large_core_ratio():
    large_core = SynthConfig(
        seed=3,
        dims=(24, 24, 24),
        lesion_count=(1, 1),
        lesion_radius=(6.0, 8.0),
        shells=(ShellSpec(3, (0.8, 0.8)), ShellSpec(2, (1.0, 1.0))),
        swap=SwapSpec(3, 1, 0.1),
    )
    bundle, inventory = generate_case(large_core, 0)
    assert inventory["swap"]["fired"] is False
    assert inventory["swap"]["voxels"] == []
    assert np.array_equal(bundle.prediction.data, bundle.ground_truth.data)


def test_island_margin_can_exhaust_the_grid():
    cfg = SynthConfig(
        seed=1,
        dims=(8, 8, 8),
        lesion_count=(1, 1),
        lesion_radius=(2.0, 2.5),
        islands=(IslandSpec(3, (1, 1), (2, 2)),),
        island_margin=8,
    )
    with pytest.raises(ValueError, match="no room"):
        generate_case(cfg, 0)


def test_sequences_reflect_labels():
    cfg = SynthConfig(seed=13, dims=(32, 32, 32), lesion_count=(1, 1),
                      lesion_radius=(6.0, 8.0))
    bundle, _ = generate_case(cfg, 0)
    gt = bundle.ground_truth.data
    assert set(bundle.sequences) == {"t1c", "t1n", "t2f", "t2w"}
    t1n = bundle.sequences["t1n"].data
    assert t1n.dtype == np.float32
    assert abs(float(t1n[gt == 0].mean()) - 90.0) < 3.0
    assert abs(float(t1n[gt == 3].mean()) - 145.0) < 3.0
    # different sequences carry different base intensities
    t2w = bundle.sequences["t2w"].data
    assert abs(float(t2w[gt == 0].mean()) - 130.0) < 3.0


def test_synth_command_layout_and_round_trip(tmp_path):
    cfg = SynthConfig(
        seed=21,
        dims=(24, 24, 24),
        lesion_count=(1, 1),
        lesion_radius=(5.0, 6.5),
        islands=(IslandSpec(2, (1, 1), (2, 5)),),
        island_margin=5,
    )
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "corpus"
    assert main(["synth", "--config", str(recipe), "--out", str(out), "--cases", "2"]) == 0

    doc = json.loads((out / "inventory.json").read_text())
    assert sorted(doc["cases"]) == ["case-0000", "case-0001"]
    assert SynthConfig.from_dict(doc["config"]) == cfg

    for index in range(2):
        cid = case_name(index)
        for seq in cfg.sequences:
            assert (out / "images" / f"{cid}-{seq}.nii.gz").exists()
        assert (out / "preds" / f"{cid}-seg.nii.gz").exists()
        assert (out / "gt" / f"{cid}-seg.nii.gz").exists()

        bundle, inventory = generate_case(cfg, index)
        assert doc["cases"][cid] == json.loads(json.dumps(inventory))
        loaded = load_case_bundle(
            cid, out / "preds", out / "images", gt_dir=out / "gt"
        )
        assert np.array_equal(loaded.prediction.data, bundle.prediction.data)
        assert np.array_equal(loaded.ground_truth.data, bundle.ground_truth.data)
        for seq in cfg.sequences:
            assert np.array_equal(loaded.sequences[seq].data, bundle.sequences[seq].data)
        assert loaded.prediction.spacing == bundle.prediction.spacing

    # regeneration is reproducible down to the file bytes, at any --threads
    second = tmp_path / "again"
    assert main(["synth", "--config", str(recipe), "--out", str(second), "--cases", "2",
                 "--threads", "2"]) == 0
    assert (second / "inventory.json").read_bytes() == (out / "inventory.json").read_bytes()
    name = f"{case_name(0)}-seg.nii.gz"
    assert (second / "preds" / name).read_bytes() == (out / "preds" / name).read_bytes()


# blake2b-128 of the prediction bytes and of the sorted-key inventory JSON
# of cases 0-3 of the two policy-gate recipes; any change to the random
# stream or to island placement changes a digest
PINNED_DIGESTS = {
    ("accept", 0): ("d14cf3a5e78baf2ae1696baf5b28d9b6",
                    "c142f65caf6aa3edcabfda74ec449d16"),
    ("accept", 1): ("362b2a51342cc3ce30d9dfe9abb69bed",
                    "f51a4208a21106fcea727b874a463bcc"),
    ("accept", 2): ("57d56dadb7ec305afd69449c390633a8",
                    "fcd3fbd5bab78abc691f3f19a9834914"),
    ("accept", 3): ("6789bf55c5f2b0f784d7da15221e66c2",
                    "e169864f687f7f9a01f3a60f55e61bf2"),
    ("crowded", 0): ("f6dcd3d4a0f60d628938ed6af14bbd40",
                     "a53064904f090d7a4bfcd019b29ee8f5"),
    ("crowded", 1): ("a2c51c83cc422ab1e0ef404da732e627",
                     "073798e4e99679999fe6c13494c5e234"),
    ("crowded", 2): ("1ab8400466082247fd0e2f3fcbc157e8",
                     "611c954bfc1c811beb4372058388f838"),
    ("crowded", 3): ("b2dda21f0987c244090a3331121042b9",
                     "d453a7e0e9e8bdd452ce46190f0be31b"),
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_generated_cases_match_pinned_digests(name):
    cfg = SynthConfig.from_dict(CORPORA[name][0])
    for index in range(4):
        bundle, inventory = generate_case(cfg, index)
        got = (_digest(bundle.prediction.data.tobytes()),
               _digest(json.dumps(inventory, sort_keys=True).encode()))
        assert got == PINNED_DIGESTS[(name, index)], index
