"""Shape descriptors: closed-form solids and covariance cross-checks."""

import numpy as np
import pytest

from gliopost.radiomics.shape import SHAPE_FEATURE_NAMES, shape_features
from gliopost.volume import Spacing

from oracles import brute_boundary, random_blob_mask

SP = Spacing(1.0, 1.0, 1.0)


def test_empty_mask_is_all_zero():
    out = shape_features(np.zeros((4, 4, 4), bool), SP)
    assert set(out) == set(SHAPE_FEATURE_NAMES)
    assert all(v == 0.0 for v in out.values())


def test_single_voxel():
    mask = np.zeros((3, 3, 3), bool)
    mask[1, 1, 1] = True
    out = shape_features(mask, SP)
    assert out["voxel_count"] == 1.0
    assert out["voxel_volume"] == 1.0
    assert out["surface_area"] == 6.0
    assert out["surface_volume_ratio"] == 6.0
    assert out["max_diameter_3d"] == 0.0
    assert out["major_axis_length"] == 0.0
    assert out["elongation"] == 0.0
    assert out["flatness"] == 0.0


def test_single_voxel_anisotropic_surface():
    mask = np.zeros((3, 3, 3), bool)
    mask[1, 1, 1] = True
    out = shape_features(mask, Spacing(1.0, 1.25, 2.5))
    dx, dy, dz = 1.0, 1.25, 2.5
    assert out["voxel_volume"] == pytest.approx(dx * dy * dz)
    assert out["surface_area"] == pytest.approx(2 * (dy * dz + dx * dz + dx * dy))


def test_ten_cube():
    mask = np.zeros((12, 12, 12), bool)
    mask[1:11, 1:11, 1:11] = True
    out = shape_features(mask, SP)
    assert out["voxel_count"] == 1000.0
    assert out["voxel_volume"] == 1000.0
    assert out["surface_area"] == 600.0
    assert out["sphericity"] == pytest.approx(
        (36.0 * np.pi * 1000.0**2) ** (1.0 / 3.0) / 600.0
    )
    assert out["max_diameter_3d"] == pytest.approx(9.0 * np.sqrt(3.0))
    assert out["max_diameter_slice"] == pytest.approx(9.0 * np.sqrt(2.0))
    assert out["max_diameter_column"] == pytest.approx(9.0 * np.sqrt(2.0))
    assert out["max_diameter_row"] == pytest.approx(9.0 * np.sqrt(2.0))
    # covariance of 10 uniform positions per axis: variance (10^2 - 1) / 12
    expected_axis = 4.0 * np.sqrt((100 - 1) / 12.0)
    assert out["major_axis_length"] == pytest.approx(expected_axis)
    assert out["minor_axis_length"] == pytest.approx(expected_axis)
    assert out["least_axis_length"] == pytest.approx(expected_axis)
    assert out["elongation"] == pytest.approx(1.0)
    assert out["flatness"] == pytest.approx(1.0)


def test_box_axis_ratios():
    mask = np.zeros((22, 12, 7), bool)
    mask[1:21, 1:11, 1:6] = True  # 20 x 10 x 5 voxels
    out = shape_features(mask, SP)
    var = {n: (n * n - 1) / 12.0 for n in (20, 10, 5)}
    assert out["major_axis_length"] == pytest.approx(4.0 * np.sqrt(var[20]))
    assert out["minor_axis_length"] == pytest.approx(4.0 * np.sqrt(var[10]))
    assert out["least_axis_length"] == pytest.approx(4.0 * np.sqrt(var[5]))
    assert out["elongation"] == pytest.approx(np.sqrt(var[10] / var[20]))
    assert out["flatness"] == pytest.approx(np.sqrt(var[5] / var[20]))
    assert out["voxel_volume"] == 1000.0
    assert out["surface_area"] == pytest.approx(2 * (200 + 100 + 50))


def test_two_voxel_diameter_anisotropic():
    mask = np.zeros((4, 4, 4), bool)
    mask[0, 0, 0] = True
    mask[0, 0, 3] = True
    out = shape_features(mask, Spacing(1.0, 1.0, 2.5))
    assert out["max_diameter_3d"] == pytest.approx(3 * 2.5)
    assert out["max_diameter_slice"] == 0.0  # no two voxels share a z plane


def test_translation_invariance():
    rng = np.random.default_rng(61)
    blob = rng.random((5, 6, 4)) > 0.4
    a = np.zeros((14, 14, 14), bool)
    b = np.zeros((14, 14, 14), bool)
    a[1:6, 2:8, 3:7] = blob
    b[7:12, 5:11, 8:12] = blob
    fa = shape_features(a, SP)
    fb = shape_features(b, SP)
    for name in SHAPE_FEATURE_NAMES:
        assert fa[name] == pytest.approx(fb[name], abs=1e-9), name


def test_diameters_match_pairwise_scan():
    rng = np.random.default_rng(67)
    for _ in range(3):
        mask = rng.random((7, 7, 7)) > 0.6
        if not mask.any():
            continue
        out = shape_features(mask, SP)
        pts = np.argwhere(mask).astype(float)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        assert out["max_diameter_3d"] == pytest.approx(dist.max(), abs=1e-9)

        best_xy = 0.0
        for z in range(7):
            plane = pts[pts[:, 2] == z][:, :2]
            if len(plane) > 1:
                d = plane[:, None, :] - plane[None, :, :]
                best_xy = max(best_xy, float(np.sqrt((d**2).sum(axis=2)).max()))
        assert out["max_diameter_slice"] == pytest.approx(best_xy, abs=1e-9)


# -- diameters against a brute-force scan of every surface voxel pair ---------------

def _brute_diameters(mask, spacing):
    """The 3D and the slice / column / row diameters as the largest
    distance over all pairs of surface voxels, with the same float
    operations as the package, so the maxima must agree exactly."""
    surf = np.argwhere(brute_boundary(mask))
    scale = np.array(spacing.as_tuple())

    def diameter(idx, axes):
        pts = idx[:, axes].astype(float) * scale[axes]
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    planes = [max(diameter(surf[surf[:, axis] == p], kept)
                  for p in np.unique(surf[:, axis]))
              for axis, kept in ((2, [0, 1]), (1, [0, 2]), (0, [1, 2]))]
    return [diameter(surf, [0, 1, 2])] + planes


def _line(shape, start, step, count):
    mask = np.zeros(shape, bool)
    for i in range(count):
        mask[tuple(np.add(start, np.multiply(step, i)))] = True
    return mask


def _diameter_masks():
    rng = np.random.default_rng(131)
    tilted = np.zeros((14, 14, 9), bool)  # the plane x + y == 13
    for x in range(14):
        tilted[x, 13 - x] = rng.random(9) > 0.3
    single_plane = np.zeros((16, 16, 5), bool)
    single_plane[:, :, 2] = random_blob_mask(rng, (16, 16, 1), 0.5)[:, :, 0]
    edge = random_blob_mask(rng, (9, 8, 7), 0.6)
    edge[0], edge[:, -1], edge[..., 0] = True, True, True  # touches three faces
    return {
        "line-z": _line((3, 3, 60), (1, 1, 0), (0, 0, 1), 60),
        "line-diagonal": _line((40, 40, 40), (0, 0, 0), (1, 1, 1), 40),
        "line-with-gaps": _line((70, 3, 3), (0, 1, 1), (2, 0, 0), 35),
        "line-in-plane": _line((40, 40, 2), (0, 39, 1), (1, -1, 0), 40),
        "tilted-plane": tilted,
        "single-plane": single_plane,
        "two-voxels": _line((30, 20, 10), (0, 19, 9), (29, -19, -9), 2),
        "grid-edge": edge,
        "blob": random_blob_mask(rng, (18, 16, 14), 0.5),
    }


@pytest.mark.parametrize("spacing", [SP, Spacing(0.9375, 1.1, 2.5)],
                         ids=["isotropic", "anisotropic"])
@pytest.mark.parametrize("name", sorted(_diameter_masks()))
def test_diameters_equal_surface_pair_scan(name, spacing):
    mask = _diameter_masks()[name]
    assert mask.sum() >= 2
    out = shape_features(mask, spacing)
    got = [out[n] for n in ("max_diameter_3d", "max_diameter_slice",
                            "max_diameter_column", "max_diameter_row")]
    assert got == _brute_diameters(mask, spacing)
