"""Shape descriptors of a binary mask in physical units.

All 14 descriptors are voxel-based: volume is voxel count times voxel
volume, surface area counts exposed voxel faces, and diameters are
measured between voxel centers.  No mesh is built.

A diameter is the largest distance between two points of a set, and it
is reached between two vertices of the set's convex hull.  A hull vertex
is never strictly between two other points of the set, so it is the
first or the last point of the set on its line in every direction.  The
diameters therefore scan, by brute force, only the surface voxels that
are first or last on their lines along each of the 13 directions (the
3D diameter) or along the 4 directions in a plane (the in-plane
diameters).  That set holds every hull vertex, and every pair's distance
is computed the same way whichever set it is in, so the maximum is the
one over all the surface voxels.
"""

from __future__ import annotations

import numpy as np

from ..morphology import OFFSETS_13, boundary_voxels, line_order, padded_box, shifted
from ..volume import Spacing

SHAPE_FEATURE_NAMES = (
    "voxel_count",
    "voxel_volume",
    "surface_area",
    "surface_volume_ratio",
    "sphericity",
    "max_diameter_3d",
    "max_diameter_slice",
    "max_diameter_column",
    "max_diameter_row",
    "major_axis_length",
    "minor_axis_length",
    "least_axis_length",
    "elongation",
    "flatness",
)


# point pairs per brute-force block of the 3D diameter
_BLOCK_PAIRS = 1 << 21


def _max_pairwise_distance(points: np.ndarray) -> float:
    """Largest euclidean distance between any two of the given points,
    by brute force over blocks of rows; 0 for fewer than two points."""
    best = 0.0
    rows = max(1, _BLOCK_PAIRS // max(len(points), 1))
    for start in range(0, len(points), rows):
        # each block's rows against every point from its first row on
        # covers every pair
        diff = points[start:start + rows, None, :] - points[None, start:, :]
        best = max(best, float((diff**2).sum(axis=2).max()))
    return float(np.sqrt(best))


def _line_extremes(idx: np.ndarray) -> np.ndarray:
    """``out[k, i]``: whether point i of the voxel indices ``idx`` is the
    first or the last of them on its line along ``OFFSETS_13[k]``."""
    out = np.zeros((len(OFFSETS_13), len(idx)), dtype=bool)
    for k, off in enumerate(OFFSETS_13):
        order, first = line_order(idx, off)
        last = np.append(first[1:], True)
        out[k, order[first | last]] = True
    return out


def _surface_area(mask: np.ndarray, spacing: Spacing) -> float:
    """Total area of voxel faces touching background or the grid edge."""
    dx, dy, dz = spacing.as_tuple()
    face_area = {0: dy * dz, 1: dx * dz, 2: dx * dy}
    total = 0.0
    for axis in range(3):
        for sign in (-1, 1):
            exposed = mask & ~shifted(mask, tuple(sign * (a == axis) for a in range(3)))
            total += float(exposed.sum()) * face_area[axis]
    return total


def _axis_lengths(coords_mm: np.ndarray) -> tuple[float, float, float, float, float]:
    """Principal axis lengths (4·sqrt of covariance eigenvalues),
    elongation and flatness, from the voxel-center point cloud."""
    if coords_mm.shape[0] == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    centered = coords_mm - coords_mm.mean(axis=0)
    cov = centered.T @ centered / coords_mm.shape[0]
    eig = np.linalg.eigvalsh(cov)[::-1]  # descending
    eig = np.clip(eig, 0.0, None)
    major, minor, least = (4.0 * np.sqrt(eig)).tolist()
    if eig[0] <= 0:
        return major, minor, least, 0.0, 0.0
    elongation = float(np.sqrt(eig[1] / eig[0]))
    flatness = float(np.sqrt(eig[2] / eig[0]))
    return major, minor, least, elongation, flatness


def shape_features(mask: np.ndarray, spacing: Spacing) -> dict[str, float]:
    """The 14 shape descriptors of a binary mask; all zeros if it is empty.

    They are computed inside the mask's box padded by one voxel, where
    every face of a mask voxel meets its neighbour or the grid's edge.
    The indices get the box origin back before they are scaled to mm.
    """
    mask = np.asarray(mask, dtype=bool)
    coords = np.nonzero(mask)
    n = coords[0].size
    if n == 0:
        return {name: 0.0 for name in SHAPE_FEATURE_NAMES}
    box = padded_box(coords, 1, mask.shape)
    mask, origin = mask[box], [b.start for b in box]

    scale = np.array(spacing.as_tuple())
    volume = n * spacing.voxel_volume
    area = _surface_area(mask, spacing)
    surf_idx = np.argwhere(boundary_voxels(mask)) + origin
    extremes = _line_extremes(surf_idx)

    diam_3d = _max_pairwise_distance(
        surf_idx[extremes.all(axis=0)].astype(float) * scale)
    # maximum in-plane diameters: voxel pairs sharing a z / y / x index
    plane_diams = []
    for axis, kept in ((2, [0, 1]), (1, [0, 2]), (0, [1, 2])):
        in_plane = [k for k, off in enumerate(OFFSETS_13) if off[axis] == 0]
        idx = surf_idx[extremes[in_plane].all(axis=0)]
        idx = idx[np.argsort(idx[:, axis], kind="stable")]
        planes = np.flatnonzero(np.diff(idx[:, axis])) + 1
        pts = idx[:, kept].astype(float) * scale[kept]
        plane_diams.append(max(_max_pairwise_distance(group)
                               for group in np.split(pts, planes)))

    all_coords = (np.argwhere(mask) + origin).astype(float) * scale
    major, minor, least, elongation, flatness = _axis_lengths(all_coords)

    sphericity = (36.0 * np.pi * volume**2) ** (1.0 / 3.0) / area
    return {
        "voxel_count": float(n),
        "voxel_volume": volume,
        "surface_area": area,
        "surface_volume_ratio": area / volume,
        "sphericity": sphericity,
        "max_diameter_3d": diam_3d,
        "max_diameter_slice": plane_diams[0],
        "max_diameter_column": plane_diams[1],
        "max_diameter_row": plane_diams[2],
        "major_axis_length": major,
        "minor_axis_length": minor,
        "least_axis_length": least,
        "elongation": elongation,
        "flatness": flatness,
    }
