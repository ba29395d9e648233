"""Shape descriptors of a binary mask in physical units.

All 14 descriptors are voxel-based: volume is voxel count times voxel
volume, surface area counts exposed voxel faces, and diameters are
measured between voxel centers.  No mesh is built.
"""

from __future__ import annotations

import numpy as np

from ..morphology import boundary_voxels
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


def _max_pairwise_distance(points: np.ndarray) -> float:
    """Largest euclidean distance between any two of the given points.

    Uses the convex hull to prune candidates; degenerate point sets
    (collinear, coplanar) are projected onto their principal axes and
    retried in the reduced dimension.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        return 0.0
    if points.shape[0] <= 32:
        diff = points[:, None, :] - points[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())
    # imported here: stages that extract no features must not pay for it
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
        candidates = points[hull.vertices]
    except QhullError:
        centered = points - points.mean(axis=0)
        _, sv, vt = np.linalg.svd(centered, full_matrices=False)
        keep = sv > sv[0] * 1e-9 if sv[0] > 0 else sv > 0
        ndim = int(keep.sum())
        if ndim <= 1:
            proj = centered @ vt[0]
            return float(proj.max() - proj.min())
        reduced = centered @ vt[keep].T
        try:
            hull = ConvexHull(reduced)
            candidates = points[hull.vertices]
        except QhullError:
            candidates = points
    diff = candidates[:, None, :] - candidates[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def _surface_area(mask: np.ndarray, spacing: Spacing) -> float:
    """Total area of voxel faces touching background or the grid edge."""
    dx, dy, dz = spacing.as_tuple()
    face_area = {0: dy * dz, 1: dx * dz, 2: dx * dy}
    total = 0.0
    for axis in range(3):
        for sign in (-1, 1):
            shifted = np.zeros_like(mask)
            src = [slice(None)] * 3
            dst = [slice(None)] * 3
            if sign == 1:
                src[axis] = slice(1, None)
                dst[axis] = slice(None, -1)
            else:
                src[axis] = slice(None, -1)
                dst[axis] = slice(1, None)
            shifted[tuple(dst)] = mask[tuple(src)]
            exposed = mask & ~shifted
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
    """The 14 shape descriptors of a binary mask.

    An empty mask yields all zeros.
    """
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.sum())
    if n == 0:
        return {name: 0.0 for name in SHAPE_FEATURE_NAMES}

    scale = np.array(spacing.as_tuple())
    volume = n * spacing.voxel_volume
    area = _surface_area(mask, spacing)
    surface = boundary_voxels(mask)
    coords = np.argwhere(surface).astype(float) * scale

    diam_3d = _max_pairwise_distance(coords)
    # maximum in-plane diameters: voxel pairs sharing a z / y / x index
    plane_diams = []
    surf_idx = np.argwhere(surface)
    for axis, kept in ((2, (0, 1)), (1, (0, 2)), (0, (1, 2))):
        best = 0.0
        for plane in np.unique(surf_idx[:, axis]):
            pts = surf_idx[surf_idx[:, axis] == plane][:, kept].astype(float)
            pts *= scale[list(kept)]
            best = max(best, _max_pairwise_distance(pts))
        plane_diams.append(best)

    all_coords = np.argwhere(mask).astype(float) * scale
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
