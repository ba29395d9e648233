"""Connectivity, dilation, boundary extraction, exact EDT, line order,
and the padded box of a set of voxels.

The geometric kernel under small-component removal, the surface
distance metric and the radiomic runs and diameters.  Everything
operates on boolean (x, y, z) grids or voxel index lists and is pure: no
function mutates its input.  Scoring, the fit, ``apply`` and the
radiomics work inside boxes of voxels, each of them a ``padded_box``.

``scipy.ndimage`` is imported inside the functions that call it, so a
process that never labels, dilates or takes an EDT (``extract-features``,
``rank``) never loads it.  Commands that do label load it before they
fork their workers (see ``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .volume import Spacing

#: the 26-neighborhood offsets, and the 13 unique directions modulo sign
#: (lexicographically positive half), in a fixed documented order
OFFSETS_26 = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)
OFFSETS_13 = tuple(o for o in OFFSETS_26 if o > (0, 0, 0))
OFFSETS_6 = tuple(o for o in OFFSETS_26 if abs(o[0]) + abs(o[1]) + abs(o[2]) == 1)


def padded_box(coords, pad: int, shape: tuple[int, ...]) -> tuple[slice, ...]:
    """The box of the voxel indices ``coords`` (one non-empty array per
    axis, as from ``np.nonzero``, or an (n, 2, ndim) array of the starts
    and stops of n boxes), padded by ``pad`` and clipped to ``shape``."""
    if isinstance(coords, np.ndarray) and coords.ndim == 3:
        coords = np.concatenate((coords[:, 0], coords[:, 1] - 1)).T
    return tuple(slice(max(int(c.min()) - pad, 0), min(int(c.max()) + 1 + pad, n))
                 for c, n in zip(coords, shape))


def nonzero_box(grid: np.ndarray, pad: int = 0) -> tuple[slice, ...] | None:
    """The ``padded_box`` of ``grid``'s nonzero voxels, or None if it has
    none.  Taken from per-axis ``any()`` projections, which scan the grid
    twice, rather than from ``np.nonzero``, which builds an index array
    per axis over every nonzero voxel."""
    shape, hits = grid.shape, []
    while grid.ndim:
        hits.append(np.flatnonzero(grid.any(axis=tuple(range(1, grid.ndim)))))
        grid = grid.any(axis=0)
    return padded_box(hits, pad, shape) if hits[0].size else None


def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 6:
        from scipy import ndimage  # only labelling commands load ndimage

        return ndimage.generate_binary_structure(3, 1)
    if connectivity == 26:
        return np.ones((3, 3, 3), dtype=bool)
    raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components of a binary mask.

    ``labels`` holds component ids (0 = background) numbered 1..count by
    the first-encountered voxel in scan order (x fastest).  ``sizes[c]``
    is the voxel count of component c, and ``sizes[0]`` is 0.  ``voxels``
    holds the flat (C order) indices of the foreground voxels, and
    ``box`` the box they span; ``corners[c - 1]`` holds the start and
    the stop of component c's ``find_objects`` box, shape (count, 2, 3).
    """

    labels: np.ndarray  # int32 grid
    sizes: np.ndarray
    count: int
    voxels: np.ndarray
    box: tuple[slice, ...]

    @cached_property
    def corners(self) -> np.ndarray:
        objects = []
        if self.count:
            from scipy import ndimage  # only labelling commands load ndimage

            objects = ndimage.find_objects(self.labels[self.box], self.count)
        corners = np.array([[[s.start for s in obj], [s.stop for s in obj]]
                            for obj in objects], dtype=np.intp)
        return corners.reshape(-1, 2, self.labels.ndim) + [b.start for b in self.box]


def connected_components(mask: np.ndarray, connectivity: int = 26) -> ComponentLabeling:
    """Label connected components under 6- or 26-connectivity.

    Component ids are assigned by first-encountered voxel in scan order
    (x fastest, then y, then z), so the labeling is deterministic for a
    fixed input.
    """
    from scipy import ndimage  # only labelling commands load ndimage

    mask = np.asarray(mask, dtype=bool)
    structure = _structure(connectivity)
    labels = np.zeros(mask.shape, dtype=np.int32)
    voxels = np.flatnonzero(mask)
    box = (slice(0, 0),) * mask.ndim
    if voxels.size:
        # labelled inside the box of the foreground, whose scan order is
        # the grid's; ndimage.label numbers components by their first
        # voxel in C order, and C order on the transposed box is x-fastest
        # order on it
        box = padded_box(np.unravel_index(voxels, mask.shape), 0, mask.shape)
        labels[box] = ndimage.label(mask[box].T, structure=structure)[0].T
    sizes = np.bincount(labels.ravel()[voxels], minlength=1)
    return ComponentLabeling(labels=labels, sizes=sizes, count=sizes.size - 1,
                             voxels=voxels, box=box)


def dilate(mask: np.ndarray, iterations: int, connectivity: int = 26) -> np.ndarray:
    """Binary dilation by the connectivity neighborhood, ``iterations`` times."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    mask = np.asarray(mask, dtype=bool)
    if iterations == 0 or not mask.any():
        return mask.copy()
    from scipy import ndimage  # only labelling commands load ndimage

    return ndimage.binary_dilation(mask, structure=_structure(connectivity),
                                   iterations=iterations)


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with at least one background face neighbor;
    voxels outside the grid count as background, so masks touching the
    edge keep a surface there."""
    mask = np.asarray(mask, dtype=bool)
    interior = np.ones_like(mask)
    for off in OFFSETS_6:
        interior &= shifted(mask, off)
    return mask & ~interior


def shifted(mask: np.ndarray, offset: tuple[int, int, int]) -> np.ndarray:
    """mask translated by -offset: out[i] = mask[i + offset], False
    beyond the grid."""
    out = np.zeros_like(mask)
    src = []
    dst = []
    for n, o in zip(mask.shape, offset):
        if o >= 0:
            src.append(slice(o, n))
            dst.append(slice(0, n - o))
        else:
            src.append(slice(0, n + o))
            dst.append(slice(-o, n))
    out[tuple(dst)] = mask[tuple(src)]
    return out


def euclidean_distance_transform(mask: np.ndarray, spacing: Spacing) -> np.ndarray:
    """Exact Euclidean distance (mm) from each voxel to the nearest
    foreground voxel center, honoring anisotropic spacing.

    Foreground voxels get 0; an empty mask yields +inf everywhere.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.full(mask.shape, np.inf)
    from scipy import ndimage  # only labelling commands load ndimage

    return ndimage.distance_transform_edt(~mask, sampling=spacing.as_tuple())


def line_order(coords: np.ndarray,
               offset: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The points ``coords`` (an (n, 3) array of non-negative voxel
    indices) ordered along the lines of a 26-neighborhood ``offset``.

    Returns ``(order, first)``: ``order`` sorts the points by line, then
    by position along the line, so a point's neighbour at ``offset``,
    when it is a point too, comes right after it; ``first[i]`` tells
    whether ``order[i]`` is the first point of its line.
    """
    coords = np.asarray(coords, dtype=np.int64)
    step = np.asarray(offset, dtype=np.int64)
    axis = int(np.flatnonzero(step)[0])
    pos = coords[:, axis] * step[axis]
    # where each point's line meets the plane coords[axis] == 0; every
    # coordinate of it lies in [-(span - 1), 2 * (span - 1)]
    base = coords - pos[:, None] * step
    span = int(coords.max(initial=0)) + 1
    line = (((base[:, 0] + span) * (3 * span) + base[:, 1] + span) * (3 * span)
            + base[:, 2] + span)
    order = np.argsort(line * (2 * span) + pos + span)
    ordered = line[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, first
