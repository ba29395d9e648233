"""Connectivity, dilation, boundary extraction, exact EDT, line order,
the padded box of a set of voxels, the distinct ids in a list and the
union-find of a graph.

The geometric kernel under small-component removal, the surface
distance metric and the radiomic runs, zones and diameters.  Everything
operates on boolean (x, y, z) grids or voxel index lists and is pure: no
function mutates its input.  Scoring, the fit, ``apply`` and the
radiomics work inside boxes of voxels, each of them a ``padded_box``.

Everything here runs on numpy alone.  Components are joined from runs
of voxels, dilation ORs shifted copies and the EDT is separable, and
each gives the values ``scipy.ndimage`` gives (``label`` on the
transposed box, ``binary_dilation``, ``distance_transform_edt``), which
the tests use as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import Spacing, check

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


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components of a binary mask.

    ``labels`` holds component ids (0 = background) numbered 1..count by
    the first-encountered voxel in scan order (x fastest).  ``sizes[c]``
    is the voxel count of component c, and ``sizes[0]`` is 0.  ``voxels``
    holds the flat (C order) indices of the foreground voxels;
    ``corners[c - 1]`` holds the start and the stop of component c's box,
    shape (count, 2, 3).
    """

    labels: np.ndarray  # int32 grid
    sizes: np.ndarray
    count: int
    voxels: np.ndarray
    corners: np.ndarray


def distinct_ids(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)``'s sorted values, as intp, for non-negative
    integer ids, without the ``numpy.ma`` import ``np.unique`` makes."""
    return np.flatnonzero(np.bincount(ids))


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs ``[first, last)`` of foreground voxels along the last axis
    of a 3-d mask, and the line ``x * Y + y`` of each, in C order."""
    lines, z = mask.shape[0] * mask.shape[1], mask.shape[2]
    padded = np.zeros((lines, z + 2), dtype=bool)
    padded[:, 1:-1] = mask.reshape(lines, z)
    # a run starts and stops where the padded line changes, so the changes
    # alternate first, last; change i lies between columns i and i + 1
    line, edge = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), z + 1)
    return line[0::2], edge[0::2], edge[1::2]


def union_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of ``n`` nodes, the smallest node of its connected
    component in the graph of the edges ``(a[i], b[i])``.

    In rounds until no edge joins two roots, every root an edge meets
    is hooked onto the smallest root across its edges (``np.minimum.at``),
    then pointer jumping brings every node to its root.  Every parent is
    at most its node, so no hook makes a cycle; an edge whose ends share
    a root stays joined, so later rounds skip it."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _run_roots(line: np.ndarray, first: np.ndarray, last: np.ndarray,
               shape: tuple[int, ...], connectivity: int) -> np.ndarray:
    """For each run of ``_runs``, the smallest index of a run in its
    component.

    Runs on neighbouring lines join when their z-ranges overlap (6) or
    touch (26); each run looks only at the lines ahead of it, whose runs
    it finds by binary search on sorted ``(line, first)`` and ``(line,
    last)`` keys, and the joins are unioned by ``union_roots``."""
    y_size, width = shape[1], shape[2] + 1
    starts, stops = line * width + first, line * width + last
    y = line % y_size
    if connectivity == 6:
        steps = ((1, y < y_size - 1), (y_size, True))
    else:
        steps = ((1, y < y_size - 1), (y_size - 1, y > 0), (y_size, True),
                 (y_size + 1, y < y_size - 1))
    reach = int(connectivity == 26)
    left, right = [], []
    for step, inside in steps:
        base = (line + step) * width
        # the runs on line + step with first < last + reach and
        # last > first - reach form one slice of the sorted keys
        lo = np.searchsorted(stops, base + first - reach, side="right")
        hi = np.searchsorted(starts, base + last + reach, side="left")
        count = np.where(inside, hi - lo, 0).clip(0)
        run = np.repeat(np.arange(line.size), count)
        left.append(run)
        right.append(lo[run] + np.arange(run.size) - (np.cumsum(count) - count)[run])
    return union_roots(line.size, np.concatenate(left), np.concatenate(right))


def connected_components(mask: np.ndarray, connectivity: int = 26) -> ComponentLabeling:
    """Label connected components under 6- or 26-connectivity.

    Component ids are assigned by first-encountered voxel in scan order
    (x fastest, then y, then z), so the labeling is deterministic for a
    fixed input.  The mask's foreground box is split into runs along z,
    and runs on neighbouring lines are joined (``_run_roots``).
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int32)
    voxels = np.flatnonzero(mask)
    if not voxels.size:
        return ComponentLabeling(labels=labels, sizes=np.zeros(1, dtype=np.intp),
                                 count=0, voxels=voxels,
                                 corners=np.zeros((0, 2, mask.ndim), dtype=np.intp))
    box = padded_box(np.unravel_index(voxels, mask.shape), 0, mask.shape)
    crop = mask[box]
    line, first, last = _runs(crop)
    roots, run_root = np.unique(_run_roots(line, first, last, crop.shape, connectivity),
                                return_inverse=True)
    # number the components by their first voxel in x-fastest order
    x, y = np.divmod(line, crop.shape[1])
    scan = np.full(roots.size, np.iinfo(np.intp).max)
    np.minimum.at(scan, run_root, x + crop.shape[0] * (y + crop.shape[1] * first))
    ids = np.empty(roots.size, dtype=np.int32)
    ids[np.argsort(scan)] = np.arange(1, roots.size + 1, dtype=np.int32)
    run_id = ids[run_root]
    lengths = last - first
    # the runs, in order, cover the foreground voxels in C order
    labels.reshape(-1)[voxels] = np.repeat(run_id, lengths)
    sizes = np.bincount(run_id, weights=lengths, minlength=roots.size + 1).astype(np.intp)
    lo = np.full((roots.size + 1, 3), np.iinfo(np.intp).max)
    hi = np.full((roots.size + 1, 3), -1)
    np.minimum.at(lo, run_id, np.stack((x, y, first), axis=1))
    np.maximum.at(hi, run_id, np.stack((x + 1, y + 1, last), axis=1))
    corners = np.stack((lo[1:], hi[1:]), axis=1) + [b.start for b in box]
    return ComponentLabeling(labels=labels, sizes=sizes, count=roots.size,
                             voxels=voxels, corners=corners)


def dilate(mask: np.ndarray, iterations: int, connectivity: int = 26) -> np.ndarray:
    """Binary dilation by the connectivity neighborhood, ``iterations``
    times (fewer once the mask stops growing); voxels beyond the grid
    are background."""
    check("iterations", iterations, "integer", 0)
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    mask = np.asarray(mask, dtype=bool)
    if iterations == 0 or not mask.any():
        return mask.copy()
    for _ in range(iterations):
        grown = mask.copy()
        for axis in range(mask.ndim):
            ahead = (slice(None),) * axis + (slice(1, None),)
            behind = (slice(None),) * axis + (slice(None, -1),)
            # the cube is a segment of 3 along each axis in turn (the
            # second OR also sees the first, which adds nothing: a voxel
            # shifted ahead and back is in the input); the cross is the
            # input's six face shifts
            src = grown if connectivity == 26 else mask
            grown[ahead] |= src[behind]
            grown[behind] |= src[ahead]
        if np.array_equal(grown, mask):
            break
        mask = grown
    return mask


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


def euclidean_distance_transform(mask: np.ndarray, spacing: Spacing,
                                 reach: float = math.inf) -> np.ndarray:
    """Exact Euclidean distance (mm) from each voxel to the nearest
    foreground voxel center, honoring anisotropic spacing, wherever that
    distance is at most ``reach``; +inf elsewhere.

    Foreground voxels get 0; an empty mask yields +inf everywhere.  One
    pass per axis takes the minimum of the previous pass's squared
    distances plus ``(k * s) * (k * s)`` over shifts k, for every k
    whose term alone is within ``reach``.  A distance is formed as
    ``scipy.ndimage.distance_transform_edt`` forms it (scaled offsets,
    squared, added in axis order), and rounding is monotone, so the
    nested minima are its values.
    """
    mask = np.asarray(mask, dtype=bool)
    squared = np.where(mask, 0.0, np.inf)
    for axis, step in enumerate(spacing.as_tuple()):
        previous, squared = squared, squared.copy()
        for k in range(1, mask.shape[axis]):
            term = (k * step) * (k * step)
            if math.sqrt(term) > reach:
                break
            ahead = (slice(None),) * axis + (slice(k, None),)
            behind = (slice(None),) * axis + (slice(None, -k),)
            np.minimum(squared[ahead], previous[behind] + term, out=squared[ahead])
            np.minimum(squared[behind], previous[ahead] + term, out=squared[behind])
    distance = np.sqrt(squared)
    distance[distance > reach] = np.inf
    return distance


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
