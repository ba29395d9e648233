"""Brute-force reference implementations for checking the library.

Everything here favors obviousness over speed: explicit loops, a
union-find over voxel coordinate tuples, pairwise distance scans.
None of it shares code with the package under test beyond numpy.
"""

from __future__ import annotations

import numpy as np


def neighbor_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    if connectivity not in (6, 26):
        raise ValueError(f"unsupported connectivity {connectivity}")
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                if connectivity == 6 and abs(dx) + abs(dy) + abs(dz) != 1:
                    continue
                offsets.append((dx, dy, dz))
    return offsets


def scan_index(coord, shape) -> int:
    """Flat position of a voxel in x-fastest scan order."""
    x, y, z = coord
    nx, ny, _ = shape
    return x + nx * (y + ny * z)


def union_find_components(mask, connectivity: int = 26) -> list[set]:
    """Connected components as voxel-coordinate sets, ordered by each
    component's first voxel in x-fastest scan order."""
    mask = np.asarray(mask, dtype=bool)
    coords = [tuple(int(v) for v in c) for c in np.argwhere(mask)]
    members = set(coords)
    parent = {c: c for c in coords}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for c in coords:
        for dx, dy, dz in neighbor_offsets(connectivity):
            n = (c[0] + dx, c[1] + dy, c[2] + dz)
            if n in members:
                ra, rb = find(c), find(n)
                if ra != rb:
                    parent[ra] = rb

    groups: dict[tuple, set] = {}
    for c in coords:
        groups.setdefault(find(c), set()).add(c)
    return sorted(
        groups.values(),
        key=lambda comp: min(scan_index(c, mask.shape) for c in comp),
    )


def brute_remove_small(mask, min_size: int, connectivity: int = 26) -> np.ndarray:
    """``mask`` without its components of fewer than ``min_size`` voxels."""
    out = np.zeros(np.shape(mask), dtype=bool)
    for comp in union_find_components(mask, connectivity):
        if len(comp) >= min_size:
            for voxel in comp:
                out[voxel] = True
    return out


def naive_postprocess(seg, thresholds, rules, connectivity: int = 26) -> np.ndarray:
    """``seg`` after the size ``thresholds`` (label -> smallest component
    kept) and then the relabel ``rules`` (objects with ``src``, ``dst``
    and ``cutoff``) in order, one full-grid pass each.  A rule fires
    when the whole tumor (labels 1-3) is not empty and vol(src) /
    vol(WT) is below its cutoff, on the mask as the earlier steps left
    it."""
    out = np.array(seg, copy=True)
    for label, min_size in sorted(thresholds.items()):
        if min_size > 0:
            mask = out == label
            out[mask & ~brute_remove_small(mask, min_size, connectivity)] = 0
    for rule in rules:
        wt = int(np.isin(out, (1, 2, 3)).sum())
        if wt and int((out == rule.src).sum()) / wt < rule.cutoff:
            out[out == rule.src] = rule.dst
    return out


def tally_confusion(pairs) -> np.ndarray:
    """5x5 voxel counts over ``(pred, gt)`` grid pairs of equal shape:
    entry (g, p) counts the voxels of ground-truth label g predicted as
    p, tallied one voxel at a time."""
    counts = np.zeros((5, 5), dtype=np.int64)
    for pred, gt in pairs:
        assert np.shape(pred) == np.shape(gt)
        for p, g in zip(np.ravel(pred).tolist(), np.ravel(gt).tolist()):
            counts[g, p] += 1
    return counts


def mask_of(voxels, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    for v in voxels:
        out[v] = True
    return out


def brute_edt(mask, spacing) -> np.ndarray:
    """Distance (mm) from every voxel center to the nearest foreground
    voxel center; +inf everywhere when the mask is empty."""
    mask = np.asarray(mask, dtype=bool)
    sp = np.asarray(spacing, dtype=float)
    out = np.full(mask.shape, np.inf, dtype=float)
    fg = np.argwhere(mask) * sp
    if fg.size == 0:
        return out
    grid = np.indices(mask.shape).reshape(3, -1).T * sp
    d2 = ((grid[:, None, :] - fg[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1)).reshape(mask.shape)


def brute_dilate(mask, iterations: int, connectivity: int = 26) -> np.ndarray:
    """Dilation as a distance ball: Chebyshev for 26-connectivity,
    Manhattan for 6-connectivity."""
    mask = np.asarray(mask, dtype=bool)
    fg = np.argwhere(mask)
    out = np.zeros_like(mask)
    if fg.size == 0 or iterations < 0:
        return out
    for idx in np.ndindex(mask.shape):
        d = np.abs(fg - np.asarray(idx))
        dist = d.max(axis=1) if connectivity == 26 else d.sum(axis=1)
        if (dist <= iterations).any():
            out[idx] = True
    return out


def brute_boundary(mask) -> np.ndarray:
    """Voxels with at least one 6-neighbor that is background or
    outside the grid."""
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    shape = mask.shape
    for x, y, z in np.argwhere(mask):
        for dx, dy, dz in neighbor_offsets(6):
            nx, ny, nz = x + dx, y + dy, z + dz
            inside = 0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]
            if not inside or not mask[nx, ny, nz]:
                out[x, y, z] = True
                break
    return out


def _surface_points(mask, spacing) -> np.ndarray:
    return np.argwhere(brute_boundary(mask)).astype(float) * np.asarray(spacing, float)


def _dice(a, b) -> float:
    na, nb = int(a.sum()), int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int((a & b).sum())
    return 2.0 * inter / (na + nb)


def _nsd(pred_mask, gt_mask, spacing, tol) -> float:
    pred_pts = _surface_points(pred_mask, spacing)
    gt_pts = _surface_points(gt_mask, spacing)
    if len(pred_pts) == 0 and len(gt_pts) == 0:
        return 1.0
    if len(pred_pts) == 0 or len(gt_pts) == 0:
        return 0.0
    d_pg = np.sqrt(((pred_pts[:, None, :] - gt_pts[None, :, :]) ** 2).sum(axis=2))
    hits = int((d_pg.min(axis=1) <= tol).sum()) + int((d_pg.min(axis=0) <= tol).sum())
    return hits / (len(pred_pts) + len(gt_pts))


def brute_lesionwise(gt_mask, pred_mask, spacing, tolerances,
                     dilation_iters: int = 3, connectivity: int = 26):
    """Lesion-wise Dice and NSD from first principles.

    Ground-truth components whose individual dilations overlap form one
    lesion; predicted components attach to the lesion whose dilated
    footprint they overlap the most (ties to the lowest lesion id), and
    unmatched ones are false positives scoring zero.  Returns
    (dice, {tol: nsd}).
    """
    gt_mask = np.asarray(gt_mask, dtype=bool)
    pred_mask = np.asarray(pred_mask, dtype=bool)
    shape = gt_mask.shape

    gt_comps = union_find_components(gt_mask, connectivity)
    dilated = [brute_dilate(mask_of(c, shape), dilation_iters, connectivity)
               for c in gt_comps]

    parent = list(range(len(gt_comps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(gt_comps)):
        for j in range(i + 1, len(gt_comps)):
            if (dilated[i] & dilated[j]).any():
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    roots = sorted({find(i) for i in range(len(gt_comps))})
    lesions = []
    for r in roots:
        member = [i for i in range(len(gt_comps)) if find(i) == r]
        les_mask = np.zeros(shape, dtype=bool)
        les_dil = np.zeros(shape, dtype=bool)
        for i in member:
            les_mask |= mask_of(gt_comps[i], shape)
            les_dil |= dilated[i]
        lesions.append((les_mask, les_dil))

    pred_comps = union_find_components(pred_mask, connectivity)
    assigned_pred = [np.zeros(shape, dtype=bool) for _ in lesions]
    n_fp = 0
    for comp in pred_comps:
        cmask = mask_of(comp, shape)
        overlaps = [int((cmask & dil).sum()) for _, dil in lesions]
        best = max(overlaps, default=0)
        if best == 0:
            n_fp += 1
            continue
        assigned_pred[overlaps.index(best)] |= cmask

    n_units = len(lesions) + n_fp
    if n_units == 0:
        return 1.0, {tol: 1.0 for tol in tolerances}

    dice_sum = 0.0
    nsd_sums = {tol: 0.0 for tol in tolerances}
    for (les_mask, _), pmask in zip(lesions, assigned_pred):
        dice_sum += _dice(pmask, les_mask)
        for tol in tolerances:
            nsd_sums[tol] += _nsd(pmask, les_mask, spacing, tol)
    return dice_sum / n_units, {t: s / n_units for t, s in nsd_sums.items()}


def brute_tie_ranks(values) -> list[float]:
    """Descending tie-averaged ranks (best value gets rank 1), O(n^2)."""
    ranks = []
    for v in values:
        greater = sum(1 for u in values if u > v)
        equal = sum(1 for u in values if u == v)
        ranks.append(greater + (equal + 1) / 2.0)
    return ranks


# -- texture count matrices -------------------------------------------------

def brute_glcm(levels, offset, n_levels: int) -> np.ndarray:
    """Symmetric gray-level co-occurrence counts by pair enumeration.
    ``levels`` uses 0 for voxels outside the mask, 1..n_levels inside."""
    levels = np.asarray(levels)
    counts = np.zeros((n_levels, n_levels), dtype=float)
    shape = levels.shape
    for x, y, z in np.argwhere(levels > 0):
        a = int(levels[x, y, z])
        nxyz = (x + offset[0], y + offset[1], z + offset[2])
        if all(0 <= nxyz[i] < shape[i] for i in range(3)):
            b = int(levels[nxyz])
            if b > 0:
                counts[a - 1, b - 1] += 1
                counts[b - 1, a - 1] += 1
    return counts


def brute_glrlm(levels, direction, n_levels: int) -> np.ndarray:
    """Run-length counts: walk rays from run starts along ``direction``."""
    levels = np.asarray(levels)
    shape = levels.shape
    counts = np.zeros((n_levels, max(shape)), dtype=float)
    for x, y, z in np.argwhere(levels > 0):
        g = int(levels[x, y, z])
        px, py, pz = x - direction[0], y - direction[1], z - direction[2]
        inside = 0 <= px < shape[0] and 0 <= py < shape[1] and 0 <= pz < shape[2]
        if inside and levels[px, py, pz] == g:
            continue  # interior of a run, not its start
        length = 0
        cx, cy, cz = x, y, z
        while (0 <= cx < shape[0] and 0 <= cy < shape[1] and 0 <= cz < shape[2]
               and levels[cx, cy, cz] == g):
            length += 1
            cx, cy, cz = cx + direction[0], cy + direction[1], cz + direction[2]
        counts[g - 1, length - 1] += 1
    return counts


def brute_glszm(levels, n_levels: int) -> np.ndarray:
    """Zone-size counts: 26-connected components per gray level."""
    levels = np.asarray(levels)
    largest = max(int((levels > 0).sum()), 1)
    counts = np.zeros((n_levels, largest), dtype=float)
    for g in range(1, n_levels + 1):
        for comp in union_find_components(levels == g, 26):
            counts[g - 1, len(comp) - 1] += 1
    return counts


def brute_gldm(levels, n_levels: int) -> np.ndarray:
    """Dependence counts: a voxel's dependence size is one plus the
    number of its in-mask 26-neighbors with the same level."""
    levels = np.asarray(levels)
    shape = levels.shape
    counts = np.zeros((n_levels, 27), dtype=float)
    for x, y, z in np.argwhere(levels > 0):
        g = int(levels[x, y, z])
        dep = 0
        for dx, dy, dz in neighbor_offsets(26):
            nx, ny, nz = x + dx, y + dy, z + dz
            inside = 0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]
            if inside and levels[nx, ny, nz] == g:
                dep += 1
        counts[g - 1, dep] += 1
    return counts


def brute_ngtdm(levels, n_levels: int):
    """Neighborhood difference table: per level, the voxel count n_i and
    the summed |level - mean of in-mask 26-neighbor levels| s_i, over
    voxels that have at least one in-mask neighbor."""
    levels = np.asarray(levels)
    shape = levels.shape
    n = np.zeros(n_levels, dtype=float)
    s = np.zeros(n_levels, dtype=float)
    for x, y, z in np.argwhere(levels > 0):
        vals = []
        for dx, dy, dz in neighbor_offsets(26):
            nx, ny, nz = x + dx, y + dy, z + dz
            inside = 0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]
            if inside and levels[nx, ny, nz] > 0:
                vals.append(float(levels[nx, ny, nz]))
        if not vals:
            continue
        g = int(levels[x, y, z])
        n[g - 1] += 1
        s[g - 1] += abs(g - sum(vals) / len(vals))
    return n, s


# -- random mask generators used by several test modules --------------------

def random_blob_mask(rng, shape, density: float = 0.5, smooth: int = 1) -> np.ndarray:
    """Clumpy random mask: threshold a box-smoothed noise field."""
    field = rng.random(shape)
    for _ in range(smooth):
        acc = field.copy()
        cnt = np.ones(shape)
        for axis in range(3):
            for shift in (-1, 1):
                rolled = np.roll(field, shift, axis=axis)
                edge = [slice(None)] * 3
                edge[axis] = 0 if shift == 1 else -1
                rolled[tuple(edge)] = 0.0
                mark = np.ones(shape)
                mark[tuple(edge)] = 0.0
                acc += rolled
                cnt += mark
        field = acc / cnt
    cut = np.quantile(field, 1.0 - density)
    return field > cut
