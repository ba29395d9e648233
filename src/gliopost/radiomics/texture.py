"""Gray-level texture matrices and their feature sets.

Five families are implemented: co-occurrence (GLCM), run length
(GLRLM), size zone (GLSZM), dependence (GLDM) and neighborhood gray-tone
difference (NGTDM).  Everything works on one list of voxels: the voxels
of the region, numbered 0..n-1 in C order.  ``discretize`` bins their
intensities into a fixed number of equal-width bins over the region's
range; gray levels are the 1-based bin indices, and matrices are sized
by the highest occupied level.

The pair geometry depends only on the region, so a caller builds it
once (``neighbour_pairs``) and reuses it for every sequence: for each of
the 13 unique 3D offsets (one per opposite pair of the 26-neighborhood)
the pairs of region voxels that offset joins.  The geometry also keeps,
built on first use, each offset's line order of the voxels and the
neighbour counts NGTDM needs.  A ``PairTable`` joins that geometry to
one sequence's levels, and filters each offset's equal-level pairs once
(``PairTable.same``) for the run, zone and dependence families together.
Each count matrix is then a ``bincount`` over the table, so the work
scales with the region's voxels, not with its bounding box:

* GLCM counts the level pairs of each offset; matrices are symmetrized
  per offset and features are averaged over offsets.
* GLDM and NGTDM count, from both ends of every pair, the equal-level
  neighbours and the neighbour level sums of each voxel (26-neighborhood).
* A run is a maximal stretch of equal-level voxels along one offset.  In
  the offset's line order a voxel starts a run unless it is the second
  voxel of an equal-level pair, so the run lengths are the gaps between
  consecutive starts.
* A zone is a connected component of the graph of equal-level pairs over
  all 13 offsets, found by union-find on the voxel list
  (``morphology.union_roots``).

Run-length, size-zone and dependence matrices share one set of
statistics (``_size_matrix_features``): each has gray levels as rows and
a run length, zone size or dependence size as columns.

Degenerate conventions, chosen so constant regions yield finite values:
correlation and MCC are 1 when the region has a single gray level, IMC1
is 0 when both marginal entropies vanish, and NGTDM coarseness saturates
at 1e6 when no gray-tone differences exist.  Scattered single voxels
give no co-occurring pair, which sets every GLCM feature to 0 except
correlation = MCC = 1, and no neighbors, which sets every NGTDM feature
to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..morphology import OFFSETS_13, line_order, padded_box, union_roots

DEFAULT_BIN_COUNT = 32
COARSENESS_MAX = 1.0e6

GLCM_FEATURE_NAMES = (
    "autocorrelation",
    "joint_average",
    "cluster_prominence",
    "cluster_shade",
    "cluster_tendency",
    "contrast",
    "correlation",
    "difference_average",
    "difference_entropy",
    "difference_variance",
    "joint_energy",
    "joint_entropy",
    "imc1",
    "imc2",
    "idm",
    "idmn",
    "id",
    "idn",
    "inverse_variance",
    "maximum_probability",
    "sum_average",
    "sum_entropy",
    "sum_squares",
    "mcc",
)

GLRLM_FEATURE_NAMES = (
    "short_run_emphasis",
    "long_run_emphasis",
    "gray_level_nonuniformity",
    "gray_level_nonuniformity_normalized",
    "run_length_nonuniformity",
    "run_length_nonuniformity_normalized",
    "run_percentage",
    "gray_level_variance",
    "run_variance",
    "run_entropy",
    "low_gray_level_run_emphasis",
    "high_gray_level_run_emphasis",
    "short_run_low_gray_level_emphasis",
    "short_run_high_gray_level_emphasis",
    "long_run_low_gray_level_emphasis",
    "long_run_high_gray_level_emphasis",
)

GLSZM_FEATURE_NAMES = (
    "small_area_emphasis",
    "large_area_emphasis",
    "gray_level_nonuniformity",
    "gray_level_nonuniformity_normalized",
    "size_zone_nonuniformity",
    "size_zone_nonuniformity_normalized",
    "zone_percentage",
    "gray_level_variance",
    "zone_variance",
    "zone_entropy",
    "low_gray_level_zone_emphasis",
    "high_gray_level_zone_emphasis",
    "small_area_low_gray_level_emphasis",
    "small_area_high_gray_level_emphasis",
    "large_area_low_gray_level_emphasis",
    "large_area_high_gray_level_emphasis",
)

GLDM_FEATURE_NAMES = (
    "small_dependence_emphasis",
    "large_dependence_emphasis",
    "gray_level_nonuniformity",
    "dependence_nonuniformity",
    "dependence_nonuniformity_normalized",
    "gray_level_variance",
    "dependence_variance",
    "dependence_entropy",
    "low_gray_level_emphasis",
    "high_gray_level_emphasis",
    "small_dependence_low_gray_level_emphasis",
    "small_dependence_high_gray_level_emphasis",
    "large_dependence_low_gray_level_emphasis",
    "large_dependence_high_gray_level_emphasis",
)

NGTDM_FEATURE_NAMES = (
    "coarseness",
    "contrast",
    "busyness",
    "complexity",
    "strength",
)

def discretize(values: np.ndarray, bin_count: int) -> np.ndarray:
    """Equal-width binning of a non-empty region's intensities into
    levels 1..bin_count over their range.

    Returns the int64 level of each value.  A constant region maps to
    level 1 everywhere.
    """
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.ones(values.size, dtype=np.int64)
    width = (hi - lo) / bin_count
    binned = np.floor((values - lo) / width).astype(np.int64) + 1
    return np.clip(binned, 1, bin_count)


# ---------------------------------------------------------------------------
# neighbour-pair table and matrix builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairGeometry:
    """The neighbour pairs of a region's voxels, numbered 0..n-1 in C order.

    ``coords[i]`` is voxel i's index in the region's box, and
    ``pairs[k]`` holds the int32 arrays ``(a, b)`` of every voxel ``a``
    whose neighbour ``b`` at ``offsets[k]`` is in the region too, with
    ``a`` ascending.
    """

    coords: np.ndarray
    offsets: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    @cached_property
    def line_orders(self) -> tuple[np.ndarray, ...]:
        """For each offset, the voxels ordered by line along it, then by
        position on the line (``morphology.line_order``)."""
        return tuple(line_order(self.coords, off)[0] for off in self.offsets)

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(a, b, valid, counts)``: all offsets' pairs as one ``(a, b)``,
        the mask of the voxels with at least one neighbour, and those
        voxels' neighbour counts."""
        a, b = _concat(self.pairs)
        n = len(self.coords)
        counts = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        valid = counts > 0
        return a, b, valid, counts[valid]


def neighbour_pairs(
    mask: np.ndarray,
    offsets: tuple[tuple[int, int, int], ...] = OFFSETS_13,
) -> PairGeometry:
    """The pair geometry of the voxels of a non-empty mask, for non-zero
    offsets inside the 26-neighborhood."""
    coords = np.nonzero(mask)
    box = padded_box(coords, 0, mask.shape)
    mask = mask[box]
    # a one-voxel border of -1 lets every neighbour lookup stay in bounds
    ids = np.full(np.add(mask.shape, 2), -1, dtype=np.int32)
    ids[1:-1, 1:-1, 1:-1][mask] = np.arange(coords[0].size, dtype=np.int32)
    flat = ids.ravel()
    where = np.flatnonzero(flat >= 0)
    steps = np.array([ids.shape[1] * ids.shape[2], ids.shape[2], 1])
    pairs = []
    for off in offsets:
        b = flat[where + int(np.dot(off, steps))]
        a = np.flatnonzero(b >= 0).astype(np.int32)
        pairs.append((a, b[a]))
    return PairGeometry(coords=np.stack(coords, axis=1) - [b.start for b in box],
                        offsets=tuple(offsets), pairs=tuple(pairs))


@dataclass(frozen=True)
class PairTable:
    """One sequence's gray levels on a region's voxel list, with the
    region's pair geometry.

    ``levels[i]`` is the gray level of voxel i and ``geometry`` is the
    ``neighbour_pairs`` geometry of the region.
    """

    levels: np.ndarray
    geometry: PairGeometry

    @property
    def ng(self) -> int:
        """The highest occupied gray level, which sizes every matrix."""
        return int(self.levels.max())

    @cached_property
    def same(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each offset's pairs whose two voxels share a gray level."""
        out = []
        for a, b in self.geometry.pairs:
            keep = self.levels[a] == self.levels[b]
            out.append((a[keep], b[keep]))
        return tuple(out)


def _concat(pairs) -> tuple[np.ndarray, np.ndarray]:
    """All offsets' pairs as one ``(a, b)``, in offset order."""
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


def _level_size_counts(levels: np.ndarray, sizes: np.ndarray, ng: int) -> np.ndarray:
    """Rows are gray levels 1..ng, column s-1 counts the items of size s."""
    width = int(sizes.max())
    flat = np.bincount((levels - 1) * width + (sizes - 1), minlength=ng * width)
    return flat.reshape(ng, width)


def glcm_counts(table: PairTable) -> list[np.ndarray]:
    """Symmetric co-occurrence counts, one matrix per table offset."""
    ng = table.ng
    out = []
    for a, b in table.geometry.pairs:
        codes = (table.levels[a] - 1) * ng + (table.levels[b] - 1)
        counts = np.bincount(codes, minlength=ng * ng).reshape(ng, ng)
        out.append(counts + counts.T)
    return out


def glrlm_counts(table: PairTable) -> list[np.ndarray]:
    """Run-length counts, one matrix per table offset; rows are gray
    levels, column l-1 is the number of maximal runs of length l."""
    n = table.levels.size
    out = []
    for (_, b), order in zip(table.same, table.geometry.line_orders):
        linked = np.zeros(n, dtype=bool)
        linked[b] = True
        starts = np.flatnonzero(~linked[order])
        lengths = np.diff(starts, append=n)
        out.append(_level_size_counts(table.levels[order[starts]], lengths, table.ng))
    return out


def glszm_counts(table: PairTable) -> np.ndarray:
    """Size-zone counts; a zone is a component of the equal-level pair
    graph over all table offsets (26-connected with the default 13)."""
    roots = union_roots(table.levels.size, *_concat(table.same))
    sizes = np.bincount(roots)
    zones = np.flatnonzero(sizes)
    return _level_size_counts(table.levels[zones], sizes[zones], table.ng)


def gldm_counts(table: PairTable) -> np.ndarray:
    """Dependence counts; the dependence size of a voxel is 1 plus the
    number of its neighbours at the same gray level."""
    a, b = _concat(table.same)
    n = table.levels.size
    size = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) + 1
    return _level_size_counts(table.levels, size, table.ng)


def ngtdm_table(table: PairTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-level voxel counts n_i and absolute gray-tone differences s_i.

    Only voxels with at least one neighbour in the region participate; the
    difference is against the mean level of those neighbours.  The
    neighbour sums are integer-valued, so they are exact in float64 in any
    order, and s_i is accumulated over the voxels in C order.
    """
    a, b, valid, nbr_cnt = table.geometry.neighbours
    n = table.levels.size
    nbr_sum = (np.bincount(a, weights=table.levels[b], minlength=n)
               + np.bincount(b, weights=table.levels[a], minlength=n))
    vl = table.levels[valid]
    mean_nbr = nbr_sum[valid] / nbr_cnt
    n_i = np.bincount(vl - 1, minlength=table.ng)
    s_i = np.bincount(vl - 1, weights=np.abs(vl - mean_nbr), minlength=table.ng)
    return n_i, s_i


# ---------------------------------------------------------------------------
# feature computations
# ---------------------------------------------------------------------------

def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _glcm_features_one(counts: np.ndarray, ng: int) -> dict[str, float]:
    p = counts.astype(np.float64) / counts.sum()
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    ux = float((i * px).sum())
    uy = float((i * py).sum())
    sigx = float(np.sqrt(((i - ux) ** 2 * px).sum()))
    sigy = float(np.sqrt(((i - uy) ** 2 * py).sum()))

    k_sum = np.arange(2, 2 * ng + 1, dtype=np.float64)
    p_sum = np.zeros(k_sum.size)
    k_diff = np.arange(0, ng, dtype=np.float64)
    p_diff = np.zeros(k_diff.size)
    np.add.at(p_sum, (ii + jj).astype(np.int64).ravel() - 2, p.ravel())
    np.add.at(p_diff, np.abs(ii - jj).astype(np.int64).ravel(), p.ravel())

    hx = _entropy(px)
    hy = _entropy(py)
    hxy = _entropy(p)
    outer = px[:, None] * py[None, :]
    nz = p > 0
    hxy1 = float(-(p[nz] * np.log2(outer[nz])).sum())
    nzo = outer > 0
    hxy2 = float(-(outer[nzo] * np.log2(outer[nzo])).sum())

    diff_avg = float((k_diff * p_diff).sum())
    features = {
        "autocorrelation": float((p * ii * jj).sum()),
        "joint_average": ux,
        "cluster_prominence": float((p * (ii + jj - ux - uy) ** 4).sum()),
        "cluster_shade": float((p * (ii + jj - ux - uy) ** 3).sum()),
        "cluster_tendency": float((p * (ii + jj - ux - uy) ** 2).sum()),
        "contrast": float((p * (ii - jj) ** 2).sum()),
        "difference_average": diff_avg,
        "difference_entropy": _entropy(p_diff),
        "difference_variance": float(((k_diff - diff_avg) ** 2 * p_diff).sum()),
        "joint_energy": float((p**2).sum()),
        "joint_entropy": hxy,
        "idm": float((p / (1.0 + (ii - jj) ** 2)).sum()),
        "idmn": float((p / (1.0 + ((ii - jj) / ng) ** 2)).sum()),
        "id": float((p / (1.0 + np.abs(ii - jj))).sum()),
        "idn": float((p / (1.0 + np.abs(ii - jj) / ng)).sum()),
        "maximum_probability": float(p.max()),
        "sum_average": float((k_sum * p_sum).sum()),
        "sum_entropy": _entropy(p_sum),
        "sum_squares": float((p * (ii - ux) ** 2).sum()),
    }

    if sigx > 0 and sigy > 0:
        features["correlation"] = ((p * ii * jj).sum() - ux * uy) / (sigx * sigy)
    else:
        features["correlation"] = 1.0

    off_diag = np.abs(ii - jj) > 0
    features["inverse_variance"] = float(
        (p[off_diag] / (ii - jj)[off_diag] ** 2).sum()
    )

    hmax = max(hx, hy)
    features["imc1"] = (hxy - hxy1) / hmax if hmax > 0 else 0.0
    imc2_arg = 1.0 - np.exp(-2.0 * (hxy2 - hxy))
    features["imc2"] = float(np.sqrt(imc2_arg)) if imc2_arg > 0 else 0.0

    occupied = px > 0
    if occupied.sum() < 2:
        features["mcc"] = 1.0
    else:
        pr = p[np.ix_(occupied, occupied)]
        pxr = px[occupied]
        pyr = py[occupied]
        q = (pr / (pxr[:, None] * pyr[None, :])) @ pr.T
        eig = np.sort(np.linalg.eigvals(q).real)
        features["mcc"] = float(np.sqrt(max(eig[-2], 0.0)))
    return features


def glcm_features(table: PairTable) -> dict[str, float]:
    """The 24 co-occurrence features, averaged over all table offsets
    that produce at least one voxel pair.

    If no offset produces a pair (scattered single voxels), all features
    are 0 except the degenerate conventions correlation = mcc = 1.
    """
    per_angle = [
        _glcm_features_one(counts, table.ng)
        for counts in glcm_counts(table)
        if counts.sum() > 0
    ]
    if not per_angle:
        out = {name: 0.0 for name in GLCM_FEATURE_NAMES}
        out["correlation"] = 1.0
        out["mcc"] = 1.0
        return out
    return {
        name: float(np.mean([f[name] for f in per_angle]))
        for name in GLCM_FEATURE_NAMES
    }


def _size_matrix_features(counts: np.ndarray, n_voxels: int) -> dict[str, float]:
    """The 16 statistics of a matrix with gray levels as rows and run
    length, zone size or dependence size as columns, keyed by their
    GLRLM names; ``n_voxels`` is the denominator of the percentage."""
    total = counts.sum()
    p = counts.astype(np.float64) / total
    gray = np.arange(1, counts.shape[0] + 1, dtype=np.float64)
    size = np.arange(1, counts.shape[1] + 1, dtype=np.float64)
    pg = p.sum(axis=1)
    ps = p.sum(axis=0)
    cg = counts.sum(axis=1).astype(np.float64)
    cs = counts.sum(axis=0).astype(np.float64)
    gg, ss = np.meshgrid(gray, size, indexing="ij")
    mu_g = float((pg * gray).sum())
    mu_s = float((ps * size).sum())
    return {
        "short_run_emphasis": float((p / ss**2).sum()),
        "long_run_emphasis": float((p * ss**2).sum()),
        "gray_level_nonuniformity": float((cg**2).sum() / total),
        "gray_level_nonuniformity_normalized": float((pg**2).sum()),
        "run_length_nonuniformity": float((cs**2).sum() / total),
        "run_length_nonuniformity_normalized": float((ps**2).sum()),
        "run_percentage": float(total / n_voxels),
        "gray_level_variance": float((pg * (gray - mu_g) ** 2).sum()),
        "run_variance": float((ps * (size - mu_s) ** 2).sum()),
        "run_entropy": _entropy(p.ravel()),
        "low_gray_level_run_emphasis": float((p / gg**2).sum()),
        "high_gray_level_run_emphasis": float((p * gg**2).sum()),
        "short_run_low_gray_level_emphasis": float((p / (gg**2 * ss**2)).sum()),
        "short_run_high_gray_level_emphasis": float((p * gg**2 / ss**2).sum()),
        "long_run_low_gray_level_emphasis": float((p * ss**2 / gg**2).sum()),
        "long_run_high_gray_level_emphasis": float((p * gg**2 * ss**2).sum()),
    }


def glrlm_features(table: PairTable) -> dict[str, float]:
    """The 16 run-length features, averaged over the table offsets."""
    n_voxels = table.levels.size
    per_angle = [
        _size_matrix_features(counts, n_voxels) for counts in glrlm_counts(table)
    ]
    return {
        name: float(np.mean([f[name] for f in per_angle]))
        for name in GLRLM_FEATURE_NAMES
    }


def glszm_features(table: PairTable) -> dict[str, float]:
    """The 16 size-zone features of the single zone matrix."""
    stats = _size_matrix_features(glszm_counts(table), table.levels.size)
    return dict(zip(GLSZM_FEATURE_NAMES, stats.values()))


def gldm_features(table: PairTable) -> dict[str, float]:
    """The 14 dependence features: the size matrix statistics without
    the percentage, which is 1 by construction, and the normalized
    gray-level nonuniformity."""
    counts = gldm_counts(table)
    stats = _size_matrix_features(counts, int(counts.sum()))
    del stats["gray_level_nonuniformity_normalized"], stats["run_percentage"]
    return dict(zip(GLDM_FEATURE_NAMES, stats.values()))


def ngtdm_features(table: PairTable) -> dict[str, float]:
    """The 5 neighborhood gray-tone difference features; all are 0 when
    no voxel has a neighbour in the region."""
    ng = table.ng
    n_i, s_i = ngtdm_table(table)
    nvp = int(n_i.sum())
    if nvp == 0:
        return {name: 0.0 for name in NGTDM_FEATURE_NAMES}
    p_i = n_i / nvp
    gray = np.arange(1, ng + 1, dtype=np.float64)
    occ = p_i > 0
    ngp = int(occ.sum())

    ps_dot = float((p_i * s_i).sum())
    coarseness = 1.0 / ps_dot if ps_dot > 0 else COARSENESS_MAX
    coarseness = min(coarseness, COARSENESS_MAX)

    if ngp > 1:
        gi, gj = np.meshgrid(gray[occ], gray[occ], indexing="ij")
        pi, pj = np.meshgrid(p_i[occ], p_i[occ], indexing="ij")
        si, sj = np.meshgrid(s_i[occ], s_i[occ], indexing="ij")
        contrast = (
            float((pi * pj * (gi - gj) ** 2).sum())
            / (ngp * (ngp - 1))
            * float(s_i.sum())
            / nvp
        )
        busy_den = float(np.abs(gi * pi - gj * pj).sum())
        busyness = ps_dot / busy_den if busy_den > 0 else 0.0
        complexity = float(
            (np.abs(gi - gj) * (pi * si + pj * sj) / (pi + pj)).sum()
        ) / nvp
        s_sum = float(s_i.sum())
        strength = (
            float(((pi + pj) * (gi - gj) ** 2).sum()) / s_sum if s_sum > 0 else 0.0
        )
    else:
        contrast = 0.0
        busyness = 0.0
        complexity = 0.0
        strength = 0.0

    return {
        "coarseness": coarseness,
        "contrast": contrast,
        "busyness": busyness,
        "complexity": complexity,
        "strength": strength,
    }
