"""Feature standardization, PCA, and silhouette-selected k-means.

All variance computations use the population (1/n) convention.  Fitting
is deterministic for a fixed seed: the random generator is consumed in a
fixed order (k values ascending, restarts in sequence) and every
tie-break is explicit (lowest index wins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import distinct_ids
from .volume import JsonConfig, check

DEFAULT_K_RANGE = tuple(range(2, 11))
DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300
DEFAULT_VARIANCE_TARGET = 0.90


@dataclass(frozen=True)
class StandardizationStats(JsonConfig):
    """Per-feature mean and population std of the training corpus.

    Zero-variance features carry the std sentinel 1 so they pass
    through centering unscaled.
    """

    mean: np.ndarray
    std: np.ndarray

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return (rows - self.mean) / self.std


@dataclass(frozen=True)
class PcaModel(JsonConfig):
    """Principal directions (rows) with their explained-variance ratios.

    ``components`` holds only the retained directions; projection is
    (row - center) @ components.T.
    """

    center: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def project(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return (rows - self.center) @ self.components.T


@dataclass(frozen=True)
class ClusterModel(JsonConfig):
    """k-means result: centroids in PCA space plus the selection record.
    Construction checks that k is an integer >= 1, the seed an integer >=
    0, the silhouette a number in [-1, 1] and the inertia one >= 0."""

    k: int
    centroids: np.ndarray
    silhouette: float
    seed: int
    inertia: float

    def __post_init__(self):
        check("k", self.k, "integer", 1)
        check("seed", self.seed, "integer", 0)
        check("silhouette", self.silhouette, "number", -1, 1)
        check("inertia", self.inertia, "number", 0)


def fit_standardizer(values: np.ndarray) -> StandardizationStats:
    """Column means and population stds; constant columns get std 1."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("standardizer needs a matrix with at least 2 rows")
    mean = values.mean(axis=0)
    std = values.std(axis=0)  # population (1/n)
    std = np.where(std > 0, std, 1.0)
    return StandardizationStats(mean=mean, std=std)


def fit_pca(
    standardized: np.ndarray,
    variance_target: float = DEFAULT_VARIANCE_TARGET,
) -> PcaModel:
    """Retain the smallest leading set of principal directions whose
    cumulative explained variance reaches the target."""
    x = np.asarray(standardized, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("PCA needs a matrix with at least 2 rows")
    if not 0 < variance_target <= 1:
        raise ValueError(f"variance_target must be in (0, 1], got {variance_target}")
    center = x.mean(axis=0)
    centered = x - center
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    variances = svals**2 / x.shape[0]
    total = variances.sum()
    if total <= 0:
        raise ValueError("input has zero variance; nothing to retain")
    ratios = variances / total
    cumulative = np.cumsum(ratios)
    m = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    m = min(m, len(ratios))
    components = vt[:m]
    # deterministic sign: make the largest-magnitude entry of each row positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        center=center,
        components=components,
        explained_variance_ratio=ratios[:m],
    )


def _pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a**2).sum(axis=1)[:, None]
    bb = (b**2).sum(axis=1)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy distance-weighted seeding: each new centroid is the best
    of several candidates drawn proportionally to squared distance."""
    n = points.shape[0]
    n_trials = 2 + int(math.log(k))
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = _pairwise_sq_distances(points, centroids[:1])[:, 0]
    for c in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # all remaining points coincide with chosen centroids
            for extra in range(c, k):
                centroids[extra] = points[int(rng.integers(n))]
            break
        probs = closest_sq / total
        candidates = rng.choice(n, size=n_trials, p=probs)
        best_idx = -1
        best_potential = np.inf
        for cand in candidates:
            cand_sq = _pairwise_sq_distances(points, points[cand : cand + 1])[:, 0]
            potential = np.minimum(closest_sq, cand_sq).sum()
            if potential < best_potential:
                best_potential = potential
                best_idx = int(cand)
        centroids[c] = points[best_idx]
        cand_sq = _pairwise_sq_distances(points, centroids[c : c + 1])[:, 0]
        closest_sq = np.minimum(closest_sq, cand_sq)
    return centroids


def _lloyd(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Standard k-means iterations; returns (centroids, labels, inertia)."""
    k = centroids.shape[0]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    prev_inertia = np.inf
    for _ in range(max_iter):
        sq = _pairwise_sq_distances(points, centroids)
        new_labels = sq.argmin(axis=1)
        # re-seed empty clusters with the worst-fit point
        for c in range(k):
            if not (new_labels == c).any():
                worst = int(np.argmax(sq[np.arange(len(new_labels)), new_labels]))
                new_labels[worst] = c
                sq[worst] = np.inf
                sq[worst, c] = 0.0
        inertia = float(sq[np.arange(len(new_labels)), new_labels].sum())
        if inertia > prev_inertia + 1e-9:
            raise RuntimeError(
                f"k-means inertia increased from {prev_inertia} to {inertia}"
            )
        prev_inertia = inertia
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
    sq = _pairwise_sq_distances(points, centroids)
    labels = sq.argmin(axis=1)
    inertia = float(sq[np.arange(len(labels)), labels].sum())
    return centroids, labels, inertia


def silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette coefficient over all points.

    Per point: (b - a) / max(a, b) with a the mean distance to its own
    cluster (excluding itself) and b the smallest mean distance to any
    other cluster.  Singletons contribute 0, as does the a = b = 0 case.
    """
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    cluster_ids = distinct_ids(assignments)
    if cluster_ids.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    dist = np.sqrt(_pairwise_sq_distances(points, points))
    scores = np.zeros(points.shape[0])
    for i in range(points.shape[0]):
        own = assignments == assignments[i]
        n_own = int(own.sum())
        if n_own <= 1:
            continue  # singleton: defined as 0
        a = dist[i, own].sum() / (n_own - 1)
        b = min(
            dist[i, assignments == c].mean()
            for c in cluster_ids
            if c != assignments[i]
        )
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())


def fit_kmeans(
    points: np.ndarray,
    k_range: tuple[int, ...] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ClusterModel, np.ndarray]:
    """Best-of-restarts k-means for each k, keeping the k with the
    highest mean silhouette (ties toward smaller k).

    Returns the model and the training assignments.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d matrix")
    ks = tuple(k for k in k_range if k >= 2)
    if not ks:
        raise ValueError(f"k_range has no usable entries: {k_range}")
    if points.shape[0] <= max(ks):
        raise ValueError(
            f"need more points ({points.shape[0]}) than max k ({max(ks)})"
        )
    rng = np.random.default_rng(seed)
    best: tuple[float, int] | None = None  # (-silhouette, k) for ordering
    best_model = None
    best_labels = None
    for k in sorted(ks):
        k_best_inertia = np.inf
        k_centroids = None
        k_labels = None
        for _ in range(restarts):
            centroids = _seed_centroids(points, k, rng)
            centroids, labels, inertia = _lloyd(points.copy(), centroids, max_iter)
            if inertia < k_best_inertia:
                k_best_inertia = inertia
                k_centroids = centroids
                k_labels = labels
        score = silhouette(points, k_labels)
        key = (-score, k)
        if best is None or key < best:
            best = key
            best_model = ClusterModel(
                k=k,
                centroids=k_centroids,
                silhouette=score,
                seed=seed,
                inertia=k_best_inertia,
            )
            best_labels = k_labels
    return best_model, best_labels


def assign_cluster(
    stats: StandardizationStats,
    pca: PcaModel,
    clusters: ClusterModel,
    feature_values: np.ndarray,
) -> int:
    """Cluster id of the Euclidean-nearest centroid in PCA space.

    Ties break toward the lowest id (argmin order).
    """
    values = np.asarray(feature_values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] != stats.mean.shape[0]:
        raise ValueError(
            f"feature vector has dimension {values.shape}, expected"
            f" ({stats.mean.shape[0]},)"
        )
    projected = pca.project(stats.transform(values))[0]
    sq = ((clusters.centroids - projected) ** 2).sum(axis=1)
    return int(np.argmin(sq))
