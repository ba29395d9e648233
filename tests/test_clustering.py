"""Standardization, PCA retention, silhouette, and k-means selection."""

import numpy as np
import pytest

from gliopost.clustering import (
    ClusterModel,
    PcaModel,
    StandardizationStats,
    assign_cluster,
    fit_kmeans,
    fit_pca,
    fit_standardizer,
    silhouette,
)


def _identity_stats(dim):
    return StandardizationStats(mean=np.zeros(dim), std=np.ones(dim))


def _identity_pca(dim):
    return PcaModel(
        center=np.zeros(dim),
        components=np.eye(dim),
        explained_variance_ratio=np.full(dim, 1.0 / dim),
    )


# -- standardization ----------------------------------------------------------

def test_standardizer_two_values():
    stats = fit_standardizer(np.array([[1.0], [3.0]]))
    assert stats.mean.tolist() == [2.0]
    assert stats.std.tolist() == [1.0]  # population std of {1, 3}
    out = stats.transform(np.array([[1.0], [3.0]]))
    assert out.ravel().tolist() == [-1.0, 1.0]


def test_standardizer_constant_column():
    values = np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 5.0]])
    stats = fit_standardizer(values)
    assert stats.std[0] == 1.0  # sentinel, not zero
    out = stats.transform(values)
    assert (out[:, 0] == 0.0).all()


def test_standardized_columns_are_centered_and_scaled():
    rng = np.random.default_rng(3)
    values = rng.normal(50, 12, size=(40, 6))
    stats = fit_standardizer(values)
    out = stats.transform(values)
    assert np.abs(out.mean(axis=0)).max() <= 1e-12
    assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-12


def test_standardizer_needs_two_rows():
    with pytest.raises(ValueError):
        fit_standardizer(np.ones((1, 4)))


def test_standardizer_round_trip_dict():
    stats = fit_standardizer(np.array([[1.0, 2.0], [3.0, 2.0]]))
    back = StandardizationStats.from_dict(stats.to_dict())
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)


# -- PCA -----------------------------------------------------------------------

def test_pca_line_needs_one_component():
    t = np.linspace(-2, 2, 25)[:, None]
    points = t * np.array([[1.0, 2.0, 3.0]])
    model = fit_pca(points)
    assert model.n_components == 1
    assert model.explained_variance_ratio[0] == pytest.approx(1.0)


def test_pca_isotropic_cloud_needs_all_components():
    rng = np.random.default_rng(12)
    points = rng.standard_normal((1000, 3))
    model = fit_pca(points, variance_target=0.90)
    assert model.n_components == 3


def test_pca_minimality():
    rng = np.random.default_rng(14)
    base = rng.standard_normal((200, 5)) * np.array([10.0, 6.0, 3.0, 1.0, 0.3])
    model = fit_pca(base, variance_target=0.90)
    cum = np.cumsum(model.explained_variance_ratio)
    assert cum[-1] >= 0.90 - 1e-12
    if model.n_components > 1:
        # dropping the last retained direction falls short of the target
        assert cum[-2] < 0.90


def test_pca_rows_are_orthonormal():
    rng = np.random.default_rng(15)
    points = rng.standard_normal((60, 8)) * np.arange(1, 9)
    model = fit_pca(points, variance_target=0.99)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(model.n_components)).max() <= 1e-9


def test_pca_reconstruction_error_equals_discarded_variance():
    rng = np.random.default_rng(16)
    points = rng.standard_normal((120, 6)) * np.array([8.0, 5.0, 3.0, 2.0, 1.0, 0.5])
    model = fit_pca(points, variance_target=0.90)
    centered = points - points.mean(axis=0)
    total_var = (centered**2).sum() / points.shape[0]
    projected = model.project(points)
    recon = projected @ model.components
    residual = ((centered - recon) ** 2).sum() / points.shape[0]
    discarded = total_var * (1.0 - model.explained_variance_ratio.sum())
    assert residual == pytest.approx(discarded, rel=1e-6, abs=1e-9)


def test_pca_sign_convention_and_determinism():
    rng = np.random.default_rng(17)
    points = rng.standard_normal((50, 4)) * np.array([5.0, 2.0, 1.0, 0.2])
    a = fit_pca(points)
    b = fit_pca(points.copy())
    assert np.array_equal(a.components, b.components)
    for row in a.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_validation():
    with pytest.raises(ValueError):
        fit_pca(np.ones((1, 3)))
    with pytest.raises(ValueError):
        fit_pca(np.random.default_rng(0).normal(size=(5, 2)), variance_target=0.0)
    with pytest.raises(ValueError, match="zero variance"):
        fit_pca(np.ones((4, 3)))


def test_pca_round_trip_dict():
    rng = np.random.default_rng(18)
    model = fit_pca(rng.standard_normal((30, 3)))
    back = PcaModel.from_dict(model.to_dict())
    assert np.array_equal(back.components, model.components)
    assert np.array_equal(back.center, model.center)


# -- silhouette ------------------------------------------------------------------

def test_silhouette_hand_case():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    per_point = []
    for i in range(4):
        a = 1.0  # one in-cluster neighbor at distance 1
        others = points[labels != labels[i]]
        b = float(np.sqrt(((others - points[i]) ** 2).sum(axis=1)).mean())
        per_point.append((b - a) / max(a, b))
    assert silhouette(points, labels) == pytest.approx(np.mean(per_point))


def test_silhouette_perfect_when_clusters_collapse_to_points():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    labels = np.array([0, 0, 1, 1])
    assert silhouette(points, labels) == 1.0  # a = 0, b > 0


def test_silhouette_identical_points_zero():
    points = np.zeros((4, 2))
    labels = np.array([0, 0, 1, 1])
    assert silhouette(points, labels) == 0.0  # 0/0 convention


def test_silhouette_singleton_contributes_zero():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 1.0]])
    labels = np.array([0, 1, 1])
    b0 = (5.0 + np.sqrt(26.0)) / 2
    s1 = []
    for i in (1, 2):
        a = 1.0
        b = float(np.sqrt(((points[0] - points[i]) ** 2).sum()))
        s1.append((b - a) / max(a, b))
    expected = (0.0 + s1[0] + s1[1]) / 3
    assert silhouette(points, labels) == pytest.approx(expected)
    assert b0 > 0  # sanity on the hand computation


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError):
        silhouette(np.zeros((3, 2)), np.zeros(3, dtype=int))


# -- k-means ---------------------------------------------------------------------

def _two_blobs(n=30, sep=8.0, seed=21):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n, 3))
    b = rng.normal(sep, 0.5, size=(n, 3))
    return np.vstack([a, b])


def test_kmeans_two_blobs_selects_k2():
    points = _two_blobs()
    model, labels = fit_kmeans(points, k_range=(2, 3, 4, 5), seed=0)
    assert model.k == 2
    assert model.silhouette > 0.8
    assert set(labels.tolist()) == {0, 1}
    # the first 30 points form one cluster, the rest the other
    assert len(set(labels[:30].tolist())) == 1
    assert len(set(labels[30:].tolist())) == 1


def test_kmeans_is_deterministic():
    points = _two_blobs(seed=22)
    m1, l1 = fit_kmeans(points, k_range=(2, 3, 4), seed=7)
    m2, l2 = fit_kmeans(points, k_range=(2, 3, 4), seed=7)
    assert m1.k == m2.k
    assert m1.centroids.tobytes() == m2.centroids.tobytes()
    assert np.array_equal(l1, l2)
    assert m1.silhouette == m2.silhouette
    assert m1.inertia == m2.inertia


def test_kmeans_labels_are_nearest_centroid():
    points = _two_blobs(seed=23)
    model, labels = fit_kmeans(points, k_range=(2, 3), seed=1)
    sq = ((points[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, sq.argmin(axis=1))


def test_kmeans_validation():
    points = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(ValueError, match="more points"):
        fit_kmeans(points, k_range=(2, 4))
    with pytest.raises(ValueError, match="usable"):
        fit_kmeans(points, k_range=(0, 1))


def _cluster_model():
    return ClusterModel(
        k=2,
        centroids=np.array([[0.0, 1.0], [2.0, 3.0]]),
        silhouette=0.9,
        seed=4,
        inertia=1.5,
    )


def test_cluster_model_round_trip_dict():
    model = _cluster_model()
    back = ClusterModel.from_dict(model.to_dict())
    assert (back.k, back.silhouette, back.seed, back.inertia) == (2, 0.9, 4, 1.5)
    assert np.array_equal(back.centroids, model.centroids)


@pytest.mark.parametrize("field, value", (
    ("k", 2.7), ("k", 0), ("k", True), ("seed", 1.9), ("seed", -1),
    ("silhouette", "0.5"), ("silhouette", 1.5), ("silhouette", float("nan")),
    ("inertia", -1.0), ("inertia", "1"),
))
def test_cluster_model_checks_its_scalars(field, value):
    """No scalar is truncated or cast: each must be of its kind and range."""
    doc = dict(_cluster_model().to_dict(), **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be"):
        ClusterModel.from_dict(doc)


@pytest.mark.parametrize("value", (
    ["1.5"], [True], [1.0, None], "1.5", 1.5, None, {"0": 1.0}, [float("nan")],
    [float("inf")], [[1.0], [2.0, 3.0]], [[1.0], 2.0], [[1.0, "2"]], [10 ** 400],
), ids=repr)
def test_array_fields_take_only_arrays_of_finite_numbers(value):
    """An array field reads a JSON array of numbers, nested to any depth,
    and nothing else: no bool or string is cast."""
    with pytest.raises(ValueError, match="mean must be an array of finite numbers"):
        StandardizationStats.from_dict({"mean": value, "std": [1.0]})


def test_array_fields_read_as_float64():
    stats = StandardizationStats.from_dict({"mean": [1, 2.5], "std": []})
    assert stats.mean.dtype == stats.std.dtype == np.float64
    assert stats.mean.tolist() == [1.0, 2.5] and stats.std.shape == (0,)
    model = PcaModel.from_dict({"center": [0], "components": [[1, 0], [0, 1]],
                                "explained_variance_ratio": [0.5, 0.5]})
    assert model.components.dtype == np.float64 and model.components.shape == (2, 2)


# -- assignment --------------------------------------------------------------------

def test_assign_cluster_training_consistency():
    points = _two_blobs(seed=25)
    model, labels = fit_kmeans(points, k_range=(2,), seed=2)
    stats = _identity_stats(3)
    pca = _identity_pca(3)
    for i in range(points.shape[0]):
        assert assign_cluster(stats, pca, model, points[i]) == labels[i]


def test_assign_cluster_tie_breaks_low():
    model = ClusterModel(
        k=2,
        centroids=np.array([[-1.0, 0.0], [1.0, 0.0]]),
        silhouette=1.0,
        seed=0,
        inertia=0.0,
    )
    stats = _identity_stats(2)
    pca = _identity_pca(2)
    assert assign_cluster(stats, pca, model, np.zeros(2)) == 0
    assert assign_cluster(stats, pca, model, np.array([1e-9, 0.0])) == 1
    assert assign_cluster(stats, pca, model, np.array([-1e-9, 0.0])) == 0


def test_assign_cluster_dimension_check():
    model = ClusterModel(
        k=2, centroids=np.zeros((2, 2)), silhouette=0.0, seed=0, inertia=0.0
    )
    with pytest.raises(ValueError):
        assign_cluster(_identity_stats(3), _identity_pca(3), model, np.zeros(2))
