"""First-order intensity statistics against hand-computed values."""

import numpy as np
import pytest

from gliopost.radiomics.firstorder import (
    FIRSTORDER_FEATURE_NAMES,
    firstorder_features,
    histogram_probabilities,
)


def test_empty_mask_is_all_zero():
    out = firstorder_features(np.ones((3, 3, 3))[np.zeros((3, 3, 3), bool)])
    assert set(out) == set(FIRSTORDER_FEATURE_NAMES)
    assert all(v == 0.0 for v in out.values())


def test_constant_region():
    data = np.array([5.0] * 27)
    out = firstorder_features(data, bin_width=25.0, voxel_volume=2.0)
    assert out["mean"] == out["median"] == out["minimum"] == out["maximum"] == 5.0
    assert out["variance"] == 0.0
    assert out["entropy"] == 0.0
    assert out["uniformity"] == 1.0
    assert out["energy"] == 27 * 25.0
    assert out["total_energy"] == 2.0 * 27 * 25.0
    assert out["root_mean_squared"] == 5.0
    assert out["range"] == 0.0
    assert out["mean_absolute_deviation"] == 0.0
    assert out["robust_mean_absolute_deviation"] == 0.0
    assert out["skewness"] == 0.0
    assert out["kurtosis"] == 0.0
    assert out["interquartile_range"] == 0.0


def test_four_values():
    data = np.array([1.0, 2.0, 3.0, 4.0])
    out = firstorder_features(data, bin_width=25.0)
    assert out["mean"] == 2.5
    assert out["variance"] == 1.25
    assert out["range"] == 3.0
    assert out["median"] == 2.5
    assert out["energy"] == 30.0
    assert out["root_mean_squared"] == pytest.approx(np.sqrt(7.5))
    assert out["mean_absolute_deviation"] == 1.0
    # all four values land in the same 25-wide bin
    assert out["entropy"] == 0.0
    assert out["uniformity"] == 1.0
    # linear-interpolated percentiles of [1, 2, 3, 4]
    assert out["percentile10"] == pytest.approx(1.3)
    assert out["percentile90"] == pytest.approx(3.7)
    assert out["interquartile_range"] == pytest.approx(1.5)
    assert out["robust_mean_absolute_deviation"] == pytest.approx(0.5)
    assert out["skewness"] == 0.0


def test_four_values_fine_bins():
    data = np.array([1.0, 2.0, 3.0, 4.0])
    out = firstorder_features(data, bin_width=1.0)
    assert out["entropy"] == pytest.approx(2.0)
    assert out["uniformity"] == pytest.approx(0.25)


def test_uniform_ramp_percentiles():
    data = np.array(np.arange(101, dtype=float))
    out = firstorder_features(data)
    assert out["percentile10"] == pytest.approx(10.0)
    assert out["percentile90"] == pytest.approx(90.0)
    assert out["interquartile_range"] == pytest.approx(50.0)
    assert out["mean"] == 50.0
    assert out["variance"] == pytest.approx((101**2 - 1) / 12.0)
    assert out["mean_absolute_deviation"] == pytest.approx(2 * 1275 / 101)
    assert out["robust_mean_absolute_deviation"] == pytest.approx(1640 / 81)
    assert out["skewness"] == pytest.approx(0.0, abs=1e-12)


def test_two_point_kurtosis_is_not_excess():
    data = np.array([1.0, 2.0])
    out = firstorder_features(data)
    # symmetric two-point distribution: m4 / m2^2 = 1 (Fisher would give -2)
    assert out["kurtosis"] == pytest.approx(1.0)
    # the 10..90 percentile window contains no sample here; the robust
    # deviation must fall back to zero rather than propagate a NaN
    assert out["robust_mean_absolute_deviation"] == 0.0
    assert all(np.isfinite(v) for v in out.values())


def test_moments_match_direct_formulas():
    rng = np.random.default_rng(71)
    values = rng.normal(120.0, 30.0, size=200)
    data = np.array(values)
    out = firstorder_features(data, bin_width=25.0, voxel_volume=3.125)

    n = values.size
    mean = values.sum() / n
    dev = values - mean
    m2 = (dev**2).sum() / n
    m3 = (dev**3).sum() / n
    m4 = (dev**4).sum() / n
    rel = 1e-12
    assert out["mean"] == pytest.approx(mean, rel=rel)
    assert out["variance"] == pytest.approx(m2, rel=rel)
    assert out["skewness"] == pytest.approx(m3 / m2**1.5, rel=rel)
    assert out["kurtosis"] == pytest.approx(m4 / m2**2, rel=rel)
    assert out["energy"] == pytest.approx((values**2).sum(), rel=rel)
    assert out["total_energy"] == pytest.approx(3.125 * (values**2).sum(), rel=rel)
    assert out["root_mean_squared"] == pytest.approx(np.sqrt((values**2).sum() / n), rel=rel)
    assert out["mean_absolute_deviation"] == pytest.approx(np.abs(dev).mean(), rel=rel)
    assert out["minimum"] == values.min()
    assert out["maximum"] == values.max()


def test_histogram_alignment_and_negative_values():
    data = np.array([-1.0, 1.0])
    out = firstorder_features(data, bin_width=25.0)
    # bins are aligned to multiples of the width, so -1 and 1 split
    assert out["entropy"] == pytest.approx(1.0)
    assert out["uniformity"] == pytest.approx(0.5)

    probs = histogram_probabilities(np.array([0.0, 25.0, 50.0]), 25.0)
    assert probs.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        histogram_probabilities(np.array([1.0]), 0.0)


def test_masked_selection():
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 100.0
    data[1, 1, 1] = 50.0
    mask = np.zeros((2, 2, 2), bool)
    mask[0, 0, 0] = True
    out = firstorder_features(data[mask])
    assert out["mean"] == 100.0
    assert out["variance"] == 0.0
