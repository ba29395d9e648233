"""First-order intensity statistics over a region's voxel values."""

from __future__ import annotations

import numpy as np

DEFAULT_BIN_WIDTH = 25.0

FIRSTORDER_FEATURE_NAMES = (
    "energy",
    "total_energy",
    "entropy",
    "minimum",
    "percentile10",
    "percentile90",
    "maximum",
    "mean",
    "median",
    "interquartile_range",
    "range",
    "mean_absolute_deviation",
    "robust_mean_absolute_deviation",
    "root_mean_squared",
    "skewness",
    "kurtosis",
    "variance",
    "uniformity",
)


def histogram_probabilities(values: np.ndarray, bin_width: float) -> np.ndarray:
    """Occupancy probabilities of fixed-width bins aligned to multiples
    of ``bin_width`` (empty bins dropped)."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    idx = np.floor(values / bin_width).astype(np.int64)
    idx -= idx.min()
    counts = np.bincount(idx)
    counts = counts[counts > 0]
    return counts / values.size


def firstorder_features(
    values: np.ndarray,
    bin_width: float = DEFAULT_BIN_WIDTH,
    voxel_volume: float = 1.0,
) -> dict[str, float]:
    """The 18 first-order features of a region's intensities.

    Moments are population moments (skewness m3/m2^1.5, kurtosis m4/m2^2
    without the -3 shift); both fall back to 0 on constant input.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return {name: 0.0 for name in FIRSTORDER_FEATURE_NAMES}

    mean = float(values.mean())
    deviations = values - mean
    m2 = float((deviations**2).mean())
    m3 = float((deviations**3).mean())
    m4 = float((deviations**4).mean())
    p10, p25, p75, p90 = (float(v) for v in np.percentile(values, [10, 25, 75, 90]))
    robust = values[(values >= p10) & (values <= p90)]
    if robust.size:
        robust_mad = float(np.abs(robust - robust.mean()).mean())
    else:
        robust_mad = 0.0  # tiny samples can leave the 10..90% window empty

    probs = histogram_probabilities(values, bin_width)
    entropy = float(-(probs * np.log2(probs)).sum())
    uniformity = float((probs**2).sum())

    energy = float((values**2).sum())
    return {
        "energy": energy,
        "total_energy": voxel_volume * energy,
        "entropy": entropy,
        "minimum": float(values.min()),
        "percentile10": p10,
        "percentile90": p90,
        "maximum": float(values.max()),
        "mean": mean,
        "median": float(np.median(values)),
        "interquartile_range": p75 - p25,
        "range": float(values.max() - values.min()),
        "mean_absolute_deviation": float(np.abs(deviations).mean()),
        "robust_mean_absolute_deviation": robust_mad,
        "root_mean_squared": float(np.sqrt((values**2).mean())),
        "skewness": m3 / m2**1.5 if m2 > 0 else 0.0,
        "kurtosis": m4 / m2**2 if m2 > 0 else 0.0,
        "variance": m2,
        "uniformity": uniformity,
    }
