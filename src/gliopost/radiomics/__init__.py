"""Radiomic feature extraction from predicted whole-tumor masks."""

from .extract import (
    ExtractionSettings,
    FeatureMatrix,
    FeatureVector,
    extract_case_features,
    feature_names,
    read_feature_csv,
    write_feature_csv,
    write_manifest,
)
from .firstorder import (
    DEFAULT_BIN_WIDTH,
    FIRSTORDER_FEATURE_NAMES,
    firstorder_features,
)
from .shape import SHAPE_FEATURE_NAMES, shape_features
from .texture import (
    DEFAULT_BIN_COUNT,
    GLCM_FEATURE_NAMES,
    GLDM_FEATURE_NAMES,
    GLRLM_FEATURE_NAMES,
    GLSZM_FEATURE_NAMES,
    NGTDM_FEATURE_NAMES,
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
)

__all__ = [
    "DEFAULT_BIN_COUNT",
    "DEFAULT_BIN_WIDTH",
    "ExtractionSettings",
    "FeatureMatrix",
    "FeatureVector",
    "extract_case_features",
    "feature_names",
    "read_feature_csv",
    "write_feature_csv",
    "write_manifest",
    "FIRSTORDER_FEATURE_NAMES",
    "firstorder_features",
    "SHAPE_FEATURE_NAMES",
    "shape_features",
    "GLCM_FEATURE_NAMES",
    "GLDM_FEATURE_NAMES",
    "GLRLM_FEATURE_NAMES",
    "GLSZM_FEATURE_NAMES",
    "NGTDM_FEATURE_NAMES",
    "glcm_features",
    "gldm_features",
    "glrlm_features",
    "glszm_features",
    "ngtdm_features",
]
