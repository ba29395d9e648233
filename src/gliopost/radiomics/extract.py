"""Case-level feature extraction: 14 shape + 4 x 93 intensity/texture.

The feature name order is a stable contract: shape features first, then
per sequence (in configured order) the first-order, GLCM, GLRLM, GLSZM,
GLDM and NGTDM families.  Identifiers are ``shape/<name>`` and
``<seq>/<family>/<name>``.  Cases whose predicted whole-tumor mask has
fewer than two voxels produce the all-zero sentinel vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..metrics import WT, region_mask
from ..nifti import read_case_table, write_case_table, write_json
from ..volume import SEQUENCES, CaseBundle, JsonConfig, check
from .firstorder import DEFAULT_BIN_WIDTH, FIRSTORDER_FEATURE_NAMES, firstorder_features
from .shape import SHAPE_FEATURE_NAMES, shape_features
from .texture import (
    DEFAULT_BIN_COUNT,
    GLCM_FEATURE_NAMES,
    GLDM_FEATURE_NAMES,
    GLRLM_FEATURE_NAMES,
    GLSZM_FEATURE_NAMES,
    NGTDM_FEATURE_NAMES,
    PairTable,
    discretize,
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
    neighbour_pairs,
)

# The per-sequence half of the feature name contract: family order and
# the feature order within each family.
SEQUENCE_FAMILY_NAMES = (
    ("firstorder", FIRSTORDER_FEATURE_NAMES),
    ("glcm", GLCM_FEATURE_NAMES),
    ("glrlm", GLRLM_FEATURE_NAMES),
    ("glszm", GLSZM_FEATURE_NAMES),
    ("gldm", GLDM_FEATURE_NAMES),
    ("ngtdm", NGTDM_FEATURE_NAMES),
)

FEATURES_PER_SEQUENCE = sum(len(names) for _, names in SEQUENCE_FAMILY_NAMES)
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ExtractionSettings(JsonConfig):
    """Knobs that change feature values; recorded in the manifest.
    Construction checks them: a bin width that is a finite number > 0, a
    bin count that is an integer >= 1 and distinct sequence names."""

    bin_width: float = DEFAULT_BIN_WIDTH
    bin_count: int = DEFAULT_BIN_COUNT
    sequences: tuple[str, ...] = SEQUENCES

    def __post_init__(self):
        check("bin_width", self.bin_width, "number", above=0)
        check("bin_count", self.bin_count, "integer", 1)
        check("sequences", self.sequences, "names")


def feature_names(settings: ExtractionSettings = ExtractionSettings()) -> tuple[str, ...]:
    """The full ordered identifier list (386 names for 4 sequences)."""
    names = [f"shape/{n}" for n in SHAPE_FEATURE_NAMES]
    for seq in settings.sequences:
        for family, fam_names in SEQUENCE_FAMILY_NAMES:
            names.extend(f"{seq}/{family}/{n}" for n in fam_names)
    return tuple(names)


@dataclass
class FeatureVector:
    """One case's feature values in manifest order."""

    case_id: str
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.names),):
            raise ValueError(
                f"{self.case_id}: {self.values.shape[0]} values for"
                f" {len(self.names)} names"
            )
        if not np.all(np.isfinite(self.values)):
            bad = [self.names[i] for i in np.nonzero(~np.isfinite(self.values))[0]]
            raise ValueError(f"{self.case_id}: non-finite features {bad[:5]}")


@dataclass
class FeatureMatrix:
    """Stacked feature vectors with a shared name order."""

    names: tuple[str, ...]
    case_ids: list[str] = field(default_factory=list)
    values: np.ndarray | None = None

    @staticmethod
    def from_vectors(vectors: list[FeatureVector]) -> "FeatureMatrix":
        if not vectors:
            raise ValueError("no feature vectors")
        names = vectors[0].names
        for v in vectors[1:]:
            if v.names != names:
                raise ValueError(f"{v.case_id}: feature name order differs")
        return FeatureMatrix(
            names=names,
            case_ids=[v.case_id for v in vectors],
            values=np.vstack([v.values for v in vectors]),
        )

    def row(self, case_id: str) -> FeatureVector:
        i = self.case_ids.index(case_id)
        return FeatureVector(case_id=case_id, names=self.names, values=self.values[i])


def extract_case_features(
    case: CaseBundle,
    settings: ExtractionSettings = ExtractionSettings(),
) -> FeatureVector:
    """Shape features of the predicted whole-tumor mask plus intensity
    and texture features of every sequence restricted to that mask."""
    names = feature_names(settings)

    missing = [s for s in settings.sequences if s not in case.sequences]
    if missing:
        raise ValueError(f"{case.case_id}: missing sequences {missing}")

    wt = region_mask(case.prediction, WT)
    if int(wt.sum()) < 2:
        return FeatureVector(case_id=case.case_id, names=names,
                             values=np.zeros(len(names)))

    values: list[float] = []
    shape = shape_features(wt, case.prediction.spacing)
    values.extend(shape[n] for n in SHAPE_FEATURE_NAMES)
    voxel_volume = case.prediction.spacing.voxel_volume
    geometry = neighbour_pairs(wt)
    for seq in settings.sequences:
        # boolean indexing gathers in C order, the voxel numbering of geometry
        seq_values = case.sequences[seq].data[wt].astype(np.float64)
        table = PairTable(discretize(seq_values, settings.bin_count), geometry)
        families = {
            "firstorder": firstorder_features(
                seq_values, settings.bin_width, voxel_volume
            ),
            "glcm": glcm_features(table),
            "glrlm": glrlm_features(table),
            "glszm": glszm_features(table),
            "gldm": gldm_features(table),
            "ngtdm": ngtdm_features(table),
        }
        values.extend(
            families[family][name]
            for family, names in SEQUENCE_FAMILY_NAMES
            for name in names
        )
    return FeatureVector(case_id=case.case_id, names=names, values=np.array(values))


# ---------------------------------------------------------------------------
# persistence: feature CSV and extraction manifest
# ---------------------------------------------------------------------------

def write_feature_csv(path: str | Path, matrix: FeatureMatrix) -> None:
    write_case_table(path, matrix.names, zip(matrix.case_ids, matrix.values.tolist()))


def read_feature_csv(path: str | Path) -> FeatureMatrix:
    names, case_ids, rows = read_case_table(path, "feature CSV")
    values = np.array(rows, dtype=np.float64).reshape(len(case_ids), len(names))
    return FeatureMatrix(names=tuple(names), case_ids=case_ids, values=values)


def write_manifest(path: str | Path, settings: ExtractionSettings) -> None:
    write_json(path, {
        "version": MANIFEST_VERSION,
        "feature_names": list(feature_names(settings)),
        "settings": settings.to_dict(),
        "connectivity": 26,
    })
