"""Geometry-aware 3D grid types and NIfTI file I/O.

Conventions used throughout the package:

* arrays are indexed ``data[i, j, k]`` for voxel (x, y, z);
* scan order is x fastest (the on-disk NIfTI layout), which fixes the
  numbering of connected components and makes texture offsets
  deterministic;
* label grids carry values in {0..4}: 0 background, 1 NETC, 2 SNFH,
  3 ET, 4 RC;
* all physical quantities are in millimetres.

It also holds the one field check, ``check``, and the one JSON builder,
``JsonConfig.from_dict``, of the package's configuration classes.
"""

from __future__ import annotations

import math
import reprlib
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .nifti import NiftiError, Orientation, RawNifti, read_nifti, write_nifti

MAX_LABEL = 4
TUMOR_LABELS = (1, 2, 3, 4)

#: canonical sequence keys, mirroring the corpus file suffixes
#: (t1n = precontrast T1, t1c = contrast-enhanced T1, t2w = T2, t2f = FLAIR)
SEQUENCES = ("t1n", "t1c", "t2w", "t2f")

# ---------------------------------------------------------------------------
# configuration: one field check and one JSON builder
# ---------------------------------------------------------------------------

#: per number kind: its type and how a message names one and several
_NUMBERS = {"integer": (Integral, "an integer", "integers"),
            "number": (Real, "a finite number", "finite numbers")}


def _number(value, kind: type, low, high, above) -> bool:
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value)
                and (low is None or value >= low) and (high is None or value <= high)
                and (above is None or value > above))
    except OverflowError:  # an integer beyond the float range
        return False


def check(name: str, value, kind: str, low=None, high=None, *, above=None,
          count: int | None = None):
    """``value`` if it is of ``kind``, else ValueError naming ``name``.

    ``kind`` is ``"integer"`` (bools excluded) or ``"number"`` (a finite
    real, bools excluded), each at least ``low``, at most ``high`` and
    above ``above`` where given; a tuple of ``count`` of them; a range,
    ``"integer range"`` or ``"number range"``: a tuple MIN, MAX of them
    with MIN <= MAX; or ``"names"``: a non-empty tuple of distinct
    non-empty strings without a path separator (each becomes part of a
    file name).  Nothing is converted: 2.0 is not an integer and "1" not
    a number.
    """
    pair = kind.endswith(" range")
    count = 2 if pair else count
    if kind == "names":
        ok = (isinstance(value, tuple) and value
              and all(isinstance(s, str) and s and "/" not in s and "\\" not in s
                      for s in value)
              and len(set(value)) == len(value))
    else:
        number, one, many = _NUMBERS[kind.removesuffix(" range")]
        values = (value,) if count is None else value
        ok = ((count is None or isinstance(value, tuple) and len(value) == count)
              and all(_number(v, number, low, high, above) for v in values)
              and (not pair or value[0] <= value[1]))
    if not ok:
        what = ("distinct non-empty names without a path separator" if kind == "names"
                else f"MIN,MAX with MIN <= MAX, {many}" if pair
                else one if count is None else f"{count} {many}")
        what += (f" in [{low}, {high}]" if high is not None else
                 f" >= {low}" if low is not None else
                 f" > {above}" if above is not None else "")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _from_json(name: str, hint, value):
    """``value`` for the field ``name`` typed ``hint``: an array becomes a
    tuple, or a float64 array where ``hint`` is ``np.ndarray``, for which
    the value must be an array of finite numbers (a bool is not one); and
    where ``hint`` names a dataclass (an entry) the value must be an
    object, built as one, one already, or None where ``hint`` allows it.
    A list of entries must be an array; any other value is kept as it
    is, for the field's own check."""
    if hint is np.ndarray:
        flat = value if isinstance(value, list) else [None]
        while flat and all(isinstance(row, list) for row in flat):
            flat = [v for row in flat for v in row]
        if set(map(type, flat)) <= {int, float}:  # no bool, no str
            with suppress(ValueError, OverflowError):  # ragged rows, a huge integer
                array = np.array(value, dtype=np.float64)
                if np.isfinite(array).all():
                    return array
        raise ValueError(f"{name} must be an array of finite numbers,"
                         f" got {reprlib.repr(value)}")
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            # an item of ``shells`` is a shell entry
            return tuple(_from_json(name.removesuffix("s"), args[0], v) for v in value)
        if is_dataclass(args[0]):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return value
    spec = next((t for t in (hint, *args) if is_dataclass(t)), None)
    if spec is None or isinstance(value, spec) or (value is None and type(None) in args):
        return value
    return _build(spec, value, f"{name} entry")


def _build(cls: type, doc, name: str):
    names = [f.name for f in fields(cls)]
    if not (isinstance(doc, dict) and doc.keys() == set(names)):
        got = list(doc) if isinstance(doc, dict) else doc
        raise ValueError(f"{name} must be an object with keys {names}, got {got!r}")
    hints = get_type_hints(cls)
    return cls(**{key: _from_json(key, hints[key], doc[key]) for key in names})


class JsonConfig:
    """A frozen dataclass that checks its own fields and is read from and
    written to JSON: ``to_dict`` is ``dataclasses.asdict`` with arrays as
    lists (``json.dump`` writes tuples as arrays) and ``from_dict`` builds
    one back."""

    def to_dict(self) -> dict:
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, doc: dict):
        """The instance the JSON object ``doc`` describes, which must hold
        exactly the class's fields.  No value is cast, so the class's
        checks see what the JSON held."""
        return _build(cls, doc, cls.__name__)


@dataclass(frozen=True)
class Spacing:
    """Voxel edge lengths in millimetres."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):
            check(f"spacing {name}", getattr(self, name), "number", above=0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)

    @property
    def voxel_volume(self) -> float:
        return self.dx * self.dy * self.dz


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScalarVolume:
    """3D floating-point intensity grid (one per MRI sequence).

    ``data`` is checked after its conversion to float32, so a value
    beyond the float32 range is rejected as non-finite.  float32 data is
    kept without a copy.
    """

    data: np.ndarray  # float32, shape (nx, ny, nz)
    spacing: Spacing
    orientation: Orientation = field(default_factory=Orientation)

    def __post_init__(self):
        with np.errstate(over="ignore"):  # overflow becomes inf, rejected below
            data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError(f"scalar volume must be 3D, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("scalar volume contains non-finite voxels")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class LabelMap:
    """3D integer label grid; every voxel in {0..4}.

    Integer data is range-checked in its own type and float data must
    hold integers.  Read-only uint8 data, as ``load_nifti`` reads it, is
    kept without a copy; any other data is copied.
    """

    data: np.ndarray  # uint8, shape (nx, ny, nz)
    spacing: Spacing
    orientation: Orientation = field(default_factory=Orientation)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"label map must be 3D, got shape {data.shape}")
        if data.dtype.kind not in "biu":
            as_int = np.rint(data)
            if not np.array_equal(as_int, data):
                raise ValueError("label map contains non-integral values")
            data = as_int
        if data.size and (data.min() < 0 or data.max() > MAX_LABEL):
            raise ValueError(
                f"label value out of range: found {int(data.min())}..{int(data.max())},"
                f" expected 0..{MAX_LABEL}"
            )
        data = data.astype(np.uint8, copy=data.flags.writeable)
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "LabelMap":
        """Same geometry, new voxel values."""
        return LabelMap(data=data, spacing=self.spacing, orientation=self.orientation)


@dataclass
class CaseBundle:
    """One case: sequences, predicted mask, and optionally the ground truth."""

    case_id: str
    prediction: LabelMap
    sequences: dict[str, ScalarVolume] = field(default_factory=dict)
    ground_truth: LabelMap | None = None

    def __post_init__(self):
        grids = [("prediction", self.prediction)]
        grids += [(f"sequence {k}", v) for k, v in self.sequences.items()]
        if self.ground_truth is not None:
            grids.append(("ground_truth", self.ground_truth))
        dims = grids[0][1].dims
        spacing = grids[0][1].spacing
        for name, g in grids[1:]:
            if g.dims != dims:
                raise ValueError(f"{self.case_id}: {name} dims {g.dims} != {dims}")
            if g.spacing != spacing:
                raise ValueError(f"{self.case_id}: {name} spacing mismatch")


def load_nifti(path: str | Path, kind: str) -> ScalarVolume | LabelMap:
    """Load a NIfTI-1 file as a scalar volume (``kind='scalar'``) or a
    label map (``kind='label'``).

    Label loads round float data (``read_nifti`` returns scaled data as
    float64) to the nearest integer and reject values further than 1e-3
    from it.  The volume types check everything else; their ValueError
    comes out as NiftiError naming ``path``.
    """
    if kind not in ("label", "scalar"):
        raise ValueError(f"kind must be 'label' or 'scalar', got {kind!r}")
    raw = read_nifti(path)
    spacing = Spacing(*raw.spacing)
    data = raw.data
    if kind == "label" and data.dtype.kind == "f":
        data = data.astype(np.float64, copy=False)
        if not np.isfinite(data).all():
            raise NiftiError(f"{path}: non-finite voxel in label volume")
        rounded = np.rint(data)
        if np.abs(data - rounded).max(initial=0.0) > 1e-3:
            raise NiftiError(f"{path}: label volume has non-integral voxel values")
        data = rounded
    volume_type = LabelMap if kind == "label" else ScalarVolume
    try:
        return volume_type(data=data, spacing=spacing, orientation=raw.orientation)
    except ValueError as exc:
        raise NiftiError(f"{path}: {exc}") from exc


def save_nifti(volume: ScalarVolume | LabelMap, path: str | Path) -> None:
    """Write a volume so that load_nifti reads back identical data,
    dims, and spacing.  Labels are stored as 8-bit unsigned, scalars as
    32-bit float."""
    if isinstance(volume, LabelMap):
        data = volume.data  # already uint8
    else:
        data = volume.data.astype(np.float32)
    raw = RawNifti(data=data, spacing=volume.spacing.as_tuple(),
                   orientation=volume.orientation)
    write_nifti(raw, path)


# ---------------------------------------------------------------------------
# corpus layout: <case_id>-<seq>.nii.gz for sequences, <case_id>-seg.nii.gz
# for masks; predictions live in their own directory under the same naming
# ---------------------------------------------------------------------------

def seg_filename(case_id: str) -> str:
    return f"{case_id}-seg.nii.gz"


def seq_filename(case_id: str, seq: str) -> str:
    return f"{case_id}-{seq}.nii.gz"


def discover_case_ids(mask_dir: str | Path) -> list[str]:
    """Case ids found via ``*-seg.nii.gz`` files, sorted."""
    mask_dir = Path(mask_dir)
    if not mask_dir.is_dir():
        raise FileNotFoundError(f"mask directory not found: {mask_dir}")
    ids = [p.name[: -len("-seg.nii.gz")] for p in mask_dir.glob("*-seg.nii.gz")]
    return sorted(ids)


def load_case_bundle(
    case_id: str,
    pred_dir: str | Path,
    images_dir: str | Path | None = None,
    sequences: tuple[str, ...] = SEQUENCES,
    gt_dir: str | Path | None = None,
) -> CaseBundle:
    """Assemble a CaseBundle from the standard corpus layout.

    ``pred_dir`` holds the predicted masks, ``images_dir`` the
    sequences, ``gt_dir`` (optional) the ground-truth masks.  Missing
    files raise FileNotFoundError naming the case.
    """
    pred_path = Path(pred_dir) / seg_filename(case_id)
    if not pred_path.exists():
        raise FileNotFoundError(f"{case_id}: missing prediction {pred_path}")
    prediction = load_nifti(pred_path, kind="label")

    seqs: dict[str, ScalarVolume] = {}
    if images_dir is not None:
        images_dir = Path(images_dir)
        for seq in sequences:
            p = images_dir / seq_filename(case_id, seq)
            if not p.exists():
                raise FileNotFoundError(f"{case_id}: missing sequence file {p}")
            seqs[seq] = load_nifti(p, kind="scalar")

    gt = None
    if gt_dir is not None:
        p = Path(gt_dir) / seg_filename(case_id)
        if not p.exists():
            raise FileNotFoundError(f"{case_id}: missing ground truth {p}")
        gt = load_nifti(p, kind="label")

    return CaseBundle(case_id=case_id, prediction=prediction,
                      sequences=seqs, ground_truth=gt)
