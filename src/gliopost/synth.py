"""Seeded synthetic corpora: ellipsoidal multi-label ground truths,
pseudo-MRI sequences, and corrupted predictions with a precise error
inventory.

Ground truths are ellipsoids with concentric label shells.  Predictions
start as the ground truth, optionally apply a ratio-triggered label
swap, then receive false-positive islands grown by randomized BFS at a
configurable Chebyshev distance from any true voxel.  The inventory
records every injected voxel, so tests can reconstruct the ground truth
exactly (when boundary jitter is disabled).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .morphology import dilate, padded_box
from .nifti import atomic_open
from .volume import (
    MAX_LABEL,
    SEQUENCES,
    CaseBundle,
    LabelMap,
    ScalarVolume,
    Spacing,
    seg_filename,
    seq_filename,
)
from . import volume as volume_io

_SEQ_BASE = {"t1n": 90.0, "t1c": 110.0, "t2w": 130.0, "t2f": 150.0}
_LABEL_SHIFT = {0: 0.0, 1: 35.0, 2: 20.0, 3: 55.0, 4: -25.0}


@dataclass(frozen=True)
class ShellSpec:
    """One concentric shell: voxels with normalized radius up to a
    fraction sampled from ``outer`` get this label (innermost first)."""

    label: int
    outer: tuple[float, float]


@dataclass(frozen=True)
class IslandSpec:
    """False-positive islands of one label; count and voxel size are
    sampled per case from the inclusive ranges."""

    label: int
    count: tuple[int, int]
    size: tuple[int, int]


@dataclass(frozen=True)
class SwapSpec:
    """Relabel src to dst when the ground-truth volume ratio
    volume(src)/volume(WT) falls below the trigger."""

    src: int
    dst: int
    trigger: float


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    lesion_count: tuple[int, int] = (1, 2)
    lesion_radius: tuple[float, float] = (9.0, 14.0)
    axis_scale: tuple[float, float] = (0.85, 1.0)
    shells: tuple[ShellSpec, ...] = (
        ShellSpec(3, (0.45, 0.60)),
        ShellSpec(1, (0.65, 0.75)),
        ShellSpec(2, (1.0, 1.0)),
    )
    islands: tuple[IslandSpec, ...] = ()
    swap: SwapSpec | None = None
    jitter: int = 0
    island_margin: int = 7
    lesion_separation: float = 7.0
    noise_sigma: float = 2.0
    noise_amplitude: float = 6.0
    sequences: tuple[str, ...] = SEQUENCES

    def __post_init__(self):
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be 3 sizes >= 1, got {list(self.dims)}")
        if len(self.spacing) != 3 or not all(0 < s < np.inf for s in self.spacing):
            raise ValueError(f"spacing must be 3 finite values > 0,"
                             f" got {list(self.spacing)}")
        ints = [("lesion count", self.lesion_count)]
        ints += [(f"island {s.label} {field}", getattr(s, field))
                 for s in self.islands for field in ("count", "size")]
        reals = [("lesion radius", self.lesion_radius), ("axis scale", self.axis_scale)]
        reals += [(f"shell {s.label} outer", s.outer) for s in self.shells]
        for kind, named in ((Integral, ints), (Real, reals)):
            for name, pair in named:
                if not (isinstance(pair, tuple) and len(pair) == 2
                        and all(_finite(v, kind) for v in pair)):
                    raise ValueError(f"{name} range must be MIN,MAX, two finite"
                                     f" {kind.__name__.lower()} numbers, got {pair!r}")
        labels = [("shell", s.label) for s in self.shells]
        labels += [("island", s.label) for s in self.islands]
        if self.swap is not None:
            labels += [("swap src", self.swap.src), ("swap dst", self.swap.dst)]
            if not _finite(self.swap.trigger, Real):
                raise ValueError(f"swap trigger must be a finite number,"
                                 f" got {self.swap.trigger!r}")
        for name, label in labels:
            if not (_finite(label, Integral) and 0 <= label <= MAX_LABEL):
                raise ValueError(f"{name} label must be an integer in"
                                 f" [0, {MAX_LABEL}], got {label!r}")
        if self.lesion_count[0] < 0 or self.lesion_count[0] > self.lesion_count[1]:
            raise ValueError(f"bad lesion count range {self.lesion_count}")
        if self.lesion_radius[0] <= 0 or self.lesion_radius[0] > self.lesion_radius[1]:
            raise ValueError(f"bad lesion radius range {self.lesion_radius}")
        if not self.shells:
            raise ValueError("at least one shell required")
        for spec in self.islands:
            if spec.size[0] < 1 or spec.size[0] > spec.size[1]:
                raise ValueError(f"bad island size range {spec.size}")
            if spec.count[0] < 0 or spec.count[0] > spec.count[1]:
                raise ValueError(f"bad island count range {spec.count}")
        for name, low, kind in (("jitter", 0, Integral), ("island_margin", 1, Integral),
                                ("lesion_separation", 0, Real), ("noise_sigma", 0, Real),
                                ("noise_amplitude", 0, Real)):
            value = getattr(self, name)
            if not (_finite(value, kind) and value >= low):
                what = "an integer" if kind is Integral else "a finite number"
                raise ValueError(f"{name.replace('_', ' ')} must be {what} >= {low},"
                                 f" got {value!r}")
        # each name becomes part of a file name (``seq_filename``)
        names = self.sequences
        if not (names and all(isinstance(s, str) and s and "/" not in s and "\\" not in s
                              for s in names) and len(set(names)) == len(names)):
            raise ValueError(f"sequences must be distinct non-empty names without a"
                             f" path separator, got {list(names)!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "lesion_count": list(self.lesion_count),
            "lesion_radius": list(self.lesion_radius),
            "axis_scale": list(self.axis_scale),
            "shells": [
                {"label": s.label, "outer": list(s.outer)} for s in self.shells
            ],
            "islands": [
                {"label": s.label, "count": list(s.count), "size": list(s.size)}
                for s in self.islands
            ],
            "swap": (
                {"src": self.swap.src, "dst": self.swap.dst, "trigger": self.swap.trigger}
                if self.swap
                else None
            ),
            "jitter": self.jitter,
            "island_margin": self.island_margin,
            "lesion_separation": self.lesion_separation,
            "noise_sigma": self.noise_sigma,
            "noise_amplitude": self.noise_amplitude,
            "sequences": list(self.sequences),
        }

    @staticmethod
    def from_dict(d: dict) -> "SynthConfig":
        """The recipe ``d`` as ``to_dict`` writes it; absent top-level keys
        take their defaults.  A shell, island or swap entry that is not an
        object with exactly its fields raises ValueError."""
        base = SynthConfig()
        swap = d.get("swap", None)
        return SynthConfig(
            seed=int(d.get("seed", base.seed)),
            dims=tuple(d.get("dims", base.dims)),
            spacing=tuple(d.get("spacing", base.spacing)),
            lesion_count=tuple(d.get("lesion_count", base.lesion_count)),
            lesion_radius=tuple(d.get("lesion_radius", base.lesion_radius)),
            axis_scale=tuple(d.get("axis_scale", base.axis_scale)),
            shells=tuple(ShellSpec(*_entry(s, "shell", ("label", "outer")))
                         for s in _entries(d.get("shells", []), "shells"))
            or base.shells,
            islands=tuple(IslandSpec(*_entry(s, "island", ("label", "count", "size")))
                          for s in _entries(d.get("islands", []), "islands")),
            swap=SwapSpec(*_entry(swap, "swap", ("src", "dst", "trigger")))
            if swap is not None
            else None,
            jitter=int(d.get("jitter", base.jitter)),
            island_margin=int(d.get("island_margin", base.island_margin)),
            lesion_separation=float(d.get("lesion_separation", base.lesion_separation)),
            noise_sigma=float(d.get("noise_sigma", base.noise_sigma)),
            noise_amplitude=float(d.get("noise_amplitude", base.noise_amplitude)),
            sequences=tuple(d.get("sequences", base.sequences)),
        )


def _finite(value, kind: type) -> bool:
    """Whether ``value`` is a finite number of ``kind`` (``Integral`` or
    ``Real``), bools and integers beyond the float range excluded."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _entries(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return list(value)


def _entry(entry, kind: str, keys: tuple[str, ...]) -> list:
    """The values of a recipe's ``kind`` entry under ``keys``, ranges as
    tuples; ``SynthConfig`` checks them."""
    if not isinstance(entry, dict) or set(entry) != set(keys):
        got = sorted(entry) if isinstance(entry, dict) else entry
        raise ValueError(f"{kind} entry must be an object with keys {list(keys)},"
                         f" got {got!r}")
    return [tuple(entry[k]) if isinstance(entry[k], (list, tuple)) else entry[k]
            for k in keys]


def case_name(index: int) -> str:
    return f"case-{index:04d}"


# ---------------------------------------------------------------------------
# ground truth and images
# ---------------------------------------------------------------------------

def _sample_shell_fractions(cfg: SynthConfig, rng: np.random.Generator) -> list[float]:
    fractions = [float(rng.uniform(*s.outer)) for s in cfg.shells]
    for a, b in zip(fractions, fractions[1:]):
        if b <= a:
            raise ValueError(f"shell fractions not increasing: {fractions}")
    if fractions[-1] > 1.0:
        raise ValueError(f"outermost shell fraction exceeds 1: {fractions[-1]}")
    return fractions


def _place_lesions(cfg: SynthConfig, rng: np.random.Generator):
    """Sample disjoint ellipsoids: center + semi-axes per lesion."""
    n = int(rng.integers(cfg.lesion_count[0], cfg.lesion_count[1] + 1))
    dims = np.asarray(cfg.dims, dtype=float)
    lesions: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(n):
        placed = False
        for _ in range(200):
            base = rng.uniform(*cfg.lesion_radius)
            axes = base * rng.uniform(cfg.axis_scale[0], cfg.axis_scale[1], size=3)
            margin = axes + 1.0
            if np.any(dims - 2 * margin <= 0):
                continue
            center = np.array(
                [rng.uniform(m, d - m) for m, d in zip(margin, dims)]
            )
            reach = float(axes.max())
            far_enough = all(
                np.linalg.norm(center - prev_center)
                >= reach + float(prev_axes.max()) + cfg.lesion_separation
                for prev_center, prev_axes in lesions
            )
            if far_enough:
                lesions.append((center, axes))
                placed = True
                break
        if not placed:
            raise ValueError(
                f"could not place lesion {len(lesions) + 1} of {n} in grid {cfg.dims}"
            )
    return lesions


def _paint_ground_truth(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    gt = np.zeros(cfg.dims, dtype=np.uint8)
    fractions = _sample_shell_fractions(cfg, rng)
    lesions = _place_lesions(cfg, rng)
    grid = np.indices(cfg.dims, dtype=np.float64)
    for center, axes in lesions:
        rho = np.sqrt(
            ((grid[0] - center[0]) / axes[0]) ** 2
            + ((grid[1] - center[1]) / axes[1]) ** 2
            + ((grid[2] - center[2]) / axes[2]) ** 2
        )
        # outermost shell first so inner labels overwrite outer ones
        for shell, frac in list(zip(cfg.shells, fractions))[::-1]:
            gt[rho <= frac] = shell.label
    return gt


def _make_sequences(
    cfg: SynthConfig, gt: np.ndarray, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    # imported here: importing the package must not load ndimage
    from scipy import ndimage

    shifts = np.array([_LABEL_SHIFT[l] for l in range(5)])
    images = {}
    for seq in cfg.sequences:
        base = _SEQ_BASE.get(seq, 100.0)
        img = base + shifts[gt]
        noise = rng.standard_normal(cfg.dims)
        if cfg.noise_sigma > 0:
            noise = ndimage.gaussian_filter(noise, cfg.noise_sigma)
        spread = noise.std()
        if spread > 0:
            img = img + noise * (cfg.noise_amplitude / spread)
        images[seq] = img.astype(np.float32)
    return images


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

_GROW_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _open_neighbours(v, allowed: np.ndarray, chosen: set):
    """The 6-neighbours of voxel ``v`` inside the grid, allowed and not
    yet chosen."""
    for step in _GROW_STEPS:
        nb = tuple(c + d for c, d in zip(v, step))
        if (all(0 <= c < n for c, n in zip(nb, allowed.shape))
                and allowed[nb] and nb not in chosen):
            yield nb


def _grow_island(
    allowed: np.ndarray, size: int, rng: np.random.Generator, tries: int = 50
) -> list[tuple[int, int, int]] | None:
    """Random 6-connected blob of exactly ``size`` voxels inside the
    allowed region, or None when no seed admits one."""
    free = np.argwhere(allowed)
    if free.shape[0] == 0:
        return None
    for _ in range(tries):
        seed = tuple(int(v) for v in free[int(rng.integers(free.shape[0]))])
        chosen = {seed}
        frontier = set(_open_neighbours(seed, allowed, chosen))
        while len(chosen) < size and frontier:
            ordered = sorted(frontier)
            pick = ordered[int(rng.integers(len(ordered)))]
            frontier.discard(pick)
            chosen.add(pick)
            frontier.update(_open_neighbours(pick, allowed, chosen))
        if len(chosen) == size:
            return sorted(chosen)
    return None


def corrupt_prediction(
    gt: LabelMap, cfg: SynthConfig, rng: np.random.Generator
) -> tuple[LabelMap, dict]:
    """Derive a corrupted prediction from the ground truth.

    Order: ratio-triggered swap on the true labels, then false-positive
    islands (never swapped), then optional boundary jitter.  The
    returned inventory lists every injected island voxel and every
    swapped voxel.
    """
    pred = gt.data.copy()
    inventory: dict = {"islands": [], "swap": None, "jitter": []}

    if cfg.swap is not None:
        wt_vol = int(np.isin(pred, (1, 2, 3)).sum())
        src_vol = int((pred == cfg.swap.src).sum())
        fired = wt_vol > 0 and (src_vol / wt_vol) < cfg.swap.trigger
        swapped: list[list[int]] = []
        if fired and src_vol > 0:
            coords = np.argwhere(pred == cfg.swap.src)
            swapped = coords.tolist()
            pred[pred == cfg.swap.src] = cfg.swap.dst
        inventory["swap"] = {
            "src": cfg.swap.src,
            "dst": cfg.swap.dst,
            "trigger": cfg.swap.trigger,
            "fired": bool(fired),
            "voxels": swapped,
        }

    if cfg.islands:
        blocked = (
            dilate(gt.data > 0, cfg.island_margin - 1)
            if (gt.data > 0).any()
            else np.zeros(gt.data.shape, dtype=bool)
        )
        allowed = ~blocked
        for spec in cfg.islands:
            count = int(rng.integers(spec.count[0], spec.count[1] + 1))
            for _ in range(count):
                size = int(rng.integers(spec.size[0], spec.size[1] + 1))
                voxels = _grow_island(allowed, size, rng)
                if voxels is None:
                    raise ValueError(
                        f"no room left for a {size}-voxel island of label {spec.label}"
                    )
                coords = np.asarray(voxels)
                pred[tuple(coords.T)] = spec.label
                # the island's one-voxel dilation stays inside its box
                # padded by one voxel
                box = padded_box(coords.T, 1, gt.data.shape)
                island_mask = np.zeros_like(allowed[box])
                island_mask[tuple((coords - [b.start for b in box]).T)] = True
                allowed[box] &= ~dilate(island_mask, 1)
                inventory["islands"].append(
                    {"label": spec.label, "voxels": [list(map(int, v)) for v in voxels]}
                )

    if cfg.jitter > 0:
        # lossy corruption: random foreground boundary voxels are erased
        from .morphology import boundary_voxels

        for _ in range(cfg.jitter):
            surf = np.argwhere(boundary_voxels(pred > 0))
            if surf.shape[0] == 0:
                break
            v = tuple(int(x) for x in surf[int(rng.integers(surf.shape[0]))])
            inventory["jitter"].append([*v, int(pred[v])])
            pred[v] = 0

    return gt.with_data(pred), inventory


def generate_case(cfg: SynthConfig, index: int) -> tuple[CaseBundle, dict]:
    """Deterministic case for (cfg.seed, index): ground truth, images,
    corrupted prediction, and the corruption inventory."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    rng = np.random.default_rng([cfg.seed, index])
    spacing = Spacing(*cfg.spacing)
    gt_data = _paint_ground_truth(cfg, rng)
    images = _make_sequences(cfg, gt_data, rng)
    gt = LabelMap(data=gt_data, spacing=spacing)
    pred, inventory = corrupt_prediction(gt, cfg, rng)
    bundle = CaseBundle(
        case_id=case_name(index),
        prediction=pred,
        sequences={
            seq: ScalarVolume(data=img, spacing=spacing) for seq, img in images.items()
        },
        ground_truth=gt,
    )
    return bundle, inventory


# ---------------------------------------------------------------------------
# corpus persistence
# ---------------------------------------------------------------------------

def save_case(bundle: CaseBundle, images_dir: Path, preds_dir: Path, gt_dir: Path) -> None:
    images_dir.mkdir(parents=True, exist_ok=True)
    preds_dir.mkdir(parents=True, exist_ok=True)
    gt_dir.mkdir(parents=True, exist_ok=True)
    for seq, vol in bundle.sequences.items():
        volume_io.save_nifti(vol, images_dir / seq_filename(bundle.case_id, seq))
    volume_io.save_nifti(bundle.prediction, preds_dir / seg_filename(bundle.case_id))
    if bundle.ground_truth is not None:
        volume_io.save_nifti(bundle.ground_truth, gt_dir / seg_filename(bundle.case_id))


def write_inventory(out_dir: str | Path, cfg: SynthConfig,
                    case_inventories: dict[str, dict]) -> dict:
    doc = {"config": cfg.to_dict(),
           "cases": dict(sorted(case_inventories.items()))}
    with atomic_open(Path(out_dir) / "inventory.json") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
