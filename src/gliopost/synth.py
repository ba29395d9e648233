"""Seeded synthetic corpora: ellipsoidal multi-label ground truths,
pseudo-MRI sequences, and corrupted predictions with a precise error
inventory.

Ground truths are ellipsoids with concentric label shells.  Predictions
start as the ground truth, optionally apply a ratio-triggered label
swap, then receive false-positive islands grown by randomized BFS at a
configurable Chebyshev distance from any true voxel.  The inventory
records every injected voxel, so tests can reconstruct the ground truth
exactly (when boundary jitter is disabled).

Each sequence is its labels' intensities plus Gaussian-smoothed noise.
The smoothing is numpy's: ``_gaussian_filter`` repeats the float64
arithmetic of ``scipy.ndimage.gaussian_filter`` in its order, so a
corpus is the same file for file as when ndimage smoothed it, and no
``synth`` process imports ``scipy.ndimage``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .morphology import boundary_voxels, dilate, nonzero_box, padded_box
from .nifti import write_json
from .volume import (
    MAX_LABEL,
    SEQUENCES,
    CaseBundle,
    JsonConfig,
    LabelMap,
    ScalarVolume,
    Spacing,
    check,
    seg_filename,
    seq_filename,
)
from . import volume as volume_io

_SEQ_BASE = {"t1n": 90.0, "t1c": 110.0, "t2w": 130.0, "t2f": 150.0}
_LABEL_SHIFT = {0: 0.0, 1: 35.0, 2: 20.0, 3: 55.0, 4: -25.0}


@dataclass(frozen=True)
class ShellSpec(JsonConfig):
    """One concentric shell: voxels with normalized radius up to a
    fraction sampled from ``outer`` get this label (innermost first)."""

    label: int
    outer: tuple[float, float]

    def __post_init__(self):
        check("shell label", self.label, "integer", 0, MAX_LABEL)
        check(f"shell {self.label} outer range", self.outer, "number range")


@dataclass(frozen=True)
class IslandSpec(JsonConfig):
    """False-positive islands of one label; count and voxel size are
    sampled per case from the inclusive ranges."""

    label: int
    count: tuple[int, int]
    size: tuple[int, int]

    def __post_init__(self):
        check("island label", self.label, "integer", 0, MAX_LABEL)
        check(f"island {self.label} count range", self.count, "integer range", 0)
        check(f"island {self.label} size range", self.size, "integer range", 1)


@dataclass(frozen=True)
class SwapSpec(JsonConfig):
    """Relabel src to dst when the ground-truth volume ratio
    volume(src)/volume(WT) falls below the trigger."""

    src: int
    dst: int
    trigger: float

    def __post_init__(self):
        check("swap src label", self.src, "integer", 0, MAX_LABEL)
        check("swap dst label", self.dst, "integer", 0, MAX_LABEL)
        check("swap trigger", self.trigger, "number")


@dataclass(frozen=True)
class SynthConfig(JsonConfig):
    """A corpus recipe.  Construction checks every field, the specs
    theirs; ``from_dict`` reads the recipe ``to_dict`` writes, an absent
    top-level key taking its default."""

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
        check("seed", self.seed, "integer", 0)
        check("dims", self.dims, "integer", 1, count=3)
        check("spacing", self.spacing, "number", above=0, count=3)
        check("lesion count range", self.lesion_count, "integer range", 0)
        check("lesion radius range", self.lesion_radius, "number range", above=0)
        check("axis scale range", self.axis_scale, "number range")
        if not self.shells:
            raise ValueError("at least one shell required")
        check("jitter", self.jitter, "integer", 0)
        check("island margin", self.island_margin, "integer", 1)
        check("lesion separation", self.lesion_separation, "number", 0)
        check("noise sigma", self.noise_sigma, "number", 0)
        check("noise amplitude", self.noise_amplitude, "number", 0)
        check("sequences", self.sequences, "names")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        return super().from_dict({**SynthConfig().to_dict(), **d})


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
    # one broadcast coordinate column per axis: each voxel's terms are the
    # floats a full index grid gives, without the grid
    grid = np.ogrid[tuple(slice(n) for n in cfg.dims)]
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


# float64 elements in each of a correlation's three scratch blocks: the
# three fit in a core's L2 cache
_BLOCK = 1 << 15


def _gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(x, sigma)`` of a float64 array,
    bit for bit: the kernel ``exp(-0.5 / sigma**2 * t**2)`` for ``t``
    from ``-r`` to ``r``, ``r = int(4 sigma + 0.5)``, divided by its sum,
    is correlated along axis 0, 1, 2, ... in turn with reflected edges.
    As in ndimage, a sigma of at most 1e-15 filters nothing.  The result
    is a new array; ``x`` is left as it is."""
    out = np.array(x, dtype=np.float64, order="C")
    if sigma <= 1e-15:
        return out
    radius = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = (phi / phi.sum())[radius:].tolist()
    for axis in range(out.ndim):
        _correlate_axis(out, weights, axis)
    return out


def _correlate_axis(vol: np.ndarray, weights: list[float], axis: int) -> None:
    """Correlate the C-contiguous ``vol`` in place along ``axis`` with
    the symmetric kernel whose centre and right half are ``weights``, in
    ndimage's ``correlate1d`` order: each output starts as ``x[i] w[0]``,
    then ``(x[i - j] + x[i + j]) w[j]`` is added for j from the radius
    down to 1, an index out of range reflecting with period 2n.

    Lines are filtered a block at a time.  A block's lines are gathered
    with their reflected margins into one flat buffer, so the window at
    each offset is one contiguous slice; the outputs that straddle two
    lines are computed and dropped.  Margins are at most n wide: the
    period folds any longer offset back into them."""
    n = vol.shape[axis]
    radius = len(weights) - 1
    margin = min(radius, n)
    padded = n + 2 * margin
    lines = vol.reshape(math.prod(vol.shape[:axis]), n, math.prod(vol.shape[axis + 1:]))
    outer, _, inner = lines.shape
    # buffer start, in lines, of the window at offset k
    start = {k: margin + (k if abs(k) <= margin else (k + n) % (2 * n) - n)
             for k in range(-radius, radius + 1)}
    cols = max(1, min(inner, _BLOCK // padded))
    rows = max(1, min(outer, _BLOCK // (padded * cols)))
    buf, acc, tmp = (np.empty(rows * padded * cols) for _ in range(3))
    for r in range(0, outer, rows):
        for c in range(0, inner, cols):
            block = lines[r:r + rows, :, c:c + cols]
            nr, _, nc = block.shape
            size = nr * padded * nc
            span = size - 2 * margin * nc
            lined = buf[:size].reshape(nr, padded, nc)
            lined[:, margin:margin + n] = block
            lined[:, :margin] = block[:, :margin][:, ::-1]
            lined[:, margin + n:] = block[:, n - margin:][:, ::-1]

            def window(k):
                return buf[start[k] * nc:start[k] * nc + span]

            total, term = acc[:span], tmp[:span]
            np.multiply(window(0), weights[0], out=total)
            for j in range(radius, 0, -1):
                np.add(window(-j), window(j), out=term)
                np.multiply(term, weights[j], out=term)
                np.add(total, term, out=total)
            block[...] = acc[:size].reshape(nr, padded, nc)[:, :n]


def _make_sequences(
    cfg: SynthConfig, gt: np.ndarray, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    shifts = np.array([_LABEL_SHIFT[l] for l in range(5)])
    images = {}
    for seq in cfg.sequences:
        base = _SEQ_BASE.get(seq, 100.0)
        img = base + shifts[gt]
        noise = rng.standard_normal(cfg.dims)
        if cfg.noise_sigma > 0:
            noise = _gaussian_filter(noise, cfg.noise_sigma)
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
    free = np.flatnonzero(allowed)
    if free.size == 0:
        return None
    for _ in range(tries):
        seed = tuple(int(v) for v in np.unravel_index(free[int(rng.integers(free.size))],
                                                      allowed.shape))
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

    # lossy corruption: random foreground boundary voxels are erased.
    # Erasing only shrinks the foreground, so its box padded by one
    # background voxel holds every later boundary, and the box's C-order
    # scan lists them in the grid's C order.
    box = nonzero_box(pred, 1) if cfg.jitter > 0 else None
    if box is not None:
        start = [b.start for b in box]
        for _ in range(cfg.jitter):
            surf = np.argwhere(boundary_voxels(pred[box] > 0))
            if surf.shape[0] == 0:
                break
            v = tuple(int(x) for x in surf[int(rng.integers(surf.shape[0]))] + start)
            inventory["jitter"].append([*v, int(pred[v])])
            pred[v] = 0

    return gt.with_data(pred), inventory


def generate_case(cfg: SynthConfig, index: int) -> tuple[CaseBundle, dict]:
    """Deterministic case for (cfg.seed, index): ground truth, images,
    corrupted prediction, and the corruption inventory."""
    check("index", index, "integer", 0)
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
                    case_inventories: dict[str, dict]) -> None:
    doc = {"config": cfg.to_dict(),
           "cases": dict(sorted(case_inventories.items()))}
    write_json(Path(out_dir) / "inventory.json", doc)
