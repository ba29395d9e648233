"""Input properties of a benchmark workload that explain where gains show.

Run from the repository root:

    python3 bench/properties.py --workload crowded64 --seed 1

For every case of the first corpus a run with this seed synthesizes (made
in memory, nothing is written) it measures the texture crop voxels per WT
voxel of the predicted mask, the connected components per region of the
prediction, and the tumor share of the grid, then prints min, median and
max of each.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np
from scipy import ndimage

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from checks import REGIONS, WT_LABELS  # noqa: E402
from run import WORKLOADS, corpus_seed  # noqa: E402


def case_properties(pred: np.ndarray, gt: np.ndarray) -> dict[str, float]:
    wt = np.isin(pred, WT_LABELS)
    box = ndimage.find_objects(wt.astype(np.uint8))[0]
    crop = np.prod([s.stop - s.start for s in box])
    props = {"crop voxels per WT voxel": crop / wt.sum(),
             "tumor share of grid": np.isin(gt, WT_LABELS).mean()}
    full = np.ones((3, 3, 3), dtype=bool)
    for region, labels in REGIONS.items():
        props[f"components {region}"] = ndimage.label(
            np.isin(pred, list(labels)), structure=full)[1]
    return props


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from gliopost.synth import SynthConfig, generate_case

    wl = WORKLOADS[args.workload]
    cfg = SynthConfig.from_dict({"seed": corpus_seed(args.seed, 0),
                                 **wl.recipe})
    rows = []
    for index in range(wl.train + wl.held):
        bundle, _ = generate_case(cfg, index)
        rows.append(case_properties(bundle.prediction.data,
                                    bundle.ground_truth.data))
    print(f"{args.workload} seed {args.seed}: {len(rows)} cases, grid "
          f"{'x'.join(map(str, cfg.dims))}")
    for key in rows[0]:
        values = [float(r[key]) for r in rows]
        print(f"  {key:<26} min {min(values):8.4g}  median "
              f"{statistics.median(values):8.4g}  max {max(values):8.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
