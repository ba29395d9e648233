"""Correctness checks on the outputs of one pass of the pipeline.

Every check compares the program's output with a computation made apart
from the package (a NIfTI reader of its own, numpy and scipy
recomputations, the brute-force oracle in ``tests/oracles.py``) or with
a property the method must have.  None compares with a stored copy of
earlier output.  A failed check raises ``CheckFailed`` naming the case.
"""

from __future__ import annotations

import csv
import gzip
import json
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage

# pre-treatment regions as raw label sets, and the default tolerances
REGIONS = {"ET": {3}, "TC": {1, 3}, "WT": {1, 2, 3}, "NETC": {1}, "SNFH": {2}}
TOLERANCES = ("0.5", "1")
WT_LABELS = (1, 2, 3)
_DTYPES = {2: "u1", 4: "<i2", 8: "<i4", 16: "<f4", 64: "<f8", 256: "i1",
           512: "<u2", 768: "<u4"}


class CheckFailed(Exception):
    pass


def read_volume(path: Path) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Array in (x, y, z) order and spacing of a little-endian
    single-file NIfTI-1 volume, gzipped or not."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    if struct.unpack_from("<i", blob, 0)[0] != 348:
        raise CheckFailed(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", blob, 40)
    datatype = struct.unpack_from("<h", blob, 70)[0]
    pixdim = struct.unpack_from("<8f", blob, 76)
    offset, slope, inter = struct.unpack_from("<3f", blob, 108)
    shape = tuple(int(d) for d in dim[1:4])
    data = np.frombuffer(blob, dtype=_DTYPES[datatype],
                         count=int(np.prod(shape)), offset=int(offset))
    data = data.reshape(shape, order="F")
    if slope not in (0.0, 1.0) or inter != 0.0:
        data = data * slope + inter
    return data, tuple(float(p) for p in pixdim[1:4])


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _seg(corpus: Path, sub: str, case_id: str) -> np.ndarray:
    return read_volume(corpus / sub / f"{case_id}-seg.nii.gz")[0]


def inventory(corpus: Path) -> dict:
    return json.loads((corpus / "inventory.json").read_text())


def check_features(features_csv: Path, corpus: Path) -> None:
    """``shape/voxel_count`` and every ``<seq>/firstorder/mean`` equal
    numpy recomputations from the NIfTI files."""
    rows = _rows(features_csv)
    for row in rows:
        cid = row["case_id"]
        wt = np.isin(_seg(corpus, "preds", cid), WT_LABELS)
        if float(row["shape/voxel_count"]) != float(wt.sum()):
            raise CheckFailed(f"{cid}: shape/voxel_count "
                              f"{row['shape/voxel_count']} != {wt.sum()}")
        seqs = [k.split("/")[0] for k in row if k.endswith("/firstorder/mean")]
        for seq in seqs:
            image = read_volume(corpus / "images" / f"{cid}-{seq}.nii.gz")[0]
            mean = float(image.astype(np.float64)[wt].mean())
            got = float(row[f"{seq}/firstorder/mean"])
            if not _close(got, mean):
                raise CheckFailed(f"{cid}: {seq}/firstorder/mean {got!r} "
                                  f"!= numpy {mean!r}")


def check_self_score(corpus: Path) -> None:
    """Scoring the ground truth against itself gives 1 for every metric."""
    from gliopost.metrics import evaluate_case
    from gliopost.volume import load_nifti

    cases = sorted(inventory(corpus)["cases"])
    for cid in cases:
        gt = load_nifti(corpus / "gt" / f"{cid}-seg.nii.gz", kind="label")
        values = evaluate_case(gt, gt, case_id=cid).values
        bad = {k: v for k, v in values.items() if v != 1.0}
        if bad:
            raise CheckFailed(f"{cid}: ground truth against itself scores "
                              f"{bad}")


def _closed_form(labels: set[int], case_inv: dict, gt_present: bool) -> float:
    """Lesion-wise score of a raw prediction that is the ground truth
    (one lesion) plus isolated islands and an optional whole-label swap."""
    n_fp = sum(1 for island in case_inv["islands"] if island["label"] in labels)
    swap = case_inv["swap"]
    fired = bool(swap and swap["fired"] and swap["voxels"])
    src_in = fired and swap["src"] in labels
    dst_in = fired and swap["dst"] in labels
    if not gt_present:
        if dst_in and not src_in:
            n_fp += 1  # the relabelled core is one more false positive
        return 1.0 if n_fp == 0 else 0.0
    lesion = 0.0 if src_in and not dst_in else 1.0
    return lesion / (1 + n_fp)


def check_closed_form(metrics_csv: Path, corpus: Path) -> None:
    """Raw-prediction Dice and NSD follow from ``inventory.json``: one
    perfect lesion and n islands score 1/(1+n), a region whose lesion was
    swapped away scores 0/(1+n), an empty region 1 without islands and 0
    with them."""
    inv = inventory(corpus)
    config = inv["config"]
    if config["lesion_count"] != [1, 1] or config["jitter"] != 0:
        raise CheckFailed("closed-form scores need one lesion and no jitter")
    for row in _rows(metrics_csv):
        cid = row["case_id"]
        gt = _seg(corpus, "gt", cid)
        for region, labels in REGIONS.items():
            expected = _closed_form(labels, inv["cases"][cid],
                                    bool(np.isin(gt, list(labels)).any()))
            for col in [f"LW_Dice_{region}"] + [f"LW_NSD@{t}_{region}"
                                                for t in TOLERANCES]:
                if abs(float(row[col]) - expected) > 1e-12:
                    raise CheckFailed(f"{cid}: {col} = {row[col]}, closed "
                                      f"form from the inventory gives "
                                      f"{expected!r}")


def check_apply_invariants(corpus: Path, post_dir: Path) -> None:
    """``apply`` never turns background into foreground, only removes
    whole components of a label, and its relabelling leaves the WT mask
    of the kept voxels unchanged."""
    cases = sorted(inventory(corpus)["cases"])
    full = np.ones((3, 3, 3), dtype=bool)
    for cid in cases:
        raw = _seg(corpus, "preds", cid)
        post = read_volume(post_dir / f"{cid}-seg.nii.gz")[0]
        if raw.shape != post.shape:
            raise CheckFailed(f"{cid}: apply changed the grid {raw.shape} -> "
                              f"{post.shape}")
        kept = post != 0
        if (kept & (raw == 0)).any():
            raise CheckFailed(f"{cid}: apply turned background into "
                              f"foreground")
        if (np.isin(raw, WT_LABELS) != np.isin(post, WT_LABELS))[kept].any():
            raise CheckFailed(f"{cid}: relabelling moved the WT mask")
        removed = (raw != 0) & ~kept
        for label in range(1, 5):
            comps, count = ndimage.label(raw == label, structure=full)
            sizes = np.bincount(comps.ravel(), minlength=count + 1)
            gone = np.bincount(comps[removed], minlength=count + 1)
            partial = (gone[1:] != 0) & (gone[1:] != sizes[1:])
            if partial.any():
                raise CheckFailed(f"{cid}: apply removed part of a label "
                                  f"{label} component")


def check_acceptance(corpus: Path, post_dir: Path, ranking_csv: Path) -> None:
    """The inventory-based outcomes of acceptance criterion 5 that do not
    depend on which clusters saw fired swaps in training: at least 99% of
    island voxels removed, no true-lesion voxel removed, and ``fitted``
    ranked ahead of ``identity``.  Which fired swaps get reverted does
    depend on it; ``check_apply_recomputed`` checks that part exactly."""
    cases = inventory(corpus)["cases"]
    island_total = island_removed = 0
    for cid, case_inv in sorted(cases.items()):
        post = read_volume(post_dir / f"{cid}-seg.nii.gz")[0]
        gt = _seg(corpus, "gt", cid)
        for island in case_inv["islands"]:
            idx = tuple(np.asarray(island["voxels"]).T)
            island_total += len(island["voxels"])
            island_removed += int((post[idx] == 0).sum())
        lost = int(((gt > 0) & (post == 0)).sum())
        if lost:
            raise CheckFailed(f"{cid}: apply removed {lost} true-lesion "
                              f"voxels")
    if island_total == 0 or island_removed < 0.99 * island_total:
        raise CheckFailed(f"held-out corpus: {island_removed} of "
                          f"{island_total} island voxels removed")
    scores = {r["candidate_id"]: float(r["ranking_score"])
              for r in _rows(ranking_csv)}
    if not scores["fitted"] < scores["identity"]:
        raise CheckFailed(f"ranking: fitted {scores['fitted']} not ahead "
                          f"of identity {scores['identity']}")


def _recompute_apply(raw: np.ndarray, thresholds: dict, rules: list,
                     connectivity: int) -> np.ndarray:
    structure = ndimage.generate_binary_structure(
        3, 3 if connectivity == 26 else 1)
    out = raw.copy()
    for label, min_size in sorted(thresholds.items()):
        if min_size <= 0:
            continue
        comps, _ = ndimage.label(out == label, structure=structure)
        small = np.bincount(comps.ravel()) < min_size
        small[0] = False
        out[small[comps]] = 0
    for rule in rules:
        wt = int(np.isin(out, WT_LABELS).sum())
        if wt and (out == rule["src"]).sum() / wt < rule["cutoff"]:
            out[out == rule["src"]] = rule["dst"]
    return out


def check_apply_recomputed(policy_json: Path, features_csv: Path,
                           corpus: Path, post_dir: Path) -> None:
    """Every ``apply`` output equals a recomputation from ``policy.json``
    and the case's features: nearest centroid after standardizing and
    projecting, then the cluster's size thresholds and relabel rules.
    A fired swap is reverted exactly when the case's cluster holds a
    rule that fires on it."""
    policy = json.loads(policy_json.read_text())
    std, pca = policy["standardizer"], policy["pca"]
    centroids = np.asarray(policy["kmeans"]["centroids"])
    names = policy["feature_manifest"]["feature_names"]
    connectivity = policy["metric_config"]["connectivity"]
    rows = _rows(features_csv)
    for row in rows:
        cid = row["case_id"]
        x = np.array([float(row[n]) for n in names])
        z = (x - np.asarray(std["mean"])) / np.asarray(std["std"])
        p = (z - np.asarray(pca["center"])) @ np.asarray(pca["components"]).T
        cluster = int(np.argmin(((centroids - p) ** 2).sum(axis=1)))
        thresholds = {int(k): v for k, v in
                      policy["pcc_thresholds"][str(cluster)].items()}
        rules = [r for r in policy["relabel_rules"] if r["cluster"] == cluster]
        want = _recompute_apply(_seg(corpus, "preds", cid), thresholds, rules,
                                connectivity)
        got = read_volume(post_dir / f"{cid}-seg.nii.gz")[0]
        if not np.array_equal(want, got):
            raise CheckFailed(f"{cid}: apply output differs from the policy "
                              f"recomputed for cluster {cluster} in "
                              f"{int((want != got).sum())} voxels")


def check_rank_sum(ranking_csv: Path) -> None:
    """Mean-rank scores of n candidates sum to n(n+1)/2."""
    scores = [float(r["ranking_score"]) for r in _rows(ranking_csv)]
    n = len(scores)
    if not _close(sum(scores), n * (n + 1) / 2):
        raise CheckFailed(f"ranking: scores {scores} do not sum to "
                          f"{n * (n + 1) / 2}")


def check_brute_force(metrics_csv: Path, corpus: Path, case_id: str,
                      regions: tuple[str, ...]) -> None:
    """The ``evaluate`` output of one case equals the brute-force
    lesion-wise oracle in every given region."""
    from oracles import brute_lesionwise

    row = next(r for r in _rows(metrics_csv) if r["case_id"] == case_id)
    gt, spacing = read_volume(corpus / "gt" / f"{case_id}-seg.nii.gz")
    pred = _seg(corpus, "preds", case_id)
    for region in regions:
        labels = list(REGIONS[region])
        dice, nsd = brute_lesionwise(np.isin(gt, labels), np.isin(pred, labels),
                                     spacing, tuple(float(t) for t in TOLERANCES))
        expected = {f"LW_Dice_{region}": dice}
        expected.update({f"LW_NSD@{t}_{region}": nsd[float(t)]
                         for t in TOLERANCES})
        for col, want in expected.items():
            if not _close(float(row[col]), want):
                raise CheckFailed(f"{case_id}: {col} = {row[col]}, brute "
                                  f"force gives {want!r}")
