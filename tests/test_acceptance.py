"""Whole-pipeline acceptance checks, one test per numbered criterion.

A module-scoped fixture builds a pinned synthetic corpus (40 training
cases, 20 held out) through the command line, fits a policy on the
training half, applies it to both halves, evaluates, ranks, and records
wall times.  Every test below covers one numbered criterion and ends by
printing a ``criterion N: PASS`` line (visible with ``pytest -s``); under
plain ``pytest -v`` the test outcomes themselves provide the one-line
per-criterion report.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gliopost.cli import main
from gliopost.clustering import fit_kmeans, fit_pca
from gliopost.metrics import CaseMetrics, RankObjective, RegionScorer
from gliopost.morphology import connected_components, euclidean_distance_transform
from gliopost.policy import (
    apply_component_thresholds,
    apply_policy,
    load_policy,
    save_policy,
)
from gliopost.radiomics import extract_case_features, feature_names
from gliopost.ranking import rank_candidates
from gliopost.volume import (
    SEQUENCES,
    Spacing,
    load_case_bundle,
    load_nifti,
    save_nifti,
    seg_filename,
)

from oracles import brute_edt, brute_lesionwise, naive_postprocess, random_blob_mask

THREADS = "4"
TRAIN_CASES = 40
HELD_CASES = 20
PIPELINE_BUDGET_SECONDS = 45.0
EXTRACTION_BUDGET_SECONDS = 1.0
MIN_TRUE_LESION_VOXELS = 150

# One ellipsoidal lesion per case with a thin enhancing core (label 3)
# inside an edema shell (label 2).  Predictions carry two corruptions the
# policy must learn to undo: small islands of every tumor label well away
# from the lesion, and a full 3->1 relabel that triggers only when the
# core is a small fraction of the whole tumor.  The seed is pinned so the
# corpus, the fitted policy, and every downstream artifact are
# reproducible byte for byte.
RECIPE = {
    "seed": 2,
    "dims": [64, 64, 64],
    "lesion_count": [1, 1],
    "lesion_radius": [13.0, 16.0],
    "axis_scale": [0.85, 1.0],
    "shells": [
        {"label": 3, "outer": [0.41, 0.51]},
        {"label": 2, "outer": [1.0, 1.0]},
    ],
    "islands": [
        {"label": 1, "count": [1, 2], "size": [3, 8]},
        {"label": 2, "count": [1, 2], "size": [3, 8]},
        {"label": 3, "count": [1, 2], "size": [3, 8]},
    ],
    "swap": {"src": 3, "dst": 1, "trigger": 0.085},
    "island_margin": 7,
}


def _cli(argv: list[str]) -> float:
    """Run one command in process, assert success, return elapsed seconds."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0, f"{argv[0]} exited with {code}"
    return elapsed


def _tree_bytes(root: Path, skip: tuple[str, ...] = ("run-config.json",)) -> dict:
    """Relative path -> bytes for every file under root, minus the run
    echo (it records the output directory, which differs per run)."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def _passline(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps(RECIPE, indent=2) + "\n")

    train = root / "train"
    held = root / "held"
    features = root / "features"
    fit = root / "fit"
    applied_train = root / "applied-train"
    applied_held = root / "applied-held"
    identity_metrics = root / "metrics-identity"
    fitted_metrics = root / "metrics-fitted"
    ranking = root / "ranking"

    timings: dict[str, float] = {}
    timings["synth-train"] = _cli(
        ["synth", "--config", str(recipe), "--out", str(train),
         "--cases", str(TRAIN_CASES), "--threads", THREADS])
    timings["synth-held"] = _cli(
        ["synth", "--config", str(recipe), "--out", str(held),
         "--cases", str(HELD_CASES), "--start-index", str(TRAIN_CASES),
         "--threads", THREADS])
    timings["extract"] = _cli(
        ["extract-features", "--preds", str(train / "preds"),
         "--images", str(train / "images"), "--out", str(features),
         "--threads", THREADS])
    timings["fit"] = _cli(
        ["fit-policy", "--preds", str(train / "preds"),
         "--images", str(train / "images"), "--gt", str(train / "gt"),
         "--features", str(features / "features.csv"),
         "--k-range", "2", "--out", str(fit), "--threads", THREADS])
    timings["apply-train"] = _cli(
        ["apply", "--policy", str(fit / "policy.json"),
         "--preds", str(train / "preds"), "--images", str(train / "images"),
         "--out", str(applied_train), "--threads", THREADS])
    timings["apply-held"] = _cli(
        ["apply", "--policy", str(fit / "policy.json"),
         "--preds", str(held / "preds"), "--images", str(held / "images"),
         "--out", str(applied_held), "--threads", THREADS])
    timings["evaluate-identity"] = _cli(
        ["evaluate", "--preds", str(held / "preds"), "--gt", str(held / "gt"),
         "--out", str(identity_metrics), "--threads", THREADS])
    timings["evaluate-fitted"] = _cli(
        ["evaluate", "--preds", str(applied_held), "--gt", str(held / "gt"),
         "--out", str(fitted_metrics), "--threads", THREADS])
    timings["rank"] = _cli(
        ["rank", f"fitted={fitted_metrics / 'metrics.csv'}",
         f"identity={identity_metrics / 'metrics.csv'}",
         "--out", str(ranking)])

    return {
        "root": root,
        "recipe": recipe,
        "train": train,
        "held": held,
        "features": features,
        "fit": fit,
        "applied-train": applied_train,
        "applied-held": applied_held,
        "metrics-identity": identity_metrics,
        "metrics-fitted": fitted_metrics,
        "ranking": ranking,
        "timings": timings,
    }


def _case_ids(start: int, count: int) -> list[str]:
    return [f"case-{i:04d}" for i in range(start, start + count)]


def _inventory_cases(corpus: Path) -> dict:
    return json.loads((corpus / "inventory.json").read_text())["cases"]


# -- criterion 1: feature inventory and extraction speed ---------------------------------

def test_criterion_1_feature_inventory_and_speed(pipeline):
    names = feature_names()
    assert len(names) == 386
    assert len(set(names)) == 386
    shape_names = [n for n in names if n.startswith("shape/")]
    assert len(shape_names) == 14
    for seq in SEQUENCES:
        per_seq = [n for n in names if n.startswith(f"{seq}/")]
        assert len(per_seq) == 93
    assert 14 + 4 * 93 == len(names)

    held = pipeline["held"]
    bundle = load_case_bundle("case-0040", held / "preds", held / "images")
    assert bundle.prediction.data.shape == (64, 64, 64)
    start = time.perf_counter()
    vector = extract_case_features(bundle)
    elapsed = time.perf_counter() - start
    assert elapsed < EXTRACTION_BUDGET_SECONDS
    assert vector.values.shape == (386,)
    assert vector.values.any()  # not the all-zero sentinel of a tiny mask
    assert np.all(np.isfinite(vector.values))
    _passline(1, f"386 = 14 + 4*93 names, one 64^3 case in {elapsed:.2f}s")


# -- criterion 2: lesion-wise metrics against brute force ---------------------------------

def test_criterion_2_metrics_match_brute_force():
    rng = np.random.default_rng(4242)
    spacings = ((1.0, 1.0, 1.0), (0.7, 1.0, 1.6))
    tolerances = (0.5, 1.0)
    worst_dice = 0.0
    worst_nsd = 0.0
    worst_edt = 0.0
    for trial in range(200):
        shape = tuple(int(v) for v in rng.integers(6, 17, size=3))
        gt = random_blob_mask(rng, shape, density=float(rng.uniform(0.05, 0.28)))
        if trial % 3 == 0:
            pred = gt ^ (rng.random(shape) > 0.9)
        else:
            pred = random_blob_mask(rng, shape, density=float(rng.uniform(0.05, 0.28)))
        spacing = spacings[trial % 2]

        scores = RegionScorer(gt, Spacing(*spacing),
                              RankObjective(tolerances=tolerances)).score(pred)
        ref_dice, ref_nsd = brute_lesionwise(gt, pred, spacing, tolerances)
        worst_dice = max(worst_dice, abs(scores["LW_Dice"] - ref_dice))
        assert abs(scores["LW_Dice"] - ref_dice) <= 1e-9
        for tol in tolerances:
            diff = abs(scores[f"LW_NSD@{tol:g}"] - ref_nsd[tol])
            worst_nsd = max(worst_nsd, diff)
            assert diff <= 1e-9

        fast = euclidean_distance_transform(gt, Spacing(*spacing))
        ref = brute_edt(gt, spacing)
        assert np.array_equal(np.isinf(fast), np.isinf(ref))
        finite = ~np.isinf(ref)
        if finite.any():
            diff = float(np.max(np.abs(fast[finite] - ref[finite])))
            worst_edt = max(worst_edt, diff)
            assert diff <= 1e-9
    _passline(
        2,
        "200 pairs; worst |dice|, |nsd|, |edt| = "
        f"{worst_dice:.2e}, {worst_nsd:.2e}, {worst_edt:.2e}",
    )


# -- criterion 3: ranking semantics --------------------------------------------------------

def _metric_rows(table: dict[str, dict[str, float]]) -> list[CaseMetrics]:
    return [CaseMetrics(case_id=cid, values=dict(vals))
            for cid, vals in table.items()]


def test_criterion_3_ranking_semantics():
    cols = ("LW_Dice_ET", "LW_NSD@1_ET")

    better = {"c0": {cols[0]: 0.9, cols[1]: 0.8},
              "c1": {cols[0]: 0.7, cols[1]: 0.95}}
    worse = {"c0": {cols[0]: 0.5, cols[1]: 0.6},
             "c1": {cols[0]: 0.4, cols[1]: 0.3}}
    result = rank_candidates({"a": _metric_rows(better),
                              "b": _metric_rows(worse)})
    assert result.scores == {"a": 1.0, "b": 2.0}

    tied = rank_candidates({"a": _metric_rows(better),
                            "b": _metric_rows(better)})
    assert tied.scores == {"a": 1.5, "b": 1.5}

    rng = np.random.default_rng(31)
    cases = [f"c{i}" for i in range(4)]
    base = {
        name: {cid: {col: float(rng.uniform(0.01, 0.99)) for col in cols}
               for cid in cases}
        for name in ("a", "b", "c")
    }

    def tables(transform):
        return {
            name: _metric_rows({cid: {col: transform(v) for col, v in vals.items()}
                                for cid, vals in per_case.items()})
            for name, per_case in base.items()
        }

    plain = rank_candidates(tables(lambda v: v))
    for transform in (lambda v: v ** 3, lambda v: 2.0 * v + 1.0):
        moved = rank_candidates(tables(transform))
        assert np.array_equal(moved.rank_table, plain.rank_table)
        assert moved.scores == plain.scores

    # every (case, metric) cell hands out ranks summing to n(n+1)/2, so the
    # mean score over candidates is pinned at (n+1)/2 no matter the values
    for n_cand in (2, 3, 5):
        names = [f"cand{i}" for i in range(n_cand)]
        # 2 cases x 2 columns = 4 cells keeps each mean exactly representable
        per = {
            name: _metric_rows({
                cid: {col: float(np.round(rng.uniform(), 1)) for col in cols}
                for cid in ("c0", "c1")})
            for name in names
        }
        result = rank_candidates(per)
        cell_sums = result.rank_table.sum(axis=0)
        assert np.all(cell_sums == n_cand * (n_cand + 1) / 2)
        mean = sum(result.scores.values()) / n_cand
        assert mean == (n_cand + 1) / 2
    _passline(3, "dominance, ties, monotone invariance, mean = (n+1)/2")


# -- criterion 4: dimensionality reduction and clustering ---------------------------------

def test_criterion_4_pca_and_kmeans():
    rng = np.random.default_rng(77)
    spread = rng.normal(size=(400, 4)) * np.array([6.0, 3.0, 1.0, 0.5])
    pca = fit_pca(spread, variance_target=0.90)
    ratios = np.asarray(pca.explained_variance_ratio)
    kept = pca.components.shape[0]
    assert kept == 2
    assert ratios.sum() >= 0.90 - 1e-12
    assert ratios[:-1].sum() < 0.90

    blob_rng = np.random.default_rng(88)
    near = blob_rng.normal(size=(30, 3)) * 0.4
    far = blob_rng.normal(size=(30, 3)) * 0.4 + 8.0
    points = np.vstack([near, far])
    model, labels = fit_kmeans(points, k_range=(2, 3, 4, 5), restarts=5, seed=11)
    assert model.k == 2
    assert model.silhouette > 0.8
    assert len(set(labels[:30].tolist())) == 1
    assert len(set(labels[30:].tolist())) == 1
    assert labels[0] != labels[-1]

    again, labels_again = fit_kmeans(points, k_range=(2, 3, 4, 5),
                                     restarts=5, seed=11)
    assert again.centroids.tobytes() == model.centroids.tobytes()
    assert np.array_equal(labels, labels_again)
    assert again.inertia == model.inertia
    assert again.silhouette == model.silhouette
    _passline(4, f"minimal pca ({kept} comps), k=2 kept, "
                 f"silhouette {model.silhouette:.3f}, reruns identical")


# -- criterion 5: fitted policy cleans the held-out corpus --------------------------------

def test_criterion_5_policy_recovers_held_out(pipeline):
    train_inv = _inventory_cases(pipeline["train"])
    held_inv = _inventory_cases(pipeline["held"])
    assert len(train_inv) == TRAIN_CASES
    assert len(held_inv) == HELD_CASES

    # the corpus is what the criterion asks for: small islands, a floor on
    # genuine lesion size, and a ratio-triggered swap on roughly 30% of cases
    min_true = None
    for corpus in (pipeline["train"], pipeline["held"]):
        for cid in _inventory_cases(corpus):
            gt = load_nifti(corpus / "gt" / seg_filename(cid), kind="label").data
            for label in (1, 2, 3, 4):
                mask = gt == label
                if not mask.any():
                    continue
                smallest = int(connected_components(mask).sizes[1:].min())
                min_true = smallest if min_true is None else min(min_true, smallest)
    assert min_true is not None and min_true >= MIN_TRUE_LESION_VOXELS

    for inv in (*train_inv.values(), *held_inv.values()):
        for island in inv["islands"]:
            assert 3 <= len(island["voxels"]) <= 8

    fired_train = [cid for cid, inv in train_inv.items() if inv["swap"]["fired"]]
    fired_held = [cid for cid, inv in held_inv.items() if inv["swap"]["fired"]]
    fired_fraction = (len(fired_train) + len(fired_held)) / (TRAIN_CASES + HELD_CASES)
    assert 0.2 <= fired_fraction <= 0.4
    assert len(fired_train) >= 3
    assert len(fired_held) >= 1

    # (a) held out: at least 99% of injected island voxels removed, and not
    # a single true-lesion voxel removed
    island_total = 0
    island_removed = 0
    true_removed = 0
    applied_held = pipeline["applied-held"]
    held = pipeline["held"]
    for cid, inv in held_inv.items():
        out = load_nifti(applied_held / seg_filename(cid), kind="label").data
        gt = load_nifti(held / "gt" / seg_filename(cid), kind="label").data
        for island in inv["islands"]:
            for i, j, k in island["voxels"]:
                island_total += 1
                island_removed += int(out[i, j, k] == 0)
        true_removed += int(((gt > 0) & (out == 0)).sum())
    assert island_total > 0
    removal = island_removed / island_total
    assert removal >= 0.99
    assert true_removed == 0

    # (b) every triggered held-out swap is reverted to the source label
    for cid in fired_held:
        swap = held_inv[cid]["swap"]
        out = load_nifti(applied_held / seg_filename(cid), kind="label").data
        assert swap["voxels"], f"{cid}: triggered swap lists no voxels"
        for i, j, k in swap["voxels"]:
            assert out[i, j, k] == swap["src"]

    # (c) the fitted policy ranks strictly better than identity
    lines = (pipeline["ranking"] / "ranking.csv").read_text().splitlines()
    assert lines[0] == "candidate_id,ranking_score"
    scores = {}
    for line in lines[1:]:
        name, value = line.split(",")
        scores[name] = float(value)
    assert set(scores) == {"fitted", "identity"}
    assert scores["fitted"] < scores["identity"]

    # (d) the whole pipeline fits the wall-clock budget
    total = sum(pipeline["timings"].values())
    assert total < PIPELINE_BUDGET_SECONDS
    _passline(
        5,
        f"islands removed {removal:.1%}, 0 true voxels lost, "
        f"{len(fired_held)} held swaps reverted, rank "
        f"{scores['fitted']:.3f} < {scores['identity']:.3f}, {total:.0f}s",
    )


# -- criterion 6: persistence round trip ----------------------------------------------------

def test_criterion_6_saved_policy_matches_direct_apply(pipeline, tmp_path):
    policy_path = pipeline["fit"] / "policy.json"
    policy = load_policy(policy_path)

    resaved = tmp_path / "resaved.json"
    save_policy(policy, resaved)
    assert resaved.read_bytes() == policy_path.read_bytes()

    held = pipeline["held"]
    applied_held = pipeline["applied-held"]
    direct_dir = tmp_path / "direct"
    direct_dir.mkdir()
    clustered = 0
    for cid in _case_ids(TRAIN_CASES, HELD_CASES):
        bundle = load_case_bundle(cid, held / "preds", held / "images",
                                  sequences=policy.settings.sequences)
        direct, cluster = apply_policy(policy, bundle)
        clustered += cluster is not None
        save_nifti(direct, direct_dir / seg_filename(cid))
        produced = (direct_dir / seg_filename(cid)).read_bytes()
        via_cli = (applied_held / seg_filename(cid)).read_bytes()
        assert produced == via_cli, f"{cid}: round-trip apply differs"
    # the run record counts the cases whose cluster had to be computed
    run = json.loads((applied_held / "run-config.json").read_text())["run"]
    assert run["clustered_cases"] == clustered
    _passline(6, f"{HELD_CASES} masks bitwise equal after save/load/apply,"
                 f" {clustered} clustered")


# -- criterion 7: relabeling inside the tumor classes never moves the WT mask --------------

def test_criterion_7_relabel_preserves_whole_tumor(pipeline):
    policy = load_policy(pipeline["fit"] / "policy.json")
    assert policy.rules, "expected at least one fitted relabel rule"
    for rule in policy.rules:
        assert rule.src in (1, 2, 3) and rule.dst in (1, 2, 3)

    threshold_maps = list(policy.thresholds.values())
    assert all(m == threshold_maps[0] for m in threshold_maps[1:]), (
        "cluster-dependent thresholds; this check reconstructs the filter "
        "stage without feature extraction and needs them uniform")
    thresholds = threshold_maps[0]
    rules = [r for r in policy.rules if r.cluster == 0]

    checked = 0
    for corpus, applied in (
        (pipeline["train"], pipeline["applied-train"]),
        (pipeline["held"], pipeline["applied-held"]),
    ):
        for cid in _inventory_cases(corpus):
            pred = load_nifti(corpus / "preds" / seg_filename(cid), kind="label").data
            out = load_nifti(applied / seg_filename(cid), kind="label").data
            filtered = apply_component_thresholds(pred, thresholds)
            relabeled = naive_postprocess(filtered, {}, rules)
            assert np.array_equal(relabeled, out)
            wt_before = np.isin(filtered, (1, 2, 3))
            wt_after = np.isin(out, (1, 2, 3))
            assert np.array_equal(wt_before, wt_after)
            checked += 1
    assert checked == TRAIN_CASES + HELD_CASES
    _passline(7, f"WT mask unchanged by relabeling on all {checked} cases")


# -- criterion 8: reruns are byte-identical whatever --threads says -------------------------

def test_criterion_8_reruns_byte_identical(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("rerun")
    recipe = pipeline["recipe"]

    train2 = root / "train"
    held2 = root / "held"
    _cli(["synth", "--config", str(recipe), "--out", str(train2),
          "--cases", str(TRAIN_CASES), "--threads", "3"])
    _cli(["synth", "--config", str(recipe), "--out", str(held2),
          "--cases", str(HELD_CASES), "--start-index", str(TRAIN_CASES),
          "--threads", "1"])
    assert _tree_bytes(train2) == _tree_bytes(pipeline["train"])
    assert _tree_bytes(held2) == _tree_bytes(pipeline["held"])

    features2 = root / "features"
    _cli(["extract-features", "--preds", str(train2 / "preds"),
          "--images", str(train2 / "images"), "--out", str(features2),
          "--threads", "2"])
    assert _tree_bytes(features2) == _tree_bytes(pipeline["features"])

    fit2 = root / "fit"
    _cli(["fit-policy", "--preds", str(train2 / "preds"),
          "--images", str(train2 / "images"), "--gt", str(train2 / "gt"),
          "--features", str(features2 / "features.csv"),
          "--k-range", "2", "--out", str(fit2), "--threads", "2"])
    assert _tree_bytes(fit2) == _tree_bytes(pipeline["fit"])

    applied2 = root / "applied-held"
    _cli(["apply", "--policy", str(fit2 / "policy.json"),
          "--preds", str(held2 / "preds"), "--images", str(held2 / "images"),
          "--out", str(applied2), "--threads", "1"])
    assert _tree_bytes(applied2) == _tree_bytes(pipeline["applied-held"])

    metrics2 = root / "metrics-fitted"
    _cli(["evaluate", "--preds", str(applied2), "--gt", str(held2 / "gt"),
          "--out", str(metrics2), "--threads", "1"])
    assert _tree_bytes(metrics2) == _tree_bytes(pipeline["metrics-fitted"])

    ranking2 = root / "ranking"
    _cli(["rank", f"fitted={metrics2 / 'metrics.csv'}",
          f"identity={pipeline['metrics-identity'] / 'metrics.csv'}",
          "--out", str(ranking2)])
    assert _tree_bytes(ranking2) == _tree_bytes(pipeline["ranking"])
    _passline(8, "synth/extract/fit/apply/evaluate/rank reruns byte-identical")
