"""Confusion tallies, grid-search fitting, rule application, persistence."""

import json
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gliopost.clustering import (
    ClusterModel,
    PcaModel,
    StandardizationStats,
    assign_cluster,
)
from gliopost.metrics import (
    REGIONS_POST_TREATMENT,
    REGIONS_PRE_TREATMENT,
    CaseMetrics,
    CaseScorer,
    RegionScorer,
    evaluate_case,
)
from gliopost.policy import (
    DEFAULT_CUTOFF_GRID,
    POLICY_VERSION,
    FitCase,
    PostProcessPolicy,
    RankObjective,
    RelabelRule,
    _grid_search,
    _search_table,
    apply_component_thresholds,
    apply_policy,
    fit_component_thresholds,
    fit_policy_report,
    fit_relabel_rules,
    load_policy,
    save_policy,
    top_confusions,
    write_confusion_csv,
)
from gliopost.morphology import connected_components
from gliopost.ranking import rank_candidates
from gliopost.radiomics import (
    ExtractionSettings,
    FeatureMatrix,
    extract_case_features,
    feature_names,
)
from gliopost.volume import (
    CaseBundle,
    LabelMap,
    ScalarVolume,
    Spacing,
    save_nifti,
    seg_filename,
)

from oracles import brute_remove_small, naive_postprocess, random_blob_mask, tally_confusion

SP = Spacing(1.0, 1.0, 1.0)


def _lm(data):
    return LabelMap(data=data, spacing=SP)


def _seg(shape=(16, 16, 16)):
    return np.zeros(shape, dtype=np.uint8)


def _written_case(root: Path, case_id, pred, gt, cluster=0) -> FitCase:
    """A training case whose masks are written under ``root/preds`` and
    ``root/gt``, where the fit's workers load it."""
    for sub, data in (("preds", pred), ("gt", gt)):
        (root / sub).mkdir(exist_ok=True)
        save_nifti(_lm(data), root / sub / seg_filename(case_id))
    return FitCase(case_id, str(root / "preds"), str(root / "gt"), cluster)


# -- confusion matrix ---------------------------------------------------------

def test_confusion_matrix_hand_counts(tmp_path):
    gt = np.array([0, 1, 2, 3], dtype=np.uint8).reshape(4, 1, 1)
    pred = np.array([0, 1, 3, 3], dtype=np.uint8).reshape(4, 1, 1)
    cases = [_written_case(tmp_path, case_id, pred, gt) for case_id in "ab"]
    _, _, cm = _search_table((cases[0], {}, RankObjective()))
    assert cm.shape == (5, 5)
    assert cm[0, 0] == 1 and cm[1, 1] == 1 and cm[2, 3] == 1 and cm[3, 3] == 1
    assert cm.sum() == 4
    # the threshold search sums it over cases
    _, cm2 = fit_component_thresholds(cases, 1, grid=(0,))
    assert np.array_equal(cm2, 2 * cm)


def test_top_confusions_direction_and_order():
    cm = np.zeros((5, 5), dtype=np.int64)
    cm[1, 3] = 50  # GT 1 often predicted as 3 -> propose relabeling 3 to 1
    assert top_confusions(cm, 1) == [(3, 1)]
    cm[2, 1] = 50  # tie on count; true label 1 sorts first
    assert top_confusions(cm, 2) == [(3, 1), (1, 2)]
    cm[3, 2] = 80
    assert top_confusions(cm, 2) == [(2, 3), (3, 1)]


def test_top_confusions_ignores_background_and_zeros():
    cm = np.zeros((5, 5), dtype=np.int64)
    cm[0, 1] = 999  # background rows and columns never qualify
    cm[1, 0] = 999
    cm[2, 2] = 999  # diagonal never qualifies
    assert top_confusions(cm, 3) == []
    with pytest.raises(ValueError):
        top_confusions(cm, 0)


def test_write_confusion_csv(tmp_path):
    cm = np.arange(25).reshape(5, 5)
    path = tmp_path / "confusion.csv"
    write_confusion_csv(path, cm)
    lines = path.read_text().splitlines()
    assert lines[0] == "gt\\pred,0,1,2,3,4"
    assert lines[1] == "0,0,1,2,3,4"
    assert lines[5] == "4,20,21,22,23,24"


# -- component threshold fitting ------------------------------------------------

def _island_case(root, case_id, cube_slice, island_at, cluster=0):
    """GT holds one enhancing cube; the prediction adds a stray voxel."""
    gt = _seg()
    gt[cube_slice] = 3
    pred = gt.copy()
    pred[island_at] = 3
    return _written_case(root, case_id, pred, gt, cluster)


def _clean_case(root, case_id, cube_slice, cluster=0):
    gt = _seg()
    gt[cube_slice] = 3
    return _written_case(root, case_id, gt, gt, cluster)


CUBE_A = (slice(2, 8), slice(2, 8), slice(2, 8))
CUBE_B = (slice(3, 9), slice(3, 9), slice(3, 9))


def test_fit_component_thresholds_removes_islands(tmp_path):
    cases = [
        _island_case(tmp_path, "a", CUBE_A, (13, 13, 13)),
        _island_case(tmp_path, "b", CUBE_B, (12, 13, 13)),
    ]
    out, confusion = fit_component_thresholds(cases, 1, grid=(0, 10, 2000))
    # 10 beats 0 (stray voxel gone) and 2000 (the real cube survives);
    # labels absent from the predictions fall back to the no-op value
    assert out == {0: {1: 0, 2: 0, 3: 10, 4: 0}}
    # the removed stray voxels are counted as background
    assert confusion[0, 3] == 0 and confusion[3, 3] == 2 * 216
    assert confusion.sum() == 2 * 16 ** 3


def test_fit_component_thresholds_tie_prefers_noop(tmp_path):
    cases = [_clean_case(tmp_path, "a", CUBE_A), _clean_case(tmp_path, "b", CUBE_B)]
    out, _ = fit_component_thresholds(cases, 1, grid=(0, 10, 50))
    assert out == {0: {1: 0, 2: 0, 3: 0, 4: 0}}


def test_fit_component_thresholds_per_cluster(tmp_path):
    cases = [
        _island_case(tmp_path, "a", CUBE_A, (13, 13, 13), cluster=0),
        _island_case(tmp_path, "b", CUBE_B, (12, 13, 13), cluster=0),
        _clean_case(tmp_path, "c", CUBE_A, cluster=1),
        _clean_case(tmp_path, "d", CUBE_B, cluster=1),
    ]
    out, _ = fit_component_thresholds(cases, 2, grid=(0, 10))
    assert out[0][3] == 10
    assert out[1][3] == 0


def test_fit_component_thresholds_singleton_grid(tmp_path):
    cases = [_clean_case(tmp_path, "a", CUBE_A), _clean_case(tmp_path, "b", CUBE_B)]
    out, _ = fit_component_thresholds(cases, 1, grid=(0,))
    assert out == {0: {1: 0, 2: 0, 3: 0, 4: 0}}


def test_fit_component_thresholds_grid_must_contain_zero(tmp_path):
    cases = [_clean_case(tmp_path, "a", CUBE_A), _clean_case(tmp_path, "b", CUBE_B)]
    with pytest.raises(ValueError, match=r"must contain 0, got \[10, 20\]"):
        fit_component_thresholds(cases, 1, grid=(10, 20))
    with pytest.raises(ValueError, match=">= 0, got -5"):
        fit_component_thresholds(cases, 1, grid=(-5, 0))
    # a fraction or a bool is rejected, not read as an integer (which
    # would also turn 0.5 into the required 0)
    for grid in ((0.5, 10.7), (0, 10.7), (0, True)):
        with pytest.raises(ValueError, match="threshold grid values must be an integer"):
            fit_component_thresholds(cases, 1, grid=grid)


def test_fit_component_thresholds_cluster_errors(tmp_path):
    cases = [_clean_case(tmp_path, "a", CUBE_A, cluster=1),
             _clean_case(tmp_path, "b", CUBE_B, cluster=1)]
    with pytest.raises(ValueError, match="out of range"):
        fit_component_thresholds(cases, 1, grid=(0, 10))
    with pytest.raises(ValueError, match="no training cases"):
        fit_component_thresholds(cases, 3, grid=(0, 10))


@pytest.mark.parametrize("threads", (1, 2))
def test_fit_worker_failure_names_the_case(tmp_path, threads):
    bad = _written_case(tmp_path, "b", _seg((8, 8, 8)), _seg(), cluster=0)
    cases = [_clean_case(tmp_path, "a", CUBE_A), bad, _clean_case(tmp_path, "c", CUBE_A)]
    with pytest.raises(ValueError, match=r"^b: ground_truth dims"):
        fit_component_thresholds(cases, 1, grid=(0, 10), threads=threads)
    with pytest.raises(ValueError, match=r"^b: ground_truth dims"):
        fit_relabel_rules(cases, 1, [(1, 3)], threads=threads)


def test_fit_is_thread_invariant(tmp_path):
    cases = [
        _island_case(tmp_path, "a", CUBE_A, (13, 13, 13)),
        _island_case(tmp_path, "b", CUBE_B, (12, 13, 13), cluster=1),
        _swap_case(tmp_path, "c", (slice(2, 5), slice(2, 5), slice(2, 5))),
        _clean_case(tmp_path, "d", CUBE_B, cluster=1),
    ]
    thresholds, confusion = fit_component_thresholds(cases, 2)
    filtered = [replace(c, thresholds=thresholds[c.cluster]) for c in cases]
    for threads in (2, 3):
        again, again_confusion = fit_component_thresholds(cases, 2, threads=threads)
        assert again == thresholds
        assert np.array_equal(again_confusion, confusion)
        assert fit_relabel_rules(filtered, 2, [(1, 3), (3, 2)], threads=threads) == \
            fit_relabel_rules(filtered, 2, [(1, 3), (3, 2)])


# -- relabel rule fitting ---------------------------------------------------------

def _swap_case(root, case_id, core_slice, cluster=0):
    """GT: enhancing core next to a large edema block.  The prediction
    mislabels the whole core as non-enhancing (label 1)."""
    gt = _seg()
    gt[core_slice] = 3
    gt[8:14, 8:14, 8:14] = 2
    pred = gt.copy()
    pred[pred == 3] = 1
    return _written_case(root, case_id, pred, gt, cluster)


def _faithful_case(root, case_id, cluster=0):
    gt = _seg()
    gt[2:5, 2:5, 2:5] = 1  # genuine non-enhancing core
    gt[8:14, 8:14, 8:14] = 2
    gt[5:7, 2:5, 2:5] = 3
    return _written_case(root, case_id, gt, gt, cluster)


def test_fit_relabel_rules_reverts_mislabeled_core(tmp_path):
    # core ratios: 27/243 = 1/9 and 36/252 = 1/7; the smallest grid
    # cutoff firing on both cases is 29 * 0.005
    cases = [
        _swap_case(tmp_path, "a", (slice(2, 5), slice(2, 5), slice(2, 5))),
        _swap_case(tmp_path, "b", (slice(2, 5), slice(2, 5), slice(2, 6))),
    ]
    rules = fit_relabel_rules(cases, 1, candidates=[(1, 3)])
    assert len(rules) == 1
    rule = rules[0]
    assert (rule.cluster, rule.src, rule.dst) == (0, 1, 3)
    assert rule.cutoff == DEFAULT_CUTOFF_GRID[29]


def test_fit_relabel_rules_leaves_faithful_predictions_alone(tmp_path):
    cases = [_faithful_case(tmp_path, "a"), _faithful_case(tmp_path, "b")]
    assert fit_relabel_rules(cases, 1, candidates=[(1, 3)]) == []


def test_fit_relabel_rules_per_cluster(tmp_path):
    cases = [
        _swap_case(tmp_path, "a", (slice(2, 5), slice(2, 5), slice(2, 5)), cluster=0),
        _swap_case(tmp_path, "b", (slice(2, 5), slice(2, 5), slice(2, 5)), cluster=0),
        _faithful_case(tmp_path, "c", cluster=1),
        _faithful_case(tmp_path, "d", cluster=1),
    ]
    rules = fit_relabel_rules(cases, 2, candidates=[(1, 3)])
    assert [r.cluster for r in rules] == [0]
    assert rules[0].cutoff == DEFAULT_CUTOFF_GRID[23]  # just above 1/9


def test_fit_relabel_rules_validation(tmp_path):
    cases = [_faithful_case(tmp_path, "a"), _faithful_case(tmp_path, "b")]
    with pytest.raises(ValueError, match="src == dst"):
        fit_relabel_rules(cases, 1, candidates=[(1, 1)])
    with pytest.raises(ValueError, match="must contain 0"):
        fit_relabel_rules(cases, 1, candidates=[(1, 3)], cutoff_grid=(0.1, 0.2))
    # every cutoff becomes a RelabelRule, so each is checked up front
    for bad in (-0.5, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"in \[0, 1\], got {bad}"):
            fit_relabel_rules(cases, 1, candidates=[(1, 3)], cutoff_grid=(0.0, bad))
    # no cutoff is cast: a bool is not 1.0 and a string not a number
    for bad in (True, "0.5"):
        with pytest.raises(ValueError, match=rf"a finite number in \[0, 1\], got {bad!r}"):
            fit_relabel_rules(cases, 1, candidates=[(1, 3)], cutoff_grid=(0.0, bad))


def test_the_fit_promises_no_worse_than_zero_per_key_and_no_more(monkeypatch):
    """Per cluster and key, the grid search's winner has the lowest mean
    rank over the grid, so at most the mean rank of 0.  That is all: the
    winner among 0, A and B can lose to 0 when the two are ranked alone."""
    from gliopost import policy as policy_module

    scores = {0: (0.9, 0.9, 0.9, 0.1, 0.1),  # per case, one column
              1: (0.5, 0.5, 0.5, 0.9, 0.9),  # A
              2: (0.1, 0.1, 0.1, 0.5, 0.5)}  # B
    cases = [FitCase(f"case-{i}", "", "", 0) for i in range(5)]
    tables = {case.case_id: np.array([[scores[value][i]] for value in scores])
              for i, case in enumerate(cases)}
    monkeypatch.setattr(policy_module, "_search_table",
                        lambda item: ({1: tables[item[0].case_id]}, {}, None))
    best, _ = _grid_search(cases, 1, (1,), (0, 1, 2),
                           lambda cluster, label, t: ({label: t}, []), RankObjective(), 1)
    assert best == {0: {1: 1}}

    def rows(value):
        return [CaseMetrics(case.case_id, {"m": scores[value][i]})
                for i, case in enumerate(cases)]

    assert rank_candidates({v: rows(v) for v in (0, 1, 2)}).scores == {0: 1.8, 1: 1.6,
                                                                         2: 2.6}
    assert rank_candidates({v: rows(v) for v in (0, 1)}).scores == {0: 1.4, 1: 1.6}


def test_relabel_rule_validation():
    with pytest.raises(ValueError):
        RelabelRule(cluster=0, src=2, dst=2, cutoff=0.1)
    with pytest.raises(ValueError):
        RelabelRule(cluster=0, src=0, dst=2, cutoff=0.1)
    with pytest.raises(ValueError):
        RelabelRule(cluster=0, src=1, dst=5, cutoff=0.1)
    with pytest.raises(ValueError):
        RelabelRule(cluster=0, src=1, dst=2, cutoff=1.5)


# -- application -------------------------------------------------------------------

def test_apply_component_thresholds_drops_small_components():
    seg = _seg((12, 12, 12))
    seg[1:4, 1:4, 1:4] = 3  # 27 voxels, survives
    seg[8, 8, 8] = 3  # singleton, removed
    seg[1:3, 8, 8] = 2  # different label, threshold 0
    out = apply_component_thresholds(seg, {1: 0, 2: 0, 3: 10, 4: 0})
    assert out[8, 8, 8] == 0
    assert (out[1:4, 1:4, 1:4] == 3).all()
    assert (out[1:3, 8, 8] == 2).all()
    # never adds voxels, never rewrites surviving labels
    assert ((out == 0) | (out == seg)).all()
    assert seg[8, 8, 8] == 3  # input untouched


def test_apply_component_thresholds_connectivity():
    seg = _seg((6, 6, 6))
    seg[1, 1, 1] = 3
    seg[2, 2, 2] = 3  # touches only diagonally
    assert (apply_component_thresholds(seg, {3: 2}, connectivity=26) == seg).all()
    assert (apply_component_thresholds(seg, {3: 2}, connectivity=6) == 0).all()


def test_apply_component_thresholds_examples():
    seg = _seg((20, 8, 8))
    seg[0:1, 0:1, 0:5] = 2  # 5 voxels
    seg[4:14, 0:8, 0:7] = 2  # 560 voxels
    out = apply_component_thresholds(seg, {2: 10})
    assert out[0, 0, 0] == 0
    assert out[5, 5, 5] == 2
    assert int((out == 2).sum()) == 560

    assert np.array_equal(apply_component_thresholds(seg, {2: 0}), seg)
    assert np.array_equal(apply_component_thresholds(seg, {2: 560}), out)
    assert not apply_component_thresholds(seg, {2: 561}).any()


@pytest.mark.parametrize("connectivity", [6, 26])
def test_apply_component_thresholds_matches_oracle_and_is_idempotent(connectivity):
    rng = np.random.default_rng(77)
    for _ in range(5):
        seg = _seg((12, 12, 12))
        seg[random_blob_mask(rng, seg.shape, density=0.3)] = 1
        seg[random_blob_mask(rng, seg.shape, density=0.2) & (seg == 0)] = 3
        thresholds = {1: 4, 2: 0, 3: 6}
        once = apply_component_thresholds(seg, thresholds, connectivity)
        expected = seg.copy()
        for label in (1, 3):
            mask = seg == label
            expected[mask & ~brute_remove_small(mask, thresholds[label],
                                                connectivity)] = 0
        assert np.array_equal(once, expected)
        assert np.array_equal(
            apply_component_thresholds(once, thresholds, connectivity), once)


def _relabelled(seg, rules):
    """``seg`` after ``rules`` alone, through ``apply_policy`` with one
    cluster and no size threshold."""
    policy = replace(_manual_policy(), thresholds={0: {1: 0, 2: 0, 3: 0, 4: 0}},
                     rules=rules)
    out, _ = apply_policy(policy, _bundle("r", seg))
    return out.data


def test_apply_relabel_rules_cutoff_is_strict():
    seg = _seg((10, 10, 1))
    seg[:, 0, 0] = 1  # 10 voxels
    seg[:, 1:10, 0] = 3  # 90 voxels; ratio exactly 0.1
    at_cutoff = _relabelled(seg, [RelabelRule(0, 1, 3, 0.1)])
    assert np.array_equal(at_cutoff, seg)
    above = _relabelled(seg, [RelabelRule(0, 1, 3, 0.105)])
    assert (above[:, 0, 0] == 3).all()
    assert np.array_equal(np.isin(above, (1, 2, 3)), np.isin(seg, (1, 2, 3)))


def test_apply_relabel_rules_skips_without_whole_tumor():
    seg = _seg((4, 4, 4))
    out = _relabelled(seg, [RelabelRule(0, 1, 3, 1.0)])
    assert not out.any()
    seg[0, 0, 0] = 4  # resection cavity only; no whole-tumor voxels
    out = _relabelled(seg, [RelabelRule(0, 4, 1, 1.0)])
    assert np.array_equal(out, seg)


def test_apply_relabel_rules_run_in_sequence():
    seg = _seg((10, 10, 1))
    seg[0:5, 0, 0] = 1
    seg[5:10, 0, 0] = 2
    seg[:, 1:10, 0] = 3
    # first rule turns the 1s into 2s, lifting the label-2 ratio to 0.10,
    # which stops the second rule from firing
    rules = [RelabelRule(0, 1, 2, 0.06), RelabelRule(0, 2, 3, 0.08)]
    out = _relabelled(seg, rules)
    assert (out == 1).sum() == 0
    assert (out == 2).sum() == 10
    assert (out == 3).sum() == 90
    # alone, the second rule would have fired
    alone = _relabelled(seg, rules[1:])
    assert (alone == 2).sum() == 0


# -- manual policy application --------------------------------------------------------

def _manual_policy(settings=None):
    settings = settings or ExtractionSettings()
    n = len(feature_names(settings))
    components = np.zeros((1, n))
    components[0, 0] = 1.0
    return PostProcessPolicy(
        task="gli-pre",
        settings=settings,
        standardizer=StandardizationStats(mean=np.zeros(n), std=np.ones(n)),
        pca=PcaModel(
            center=np.zeros(n),
            components=components,
            explained_variance_ratio=np.ones(1),
        ),
        kmeans=ClusterModel(
            k=1, centroids=np.zeros((1, 1)), silhouette=0.0, seed=0, inertia=0.0
        ),
        thresholds={0: {1: 0, 2: 0, 3: 2, 4: 0}},
        rules=[RelabelRule(cluster=0, src=1, dst=3, cutoff=0.5)],
        objective=RankObjective(),
    )


def _bundle(case_id, pred, seed=0, settings=None):
    settings = settings or ExtractionSettings()
    rng = np.random.default_rng(seed)
    seqs = {
        s: ScalarVolume(
            data=rng.normal(100, 20, size=pred.shape).astype(np.float32), spacing=SP
        )
        for s in settings.sequences
    }
    return CaseBundle(case_id=case_id, prediction=_lm(pred), sequences=seqs)


def test_apply_policy_runs_both_stages():
    pred = _seg()
    pred[4:8, 4:8, 4:8] = 3
    pred[14, 14, 14] = 3  # stray voxel below the size threshold
    pred[9:11, 4:6, 4:6] = 1  # 8 voxels; ratio 8/72 after filtering
    policy = _manual_policy()
    out, _ = apply_policy(policy, _bundle("c0", pred))
    expected = _seg()
    expected[4:8, 4:8, 4:8] = 3
    expected[9:11, 4:6, 4:6] = 3
    assert np.array_equal(out.data, expected)
    assert out.spacing == SP


def _clustered_policy(thresholds, rules, centroids, connectivity=26):
    """A policy whose k = len(centroids) clusters split cases by their
    first feature, the whole-tumor voxel volume."""
    base = _manual_policy()
    k = len(centroids)
    return PostProcessPolicy(
        task=base.task,
        settings=base.settings,
        standardizer=base.standardizer,
        pca=base.pca,
        kmeans=ClusterModel(k=k, centroids=np.asarray(centroids, float).reshape(k, 1),
                            silhouette=0.0, seed=0, inertia=0.0),
        thresholds=thresholds,
        rules=rules,
        objective=RankObjective(connectivity=connectivity),
    )


def _naive_apply(policy, case):
    """The case's cluster from its features, then every threshold and
    rule of the cluster carried out on the grid, one full pass each."""
    features = extract_case_features(case, policy.settings)
    cluster = assign_cluster(policy.standardizer, policy.pca, policy.kmeans,
                             features.values)
    return cluster, [
        naive_postprocess(case.prediction.data, policy.thresholds[c],
                          [r for r in policy.rules if r.cluster == c],
                          policy.objective.connectivity)
        for c in range(policy.kmeans.k)
    ]


def _counting_extraction(monkeypatch):
    from gliopost import policy as policy_module

    calls = []
    real = policy_module.extract_case_features

    def counting(*args, **kwargs):
        calls.append(args[0].case_id)
        return real(*args, **kwargs)

    monkeypatch.setattr(policy_module, "extract_case_features", counting)
    return calls


def _stray_voxel_case():
    pred = _seg()
    pred[4:8, 4:8, 4:8] = 3  # 64 voxels
    pred[14, 14, 14] = 3  # stray voxel
    pred[9:11, 4:6, 4:6] = 1  # 8 voxels
    return _bundle("c0", pred)


def test_apply_policy_skips_features_when_clusters_agree(monkeypatch):
    calls = _counting_extraction(monkeypatch)
    case = _stray_voxel_case()
    # different thresholds and rules that do the same to this case: both
    # remove the stray voxel only, and neither rule fires
    thresholds = {0: {1: 0, 2: 0, 3: 2, 4: 0}, 1: {1: 0, 2: 7, 3: 60, 4: 0}}
    rules = [RelabelRule(0, 1, 3, 0.05), RelabelRule(1, 2, 3, 0.5)]
    policy = _clustered_policy(thresholds, rules, [[0.0], [1e6]])
    out, cluster = apply_policy(policy, case)
    assert calls == [] and cluster is None
    expected = case.prediction.data.copy()
    expected[14, 14, 14] = 0
    assert np.array_equal(out.data, expected)


@pytest.mark.parametrize("nearest", (0, 1))
def test_apply_policy_extracts_once_when_clusters_differ(monkeypatch, nearest):
    calls = _counting_extraction(monkeypatch)
    case = _stray_voxel_case()
    # only cluster 1 removes the stray voxel and relabels 1 -> 3
    thresholds = {0: {1: 0, 2: 0, 3: 0, 4: 0}, 1: {1: 0, 2: 0, 3: 2, 4: 0}}
    rules = [RelabelRule(1, 1, 3, 0.5)]
    volume = 73.0  # whole-tumor voxels, the first feature
    centroids = [[volume], [volume + 1e6]] if nearest == 0 else [[-1e6], [volume]]
    policy = _clustered_policy(thresholds, rules, centroids)
    out, cluster = apply_policy(policy, case)
    assert calls == ["c0"] and cluster == nearest
    _, naive = _naive_apply(policy, case)
    assert np.array_equal(out.data, naive[nearest])
    assert not np.array_equal(naive[0], naive[1])


def test_apply_policy_needs_the_sequences_even_when_clusters_agree():
    case = _stray_voxel_case()
    case.sequences.popitem()
    with pytest.raises(ValueError, match="c0: missing sequences"):
        apply_policy(_manual_policy(), case)


@st.composite
def _policy_and_case(draw):
    """A small labelled grid, and a policy of 2-4 clusters whose
    thresholds include the grid's component sizes (half the time the
    same for every cluster) and whose cutoffs include its volume
    ratios."""
    palette = draw(st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1,
                            max_size=4, unique=True))
    seg = draw(hnp.arrays(np.uint8, (6, 6, 6),
                          elements=st.sampled_from((0, 0, 0, *palette))))
    connectivity = draw(st.sampled_from((6, 26)))
    k = draw(st.integers(2, 4))
    sizes = {0, 1, 2}
    for label in palette:
        cc = connected_components(seg == label, connectivity)
        sizes |= {s + d for s in cc.sizes[1:].tolist() for d in (0, 1)}
    counts = np.bincount(seg.ravel(), minlength=5)
    wt = int(counts[1:4].sum())
    cutoffs = {0.0, 0.05, 0.5, 1.0}
    if wt:
        cutoffs |= {int(c) / wt for c in counts[1:] if int(c) <= wt}
    size_st = st.sampled_from(sorted(sizes))
    thresholds = {c: {label: draw(size_st) for label in (1, 2, 3, 4)}
                  for c in range(k)}
    if draw(st.booleans()):  # the clusters differ in their rules alone
        thresholds = {c: thresholds[0] for c in range(k)}
    pair_st = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
        lambda p: p[0] != p[1])
    rules = [
        RelabelRule(c, src, dst, draw(st.sampled_from(sorted(cutoffs))))
        for c in range(k)
        for src, dst in draw(st.lists(pair_st, max_size=3))
    ]
    centroids = sorted(draw(st.floats(0, 216)) for _ in range(k))
    policy = _clustered_policy(thresholds, rules, [[c] for c in centroids],
                               connectivity)
    return policy, _bundle("h", seg)


def _edge_example(connectivity):
    """Components on each of the six faces of the grid, and a policy whose
    two clusters remove different ones and relabel differently."""
    seg = _seg((6, 6, 6))
    seg[0, 1:5, 1:5] = 2  # the low x face
    seg[5, 2:4, 2:4] = 1  # the high x face
    seg[2:4, 0, 2:4] = 2  # the low y face
    seg[2, 5, 2] = 3  # the high y face
    seg[2:4, 2:4, 0] = 3  # the low z face
    seg[3, 3, 5] = 1  # the high z face
    thresholds = {0: {1: 2, 2: 0, 3: 2, 4: 0}, 1: {1: 5, 2: 17, 3: 0, 4: 0}}
    rules = [RelabelRule(0, 1, 3, 0.5), RelabelRule(1, 3, 2, 0.3)]
    return (_clustered_policy(thresholds, rules, [[0.0], [216.0]], connectivity),
            _bundle("h", seg))


def _empty_example():
    thresholds = {0: {1: 2, 2: 0, 3: 1, 4: 0}, 1: {1: 0, 2: 3, 3: 0, 4: 1}}
    rules = [RelabelRule(0, 1, 3, 0.5), RelabelRule(1, 4, 2, 1.0)]
    return (_clustered_policy(thresholds, rules, [[0.0], [100.0]]),
            _bundle("h", _seg((6, 6, 6))))


@settings(max_examples=150, deadline=None)
@example(_empty_example())
@example(_edge_example(6))
@example(_edge_example(26))
@given(_policy_and_case())
def test_apply_policy_matches_naive_reference(drawn):
    policy, case = drawn
    out, cluster = apply_policy(policy, case)
    assigned, naive = _naive_apply(policy, case)
    assert np.array_equal(out.data, naive[assigned])
    if cluster is None:
        assert all(np.array_equal(n, naive[0]) for n in naive)
    else:
        assert cluster == assigned
    # the public single-stage functions agree with the grid passes too
    seg = case.prediction.data
    filtered = apply_component_thresholds(seg, policy.thresholds[assigned],
                                          policy.objective.connectivity)
    rules = [r for r in policy.rules if r.cluster == assigned]
    assert np.array_equal(naive_postprocess(filtered, {}, rules), naive[assigned])


@st.composite
def _fit_case_and_grids(draw):
    """A small training case (prediction and ground truth drawn from one
    palette) with threshold and cutoff grids that hold its component
    sizes and volume ratios, some relabel pairs, and an objective."""
    palette = draw(st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1,
                            max_size=4, unique=True))
    labels = st.sampled_from((0, 0, 0, *palette))
    seg = draw(hnp.arrays(np.uint8, (6, 6, 6), elements=labels))
    gt = draw(hnp.arrays(np.uint8, (6, 6, 6), elements=labels))
    connectivity = draw(st.sampled_from((6, 26)))
    sizes = {0, 1, 2}
    for label in palette:
        cc = connected_components(seg == label, connectivity)
        sizes |= {s + d for s in cc.sizes[1:].tolist() for d in (0, 1)}
    counts = np.bincount(seg.ravel(), minlength=5)
    wt = int(counts[1:4].sum())
    cutoffs = {0.0, 0.05, 0.5, 1.0}
    if wt:
        cutoffs |= {int(c) / wt for c in counts[1:] if int(c) <= wt}
    pair_st = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
        lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair_st, min_size=1, max_size=3, unique=True))
    task = draw(st.sampled_from(("gli-pre", "gli-post")))
    return (_lm(seg), _lm(gt), tuple(sorted(sizes)), pairs, tuple(sorted(cutoffs)),
            replace(RankObjective.for_task(task), connectivity=connectivity))


def _fit_example(seg, gt, pairs, cutoffs, task="gli-pre"):
    return (_lm(seg), _lm(gt), (0, 1, 2, 5), pairs, cutoffs,
            RankObjective.for_task(task))


def _ratio_at_cutoff_example():
    """vol(1) / vol(WT) = 8 / 32 = 0.25 exactly, a grid cutoff."""
    seg = _seg((6, 6, 6))
    seg[0:2, 0:2, 0:2] = 1
    seg[2:4, 0:2, 0:6] = 2
    gt = seg.copy()
    gt[gt == 1] = 3
    return _fit_example(seg, gt, [(1, 3)], (0.0, 0.25, 0.5))


def _no_whole_tumor_example():
    seg = _seg((6, 6, 6))
    seg[1:3, 1:3, 1:3] = 4
    seg[5, 5, 5] = 4
    return _fit_example(seg, seg.copy(), [(4, 2), (4, 1)], (0.0, 0.5, 1.0),
                        task="gli-post")


def _empty_src_example():
    seg = _seg((6, 6, 6))
    seg[1:4, 1:4, 1:4] = 2
    seg[0, 5, 5] = 3
    gt = seg.copy()
    gt[2, 2, 2] = 1
    return _fit_example(seg, gt, [(1, 3), (3, 2)], (0.0, 0.5, 1.0))


@settings(max_examples=60, deadline=None)
@example(_ratio_at_cutoff_example())
@example(_no_whole_tumor_example())
@example(_empty_src_example())
@given(_fit_case_and_grids())
def test_fit_tables_score_the_reference_output(drawn):
    """Every candidate of both grid searches scores what the reference
    post-processing writes for that threshold or relabel rule; the
    voxels it turns to background are counted by ground-truth label, and
    the case's confusion is the voxel tally of the loaded grids."""
    pred, gt, grid, pairs, cutoffs, objective = drawn
    scorer = CaseScorer(pred, gt, objective)
    crop = scorer.pred

    def affected(*labels):
        return [r for r in objective.regions if any(x in r.labels for x in labels)]

    searched = [label for label in (1, 2, 3, 4) if affected(label)]
    edits = {label: {t: ({label: t}, []) for t in grid} for label in searched}
    edits |= {pair: {c: ({}, [RelabelRule(0, *pair, c)]) for c in cutoffs}
              for pair in pairs}
    thresholds = {label: grid[len(grid) // 2] for label in searched}
    with tempfile.TemporaryDirectory() as tmp:
        case = _written_case(Path(tmp), "h", pred.data, gt.data)
        table, moved, confusion = _search_table((case, edits, objective))
        filtered, _, _ = replace(case, thresholds=thresholds).load(objective)
    assert np.array_equal(filtered.data, naive_postprocess(
        crop, thresholds, [], objective.connectivity))
    assert np.array_equal(confusion, tally_confusion([(pred.data, gt.data)]))
    assert list(table) == list(moved) == list(edits)

    def check(key, row, want, regions):
        """Row ``row`` of ``table[key]`` holds the scores of ``want`` in
        the order of the columns of ``regions``."""
        value = list(edits[key])[row]
        assert table[key].dtype == np.float64
        assert table[key].shape == (len(edits[key]), len(objective.columns(regions)))
        assert table[key][row].tolist() == list(
            scorer.score([(want, regions)])[0].values()), (key, value)
        removed = (crop != 0) & (want == 0)
        assert np.array_equal(moved[key][value],
                              np.bincount(scorer.gt[removed], minlength=5)), (key, value)

    for label in searched:
        for row, t in enumerate(grid):
            want = naive_postprocess(crop, {label: t}, [], objective.connectivity)
            check(label, row, want, affected(label))
    for src, dst in pairs:
        for row, c in enumerate(cutoffs):
            want = naive_postprocess(crop, {}, [RelabelRule(0, src, dst, c)])
            check((src, dst), row, want, affected(src, dst))


@pytest.mark.parametrize("connectivity", (6, 26))
def test_scoring_holds_one_region_scorer_at_a_time(tmp_path, monkeypatch, connectivity):
    """``evaluate_case`` and a grid-search table build each region's
    ``RegionScorer`` once, and only after the previous region's is gone."""
    alive, builds = weakref.WeakSet(), []
    init = RegionScorer.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)
        builds.append(len(alive))

    monkeypatch.setattr(RegionScorer, "__init__", tracked_init)
    gt = _seg()
    gt[3:9, 3:9, 3:9] = 2
    gt[5:7, 5:7, 5:7] = 3
    gt[4, 4, 4] = 1
    gt[11:14, 11:14, 11:14] = 4
    pred = gt.copy()
    pred[5:7, 5:7, 5] = 1
    pred[1, 14, 1] = 1
    pred[14, 1, 14] = 3
    regions = REGIONS_POST_TREATMENT
    objective = RankObjective(regions=regions, connectivity=connectivity)
    evaluate_case(_lm(pred), _lm(gt), objective)
    assert builds == [1] * len(regions)
    builds.clear()
    edits = {label: {t: ({label: t}, []) for t in (0, 2, 10)} for label in (1, 2, 3, 4)}
    edits[(1, 3)] = {c: ({}, [RelabelRule(0, 1, 3, c)]) for c in (0.0, 0.5)}
    _search_table((_written_case(tmp_path, "a", pred, gt), edits, objective))
    assert builds == [1] * len(regions)


def test_policy_validates_threshold_coverage():
    policy = _manual_policy()
    with pytest.raises(ValueError, match="missing cluster"):
        PostProcessPolicy(
            task=policy.task,
            settings=policy.settings,
            standardizer=policy.standardizer,
            pca=policy.pca,
            kmeans=ClusterModel(
                k=2, centroids=np.zeros((2, 1)), silhouette=0.0, seed=0, inertia=0.0
            ),
            thresholds={0: {1: 0, 2: 0, 3: 0, 4: 0}},
            rules=[],
            objective=policy.objective,
        )
    with pytest.raises(ValueError, match="missing label"):
        PostProcessPolicy(
            task=policy.task,
            settings=policy.settings,
            standardizer=policy.standardizer,
            pca=policy.pca,
            kmeans=policy.kmeans,
            thresholds={0: {1: 0, 2: 0}},
            rules=[],
            objective=policy.objective,
        )


# -- end-to-end fitting ------------------------------------------------------------

def _training_bundle(case_id, cube_slice, islands, seed):
    gt = _seg()
    gt[cube_slice] = 3
    gt[10:14, 10:14, 2:6] = 2
    pred = gt.copy()
    for at in islands:
        pred[at] = 3
    bundle = _bundle(case_id, pred, seed=seed)
    return CaseBundle(
        case_id=case_id,
        prediction=bundle.prediction,
        sequences=bundle.sequences,
        ground_truth=_lm(gt),
    )


def _features(cases) -> FeatureMatrix:
    return FeatureMatrix.from_vectors([extract_case_features(c) for c in cases])


def _write_training(root: Path, cases) -> tuple[list[str], str, str]:
    """``fit_policy_report``'s first three arguments for ``cases``, whose
    masks are written under ``root``."""
    for case in cases:
        _written_case(root, case.case_id, case.prediction.data, case.ground_truth.data)
    return [c.case_id for c in cases], str(root / "preds"), str(root / "gt")


def _island_bundles():
    cubes = [
        (slice(2, 6), slice(2, 6), slice(2, 6)),
        (slice(2, 7), slice(2, 6), slice(2, 6)),
        (slice(3, 7), slice(3, 7), slice(3, 7)),
        (slice(2, 6), slice(2, 7), slice(2, 6)),
        (slice(4, 8), slice(4, 8), slice(4, 8)),
        (slice(2, 6), slice(2, 6), slice(3, 8)),
    ]
    corners = [(14, 14, 14), (1, 14, 14), (14, 1, 14), (14, 14, 1)]
    return [
        _training_bundle(f"case{i}", cube, corners[: 2 + i % 2], seed=100 + i)
        for i, cube in enumerate(cubes)
    ]


def test_fit_policy_end_to_end_removes_islands(tmp_path):
    cases = _island_bundles()
    policy, report = fit_policy_report(*_write_training(tmp_path, cases),
                                       _features(cases), k_range=(2,),
                                       restarts=3, seed=5)

    assert policy.kmeans.k == 2
    assert report.case_ids == [c.case_id for c in cases]
    assert len(report.assignments) == len(cases)
    assert report.confusion.shape == (5, 5)
    # islands are the only disagreement and the filtering stage clears
    # them, so no relabel candidates survive to the second stage
    assert report.confusion[0, 3] == 0
    assert policy.rules == []
    for cluster in range(2):
        assert policy.thresholds[cluster][3] == 10
        assert policy.thresholds[cluster][1] == 0
        assert policy.thresholds[cluster][2] == 0

    for case in cases:
        out, _ = apply_policy(policy, case)
        assert np.array_equal(out.data, case.ground_truth.data)


def test_fit_loads_cases_only_in_its_workers(tmp_path, monkeypatch):
    """At two threads the fitting process never loads a case.  In process
    the threshold search loads every case once, and the relabel search
    loads it once more only when there is a candidate pair: the island
    corpus has none; with its cores predicted as label 1 it has one."""
    from gliopost import policy as policy_module

    def swapped(case):
        pred = case.prediction.data.copy()
        pred[case.ground_truth.data == 3] = 1
        return replace(case, prediction=_lm(pred))

    calls = []
    real = policy_module.load_case_bundle

    def counting(*a, **k):
        calls.append(a[0])
        return real(*a, **k)

    monkeypatch.setattr(policy_module, "load_case_bundle", counting)
    islands = _island_bundles()
    for name, cases, loads in (("islands", islands, 1),
                               ("swapped", [swapped(c) for c in islands], 2)):
        (tmp_path / name).mkdir()
        args = _write_training(tmp_path / name, cases)
        features = _features(cases)
        calls.clear()
        pooled, _ = fit_policy_report(*args, features, k_range=(2,), restarts=3,
                                      seed=5, threads=2)
        assert calls == []
        serial, report = fit_policy_report(*args, features, k_range=(2,), restarts=3,
                                           seed=5)
        assert bool(report.candidates) == (loads == 2), name
        assert sorted(calls) == sorted(loads * args[0]), name
        assert (pooled.thresholds, pooled.rules) == (serial.thresholds, serial.rules)


@pytest.mark.parametrize("threads", (1, 2))
def test_fit_names_every_case_without_ground_truth(tmp_path, threads):
    cases = _island_bundles()
    case_ids, preds, gt = _write_training(tmp_path, cases)
    for case_id in ("case1", "case4"):
        (Path(gt) / seg_filename(case_id)).unlink()
    with pytest.raises(FileNotFoundError,
                       match=r"^case1: missing ground truth .*"
                             r"\(2 cases failed: case1, case4\)$"):
        fit_policy_report(case_ids, preds, gt, _features(cases), k_range=(2,),
                          restarts=3, seed=5, threads=threads)


def test_fit_confusion_on_boxes_equals_full_grid_count(tmp_path):
    """The fit counts confusions inside each case's box, adds the voxels
    beyond it to cell (0, 0) and moves the voxels its thresholds remove
    to the background column: that equals the count over the full
    filtered grids, for tumors on the grid's edge and an empty
    prediction."""
    cubes = [
        (slice(0, 4), slice(2, 6), slice(2, 6)),  # on the low x face
        (slice(12, 16), slice(12, 16), slice(2, 6)),  # the high x and y faces
        (slice(2, 6), slice(0, 16), slice(12, 16)),  # across y, the high z face
        (slice(5, 8), slice(5, 8), slice(5, 8)),
    ]
    islands = [(0, 15, 0), (15, 0, 15)]  # corner voxels
    cases = [
        _training_bundle(f"edge{i}", cube, islands[: i % 3], seed=200 + i)
        for i, cube in enumerate(cubes)
    ]
    cases.append(replace(cases[-1], case_id="empty", prediction=_lm(_seg())))
    policy, report = fit_policy_report(*_write_training(tmp_path, cases),
                                       _features(cases), k_range=(2,),
                                       restarts=3, seed=5)
    filtered = [
        apply_component_thresholds(case.prediction.data, policy.thresholds[cluster],
                                   policy.objective.connectivity)
        for case, cluster in zip(cases, report.assignments)
    ]
    expected = tally_confusion(zip(filtered, (c.ground_truth.data for c in cases)))
    assert np.array_equal(report.confusion, expected)


def test_fit_policy_validation(tmp_path):
    cases = _island_bundles()
    case_ids, preds, gt = _write_training(tmp_path, cases)
    features = _features(cases)
    with pytest.raises(ValueError, match="at least 3"):
        fit_policy_report(case_ids[:2], preds, gt, features)
    with pytest.raises(ValueError, match=r"feature matrix missing cases \['other'\]"):
        fit_policy_report(case_ids + ["other"], preds, gt, features)
    with pytest.raises(ValueError, match="does not match extraction settings"):
        fit_policy_report(case_ids, preds, gt, features,
                          settings=ExtractionSettings(sequences=("t1n",)))


# -- persistence ----------------------------------------------------------------------

def test_policy_round_trip(tmp_path):
    policy = _manual_policy()
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    first = path.read_bytes()

    doc = json.loads(first)
    assert set(doc) == {
        "version",
        "task",
        "feature_manifest",
        "standardizer",
        "pca",
        "kmeans",
        "pcc_thresholds",
        "relabel_rules",
        "metric_config",
    }
    assert doc["version"] == POLICY_VERSION

    loaded = load_policy(path)
    save_policy(loaded, path)
    assert path.read_bytes() == first

    assert loaded.thresholds == policy.thresholds
    assert loaded.rules == policy.rules
    assert loaded.objective == policy.objective

    pred = _seg()
    pred[4:8, 4:8, 4:8] = 3
    pred[14, 14, 14] = 3
    bundle = _bundle("c0", pred)
    direct, _ = apply_policy(policy, bundle)
    via_disk, _ = apply_policy(loaded, bundle)
    assert np.array_equal(direct.data, via_disk.data)


def test_load_policy_rejects_other_versions(tmp_path):
    policy = _manual_policy()
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    doc = json.loads(path.read_text())
    doc["version"] = "999"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_policy(path)


def test_load_policy_rejects_tampered_manifest(tmp_path):
    policy = _manual_policy()
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    doc = json.loads(path.read_text())
    doc["feature_manifest"]["feature_names"][0] = "not/a/feature"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="manifest"):
        load_policy(path)


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("standardizer.mean", lambda d: d["standardizer"]["mean"].pop()),
        ("standardizer.std", lambda d: d["standardizer"]["std"].append(1.0)),
        ("pca.center", lambda d: d["pca"]["center"].pop()),
        ("pca.components", lambda d: [row.pop() for row in d["pca"]["components"]]),
        ("kmeans.centroids",
         lambda d: d["kmeans"].update(centroids=[[0.0, 0.0]])),
        ("kmeans.centroids",
         lambda d: d["kmeans"]["centroids"].append([0.0])),
        ("pcc_thresholds",
         lambda d: d["pcc_thresholds"].update({"1": d["pcc_thresholds"]["0"]})),
        ("relabel_rules", lambda d: d["relabel_rules"][0].update(cluster=1)),
        ("relabel_rules", lambda d: d["relabel_rules"][0].update(cluster=-1)),
        ("connectivity", lambda d: d["metric_config"].update(connectivity=7)),
        ("connectivity", lambda d: d["metric_config"].update(connectivity=6.5)),
        ("connectivity", lambda d: d["metric_config"].update(connectivity="26")),
        ("dilation_iters", lambda d: d["metric_config"].update(dilation_iters=-1)),
        ("dilation_iters", lambda d: d["metric_config"].update(dilation_iters=2.0)),
        ("dilation_iters", lambda d: d["metric_config"].update(dilation_iters=True)),
        ("tolerances", lambda d: d["metric_config"].update(tolerances=[-1])),
        ("tolerances", lambda d: d["metric_config"].update(tolerances=[0.5, float("nan")])),
        ("tolerances", lambda d: d["metric_config"].update(tolerances=[1, 1.0])),
        # no number is truncated or cast, and no key is ignored
        ("cluster", lambda d: d["relabel_rules"][0].update(cluster=0.7)),
        ("src", lambda d: d["relabel_rules"][0].update(src=3.9)),
        ("dst", lambda d: d["relabel_rules"][0].update(dst="1")),
        ("cutoff", lambda d: d["relabel_rules"][0].update(cutoff="0.05")),
        ("bin_count", lambda d: d["feature_manifest"]["settings"].update(bin_count=32.9)),
        ("bin_width", lambda d: d["feature_manifest"]["settings"].update(bin_width=True)),
        ("sequences", lambda d: d["feature_manifest"]["settings"].update(
            sequences=["t1n", "t1n"])),
        ("ExtractionSettings", lambda d: d["feature_manifest"]["settings"].update(x=1)),
        ("RelabelRule", lambda d: d["relabel_rules"][0].update(x=1)),
        ("RelabelRule", lambda d: d["relabel_rules"][0].pop("cutoff")),
        ("RankObjective", lambda d: d["metric_config"].update(x=1)),
        ("RankObjective", lambda d: d["metric_config"].pop("connectivity")),
        ("regions", lambda d: d["metric_config"].update(regions=["ET", "XX"])),
        ("tolerances must be a list", lambda d: d["metric_config"].update(tolerances=5)),
        ("tolerances must be a list",
         lambda d: d["metric_config"].update(tolerances="nan")),
        ("k must be an integer", lambda d: d["kmeans"].update(k=2.7)),
        ("seed must be an integer", lambda d: d["kmeans"].update(seed=1.9)),
        ("silhouette", lambda d: d["kmeans"].update(silhouette="0.5")),
        ("inertia", lambda d: d["kmeans"].update(inertia=-1.0)),
        ("mean must be an array", lambda d: d["standardizer"].update(mean=["1.5"])),
        ("center must be an array", lambda d: d["pca"].update(center=[True])),
        ("centroids must be an array",
         lambda d: d["kmeans"].update(centroids=[[float("nan")]])),
        ("PcaModel", lambda d: d["pca"].pop("explained_variance_ratio")),
        ("pcc_thresholds value", lambda d: d["pcc_thresholds"]["0"].update({"3": 2.7})),
        ("pcc_thresholds value", lambda d: d["pcc_thresholds"]["0"].update({"3": "2"})),
    ],
    ids=["mean-width", "std-width", "center-width", "components-width",
         "centroid-width", "centroid-count", "threshold-cluster",
         "rule-cluster-high", "rule-cluster-negative",
         "connectivity-7", "connectivity-6.5", "connectivity-string",
         "dilation-negative", "dilation-float", "dilation-bool",
         "tolerance-negative", "tolerance-nan", "tolerances-repeated",
         "rule-cluster-fraction", "rule-src-fraction", "rule-dst-string",
         "rule-cutoff-string", "bin-count-fraction", "bin-width-bool",
         "sequences-repeated", "settings-unknown-key", "rule-unknown-key",
         "rule-missing-key", "metric-config-unknown-key",
         "metric-config-missing-key", "region-unknown", "tolerances-number",
         "tolerances-string", "k-fraction", "seed-fraction", "silhouette-string",
         "inertia-negative", "mean-string", "center-bool", "centroid-nan",
         "pca-missing-key", "threshold-fraction", "threshold-string"],
)
def test_load_policy_rejects_inconsistent_fields(tmp_path, field, mutate):
    path = tmp_path / "policy.json"
    save_policy(_manual_policy(), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field.replace(".", r"\.")):
        load_policy(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mutate(draw, doc):
    """``doc`` with one node replaced or deleted, on a path that descends
    from the root through randomly chosen children."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    if parent is None:
        return draw(_JSON_VALUES)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES)
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_policy_raises_only_value_error(tmp_path, data):
    """A policy document of any shape loads or raises ValueError, never
    KeyError, TypeError or the like."""
    path = tmp_path / "policy.json"
    save_policy(_manual_policy(), path)
    doc = _mutate(data.draw, json.loads(path.read_text()))
    path.write_text(json.dumps(doc))
    try:
        load_policy(path)
    except ValueError:
        pass


def test_save_policy_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "policy.json"
    save_policy(_manual_policy(), path)
    before = path.read_bytes()

    def failing_dump(doc, fh, **kwargs):
        fh.write('{"version": ')
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(RuntimeError, match="serializer failed"):
        save_policy(_manual_policy(), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.json"]


# -- objective configuration -----------------------------------------------------------

def test_rank_objective_task_regions():
    pre = RankObjective.for_task("gli-pre")
    post = RankObjective.for_task("gli-post")
    assert pre.regions == REGIONS_PRE_TREATMENT
    assert post.regions == REGIONS_POST_TREATMENT
    assert "RC" in [r.name for r in post.regions]
    assert "RC" not in [r.name for r in pre.regions]
    back = RankObjective.from_dict(post.to_dict())
    assert back == post
