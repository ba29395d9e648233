"""Lesion-wise Dice and surface agreement, checked against hand-built
cases and the pairwise brute-force oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gliopost.metrics import (
    DEFAULT_TOLERANCES_MM,
    ET,
    NETC,
    RC,
    REGIONS_POST_TREATMENT,
    REGIONS_PRE_TREATMENT,
    SNFH,
    TC,
    WT,
    CaseMetrics,
    CaseScorer,
    RankObjective,
    RegionScorer,
    evaluate_case,
    read_metrics_csv,
    region_mask,
    write_metrics_csv,
)
from gliopost.morphology import connected_components
from gliopost.volume import LabelMap, Spacing

from oracles import brute_lesionwise, random_blob_mask

SP = Spacing(1.0, 1.0, 1.0)


def _labels(shape):
    return np.zeros(shape, dtype=np.uint8)


# -- regions -----------------------------------------------------------------

def test_region_definitions():
    assert ET.labels == {3}
    assert NETC.labels == {1}
    assert SNFH.labels == {2}
    assert RC.labels == {4}
    assert TC.labels == {1, 3}
    assert WT.labels == {1, 2, 3}
    assert REGIONS_PRE_TREATMENT == (ET, TC, WT, NETC, SNFH)
    assert REGIONS_POST_TREATMENT == (ET, TC, WT, NETC, SNFH, RC)


def test_region_mask_counts():
    seg = _labels((4, 4, 4))
    seg[0, 0, 0] = 1
    seg[1, 0, 0] = 2
    seg[2, 0, 0] = 3
    seg[3, 0, 0] = 4
    lm = LabelMap(data=seg, spacing=SP)
    assert int(region_mask(lm, ET).sum()) == 1
    assert int(region_mask(lm, TC).sum()) == 2
    assert int(region_mask(lm, WT).sum()) == 3
    assert int(region_mask(lm, RC).sum()) == 1
    assert not region_mask(lm, WT)[3, 0, 0]  # resection cavity stays out of WT
    assert not region_mask(LabelMap(data=_labels((2, 2, 2)), spacing=SP), WT).any()


# -- matching ----------------------------------------------------------------

def _scorer(gt, tolerances=DEFAULT_TOLERANCES_MM, spacing=SP):
    return RegionScorer(gt, spacing, RankObjective(tolerances=tolerances))


def _match(gt, pred, spacing=SP, tolerances=DEFAULT_TOLERANCES_MM):
    """The ground-truth scorer of ``gt`` and its match of ``pred``."""
    scorer = _scorer(gt, tolerances, spacing)
    return scorer, scorer.match_state(pred)


def _counts(scorer, state):
    """(lesions, false-positive components)."""
    return scorer.n_lesions, state.n_fp


def _components_of(state, lid):
    """Prediction components assigned to lesion ``lid`` (0: false positives)."""
    return tuple(c for c in range(1, len(state.lesion_of)) if state.lesion_of[c] == lid)


def test_match_both_empty():
    empty = np.zeros((4, 4, 4), dtype=bool)
    scorer, state = _match(empty, empty)
    assert _counts(scorer, state) == (0, 0)
    assert scorer.score(empty)["LW_Dice"] == 1.0
    assert _scorer(empty, (1.0,)).score(empty)["LW_NSD@1"] == 1.0


def test_match_identical_blob():
    mask = np.zeros((8, 8, 8), dtype=bool)
    mask[2:5, 2:5, 2:5] = True
    scorer, state = _match(mask, mask, tolerances=(0.5, 1.0))
    assert _counts(scorer, state) == (1, 0)
    assert state.dice == [1.0]
    assert state.nsd == [{0.5: 1.0, 1.0: 1.0}]
    assert scorer.score(mask) == {"LW_Dice": 1.0, "LW_NSD@0.5": 1.0, "LW_NSD@1": 1.0}


def test_false_positive_halves_perfect_score():
    gt = np.zeros((20, 8, 8), dtype=bool)
    gt[1:4, 1:4, 1:4] = True
    pred = gt.copy()
    pred[15:17, 5:7, 5:7] = True  # island far beyond the dilation reach
    scorer, state = _match(gt, pred, tolerances=(1.0,))
    assert _counts(scorer, state) == (1, 1)
    assert _components_of(state, 1) == (1,)
    assert _components_of(state, 0) == (2,)
    assert scorer.score(pred)["LW_Dice"] == pytest.approx(0.5)
    assert scorer.score(pred)["LW_NSD@1"] == pytest.approx(0.5)


def test_empty_prediction_scores_zero():
    gt = np.zeros((6, 6, 6), dtype=bool)
    gt[1:4, 1:4, 1:4] = True
    scorer, state = _match(gt, np.zeros_like(gt), tolerances=(1.0,))
    assert _counts(scorer, state) == (1, 0)
    assert scorer.score(np.zeros_like(gt)) == {"LW_Dice": 0.0, "LW_NSD@1": 0.0}


def test_lesion_merge_boundary():
    # two single-voxel gt components; 3-iteration dilations reach 3 voxels,
    # so their footprints overlap at gap 6 and separate at gap 7
    near = np.zeros((12, 3, 3), dtype=bool)
    near[0, 1, 1] = True
    near[6, 1, 1] = True
    assert _counts(*_match(near, near)) == (1, 0)

    far = np.zeros((12, 3, 3), dtype=bool)
    far[0, 1, 1] = True
    far[7, 1, 1] = True
    assert _counts(*_match(far, far)) == (2, 0)

    # the two ends are 12 apart and never overlap directly; the bridge
    # reaches both but comes last in scan order
    bridged = np.zeros((13, 3, 3), dtype=bool)
    bridged[0, 0, 0] = True
    bridged[12, 0, 0] = True
    bridged[6, 0, 1] = True
    scorer, state = _match(bridged, bridged)
    assert _counts(scorer, state) == (1, 0)
    assert scorer.lesion_members == [(1, 2, 3)]


def test_equal_overlap_assigns_lowest_lesion_id():
    gt = np.zeros((16, 3, 3), dtype=bool)
    gt[0, 1, 1] = True
    gt[10, 1, 1] = True  # two separate lesions (dilations span x 0..3 and 7..13)
    pred = np.zeros_like(gt)
    pred[2:9, 1, 1] = True  # overlaps lesion 1 on x in {2,3}, lesion 2 on {7,8}
    scorer, state = _match(gt, pred)
    assert _counts(scorer, state) == (2, 0)
    assert _components_of(state, 1) == (1,)
    assert _components_of(state, 2) == ()
    assert _components_of(state, 0) == ()


def test_shifted_cube_nsd_tolerances():
    gt = np.zeros((9, 8, 8), dtype=bool)
    gt[2:5, 2:5, 2:5] = True
    pred = np.zeros_like(gt)
    pred[3:6, 2:5, 2:5] = True  # one-voxel shift along x
    scores = _scorer(gt, (0.5, 1.0)).score(pred)
    assert scores["LW_Dice"] == pytest.approx(2 * 18 / 54)
    assert scores["LW_NSD@1"] == pytest.approx(1.0)

    got_half = scores["LW_NSD@0.5"]
    _, brute = brute_lesionwise(gt, pred, (1, 1, 1), (0.5, 1.0))
    assert got_half == pytest.approx(brute[0.5], abs=1e-12)
    assert got_half < 1.0


def test_nsd_monotone_in_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(4):
        gt = random_blob_mask(rng, (10, 10, 10), density=0.25)
        pred = random_blob_mask(rng, (10, 10, 10), density=0.25)
        scores = _scorer(gt, (0.5, 1.0, 2.0)).score(pred)
        vals = [scores[f"LW_NSD@{t:g}"] for t in (0.5, 1.0, 2.0)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_adding_false_positive_never_helps():
    rng = np.random.default_rng(9)
    gt = np.zeros((24, 10, 10), dtype=bool)
    gt[2:6, 2:6, 2:6] = True
    pred = np.zeros_like(gt)
    pred[2:6, 2:6, 3:7] = True
    scorer = _scorer(gt, (1.0,))
    base = scorer.score(pred)
    noisy_pred = pred.copy()
    noisy_pred[20:22, 7:9, 7:9] = True
    noisy = scorer.score(noisy_pred)
    assert noisy["LW_Dice"] < base["LW_Dice"]
    assert noisy["LW_NSD@1"] < base["LW_NSD@1"]


def test_single_lesion_dice_equals_classical():
    rng = np.random.default_rng(11)
    for _ in range(5):
        gt = np.zeros((10, 10, 10), dtype=bool)
        gt[2:7, 2:7, 2:7] = rng.random((5, 5, 5)) > 0.25
        pred = np.zeros_like(gt)
        pred[2:7, 2:7, 2:7] = rng.random((5, 5, 5)) > 0.25
        # keep each side a single component (or empty) for the comparison
        gt[4, 4, 4] = True
        gt[2:7, 4, 4] = True
        gt[4, 2:7, 4] = True
        pred[4, 4, 4] = True
        pred[2:7, 4, 4] = True
        pred[4, 4, 2:7] = True
        scores = RegionScorer(gt, SP).score(pred)
        classical = 2 * int((gt & pred).sum()) / (int(gt.sum()) + int(pred.sum()))
        assert scores["LW_Dice"] == pytest.approx(classical, abs=1e-12)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.25, 2.5)])
def test_lesionwise_matches_brute_force(spacing):
    rng = np.random.default_rng(202)
    tolerances = (0.5, 1.0)
    for trial in range(10):
        shape = tuple(rng.integers(6, 15, size=3))
        gt = random_blob_mask(rng, shape, density=float(rng.uniform(0.08, 0.3)))
        if trial % 3 == 0:
            pred = gt ^ (rng.random(shape) > 0.9)
        else:
            pred = random_blob_mask(rng, shape, density=float(rng.uniform(0.08, 0.3)))
        scores = _scorer(gt, tolerances, Spacing(*spacing)).score(pred)
        ref_dice, ref_nsd = brute_lesionwise(gt, pred, spacing, tolerances)
        assert scores["LW_Dice"] == pytest.approx(ref_dice, abs=1e-9)
        for tol in tolerances:
            assert scores[f"LW_NSD@{tol:g}"] == pytest.approx(ref_nsd[tol], abs=1e-9)


def test_nsd_validation():
    # a scorer's tolerances are checked once, when its objective is built
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tolerances must be a finite number > 0"):
            RankObjective(tolerances=(tol,))
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    # NSD is computed, and reported, at exactly the tolerances asked for
    scorer, state = _match(mask, mask, tolerances=(1.0,))
    assert state.nsd == [{1.0: 1.0}]
    assert set(scorer.score(mask)) == {"LW_Dice", "LW_NSD@1"}


def test_region_scorer_reuse_matches_fresh_match():
    rng = np.random.default_rng(15)
    gt = random_blob_mask(rng, (12, 12, 12), density=0.2)
    scorer = _scorer(gt, (0.5, 1.0))
    for _ in range(3):
        pred = random_blob_mask(rng, (12, 12, 12), density=0.2)
        via_scorer = scorer.score(pred)
        assert via_scorer == _scorer(gt, (0.5, 1.0)).score(pred)
        assert set(via_scorer) == {"LW_Dice", "LW_NSD@0.5", "LW_NSD@1"}


@st.composite
def subset_cases(draw):
    """Ground-truth and prediction masks of at most 8^3, scorer settings,
    and a subset of the prediction missing some whole components, some
    axis-aligned planes (which split components, so that a part can
    change lesion) and some single voxels."""
    shape = draw(st.tuples(*[st.integers(2, 8)] * 3))
    density = draw(st.integers(5, 45))
    # every voxel drawn on its own, so sparse grids split into many parts
    voxels = hnp.arrays(np.int8, shape, elements=st.integers(0, 99),
                        fill=st.nothing())
    gt = draw(voxels) < density
    pred = draw(voxels) < density
    connectivity = draw(st.sampled_from((6, 26)))
    dilation = draw(st.integers(0, 3))
    spacing = Spacing(*draw(st.tuples(*[st.sampled_from((0.5, 1.0, 1.7))] * 3)))
    cc = connected_components(pred, connectivity)
    subset = pred.copy()
    for c in draw(st.sets(st.integers(1, max(cc.count, 1)))):
        subset[cc.labels == c] = False
    for axis, index in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 7)),
                                     max_size=2)):
        plane = [slice(None)] * 3
        plane[axis] = index % shape[axis]
        subset[tuple(plane)] = False
    coords = np.argwhere(pred)
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=8)):
        if len(coords):
            subset[tuple(coords[pick % len(coords)])] = False
    return gt, pred, subset, spacing, dilation, connectivity


@settings(max_examples=300, deadline=None)
@given(subset_cases())
def test_score_subset_equals_full_scoring(case):
    gt, pred, subset, spacing, dilation, connectivity = case
    objective = RankObjective(tolerances=(0.5, 1.0, 2.0), dilation_iters=dilation,
                              connectivity=connectivity)
    scorer = RegionScorer(gt, spacing, objective)
    base = scorer.match_state(pred)
    assert scorer.score_subset(base, pred) == scorer.score(pred)
    assert scorer.score_subset(base, subset) == scorer.score(subset)


# -- per-case evaluation ------------------------------------------------------

def _case(seg):
    return LabelMap(data=seg, spacing=SP)


def test_evaluate_case_perfect_prediction():
    seg = _labels((10, 10, 10))
    seg[2:5, 2:5, 2:5] = 3
    seg[5:7, 2:5, 2:5] = 1
    seg[2:7, 5:8, 2:5] = 2
    cm = evaluate_case(_case(seg), _case(seg), case_id="p")
    assert list(cm.values) == RankObjective().columns(REGIONS_PRE_TREATMENT)
    assert all(v == 1.0 for v in cm.values.values())


def test_evaluate_case_relabel_moves_score_between_regions():
    gt = _labels((8, 8, 8))
    gt[2:5, 2:5, 2:5] = 3
    pred = _labels((8, 8, 8))
    pred[2:5, 2:5, 2:5] = 1  # same voxels called NETC instead of ET
    cm = evaluate_case(_case(pred), _case(gt))
    assert cm.values["LW_Dice_ET"] == 0.0
    assert cm.values["LW_Dice_NETC"] == 0.0  # pure false positive there
    assert cm.values["LW_Dice_TC"] == 1.0
    assert cm.values["LW_Dice_WT"] == 1.0
    assert cm.values["LW_NSD@1_WT"] == 1.0
    assert cm.values["LW_Dice_SNFH"] == 1.0  # empty in both


def test_evaluate_case_empty_prediction():
    gt = _labels((8, 8, 8))
    gt[2:5, 2:5, 2:5] = 3
    pred = _labels((8, 8, 8))
    cm = evaluate_case(_case(pred), _case(gt))
    assert cm.values["LW_Dice_ET"] == 0.0
    assert cm.values["LW_Dice_WT"] == 0.0
    assert cm.values["LW_Dice_SNFH"] == 1.0


def test_evaluate_case_grid_mismatch():
    with pytest.raises(ValueError):
        evaluate_case(_case(_labels((4, 4, 4))), _case(_labels((5, 4, 4))))


def test_evaluate_case_rejects_a_spacing_mismatch():
    """NSD tolerances are in mm: a pair on two spacings is not scored."""
    seg = _labels((6, 6, 6))
    seg[2:4, 2:4, 2:4] = 3
    gt = LabelMap(data=seg, spacing=Spacing(1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="grid mismatch"):
        evaluate_case(LabelMap(data=seg, spacing=Spacing(1.0, 1.0, 1.0)), gt)
    with pytest.raises(ValueError, match="grid mismatch"):
        CaseScorer(gt, LabelMap(data=seg, spacing=Spacing(1.0, 1.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.tuples(*[st.integers(3, 7)] * 3),
    st.sampled_from((6, 26)),
)
def test_case_scorer_matches_evaluate_case(data, shape, connectivity):
    labels = hnp.arrays(np.uint8, shape, elements=st.sampled_from((0, 0, 1, 2, 3)),
                        fill=st.nothing())
    gt, pred = data.draw(labels), data.draw(labels)
    regions = REGIONS_POST_TREATMENT
    objective = RankObjective(dilation_iters=1, connectivity=connectivity)
    scorer = CaseScorer(_case(pred), _case(gt), objective)
    # candidates as the grid searches make them: the case itself, a label
    # removed (a subset), a label relabelled (a subset of the source's
    # regions, a superset of the destination's), and both at once, scored
    # in one call, each on its own regions in its own order
    src, dst = data.draw(st.sampled_from([(1, 3), (3, 1), (1, 2), (2, 3)]))
    relabelled = np.where(pred == src, dst, pred)

    def some_regions():
        order = data.draw(st.permutations(regions))
        return tuple(order[:data.draw(st.integers(1, len(order)))])

    candidates = [(candidate, some_regions())
                  for candidate in (pred, np.where(pred == src, 0, pred), relabelled,
                                    np.where(relabelled == dst, 0, relabelled), pred)]
    for (candidate, asked), got in zip(candidates, scorer.score(candidates)):
        want = evaluate_case(_case(candidate), _case(gt),
                             replace(objective, regions=asked)).values
        assert list(got.items()) == list(want.items())


@st.composite
def sparse_cases(draw):
    """Ground truth and prediction label grids of 12^3 to 13^3 whose
    tumor lies in the low or the high corner: blocks of one label each,
    those at the grid's end touching its faces.  The prediction is the
    ground truth with blocks added and blocks cleared, plus, when drawn,
    a false-positive island in the opposite corner.  Without the island
    the case box, padded by at most 4, ends before the opposite faces."""
    shape = draw(st.tuples(*[st.integers(12, 13)] * 3))
    high = draw(st.booleans())

    def block(sizes):
        lo = [draw(st.integers(0, 3)) for _ in shape]
        hi = [a + draw(sizes) for a in lo]
        if high:
            lo, hi = [n - b for n, b in zip(shape, hi)], [n - a for n, a in zip(shape, lo)]
        return tuple(slice(a, b) for a, b in zip(lo, hi))

    gt = np.zeros(shape, dtype=np.uint8)
    for _ in range(draw(st.integers(1, 4))):
        gt[block(st.integers(1, 3))] = draw(st.sampled_from((1, 2, 3)))
    pred = gt.copy()
    for _ in range(draw(st.integers(0, 4))):
        pred[block(st.integers(1, 4))] = draw(st.sampled_from((0, 1, 2, 3)))
    island = draw(st.booleans())
    if island:
        corner = (slice(0, 2), 0, 0) if high else (slice(-2, None), -1, -1)
        pred[corner] = draw(st.sampled_from((1, 2, 3)))
    return gt, pred, island, high


def _split_case():
    """A TC component that removing label 3 splits: one part lies past
    the ground-truth lesion's box, so a part box built at the wrong
    offset would cut it."""
    gt = np.zeros((16, 16, 16), dtype=np.uint8)
    gt[6:8, 6:8, 6:8] = 1
    pred = gt.copy()
    pred[8, 6:8, 6:8] = 3
    pred[9:11, 6:8, 6:8] = 1
    return gt, pred, False, False


@settings(max_examples=40, deadline=None)
@example(_split_case(), 26, 3, (1.0, 1.0, 1.0), (3, 1))
@given(
    sparse_cases(),
    st.sampled_from((6, 26)),
    st.integers(0, 3),
    st.tuples(*[st.sampled_from((0.5, 1.0, 1.7))] * 3),
    st.sampled_from([(1, 3), (3, 1), (2, 3)]),
)
def test_boxed_scores_match_brute_force(case, connectivity, dilation, spacing, pair):
    gt, pred, island, high = case
    tolerances = (0.5, 1.0, 2.0)
    regions = (ET, TC, WT)
    objective = RankObjective(regions, tolerances, dilation, connectivity)
    sp = Spacing(*spacing)
    scorer = CaseScorer(LabelMap(data=pred, spacing=sp), LabelMap(data=gt, spacing=sp),
                        objective)
    reaches = [b.start == 0 if high else b.stop == n for b, n in zip(scorer.box, gt.shape)]
    assert all(reaches) == island
    src, dst = pair
    # the case itself, and a relabelled and a removed label as the grid
    # searches make them, on the box
    for candidate in (pred, np.where(pred == src, dst, pred), np.where(pred == src, 0, pred)):
        values = evaluate_case(LabelMap(data=candidate, spacing=sp),
                               LabelMap(data=gt, spacing=sp), objective).values
        assert scorer.score([(candidate[scorer.box], regions)]) == [values]
        for region in regions:
            dice, nsd = brute_lesionwise(region_mask(gt, region),
                                         region_mask(candidate, region),
                                         spacing, tolerances, dilation, connectivity)
            assert values[f"LW_Dice_{region.name}"] == pytest.approx(dice, abs=1e-9)
            for tol in tolerances:
                assert values[f"LW_NSD@{tol:g}_{region.name}"] == \
                    pytest.approx(nsd[tol], abs=1e-9)


def test_case_scorer_rejects_candidate_outside_box():
    seg = _labels((16, 16, 16))
    seg[2:4, 2:4, 2:4] = 1
    objective = RankObjective(regions=(WT,), dilation_iters=1)
    scorer = CaseScorer(_case(seg), _case(seg), objective)
    # the joint foreground padded by dilation_iters + 1
    assert scorer.box == (slice(0, 6),) * 3
    inside = seg.copy()
    inside[5, 5, 5] = 2  # a voxel the prediction lacks, inside the box
    assert scorer.score([(inside[scorer.box], (WT,))]) == [evaluate_case(
        _case(inside), _case(seg), objective).values]
    with pytest.raises(ValueError, match="is not the case's box"):
        scorer.score([(inside[scorer.box], (WT,)), (seg[:8], (WT,))])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_case_bounded_and_perfect_on_itself(data):
    shape = data.draw(st.tuples(*[st.integers(1, 8)] * 3))
    # every voxel drawn on its own, so grids hold many small components
    labels = hnp.arrays(np.uint8, shape, elements=st.sampled_from((0, 0, 0, 1, 2, 3, 4)),
                        fill=st.nothing())
    gt, pred = data.draw(labels), data.draw(labels)
    spacing = Spacing(*data.draw(st.tuples(*[st.sampled_from((0.5, 1.0, 1.7))] * 3)))
    tolerances = (0.5, 1.0, 2.0)
    objective = RankObjective(REGIONS_POST_TREATMENT, tolerances,
                              data.draw(st.integers(0, 3)), data.draw(st.sampled_from((6, 26))))
    columns = objective.columns(REGIONS_POST_TREATMENT)

    def evaluate(p, g):
        values = evaluate_case(LabelMap(data=p, spacing=spacing),
                               LabelMap(data=g, spacing=spacing), objective).values
        assert list(values) == columns
        return values

    assert all(0.0 <= v <= 1.0 for v in evaluate(pred, gt).values())
    for seg in (gt, pred):
        assert all(v == 1.0 for v in evaluate(seg, seg).values())


def test_metrics_csv_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    cols = RankObjective().columns(REGIONS_PRE_TREATMENT)
    rows = [
        CaseMetrics(case_id=f"case-{i}", values={c: float(rng.random()) for c in cols})
        for i in range(4)
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    back = read_metrics_csv(path)
    assert [r.case_id for r in back] == [r.case_id for r in rows]
    for a, b in zip(back, rows):
        assert a.values == b.values  # repr round trip is exact

    with pytest.raises(ValueError):
        write_metrics_csv(tmp_path / "empty.csv", [])


def test_metrics_columns_layout():
    cols = RankObjective(tolerances=(0.5, 1.0)).columns((ET, WT))
    assert cols == [
        "LW_Dice_ET",
        "LW_NSD@0.5_ET",
        "LW_NSD@1_ET",
        "LW_Dice_WT",
        "LW_NSD@0.5_WT",
        "LW_NSD@1_WT",
    ]
