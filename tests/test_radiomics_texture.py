"""Texture families: hand-enumerated matrices, degenerate conventions,
and exact agreement with the pair/run/zone enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gliopost.morphology import OFFSETS_13
from gliopost.radiomics.texture import (
    COARSENESS_MAX,
    GLCM_FEATURE_NAMES,
    PairTable,
    discretize,
    glcm_counts,
    glcm_features,
    gldm_counts,
    gldm_features,
    glrlm_counts,
    glrlm_features,
    glszm_counts,
    glszm_features,
    ngtdm_features,
    ngtdm_table,
    neighbour_pairs,
)

from oracles import (
    brute_glcm,
    brute_gldm,
    brute_glrlm,
    brute_glszm,
    brute_ngtdm,
)


def _pad_to(a, shape):
    out = np.zeros(shape, dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def _table(data, mask, bin_count, offsets=OFFSETS_13):
    """The pair table of the masked voxels, as the caller builds it."""
    return PairTable(discretize(data[mask], bin_count), neighbour_pairs(mask, offsets))


def _level_table(levels, offsets=OFFSETS_13):
    """The pair table of a level grid whose masked voxels are its levels > 0."""
    return PairTable(levels[levels > 0], neighbour_pairs(levels > 0, offsets))


def _random_levels(rng, shape, ng, fill=0.8):
    levels = rng.integers(1, ng + 1, size=shape).astype(np.int32)
    levels[rng.random(shape) > fill] = 0
    return levels


# -- discretization -----------------------------------------------------------

def test_discretize_constant_region():
    levels = discretize(np.full(27, 7.0), 32)
    assert levels.dtype == np.int64
    assert (levels == 1).all()


def test_discretize_ramp_occupies_every_level():
    levels = discretize(np.arange(32, dtype=float), 32)
    assert sorted(levels.tolist()) == list(range(1, 33))


def test_discretize_respects_mask_and_bounds():
    rng = np.random.default_rng(73)
    data = rng.normal(size=(6, 6, 6)) * 100
    mask = rng.random((6, 6, 6)) > 0.5
    vals = data[mask]
    lv = discretize(vals, 8)
    # one level per masked voxel, in the same order
    assert lv.shape == vals.shape
    assert lv.min() >= 1
    assert lv.max() <= 8
    # monotone: higher intensity never gets a lower level
    order = np.argsort(vals)
    assert (np.diff(lv[order]) >= 0).all()


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize(np.zeros(8), 0)


# -- GLCM ---------------------------------------------------------------------

def test_glcm_constant_region():
    data = np.zeros((3, 3, 3))
    mask = np.ones((3, 3, 3), bool)
    out = glcm_features(_table(data, mask, 32))
    assert out["joint_energy"] == 1.0
    assert out["contrast"] == 0.0
    assert out["maximum_probability"] == 1.0
    assert out["correlation"] == 1.0
    assert out["mcc"] == 1.0
    assert out["imc1"] == 0.0


def test_glcm_checkerboard_single_offset():
    data = np.array([[10.0, 30.0], [30.0, 10.0]]).reshape(2, 2, 1)
    mask = np.ones((2, 2, 1), bool)
    out = glcm_features(_table(data, mask, 2, ((1, 0, 0),)))
    assert out["contrast"] == pytest.approx(1.0)
    assert out["joint_energy"] == pytest.approx(0.5)
    assert out["maximum_probability"] == pytest.approx(0.5)
    assert out["difference_average"] == pytest.approx(1.0)
    assert out["sum_average"] == pytest.approx(3.0)
    assert out["correlation"] == pytest.approx(-1.0)
    assert out["autocorrelation"] == pytest.approx(2.0)
    assert out["idm"] == pytest.approx(0.5)
    assert out["id"] == pytest.approx(0.5)
    assert out["imc1"] == pytest.approx(-1.0)
    assert out["imc2"] == pytest.approx(np.sqrt(1.0 - np.exp(-2.0)))
    assert out["mcc"] == pytest.approx(1.0)
    assert out["cluster_tendency"] == pytest.approx(0.0)
    assert out["joint_entropy"] == pytest.approx(1.0)
    assert out["sum_entropy"] == pytest.approx(0.0)
    assert out["difference_entropy"] == pytest.approx(0.0)


def test_glcm_pairless_offsets_are_skipped():
    # two voxels adjacent along x only: every other offset yields no pair
    data = np.zeros((2, 1, 1))
    data[1, 0, 0] = 100.0
    mask = np.ones((2, 1, 1), bool)
    all_angles = glcm_features(_table(data, mask, 2))
    x_only = glcm_features(_table(data, mask, 2, ((1, 0, 0),)))
    assert all_angles == x_only


def test_glcm_no_pairs_at_all():
    data = np.zeros((5, 5, 5))
    data[4, 4, 4] = 50.0
    mask = np.zeros((5, 5, 5), bool)
    mask[0, 0, 0] = True
    mask[4, 4, 4] = True
    out = glcm_features(_table(data, mask, 2))
    for name in GLCM_FEATURE_NAMES:
        if name in ("correlation", "mcc"):
            assert out[name] == 1.0
        else:
            assert out[name] == 0.0, name


def test_glcm_counts_match_pair_enumeration():
    rng = np.random.default_rng(79)
    for _ in range(3):
        levels = _random_levels(rng, (7, 6, 5), ng=4)
        for off, got in zip(OFFSETS_13, glcm_counts(_level_table(levels)), strict=True):
            want = brute_glcm(levels, off, 4)
            assert np.array_equal(got, want), off
            assert (got >= 0).all()
            assert np.array_equal(got, got.T)


def test_glcm_normalization_and_feature_spot_checks():
    rng = np.random.default_rng(83)
    levels = _random_levels(rng, (8, 8, 8), ng=5)
    levels[0, 0, 0] = 1
    levels[0, 0, 1] = 5  # pin the level range to the oracle's 1..5
    for off in ((1, 0, 0), (0, 1, 1), (1, -1, 1)):
        counts = brute_glcm(levels, off, 5)
        if counts.sum() == 0:
            continue
        p = counts / counts.sum()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        i = np.arange(1, 6, dtype=float)
        ii, jj = np.meshgrid(i, i, indexing="ij")
        got = glcm_features(_level_table(levels, (off,)))
        assert got["contrast"] == pytest.approx(float((p * (ii - jj) ** 2).sum()), abs=1e-9)
        assert got["maximum_probability"] == pytest.approx(float(p.max()), abs=1e-9)
        nz = p > 0
        assert got["joint_entropy"] == pytest.approx(
            float(-(p[nz] * np.log2(p[nz])).sum()), abs=1e-9
        )
        assert got["autocorrelation"] == pytest.approx(float((p * ii * jj).sum()), abs=1e-9)


def test_discretize_of_integer_levels_is_identity():
    rng = np.random.default_rng(89)
    levels = _random_levels(rng, (6, 6, 6), ng=5)
    if not (levels == 5).any():  # ensure the full range is present
        levels[0, 0, 0] = 5
    if not (levels == 1).any():
        levels[1, 0, 0] = 1
    back = discretize(levels[levels > 0].astype(float), 5)
    assert np.array_equal(back, levels[levels > 0])


# -- GLRLM --------------------------------------------------------------------

def test_glrlm_hand_case():
    data = np.array([1.0, 1.0, 2.0]).reshape(1, 1, 3)
    mask = np.ones((1, 1, 3), bool)
    out = glrlm_features(_table(data, mask, 2, ((0, 0, 1),)))
    assert out["short_run_emphasis"] == pytest.approx(0.625)
    assert out["long_run_emphasis"] == pytest.approx(2.5)
    assert out["gray_level_nonuniformity"] == pytest.approx(1.0)
    assert out["run_length_nonuniformity"] == pytest.approx(1.0)
    assert out["run_percentage"] == pytest.approx(2.0 / 3.0)
    assert out["gray_level_variance"] == pytest.approx(0.25)
    assert out["run_variance"] == pytest.approx(0.25)
    assert out["run_entropy"] == pytest.approx(1.0)
    assert out["low_gray_level_run_emphasis"] == pytest.approx(0.625)
    assert out["high_gray_level_run_emphasis"] == pytest.approx(2.5)
    assert out["short_run_low_gray_level_emphasis"] == pytest.approx(0.25)
    assert out["short_run_high_gray_level_emphasis"] == pytest.approx(2.125)
    assert out["long_run_low_gray_level_emphasis"] == pytest.approx(2.125)
    assert out["long_run_high_gray_level_emphasis"] == pytest.approx(4.0)


def test_glrlm_counts_match_run_walk():
    rng = np.random.default_rng(97)
    for _ in range(3):
        levels = _random_levels(rng, (6, 6, 6), ng=4, fill=0.7)
        for off, got in zip(OFFSETS_13, glrlm_counts(_level_table(levels)), strict=True):
            want = brute_glrlm(levels, off, 4)
            width = max(got.shape[1], want.shape[1])
            assert np.array_equal(
                _pad_to(got, (4, width)), _pad_to(want, (4, width))
            ), off


def test_glrlm_total_run_voxels():
    rng = np.random.default_rng(101)
    levels = _random_levels(rng, (5, 5, 5), ng=3)
    for counts in glrlm_counts(_level_table(levels, ((1, 0, 0), (0, 0, 1), (1, 1, 1)))):
        lengths = np.arange(1, counts.shape[1] + 1)
        # every masked voxel belongs to exactly one run
        assert int((counts * lengths).sum()) == int((levels > 0).sum())


def test_glrlm_constant_line_single_run():
    data = np.zeros((1, 1, 4))
    mask = np.ones((1, 1, 4), bool)
    (counts,) = glrlm_counts(_table(data, mask, 8, ((0, 0, 1),)))
    assert counts.shape == (1, 4)
    assert counts[0, 3] == 1
    assert counts.sum() == 1


# -- GLSZM --------------------------------------------------------------------

def test_glszm_constant_region_single_zone():
    data = np.zeros((2, 2, 2))
    mask = np.ones((2, 2, 2), bool)
    out = glszm_features(_table(data, mask, 4))
    assert out["zone_entropy"] == 0.0
    assert out["zone_percentage"] == pytest.approx(1.0 / 8.0)
    assert out["small_area_emphasis"] == pytest.approx(1.0 / 64.0)
    assert out["large_area_emphasis"] == pytest.approx(64.0)
    assert out["gray_level_nonuniformity"] == pytest.approx(1.0)


def test_glszm_counts_match_component_enumeration():
    rng = np.random.default_rng(103)
    for _ in range(3):
        levels = _random_levels(rng, (6, 6, 6), ng=4, fill=0.6)
        got = glszm_counts(_level_table(levels))
        want = brute_glszm(levels, 4)
        width = max(got.shape[1], want.shape[1])
        assert np.array_equal(_pad_to(got, (4, width)), _pad_to(want, (4, width)))
        sizes = np.arange(1, got.shape[1] + 1)
        assert int((got * sizes).sum()) == int((levels > 0).sum())


def test_glszm_two_zones_same_level():
    levels = np.zeros((7, 1, 1), dtype=np.int32)
    levels[0:2] = 1  # zone of size 2
    levels[4:7] = 1  # zone of size 3
    counts = glszm_counts(_level_table(levels))
    assert counts[0, 1] == 1
    assert counts[0, 2] == 1
    assert counts.sum() == 2


# -- GLDM ---------------------------------------------------------------------

def test_gldm_single_voxel():
    data = np.zeros((3, 3, 3))
    mask = np.zeros((3, 3, 3), bool)
    mask[1, 1, 1] = True
    out = gldm_features(_table(data, mask, 4))
    assert out["small_dependence_emphasis"] == 1.0
    assert out["large_dependence_emphasis"] == 1.0
    assert out["dependence_entropy"] == 0.0
    assert out["gray_level_nonuniformity"] == 1.0


def test_gldm_pair_dependence():
    data = np.zeros((2, 1, 1))
    mask = np.ones((2, 1, 1), bool)
    counts = gldm_counts(_table(data, mask, 8))
    # each voxel depends on its one equal neighbor: size 2, twice
    assert counts.shape == (1, 2)
    assert counts[0, 1] == 2


def test_gldm_counts_match_neighbor_enumeration():
    rng = np.random.default_rng(107)
    for _ in range(3):
        levels = _random_levels(rng, (6, 6, 6), ng=4, fill=0.7)
        got = gldm_counts(_level_table(levels))
        want = brute_gldm(levels, 4)
        width = max(got.shape[1], want.shape[1])
        assert np.array_equal(_pad_to(got, (4, width)), _pad_to(want, (4, width)))
        assert int(got.sum()) == int((levels > 0).sum())


# -- NGTDM --------------------------------------------------------------------

def test_ngtdm_hand_case():
    data = np.array([1.0, 1.0, 2.0]).reshape(1, 1, 3)
    mask = np.ones((1, 1, 3), bool)
    out = ngtdm_features(_table(data, mask, 2))
    assert out["coarseness"] == pytest.approx(1.5)
    assert out["contrast"] == pytest.approx(1.0 / 9.0)
    assert out["busyness"] == 0.0  # |1*(2/3) - 2*(1/3)| = 0 in the denominator
    assert out["complexity"] == pytest.approx(4.0 / 9.0)
    assert out["strength"] == pytest.approx(4.0 / 3.0)


def test_ngtdm_constant_region_hits_coarseness_cap():
    data = np.zeros((3, 3, 3))
    mask = np.ones((3, 3, 3), bool)
    out = ngtdm_features(_table(data, mask, 8))
    assert out["coarseness"] == COARSENESS_MAX
    assert out["contrast"] == 0.0
    assert out["busyness"] == 0.0
    assert out["complexity"] == 0.0
    assert out["strength"] == 0.0


def test_ngtdm_table_matches_enumeration():
    rng = np.random.default_rng(109)
    for _ in range(3):
        levels = _random_levels(rng, (6, 6, 6), ng=4, fill=0.7)
        n_got, s_got = ngtdm_table(_level_table(levels))
        n_want, s_want = brute_ngtdm(levels, 4)
        assert np.array_equal(n_got, n_want.astype(n_got.dtype))
        assert np.abs(s_got - s_want).max() <= 1e-12


def test_texture_translation_invariance():
    rng = np.random.default_rng(113)
    blob_mask = rng.random((5, 5, 5)) > 0.3
    blob_data = rng.normal(size=(5, 5, 5)) * 50
    results = []
    for offset in ((1, 1, 1), (6, 4, 2)):
        data = np.zeros((12, 12, 12))
        mask = np.zeros((12, 12, 12), bool)
        sl = tuple(slice(o, o + 5) for o in offset)
        data[sl] = blob_data
        mask[sl] = blob_mask
        table = _table(data, mask, 8)
        row = {}
        for fam, features in (
            ("glcm", glcm_features),
            ("glrlm", glrlm_features),
            ("glszm", glszm_features),
            ("gldm", gldm_features),
            ("ngtdm", ngtdm_features),
        ):
            row.update({f"{fam}/{k}": v for k, v in features(table).items()})
        results.append(row)
    assert results[0].keys() == results[1].keys()
    for key in results[0]:
        assert results[0][key] == pytest.approx(results[1][key], abs=1e-9), key


# -- pair engine against the oracles --------------------------------------------

@st.composite
def level_grids(draw):
    """Level grids of at most 6^3 with 1-4 levels: dense random, single
    voxels on the even sublattice (no voxel has a masked neighbour), or
    one clump and one far voxel in opposite corners of an empty box."""
    ng = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(("dense", "scattered", "far_island")))
    low = 4 if layout == "far_island" else 1
    shape = draw(st.tuples(*[st.integers(low, 6)] * 3))
    # every element drawn on its own: a fill value would make most grids constant
    elements = st.integers(0, ng)
    levels = draw(hnp.arrays(np.int32, shape, elements=elements, fill=st.nothing()))
    if layout == "scattered":
        levels[1::2] = 0
        levels[:, 1::2] = 0
        levels[:, :, 1::2] = 0
    elif layout == "far_island":
        clump = levels[:2, :2, :2].copy()
        levels[...] = 0
        levels[:2, :2, :2] = clump
        levels[-1, -1, -1] = draw(st.integers(1, ng))
    if not levels.any():
        levels[0, 0, 0] = ng
    return levels


def _padded_equal(got, want):
    width = max(got.shape[1], want.shape[1])
    rows = want.shape[0]
    return np.array_equal(_pad_to(got, (rows, width)), _pad_to(want, (rows, width)))


@settings(max_examples=150, deadline=None)
@given(level_grids())
def test_pair_engine_matches_oracles(levels):
    table = _level_table(levels)
    ng = table.ng
    assert ng == int(levels.max())
    for off, got in zip(OFFSETS_13, glcm_counts(table), strict=True):
        assert np.array_equal(got, brute_glcm(levels, off, ng)), off
    for off, got in zip(OFFSETS_13, glrlm_counts(table), strict=True):
        assert _padded_equal(got, brute_glrlm(levels, off, ng)), off
    assert _padded_equal(glszm_counts(table), brute_glszm(levels, ng))
    assert _padded_equal(gldm_counts(table), brute_gldm(levels, ng))
    n_got, s_got = ngtdm_table(table)
    n_want, s_want = brute_ngtdm(levels, ng)
    assert np.array_equal(n_got, n_want)
    assert np.array_equal(s_got, s_want)


# -- runs by line scan and zones by union-find, against the walk and enumeration ------

def _spiral(m: int) -> np.ndarray:
    """A square spiral path one voxel wide, with a one-voxel gap between
    its arms, from the center of an m x m plane out to its edge."""
    grid = np.zeros((m, m), bool)
    x = y = m // 2
    grid[x, y] = True
    turn, length = 0, 2
    while True:
        for _ in range(2):
            dx, dy = ((0, 1), (1, 0), (0, -1), (-1, 0))[turn % 4]
            for _ in range(length):
                x, y = x + dx, y + dy
                if not (0 <= x < m and 0 <= y < m):
                    return grid
                grid[x, y] = True
            turn += 1
        length += 2


def _helix(turns: int) -> np.ndarray:
    """A one-voxel path winding around a 5 x 5 square, one z step per voxel."""
    ring = [(0, i) for i in range(4)] + [(i, 4) for i in range(4)] \
        + [(4, 4 - i) for i in range(4)] + [(4 - i, 0) for i in range(4)]
    grid = np.zeros((5, 5, 16 * turns), bool)
    for z in range(16 * turns):
        grid[ring[z % 16] + (z,)] = True
    return grid


def _gapped_levels(rng, shape, ng, every):
    """Random levels whose lines along x, y and z are cut every few voxels."""
    levels = _random_levels(rng, shape, ng, fill=0.9)
    levels[::every] = 0
    levels[:, 1::every] = 0
    levels[:, :, 2::every] = 0
    return levels


def _assert_runs_and_zones_match(levels, offsets=OFFSETS_13):
    table = _level_table(levels, offsets)
    ng = table.ng
    for off, got in zip(offsets, glrlm_counts(table), strict=True):
        assert _padded_equal(got, brute_glrlm(levels, off, ng)), off
    if offsets == OFFSETS_13:
        assert _padded_equal(glszm_counts(table), brute_glszm(levels, ng))


@pytest.mark.parametrize("every", [2, 3, 4])
def test_runs_and_zones_with_gaps_along_lines(every):
    rng = np.random.default_rng(137 + every)
    _assert_runs_and_zones_match(_gapped_levels(rng, (9, 8, 7), 3, every))


@pytest.mark.parametrize("offsets", [
    ((0, 1, 0),),
    ((-1, 0, 0), (0, 0, -1)),
    ((1, -1, -1), (0, 1, -1), (-1, -1, 0)),
    ((1, 1, 1), (1, 0, 0), (1, 1, 1)),
])
def test_runs_with_custom_offsets(offsets):
    rng = np.random.default_rng(139)
    _assert_runs_and_zones_match(_random_levels(rng, (7, 6, 5), 3, fill=0.7), offsets)


def test_long_line_is_one_zone_and_one_run():
    """200 voxels in one chain: union-find joins them in one hooking round
    and eight pointer-jumping steps."""
    levels = np.ones((1, 1, 200), dtype=np.int32)
    table = _level_table(levels)
    zones = glszm_counts(table)
    assert zones.shape == (1, 200) and zones[0, 199] == 1 and zones.sum() == 1
    runs = glrlm_counts(table)[OFFSETS_13.index((0, 0, 1))]
    assert runs.shape == (1, 200) and runs[0, 199] == 1 and runs.sum() == 1
    _assert_runs_and_zones_match(levels)


@pytest.mark.parametrize("path", ["spiral", "helix"])
def test_winding_paths_are_one_zone(path):
    mask = _spiral(31)[:, :, None] if path == "spiral" else _helix(6)
    levels = mask.astype(np.int32)
    zones = glszm_counts(_level_table(levels))
    assert zones.sum() == 1 and zones[0, -1] == 1
    assert zones.shape[1] == int(mask.sum())
    # two levels along the path cut it into zones the oracle counts
    levels[::2] *= 2
    _assert_runs_and_zones_match(levels)

