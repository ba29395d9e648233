"""Connected components, dilation, boundaries, and distance transforms,
checked against the brute-force oracles and against scipy.ndimage."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from gliopost.morphology import (
    OFFSETS_6,
    OFFSETS_13,
    OFFSETS_26,
    boundary_voxels,
    connected_components,
    dilate,
    distinct_ids,
    euclidean_distance_transform,
    line_order,
    nonzero_box,
    padded_box,
    union_roots,
)
from gliopost.volume import Spacing

from oracles import (
    brute_boundary,
    brute_dilate,
    brute_edt,
    mask_of,
    random_blob_mask,
    scan_index,
    union_find_components,
)


def test_offset_tables():
    assert len(OFFSETS_26) == 26
    assert len(OFFSETS_13) == 13
    assert len(OFFSETS_6) == 6
    assert (0, 0, 0) not in OFFSETS_26
    # the 13-offset half plus its negation covers all 26
    full = set(OFFSETS_13) | {(-a, -b, -c) for a, b, c in OFFSETS_13}
    assert full == set(OFFSETS_26)


@settings(max_examples=200, deadline=None)
@example(np.ones((3, 4, 5), dtype=np.uint8), 1)  # touches every face
@example(np.zeros((3, 4, 5), dtype=np.uint8), 2)
@example(np.zeros((2, 0, 3), dtype=np.uint8), 0)
@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=st.sampled_from((0, 0, 0, 1, 4))),
       st.integers(0, 3))
def test_nonzero_box_is_the_box_of_nonzero(grid, pad):
    coords = np.nonzero(grid)
    want = padded_box(coords, pad, grid.shape) if coords[0].size else None
    assert nonzero_box(grid, pad) == want
    assert nonzero_box(grid.astype(bool), pad) == want


# int32: component ids (the owner grid, a labeling's labels); intp: the
# k-means assignments silhouette takes
@settings(max_examples=200, deadline=None)
@example(np.zeros(0, dtype=np.int32))
@example(np.zeros(0, dtype=np.intp))
@given(st.sampled_from((np.int32, np.intp)).flatmap(
    lambda dtype: hnp.arrays(dtype, st.integers(0, 40),
                             elements=st.integers(0, 5) | st.integers(0, 2 ** 16))))
def test_distinct_ids_equal_np_unique(ids):
    """The sorted distinct values of non-negative ids, as ``np.unique``
    gives them, empty for no ids."""
    want = np.unique(ids)
    got = distinct_ids(ids)
    assert got.dtype == np.intp
    assert got.tolist() == want.tolist()


def test_components_empty_mask():
    cc = connected_components(np.zeros((3, 3, 3), dtype=bool))
    assert cc.count == 0
    assert cc.sizes.tolist() == [0]
    assert not cc.labels.any()


def test_components_opposite_corners():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[0, 0, 0] = True
    mask[2, 2, 2] = True
    cc26 = connected_components(mask, connectivity=26)
    assert cc26.count == 2
    assert cc26.sizes.tolist() == [0, 1, 1]
    # corner at origin is first in scan order
    assert cc26.labels[0, 0, 0] == 1
    assert cc26.labels[2, 2, 2] == 2


def test_components_diagonal_touch_depends_on_connectivity():
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = True
    mask[1, 1, 1] = True
    assert connected_components(mask, connectivity=26).count == 1
    assert connected_components(mask, connectivity=6).count == 2


@pytest.mark.parametrize("connectivity", [6, 26])
def test_component_corners_bound_each_component(connectivity):
    """``corners[c - 1]`` is the min and the max + 1 of component c's
    voxels, in the coordinates of the whole grid."""
    rng = np.random.default_rng(103)
    for _ in range(8):
        shape = tuple(rng.integers(4, 12, size=3))
        blobs = random_blob_mask(rng, shape, density=float(rng.uniform(0.1, 0.5)))
        mask = np.pad(blobs, ((2, 1), (3, 0), (0, 2)))
        cc = connected_components(mask, connectivity=connectivity)
        assert cc.corners.shape == (cc.count, 2, 3)
        for c in range(1, cc.count + 1):
            voxels = np.argwhere(cc.labels == c)
            assert cc.corners[c - 1].tolist() == [voxels.min(axis=0).tolist(),
                                                  (voxels.max(axis=0) + 1).tolist()]
    empty = connected_components(np.zeros((4, 5, 6), dtype=bool), connectivity)
    assert empty.corners.shape == (0, 2, 3)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_components_match_union_find(connectivity):
    rng = np.random.default_rng(101)
    for trial in range(12):
        shape = tuple(rng.integers(5, 17, size=3))
        mask = random_blob_mask(rng, shape, density=float(rng.uniform(0.15, 0.6)))
        cc = connected_components(mask, connectivity=connectivity)
        ref = union_find_components(mask, connectivity=connectivity)

        assert cc.count == len(ref)
        assert cc.sizes.shape == (cc.count + 1,) and cc.sizes[0] == 0
        assert int(cc.sizes.sum()) == int(mask.sum())
        for comp_id, comp in enumerate(ref, start=1):
            assert cc.sizes[comp_id] == len(comp)
            for voxel in comp:
                assert cc.labels[voxel] == comp_id
        assert not cc.labels[~mask].any()


def test_union_find_on_paths_in_shuffled_order():
    """A path whose node ids are shuffled leaves many roots after each
    hooking round (spatial chains, numbered in C order, take one or two
    rounds), so this drives the union-find through several rounds; two
    paths must come out as two components, each rooted at its smallest id."""
    rng = np.random.default_rng(149)
    for n in (2, 100, 3000):
        ids = rng.permutation(2 * n)
        first, second = ids[:n], ids[n:]
        a = np.concatenate([first[:-1], second[1:]])
        b = np.concatenate([first[1:], second[:-1]])
        roots = union_roots(2 * n, a, b)
        assert (roots[first] == first.min()).all()
        assert (roots[second] == second.min()).all()
    assert union_roots(3, np.zeros(0, np.intp), np.zeros(0, np.intp)).tolist() == [0, 1, 2]


def test_component_ids_follow_scan_order():
    rng = np.random.default_rng(55)
    for _ in range(6):
        mask = random_blob_mask(rng, (9, 8, 7), density=0.3)
        cc = connected_components(mask)
        firsts = {}
        for comp_id in range(1, cc.count + 1):
            voxels = np.argwhere(cc.labels == comp_id)
            firsts[comp_id] = min(scan_index(tuple(v), mask.shape) for v in voxels)
        ordered = sorted(firsts, key=firsts.get)
        assert ordered == list(range(1, cc.count + 1))


def test_dilate_single_voxel():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[2, 2, 2] = True
    out = dilate(mask, 1, connectivity=26)
    assert int(out.sum()) == 27
    assert out[1:4, 1:4, 1:4].all()

    out6 = dilate(mask, 1, connectivity=6)
    assert int(out6.sum()) == 7


def test_dilate_zero_iterations_is_identity():
    rng = np.random.default_rng(8)
    mask = rng.random((6, 6, 6)) > 0.7
    out = dilate(mask, 0)
    assert np.array_equal(out, mask)
    assert out is not mask


def test_dilate_negative_iterations_rejected():
    with pytest.raises(ValueError):
        dilate(np.zeros((2, 2, 2), bool), -1)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_dilate_matches_distance_ball(connectivity):
    rng = np.random.default_rng(31)
    for _ in range(4):
        mask = rng.random((9, 9, 9)) > 0.93
        for iters in (1, 2, 3):
            got = dilate(mask, iters, connectivity=connectivity)
            want = brute_dilate(mask, iters, connectivity=connectivity)
            assert np.array_equal(got, want)


def test_dilate_composition_and_monotonicity():
    rng = np.random.default_rng(13)
    mask = rng.random((10, 10, 10)) > 0.95
    assert np.array_equal(dilate(dilate(mask, 1), 1), dilate(mask, 2))
    assert (dilate(mask, 1) | dilate(mask, 2) == dilate(mask, 2)).all()
    assert (mask & ~dilate(mask, 1)).sum() == 0


def test_boundary_solid_cube():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True
    surf = boundary_voxels(mask)
    assert int(surf.sum()) == 26  # 3x3x3 cube minus its single interior voxel
    assert not surf[2, 2, 2]


def test_boundary_edge_of_grid_counts_as_background():
    mask = np.ones((4, 4, 4), dtype=bool)
    surf = boundary_voxels(mask)
    assert int(surf.sum()) == 64 - 8  # only the 2x2x2 core is interior


def test_boundary_degenerate():
    single = np.zeros((3, 3, 3), dtype=bool)
    single[1, 1, 1] = True
    assert np.array_equal(boundary_voxels(single), single)
    assert not boundary_voxels(np.zeros((3, 3, 3), bool)).any()


def test_boundary_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(6):
        mask = random_blob_mask(rng, (10, 9, 8), density=0.4)
        got = boundary_voxels(mask)
        assert np.array_equal(got, brute_boundary(mask))
        assert not (got & ~mask).any()  # boundary is a subset of the mask


def test_edt_axis_distances():
    mask = np.zeros((7, 7, 7), dtype=bool)
    mask[0, 0, 0] = True
    d = euclidean_distance_transform(mask, Spacing(1.0, 1.0, 1.0))
    assert d[0, 0, 0] == 0.0
    assert d[3, 0, 0] == pytest.approx(3.0, abs=1e-12)
    assert d[0, 3, 0] == pytest.approx(3.0, abs=1e-12)
    assert d[1, 1, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    d_an = euclidean_distance_transform(mask, Spacing(1.0, 1.25, 2.5))
    assert d_an[0, 2, 0] == pytest.approx(2.5, abs=1e-12)
    assert d_an[0, 0, 1] == pytest.approx(2.5, abs=1e-12)


def test_edt_empty_mask_is_infinite():
    d = euclidean_distance_transform(np.zeros((3, 3, 3), bool), Spacing(1, 1, 1))
    assert np.isinf(d).all()


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.25, 2.5)])
def test_edt_matches_brute_force(spacing):
    rng = np.random.default_rng(23)
    for _ in range(4):
        mask = rng.random((12, 12, 12)) > 0.97
        got = euclidean_distance_transform(mask, Spacing(*spacing))
        want = brute_edt(mask, spacing)
        if not mask.any():
            assert np.isinf(got).all()
            continue
        assert np.abs(got - want).max() <= 1e-9
        assert (got[mask] == 0.0).all()


def test_edt_respects_triangle_inequality():
    rng = np.random.default_rng(29)
    mask = rng.random((10, 10, 10)) > 0.95
    if not mask.any():
        mask[0, 0, 0] = True
    d = euclidean_distance_transform(mask, Spacing(1.0, 1.0, 1.0))
    # neighbor voxels differ by at most the step length
    assert np.abs(np.diff(d, axis=0)).max() <= 1.0 + 1e-9


# -- scipy.ndimage as the oracle ---------------------------------------------------
# The kernels above run on numpy alone; each must give what scipy.ndimage
# gives, ids, boxes and distances included.

_STRUCTURES = {6: ndimage.generate_binary_structure(3, 1), 26: np.ones((3, 3, 3), bool)}


@st.composite
def _masks(draw, max_side=9):
    """A mask of any density in [0.05, 0.6], often one voxel thick along
    some axis."""
    shape = [draw(st.integers(1, max_side)) for _ in range(3)]
    thin = draw(st.sampled_from((None, 0, 1, 2)))
    if thin is not None:
        shape[thin] = 1
    density = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < density


@settings(max_examples=300, deadline=None)
@given(_masks(), st.sampled_from((6, 26)))
def test_components_equal_ndimage_label(mask, connectivity):
    """The same ids as ``ndimage.label`` on the transposed mask, whose C
    order is the mask's x-fastest order, and the boxes of
    ``find_objects``."""
    want, count = ndimage.label(mask.T, _STRUCTURES[connectivity])
    want = want.T
    cc = connected_components(mask, connectivity)
    assert cc.count == count
    assert np.array_equal(cc.labels, want)
    assert cc.sizes.tolist() == [0, *np.bincount(want.ravel(), minlength=count + 1)[1:]]
    boxes = [[[s.start for s in obj], [s.stop for s in obj]]
             for obj in ndimage.find_objects(want)]
    assert cc.corners.tolist() == boxes


@settings(max_examples=200, deadline=None)
@given(_masks(), st.sampled_from((6, 26)), st.integers(0, 3))
def test_dilate_equals_binary_dilation(mask, connectivity, iterations):
    want = (ndimage.binary_dilation(mask, _STRUCTURES[connectivity], iterations)
            if iterations else mask)
    assert np.array_equal(dilate(mask, iterations, connectivity), want)


def test_dilate_stops_once_the_mask_stops_growing():
    mask = np.zeros((9, 9, 9), dtype=bool)
    mask[4, 4, 4] = True
    start = time.perf_counter()
    assert dilate(mask, 10**9, connectivity=6).all()
    assert time.perf_counter() - start < 1.0


_SPACINGS = st.tuples(*[st.sampled_from((0.5, 0.9375, 1.0, 1.25, 1.5, 2.5, 0.7))] * 3)


@settings(max_examples=300, deadline=None)
@given(_masks(max_side=11), _SPACINGS, st.data())
def test_edt_equals_ndimage_within_reach(mask, spacing, data):
    """``distance_transform_edt``'s value wherever it is within
    ``reach``, +inf elsewhere.  ``reach`` is often the exact length of
    an offset, formed as the transform forms it."""
    offset = data.draw(st.tuples(*[st.integers(0, 3)] * 3))
    exact = math.sqrt(sum((k * s) * (k * s) for k, s in zip(offset, spacing)))
    reach = data.draw(st.sampled_from((exact, math.inf, 0.5, 1.0, 3.0)))
    got = euclidean_distance_transform(mask, Spacing(*spacing), reach)
    if not mask.any():
        assert np.isinf(got).all()
        return
    want = ndimage.distance_transform_edt(~mask, sampling=spacing)
    within = want <= reach
    assert np.array_equal(got[within], want[within])
    assert np.isinf(got[~within]).all()


def test_edt_large_reach_is_bounded_by_the_box():
    """A reach far beyond the box costs one shift per voxel along each
    axis, not one per offset of a ball."""
    mask = np.zeros((40, 40, 40), dtype=bool)
    mask[3, 30, 17] = True
    start = time.perf_counter()
    got = euclidean_distance_transform(mask, Spacing(1.0, 1.0, 1.0), 1e6)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(got, ndimage.distance_transform_edt(~mask))


# -- line order ------------------------------------------------------------------

def _on_line(delta, offset) -> int:
    """t when delta == t * offset, else 0."""
    t = next(d * o for d, o in zip(delta, offset) if o)
    return t if tuple(delta) == tuple(t * o for o in offset) else 0


@pytest.mark.parametrize("offset", OFFSETS_26)
def test_line_order_walks_each_line_forward(offset):
    rng = np.random.default_rng(151)
    pts = np.argwhere(rng.random((6, 5, 4)) > 0.5)
    order, first = line_order(pts, offset)
    assert sorted(order.tolist()) == list(range(len(pts)))
    walked = pts[order]
    lines = set()
    for i, p in enumerate(walked):
        # a point's line: where it meets the plane through the origin
        axis = next(k for k, o in enumerate(offset) if o)
        t = p[axis] * offset[axis]
        lines.add(tuple(p - t * np.array(offset)))
        if i and not first[i]:
            assert _on_line(p - walked[i - 1], offset) > 0
        if i and first[i]:
            assert _on_line(p - walked[i - 1], offset) == 0
    # each line is one block of the order
    assert int(first.sum()) == len(lines)
