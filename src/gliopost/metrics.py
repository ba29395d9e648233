"""Region construction and lesion-wise Dice / NSD.

Lesion-wise convention: ground-truth components whose dilations overlap
are merged into one lesion; every prediction component is assigned to
the lesion whose dilated mask it overlaps (largest overlap wins, lowest
lesion id on ties) or counted as a false positive.  Per-lesion scores
are averaged over ground-truth lesions plus false-positive components,
with false positives scoring 0.  A region empty in both masks scores 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .morphology import (
    boundary_voxels,
    connected_components,
    dilate,
    distinct_ids,
    euclidean_distance_transform,
    nonzero_box,
    padded_box,
    union_roots,
)
from .nifti import read_case_table, write_case_table
from .volume import JsonConfig, LabelMap, Spacing, check

DEFAULT_DILATION_ITERS = 3
DEFAULT_CONNECTIVITY = 26
DEFAULT_TOLERANCES_MM = (0.5, 1.0)


@dataclass(frozen=True)
class RegionSpec:
    """A named tumor region as a set of raw labels."""

    name: str
    labels: frozenset[int]


ET = RegionSpec("ET", frozenset({3}))
NETC = RegionSpec("NETC", frozenset({1}))
SNFH = RegionSpec("SNFH", frozenset({2}))
RC = RegionSpec("RC", frozenset({4}))
TC = RegionSpec("TC", frozenset({1, 3}))
WT = RegionSpec("WT", frozenset({1, 2, 3}))

REGIONS_BY_NAME = {r.name: r for r in (ET, NETC, SNFH, RC, TC, WT)}

#: region sets per task; the resection cavity only exists post-treatment
REGIONS_PRE_TREATMENT = (ET, TC, WT, NETC, SNFH)
REGIONS_POST_TREATMENT = (ET, TC, WT, NETC, SNFH, RC)


@dataclass(frozen=True)
class RankObjective(JsonConfig):
    """How a case is scored: the regions, the NSD tolerances in mm, the
    dilation that merges ground-truth components into lesions and the
    component connectivity.  Construction checks every field, so every
    scorer built from it can rely on them.  JSON holds the regions by
    name."""

    regions: tuple[RegionSpec, ...] = REGIONS_PRE_TREATMENT
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES_MM
    dilation_iters: int = DEFAULT_DILATION_ITERS
    connectivity: int = DEFAULT_CONNECTIVITY

    def __post_init__(self):
        if check("connectivity", self.connectivity, "integer") not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {self.connectivity!r}")
        check("dilation_iters", self.dilation_iters, "integer", 0)
        self.check_tolerances(self.tolerances)

    @staticmethod
    def check_tolerances(tolerances: tuple[float, ...]) -> tuple[float, ...]:
        """``tolerances`` if each is a finite number > 0 and they are
        distinct as the metric names print them (``LW_NSD@<tol:g>``)."""
        if not isinstance(tolerances, tuple):
            raise ValueError(f"tolerances must be a list of finite numbers > 0,"
                             f" got {tolerances!r}")
        for tol in tolerances:
            check("tolerances", tol, "number", above=0)
        if len({f"{tol:g}" for tol in tolerances}) != len(tolerances):
            raise ValueError(f"tolerances must be distinct, got {list(tolerances)}")
        return tolerances

    @property
    def metrics(self) -> list[str]:
        """The keys of a region's scores: ``LW_Dice``, then ``LW_NSD@<tol>``
        at each tolerance."""
        return ["LW_Dice", *(f"LW_NSD@{tol:g}" for tol in self.tolerances)]

    def columns(self, regions) -> list[str]:
        """The metric columns of ``regions``: ``<metric>_<region>`` for
        each metric of each region, in order."""
        return [f"{metric}_{r.name}" for r in regions for metric in self.metrics]

    def to_dict(self) -> dict:
        return dict(super().to_dict(), regions=[r.name for r in self.regions])

    @classmethod
    def from_dict(cls, d: dict) -> "RankObjective":
        if isinstance(d, dict) and "regions" in d:
            names = d["regions"]
            if not (isinstance(names, list)
                    and all(isinstance(n, str) and n in REGIONS_BY_NAME for n in names)):
                raise ValueError(f"regions must be a list of {list(REGIONS_BY_NAME)},"
                                 f" got {names!r}")
            d = dict(d, regions=[REGIONS_BY_NAME[n] for n in names])
        return super().from_dict(d)

    @staticmethod
    def for_task(task: str) -> "RankObjective":
        if task == "gli-post":
            return RankObjective(regions=REGIONS_POST_TREATMENT)
        return RankObjective(regions=REGIONS_PRE_TREATMENT)


def region_mask(seg: LabelMap | np.ndarray, region: RegionSpec) -> np.ndarray:
    """Boolean mask of voxels whose label belongs to the region."""
    data = seg.data if isinstance(seg, LabelMap) else np.asarray(seg)
    mask = np.zeros(data.shape, dtype=bool)
    for label in region.labels:
        mask |= data == label
    return mask


def _surface_counts(
    surf_a: np.ndarray,
    surf_b: np.ndarray,
    spacing: Spacing,
    tolerances: tuple[float, ...],
) -> dict[float, float]:
    """Per tolerance: (|a within tol of b| + |b within tol of a|) / (|a| + |b|),
    for two non-empty surfaces."""
    reach = max(tolerances)
    d_to_b = euclidean_distance_transform(surf_b, spacing, reach)
    d_to_a = euclidean_distance_transform(surf_a, spacing, reach)
    n = int(surf_a.sum()) + int(surf_b.sum())
    return {
        tol: (int((d_to_b[surf_a] <= tol).sum()) + int((d_to_a[surf_b] <= tol).sum())) / n
        for tol in tolerances
    }


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    na = int(a.sum())
    nb = int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int((a & b).sum())
    return 2.0 * inter / (na + nb)


def _scatter(shape: tuple[int, ...], voxels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An int32 grid holding ``values`` at the flat indices ``voxels``, 0
    elsewhere."""
    out = np.zeros(shape, dtype=np.int32)
    out.ravel()[voxels] = values
    return out


def _assign_components(
    comps: np.ndarray, lesions: np.ndarray, count: int, n_lesions: int
) -> np.ndarray:
    """Lesion id of each component 1..count, 0 for a false positive: the
    lesion it overlaps most, the lowest lesion id on ties.  ``comps`` and
    ``lesions`` hold the component and the dilated lesion map of every
    foreground voxel, whose (component, lesion) pairs are counted once."""
    hit = lesions != 0
    pairs, overlap = np.unique(
        comps[hit].astype(np.int64) * (n_lesions + 1) + lesions[hit],
        return_counts=True,
    )
    comp, lesion = np.divmod(pairs, n_lesions + 1)
    order = np.lexsort((lesion, -overlap, comp))
    best = order[np.unique(comp[order], return_index=True)[1]]
    lesion_of = np.zeros(count + 1, dtype=np.int32)
    lesion_of[comp[best]] = lesion[best]
    return lesion_of


@dataclass
class MatchState:
    """A prediction mask matched against a ``RegionScorer``: what
    ``RegionScorer.score_subset`` starts from.

    ``labels`` holds the prediction components and ``corners[c - 1]``
    the box of component c, ``lesion_of[c]`` the lesion of component c
    (0: false positive), ``lesions`` the lesion of every voxel, and
    ``dice[lid - 1]`` and ``nsd[lid - 1]`` the scores of each lesion.
    All grids are the scorer's grid.
    """

    labels: np.ndarray
    corners: np.ndarray
    lesion_of: np.ndarray
    lesions: np.ndarray
    dice: list[float]
    nsd: list[dict[float, float]]

    @property
    def n_fp(self) -> int:
        return int((self.lesion_of[1:] == 0).sum())

    @cached_property
    def mask(self) -> np.ndarray:
        return self.labels != 0


class RegionScorer:
    """Lesion-wise scoring of candidate predictions against one fixed
    ground-truth region mask.

    The ground-truth side is computed once, so scoring many candidate
    predictions against the same ground truth is cheap.  It is one grid
    of ground-truth lesion ids, the owner grid behind the dilated lesion
    map that prediction components are assigned by, and the box of each
    lesion.  No per-lesion grid is kept.

    Each lesion is scored inside one box: the box of its ground-truth
    voxels joined with the ``find_objects`` boxes of the prediction
    components assigned to it, padded by one voxel so that every surface
    voxel has its six neighbours in the box.  This is exact.  Both masks
    lie wholly inside the box, so Dice counts the same voxels.
    ``boundary_voxels`` counts the voxels beyond the box as background,
    and none of them belongs to either mask, so both surfaces are the
    grid's.  An EDT measures distances to a surface's own voxels, which
    are all inside the box.

    ``score_subset`` scores a candidate that only removes voxels from a
    mask already matched (``match_state``) without matching it again:
    only the matched components that lost voxels are relabelled, inside
    their ``find_objects`` boxes; each remaining part goes to the lesion
    it overlaps most, the lowest lesion id on ties; and Dice and NSD are
    recomputed only for the lesions that lost or gained a part, each in
    the box of its new components.  This is exact.  Removing voxels
    never joins components, so every untouched component is a component
    of the candidate as well.  A component's lesion depends only on its
    own voxels, so every untouched component keeps its lesion.  Each
    lesion thus sees the same prediction voxels as under ``score``, and
    the same per-lesion values reach the same aggregation in the same
    lesion order.
    """

    def __init__(self, gt_mask: np.ndarray, spacing: Spacing,
                 objective: RankObjective = RankObjective()):
        self.spacing = spacing
        self.objective = objective
        dilation_iters, connectivity = objective.dilation_iters, objective.connectivity
        gt_cc = connected_components(gt_mask, connectivity)

        # merge gt components whose dilations overlap (transitively): each
        # voxel of the owner grid holds the last component whose dilation
        # covered it, and each component is joined to the owners it meets
        owner = np.zeros(gt_cc.labels.shape, dtype=np.int32)
        corners, edges = gt_cc.corners, []
        for c in range(1, gt_cc.count + 1):
            # the dilation never leaves the component's box padded by its reach
            box = padded_box(corners[c - 1:c], dilation_iters, owner.shape)
            dilated = dilate(gt_cc.labels[box] == c, dilation_iters, connectivity)
            owners = owner[box]
            edges += [(o, c) for o in distinct_ids(owners[dilated]).tolist() if o]
            owners[dilated] = c
        root = union_roots(gt_cc.count + 1, *np.array(edges, dtype=np.intp).reshape(-1, 2).T)
        # each lesion is rooted at its smallest component, so numbering the
        # roots in order numbers the lesions by their smallest member
        is_root = np.zeros(gt_cc.count + 1, dtype=bool)
        is_root[root[1:]] = True
        lesion_of = np.cumsum(is_root, dtype=np.int32)[root]
        self.lesion_members: list[tuple[int, ...]] = [
            tuple(np.flatnonzero(lesion_of == lid).tolist())
            for lid in range(1, int(is_root.sum()) + 1)]
        # distinct lesions have disjoint dilated masks by construction, so
        # the owner's lesion is the dilated lesion map
        self._owner = owner
        self._lesion_of = lesion_of
        self._gt_lesions = _scatter(owner.shape, gt_cc.voxels,
                                    lesion_of[gt_cc.labels.ravel()[gt_cc.voxels]])
        self._gt_corners = [corners[np.array(m) - 1] for m in self.lesion_members]

    @property
    def n_lesions(self) -> int:
        return len(self.lesion_members)

    def _assign(self, cc, box=()) -> np.ndarray:
        """Lesion id of each component of ``cc``, a labeling of the scorer's
        grid or of ``box`` in it (see ``_assign_components``)."""
        comps = cc.labels.ravel()[cc.voxels]
        lesions = self._lesion_of[self._owner[box].ravel()[cc.voxels]]
        return _assign_components(comps, lesions, cc.count, self.n_lesions)

    def _lesion_scores(
        self, lid: int, lesions: np.ndarray, corners: np.ndarray
    ) -> tuple[float, dict[float, float]]:
        """Dice and NSD of lesion ``lid`` against the voxels of ``lesions``
        equal to ``lid``, whose components have the boxes ``corners``; a
        lesion without prediction components scores 0."""
        tolerances = self.objective.tolerances
        if not len(corners):
            return 0.0, {t: 0.0 for t in tolerances}
        box = padded_box(np.concatenate((self._gt_corners[lid - 1], corners)), 1,
                         lesions.shape)
        gt_mask = self._gt_lesions[box] == lid
        pred_mask = lesions[box] == lid
        dice = _dice(gt_mask, pred_mask)
        if not tolerances:
            return dice, {}
        nsd = _surface_counts(boundary_voxels(pred_mask), boundary_voxels(gt_mask),
                              self.spacing, tolerances)
        return dice, nsd

    def _summary(self, dice: list[float], nsd: list[dict[float, float]],
                 n_fp: int) -> dict[str, float]:
        """Lesion-wise Dice plus NSD at each tolerance, keyed by the
        objective's ``metrics``: each a mean over the lesions and the false
        positives, which score 0."""
        units = len(dice) + n_fp
        sums = [sum(dice), *(sum(n[tol] for n in nsd) for tol in self.objective.tolerances)]
        return dict(zip(self.objective.metrics, (s / units if units else 1.0 for s in sums)))

    def match_state(self, pred_mask: np.ndarray) -> MatchState:
        """Assign prediction components to lesions and score each lesion."""
        pred_cc = connected_components(pred_mask, self.objective.connectivity)
        lesion_of = self._assign(pred_cc)
        lesions = _scatter(pred_mask.shape, pred_cc.voxels,
                           lesion_of[pred_cc.labels.ravel()[pred_cc.voxels]])
        corners = pred_cc.corners
        per_lesion = [
            self._lesion_scores(lid, lesions, corners[lesion_of[1:] == lid])
            for lid in range(1, self.n_lesions + 1)
        ]
        return MatchState(
            labels=pred_cc.labels,
            corners=corners,
            lesion_of=lesion_of,
            lesions=lesions,
            dice=[d for d, _ in per_lesion],
            nsd=[n for _, n in per_lesion],
        )

    def score(self, pred_mask: np.ndarray) -> dict[str, float]:
        """Lesion-wise Dice plus NSD at each tolerance, as a flat dict."""
        state = self.match_state(pred_mask)
        return self._summary(state.dice, state.nsd, state.n_fp)

    def score_subset(self, base: MatchState, pred_mask: np.ndarray) -> dict[str, float]:
        """``score(pred_mask)`` for a ``pred_mask`` that is a subset of the
        mask ``base`` was matched from, computed from ``base`` (see the
        class docstring)."""
        touched = distinct_ids(base.labels[base.mask & ~pred_mask])
        if touched.size == 0:
            return self._summary(base.dice, base.nsd, base.n_fp)
        dice, nsd, n_fp = list(base.dice), list(base.nsd), base.n_fp
        lesions = base.lesions.copy()
        # the lesion and the box of every component of the candidate
        kept = np.ones(base.lesion_of.size - 1, dtype=bool)
        kept[touched - 1] = False
        lesion_of, corners = [base.lesion_of[1:][kept]], [base.corners[kept]]
        changed: set[int] = set()
        for c in touched.tolist():
            if base.lesion_of[c]:
                changed.add(int(base.lesion_of[c]))
            else:
                n_fp -= 1
            box = tuple(slice(a, b) for a, b in base.corners[c - 1].T)
            own = base.labels[box] == c
            part_lesions = lesions[box]
            part_lesions[own] = 0
            part = own & pred_mask[box]
            if part.any():
                cc = connected_components(part, self.objective.connectivity)
                part_lesion = self._assign(cc, box)
                n_fp += int((part_lesion[1:] == 0).sum())
                changed.update(int(lid) for lid in part_lesion[1:] if lid)
                part_lesions[part] = part_lesion[cc.labels[part]]
                lesion_of.append(part_lesion[1:])
                corners.append(cc.corners + base.corners[c - 1, 0])
        lesion_of, corners = np.concatenate(lesion_of), np.concatenate(corners)
        for lid in changed:
            dice[lid - 1], nsd[lid - 1] = self._lesion_scores(
                lid, lesions, corners[lesion_of == lid])
        return self._summary(dice, nsd, n_fp)


@dataclass
class CaseMetrics:
    """Per-region lesion-wise scores for one case.

    ``values`` maps column names (``RankObjective.columns``) to scores in
    [0, 1].
    """

    case_id: str
    values: dict[str, float]


def case_box(pred: np.ndarray, gt: np.ndarray, dilation_iters: int) -> tuple[slice, ...]:
    """The box a case is scored in: the joint foreground of the label
    grids ``pred`` and ``gt`` padded by ``dilation_iters + 1`` and
    clipped to the grid, or the whole grid for an empty case."""
    return (nonzero_box(pred | gt, dilation_iters + 1)
            or tuple(slice(0, n) for n in gt.shape))


class CaseScorer:
    """Lesion-wise scoring of candidates made from one case's prediction
    against the case's ground truth.

    The prediction and the ground truth are cropped once, to their
    ``case_box``: ``pred`` and ``gt`` hold the crops, and every
    ``RegionScorer`` works on that grid.  This is exact for every
    candidate inside the box.  Components are the same in the crop, no
    ground-truth dilation reaches past the padding, and a candidate is
    empty outside the box, so a voxel on a face of the box has
    background beyond it on the grid as in the crop.  A case that is
    already cropped to its box (as the policy fit crops it) is its own
    box, and is kept without a copy.

    ``score`` takes every candidate at once and works region by region:
    it builds the region's ``RegionScorer`` and the match of the
    prediction's region mask, scores each candidate that asks for the
    region, from that match (``RegionScorer.score_subset``) if it only
    removes voxels from it and in full otherwise, and drops both before
    it builds the next region's.
    """

    def __init__(self, pred: LabelMap, gt: LabelMap,
                 objective: RankObjective = RankObjective()):
        if pred.dims != gt.dims or pred.spacing != gt.spacing:
            raise ValueError(f"grid mismatch: pred {pred.dims} at {pred.spacing.as_tuple()}"
                             f" vs gt {gt.dims} at {gt.spacing.as_tuple()}")
        self.box = case_box(pred.data, gt.data, objective.dilation_iters)
        self.pred = np.ascontiguousarray(pred.data[self.box])
        self.gt = np.ascontiguousarray(gt.data[self.box])
        self.spacing = gt.spacing
        self.objective = objective

    def score(self, candidates) -> list[dict[str, float]]:
        """The scores of each candidate, a ``(grid, regions)`` pair: a
        label grid on the case's box (the shape of ``pred``) and the
        regions to score it on, keyed by the objective's ``columns`` of
        those regions.  Regions are scored in the order the candidates
        first ask for them."""
        for grid, _ in candidates:
            if grid.shape != self.pred.shape:
                raise ValueError(f"candidate grid {grid.shape} is not the case's "
                                 f"box {self.pred.shape}")
        raw = [{} for _ in candidates]
        for region in dict.fromkeys(r for _, regions in candidates for r in regions):
            scorer = RegionScorer(region_mask(self.gt, region), self.spacing, self.objective)
            state = scorer.match_state(region_mask(self.pred, region))
            for (grid, regions), out in zip(candidates, raw):
                if region in regions:
                    mask = region_mask(grid, region)
                    out[region] = (scorer.score(mask) if (mask & ~state.mask).any()
                                   else scorer.score_subset(state, mask))
            del scorer, state, mask  # before the next region's are built
        return [dict(zip(self.objective.columns(regions),
                         (v for r in regions for v in out[r].values())))
                for (_, regions), out in zip(candidates, raw)]


def evaluate_case(pred: LabelMap, gt: LabelMap,
                  objective: RankObjective = RankObjective(),
                  case_id: str = "") -> CaseMetrics:
    """Lesion-wise Dice and NSD for every region of ``objective`` in one
    case.  A ``pred`` whose dims or spacing differ from ``gt``'s raises
    ValueError."""
    scorer = CaseScorer(pred, gt, objective)
    return CaseMetrics(case_id=case_id,
                       values=scorer.score([(scorer.pred, objective.regions)])[0])


# ---------------------------------------------------------------------------
# CSV schema: one row per case, `case_id` plus one column per region metric
# ---------------------------------------------------------------------------

def write_metrics_csv(path: str | Path, rows: list[CaseMetrics]) -> None:
    if not rows:
        raise ValueError("no metrics rows to write")
    columns = list(rows[0].values.keys())
    for row in rows:
        if list(row.values.keys()) != columns:
            raise ValueError(f"case {row.case_id}: inconsistent metric columns")
    write_case_table(path, columns, [(row.case_id, row.values.values()) for row in rows])


def read_metrics_csv(path: str | Path) -> list[CaseMetrics]:
    columns, case_ids, rows = read_case_table(path, "metrics CSV")
    return [CaseMetrics(case_id=case_id, values=dict(zip(columns, values)))
            for case_id, values in zip(case_ids, rows)]
