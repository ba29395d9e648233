"""Adaptive post-processing policies: fitting, application, persistence.

A policy bundles the feature manifest, the clustering model, per-cluster
minimum component sizes per label, and per-cluster ratio-triggered
relabel rules.  Both stages are fitted by grid search, scoring candidate
outputs with the rank-based objective so that the selected policy never
ranks worse than leaving predictions untouched.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterModel,
    PcaModel,
    StandardizationStats,
    assign_cluster,
    fit_kmeans,
    fit_pca,
    fit_standardizer,
)
from .metrics import (
    DEFAULT_CONNECTIVITY,
    DEFAULT_DILATION_ITERS,
    DEFAULT_TOLERANCES_MM,
    REGIONS_BY_NAME,
    REGIONS_POST_TREATMENT,
    REGIONS_PRE_TREATMENT,
    WT,
    CaseMetrics,
    CaseScorer,
    RegionSpec,
    case_box,
)
from .morphology import connected_components, padded_box
from .nifti import atomic_open
from .parallel import map_ordered
from .radiomics import (
    ExtractionSettings,
    FeatureMatrix,
    extract_case_features,
    feature_names,
)
from .ranking import rank_candidates
from .volume import MAX_LABEL, TUMOR_LABELS, CaseBundle, LabelMap

POLICY_VERSION = "1"
DEFAULT_PCC_GRID = (0, 10, 20, 50, 75, 100, 150, 200, 300, 500, 750, 1000)
DEFAULT_CUTOFF_GRID = tuple(i * 0.005 for i in range(51))
DEFAULT_TOP_CONFUSIONS = 2
WT_LABELS = tuple(sorted(WT.labels))


@dataclass(frozen=True)
class RankObjective:
    """Metric configuration for the rank-based fitting objective."""

    regions: tuple[RegionSpec, ...] = REGIONS_PRE_TREATMENT
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES_MM
    dilation_iters: int = DEFAULT_DILATION_ITERS
    connectivity: int = DEFAULT_CONNECTIVITY

    def to_dict(self) -> dict:
        return {
            "regions": [r.name for r in self.regions],
            "tolerances": list(self.tolerances),
            "dilation_iters": self.dilation_iters,
            "connectivity": self.connectivity,
        }

    @staticmethod
    def from_dict(d: dict) -> "RankObjective":
        return RankObjective(
            regions=tuple(REGIONS_BY_NAME[n] for n in d["regions"]),
            tolerances=tuple(float(t) for t in d["tolerances"]),
            dilation_iters=int(d["dilation_iters"]),
            connectivity=int(d["connectivity"]),
        )

    @staticmethod
    def for_task(task: str) -> "RankObjective":
        if task == "gli-post":
            return RankObjective(regions=REGIONS_POST_TREATMENT)
        return RankObjective(regions=REGIONS_PRE_TREATMENT)


@dataclass(frozen=True)
class RelabelRule:
    """Convert all src voxels to dst when volume(src)/volume(WT) is
    below the cutoff, per cluster."""

    cluster: int
    src: int
    dst: int
    cutoff: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("relabel rule with src == dst")
        if not (1 <= self.src <= MAX_LABEL and 1 <= self.dst <= MAX_LABEL):
            raise ValueError(f"labels out of range: {self.src} -> {self.dst}")
        if not 0.0 <= self.cutoff <= 1.0:
            raise ValueError(f"cutoff outside [0, 1]: {self.cutoff}")

    def to_dict(self) -> dict:
        return {
            "cluster": self.cluster,
            "src": self.src,
            "dst": self.dst,
            "cutoff": self.cutoff,
        }

    @staticmethod
    def from_dict(d: dict) -> "RelabelRule":
        return RelabelRule(
            cluster=int(d["cluster"]),
            src=int(d["src"]),
            dst=int(d["dst"]),
            cutoff=float(d["cutoff"]),
        )


@dataclass
class FitCase:
    """One training case after clustering: prediction, truth, cluster.
    The fit crops ``pred`` and ``gt`` to their ``metrics.case_box``;
    ``outside`` counts the grid voxels beyond it, background in both."""

    case_id: str
    pred: LabelMap
    gt: LabelMap
    cluster: int
    outside: int = 0


@dataclass
class FitReport:
    """Diagnostics from a fitting run, kept for human-readable reports."""

    case_ids: list[str]
    assignments: list[int]
    confusion: np.ndarray
    candidates: list[tuple[int, int]]


@dataclass
class PostProcessPolicy:
    """Everything needed to post-process a new case deterministically.

    Construction checks the array widths against the feature manifest and
    the PCA width, and every cluster id against ``[0, k)``, so a policy
    read from disk fails at load rather than after a case is extracted.
    """

    task: str
    settings: ExtractionSettings
    standardizer: StandardizationStats
    pca: PcaModel
    kmeans: ClusterModel
    thresholds: dict[int, dict[int, int]]
    rules: list[RelabelRule]
    objective: RankObjective
    version: str = POLICY_VERSION

    def __post_init__(self):
        n = len(feature_names(self.settings))
        k = self.kmeans.k
        components = self.pca.components.shape
        m = components[0] if len(components) == 2 else None
        widths = (
            ("standardizer.mean", self.standardizer.mean.shape, (n,)),
            ("standardizer.std", self.standardizer.std.shape, (n,)),
            ("pca.center", self.pca.center.shape, (n,)),
            ("pca.components", components, (m, n)),
            ("kmeans.centroids", self.kmeans.centroids.shape, (k, m)),
        )
        for name, got, want in widths:
            if got != want:
                raise ValueError(
                    f"{name} has shape {got}, expected {want}"
                    f" ({n} features, {m} PCA components, k={k})"
                )
        clusters = [("pcc_thresholds", c) for c in sorted(self.thresholds)]
        clusters += [("relabel_rules", r.cluster) for r in self.rules]
        for name, cluster in clusters:
            if not 0 <= cluster < k:
                raise ValueError(f"{name} cluster {cluster} outside [0, {k})")
        for cluster in range(k):
            if cluster not in self.thresholds:
                raise ValueError(f"thresholds missing cluster {cluster}")
            for label in TUMOR_LABELS:
                if label not in self.thresholds[cluster]:
                    raise ValueError(
                        f"thresholds missing label {label} in cluster {cluster}"
                    )


# ---------------------------------------------------------------------------
# confusion matrix
# ---------------------------------------------------------------------------

def confusion_matrix(pairs) -> np.ndarray:
    """5x5 voxel counts; entry (g, p) counts GT label g predicted as p."""
    n = MAX_LABEL + 1
    counts = np.zeros(n * n, dtype=np.int64)
    for pred, gt in pairs:
        pred_data = pred.data if isinstance(pred, LabelMap) else np.asarray(pred)
        gt_data = gt.data if isinstance(gt, LabelMap) else np.asarray(gt)
        if pred_data.shape != gt_data.shape:
            raise ValueError(
                f"grid mismatch: {pred_data.shape} vs {gt_data.shape}"
            )
        flat = gt_data.astype(np.int64).ravel() * n + pred_data.astype(np.int64).ravel()
        counts += np.bincount(flat, minlength=n * n)
    return counts.reshape(n, n)


def top_confusions(cm: np.ndarray, n: int = DEFAULT_TOP_CONFUSIONS) -> list[tuple[int, int]]:
    """The n largest off-diagonal confusions among tumor labels, as
    (src=predicted, dst=true) candidate relabelings.

    Equal counts are ordered by (true label, predicted label); zero
    entries never qualify.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cm = np.asarray(cm)
    entries = []
    for g in TUMOR_LABELS:
        for p in TUMOR_LABELS:
            if g != p and cm[g, p] > 0:
                entries.append((-int(cm[g, p]), g, p))
    entries.sort()
    return [(p, g) for _, g, p in entries[:n]]


def write_confusion_csv(path: str | Path, cm: np.ndarray) -> None:
    cm = np.asarray(cm)
    with atomic_open(path, newline="") as fh:
        fh.write("gt\\pred," + ",".join(str(p) for p in range(cm.shape[1])) + "\n")
        for g in range(cm.shape[0]):
            fh.write(str(g) + "," + ",".join(str(int(v)) for v in cm[g]) + "\n")


def write_fit_report(path: str | Path, policy: PostProcessPolicy,
                     report: FitReport) -> None:
    """The human-readable summary of a fit: clusters, confusion,
    thresholds and rules."""
    k = policy.kmeans.k
    sizes = Counter(report.assignments)
    lines = [
        f"task: {policy.task}",
        f"training cases: {len(report.case_ids)}",
        f"pca components: {policy.pca.n_components}",
        f"clusters: {k} (silhouette {policy.kmeans.silhouette:.4f})",
        "cluster sizes: "
        + ", ".join(f"{c}: {sizes.get(c, 0)}" for c in range(k)),
        "",
        "confusion after component filtering (rows truth, columns prediction):",
        "        " + "".join(f"{p:>12}" for p in range(5)),
    ]
    for g in range(5):
        row = "".join(f"{int(v):>12}" for v in report.confusion[g])
        lines.append(f"  {g:>4}  {row}")
    lines.append("")
    if report.candidates:
        pairs = ", ".join(f"{src}->{dst}" for src, dst in report.candidates)
    else:
        pairs = "none"
    lines.append(f"relabel candidates (src->dst): {pairs}")
    lines.append("")
    lines.append("component-size thresholds:")
    lines.append("  cluster" + "".join(f"  label {l}" for l in TUMOR_LABELS))
    for cluster in range(k):
        cells = "".join(
            f"{policy.thresholds[cluster][l]:>9}" for l in TUMOR_LABELS
        )
        lines.append(f"  {cluster:>7}{cells}")
    lines.append("")
    if policy.rules:
        lines.append("relabel rules:")
        lines.append("  cluster  src  dst   cutoff")
        for rule in policy.rules:
            lines.append(
                f"  {rule.cluster:>7}  {rule.src:>3}  {rule.dst:>3}"
                f"  {rule.cutoff:.4f}"
            )
    else:
        lines.append("relabel rules: none")
    lines.append("")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# grid-search fitting
# ---------------------------------------------------------------------------

def _fit_scorer(case: FitCase, objective: RankObjective) -> tuple:
    """``(scorer, box, counts)``: the ``CaseScorer`` of a training case,
    the whole of its crop as the box ``_carry_out`` edits in, and every
    label's voxel count in it."""
    scorer = CaseScorer(case.pred, case.gt, objective.tolerances,
                        objective.dilation_iters, objective.connectivity)
    counts = np.bincount(scorer.pred.ravel(), minlength=MAX_LABEL + 1)
    return scorer, (slice(None),) * scorer.pred.ndim, counts


def _score_actions(scorer: CaseScorer, regions, box: tuple[slice, ...],
                   labelings: dict, actions_of: dict) -> dict:
    """``{value: scores}`` over ``regions`` of the mask that ``apply``
    writes for each grid value's action tuple (``actions_of[value]``);
    each distinct tuple is carried out and scored once."""
    by_action: dict[tuple, dict[str, float]] = {}
    for actions in actions_of.values():
        if actions not in by_action:
            by_action[actions] = scorer.score(
                regions, _carry_out(scorer.pred, box, labelings, actions))
    return {value: by_action[actions] for value, actions in actions_of.items()}


def _threshold_table(item) -> dict[int, dict[int, dict[str, float]]]:
    """``table[label][t]``: the scores of one case after ``apply``'s own
    removal of the label's components smaller than ``t`` (``_actions``,
    ``_carry_out``), over the regions holding the label.  The case is
    labelled one label at a time."""
    case, (labels, grid), objective = item
    scorer, box, counts = _fit_scorer(case, objective)
    table = {}
    for label in labels:
        cc = connected_components(scorer.pred == label, objective.connectivity)
        labelings = {label: (cc.labels, _component_sizes(cc))}
        table[label] = _score_actions(
            scorer, [r for r in objective.regions if label in r.labels], box,
            labelings, {t: _actions(labelings, counts, {label: t}, []) for t in grid})
    return table


def _relabel_table(item) -> dict[tuple[int, int], dict[float, dict[str, float]]]:
    """``table[(src, dst)][c]``: the scores of one case after ``apply``'s
    own relabel rule ``src -> dst`` at cutoff ``c`` (``_actions``,
    ``_carry_out``), over the regions holding src or dst.  A case where
    no cutoff fires the rule is scored once, unchanged."""
    case, (pairs, cutoffs), objective = item
    scorer, box, counts = _fit_scorer(case, objective)
    return {
        (src, dst): _score_actions(
            scorer,
            [r for r in objective.regions if src in r.labels or dst in r.labels],
            box, {},
            {c: _actions({}, counts, {}, [RelabelRule(case.cluster, src, dst, c)])
             for c in cutoffs})
        for src, dst in pairs
    }


def _rank_select(tables: list[tuple[FitCase, dict]], key, grid) -> object:
    """The grid value whose candidate, ``table[key][value]`` of every
    (case, table) in ``tables``, has the lowest mean rank; ties go to the
    smaller (less destructive) value."""
    result = rank_candidates({
        value: [CaseMetrics(case.case_id, table[key][value]) for case, table in tables]
        for value in grid
    })
    return min(grid, key=lambda value: (result.scores[value], value))


def _tables_by_cluster(
    worker, cases: list[FitCase], n_clusters: int, arg,
    objective: RankObjective, threads: int,
) -> dict[int, list[tuple[FitCase, dict]]]:
    """Check that every case has a cluster in ``[0, n_clusters)`` and
    every cluster a case, then run ``worker((case, arg, objective))`` for
    each case in ``threads`` processes; (case, table) pairs per cluster."""
    groups: dict[int, list[tuple[FitCase, dict]]] = {c: [] for c in range(n_clusters)}
    for case in cases:
        if case.cluster not in groups:
            raise ValueError(f"{case.case_id}: cluster {case.cluster} out of range")
    for cluster in groups:
        if all(case.cluster != cluster for case in cases):
            raise ValueError(f"cluster {cluster} has no training cases")
    items = [(case, arg, objective) for case in cases]
    tables = map_ordered(worker, items, [c.case_id for c in cases], threads)
    for case, table in zip(cases, tables):
        groups[case.cluster].append((case, table))
    return groups


def fit_component_thresholds(
    cases: list[FitCase],
    n_clusters: int,
    grid: tuple[int, ...] = DEFAULT_PCC_GRID,
    objective: RankObjective = RankObjective(),
    threads: int = 1,
) -> dict[int, dict[int, int]]:
    """Per cluster and per label, the component size threshold whose
    candidate predictions achieve the best mean rank.

    Candidates are evaluated only on regions containing the label under
    search; the other regions are identical across candidates and would
    contribute equal ranks to every candidate.  Each case's scores are
    computed once for every (label, threshold) pair, in ``threads``
    worker processes; the choice does not depend on ``threads``.
    """
    grid = tuple(sorted({int(t) for t in grid}))
    if grid and grid[0] < 0:
        raise ValueError(f"threshold grid values must be >= 0, got {grid[0]}")
    if not grid or grid[0] != 0:
        raise ValueError(f"threshold grid must contain 0, got {list(grid)}")
    searched = [
        label for label in TUMOR_LABELS
        if len(grid) > 1 and any(label in r.labels for r in objective.regions)
    ]
    groups = _tables_by_cluster(_threshold_table, cases, n_clusters,
                                (searched, grid), objective, threads)
    thresholds: dict[int, dict[int, int]] = {}
    for cluster in range(n_clusters):
        thresholds[cluster] = {label: grid[0] for label in TUMOR_LABELS}
        for label in searched:
            thresholds[cluster][label] = int(_rank_select(groups[cluster], label, grid))
    return thresholds


def fit_relabel_rules(
    cases: list[FitCase],
    n_clusters: int,
    candidates: list[tuple[int, int]],
    cutoff_grid: tuple[float, ...] = DEFAULT_CUTOFF_GRID,
    objective: RankObjective = RankObjective(),
    threads: int = 1,
) -> list[RelabelRule]:
    """Per cluster and candidate (src, dst) pair, the ratio cutoff whose
    candidate predictions achieve the best mean rank; rules are emitted
    only when the winning cutoff actually fires (> 0).

    Each pair is searched independently on the given predictions, which
    are expected to be the component-filtered ones.  Each case's scores
    are computed once for every (pair, cutoff), in ``threads`` worker
    processes; the rules do not depend on ``threads``.  Every cutoff
    becomes a ``RelabelRule``, so each must be finite and in [0, 1].
    """
    cutoffs = tuple(sorted({float(c) for c in cutoff_grid}))
    for c in cutoffs:
        if not 0.0 <= c <= 1.0:  # NaN included
            raise ValueError(f"cutoff grid values must be finite and in [0, 1],"
                             f" got {c}")
    if not cutoffs or cutoffs[0] != 0.0:
        raise ValueError(f"cutoff grid must contain 0, got {list(cutoffs)}")
    for src, dst in candidates:
        if src == dst:
            raise ValueError(f"candidate pair with src == dst: {src}")
    searched = [
        (src, dst) for src, dst in candidates
        if len(cutoffs) > 1
        and any(src in r.labels or dst in r.labels for r in objective.regions)
    ]
    groups = _tables_by_cluster(_relabel_table, cases, n_clusters,
                                (searched, cutoffs), objective, threads)
    rules: list[RelabelRule] = []
    for cluster in range(n_clusters):
        for src, dst in searched:
            best = _rank_select(groups[cluster], (src, dst), cutoffs)
            if best > 0:
                rules.append(RelabelRule(cluster, src, dst, float(best)))
    return rules


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def _component_sizes(cc) -> np.ndarray:
    """Voxel count per component id of a labeling; id 0 counts 0."""
    return np.array([0] + [cc.sizes[c] for c in range(1, cc.count + 1)])


def _label_box(seg: np.ndarray, labels, connectivity: int) -> tuple:
    """``(box, labelings, counts)``: the box of ``seg``'s foreground
    (empty if none) and, inside it, each present label's component grid
    and sizes, and every label's voxel count.  These are the grid's but
    for the background count, which ``_actions`` never reads.  Removing
    other labels never changes a label's mask, so one labeling per label
    serves every threshold and every cluster.
    """
    coords = np.nonzero(seg)
    box = padded_box(coords, 0, seg.shape) if coords[0].size else (slice(0, 0),) * seg.ndim
    crop = seg[box]
    labelings = {}
    for label in labels:
        mask = crop == label
        if mask.any():
            cc = connected_components(mask, connectivity)
            labelings[label] = (cc.labels, _component_sizes(cc))
    return box, labelings, np.bincount(crop.ravel(), minlength=MAX_LABEL + 1)


def _actions(labelings: dict, counts, thresholds: dict[int, int],
             rules: list[RelabelRule]) -> tuple:
    """What size thresholds and relabel rules do to one case, decided
    from its component sizes and voxel counts alone.

    Returns the ids of the removed components per label, then the
    ``(src, dst)`` relabelings in firing order.  A rule is skipped when
    the case has no whole-tumor voxels or ``vol(src) / vol(WT)`` is at
    least its cutoff, and each rule sees the counts the earlier ones
    left.  A rule that fires on an empty ``src`` changes nothing and is
    left out, so equal actions mean equal output masks.
    """
    counts = [int(c) for c in counts]
    removed = []
    for label, (_, sizes) in labelings.items():
        ids = np.flatnonzero(sizes[1:] < thresholds.get(label, 0)) + 1
        if ids.size:
            removed.append((label, tuple(ids.tolist())))
            counts[label] -= int(sizes[ids].sum())
    fired = []
    for rule in rules:
        wt_vol = sum(counts[label] for label in WT_LABELS)
        if wt_vol == 0 or counts[rule.src] / wt_vol >= rule.cutoff:
            continue
        if counts[rule.src]:
            fired.append((rule.src, rule.dst))
            counts[rule.dst] += counts[rule.src]
            counts[rule.src] = 0
    return tuple(removed), tuple(fired)


def _carry_out(seg: np.ndarray, box: tuple[slice, ...], labelings: dict,
               actions: tuple) -> np.ndarray:
    """``seg`` with ``actions`` (from ``_actions``) done to a copy, all of
    them inside ``box``, the box ``labelings`` were made in (see
    ``_label_box``).

    Relabelings that stay inside the whole-tumor label set must leave the
    WT mask voxel-identical; one that breaks this raises RuntimeError.
    """
    removed, fired = actions
    out = seg.copy()
    crop = out[box]  # a view: the edits land in ``out``
    for label, ids in removed:
        grid, sizes = labelings[label]
        drop = np.zeros(sizes.size, dtype=bool)
        drop[list(ids)] = True
        crop[drop[grid]] = 0
    for src, dst in fired:
        inside_wt = src in WT_LABELS and dst in WT_LABELS
        wt_before = np.isin(crop, WT_LABELS) if inside_wt else None
        crop[crop == src] = dst
        if inside_wt and not np.array_equal(wt_before, np.isin(crop, WT_LABELS)):
            raise RuntimeError(f"relabel {src}->{dst} changed the whole-tumor mask")
    return out


def apply_component_thresholds(
    seg: np.ndarray,
    thresholds: dict[int, int],
    connectivity: int = DEFAULT_CONNECTIVITY,
) -> np.ndarray:
    """Remove, per label, components smaller than the label's threshold.

    Removed voxels become background.  Never adds voxels.
    """
    labels = [label for label in sorted(thresholds) if thresholds[label] > 0]
    box, labelings, counts = _label_box(seg, labels, connectivity)
    return _carry_out(seg, box, labelings, _actions(labelings, counts, thresholds, []))


def apply_policy(policy: PostProcessPolicy,
                 case: CaseBundle) -> tuple[LabelMap, int | None]:
    """Run the size thresholds and relabel rules of the case's cluster.

    Every cluster's actions are first decided from the case's component
    sizes and voxel counts.  When all clusters would do the same, the
    case's features are not extracted and the cluster returned is None.
    Otherwise the features assign the cluster, which is returned with
    the post-processed mask.  The prediction is labelled, counted and
    edited inside the box of its foreground (``_label_box``); only the
    final write of the edited box into a copy sees the full grid.
    """
    missing = [s for s in policy.settings.sequences if s not in case.sequences]
    if missing:
        raise ValueError(f"{case.case_id}: missing sequences {missing}")
    seg = case.prediction.data
    k = policy.kmeans.k
    labels = [label for label in TUMOR_LABELS
              if any(policy.thresholds[c][label] > 0 for c in range(k))]
    box, labelings, counts = _label_box(seg, labels, policy.objective.connectivity)
    actions = [
        _actions(labelings, counts, policy.thresholds[c],
                 [r for r in policy.rules if r.cluster == c])
        for c in range(k)
    ]
    cluster = None
    if any(a != actions[0] for a in actions):
        features = extract_case_features(case, policy.settings)
        cluster = assign_cluster(
            policy.standardizer, policy.pca, policy.kmeans, features.values
        )
    chosen = actions[0 if cluster is None else cluster]
    return case.prediction.with_data(_carry_out(seg, box, labelings, chosen)), cluster


# ---------------------------------------------------------------------------
# end-to-end fitting
# ---------------------------------------------------------------------------

def _fit_case(case: CaseBundle, cluster: int, dilation_iters: int) -> FitCase:
    """``case`` cropped once to the box ``CaseScorer`` scores it in, so
    that every scorer of the fit takes the crop as its own box."""
    box = case_box(case.prediction.data, case.ground_truth.data, dilation_iters)
    pred, gt = (m.with_data(np.ascontiguousarray(m.data[box]))
                for m in (case.prediction, case.ground_truth))
    return FitCase(case.case_id, pred, gt, cluster,
                   outside=case.prediction.data.size - pred.data.size)


def fit_policy_report(
    cases: list[CaseBundle],
    feature_matrix: FeatureMatrix,
    task: str = "gli-pre",
    settings: ExtractionSettings = ExtractionSettings(),
    k_range: tuple[int, ...] = None,
    restarts: int = 10,
    seed: int = 0,
    pcc_grid: tuple[int, ...] = DEFAULT_PCC_GRID,
    cutoff_grid: tuple[float, ...] = DEFAULT_CUTOFF_GRID,
    n_confusions: int = DEFAULT_TOP_CONFUSIONS,
    threads: int = 1,
) -> tuple[PostProcessPolicy, FitReport]:
    """Fit the complete policy on training cases that carry ground truth.

    Stages: standardize + PCA + k-means on ``feature_matrix`` (rows
    matched to cases by case id), per-cluster component thresholds,
    confusion-guided relabel rules on the component-filtered
    predictions.  Everything after clustering works on each case's crop
    (``_fit_case``); the voxels beyond it join the confusion's (0, 0)
    cell.  Both grid searches run in ``threads`` worker processes; the
    policy does not depend on ``threads``.
    """
    if len(cases) < 3:
        raise ValueError("policy fitting needs at least 3 cases")
    for case in cases:
        if case.ground_truth is None:
            raise ValueError(f"{case.case_id}: fitting requires ground truth")

    missing = [c.case_id for c in cases if c.case_id not in feature_matrix.case_ids]
    if missing:
        raise ValueError(f"feature matrix missing cases {missing[:5]}")
    feature_matrix = FeatureMatrix.from_vectors(
        [feature_matrix.row(c.case_id) for c in cases]
    )
    if feature_matrix.names != feature_names(settings):
        raise ValueError("feature matrix does not match extraction settings")

    stats = fit_standardizer(feature_matrix.values)
    pca = fit_pca(stats.transform(feature_matrix.values))
    points = pca.project(stats.transform(feature_matrix.values))

    if k_range is None:
        k_range = tuple(k for k in range(2, 11) if k < len(cases))
    kmeans, assignments = fit_kmeans(
        points, k_range=k_range, restarts=restarts, seed=seed
    )

    objective = RankObjective.for_task(task)
    fit_cases = [
        _fit_case(case, int(assignments[i]), objective.dilation_iters)
        for i, case in enumerate(cases)
    ]

    thresholds = fit_component_thresholds(
        fit_cases, kmeans.k, pcc_grid, objective, threads
    )

    filtered = [
        replace(fc, pred=fc.pred.with_data(apply_component_thresholds(
            fc.pred.data, thresholds[fc.cluster], objective.connectivity)))
        for fc in fit_cases
    ]
    cm = confusion_matrix((fc.pred, fc.gt) for fc in filtered)
    cm[0, 0] += sum(fc.outside for fc in filtered)
    candidates = top_confusions(cm, n_confusions)
    rules = fit_relabel_rules(
        filtered, kmeans.k, candidates, cutoff_grid, objective, threads
    )

    policy = PostProcessPolicy(
        task=task,
        settings=settings,
        standardizer=stats,
        pca=pca,
        kmeans=kmeans,
        thresholds=thresholds,
        rules=rules,
        objective=objective,
    )
    report = FitReport(
        case_ids=[c.case_id for c in cases],
        assignments=[int(a) for a in assignments],
        confusion=cm,
        candidates=candidates,
    )
    return policy, report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _policy_document(policy: PostProcessPolicy) -> dict:
    return {
        "version": policy.version,
        "task": policy.task,
        "feature_manifest": {
            "feature_names": list(feature_names(policy.settings)),
            "settings": policy.settings.to_dict(),
        },
        "standardizer": policy.standardizer.to_dict(),
        "pca": policy.pca.to_dict(),
        "kmeans": policy.kmeans.to_dict(),
        "pcc_thresholds": {
            str(cluster): {str(label): int(t) for label, t in labels.items()}
            for cluster, labels in policy.thresholds.items()
        },
        "relabel_rules": [r.to_dict() for r in policy.rules],
        "metric_config": policy.objective.to_dict(),
    }


def save_policy(policy: PostProcessPolicy, path: str | Path) -> None:
    doc = _policy_document(policy)
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_policy(path: str | Path) -> PostProcessPolicy:
    """Read a saved policy; a document of the wrong shape or with
    inconsistent fields raises ValueError naming ``path``."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        version = doc.get("version")
        if version != POLICY_VERSION:
            raise ValueError(f"unsupported policy version {version!r}")
        settings = ExtractionSettings.from_dict(doc["feature_manifest"]["settings"])
        stored_names = tuple(doc["feature_manifest"]["feature_names"])
        if stored_names != feature_names(settings):
            raise ValueError("feature manifest inconsistent with settings")
        return PostProcessPolicy(
            task=doc["task"],
            settings=settings,
            standardizer=StandardizationStats.from_dict(doc["standardizer"]),
            pca=PcaModel.from_dict(doc["pca"]),
            kmeans=ClusterModel.from_dict(doc["kmeans"]),
            thresholds={
                int(cluster): {int(label): int(t) for label, t in labels.items()}
                for cluster, labels in doc["pcc_thresholds"].items()
            },
            rules=[RelabelRule.from_dict(r) for r in doc["relabel_rules"]],
            objective=RankObjective.from_dict(doc["metric_config"]),
            version=version,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(
            f"{path}: malformed policy document: {type(exc).__name__}: {exc}"
        ) from exc
