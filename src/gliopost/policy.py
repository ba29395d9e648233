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
from dataclasses import dataclass, field, replace
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
    WT,
    CaseMetrics,
    CaseScorer,
    RankObjective,
    RegionSpec,
    case_box,
)
from .morphology import connected_components, nonzero_box
from .nifti import atomic_open, write_json
from .parallel import map_ordered
from .radiomics import (
    ExtractionSettings,
    FeatureMatrix,
    extract_case_features,
    feature_names,
)
from .ranking import rank_candidates
from .volume import (MAX_LABEL, TUMOR_LABELS, CaseBundle, JsonConfig, LabelMap, check,
                     load_case_bundle)

POLICY_VERSION = "1"
DEFAULT_PCC_GRID = (0, 10, 20, 50, 75, 100, 150, 200, 300, 500, 750, 1000)
DEFAULT_CUTOFF_GRID = tuple(i * 0.005 for i in range(51))
DEFAULT_TOP_CONFUSIONS = 2
WT_LABELS = tuple(sorted(WT.labels))


@dataclass(frozen=True)
class RelabelRule(JsonConfig):
    """Convert all src voxels to dst when volume(src)/volume(WT) is
    below the cutoff, per cluster.  Construction checks that the cluster
    is an integer, src and dst distinct tumor labels and the cutoff a
    number in [0, 1]."""

    cluster: int
    src: int
    dst: int
    cutoff: float

    def __post_init__(self):
        check("relabel rule cluster", self.cluster, "integer")
        check("relabel rule src", self.src, "integer", 1, MAX_LABEL)
        check("relabel rule dst", self.dst, "integer", 1, MAX_LABEL)
        check("relabel rule cutoff", self.cutoff, "number", 0, 1)
        if self.src == self.dst:
            raise ValueError("relabel rule with src == dst")


@dataclass
class FitCase:
    """One training case by reference, which a fit worker loads: where
    its masks are, its cluster and the size thresholds its prediction is
    filtered with (none in the threshold search)."""

    case_id: str
    pred_dir: str
    gt_dir: str
    cluster: int
    thresholds: dict[int, int] = field(default_factory=dict)

    def load(self, objective: RankObjective) -> tuple:
        """``(pred, gt, outside)``: the case cropped to its ``case_box``
        under ``objective``, the prediction filtered, and the count of
        grid voxels beyond the box, background in both."""
        case = load_case_bundle(self.case_id, self.pred_dir, gt_dir=self.gt_dir)
        box = case_box(case.prediction.data, case.ground_truth.data,
                       objective.dilation_iters)
        pred, gt = (m.with_data(np.ascontiguousarray(m.data[box]))
                    for m in (case.prediction, case.ground_truth))
        if any(t > 0 for t in self.thresholds.values()):
            pred = pred.with_data(apply_component_thresholds(
                pred.data, self.thresholds, objective.connectivity))
        return pred, gt, case.prediction.data.size - pred.data.size


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

def top_confusions(cm: np.ndarray, n: int = DEFAULT_TOP_CONFUSIONS) -> list[tuple[int, int]]:
    """The n largest off-diagonal confusions among tumor labels, as
    (src=predicted, dst=true) candidate relabelings.

    Equal counts are ordered by (true label, predicted label); zero
    entries never qualify.
    """
    check("n", n, "integer", 1)
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

def _regions(objective: RankObjective, edits: dict) -> list[RegionSpec]:
    """The regions holding a label that one key's ``(thresholds, rules)``
    edits threshold or relabel; every other region scores the same under
    each of them."""
    labels = {label for thresholds, rules in edits.values()
              for label in [*thresholds, *(x for r in rules for x in (r.src, r.dst))]}
    return [r for r in objective.regions if r.labels & labels]


def _search_table(item) -> tuple[dict, dict, np.ndarray]:
    """``(table, moved, confusion)`` for one case, loaded here.
    ``table[key][value]``: the scores of the case after ``apply``'s own
    edit ``edits[key][value]``, a ``(thresholds, rules)`` pair carried out
    by ``_actions`` and ``_carry_out``, over the key's ``_regions``.  Each
    key labels only the labels it thresholds, so one label's component
    grid is alive at a time.  Each distinct action tuple, across keys, is
    carried out once and scored once, in one ``CaseScorer.score`` call.
    ``moved[key][value]``: the ground-truth labels of the voxels that edit
    removes.  ``confusion``: the case's (ground truth, prediction) counts.
    """
    case, edits, objective = item
    pred, gt, outside = case.load(objective)
    n = MAX_LABEL + 1
    pairs = (gt.data * n + pred.data).ravel()  # uint8: at most 24
    pairs = pairs[pairs != 0]  # most voxels are background in both
    confusion = np.bincount(pairs, minlength=n * n).reshape(n, n)
    confusion[0, 0] = outside + pred.data.size - pairs.size
    scorer = CaseScorer(pred, gt, objective)
    grids, asked, table, moved = {}, {}, {}, {}  # grids, asked: per action tuple
    for key, by_value in edits.items():
        labels = sorted({label for thresholds, _ in by_value.values()
                         for label in thresholds})
        box, labelings, counts = _label_box(scorer.pred, labels, objective.connectivity)
        truth = {}  # per component, its voxels' ground-truth labels
        for label, (grid, sizes) in labelings.items():
            inside = grid != 0
            truth[label] = np.bincount(grid[inside] * n + scorer.gt[box][inside],
                                       minlength=sizes.size * n).reshape(sizes.size, n)
        regions = _regions(objective, by_value)
        table[key], moved[key] = {}, {}
        for value, (thresholds, rules) in by_value.items():
            actions = _actions(labelings, counts, thresholds, rules)
            if actions not in grids:
                grids[actions] = _carry_out(scorer.pred, box, labelings, actions)
            asked.setdefault(actions, set()).update(regions)
            table[key][value] = actions
            moved[key][value] = sum((truth[label][list(ids)].sum(axis=0)
                                     for label, ids in actions[0]), np.zeros(n, np.int64))
    scores = dict(zip(grids, scorer.score(
        [(grid, [r for r in objective.regions if r in asked[actions]])
         for actions, grid in grids.items()])))
    for key, by_value in table.items():
        columns = objective.columns(_regions(objective, edits[key]))
        table[key] = {value: {c: scores[actions][c] for c in columns}
                      for value, actions in by_value.items()}
    return table, moved, confusion


def _grid_search(cases: list[FitCase], n_clusters: int, keys, grid: tuple, edit,
                 objective: RankObjective, threads: int) -> tuple[dict[int, dict], list]:
    """``(best, results)``: ``best[cluster][key]`` is the grid value whose
    edit, the ``(thresholds, rules)`` pair ``edit(cluster, key, value)``,
    has the lowest mean rank over the cluster's cases; ties go to the
    smaller (less destructive) value.  A key with nothing to search, a
    one-value grid or no region holding its labels, wins ``grid[0]``.

    Every case must have a cluster in ``[0, n_clusters)`` and every
    cluster a case.  Each case is scored once for every searched (key,
    value), in ``threads`` worker processes; ``results`` holds their
    ``_search_table`` outputs.  The choice does not depend on ``threads``.
    """
    for case in cases:
        if not 0 <= case.cluster < n_clusters:
            raise ValueError(f"{case.case_id}: cluster {case.cluster} out of range")
    for cluster in range(n_clusters):
        if all(case.cluster != cluster for case in cases):
            raise ValueError(f"cluster {cluster} has no training cases")
    edits = [{key: {value: edit(cluster, key, value) for value in grid} for key in keys}
             for cluster in range(n_clusters)]
    searched = [key for key in keys
                if len(grid) > 1 and any(_regions(objective, e[key]) for e in edits)]
    items = [(case, {key: edits[case.cluster][key] for key in searched}, objective)
             for case in cases]
    results = map_ordered(_search_table, items, [c.case_id for c in cases], threads)
    best = {}
    for cluster in range(n_clusters):
        best[cluster] = dict.fromkeys(keys, grid[0])
        members = [(case, table) for case, (table, _, _) in zip(cases, results)
                   if case.cluster == cluster]
        for key in searched:
            result = rank_candidates({
                value: [CaseMetrics(case.case_id, table[key][value])
                        for case, table in members]
                for value in grid
            })
            best[cluster][key] = min(grid, key=lambda value: (result.scores[value], value))
    return best, results


def check_grid(name: str, grid: tuple, kind: str, high=None) -> tuple:
    """``grid`` if each of its values is a ``kind`` (see ``check``) >= 0
    and at most ``high`` where given, and 0 is one of them:
    ``_grid_search``'s ties go to the smallest value, so the edit that
    changes nothing is always a candidate."""
    for value in grid:
        check(f"{name} values", value, kind, 0, high)
    if 0 not in grid:
        raise ValueError(f"{name} must contain 0, got {list(grid)}")
    return grid


def fit_component_thresholds(
    cases: list[FitCase],
    n_clusters: int,
    grid: tuple[int, ...] = DEFAULT_PCC_GRID,
    objective: RankObjective = RankObjective(),
    threads: int = 1,
) -> tuple[dict[int, dict[int, int]], np.ndarray]:
    """Per cluster and per label, the component size threshold whose
    candidate predictions achieve the best mean rank (``_grid_search``),
    and the 5x5 confusion of all cases after their cluster's thresholds.

    Candidates are evaluated only on regions containing the label under
    search; the other regions are identical across candidates and would
    contribute equal ranks to every candidate.
    """
    grid = tuple(sorted(set(check_grid("threshold grid", grid, "integer"))))
    best, results = _grid_search(cases, n_clusters, TUMOR_LABELS, grid,
                                 lambda cluster, label, t: ({label: t}, []),
                                 objective, threads)
    confusion = sum(counts for _, _, counts in results)
    for case, (_, moved, _) in zip(cases, results):  # removed voxels become 0
        for label, t in best[case.cluster].items():
            if t:  # only a searched label wins above grid[0] = 0
                confusion[:, label] -= moved[label][t]
                confusion[:, 0] += moved[label][t]
    return best, confusion


def fit_relabel_rules(
    cases: list[FitCase],
    n_clusters: int,
    candidates: list[tuple[int, int]],
    cutoff_grid: tuple[float, ...] = DEFAULT_CUTOFF_GRID,
    objective: RankObjective = RankObjective(),
    threads: int = 1,
) -> list[RelabelRule]:
    """Per cluster and candidate (src, dst) pair, the ratio cutoff whose
    candidate predictions achieve the best mean rank (``_grid_search``);
    rules are emitted only when the winning cutoff actually fires (> 0).

    Each pair is searched independently on the given predictions, which
    are expected to be the component-filtered ones.  Every cutoff
    becomes a ``RelabelRule``, so each must be finite and in [0, 1].
    """
    cutoffs = tuple(sorted(set(check_grid("cutoff grid", cutoff_grid, "number", 1))))
    pairs = [(src, dst) for src, dst in candidates]
    for src, dst in pairs:
        if src == dst:
            raise ValueError(f"candidate pair with src == dst: {src}")
    if not pairs:  # nothing to search: no worker need load a case
        return []
    best, _ = _grid_search(cases, n_clusters, pairs, cutoffs,
                           lambda cluster, pair, c: ({}, [RelabelRule(cluster, *pair, c)]),
                           objective, threads)
    return [RelabelRule(cluster, src, dst, best[cluster][(src, dst)])
            for cluster in best for src, dst in pairs if best[cluster][(src, dst)] > 0]


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def _label_box(seg: np.ndarray, labels, connectivity: int) -> tuple:
    """``(box, labelings, counts)``: the box of ``seg``'s foreground
    (empty if none) and, inside it, each present label's component grid
    and sizes, and every label's voxel count.  These are the grid's but
    for the background count, which ``_actions`` never reads.  Removing
    other labels never changes a label's mask, so one labeling per label
    serves every threshold and every cluster.
    """
    box = nonzero_box(seg) or (slice(0, 0),) * seg.ndim
    crop = seg[box]
    labelings = {}
    for label in labels:
        mask = crop == label
        if mask.any():
            cc = connected_components(mask, connectivity)
            labelings[label] = (cc.labels, cc.sizes)
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

def training_features(feature_matrix: FeatureMatrix, case_ids: list[str],
                      settings: ExtractionSettings) -> FeatureMatrix:
    """The rows of ``feature_matrix`` for ``case_ids``, in their order.
    A case without a row, or names other than ``settings``' features,
    raise ValueError."""
    missing = [c for c in case_ids if c not in feature_matrix.case_ids]
    if missing:
        raise ValueError(f"feature matrix missing cases {missing[:5]}")
    if feature_matrix.names != feature_names(settings):
        raise ValueError("feature matrix does not match extraction settings")
    return FeatureMatrix.from_vectors([feature_matrix.row(c) for c in case_ids])


def fit_policy_report(
    case_ids: list[str],
    pred_dir: str,
    gt_dir: str,
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
    """Fit the complete policy on the training cases ``case_ids``, whose
    masks are under ``pred_dir`` and ``gt_dir``.

    Stages: standardize + PCA + k-means on ``feature_matrix`` (rows
    matched to cases by case id), per-cluster component thresholds,
    confusion-guided relabel rules on the component-filtered
    predictions.  Both grid searches load each case in a worker
    (``FitCase.load``), in ``threads`` worker processes, so this process
    holds no voxels.  The policy does not depend on ``threads``.
    """
    if len(case_ids) < 3:
        raise ValueError("policy fitting needs at least 3 cases")
    feature_matrix = training_features(feature_matrix, case_ids, settings)

    stats = fit_standardizer(feature_matrix.values)
    pca = fit_pca(stats.transform(feature_matrix.values))
    points = pca.project(stats.transform(feature_matrix.values))

    if k_range is None:
        k_range = tuple(k for k in range(2, 11) if k < len(case_ids))
    kmeans, assignments = fit_kmeans(
        points, k_range=k_range, restarts=restarts, seed=seed
    )

    objective = RankObjective.for_task(task)
    cases = [FitCase(case_id, pred_dir, gt_dir, int(cluster))
             for case_id, cluster in zip(case_ids, assignments)]
    thresholds, cm = fit_component_thresholds(
        cases, kmeans.k, pcc_grid, objective, threads
    )
    candidates = top_confusions(cm, n_confusions)
    rules = fit_relabel_rules(
        [replace(case, thresholds=thresholds[case.cluster]) for case in cases],
        kmeans.k, candidates, cutoff_grid, objective, threads
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
        case_ids=list(case_ids),
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
    write_json(path, _policy_document(policy))


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
                int(cluster): {int(label): check("pcc_thresholds value", t, "integer", 0)
                               for label, t in labels.items()}
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
