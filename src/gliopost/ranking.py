"""Rank-based comparison of candidate segmentation outputs.

Candidates are compared cell by cell, where a cell is one (case, metric
column) pair.  Within a cell the candidates receive descending ranks
(highest metric value gets rank 1); tied values share the average of the
ranks they span.  A candidate's score is the mean of its ranks over all
cells, so lower is better and the scores of n candidates always average
to (n + 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import CaseMetrics
from .nifti import write_case_table


@dataclass
class RankingResult:
    """Mean ranks per candidate, plus the per-cell rank table."""

    candidates: tuple[str, ...]
    scores: dict[str, float]
    rank_table: np.ndarray  # shape (n_candidates, n_cells)


def tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    """Descending ranks with ties sharing the average rank.

    The largest value gets rank 1.  Equal values all get the mean of the
    rank positions they occupy, e.g. two candidates tied for first both
    rank 1.5.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a 1-d value vector")
    n = values.size
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(n, dtype=float)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_candidates(per_candidate: dict[str, list[CaseMetrics]]) -> RankingResult:
    """Score candidates by mean rank over all (case, metric) cells.

    Every candidate must cover the same cases with the same metric
    columns; cells where all candidates tie still count (they contribute
    the shared average rank).
    """
    if len(per_candidate) < 2:
        raise ValueError("ranking needs at least two candidates")
    names = tuple(per_candidate.keys())

    by_case: dict[str, dict[str, CaseMetrics]] = {}
    reference = None
    for name, rows in per_candidate.items():
        seen = set()
        for row in rows:
            if row.case_id in seen:
                raise ValueError(f"candidate {name}: duplicate case {row.case_id}")
            seen.add(row.case_id)
            by_case.setdefault(row.case_id, {})[name] = row
        if reference is None:
            reference = seen
        elif seen != reference:
            raise ValueError(f"candidate {name} covers different cases")

    case_ids = sorted(by_case)
    if not case_ids:
        raise ValueError("no cases to rank")
    columns = list(per_candidate[names[0]][0].values.keys())
    for name, rows in per_candidate.items():
        for row in rows:
            if row.values.keys() != set(columns):
                raise ValueError(f"candidate {name}, case {row.case_id}: metric columns"
                                 f" differ from those of {names[0]}")

    rank_cols = []
    for case_id in case_ids:
        rows = by_case[case_id]
        for col in columns:
            values = np.array([rows[name].values[col] for name in names])
            rank_cols.append(tie_averaged_ranks(values))
    table = np.column_stack(rank_cols)
    scores = {name: float(table[i].mean()) for i, name in enumerate(names)}
    return RankingResult(candidates=names, scores=scores, rank_table=table)


def write_ranking_csv(path: str | Path, result: RankingResult) -> None:
    """Summary CSV: one row per candidate with its mean-rank score."""
    ordered = sorted(result.candidates, key=lambda n: (result.scores[n], n))
    write_case_table(path, ["ranking_score"], [(n, [result.scores[n]]) for n in ordered],
                     key="candidate_id")
