"""Rank-based comparison of candidate segmentation outputs.

Candidates are compared cell by cell, where a cell is one (case, metric
column) pair.  Ranks are taken down the columns of a (candidates x
cells) array: within a cell the candidates receive descending ranks
(highest metric value gets rank 1), and tied values share the average of
the ranks they span.  A candidate's score is the mean of its ranks over
all cells, so lower is better and the scores of n candidates always
average to (n + 1) / 2.
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
    """Descending ranks down each column of ``values`` (a 1-d input is one
    column): the largest value gets rank 1, and equal values share the
    mean of the rank positions they span, e.g. two tied for first both
    rank 1.5.  A value's rank is counted: the values above it, plus half
    of one more than the values equal to it, itself included.  So every
    rank is a half-integer and a sum of ranks is exact in any order.  A
    value that is not finite raises ValueError, as counting would rank
    NaN above every number.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("cannot rank a value that is not finite")
    ranks = np.full(values.shape, 0.5)
    for row in values:  # one candidate at a time: no candidates^2 x cells cube
        ranks += (row > values) + 0.5 * (row == values)
    return ranks


def rank_candidates(per_candidate: dict[str, list[CaseMetrics]]) -> RankingResult:
    """Score candidates by mean rank over all (case, metric) cells.

    Every candidate must cover the same cases with the same metric
    columns; cells where all candidates tie still count (they contribute
    the shared average rank).
    """
    if len(per_candidate) < 2:
        raise ValueError("ranking needs at least two candidates")
    names = tuple(per_candidate)
    by_name: dict[str, dict[str, dict[str, float]]] = {}
    for name, rows in per_candidate.items():
        by_name[name] = {}
        for row in rows:
            if row.case_id in by_name[name]:
                raise ValueError(f"candidate {name}: duplicate case {row.case_id}")
            by_name[name][row.case_id] = row.values
        if by_name[name].keys() != by_name[names[0]].keys():
            raise ValueError(f"candidate {name} covers different cases")

    case_ids = sorted(by_name[names[0]])
    if not case_ids:
        raise ValueError("no cases to rank")
    columns = list(per_candidate[names[0]][0].values)
    for name, rows in per_candidate.items():
        for row in rows:
            if row.values.keys() != set(columns):
                raise ValueError(f"candidate {name}, case {row.case_id}: metric columns"
                                 f" differ from those of {names[0]}")

    table = tie_averaged_ranks([[by_name[name][case_id][col]
                                 for case_id in case_ids for col in columns]
                                for name in names])
    scores = {name: float(table[i].mean()) for i, name in enumerate(names)}
    return RankingResult(candidates=names, scores=scores, rank_table=table)


def write_ranking_csv(path: str | Path, result: RankingResult) -> None:
    """Summary CSV: one row per candidate with its mean-rank score."""
    ordered = sorted(result.candidates, key=lambda n: (result.scores[n], n))
    write_case_table(path, ["ranking_score"], [(n, [result.scores[n]]) for n in ordered],
                     key="candidate_id")
