"""Mean-rank comparison semantics: ties, dominance, invariances."""

import csv

import numpy as np
import pytest

from gliopost.metrics import CaseMetrics
from gliopost.ranking import (
    RankingResult,
    rank_candidates,
    tie_averaged_ranks,
    write_ranking_csv,
)

from oracles import brute_tie_ranks


def _rows(name_values: dict[str, dict[str, float]]):
    """Build CaseMetrics rows: {case_id: {column: value}}."""
    return [CaseMetrics(case_id=cid, values=vals) for cid, vals in name_values.items()]


def test_tie_averaged_ranks_examples():
    assert tie_averaged_ranks([1.0, 0.5]).tolist() == [1.0, 2.0]
    assert tie_averaged_ranks([0.7, 0.7]).tolist() == [1.5, 1.5]
    assert tie_averaged_ranks([0.2, 0.9, 0.9, 0.1]).tolist() == [3.0, 1.5, 1.5, 4.0]
    assert tie_averaged_ranks([5.0]).tolist() == [1.0]


def test_tie_averaged_ranks_match_counting_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        vals = rng.integers(0, 4, size=n) / 3.0  # force frequent ties
        assert tie_averaged_ranks(vals).tolist() == brute_tie_ranks(vals.tolist())


def test_tie_averaged_ranks_sum_is_fixed():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        vals = rng.random(n).round(1)
        assert tie_averaged_ranks(vals).sum() == pytest.approx(n * (n + 1) / 2)


def test_dominant_candidate_gets_rank_one():
    better = _rows({"c1": {"m1": 0.9, "m2": 0.8}, "c2": {"m1": 0.7, "m2": 0.95}})
    worse = _rows({"c1": {"m1": 0.5, "m2": 0.6}, "c2": {"m1": 0.2, "m2": 0.3}})
    result = rank_candidates({"better": better, "worse": worse})
    assert result.scores["better"] == 1.0
    assert result.scores["worse"] == 2.0


def test_identical_candidates_tie_at_one_point_five():
    rows_a = _rows({"c1": {"m": 0.8}, "c2": {"m": 0.6}})
    rows_b = _rows({"c1": {"m": 0.8}, "c2": {"m": 0.6}})
    result = rank_candidates({"a": rows_a, "b": rows_b})
    assert result.scores == {"a": 1.5, "b": 1.5}


def test_three_candidate_hand_oracle():
    # two cases, one metric; per-cell ranks worked out by hand
    a = _rows({"c1": {"m": 0.9}, "c2": {"m": 0.1}})
    b = _rows({"c1": {"m": 0.5}, "c2": {"m": 0.5}})
    c = _rows({"c1": {"m": 0.1}, "c2": {"m": 0.9}})
    result = rank_candidates({"a": a, "b": b, "c": c})
    # cell c1: a=1, b=2, c=3; cell c2: a=3, b=2, c=1
    assert result.scores == {"a": 2.0, "b": 2.0, "c": 2.0}
    assert result.rank_table.shape == (3, 2)


def test_scores_always_average_to_midpoint():
    rng = np.random.default_rng(43)
    for n_cand in (2, 3, 5):
        cand = {}
        for i in range(n_cand):
            cand[f"cand{i}"] = _rows(
                {f"case{j}": {"m1": float(rng.random()), "m2": float(rng.random())}
                 for j in range(4)}
            )
        result = rank_candidates(cand)
        mean = sum(result.scores.values()) / n_cand
        assert mean == pytest.approx((n_cand + 1) / 2, abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(47)
    base = {f"case{j}": {"m": float(rng.random())} for j in range(5)}
    shift = {k: {"m": v["m"] * 0.5} for k, v in base.items()}
    r1 = rank_candidates({"a": _rows(base), "b": _rows(shift)})
    cubed = {k: {"m": v["m"] ** 3} for k, v in base.items()}
    cubed_shift = {k: {"m": v["m"] ** 3} for k, v in shift.items()}
    r2 = rank_candidates({"a": _rows(cubed), "b": _rows(cubed_shift)})
    assert r1.scores == r2.scores
    assert np.array_equal(r1.rank_table, r2.rank_table)


def test_adding_dominated_candidate_keeps_relative_order():
    rng = np.random.default_rng(53)
    a = {f"case{j}": {"m": float(rng.uniform(0.8, 1.0))} for j in range(6)}
    b = {f"case{j}": {"m": float(rng.uniform(0.4, 0.6))} for j in range(6)}
    z = {f"case{j}": {"m": float(rng.uniform(0.0, 0.2))} for j in range(6)}
    two = rank_candidates({"a": _rows(a), "b": _rows(b)})
    three = rank_candidates({"a": _rows(a), "b": _rows(b), "z": _rows(z)})
    assert two.scores["a"] < two.scores["b"]
    assert three.scores["a"] < three.scores["b"] < three.scores["z"]


def test_rank_candidates_validation():
    rows = _rows({"c1": {"m": 0.5}})
    with pytest.raises(ValueError, match="two candidates"):
        rank_candidates({"only": rows})
    other = _rows({"cX": {"m": 0.5}})
    with pytest.raises(ValueError, match="different cases"):
        rank_candidates({"a": rows, "b": other})
    dup = _rows({"c1": {"m": 0.5}}) + _rows({"c1": {"m": 0.6}})
    with pytest.raises(ValueError, match="duplicate"):
        rank_candidates({"a": dup, "b": dup})
    # every row carries exactly the first row's columns: none missing, none extra
    two = _rows({"c1": {"m": 0.5, "n": 0.5}, "c2": {"m": 0.5, "n": 0.5}})
    for name, changed in (("c2", {"m": 0.5}), ("c1", {"m": 0.5, "n": 0.5, "o": 0.5})):
        bad = _rows({"c1": {"m": 0.5, "n": 0.5}, "c2": {"m": 0.5, "n": 0.5}} | {name: changed})
        with pytest.raises(ValueError, match=f"candidate b, case {name}: metric columns"):
            rank_candidates({"a": two, "b": bad})


def test_write_ranking_csv(tmp_path):
    result = RankingResult(
        candidates=("b", "a"),
        scores={"b": 1.75, "a": 1.25},
        rank_table=np.array([[2.0], [1.0]]),
    )
    path = tmp_path / "ranking.csv"
    write_ranking_csv(path, result)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["candidate_id", "ranking_score"]
    assert rows[1] == ["a", "1.25"]  # best first
    assert rows[2] == ["b", "1.75"]
