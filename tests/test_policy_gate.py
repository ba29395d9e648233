"""Behaviour gate for policy fitting: ``fit_policy_report`` on two
seeded corpora, written to a temporary directory, must reproduce the
cluster assignments, component-size thresholds, relabel rules, confusion
matrix and relabel candidates pinned in ``policy_gate.json`` exactly, at
one thread and at two.

The corpora are the first cases of the acceptance recipe (one lesion,
islands of every label, a 3->1 swap) and of the crowded recipe (two or
three small lesions, 12-18 islands, jitter) of ``bench/run.py``.  A
change that is meant to alter a fitted policy recomputes the fixture with

    PYTHONPATH=src python tests/test_policy_gate.py

and says so in CHANGES.md.
"""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from gliopost.policy import fit_policy_report
from gliopost.radiomics import FeatureMatrix, extract_case_features
from gliopost.synth import SynthConfig, generate_case
from gliopost.volume import save_nifti, seg_filename

FIXTURE = Path(__file__).with_name("policy_gate.json")
# thresholds around the 3-8 voxel island sizes make the search close
PCC_GRID = (0, 2, 3, 4, 5, 6, 7, 8, 10, 20, 50, 100)

_ISLANDS = [{"label": label, "size": [3, 8]} for label in (1, 2, 3)]
CORPORA = {
    "accept": ({
        "seed": 2,
        "dims": [64, 64, 64],
        "lesion_count": [1, 1],
        "lesion_radius": [13.0, 16.0],
        "axis_scale": [0.85, 1.0],
        "shells": [{"label": 3, "outer": [0.41, 0.51]},
                   {"label": 2, "outer": [1.0, 1.0]}],
        "islands": [dict(spec, count=[1, 2]) for spec in _ISLANDS],
        "swap": {"src": 3, "dst": 1, "trigger": 0.085},
        "island_margin": 7,
    }, 8),
    "crowded": ({
        "seed": 3,
        "dims": [64, 64, 64],
        "lesion_count": [2, 3],
        "lesion_radius": [7.0, 10.0],
        "axis_scale": [0.85, 1.0],
        "shells": [{"label": 3, "outer": [0.35, 0.45]},
                   {"label": 1, "outer": [0.55, 0.7]},
                   {"label": 2, "outer": [1.0, 1.0]}],
        "islands": [dict(spec, count=[4, 6]) for spec in _ISLANDS],
        "jitter": 12,
        "island_margin": 5,
    }, 6),
}


@lru_cache(maxsize=None)
def _corpus(name: str):
    """The temporary directory the corpus's masks are written to (removed
    when the interpreter exits), the corpus's case ids, the directories
    of its predicted and ground-truth masks, and its feature matrix."""
    recipe, n_cases = CORPORA[name]
    cfg = SynthConfig.from_dict(recipe)
    cases = [generate_case(cfg, index)[0] for index in range(n_cases)]
    masks = tempfile.TemporaryDirectory(prefix=f"policy-gate-{name}-")
    dirs = [Path(masks.name) / sub for sub in ("preds", "gt")]
    for directory in dirs:
        directory.mkdir()
    for case in cases:
        for directory, mask in zip(dirs, (case.prediction, case.ground_truth)):
            save_nifti(mask, directory / seg_filename(case.case_id))
    features = FeatureMatrix.from_vectors(
        [extract_case_features(c) for c in cases])
    return masks, [c.case_id for c in cases], *map(str, dirs), features


def _fit(name: str, **kwargs) -> dict:
    _, *corpus = _corpus(name)
    policy, report = fit_policy_report(
        *corpus, pcc_grid=PCC_GRID, n_confusions=3, **kwargs)
    return {
        "assignments": report.assignments,
        "pcc_thresholds": {
            str(cluster): {str(label): t for label, t in labels.items()}
            for cluster, labels in policy.thresholds.items()
        },
        "relabel_rules": [rule.to_dict() for rule in policy.rules],
        "confusion": report.confusion.tolist(),
        "candidates": [list(pair) for pair in report.candidates],
    }


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_fit_matches_pinned_policy(name, threads):
    want = json.loads(FIXTURE.read_text())[name]
    assert _fit(name, threads=threads) == want


if __name__ == "__main__":
    pinned = {name: _fit(name) for name in sorted(CORPORA)}
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
