"""Behaviour gate for lesion-wise scoring: ``evaluate_case(prediction,
ground_truth)`` of the three seeded cases of ``feature_gate.json`` must
equal the pinned values in ``metric_gate.json`` exactly.

The recipes and indices come from ``feature_gate.json``; this fixture
holds only the per-case metric values, written as repr floats, so a
change in the last bit of any Dice or NSD fails the gate.  A change that
is meant to alter metric values recomputes them with

    PYTHONPATH=src python tests/test_metric_gate.py

and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from gliopost.metrics import evaluate_case
from gliopost.synth import SynthConfig, generate_case

RECIPES = Path(__file__).with_name("feature_gate.json")
FIXTURE = Path(__file__).with_name("metric_gate.json")
CASE_IDS = ("accept-0", "accept-1", "crowded-0")


def _evaluate(recipe: dict, index: int) -> dict[str, float]:
    bundle, _ = generate_case(SynthConfig.from_dict(recipe), index)
    return evaluate_case(bundle.prediction, bundle.ground_truth).values


def _recipes() -> list[tuple[dict, int]]:
    cases = json.loads(RECIPES.read_text())["cases"]
    return [(c["recipe"], c["index"]) for c in cases]


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_metrics_match_pinned_values(case_id):
    recipe, index = _recipes()[CASE_IDS.index(case_id)]
    want = json.loads(FIXTURE.read_text())[case_id]
    assert _evaluate(recipe, index) == want


if __name__ == "__main__":
    pinned = {cid: _evaluate(recipe, index)
              for cid, (recipe, index) in zip(CASE_IDS, _recipes())}
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
