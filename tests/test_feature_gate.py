"""Behaviour gate for feature extraction: the full 386-value vectors of
three seeded synthetic cases must match the pinned values in
``feature_gate.json`` to 1e-9 relative.

The fixture holds each case's synth recipe and index with its values:
cases 0 and 1 of the acceptance recipe of ``test_acceptance.py`` (one
lesion, islands of every label, a 3->1 swap) and case 0 of a crowded
recipe (three lesions, 18 islands, jitter).  A change that is meant to
alter feature values recomputes the pinned values with

    PYTHONPATH=src python tests/test_feature_gate.py

and says so in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gliopost.radiomics import extract_case_features, feature_names
from gliopost.synth import SynthConfig, generate_case

FIXTURE = Path(__file__).with_name("feature_gate.json")
RTOL = 1e-9


def _extract(recipe: dict, index: int) -> np.ndarray:
    bundle, _ = generate_case(SynthConfig.from_dict(recipe), index)
    return extract_case_features(bundle).values


def _pinned() -> list[dict]:
    return json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("pinned", _pinned(), ids=("accept-0", "accept-1", "crowded-0"))
def test_features_match_pinned_vectors(pinned):
    want = np.array(pinned["values"])
    got = _extract(pinned["recipe"], pinned["index"])
    assert got.shape == want.shape
    close = np.isclose(got, want, rtol=RTOL, atol=0.0)
    names = feature_names()
    bad = [(names[i], got[i], want[i]) for i in np.nonzero(~close)[0]]
    assert not bad, bad[:5]


if __name__ == "__main__":
    cases = _pinned()
    for case in cases:
        case["values"] = _extract(case["recipe"], case["index"]).tolist()
    FIXTURE.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
