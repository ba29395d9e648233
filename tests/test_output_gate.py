"""Behaviour gate for the command-line outputs: a small seeded run of
every stage (``synth``, ``extract-features``, ``fit-policy --features
--k-range 2``, ``apply``, ``evaluate`` on the raw and on the applied
masks, ``rank``) must reproduce the blake2b digests of the decoded
``apply`` masks and the bytes of ``ranking.csv`` pinned in
``output_gate.json``.

The corpora use the acceptance recipe and the crowded recipe of
``test_policy_gate``, seeds included.  The fixture also names the
held-out cases whose clusters disagree, that is, where the actions of
different clusters give different masks, so the gate covers both the
cases whose cluster must be computed and the cases whose cluster does
not matter.
A change that is meant to alter these outputs recomputes the fixture
with

    PYTHONPATH=src python tests/test_output_gate.py

and says so in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from gliopost.cli import main
from gliopost.policy import apply_component_thresholds, load_policy
from gliopost.volume import discover_case_ids, load_nifti, seg_filename

from oracles import naive_postprocess
from test_policy_gate import CORPORA as RECIPES

FIXTURE = Path(__file__).with_name("output_gate.json")

# name -> (recipe, training cases, held-out cases, threads)
CORPORA = {
    "accept": (RECIPES["accept"][0], 6, 4, 2),
    "crowded": (RECIPES["crowded"][0], 4, 3, 1),
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _cli(*argv: str) -> None:
    code = main(list(argv))
    assert code == 0, f"{argv[0]} exited with {code}"


def _disagreeing(policy_path: Path, preds: Path) -> list[str]:
    """Held-out cases on which the clusters' actions give different masks."""
    policy = load_policy(policy_path)
    out = []
    for cid in discover_case_ids(preds):
        seg = load_nifti(preds / seg_filename(cid), kind="label").data
        masks = set()
        for cluster in range(policy.kmeans.k):
            done = apply_component_thresholds(
                seg, policy.thresholds[cluster], policy.objective.connectivity)
            done = naive_postprocess(
                done, {}, [r for r in policy.rules if r.cluster == cluster])
            masks.add(done.tobytes())
        if len(masks) > 1:
            out.append(cid)
    return out


def _run(name: str, root: Path) -> dict:
    recipe, n_train, n_held, threads = CORPORA[name]
    recipe_path = root / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    train, held = root / "train", root / "held"
    th = ("--threads", str(threads))
    _cli("synth", "--config", str(recipe_path), "--out", str(train),
         "--cases", str(n_train), *th)
    _cli("synth", "--config", str(recipe_path), "--out", str(held),
         "--cases", str(n_held), "--start-index", str(n_train), *th)
    _cli("extract-features", "--preds", str(train / "preds"),
         "--images", str(train / "images"), "--out", str(root / "features"),
         *th)
    _cli("fit-policy", "--preds", str(train / "preds"),
         "--images", str(train / "images"), "--gt", str(train / "gt"),
         "--features", str(root / "features" / "features.csv"),
         "--k-range", "2", "--out", str(root / "fit"), *th)
    _cli("apply", "--policy", str(root / "fit" / "policy.json"),
         "--preds", str(held / "preds"), "--images", str(held / "images"),
         "--out", str(root / "post"), *th)
    for name_, preds in (("identity", held / "preds"), ("fitted", root / "post")):
        _cli("evaluate", "--preds", str(preds), "--gt", str(held / "gt"),
             "--out", str(root / f"metrics-{name_}"), *th)
    _cli("rank", f"fitted={root / 'metrics-fitted' / 'metrics.csv'}",
         f"identity={root / 'metrics-identity' / 'metrics.csv'}",
         "--out", str(root / "ranking"))
    masks = {
        cid: _digest(load_nifti(root / "post" / seg_filename(cid),
                                kind="label").data.tobytes())
        for cid in discover_case_ids(held / "preds")
    }
    return {
        "masks": masks,
        "ranking.csv": (root / "ranking" / "ranking.csv").read_text(),
        "clusters_disagree": _disagreeing(root / "fit" / "policy.json",
                                          held / "preds"),
    }


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_outputs_match_pinned_digests(name, tmp_path):
    want = json.loads(FIXTURE.read_text())[name]
    assert _run(name, tmp_path) == want


def test_fixture_pins_cases_whose_clusters_disagree():
    pinned = json.loads(FIXTURE.read_text())
    for name in CORPORA:
        assert set(pinned[name]["clusters_disagree"]) <= set(pinned[name]["masks"])
    assert any(pinned[name]["clusters_disagree"] for name in CORPORA)
    assert any(set(pinned[name]["masks"]) - set(pinned[name]["clusters_disagree"])
               for name in CORPORA)


if __name__ == "__main__":
    pinned = {}
    for name in sorted(CORPORA):
        with tempfile.TemporaryDirectory() as root:
            pinned[name] = _run(name, Path(root))
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
