"""``--config`` fuzzing: each command is given a configuration document
built from its option spec, then mutated, on a tiny 16^3 corpus.  Every
run exits 0, 2, 3 or 4, never with an uncaught exception (exit 1), and
a configuration error (exit 2) leaves no ``--out``."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from gliopost.cli import _COMMANDS, _defaults, main

RECIPE = {
    "seed": 5,
    "dims": [16, 16, 16],
    "lesion_count": [1, 1],
    "lesion_radius": [3.0, 4.5],
    "shells": [{"label": 3, "outer": [0.45, 0.6]}, {"label": 2, "outer": [1.0, 1.0]}],
    "islands": [{"label": 3, "count": [1, 1], "size": [2, 4]}],
    "island_margin": 3,
}

# wrong types, nested junk, NaN and infinities, integers beyond 64 bits
# and strings; small integers stay small, so no valid run starts many
# workers, and junk strings hold no digits, so none reads as a large count
JUNK = st.one_of(
    st.sampled_from([None, True, 1.5, -1, 0, 2]),
    st.sampled_from([[], {}, [None], [[1, 2]], {"a": [1, {"b": None}]}]),
    st.sampled_from([math.nan, math.inf, -math.inf, [math.nan]]),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 30, 10 ** 400, [10 ** 400]]),
    st.text(alphabet="ab,/ .-=\x00", max_size=4),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 4-case corpus with its features, policy and metrics."""
    root = tmp_path_factory.mktemp("fuzz")
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps(RECIPE))
    data = root / "corpus"
    runs = [
        ["synth", "--config", str(recipe), "--out", str(data), "--cases", "4"],
        ["extract-features", "--preds", str(data / "preds"), "--images",
         str(data / "images"), "--out", str(root / "features")],
        ["fit-policy", "--preds", str(data / "preds"), "--images", str(data / "images"),
         "--gt", str(data / "gt"), "--features", str(root / "features" / "features.csv"),
         "--k-range", "2", "--restarts", "1", "--pcc-grid", "0,5",
         "--cutoff-grid", "0,0.5", "--out", str(root / "fit")],
        ["evaluate", "--preds", str(data / "preds"), "--gt", str(data / "gt"),
         "--out", str(root / "metrics")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return root


def _base_document(command: str, root: Path) -> dict:
    """Every option of ``command`` at its default, but for the inputs,
    which name the corpus, and for small grids and a small recipe."""
    spec = _COMMANDS[command][0]
    doc = _defaults(spec)
    data = root / "corpus"
    paths = {"preds": data / "preds", "images": data / "images", "gt": data / "gt",
             "policy": root / "fit" / "policy.json",
             "features": root / "features" / "features.csv"}
    doc |= {dest: str(path) for dest, path in paths.items()
            if dest in {opt.dest for opt in spec}}
    metrics = str(root / "metrics" / "metrics.csv")
    doc |= {
        "synth": dict(RECIPE, cases=2),
        "fit-policy": {"k_range": [2], "restarts": 1, "pcc_grid": [0, 5],
                       "cutoff_grid": [0.0, 0.5]},
        "rank": {"csvs": [f"a={metrics}", f"b={metrics}"]},
    }.get(command, {})
    return doc


@st.composite
def mutated(draw, doc: dict):
    """``doc`` after one to three mutations, most of them a value
    replaced by junk (a string only where the value is not one); the
    others a list given as the string of its items, an unknown key
    added, a key removed, or the document wrapped in a list."""
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, dict):
            break
        doc = dict(doc)
        key = draw(st.sampled_from(sorted(doc))) if doc else "bogus"
        action = draw(st.sampled_from(("junk",) * 4 + ("as string", "unknown", "remove",
                                                       "not an object")))
        if action == "remove":
            doc.pop(key, None)
        elif action == "unknown":
            doc[draw(st.sampled_from(("bogus", "Out", "")))] = draw(JUNK)
        elif action == "as string" and isinstance(doc.get(key), list):
            doc[key] = ",".join(map(str, doc[key]))
        elif action == "not an object":
            doc = [doc]
        else:
            junk = draw(JUNK)
            if not (isinstance(junk, str) and isinstance(doc.get(key), str)):
                doc[key] = junk
    return doc


@pytest.mark.parametrize("command", list(_COMMANDS))
@seed(17)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_exits_cleanly(corpus, monkeypatch, command, data):
    monkeypatch.chdir(corpus)  # relative junk paths stay in the corpus root
    out = Path(tempfile.mkdtemp(dir=corpus)) / "out"
    doc = data.draw(mutated(dict(_base_document(command, corpus), out=str(out))))
    config = out.with_name("config.json")
    config.write_text(json.dumps(doc))
    code = main([command, "--config", str(config)])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert not out.exists()
