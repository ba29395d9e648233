"""End-to-end command-line behavior, exit codes, reproducibility."""

import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core._exceptions import _ArrayMemoryError

import gliopost
from gliopost.cli import main
from gliopost.metrics import (
    REGIONS_POST_TREATMENT,
    RankObjective,
    evaluate_case,
    read_metrics_csv,
)
from gliopost.radiomics import read_feature_csv
from gliopost.volume import LabelMap, Spacing, load_nifti, save_nifti

RECIPE = {
    "seed": 33,
    "dims": [24, 24, 24],
    "lesion_count": [1, 1],
    "lesion_radius": [5.0, 6.5],
    "shells": [
        {"label": 3, "outer": [0.45, 0.6]},
        {"label": 2, "outer": [1.0, 1.0]},
    ],
    "islands": [{"label": 3, "count": [1, 2], "size": [3, 8]}],
    "island_margin": 5,
}


def _write_recipe(directory: Path, **overrides) -> Path:
    doc = dict(RECIPE, **overrides)
    path = directory / "recipe.json"
    path.write_text(json.dumps(doc))
    return path


def _tree_bytes(root: Path, skip=("run-config.json",)) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    recipe = _write_recipe(root)
    out = root / "train"
    assert main(["synth", "--config", str(recipe), "--out", str(out),
                 "--cases", "6"]) == 0
    return out


@pytest.fixture(scope="module")
def pipeline(corpus, tmp_path_factory):
    """Run extract / fit / apply / evaluate / rank once for reuse."""
    work = tmp_path_factory.mktemp("pipeline")
    preds = str(corpus / "preds")
    images = str(corpus / "images")
    gt = str(corpus / "gt")

    features = work / "features"
    assert main(["extract-features", "--preds", preds, "--images", images,
                 "--out", str(features)]) == 0

    fit = work / "fit"
    assert main(["fit-policy", "--preds", preds, "--images", images,
                 "--gt", gt, "--out", str(fit),
                 "--k-range", "2", "--restarts", "3", "--seed", "5"]) == 0

    applied = work / "applied"
    assert main(["apply", "--policy", str(fit / "policy.json"),
                 "--preds", preds, "--images", images,
                 "--out", str(applied)]) == 0

    raw_metrics = work / "metrics-raw"
    assert main(["evaluate", "--preds", preds, "--gt", gt,
                 "--out", str(raw_metrics)]) == 0
    post_metrics = work / "metrics-post"
    assert main(["evaluate", "--preds", str(applied), "--gt", gt,
                 "--out", str(post_metrics)]) == 0

    return {
        "work": work,
        "corpus": corpus,
        "features": features,
        "fit": fit,
        "applied": applied,
        "raw_metrics": raw_metrics,
        "post_metrics": post_metrics,
    }


# -- argument and config handling ------------------------------------------------

def test_no_command_is_a_usage_error():
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["synth", "--help"]) == 0
    assert "corpus" in capsys.readouterr().out


def test_missing_required_option(tmp_path):
    assert main(["synth", "--cases", "2"]) == 2
    assert main(["extract-features", "--preds", str(tmp_path)]) == 2
    assert main(["rank", "--out", str(tmp_path)]) == 2


def test_rejected_flag_values(tmp_path):
    out = str(tmp_path / "c")
    assert main(["synth", "--out", out, "--cases", "two"]) == 2
    assert main(["evaluate", "--preds", out, "--gt", out, "--out", out,
                 "--task", "nonsense"]) == 2
    assert main(["evaluate", "--preds", out, "--gt", out, "--out", out,
                 "--connectivity", "18"]) == 2
    config = tmp_path / "connectivity.json"
    config.write_text(json.dumps({"connectivity": 18}))
    assert main(["evaluate", "--config", str(config), "--preds", out,
                 "--gt", out, "--out", out]) == 2
    evaluate = ["evaluate", "--preds", out, "--gt", out, "--out", out]
    fit = ["fit-policy", "--preds", out, "--images", out, "--gt", out,
           "--features", str(tmp_path / "features.csv"), "--out", out]
    threads = tmp_path / "threads.json"
    threads.write_text(json.dumps({"threads": 0}))
    for argv in (evaluate, fit):
        assert main(argv + ["--threads", "0"]) == 2
        assert main(argv + ["--config", str(threads)]) == 2
    # tolerances must be finite, > 0 and distinct; the dilation >= 0
    for flag, value in (("--tolerances", "0"), ("--tolerances", "-1"),
                        ("--tolerances", "nan"), ("--tolerances", "inf"),
                        ("--tolerances", "1,1"), ("--tolerances", "0.5,1,1.0"),
                        ("--dilation", "-1")):
        assert main(evaluate + [flag, value]) == 2, (flag, value)
    metric = tmp_path / "metric.json"
    for doc in ({"tolerances": [0]}, {"tolerances": "nan"}, {"tolerances": [1, 1.0]},
                {"dilation": -1}):
        metric.write_text(json.dumps(doc))
        assert main(evaluate + ["--config", str(metric)]) == 2, doc
    assert not (tmp_path / "c").exists()


def test_bin_settings_are_checked_when_parsed(tmp_path, corpus):
    """The bin width must be finite and > 0 and the bin count >= 1, from a
    flag or from --config, before anything is written."""
    out = tmp_path / "c"
    inputs = ["--preds", str(corpus / "preds"), "--images", str(corpus / "images")]
    extract = ["extract-features", *inputs, "--out", str(out)]
    fit = ["fit-policy", *inputs, "--gt", str(corpus / "gt"), "--out", str(out)]
    bad = (("bin_width", float("nan")), ("bin_width", float("inf")),
           ("bin_width", 0.0), ("bin_width", -25.0), ("bin_count", 0),
           ("bin_count", -1))
    config = tmp_path / "bins.json"
    for argv in (extract, fit):
        for key, value in bad:
            flag = "--" + key.replace("_", "-")
            assert main(argv + [flag, str(value)]) == 2, (argv[0], flag, value)
            config.write_text(json.dumps({key: value}))
            assert main(argv + ["--config", str(config)]) == 2, (argv[0], key, value)
    assert not out.exists()


@pytest.mark.parametrize("key, value", (
    ("pcc_grid", [-5, 0]), ("pcc_grid", [10, 20]), ("pcc_grid", []),
    ("cutoff_grid", [-0.5, 0]), ("cutoff_grid", [0, 2]),
    ("cutoff_grid", [0, float("nan")]), ("cutoff_grid", [0, float("inf")]),
    ("cutoff_grid", [0.1, 0.2]), ("restarts", 0), ("confusions", 0),
))
def test_fit_options_are_checked_when_parsed(tmp_path, corpus, key, value):
    """fit-policy's grids hold values >= 0 (cutoffs finite and in [0, 1])
    including 0, and its restarts and confusions are >= 1, from a flag or
    from --config, before anything is written."""
    out = tmp_path / "c"
    fit = ["fit-policy", "--preds", str(corpus / "preds"),
           "--images", str(corpus / "images"), "--gt", str(corpus / "gt"),
           "--out", str(out)]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    assert main(fit + [f"--{key.replace('_', '-')}={text}"]) == 2
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({key: value}))
    assert main(fit + ["--config", str(config)]) == 2
    assert not out.exists()


def test_config_file_errors(tmp_path):
    out = str(tmp_path / "c")
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"not_an_option": 1}))
    assert main(["synth", "--config", str(bogus), "--out", out,
                 "--cases", "1"]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["synth", "--config", str(broken), "--out", out,
                 "--cases", "1"]) == 2

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["synth", "--config", str(listy), "--out", out,
                 "--cases", "1"]) == 2

    assert main(["synth", "--config", str(tmp_path / "absent.json"),
                 "--out", out, "--cases", "1"]) == 2


def test_flags_override_config_file(tmp_path):
    recipe = _write_recipe(tmp_path, seed=5)
    out = tmp_path / "c"
    assert main(["synth", "--config", str(recipe), "--out", str(out),
                 "--cases", "0", "--seed", "7"]) == 0
    echoed = json.loads((out / "run-config.json").read_text())
    assert echoed["command"] == "synth"
    assert echoed["config"]["seed"] == 7  # flag beats config file
    assert echoed["config"]["islands"] == RECIPE["islands"]  # config beats default
    assert echoed["config"]["cases"] == 0
    assert "threads" not in echoed["config"]


_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
from gliopost import parallel
at_calls = []
real = parallel.map_ordered
def probe(*args, **kwargs):
    at_calls.append("scipy.ndimage" in sys.modules)
    return real(*args, **kwargs)
# patched before cli, or any module a command imports later, binds it
parallel.map_ordered = probe
from gliopost import cli
code = cli.main({argv!r})
print(json.dumps({{
    "code": code, "at_calls": at_calls,
    "unprobed": sorted(n for n, m in list(sys.modules.items())
                       if n.startswith("gliopost") and getattr(m, "map_ordered", None) is real),
    "loaded": sorted(m for m in sys.modules if m.startswith("scipy.")),
    "package": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("gliopost.")),
    "numpy_ma": sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")),
    "pool": "concurrent.futures.process" in sys.modules,
}}))
"""


def _fresh_run(argv: list[str]) -> dict:
    """``main(argv)`` in a new interpreter: its exit code; the scipy
    modules, the package's modules and the ``numpy.ma`` modules loaded
    when it returned; whether ``concurrent.futures.process`` was; for
    each ``map_ordered`` call, whether ``scipy.ndimage`` was loaded by
    then; and the package modules still bound to the unprobed
    ``map_ordered``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _PROBE.format(src=src, argv=argv)],
                         check=True, capture_output=True, text=True,
                         timeout=300).stdout
    return json.loads(out.splitlines()[-1])


def test_per_command_scipy_import_sets(pipeline, tmp_path):
    """Each command loads only what it runs.  Every command, synth and
    its Gaussian-smoothed noise included, runs on numpy alone: it loads
    no scipy.ndimage, scipy.sparse or scipy.spatial, neither by its first
    map_ordered call nor by its end, and only synth loads gliopost.synth.
    evaluate loads metrics and what metrics imports, rank also ranking.
    At one thread no command loads the process pool.  Only feature
    extraction (np.percentile) loads a numpy.ma module that a bare
    ``import numpy`` does not: fit-policy here reads precomputed
    features, and apply extracts them only for a case that needs its
    cluster, which none here does."""
    corpus = pipeline["corpus"]
    preds, images, gt = (str(corpus / d) for d in ("preds", "images", "gt"))
    recipe = _write_recipe(tmp_path)
    raw = str(pipeline["raw_metrics"] / "metrics.csv")
    post = str(pipeline["post_metrics"] / "metrics.csv")
    bare_numpy = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, sys, numpy; print(json.dumps(sorted("
                               "m for m in sys.modules"
                               " if m == 'numpy.ma' or m.startswith('numpy.ma.'))))"],
        check=True, capture_output=True, text=True).stdout)
    evaluate_set = ["cli", "metrics", "morphology", "nifti", "parallel", "volume"]
    commands = {
        "synth": ["synth", "--config", str(recipe), "--cases", "1",
                  "--out", str(tmp_path / "s")],
        "extract-features": ["extract-features", "--preds", preds,
                             "--images", images, "--out", str(tmp_path / "f")],
        "rank": ["rank", f"raw={raw}", f"post={post}", "--out", str(tmp_path / "r")],
        "fit-policy": ["fit-policy", "--preds", preds, "--images", images,
                       "--gt", gt, "--out", str(tmp_path / "fit"),
                       "--features", str(pipeline["features"] / "features.csv"),
                       "--k-range", "2", "--restarts", "3", "--seed", "5"],
        "apply": ["apply", "--policy", str(pipeline["fit"] / "policy.json"),
                  "--preds", preds, "--images", images, "--out", str(tmp_path / "a")],
        "evaluate": ["evaluate", "--preds", preds, "--gt", gt,
                     "--out", str(tmp_path / "e")],
    }
    for command, argv in commands.items():
        run = _fresh_run(argv)
        assert run["code"] == 0, command
        assert [m for m in run["loaded"]
                if m.split(".")[1] in ("ndimage", "sparse", "spatial")] == [], command
        assert not any(run["at_calls"]), command
        assert bool(run["at_calls"]) == (command != "rank"), command
        assert run["unprobed"] == [], command
        assert ("synth" in run["package"]) == (command == "synth"), command
        assert not run["pool"], command
        if command != "extract-features":
            assert run["numpy_ma"] == bare_numpy, command
        if command == "evaluate":
            assert run["package"] == evaluate_set
        if command == "rank":
            assert run["package"] == sorted(evaluate_set + ["ranking"])


def test_run_record_is_added_after_success(pipeline, tmp_path, monkeypatch):
    from gliopost import ranking

    out = tmp_path / "rank"
    raw = str(pipeline["raw_metrics"] / "metrics.csv")
    post = str(pipeline["post_metrics"] / "metrics.csv")
    echoes = []
    real = ranking.write_ranking_csv

    def snapshot(*args, **kwargs):
        echoes.append(json.loads((out / "run-config.json").read_text()))
        return real(*args, **kwargs)

    monkeypatch.setattr(ranking, "write_ranking_csv", snapshot)
    assert main(["rank", f"identity={raw}", f"fitted={post}",
                 "--out", str(out)]) == 0
    (echo,) = echoes
    assert "run" not in echo
    done = json.loads((out / "run-config.json").read_text())
    assert done["command"] == echo["command"] == "rank"
    assert done["config"] == echo["config"]
    run = done["run"]
    assert set(run) == {"wall_s", "peak_rss_mb", "versions"}
    assert run["wall_s"] > 0
    assert set(run["peak_rss_mb"]) == {"process", "children"}
    assert run["peak_rss_mb"]["process"] > 0
    assert run["peak_rss_mb"]["children"] >= 0
    assert run["versions"] == {"gliopost": gliopost.__version__,
                               "numpy": np.__version__,
                               "scipy": scipy.__version__}
    assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    # a failed command keeps the early echo, without a run record: here
    # evaluate, whose cases all lack their ground truth
    failed, no_gt = tmp_path / "failed", tmp_path / "no-gt"
    no_gt.mkdir()
    assert main(["evaluate", "--preds", str(pipeline["corpus"] / "preds"),
                 "--gt", str(no_gt), "--out", str(failed)]) == 3
    assert "run" not in json.loads((failed / "run-config.json").read_text())


# -- synth ------------------------------------------------------------------------

def test_synth_writes_corpus_layout(corpus):
    for sub in ("images", "preds", "gt"):
        assert (corpus / sub).is_dir()
    inventory = json.loads((corpus / "inventory.json").read_text())
    assert sorted(inventory["cases"]) == [f"case-{i:04d}" for i in range(6)]
    for cid in inventory["cases"]:
        assert (corpus / "preds" / f"{cid}-seg.nii.gz").exists()
        assert (corpus / "gt" / f"{cid}-seg.nii.gz").exists()
        for seq in ("t1c", "t1n", "t2f", "t2w"):
            assert (corpus / "images" / f"{cid}-{seq}.nii.gz").exists()
    assert "run-config.json" in {p.name for p in corpus.iterdir()}


def test_synth_zero_cases_warns_but_succeeds(tmp_path, caplog):
    out = tmp_path / "empty"
    with caplog.at_level(logging.WARNING):
        assert main(["synth", "--out", str(out), "--cases", "0"]) == 0
    assert any("no cases" in r.message for r in caplog.records)
    inventory = json.loads((out / "inventory.json").read_text())
    assert inventory["cases"] == {}


def test_synth_negative_cases_is_invalid(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "c"), "--cases", "-1"]) == 4


def test_synth_reruns_are_byte_identical(tmp_path):
    recipe = _write_recipe(tmp_path)
    runs = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert main(["synth", "--config", str(recipe), "--out", str(out),
                     "--cases", "3", "--threads", threads]) == 0
        runs[name] = _tree_bytes(out)
    assert runs["a"] == runs["b"]
    assert runs["a"] == runs["c"]


# -- extract-features ----------------------------------------------------------------

def test_extract_features_table(pipeline):
    features = pipeline["features"]
    matrix = read_feature_csv(features / "features.csv")
    assert len(matrix.case_ids) == 6
    assert len(matrix.names) == 386
    header = (features / "features.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "case_id"
    assert len(header.split(",")) == 387
    manifest = json.loads((features / "feature-manifest.json").read_text())
    assert len(manifest["feature_names"]) == 386


def test_extract_features_threads_do_not_change_output(pipeline, tmp_path):
    corpus = pipeline["corpus"]
    out = tmp_path / "threaded"
    assert main(["extract-features", "--preds", str(corpus / "preds"),
                 "--images", str(corpus / "images"), "--out", str(out),
                 "--threads", "3"]) == 0
    assert (out / "features.csv").read_bytes() == \
        (pipeline["features"] / "features.csv").read_bytes()


def test_extract_features_io_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = str(tmp_path / "out")
    missing = str(tmp_path / "missing")
    assert main(["extract-features", "--preds", missing,
                 "--images", str(empty), "--out", out]) == 3
    assert main(["extract-features", "--preds", str(empty),
                 "--images", str(empty), "--out", out]) == 4
    assert not (tmp_path / "out" / "run-config.json").exists()


def test_extract_features_names_missing_sequence(tmp_path, caplog):
    recipe = _write_recipe(tmp_path)
    corpus = tmp_path / "one"
    assert main(["synth", "--config", str(recipe), "--out", str(corpus),
                 "--cases", "1"]) == 0
    (corpus / "images" / "case-0000-t2w.nii.gz").unlink()
    with caplog.at_level(logging.ERROR):
        rc = main(["extract-features", "--preds", str(corpus / "preds"),
                   "--images", str(corpus / "images"),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert any("t2w" in r.message and "case-0000" in r.message
               for r in caplog.records)


# -- fit-policy ------------------------------------------------------------------------

def test_fit_policy_outputs(pipeline):
    fit = pipeline["fit"]
    assert (fit / "policy.json").exists()
    assert (fit / "confusion.csv").exists()
    report = (fit / "fit-report.txt").read_text()
    assert "clusters: 2" in report
    assert "component-size thresholds" in report
    policy = json.loads((fit / "policy.json").read_text())
    assert policy["version"] == "1"
    assert policy["kmeans"]["k"] == 2
    # stray blobs run 3..8 voxels while true shells are far larger, so
    # every cluster should settle on the first grid value above 8
    for cluster in ("0", "1"):
        assert policy["pcc_thresholds"][cluster]["3"] == 10


def test_fit_policy_accepts_precomputed_features(pipeline, tmp_path):
    corpus = pipeline["corpus"]
    out = tmp_path / "fit2"
    assert main(["fit-policy", "--preds", str(corpus / "preds"),
                 "--images", str(corpus / "images"),
                 "--gt", str(corpus / "gt"), "--out", str(out),
                 "--k-range", "2", "--restarts", "3", "--seed", "5",
                 "--features", str(pipeline["features"] / "features.csv")]) == 0
    assert (out / "policy.json").read_bytes() == \
        (pipeline["fit"] / "policy.json").read_bytes()


def test_fit_policy_io_and_validation_errors(tmp_path):
    missing = str(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    out = str(tmp_path / "out")
    assert main(["fit-policy", "--preds", missing, "--images", missing,
                 "--gt", missing, "--out", out]) == 3
    assert main(["fit-policy", "--preds", str(empty), "--images", str(empty),
                 "--gt", str(empty), "--out", out]) == 4
    assert not (tmp_path / "out" / "run-config.json").exists()


@pytest.mark.parametrize("argv, code", (
    (["synth", "--cases", "1", "--lesion-count", "2"], 4),
    (["synth", "--cases", "1", "--axis-scale", "1"], 4),
    (["synth", "--cases", "1", "--lesion-count", "3,1"], 4),
    (["synth", "--cases", "1", "--spacing=-1,1,1"], 4),
    (["synth", "--cases", "1", "--dims", "32,32"], 4),
    (["synth", "--cases", "1", "--start-index", "-1"], 2),
    (["synth", "--cases", "1", "--seed=-1"], 2),
    (["fit-policy", "--k-range", "1"], 2),
    (["fit-policy", "--k-range", "0,2"], 2),
    (["fit-policy", "--seed", "-1"], 2),
))
def test_bad_recipe_or_fit_option_writes_nothing(tmp_path, argv, code):
    """A bad synth recipe or fit-policy option exits before ``--out``
    exists."""
    out = tmp_path / "out"
    if argv[0] == "fit-policy":
        missing = str(tmp_path / "missing")
        argv = argv + ["--preds", missing, "--images", missing, "--gt", missing]
    assert main(argv + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("override", (
    {"islands": [{"label": 1}]},
    {"shells": [{"label": 1, "outer": "ab"}]},
    {"noise_amplitude": float("nan")},
    {"lesion_separation": float("inf")},
    {"noise_sigma": -1.0},
    {"island_margin": 0},
    {"jitter": -1},
    {"sequences": ["a/b"]},
    {"sequences": ["t1n", "t1n"]},
    {"sequences": []},
))
def test_bad_nested_recipe_entry_writes_nothing(tmp_path, override):
    out = tmp_path / "out"
    recipe = _write_recipe(tmp_path, **override)
    assert main(["synth", "--config", str(recipe), "--out", str(out),
                 "--cases", "2"]) == 4
    assert not out.exists()


@pytest.mark.parametrize("sequences", ("t1n,t1n", "a/b"))
def test_bad_sequences_are_found_before_out_is_created(tmp_path, corpus, sequences):
    """extract-features and fit-policy reject repeated or path-like
    sequence names, as synth does: exit 4 before ``--out`` exists."""
    out = tmp_path / "out"
    inputs = ["--preds", str(corpus / "preds"), "--images", str(corpus / "images"),
              "--sequences", sequences, "--out", str(out)]
    assert main(["extract-features", *inputs]) == 4
    assert main(["fit-policy", *inputs, "--gt", str(corpus / "gt")]) == 4
    assert not out.exists()


def test_bad_inputs_are_found_before_out_is_created(pipeline, tmp_path, caplog):
    """A missing ground-truth or image directory or metric CSV (exit 3),
    a feature table that is not one, or does not cover the corpus, and a
    metric CSV that is not one, whose columns differ from the other
    candidate's, or that holds a cell that is not a finite number (exit
    4), fail before ``--out`` exists."""
    corpus = pipeline["corpus"]
    preds, images, gt = (str(corpus / sub) for sub in ("preds", "images", "gt"))
    missing = str(tmp_path / "missing")
    out = tmp_path / "out"
    fit = ["fit-policy", "--preds", preds, "--out", str(out)]
    assert main(fit + ["--images", images, "--gt", missing]) == 3
    assert main(fit + ["--images", missing, "--gt", gt]) == 3
    assert main(["evaluate", "--preds", preds, "--gt", missing,
                 "--out", str(out)]) == 3
    assert main(["extract-features", "--preds", preds, "--images", missing,
                 "--out", str(out)]) == 3
    assert main(["apply", "--policy", str(pipeline["fit"] / "policy.json"),
                 "--preds", preds, "--images", missing, "--out", str(out)]) == 3
    fit += ["--images", images]
    features = (pipeline["features"] / "features.csv").read_text().splitlines()
    for name, text in (("not.csv", "a,b\n1,2\n"), ("empty.csv", ""),
                       ("short.csv", "\n".join(features[:-1]) + "\n"),
                       ("ragged.csv", "\n".join(features[:-1] + ["x,1"]) + "\n")):
        (tmp_path / name).write_text(text)
        assert main(fit + ["--gt", gt, "--features", str(tmp_path / name)]) == 4, name
    raw = pipeline["raw_metrics"] / "metrics.csv"
    rank = ["rank", "--out", str(out), f"identity={raw}"]
    assert main(rank + [f"gone={missing}"]) == 3
    metrics = raw.read_text().splitlines()
    words = [(f"{cell}.csv", metrics[:1] + [metrics[1].rsplit(",", 1)[0] + "," + cell]
              + metrics[2:], f"{cell}.csv: case 'case-0000', column "
              f"{metrics[0].rsplit(',', 1)[1]!r}: not a finite number: {cell!r}")
             for cell in ("abc", "nan", "inf", "-inf")]
    for name, lines, named in (
            ("empty.csv", [], "empty.csv: not a metrics CSV"),
            ("short.csv", metrics[:-1] + [metrics[-1].rsplit(",", 1)[0]], "short.csv: row 6"),
            ("narrow.csv", [line.rsplit(",", 1)[0] for line in metrics],
             "candidate bad, case case-0000: metric columns"),
            *words):
        (tmp_path / name).write_text("".join(line + "\n" for line in lines))
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(rank + [f"bad={tmp_path / name}"]) == 4, name
        assert named in caplog.text
    assert not out.exists()


def test_fit_policy_names_a_feature_cell_that_is_not_a_number(pipeline, tmp_path, caplog):
    corpus = pipeline["corpus"]
    lines = (pipeline["features"] / "features.csv").read_text().splitlines()
    column = lines[0].split(",")[2]
    out = tmp_path / "out"
    for cell in ("abc", "nan"):
        cells = lines[2].split(",")
        cells[2] = cell
        features = tmp_path / f"{cell}.csv"
        features.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(["fit-policy", "--preds", str(corpus / "preds"),
                         "--images", str(corpus / "images"), "--gt", str(corpus / "gt"),
                         "--features", str(features), "--out", str(out)]) == 4
        assert (f"{features}: case {cells[0]!r}, column {column!r}: "
                f"not a finite number: {cell!r}" in caplog.text)
        assert not out.exists()


def test_each_config_echo_replays(pipeline, tmp_path):
    """Each command's ``run-config.json`` echo, given a new ``out``,
    replays through ``--config`` to the same outputs, ``fit-policy``'s
    ``"features": null`` (extract) included."""
    metrics = [f"{name}={pipeline[name] / 'metrics.csv'}"
               for name in ("raw_metrics", "post_metrics")]
    ranked = tmp_path / "ranked"
    assert main(["rank", *metrics, "--out", str(ranked)]) == 0
    runs = [pipeline[name] for name in ("corpus", "features", "fit", "applied",
                                        "raw_metrics")] + [ranked]
    echoes = [json.loads((run / "run-config.json").read_text()) for run in runs]
    assert [echo["command"] for echo in echoes] == [
        "synth", "extract-features", "fit-policy", "apply", "evaluate", "rank"]
    assert echoes[2]["config"]["features"] is None
    for run, echo in zip(runs, echoes):
        replay = tmp_path / "replay" / echo["command"]
        config = tmp_path / f"{echo['command']}.json"
        config.write_text(json.dumps(dict(echo["config"], out=str(replay))))
        assert main([echo["command"], "--config", str(config)]) == 0, echo["command"]
        assert _tree_bytes(replay) == _tree_bytes(run), echo["command"]


# -- apply -------------------------------------------------------------------------------

def test_apply_restores_ground_truth_here(pipeline):
    corpus = pipeline["corpus"]
    applied = pipeline["applied"]
    for i in range(6):
        name = f"case-{i:04d}-seg.nii.gz"
        out = load_nifti(applied / name, kind="label")
        gt = load_nifti(corpus / "gt" / name, kind="label")
        assert np.array_equal(out.data, gt.data)


def test_apply_is_thread_invariant(pipeline, tmp_path):
    corpus = pipeline["corpus"]
    out = tmp_path / "threaded"
    assert main(["apply", "--policy", str(pipeline["fit"] / "policy.json"),
                 "--preds", str(corpus / "preds"),
                 "--images", str(corpus / "images"),
                 "--out", str(out), "--threads", "3"]) == 0
    assert _tree_bytes(out) == _tree_bytes(pipeline["applied"])


def test_apply_loads_the_policy_once(pipeline, tmp_path, monkeypatch, caplog):
    from gliopost import policy

    calls = []
    real = policy.load_policy
    monkeypatch.setattr(policy, "load_policy",
                        lambda path: calls.append(path) or real(path))
    corpus = pipeline["corpus"]
    with caplog.at_level(logging.INFO, logger="gliopost.cli"):
        assert main(["apply", "--policy", str(pipeline["fit"] / "policy.json"),
                     "--preds", str(corpus / "preds"),
                     "--images", str(corpus / "images"),
                     "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    assert len(calls) == 1
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(pipeline["applied"])
    assert re.search(r"post-processed 6 masks into .*; [0-6] needed clustering",
                     caplog.text)


def test_apply_run_record_counts_clustered_cases(pipeline, tmp_path):
    """With cluster 1 removing every component, the clusters disagree on
    every case, and the run record counts the cases whose cluster
    apply had to compute."""
    from dataclasses import replace

    from gliopost.policy import apply_policy, load_policy, save_policy
    from gliopost.volume import discover_case_ids, load_case_bundle

    fitted = load_policy(pipeline["fit"] / "policy.json")
    policy = replace(fitted, thresholds={0: fitted.thresholds[0],
                                         1: dict.fromkeys(fitted.thresholds[1], 10**6)})
    save_policy(policy, tmp_path / "policy.json")
    corpus = pipeline["corpus"]
    out = tmp_path / "out"
    assert main(["apply", "--policy", str(tmp_path / "policy.json"),
                 "--preds", str(corpus / "preds"),
                 "--images", str(corpus / "images"), "--out", str(out)]) == 0
    clustered = sum(
        apply_policy(policy, load_case_bundle(cid, corpus / "preds", corpus / "images"))[1]
        is not None
        for cid in discover_case_ids(corpus / "preds"))
    assert clustered == 6
    run = json.loads((out / "run-config.json").read_text())["run"]
    assert run["clustered_cases"] == clustered


def test_apply_missing_policy(tmp_path, corpus):
    assert main(["apply", "--policy", str(tmp_path / "nope.json"),
                 "--preds", str(corpus / "preds"),
                 "--images", str(corpus / "images"),
                 "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "run-config.json").exists()


def test_apply_inconsistent_policy_is_invalid(tmp_path, pipeline):
    doc = json.loads((pipeline["fit"] / "policy.json").read_text())
    doc["standardizer"]["std"].pop()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(doc))
    corpus = pipeline["corpus"]
    assert main(["apply", "--policy", str(policy),
                 "--preds", str(corpus / "preds"),
                 "--images", str(corpus / "images"),
                 "--out", str(tmp_path / "out")]) == 4
    assert not (tmp_path / "out").exists()


def _malformed(doc, case):
    """The policy document with one shape fault."""
    if case == "top-level-list":
        return [doc]
    if case == "no-task":
        del doc["task"]
    elif case == "no-pca-center":
        del doc["pca"]["center"]
    elif case == "relabel-rules-string":
        doc["relabel_rules"] = "none"
    elif case == "settings-null":
        doc["feature_manifest"]["settings"] = None
    elif case == "bin-width-nan":
        doc["feature_manifest"]["settings"]["bin_width"] = float("nan")
    elif case == "bin-count-zero":
        doc["feature_manifest"]["settings"]["bin_count"] = 0
    elif case == "connectivity-7":
        doc["metric_config"]["connectivity"] = 7
    elif case == "connectivity-6.5":
        doc["metric_config"]["connectivity"] = 6.5
    elif case == "dilation-negative":
        doc["metric_config"]["dilation_iters"] = -1
    elif case == "tolerance-negative":
        doc["metric_config"]["tolerances"] = [-1]
    elif case == "rule-src-fraction":
        doc["relabel_rules"] = [{"cluster": 0, "src": 3.9, "dst": 1, "cutoff": 0.05}]
    elif case == "bin-count-fraction":
        doc["feature_manifest"]["settings"]["bin_count"] = 32.9
    elif case == "settings-unknown-key":
        doc["feature_manifest"]["settings"]["bin_size"] = 1
    elif case == "tolerances-number":
        doc["metric_config"]["tolerances"] = 5
    elif case == "tolerances-string":
        doc["metric_config"]["tolerances"] = "nan"
    elif case == "k-fraction":
        doc["kmeans"]["k"] = 2.7
    elif case == "seed-fraction":
        doc["kmeans"]["seed"] = 1.9
    elif case == "silhouette-string":
        doc["kmeans"]["silhouette"] = "0.5"
    elif case == "mean-string":
        doc["standardizer"]["mean"] = ["1.5"]
    elif case == "center-bool":
        doc["pca"]["center"] = [True]
    return doc


@pytest.mark.parametrize("case", ["top-level-list", "no-task", "no-pca-center",
                                  "relabel-rules-string", "settings-null",
                                  "bin-width-nan", "bin-count-zero", "connectivity-7",
                                  "connectivity-6.5", "dilation-negative",
                                  "tolerance-negative", "rule-src-fraction",
                                  "bin-count-fraction", "settings-unknown-key",
                                  "tolerances-number", "tolerances-string",
                                  "k-fraction", "seed-fraction", "silhouette-string",
                                  "mean-string", "center-bool"])
def test_apply_malformed_policy_is_invalid(tmp_path, pipeline, caplog, case):
    doc = json.loads((pipeline["fit"] / "policy.json").read_text())
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(_malformed(doc, case)))
    corpus = pipeline["corpus"]
    with caplog.at_level(logging.ERROR):
        assert main(["apply", "--policy", str(policy),
                     "--preds", str(corpus / "preds"),
                     "--images", str(corpus / "images"),
                     "--out", str(tmp_path / "out")]) == 4
    assert str(policy) in caplog.text
    assert not (tmp_path / "out").exists()


# -- evaluate ---------------------------------------------------------------------------

def test_evaluate_matches_direct_scoring(pipeline):
    corpus = pipeline["corpus"]
    rows = read_metrics_csv(pipeline["raw_metrics"] / "metrics.csv")
    by_case = {row.case_id: row for row in rows}
    assert sorted(by_case) == [f"case-{i:04d}" for i in range(6)]

    cid = "case-0000"
    pred = load_nifti(corpus / "preds" / f"{cid}-seg.nii.gz", kind="label")
    gt = load_nifti(corpus / "gt" / f"{cid}-seg.nii.gz", kind="label")
    direct = evaluate_case(pred, gt, case_id=cid)
    assert by_case[cid].values == direct.values


def test_evaluate_post_task_scores_resection_cavity(corpus, tmp_path):
    out = tmp_path / "post"
    assert main(["evaluate", "--preds", str(corpus / "preds"),
                 "--gt", str(corpus / "gt"), "--out", str(out),
                 "--task", "gli-post"]) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert "LW_Dice_RC" in header
    assert "LW_NSD@1_RC" in header


@pytest.mark.parametrize("threads", ("1", "2"))
def test_evaluate_options_reach_the_scorer(corpus, tmp_path, threads):
    """Every metric option of evaluate reaches the scorer of each case: the
    corpus plus a case that scores otherwise at each default."""
    preds, gt = tmp_path / "preds", tmp_path / "gt"
    for kind, copy in (("preds", preds), ("gt", gt)):
        copy.mkdir()
        for path in (corpus / kind).iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
    truth = np.zeros((16, 16, 16), dtype=np.uint8)
    truth[4, 4, [4, 9]] = 2  # one lesion at --dilation 3, two at 1
    truth[10, 10, 10] = 3
    guess = truth.copy()
    guess[4, 4, 9] = 0
    guess[11, 11, 11] = 3  # a corner neighbour: its own component at 6
    for seg, directory in ((guess, preds), (truth, gt)):
        save_nifti(LabelMap(data=seg, spacing=Spacing(1.0, 1.0, 1.0)),
                   directory / "case-0006-seg.nii.gz")
    out = tmp_path / "opts"
    assert main(["evaluate", "--preds", str(preds), "--gt", str(gt), "--out", str(out),
                 "--task", "gli-post", "--connectivity", "6", "--dilation", "1",
                 "--tolerances", "1,2", "--threads", threads]) == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert [row.case_id for row in rows] == [f"case-{i:04d}" for i in range(7)]
    objective = RankObjective(REGIONS_POST_TREATMENT, (1.0, 2.0), 1, 6)
    for row in rows:
        pred, truth = (load_nifti(root / f"{row.case_id}-seg.nii.gz", kind="label")
                       for root in (preds, gt))
        assert row.values == evaluate_case(pred, truth, objective, case_id=row.case_id).values
    # each option at its default scores the hand-made case otherwise
    for default in (RankObjective(REGIONS_POST_TREATMENT, (1.0, 2.0), 3, 6),
                    RankObjective(REGIONS_POST_TREATMENT, (1.0, 2.0), 1, 26),
                    RankObjective(REGIONS_POST_TREATMENT, dilation_iters=1, connectivity=6),
                    RankObjective(dilation_iters=1, connectivity=6)):
        assert evaluate_case(pred, truth, default).values != rows[-1].values


def test_evaluate_empty_preds_is_invalid(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["evaluate", "--preds", str(empty), "--gt", str(empty),
                 "--out", str(tmp_path / "out")]) == 4
    assert not (tmp_path / "out" / "run-config.json").exists()


def test_evaluate_grid_mismatch_is_invalid(tmp_path, corpus):
    other = tmp_path / "other"
    recipe = _write_recipe(tmp_path, dims=[20, 20, 20], seed=44)
    assert main(["synth", "--config", str(recipe), "--out", str(other),
                 "--cases", "6"]) == 0
    assert main(["evaluate", "--preds", str(corpus / "preds"),
                 "--gt", str(other / "gt"),
                 "--out", str(tmp_path / "out")]) == 4


@pytest.mark.parametrize("threads", ("1", "2"))
def test_evaluate_failure_names_the_case(tmp_path, corpus, caplog, threads):
    gt = tmp_path / "gt"
    gt.mkdir()
    for path in (corpus / "gt").iterdir():
        (gt / path.name).write_bytes(path.read_bytes())
    small = tmp_path / "small"
    recipe = _write_recipe(tmp_path, dims=[20, 20, 20], seed=44)
    assert main(["synth", "--config", str(recipe), "--out", str(small),
                 "--cases", "4"]) == 0
    name = "case-0003-seg.nii.gz"
    (gt / name).write_bytes((small / "gt" / name).read_bytes())
    with caplog.at_level(logging.ERROR):
        assert main(["evaluate", "--preds", str(corpus / "preds"),
                     "--gt", str(gt), "--out", str(tmp_path / "out"),
                     "--threads", threads]) == 4
    assert any(r.message.startswith("case-0003: ground_truth dims")
               for r in caplog.records)


@pytest.mark.parametrize("threads", ("1", "2"))
def test_evaluate_failures_name_every_failing_case(tmp_path, corpus, caplog, threads):
    gt = tmp_path / "gt"
    gt.mkdir()
    for path in (corpus / "gt").iterdir():
        (gt / path.name).write_bytes(path.read_bytes())
    # case-0001 on a smaller grid, case-0004 without ground truth: the
    # first failure's type (a dims mismatch, exit 4) decides the exit code
    small = tmp_path / "small"
    recipe = _write_recipe(tmp_path, dims=[20, 20, 20], seed=44)
    assert main(["synth", "--config", str(recipe), "--out", str(small),
                 "--cases", "2"]) == 0
    name = "case-0001-seg.nii.gz"
    (gt / name).write_bytes((small / "gt" / name).read_bytes())
    (gt / "case-0004-seg.nii.gz").unlink()
    with caplog.at_level(logging.ERROR):
        assert main(["evaluate", "--preds", str(corpus / "preds"),
                     "--gt", str(gt), "--out", str(tmp_path / "out"),
                     "--threads", threads]) == 4
    errors = [r.message for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1
    assert errors[0].startswith("case-0001: ground_truth dims")
    assert errors[0].endswith("(2 cases failed: case-0001, case-0004)")
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("threads", ("1", "2"))
def test_evaluate_rejects_a_spacing_mismatch(tmp_path, corpus, caplog, threads):
    """NSD is a distance in mm, so a ground truth on another spacing is
    rejected, as the fit rejects it, not scored at its spacing."""
    gt = tmp_path / "gt"
    gt.mkdir()
    for path in (corpus / "gt").iterdir():
        (gt / path.name).write_bytes(path.read_bytes())
    name = "case-0002-seg.nii.gz"
    mask = load_nifti(gt / name, kind="label")
    save_nifti(LabelMap(data=mask.data, spacing=Spacing(1.0, 1.0, 2.0)), gt / name)
    with caplog.at_level(logging.ERROR):
        assert main(["evaluate", "--preds", str(corpus / "preds"),
                     "--gt", str(gt), "--out", str(tmp_path / "out"),
                     "--threads", threads]) == 4
    errors = [r.message for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["case-0002: ground_truth spacing mismatch"]
    assert not (tmp_path / "out" / "metrics.csv").exists()


# -- worker failures ----------------------------------------------------------------------

@pytest.mark.parametrize("threads", ("1", "2"))
@pytest.mark.parametrize("error", (
    MemoryError,
    # numpy's own, whose message ignores its args; building it allocates nothing
    lambda: _ArrayMemoryError((10 ** 5,) * 3, np.dtype("u1")),
    # its str() is its key's repr, quotes included
    lambda: KeyError("count"),
), ids=("plain", "numpy", "key"))
def test_worker_memory_error_exits_4_naming_the_case(tmp_path, monkeypatch, caplog,
                                                     threads, error):
    from gliopost import synth

    real = synth.generate_case

    def generate(cfg, index):
        if index == 1:
            raise error()
        return real(cfg, index)

    monkeypatch.setattr(synth, "generate_case", generate)
    recipe = _write_recipe(tmp_path)
    with caplog.at_level(logging.ERROR):
        assert main(["synth", "--config", str(recipe), "--out", str(tmp_path / "out"),
                     "--cases", "2", "--threads", threads]) == 4
    errors = [r.message for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1
    assert errors[0].startswith("case-0001: ")
    assert errors[0] != "case-0001: "


def test_reported_key_error_leads_with_the_case_id():
    """A ``KeyError``'s ``str`` is its key's repr, so the message is
    built from the key itself."""
    from gliopost.parallel import _reported, error_message

    reported = _reported([("case-0001", KeyError("count"))])
    assert type(reported) is KeyError
    assert error_message(reported) == "case-0001: count"
    both = _reported([("case-0001", KeyError("count")), ("case-0003", KeyError("x"))])
    assert error_message(both) == "case-0001: count (2 cases failed: case-0001, case-0003)"


# -- rank --------------------------------------------------------------------------------

def test_rank_orders_candidates(pipeline, tmp_path, capsys):
    out = tmp_path / "rank"
    raw = str(pipeline["raw_metrics"] / "metrics.csv")
    post = str(pipeline["post_metrics"] / "metrics.csv")
    assert main(["rank", f"identity={raw}", f"fitted={post}",
                 "--out", str(out)]) == 0

    lines = (out / "ranking.csv").read_text().splitlines()
    assert lines[0] == "candidate_id,ranking_score"
    names = [line.split(",")[0] for line in lines[1:]]
    scores = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert names == ["fitted", "identity"]
    assert scores["fitted"] < scores["identity"]

    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("fitted\t")
    assert printed[1].startswith("identity\t")


def test_rank_bare_paths_use_file_stem(pipeline, tmp_path):
    raw = Path(pipeline["raw_metrics"] / "metrics.csv")
    post = Path(pipeline["post_metrics"] / "metrics.csv")
    a = tmp_path / "identity.csv"
    b = tmp_path / "fitted.csv"
    a.write_bytes(raw.read_bytes())
    b.write_bytes(post.read_bytes())
    out = tmp_path / "rank"
    assert main(["rank", str(a), str(b), "--out", str(out)]) == 0
    body = (out / "ranking.csv").read_text()
    assert "fitted," in body and "identity," in body

    # identical stems collide
    assert main(["rank", str(raw), str(post), "--out", str(out)]) == 4
