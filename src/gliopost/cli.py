"""Command-line pipeline driver.

Subcommands:
    synth             generate a seeded synthetic corpus
    extract-features  radiomic feature table for a corpus
    fit-policy        fit a post-processing policy on cases with ground truth
    apply             run a saved policy over predicted masks
    evaluate          lesion-wise metrics for predictions against ground truth
    rank              aggregate metric CSVs into mean-rank scores

Option values are resolved as defaults < --config JSON < explicit flags,
and the effective configuration is echoed to <out>/run-config.json (the
thread count is omitted there because it never changes any output).
When the command succeeds, that file is rewritten with a ``run`` record:
wall time, peak RSS and the package, numpy and scipy versions (and, for
``apply``, ``clustered_cases``: how many cases needed their cluster).

A command imports only the package modules it runs, before its process
pool forks, so the workers inherit them: ``evaluate`` imports ``metrics``,
``rank`` also ``ranking``, ``extract-features`` ``radiomics``,
``fit-policy`` and ``apply`` ``policy``, and ``synth`` ``synth`` and
``scipy.ndimage`` (for its noise).  Every other command runs on numpy
alone; bare ``scipy`` is imported for its version in the run record.

Exit codes: 0 success, 2 bad configuration, 3 I/O failure, 4 invalid data
or out of memory.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .nifti import write_json
from .parallel import error_message, map_ordered
from .volume import (SEQUENCES, check, discover_case_ids, load_case_bundle, save_nifti,
                     seg_filename)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVALID = 4

TASKS = ("gli-pre", "gli-post", "ssa")


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _ConfigError(Exception):
    pass


def _int(value) -> int:
    """An integer that fits in 64 bits, as numpy and scipy take them."""
    value = int(value) if isinstance(value, str) else value
    return check("value", value, "integer", -2 ** 63, 2 ** 63 - 1)


def _at_least(low: int, name: str) -> Callable:
    """An integer option's coercion that rejects values below ``low``."""
    def coerce(value) -> int:
        return check(name, _int(value), "integer", low)
    coerce.__name__ = name.replace(" ", "_")  # argparse names it in errors
    return coerce


_threads = _at_least(1, "threads")


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _bin_width(value) -> float:
    return check("bin width", _float(value), "number", above=0)


def _str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _items(value, item: Callable) -> tuple:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        return tuple(item(p) for p in parts)
    if isinstance(value, (list, tuple)):
        return tuple(item(v) for v in value)
    raise ValueError(f"expected a comma-separated list, got {value!r}")


def _ints(value) -> tuple[int, ...]:
    return _items(value, _int)


def _floats(value) -> tuple[float, ...]:
    return _items(value, _float)


def _k_range(value) -> tuple[int, ...]:
    return _items(value, _at_least(2, "k"))


def _tolerances(value) -> tuple[float, ...]:
    from .metrics import RankObjective
    return RankObjective.check_tolerances(_floats(value))


def _pcc_grid(value) -> tuple[int, ...]:
    from .policy import check_grid
    return check_grid("pcc grid", _ints(value), "integer")


def _cutoff_grid(value) -> tuple[float, ...]:
    from .policy import check_grid
    return check_grid("cutoff grid", _floats(value), "number", 1)


def _strs(value) -> tuple[str, ...]:
    return _items(value, _str)


def _passthrough(value):
    """Structured recipe pieces; validated by SynthConfig.from_dict."""
    return value


@dataclass(frozen=True)
class _Opt:
    dest: str
    flag: str | None  # None: settable through --config only
    coerce: Callable
    default: object  # _REQUIRED: must be supplied; a callable: see _defaults
    help: str = ""
    choices: tuple = ()
    positional: bool = False


def _from(path: str, make: Callable = lambda value: value) -> Callable:
    """A default: ``make`` of the package's ``module.NAME``, read when a
    command that has the option runs; no other command imports it."""
    module, _, name = path.rpartition(".")
    return lambda: make(getattr(import_module(f".{module}", __package__), name))


def _recipe(key: str) -> Callable:
    return _from("synth.SynthConfig", lambda config: config().to_dict()[key])


# options that several commands share
_PREDS = _Opt("preds", "--preds", _str, _REQUIRED, "directory of predicted masks")
_IMAGES = _Opt("images", "--images", _str, _REQUIRED, "directory of image sequences")
_GT = _Opt("gt", "--gt", _str, _REQUIRED, "directory of ground-truth masks")
_OUT = _Opt("out", "--out", _str, _REQUIRED, "output directory")
_TASK = _Opt("task", "--task", _str, "gli-pre", "challenge task", choices=TASKS)
_THREADS = _Opt("threads", "--threads", _threads, 1, "worker processes")
_EXTRACTION_OPTS = (
    _Opt("bin_width", "--bin-width", _bin_width, _from("radiomics.DEFAULT_BIN_WIDTH"),
         "intensity bin width for first-order features"),
    _Opt("bin_count", "--bin-count", _at_least(1, "bin count"),
         _from("radiomics.DEFAULT_BIN_COUNT"), "gray-level count for texture features"),
    _Opt("sequences", "--sequences", _strs, list(SEQUENCES),
         "sequence names to extract from"),
)

_SYNTH_SPEC = (
    _Opt("out", "--out", _str, _REQUIRED, "corpus directory to create"),
    _Opt("cases", "--cases", _int, _REQUIRED, "number of cases to generate"),
    _Opt("seed", "--seed", _at_least(0, "seed"), _recipe("seed"), "corpus seed"),
    _Opt("start_index", "--start-index", _at_least(0, "start index"), 0,
         "index of the first case"),
    _Opt("dims", "--dims", _ints, _recipe("dims"), "grid size as X,Y,Z voxels"),
    _Opt("spacing", "--spacing", _floats, _recipe("spacing"),
         "voxel spacing in mm as DX,DY,DZ"),
    _Opt("lesion_count", "--lesion-count", _ints, _recipe("lesion_count"),
         "inclusive MIN,MAX lesions per case"),
    _Opt("lesion_radius", "--lesion-radius", _floats, _recipe("lesion_radius"),
         "lesion radius range in voxels"),
    _Opt("axis_scale", "--axis-scale", _floats, _recipe("axis_scale"),
         "per-axis ellipsoid scale range"),
    _Opt("shells", None, _passthrough, _recipe("shells")),
    _Opt("islands", None, _passthrough, _recipe("islands")),
    _Opt("swap", None, _passthrough, _recipe("swap")),
    _Opt("jitter", "--jitter", _int, _recipe("jitter"),
         "boundary voxels to drop from each prediction"),
    _Opt("island_margin", "--island-margin", _int, _recipe("island_margin"),
         "minimum Chebyshev distance from islands to true voxels"),
    _Opt("lesion_separation", "--lesion-separation", _float,
         _recipe("lesion_separation"),
         "minimum gap between lesion bounding spheres"),
    _Opt("noise_sigma", "--noise-sigma", _float, _recipe("noise_sigma"),
         "smoothing sigma of image noise"),
    _Opt("noise_amplitude", "--noise-amplitude", _float,
         _recipe("noise_amplitude"), "standard deviation of image noise"),
    _Opt("sequences", "--sequences", _strs, _recipe("sequences"),
         "sequence names to synthesize"),
    _THREADS,
)

_EXTRACT_SPEC = (_PREDS, _IMAGES, _OUT, *_EXTRACTION_OPTS, _THREADS)

_FIT_SPEC = (
    _PREDS, _IMAGES, _GT, _OUT, _TASK,
    _Opt("seed", "--seed", _at_least(0, "seed"), 0, "clustering seed"),
    _Opt("restarts", "--restarts", _at_least(1, "restarts"), 10,
         "k-means restarts per k"),
    _Opt("k_range", "--k-range", _k_range, [],
         "cluster counts to try (empty: 2..10 as data allows)"),
    _Opt("pcc_grid", "--pcc-grid", _pcc_grid, _from("policy.DEFAULT_PCC_GRID", list),
         "candidate component-size thresholds"),
    _Opt("cutoff_grid", "--cutoff-grid", _cutoff_grid,
         _from("policy.DEFAULT_CUTOFF_GRID", list),
         "candidate relabel volume-ratio cutoffs"),
    _Opt("confusions", "--confusions", _at_least(1, "confusions"),
         _from("policy.DEFAULT_TOP_CONFUSIONS"),
         "how many confusion pairs become relabel candidates"),
    *_EXTRACTION_OPTS,
    _Opt("features", "--features", _str, None,
         "precomputed features.csv (skips extraction)"),
    _THREADS,
)

_APPLY_SPEC = (
    _Opt("policy", "--policy", _str, _REQUIRED, "policy JSON to apply"),
    _PREDS, _IMAGES,
    _Opt("out", "--out", _str, _REQUIRED, "output directory for masks"),
    _THREADS,
)

_EVALUATE_SPEC = (
    _PREDS, _GT, _OUT, _TASK,
    _Opt("tolerances", "--tolerances", _tolerances,
         _from("metrics.DEFAULT_TOLERANCES_MM", list), "surface tolerances in mm"),
    _Opt("dilation", "--dilation", _at_least(0, "dilation"),
         _from("metrics.DEFAULT_DILATION_ITERS"), "lesion-merging dilation iterations"),
    _Opt("connectivity", "--connectivity", _int, _from("metrics.DEFAULT_CONNECTIVITY"),
         "component connectivity (6 or 26)", choices=(6, 26)),
    _THREADS,
)

_RANK_SPEC = (
    _Opt("csvs", None, _strs, _REQUIRED,
         "metric CSVs as name=path (bare paths use the file stem)",
         positional=True),
    _OUT,
)


def _defaults(spec: tuple[_Opt, ...]) -> dict:
    """The default of each option that has one; a callable default is
    called, so a command imports only the modules its own options name."""
    return {opt.dest: opt.default() if callable(opt.default) else opt.default
            for opt in spec if opt.default is not _REQUIRED}


def _merge_config(ns: argparse.Namespace, spec: tuple[_Opt, ...]) -> dict:
    """Resolve option values: defaults, then --config JSON, then flags."""
    by_dest = {opt.dest: opt for opt in spec}
    merged = _defaults(spec)

    config_path = getattr(ns, "config", None)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise _ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"{config_path}: malformed JSON: {exc}")
        if not isinstance(raw, dict):
            raise _ConfigError(f"{config_path}: top level must be an object")
        for key, value in raw.items():
            if key not in by_dest:
                raise _ConfigError(f"{config_path}: unknown option {key!r}")
            try:
                merged[key] = by_dest[key].coerce(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise _ConfigError(f"{config_path}: option {key!r}: {exc}")

    for key, value in vars(ns).items():
        if key in by_dest:
            merged[key] = value

    missing = [
        opt.flag or opt.dest
        for opt in spec
        if opt.default is _REQUIRED and opt.dest not in merged
    ]
    if missing:
        raise _ConfigError("missing required options: " + ", ".join(missing))
    for opt in spec:
        if opt.choices and merged[opt.dest] not in opt.choices:
            raise _ConfigError(
                f"option {opt.dest!r} must be one of {list(opt.choices)}, "
                f"got {merged[opt.dest]!r}"
            )
    return merged


def _write_run_config(out_dir: Path, command: str, cfg: dict,
                      run: dict | None = None) -> None:
    echo = {k: v for k, v in cfg.items() if k != "threads"}
    doc = {"command": command, "config": echo}
    if run is not None:
        doc["run"] = run
    write_json(out_dir / "run-config.json", doc)


def _peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    return round(resource.getrusage(who).ru_maxrss * unit / 1e6, 1)


def _run_record(start: float) -> dict:
    """What a finished command cost: wall seconds since ``start``, the peak
    RSS of this process and of its waited-for children (pool workers),
    and the versions that ran."""
    return {
        "wall_s": round(time.perf_counter() - start, 3),
        "peak_rss_mb": {"process": _peak_rss_mb(resource.RUSAGE_SELF),
                        "children": _peak_rss_mb(resource.RUSAGE_CHILDREN)},
        "versions": {"gliopost": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }


# ---------------------------------------------------------------------------
# worker functions (module level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _synth_case(item):
    from .synth import generate_case, save_case
    cfg, index, out_dir = item
    bundle, inventory = generate_case(cfg, index)
    out = Path(out_dir)
    save_case(bundle, out / "images", out / "preds", out / "gt")
    return bundle.case_id, inventory


def _extract_features_case(item):
    from .radiomics import extract_case_features
    case_id, pred_dir, images_dir, settings = item
    case = load_case_bundle(case_id, pred_dir, images_dir,
                            sequences=settings.sequences)
    return extract_case_features(case, settings)


def _apply_case(item):
    """Post-process one case; True when its cluster had to be computed."""
    from .policy import apply_policy
    case_id, policy, pred_dir, images_dir, out_dir = item
    case = load_case_bundle(case_id, pred_dir, images_dir,
                            sequences=policy.settings.sequences)
    processed, cluster = apply_policy(policy, case)
    save_nifti(processed, Path(out_dir) / seg_filename(case_id))
    return cluster is not None


def _evaluate_metrics_case(item):
    from .metrics import evaluate_case
    case_id, pred_dir, gt_dir, objective = item
    case = load_case_bundle(case_id, pred_dir, gt_dir=gt_dir)
    return evaluate_case(case.prediction, case.ground_truth, objective, case_id=case_id)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _case_ids(preds: str) -> list[str]:
    """The case ids under ``preds``; finding none is invalid input."""
    case_ids = discover_case_ids(preds)
    if not case_ids:
        raise ValueError(f"no cases found under {preds}")
    return case_ids


def _input_dir(path: str) -> None:
    """Fail, before any output is written, on a missing input directory."""
    if not Path(path).is_dir():
        raise FileNotFoundError(f"directory not found: {path}")


def _cmd_synth(cfg: dict) -> dict:
    import scipy.ndimage  # noqa: F401  (for the noise; before any pool forks)
    from .synth import SynthConfig, case_name, write_inventory
    check("--cases", cfg["cases"], "integer", 0)
    syn = SynthConfig.from_dict({key: cfg[key] for key in SynthConfig().to_dict()})
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out, "synth", cfg)
    for sub in ("images", "preds", "gt"):
        (out / sub).mkdir(exist_ok=True)
    if cfg["cases"] == 0:
        log.warning("no cases requested; writing an empty corpus")
        write_inventory(out, syn, {})
        return {}
    start = cfg["start_index"]
    items = [(syn, index, str(out))
             for index in range(start, start + cfg["cases"])]
    results = map_ordered(_synth_case, items,
                          [case_name(index) for _, index, _ in items],
                          cfg["threads"])
    write_inventory(out, syn, dict(results))
    log.info("wrote %d cases under %s", cfg["cases"], out)
    return {}


def _extraction_settings(cfg: dict):
    from .radiomics import ExtractionSettings
    return ExtractionSettings(bin_width=cfg["bin_width"], bin_count=cfg["bin_count"],
                              sequences=tuple(cfg["sequences"]))


def _extract_matrix(cfg: dict, settings, case_ids: list[str]):
    from .radiomics import FeatureMatrix
    items = [(cid, cfg["preds"], cfg["images"], settings)
             for cid in case_ids]
    vectors = map_ordered(_extract_features_case, items, case_ids,
                          cfg["threads"])
    return FeatureMatrix.from_vectors(vectors)


def _cmd_extract_features(cfg: dict) -> dict:
    from .radiomics import write_feature_csv, write_manifest
    case_ids = _case_ids(cfg["preds"])
    _input_dir(cfg["images"])
    settings = _extraction_settings(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out, "extract-features", cfg)
    matrix = _extract_matrix(cfg, settings, case_ids)
    write_feature_csv(out / "features.csv", matrix)
    write_manifest(out / "feature-manifest.json", settings)
    log.info("extracted %d features for %d cases",
             len(matrix.names), len(case_ids))
    return {}


def _cmd_fit_policy(cfg: dict) -> dict:
    from .policy import (fit_policy_report, save_policy, training_features,
                         write_confusion_csv, write_fit_report)
    from .radiomics import read_feature_csv
    case_ids = _case_ids(cfg["preds"])
    _input_dir(cfg["gt"])
    settings = _extraction_settings(cfg)
    matrix = None
    if cfg["features"]:
        matrix = training_features(read_feature_csv(cfg["features"]), case_ids,
                                   settings)
    else:
        _input_dir(cfg["images"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out, "fit-policy", cfg)
    if matrix is None:
        matrix = _extract_matrix(cfg, settings, case_ids)
    policy, report = fit_policy_report(
        case_ids,
        cfg["preds"],
        cfg["gt"],
        matrix,
        task=cfg["task"],
        settings=settings,
        k_range=tuple(cfg["k_range"]) or None,
        restarts=cfg["restarts"],
        seed=cfg["seed"],
        pcc_grid=tuple(cfg["pcc_grid"]),
        cutoff_grid=tuple(cfg["cutoff_grid"]),
        n_confusions=cfg["confusions"],
        threads=cfg["threads"],
    )
    save_policy(policy, out / "policy.json")
    write_confusion_csv(out / "confusion.csv", report.confusion)
    write_fit_report(out / "fit-report.txt", policy, report)
    log.info("fitted %d clusters, %d relabel rules; policy at %s",
             policy.kmeans.k, len(policy.rules), out / "policy.json")
    return {}


def _cmd_apply(cfg: dict) -> dict:
    from .policy import load_policy
    policy = load_policy(cfg["policy"])  # fail before any output
    case_ids = _case_ids(cfg["preds"])
    _input_dir(cfg["images"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out, "apply", cfg)
    items = [(cid, policy, cfg["preds"], cfg["images"], str(out))
             for cid in case_ids]
    clustered = map_ordered(_apply_case, items, case_ids, cfg["threads"])
    log.info("post-processed %d masks into %s; %d needed clustering",
             len(case_ids), out, sum(clustered))
    return {"clustered_cases": sum(clustered)}


def _cmd_evaluate(cfg: dict) -> dict:
    from .metrics import RankObjective, write_metrics_csv
    case_ids = _case_ids(cfg["preds"])
    _input_dir(cfg["gt"])
    objective = RankObjective(
        regions=RankObjective.for_task(cfg["task"]).regions,
        tolerances=tuple(cfg["tolerances"]),
        dilation_iters=cfg["dilation"],
        connectivity=cfg["connectivity"],
    )
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out, "evaluate", cfg)
    items = [(cid, cfg["preds"], cfg["gt"], objective)
             for cid in case_ids]
    rows = map_ordered(_evaluate_metrics_case, items, case_ids,
                       cfg["threads"])
    write_metrics_csv(out / "metrics.csv", rows)
    log.info("evaluated %d cases into %s", len(case_ids), out / "metrics.csv")
    return {}


def _cmd_rank(cfg: dict) -> dict:
    from .metrics import read_metrics_csv
    from .ranking import rank_candidates, write_ranking_csv
    per_candidate = {}
    for spec in cfg["csvs"]:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            name, path = Path(spec).stem, spec
        if not name:
            raise ValueError(f"empty candidate name in {spec!r}")
        if name in per_candidate:
            raise ValueError(f"duplicate candidate name {name!r}")
        per_candidate[name] = read_metrics_csv(path)
    result = rank_candidates(per_candidate)  # bad input fails before any output
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out, "rank", cfg)
    write_ranking_csv(out / "ranking.csv", result)
    for name in sorted(result.candidates,
                       key=lambda n: (result.scores[n], n)):
        print(f"{name}\t{result.scores[name]!r}")
    return {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# A handler returns the fields it adds to the run record.
_COMMANDS: dict[str, tuple[tuple[_Opt, ...], Callable[[dict], dict], str]] = {
    "synth": (_SYNTH_SPEC, _cmd_synth,
              "generate a seeded synthetic corpus"),
    "extract-features": (_EXTRACT_SPEC, _cmd_extract_features,
                         "compute the radiomic feature table for a corpus"),
    "fit-policy": (_FIT_SPEC, _cmd_fit_policy,
                   "fit a post-processing policy on cases with ground truth"),
    "apply": (_APPLY_SPEC, _cmd_apply,
              "run a saved policy over predicted masks"),
    "evaluate": (_EVALUATE_SPEC, _cmd_evaluate,
                 "score predictions against ground truth"),
    "rank": (_RANK_SPEC, _cmd_rank,
             "aggregate metric CSVs into mean-rank scores"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gliopost",
        description="Adaptive post-processing for multi-label brain "
                    "tumor segmentations.",
    )
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, (spec, _, blurb) in _COMMANDS.items():
        sub = subs.add_parser(name, help=blurb, description=blurb)
        sub.add_argument("--config", default=argparse.SUPPRESS, metavar="FILE",
                         help="JSON file of option values; explicit flags win")
        for opt in spec:
            if opt.positional:
                sub.add_argument(opt.dest, nargs="*",
                                 default=argparse.SUPPRESS,
                                 metavar="CSV", help=opt.help)
            elif opt.flag is not None:
                kwargs = dict(dest=opt.dest, type=opt.coerce,
                              default=argparse.SUPPRESS, help=opt.help)
                if opt.choices:
                    kwargs["choices"] = opt.choices
                sub.add_argument(opt.flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG

    spec, handler, _ = _COMMANDS[ns.command]
    try:
        cfg = _merge_config(ns, spec)
    except _ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG

    try:
        extra = handler(cfg)
        _write_run_config(Path(cfg["out"]), ns.command, cfg,
                          run=_run_record(start) | extra)
        return EXIT_OK
    except json.JSONDecodeError as exc:
        log.error("malformed JSON: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except (ValueError, KeyError, MemoryError) as exc:
        log.error("%s", error_message(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
