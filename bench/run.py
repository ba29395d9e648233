"""End-to-end and per-layer benchmark of the gliopost pipeline.

Run from the repository root:

    python3 bench/run.py --workload accept64 --seed 1 --seconds 20 --trace 0

The benchmark synthesizes three corpora, each a training and a held-out
set, from the seed, then runs the pipeline as users run it, one CLI
process per stage: ``extract-features``, ``fit-policy`` on the
precomputed features, ``apply``, ``evaluate`` on the raw and on the
post-processed masks, and ``rank``.  It repeats whole rounds, one pass
over each corpus, until ``--seconds`` of stage time have been measured,
checks the outputs of the last pass, and prints one JSON line with the
end-to-end metrics.

With ``--trace 1`` it instead runs everything in this process at one
thread, once plain and once with the package's public functions wrapped
by spans, and prints the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from spans import LAYER_METRICS, UNITS, Tracer, TraceError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
STARTUP_REPEATS = 3
BRUTE_REGIONS = ("ET", "TC", "WT", "NETC", "SNFH")
SETUP_THREADS = min(2, len(os.sched_getaffinity(0)))

# the pinned recipe of tests/test_acceptance.py, without its seed
ACCEPT_RECIPE = {
    "dims": [64, 64, 64],
    "lesion_count": [1, 1],
    "lesion_radius": [13.0, 16.0],
    "axis_scale": [0.85, 1.0],
    "shells": [{"label": 3, "outer": [0.41, 0.51]},
               {"label": 2, "outer": [1.0, 1.0]}],
    "islands": [{"label": 1, "count": [1, 2], "size": [3, 8]},
                {"label": 2, "count": [1, 2], "size": [3, 8]},
                {"label": 3, "count": [1, 2], "size": [3, 8]}],
    "swap": {"src": 3, "dst": 1, "trigger": 0.085},
    "island_margin": 7,
}

CROWDED_RECIPE = {
    "dims": [64, 64, 64],
    "lesion_count": [2, 3],
    "lesion_radius": [7.0, 10.0],
    "axis_scale": [0.85, 1.0],
    "shells": [{"label": 3, "outer": [0.35, 0.45]},
               {"label": 1, "outer": [0.55, 0.7]},
               {"label": 2, "outer": [1.0, 1.0]}],
    "islands": [{"label": 1, "count": [4, 6], "size": [3, 8]},
                {"label": 2, "count": [4, 6], "size": [3, 8]},
                {"label": 3, "count": [4, 6], "size": [3, 8]}],
    "jitter": 12,
    "island_margin": 5,
}


@dataclass(frozen=True)
class Workload:
    recipe: dict
    train: int
    held: int
    threads: int
    closed_form: bool = False  # raw scores follow from inventory.json
    acceptance: bool = False  # criterion-5 outcomes hold
    brute: bool = False  # compare one case with the brute-force oracle


WORKLOADS = {
    "accept64": Workload(ACCEPT_RECIPE, train=6, held=4, threads=2,
                         closed_form=True, acceptance=True),
    "crowded64": Workload(CROWDED_RECIPE, train=4, held=3, threads=1,
                          brute=True),
    # full BraTS size: one pass takes minutes, so this workload is run by
    # hand for reference figures and is not listed in BENCHMARK.json
    "brats": Workload({**ACCEPT_RECIPE, "dims": [240, 240, 155],
                       "lesion_radius": [30.0, 40.0]},
                      train=3, held=1, threads=1, closed_form=True),
}


class StageFailed(Exception):
    pass


@dataclass
class Stage:
    name: str
    argv: list[str]
    items: int  # per-case items the stage processes


def setup_stages(recipe: Path, corpus: Path, wl: Workload,
                 threads: int) -> list[Stage]:
    common = ["--config", str(recipe), "--threads", str(threads)]
    return [
        Stage("synth-train", ["synth", "--out", str(corpus / "train"),
                              "--cases", str(wl.train), *common], wl.train),
        Stage("synth-held", ["synth", "--out", str(corpus / "held"),
                             "--cases", str(wl.held),
                             "--start-index", str(wl.train), *common],
              wl.held),
    ]


def pipeline_stages(corpus: Path, out: Path, wl: Workload,
                    threads: int) -> list[Stage]:
    train, held = corpus / "train", corpus / "held"
    th = ["--threads", str(threads)]
    return [
        Stage("extract-features",
              ["extract-features", "--preds", str(train / "preds"),
               "--images", str(train / "images"),
               "--out", str(out / "features"), *th], wl.train),
        Stage("fit-policy",
              ["fit-policy", "--preds", str(train / "preds"),
               "--images", str(train / "images"), "--gt", str(train / "gt"),
               "--features", str(out / "features" / "features.csv"),
               "--k-range", "2", "--out", str(out / "fit"), *th], wl.train),
        Stage("apply",
              ["apply", "--policy", str(out / "fit" / "policy.json"),
               "--preds", str(held / "preds"), "--images", str(held / "images"),
               "--out", str(out / "post"), *th], wl.held),
        Stage("evaluate-identity",
              ["evaluate", "--preds", str(held / "preds"),
               "--gt", str(held / "gt"),
               "--out", str(out / "metrics-identity"), *th], wl.held),
        Stage("evaluate-fitted",
              ["evaluate", "--preds", str(out / "post"),
               "--gt", str(held / "gt"),
               "--out", str(out / "metrics-fitted"), *th], wl.held),
        Stage("rank",
              ["rank", f"fitted={out / 'metrics-fitted' / 'metrics.csv'}",
               f"identity={out / 'metrics-identity' / 'metrics.csv'}",
               "--out", str(out / "ranking")], 2),
    ]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], log: Path) -> tuple[float, int]:
    """Wall seconds and peak RSS in KiB of one command, the peak taken
    over the process and every child it waited for (pool workers)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").splitlines()[-5:]
        raise StageFailed(f"{argv[3]} exited with "
                          f"{proc.returncode}: " + " | ".join(tail))
    return elapsed, usage.ru_maxrss


def run_cli(stage: Stage, log: Path) -> tuple[float, int]:
    return run_process([sys.executable, "-m", "gliopost.cli", *stage.argv],
                       log)


def corpus_seed(seed: int, rep: int) -> int:
    """Recipe seed of the rep-th corpus of a run; runs never share one."""
    return seed * SETUP_REPEATS + rep


def write_recipe(wl: Workload, seed: int, path: Path) -> Path:
    path.write_text(json.dumps({"seed": seed, **wl.recipe}, indent=2) + "\n")
    return path


def run_checks(wl: Workload, corpus: Path, out: Path, oracle: bool) -> None:
    """Check one pass; ``oracle`` adds the brute-force comparison, which
    takes tens of seconds on a 64^3 case."""
    held = corpus / "held"
    checks.check_features(out / "features" / "features.csv", corpus / "train")
    checks.check_self_score(held)
    checks.check_apply_invariants(held, out / "post")
    checks.check_rank_sum(out / "ranking" / "ranking.csv")
    if wl.closed_form:
        checks.check_closed_form(out / "metrics-identity" / "metrics.csv", held)
    if wl.acceptance:
        checks.check_acceptance(held, out / "post",
                                out / "ranking" / "ranking.csv")
        extract = Stage("extract-held", [
            "extract-features", "--preds", str(held / "preds"),
            "--images", str(held / "images"), "--out",
            str(out / "features-held"), "--threads", str(wl.threads)], 0)
        run_cli(extract, out / "checks.log")
        features = out / "features-held" / "features.csv"
        checks.check_features(features, held)
        checks.check_apply_recomputed(out / "fit" / "policy.json", features,
                                      held, out / "post")
    if wl.brute and oracle:
        first = sorted(checks.inventory(held)["cases"])[0]
        checks.check_brute_force(out / "metrics-identity" / "metrics.csv",
                                 held, first, BRUTE_REGIONS)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fsync_tree(root: Path) -> None:
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_end_to_end(wl: Workload, seed: int, seconds: float,
                   work: Path) -> dict:
    log = work / "stages.log"
    corpora, setups = [], []
    for rep in range(SETUP_REPEATS):
        recipe = write_recipe(wl, corpus_seed(seed, rep),
                              work / f"recipe{rep}.json")
        corpora.append(work / f"corpus{rep}")
        setups.append(sum(run_cli(s, log)[0] for s in
                          setup_stages(recipe, corpora[-1], wl, SETUP_THREADS)))

    # the set-up's files reach the disk and one untimed process start
    # warms the imports, so the first timed stage waits for neither
    for corpus in corpora:
        _fsync_tree(corpus)
    run_process([sys.executable, "-m", "gliopost.cli", "--help"], log)

    # whole rounds, one pass over each corpus, until enough time is measured
    passes = []
    while not passes or sum(p["pipeline"] for p in passes) < seconds:
        for corpus in corpora:
            out = work / f"pass{len(passes)}"
            if passes:
                shutil.rmtree(work / f"pass{len(passes) - 1}")
            times, rss = {}, 0
            for stage in pipeline_stages(corpus, out, wl, wl.threads):
                times[stage.name], peak = run_cli(stage, log)
                rss = max(rss, peak)
            print(f"bench: pass {len(passes) + 1} on {corpus.name}: "
                  + ", ".join(f"{k} {v:.3f} s" for k, v in times.items()),
                  file=sys.stderr)
            times["pipeline"] = sum(times.values())
            times["rss_kib"] = rss
            passes.append(times)

    run_checks(wl, corpus, out, oracle=False)

    def total(*stages):
        return sum(p[s] for p in passes for s in stages)

    n = len(passes)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "extract_cases_per_s": _metric(
            n * wl.train / total("extract-features"), "cases/s"),
        "fit_s": _metric(total("fit-policy") / n, "s"),
        "apply_cases_per_s": _metric(n * wl.held / total("apply"), "cases/s"),
        "evaluate_cases_per_s": _metric(
            2 * n * wl.held / total("evaluate-identity", "evaluate-fitted"),
            "cases/s"),
        "pipeline_s": _metric(total("pipeline") / n, "s"),
        "peak_rss_mb": _metric(
            max(p["rss_kib"] for p in passes) * 1024 / 1e6, "MB"),
    }
    stages = pipeline_stages(corpus, out, wl, wl.threads)
    return {"attempted": n * sum(1 + s.items for s in stages),
            "metrics": metrics}


def _in_process(stage: Stage) -> float:
    from gliopost.cli import main

    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = main(stage.argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise StageFailed(f"{stage.name} exited with {code}")
    return elapsed


def run_traced(name: str, wl: Workload, seed: int, work: Path) -> dict:
    import gliopost.cli  # noqa: F401  (wrapped below with the rest)

    recipe = write_recipe(wl, corpus_seed(seed, 0), work / "recipe.json")
    corpus = work / "corpus"
    setup = setup_stages(recipe, corpus, wl, 1)
    pipeline = pipeline_stages(corpus, work / "traced", wl, 1)
    tracer = Tracer()
    walls = {}
    tracer.install()
    try:
        for stage in setup + pipeline:
            root = f"stage.{stage.name}"
            start = time.perf_counter()
            with tracer.span(root):
                _in_process(stage)
            walls[root] = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.check(walls)
    traced = sum(walls[f"stage.{s.name}"] for s in pipeline)
    plain = sum(_in_process(s)
                for s in pipeline_stages(corpus, work / "plain", wl, 1))

    run_checks(wl, corpus, work / "traced", oracle=True)

    log = work / "startup.log"
    startup = statistics.median(
        run_process([sys.executable, "-m", "gliopost.cli", "--help"], log)[0]
        for _ in range(STARTUP_REPEATS))

    totals = tracer.totals()
    metrics = {}
    for metric, (span, field) in LAYER_METRICS.items():
        metrics[metric] = _metric(totals.get(span, {}).get(field, 0),
                                  UNITS[field])
    metrics["policy.apply_extraction_share"] = _metric(
        tracer.nested_seconds("radiomics.extract_case_features",
                              "policy.apply_policy")
        / totals["policy.apply_policy"]["seconds"], "ratio")
    metrics["cli.startup_s"] = _metric(startup, "s")
    metrics["trace.overhead_s"] = _metric(traced - plain, "s")

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = traces / f"{name}-seed{seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    table = tracer.table(traced, plain)
    stem.with_suffix(".layers.txt").write_text(table)
    print(table, file=sys.stderr)
    return {"attempted": 2 * sum(1 + s.items for s in pipeline),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in (SRC / "gliopost" / "cli.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"bench: {', '.join(map(str, missing))} not found; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    # a terminated run still kills its running stage and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            result = run_traced(args.workload, wl, args.seed, work)
        else:
            result = run_end_to_end(wl, args.seed, args.seconds, work)
    except checks.CheckFailed as exc:
        print(f"bench: {args.workload} seed {args.seed}: check failed: {exc}",
              file=sys.stderr)
        return 1
    except (StageFailed, TraceError) as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": 0, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
