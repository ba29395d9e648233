"""In-process span tracing for the per-layer benchmark run.

The tracer wraps public functions of the package from outside: each
wrapped function is replaced by a timing wrapper in every ``gliopost``
module that holds it, under its own name or a name another module
imported.  Nothing under ``src/`` is edited; ``uninstall`` restores the
originals.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

_CASE_FILE = re.compile(r"^(?P<case>.+)-[^-]+\.nii(\.gz)?$")


def _case_from_path(args, kwargs, index):
    path = kwargs.get("path", args[index] if len(args) > index else None)
    match = _CASE_FILE.match(Path(path).name) if path is not None else None
    return match.group("case") if match else None


def _case_attr(index):
    return lambda args, kwargs: getattr(args[index], "case_id", None)


def _generated_case(args, kwargs):
    from gliopost.synth import case_name

    return case_name(args[1])


# (span name, module, attribute, case id from the call or None)
TARGETS = (
    ("nifti.read", "gliopost.nifti", "read_nifti",
     lambda a, k: _case_from_path(a, k, 0)),
    ("nifti.write", "gliopost.nifti", "write_nifti",
     lambda a, k: _case_from_path(a, k, 1)),
    ("volume.load_case_bundle", "gliopost.volume", "load_case_bundle",
     lambda a, k: a[0]),
    ("synth.generate_case", "gliopost.synth", "generate_case", _generated_case),
    ("radiomics.extract_case_features", "gliopost.radiomics.extract",
     "extract_case_features", _case_attr(0)),
    ("radiomics.shape", "gliopost.radiomics.shape", "shape_features", None),
    ("radiomics.firstorder", "gliopost.radiomics.firstorder",
     "firstorder_features", None),
    ("radiomics.glcm", "gliopost.radiomics.texture", "glcm_features", None),
    ("radiomics.glrlm", "gliopost.radiomics.texture", "glrlm_features", None),
    ("radiomics.glszm", "gliopost.radiomics.texture", "glszm_features", None),
    ("radiomics.gldm", "gliopost.radiomics.texture", "gldm_features", None),
    ("radiomics.ngtdm", "gliopost.radiomics.texture", "ngtdm_features", None),
    ("radiomics.discretize", "gliopost.radiomics.texture", "discretize", None),
    ("morphology.connected_components", "gliopost.morphology",
     "connected_components", None),
    ("morphology.dilate", "gliopost.morphology", "dilate", None),
    ("morphology.boundary_voxels", "gliopost.morphology", "boundary_voxels",
     None),
    ("morphology.edt", "gliopost.morphology", "euclidean_distance_transform",
     None),
    ("metrics.scorer_build", "gliopost.metrics", "RegionScorer.__init__", None),
    ("metrics.score", "gliopost.metrics", "RegionScorer.score", None),
    ("metrics.evaluate_case", "gliopost.metrics", "evaluate_case",
     lambda a, k: k.get("case_id") or None),
    ("clustering.fit_pca", "gliopost.clustering", "fit_pca", None),
    ("clustering.fit_kmeans", "gliopost.clustering", "fit_kmeans", None),
    ("clustering.assign_cluster", "gliopost.clustering", "assign_cluster",
     None),
    ("policy.fit_component_thresholds", "gliopost.policy",
     "fit_component_thresholds", None),
    ("policy.fit_relabel_rules", "gliopost.policy", "fit_relabel_rules", None),
    ("policy.apply_policy", "gliopost.policy", "apply_policy", _case_attr(1)),
    ("policy.load_policy", "gliopost.policy", "load_policy", None),
    ("ranking.rank_candidates", "gliopost.ranking", "rank_candidates", None),
)

UNITS = {"seconds": "s", "calls": "count", "megabytes": "MB"}

# per-layer metric name -> (span name, what to total, a key of UNITS)
LAYER_METRICS = {
    "nifti.read_s": ("nifti.read", "seconds"),
    "nifti.read_calls": ("nifti.read", "calls"),
    "nifti.decoded_mb": ("nifti.read", "megabytes"),
    "nifti.write_s": ("nifti.write", "seconds"),
    "volume.load_case_bundle_s": ("volume.load_case_bundle", "seconds"),
    "synth.generate_case_s": ("synth.generate_case", "seconds"),
    "radiomics.extract_case_features_s":
        ("radiomics.extract_case_features", "seconds"),
    "radiomics.shape_s": ("radiomics.shape", "seconds"),
    "radiomics.firstorder_s": ("radiomics.firstorder", "seconds"),
    "radiomics.glcm_s": ("radiomics.glcm", "seconds"),
    "radiomics.glrlm_s": ("radiomics.glrlm", "seconds"),
    "radiomics.glszm_s": ("radiomics.glszm", "seconds"),
    "radiomics.gldm_s": ("radiomics.gldm", "seconds"),
    "radiomics.ngtdm_s": ("radiomics.ngtdm", "seconds"),
    "radiomics.discretize_calls": ("radiomics.discretize", "calls"),
    "morphology.connected_components_s":
        ("morphology.connected_components", "seconds"),
    "morphology.connected_components_calls":
        ("morphology.connected_components", "calls"),
    "morphology.dilate_s": ("morphology.dilate", "seconds"),
    "morphology.boundary_voxels_s": ("morphology.boundary_voxels", "seconds"),
    "morphology.edt_s": ("morphology.edt", "seconds"),
    "metrics.scorer_build_s": ("metrics.scorer_build", "seconds"),
    "metrics.scorer_builds": ("metrics.scorer_build", "calls"),
    "metrics.score_s": ("metrics.score", "seconds"),
    "metrics.score_calls": ("metrics.score", "calls"),
    "metrics.evaluate_case_s": ("metrics.evaluate_case", "seconds"),
    "clustering.fit_pca_s": ("clustering.fit_pca", "seconds"),
    "clustering.fit_kmeans_s": ("clustering.fit_kmeans", "seconds"),
    "clustering.assign_cluster_s": ("clustering.assign_cluster", "seconds"),
    "policy.fit_component_thresholds_s":
        ("policy.fit_component_thresholds", "seconds"),
    "policy.fit_relabel_rules_s": ("policy.fit_relabel_rules", "seconds"),
    "policy.apply_policy_s": ("policy.apply_policy", "seconds"),
    "policy.load_policy_calls": ("policy.load_policy", "calls"),
    "ranking.rank_candidates_s": ("ranking.rank_candidates", "seconds"),
    "ranking.rank_calls": ("ranking.rank_candidates", "calls"),
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    case_id: str | None
    nbytes: int = 0  # bytes decoded, for nifti.read


class TraceError(Exception):
    pass


class Tracer:
    """Collects spans from wrapped package functions and stage blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, case_id: str | None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if case_id is None and parent >= 0:
            case_id = self.spans[parent].case_id
        span = Span(name, 0, 0, parent, case_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, case_id: str | None = None):
        span = self._open(name, case_id)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, case_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, case_of(args, kwargs) if case_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "nifti.read":
                span.nbytes = int(result.data.nbytes)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever an imported ``gliopost`` module
        binds it; import the entry points first."""
        owners = [importlib.import_module(t[1]) for t in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gliopost" or n.startswith("gliopost.")]
        for (name, _, attr, case_of), owner in zip(TARGETS, owners):
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(name, original, case_of))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, case_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, holder, key: str, wrapper) -> None:
        self._patches.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end_ns - s.start_ns
        return [s.end_ns - s.start_ns - c for s, c in zip(self.spans, child)]

    def _outermost(self, index: int) -> bool:
        """False when an ancestor span has the same name."""
        name = self.spans[index].name
        p = self.spans[index].parent
        while p >= 0:
            if self.spans[p].name == name:
                return False
            p = self.spans[p].parent
        return True

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, megabytes."""
        selfs = self.self_times_ns()
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s.name, {"calls": 0, "seconds": 0.0,
                                        "self_seconds": 0.0, "megabytes": 0.0})
            t["calls"] += 1
            t["self_seconds"] += selfs[i] / 1e9
            t["megabytes"] += s.nbytes / 1e6
            if self._outermost(i):
                t["seconds"] += (s.end_ns - s.start_ns) / 1e9
        return out

    def nested_seconds(self, inner: str, outer: str) -> float:
        """Seconds spent in outermost ``inner`` spans that run inside an
        ``outer`` span."""
        total = 0
        for i, s in enumerate(self.spans):
            if s.name != inner or not self._outermost(i):
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != outer:
                p = self.spans[p].parent
            if p >= 0:
                total += s.end_ns - s.start_ns
        return total / 1e9

    def table(self, traced_s: float, plain_s: float) -> str:
        """Per-span totals and the tracing overhead of the pipeline."""
        lines = [f"{'span':<36}{'calls':>8}{'total s':>12}{'self s':>12}"]
        for name, t in sorted(self.totals().items()):
            lines.append(f"{name:<36}{int(t['calls']):>8}"
                         f"{t['seconds']:>12.4f}{t['self_seconds']:>12.4f}")
        lines.append(f"pipeline wall time: traced {traced_s:.3f} s, untraced "
                     f"{plain_s:.3f} s, tracing overhead "
                     f"{traced_s - plain_s:.3f} s")
        return "\n".join(lines) + "\n"

    def check(self, stage_walls: dict[str, float]) -> None:
        """Spans nest, self times are >= 0, and the self times under each
        stage root sum to no more than that stage's wall time."""
        for i, s in enumerate(self.spans):
            if s.end_ns < s.start_ns:
                raise TraceError(f"span {i} {s.name} ends before it starts")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if not (p.start_ns <= s.start_ns and s.end_ns <= p.end_ns):
                    raise TraceError(f"span {i} {s.name} is not inside "
                                     f"its parent {p.name}")
        selfs = self.self_times_ns()
        if min(selfs, default=0) < 0:
            i = selfs.index(min(selfs))
            raise TraceError(f"span {i} {self.spans[i].name} has negative "
                             f"self time")
        root_of = []
        for i, s in enumerate(self.spans):
            root_of.append(i if s.parent < 0 else root_of[s.parent])
        per_root: dict[int, int] = {}
        for i, root in enumerate(root_of):
            per_root[root] = per_root.get(root, 0) + selfs[i]
        for root, total in per_root.items():
            name = self.spans[root].name
            if name not in stage_walls:
                raise TraceError(f"root span {name} is not a timed stage")
            if total / 1e9 > stage_walls[name]:
                raise TraceError(f"self times under {name} sum to "
                                 f"{total / 1e9:.6f} s, more than the stage "
                                 f"wall time {stage_walls[name]:.6f} s")

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
