"""The benchmark tracer (bench/spans.py) wraps package functions by name;
every name it wraps must exist, or a traced benchmark run breaks."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_wraps_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    tracer = spans.Tracer()
    originals = {}
    try:
        tracer.install()
        for _, module, attr, _ in spans.TARGETS:
            wrapped = _resolve(module, attr)
            assert getattr(wrapped, "__wrapped__", None) is not None, \
                f"{module}.{attr} is not wrapped"
            originals[(module, attr)] = wrapped.__wrapped__
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert _resolve(module, attr) is original, f"{module}.{attr} not restored"
