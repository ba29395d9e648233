"""Per-case work spread over worker processes.

Every command that handles cases one by one (``synth``, feature
extraction, the policy grid searches, ``apply``, ``evaluate``) maps a
module-level worker over its cases through ``map_ordered``, so results
come back in case order whatever the thread count, and a failure names
the case it happened in.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable


def _named(exc: Exception, case_id: str) -> Exception:
    """``exc`` with ``case_id`` in front of its message, same type."""
    if str(exc).startswith(f"{case_id}: "):
        return exc
    message = f"{case_id}: {exc}"
    try:
        return type(exc)(message)
    except TypeError:  # a type that cannot be built from one message
        exc.args = (message,)
        return exc


def map_ordered(worker: Callable, items: list, case_ids: list[str],
                threads: int) -> list:
    """``worker(item)`` for every item, in item order.

    ``case_ids[i]`` names ``items[i]``.  With ``threads`` above 1 the
    items run in that many worker processes.  A worker exception is
    re-raised with its case id in front of its message and keeps its
    type, so callers map it to the same exit code.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    pool = None
    if threads > 1 and len(items) > 1:
        # the platform's default start method: on Linux a forked worker
        # inherits numpy and scipy instead of importing them again, which
        # would cost more than a small grid search; no caller has started
        # a thread by then
        pool = ProcessPoolExecutor(max_workers=min(threads, len(items)))
        results = pool.map(worker, items)
    else:
        results = map(worker, items)
    try:
        out = []
        for case_id in case_ids:
            try:
                out.append(next(results))
            except Exception as exc:
                named = _named(exc, case_id)
                if named is exc:
                    raise
                raise named from exc
        return out
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
