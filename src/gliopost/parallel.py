"""Per-case work spread over worker processes.

Every command that handles cases one by one (``synth``, feature
extraction, the policy grid searches, ``apply``, ``evaluate``) maps a
module-level worker over its cases through ``map_ordered``, so results
come back in case order whatever the thread count, and a failure names
every case that failed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable


def error_message(exc: BaseException) -> str:
    """``str(exc)``, but a ``KeyError``'s first argument as it is: its
    ``str`` is the argument's repr, quotes included."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _reported(failed: list[tuple[str, Exception]]) -> Exception:
    """The first of the ``(case_id, exception)`` failures, its message
    (or, when empty, its type's name) led by its case id and, when more
    cases failed, followed by the ids of all of them.  It keeps its type,
    or the nearest base type whose message can be set."""
    case_id, exc = failed[0]
    message = error_message(exc) or type(exc).__name__
    if not message.startswith(f"{case_id}: "):
        message = f"{case_id}: {message}"
    if len(failed) > 1:
        message += f" ({len(failed)} cases failed: {', '.join(c for c, _ in failed)})"
    if message == error_message(exc):
        return exc
    try:
        return type(exc)(message)
    except TypeError:  # a type that cannot be built from one message
        exc.args = (message,)
    if error_message(exc) == message:
        return exc
    # its message ignores args, as numpy's _ArrayMemoryError's does: the
    # nearest base type that carries the message (BaseException always)
    for base in type(exc).__mro__[1:]:
        try:
            reported = base(message)
        except TypeError:
            continue
        if error_message(reported) == message:
            return reported


def map_ordered(worker: Callable, items: list, case_ids: list[str],
                threads: int) -> list:
    """``worker(item)`` for every item, in item order.

    ``case_ids[i]`` names ``items[i]``.  With ``threads`` above 1 the
    items run in that many worker processes.  A worker exception does not
    stop the other items.  Once all have run, the first failure in item
    order is raised with its case id in front of its message and, when
    more items failed, the ids of all failing cases in item order after
    it.  It keeps its type, or a base type that carries the message, so
    callers map it to the same exit code.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    pool = None
    if threads > 1 and len(items) > 1:
        # imported only for a pool.  The platform's default start method:
        # a forked worker (Linux) inherits the modules its command imported
        # before the pool started, cheaper than importing them again; no
        # caller has started a thread by then
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(threads, len(items)))
        calls = [pool.submit(worker, item).result for item in items]
    else:
        calls = [partial(worker, item) for item in items]
    out, failed = [], []
    try:
        for case_id, call in zip(case_ids, calls):
            try:
                out.append(call())
            except Exception as exc:
                failed.append((case_id, exc))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if failed:
        reported = _reported(failed)
        if reported is failed[0][1]:
            raise reported
        raise reported from failed[0][1]
    return out
