"""In-memory span tracer and attribute shims for the traced benchmark run.

Nothing here is imported by the program under test.  The benchmark wraps the
public entry points of each layer with :meth:`Patcher.wrap` only in a traced
run (``--trace 1``); an untraced run never installs a shim, so the
end-to-end numbers carry no tracing cost.

A span records ``(id, name, start, end, parent, thread)``.  Its parent is the
innermost open span on the same thread; a thread with no open span (a sweep
worker, an HTTP handler) adopts the span registered with ``adopt=True``, so
work fanned out to pools still nests under the call that started it.  Self
time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Collects spans and counters in memory; written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopted: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, adopt: bool = False) -> Iterator[int]:
        """Time the enclosed block as one span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self._adopted
        span_id = next(self._ids)
        stack.append(span_id)
        if adopt:
            previous, self._adopted = self._adopted, span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopted = previous
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        children: Dict[Optional[int], List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, name, start, end, _, _ in self.spans:
            covered = _covered(children.get(span_id, ()), start, end)
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "thread": thread,
                }
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _covered(intervals: Any, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


#: Marks an attribute the owner inherited: restoring deletes the override.
_INHERITED = object()


class Patcher:
    """Replaces attributes with wrappers and restores them afterwards."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(original)``; staticmethods stay static."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        own = attr in vars(owner)
        self._undo.append((owner, attr, raw if own else _INHERITED))
        setattr(owner, attr, replacement)

    def timed(
        self,
        tracer: Tracer,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
        adopt: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` in a span; ``after(args, result)`` may count."""

        def make(original: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name, adopt=adopt):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return traced

        self.wrap(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
