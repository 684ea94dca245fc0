"""Span tracing from outside the program.

A :class:`Tracer` replaces a function *where its caller looks it up*
(a module attribute or a class attribute) with a wrapper that records a
span around each call, and puts every original back on :meth:`close`.
Nothing inside ``src/`` is edited: the engine binds its kernel names at
import, so ``repro.engines.bit.bmv_bin_full_full_multi`` is the name to
wrap, not ``repro.kernels.bmv.bmv_bin_full_full_multi``.

Each span has an id, the id of the span open around it, a layer name,
a start and an end.  A layer's *self* time is its span minus the time
its child spans cover; its *inclusive* time counts only outermost
spans of that name, so a layer re-entered below itself is not counted
twice.  ``on_exit`` hooks see the call's arguments and result, which is
how counts (tile visits, modeled bytes, iterations) are gathered at the
boundary where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

_clock = time.perf_counter


class Tracer:
    """Collects the spans, totals and samples of one pass."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Free-form per-call records kept by ``on_exit`` hooks.
        self.samples: dict[str, list] = defaultdict(list)
        self.marks: dict[str, dict] = defaultdict(dict)

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_exit: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name)
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Put every wrapped function back (last wrapped, first
        restored, so a name wrapped twice unwinds correctly)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, _clock(), 0.0])
        self._next_id += 1
        self._open[name] += 1

    def _exit(self, name: str) -> None:
        end = _clock()
        sid, _, start, child = self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, parent, name, start, end))
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._open[name] == 0:
            self.incl_s[name] += dur

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to a named count."""
        self.counts[key] += value

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON: ``[id, parent, layer,
        start_us, duration_us]`` rows, times relative to the first
        span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, name, round((start - t0) * 1e6, 1),
             round((end - start) * 1e6, 1)]
            for sid, parent, name, start, end in sorted(self.spans)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "layer", "start_us",
                                  "duration_us"], "spans": rows}, fh)
