"""Spans around the program's public functions, recorded from outside.

The benchmark adds no instrumentation to the program.  A traced run
instead replaces a handful of public functions (``compile_file``,
``generate_c_module``, ``cbuild.build``, ``read_nrrd`` ...) with thin
wrappers that time each call.  Calls nest, so each span carries both its
inclusive time and its *self* time (inclusive minus the spans it
directly contains); the self times of one operation's spans plus an
explicit unattributed remainder add up to that operation's wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    self_s: float
    note: object = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict:
        return {"name": self.name, "t0": self.t0, "t1": self.t1,
                "self_s": self.self_s, "note": self.note}


class Recorder:
    """Installs timing wrappers and collects their spans.

    ``wrap(owner, attr, name)`` replaces ``owner.attr``.  For a function
    defined in a module, every loaded ``repro`` module that imported it by
    name (``from repro.nrrd import read_nrrd``) is patched too, so the call
    is seen whichever module makes it.  ``note(args, kwargs, result)``
    may attach a small JSON-able value (a size, a request key) to the span.
    Coroutine functions get an async wrapper that records inclusive time
    only: awaiting interleaves callers, so self time has no meaning there.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _wrapper(self, orig, name, note):
        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def awrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = await orig(*args, **kwargs)
                t1 = time.perf_counter()
                self._record(Span(name, t0, t1, t1 - t0,
                                  note(args, kwargs, out) if note else None))
                return out
            return awrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
            self._record(Span(name, t0, t1, (t1 - t0) - child,
                              note(args, kwargs, out) if note else None))
            return out
        return wrapper

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        orig = getattr(owner, attr)
        wrapped = self._wrapper(orig, name, note)
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [m for key, m in list(sys.modules.items())
                        if m is not None and m is not owner
                        and key.startswith("repro")
                        and getattr(m, attr, None) is orig]
        for target in targets:
            self._undo.append((target, attr, orig))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def take(self) -> list[Span]:
        """Remove and return the spans recorded so far."""
        with self._lock:
            out, self.spans = self.spans, []
        return out


def self_times(spans, parts: dict[str, str]) -> dict[str, float]:
    """Sum the self times of ``spans`` into ledger parts.

    ``parts`` maps a span name to the ledger part it belongs to.
    """
    out = {part: 0.0 for part in set(parts.values())}
    for sp in spans:
        if sp.name in parts:
            out[parts[sp.name]] += sp.self_s
    return out


class Ledger:
    """Per-operation wall time split into parts plus ``unattributed``.

    ``add`` checks the split: the parts may not claim more than the wall
    time (beyond ``slack`` seconds of clock jitter).  A negative remainder
    means two parts overlap — a measurement bug, reported as a failed
    check, never silently clamped.
    """

    def __init__(self, slack: float = 2e-4):
        self.rows: list[tuple[float, dict[str, float]]] = []
        self.slack = slack
        self.errors: list[str] = []

    def add(self, wall: float, parts: dict[str, float], what: str = "") -> float:
        rest = wall - sum(parts.values())
        if rest < -self.slack:
            self.errors.append(
                f"ledger of {what or 'an op'}: parts sum to "
                f"{sum(parts.values()):.6f}s > wall {wall:.6f}s")
        if any(v < -self.slack for v in parts.values()):
            self.errors.append(f"ledger of {what or 'an op'}: negative part "
                               f"in {parts}")
        self.rows.append((wall, dict(parts)))
        return rest

    def mean(self, part: str) -> float:
        if not self.rows:
            return 0.0
        return sum(p.get(part, 0.0) for _, p in self.rows) / len(self.rows)

    def mean_unattributed(self) -> float:
        if not self.rows:
            return 0.0
        return sum(w - sum(p.values()) for w, p in self.rows) / len(self.rows)

    def unattributed_frac(self) -> float:
        wall = sum(w for w, _ in self.rows)
        if wall <= 0:
            return 0.0
        return sum(w - sum(p.values()) for w, p in self.rows) / wall
