"""Spans around calls into linpois layers, for traced runs only.

A span records its name, start, end, parent span and the id of the
operation (query) it belongs to, plus an optional work count.  Spans are
kept in memory and written out once when the run ends.

Nested layer calls are caught by replacing module attributes of the
already imported package for the life of a traced run (``instrument``)
and putting them back afterwards (``restore``); nothing on disk changes
and untraced runs never call ``instrument``.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    count: int


def _terms(result) -> int:
    return int(result.terms)


def _rows(result) -> int:
    return int(len(result))


# (module, attribute, span name, count from result).  The two draw
# functions are private to the numpy kernels; when a later version
# drops them, the table/PTRS rates read 0 and the rest is unaffected.
HOOKS = (
    ("linpois.model", "preprocess", "solutions.preprocess", None),
    ("linpois.model", "snf", "intlinalg.snf", None),
    ("linpois.model", "classify", "solutions.classify", None),
    ("linpois.model", "inverse_rational", "intlinalg.inverse", None),
    ("linpois.pmf", "solution_family", "solutions.family", None),
    ("linpois.pmf", "parametrize_single_index", "solutions.line", None),
    ("linpois.pmf", "solve_invertible", "solutions.invertible", None),
    ("linpois.pmf", "enumerate_solutions", "solutions.enumerate", None),
    ("linpois.pmf", "logsumexp", "pmf.logsumexp", None),
    ("linpois.montecarlo", "pmf", "pmf.pmf", _terms),
    ("linpois.montecarlo", "hits_block", "kernels.hits_block", None),
    ("linpois.kernels", "_draw_table_np", "kernels.draw_table", _rows),
    ("linpois.kernels", "_draw_ptrs_np", "kernels.draw_ptrs", _rows),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._op: int | None = None
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        # worker threads of a call start with an empty stack: their
        # spans belong to the operation that started them
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, t0, parent, count) -> None:
        self._stack().pop()
        self.spans[sid] = Span(name, t0, time.perf_counter(), parent, self._op, count)

    @contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one operation; yields a dict whose "count" key
        the caller may set before leaving."""
        self._op = op_id
        sid, parent = self._open()
        self._root = sid
        box = {"count": 0}
        t0 = time.perf_counter()
        try:
            yield box
        finally:
            self._close(sid, name, t0, parent, box["count"])
            self._root = None
            self._op = None

    def instrument(self) -> None:
        if self._patched:
            return
        self.missing = []
        for mod_name, attr, name, counter in HOOKS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(orig, name, counter))
            self._patched.append((mod, attr, orig))

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                count = counter(out) if counter is not None and out is not None else 0
                self._close(sid, name, t0, parent, count)

        return traced

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def dump(self, path, meta: dict) -> None:
        spans = [s._asdict() for s in self.finished()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
