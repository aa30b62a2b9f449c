"""Spans around calls into cyclichd's public functions, from outside.

install() rebinds each traced name, in every loaded cyclichd module that
holds it (callers bind names by `from .x import y`), to a wrapper that
records a span: name, start, end, parent span and operation id.  Spans
stay in memory; the caller writes them out when the run ends.  A name the
package no longer has is listed in `missing` and its metrics are left
out, so the traced run survives refactors of the fast path.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _edge_stats(edges) -> tuple[int, int]:
    """(edge count, bytes held by the returned container and its items)."""
    nbytes = getattr(edges, "nbytes", None)
    if nbytes is None:
        nbytes = sys.getsizeof(edges) + sum(sys.getsizeof(e) for e in edges)
    return len(edges), nbytes


# (module, qualified name, summary of the return value).  Summaries run when
# the operation ends, outside every span, so they cost no traced time; a
# None result (no match, no assignment) is recorded as None unsummarized.
TARGETS = [
    ("cyclichd.recognizer", "recognize", None),
    ("cyclichd.recognizer", "candidate_lengths", len),
    ("cyclichd.recognizer", "feasible", bool),
    ("cyclichd.recognizer", "perfect_matching", bool),
    ("cyclichd.witness", "build_witness", None),
    ("cyclichd.witness", "solve_start", None),
    ("cyclichd.witness", "materialize_edges", _edge_stats),
    ("cyclichd.witness", "verify_witness", bool),
    ("cyclichd.bittable", "BitColumn.contiguous_sum", None),
    ("cyclichd.cli", "main", None),
]


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id, value]
        self.spans: list[list] = []
        self.names: list[str] = []
        self.missing: list[str] = []
        self.op = 0
        self._op_first = 0
        self._stack: list[int] = []
        self._summaries: dict[str, object] = {}

    def install(self) -> None:
        for module_name, qualname, summary in TARGETS:
            label = f"{module_name.split('.')[-1]}.{qualname.split('.')[-1]}"
            try:
                owner = importlib.import_module(module_name)
                path = qualname.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, original)
            setattr(owner, path[-1], wrapper)
            for name, module in list(sys.modules.items()):
                if name == "cyclichd" or name.startswith("cyclichd."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
            self.names.append(label)
            self._summaries[label] = summary

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                span[5] = fn(*args, **kwargs)
                return span[5]
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_first = len(self.spans)

    def end_op(self) -> None:
        for span in self.spans[self._op_first:]:
            summary, result = self._summaries[span[0]], span[5]
            span[5] = None
            if summary is not None and result is not None:
                try:
                    span[5] = summary(result)
                except (TypeError, ValueError):  # a result of another shape
                    pass

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.
        Calls nest strictly on one thread, so children never overlap."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, value in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]
