"""Spans around the calls into each fmbs module, recorded from outside src/.

A span is [name, start_ns, end_ns, parent, iteration, note]: name is
"<module>.<function>", parent is the index of the enclosing span (-1 at top
level), iteration tags the set-up round or iteration the span belongs to,
and note is a small value taken from the call (a matrix side, a step-time
list, a file size).  Spans stay in memory until the run writes them out.
"""

import functools
import os
import time
from contextlib import contextmanager

import fmbs.cli
import fmbs.inverse
import fmbs.placement


class Tracer:
    def __init__(self):
        self.spans = []
        self.iteration = None
        self._open = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else -1, self.iteration, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, api):
        """Wrap the api entry points and the names fmbs modules bind, then restore."""
        targets = [
            (api, "fmbs_select", "placement.fmbs_select", _steps),
            (api, "direct_greedy_select", "placement.direct_greedy_select", _steps),
            (api, "generate", "matgen.generate", None),
            (api, "cli", "cli.main", None),
            (fmbs.cli, "fmbs_select", "placement.fmbs_select", _steps),
            (fmbs.cli, "random_select", "placement.random_select", None),
            (fmbs.cli, "expected_mse", "inverse.expected_mse", None),
            (fmbs.cli, "generate", "matgen.generate", None),
            (fmbs.cli, "load_matrix", "matio.load_matrix", _file_size),
            (fmbs.placement, "trace_inverse", "linalg.trace_inverse", _side),
            (fmbs.inverse, "trace_inverse", "linalg.trace_inverse", _side),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, note), (_, _, fn) in zip(targets, originals):
                setattr(owner, attr, self.wrap(name, fn, note))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


def _steps(args, result):
    return {"k": int(args[0].shape[1]), "step_times_ns": list(result.step_times_ns)}


def _side(args, result):
    return int(args[0].shape[0])


def _file_size(args, result):
    return os.path.getsize(args[0])


def self_times(spans):
    """Duration minus the time covered by direct children, per span, in ns.

    Calls are single-threaded and nested, so children never overlap and
    their coverage is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
