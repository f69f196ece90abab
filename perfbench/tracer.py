"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces functions with timing wrappers at the names the program
looks them up by: `flow` binds `window_mesh`, `fik_y`, `fik_y_derivs` and
`cao_koiso_profile` through `from ... import`, and `barriers` binds `fik_y`,
so those module attributes are patched, not the defining module's.  A span's
self time is its duration minus the time of the spans it encloses; a span
nested inside one of the same name adds only to the outer one's total.  A
boundary that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# span name -> boundaries as (krflow module, dotted attribute path, count key).
# Paths are resolved at install time, so a renamed class or function simply
# makes that boundary absent.
BOUNDARIES = {
    "flow.run": [("flow", "run_flow", None)],
    "flow.initial": [("flow", "make_initial", None)],
    "soliton.profile": [("flow", "cao_koiso_profile", None)],
    "flow.step": [("flow", "_UnscaledEngine.step", None)],
    "flow.dilated": [("flow", "_DilatedEngine.advance_to", None),
                     ("flow", "_DilatedEngine.step", "flow.dilated_substeps")],
    "barriers.monitor": [("barriers", "SandwichMonitor.check", "barriers.monitor_calls")],
    "soliton.fik": [("barriers", "fik_y", None), ("barriers", "fik_y_derivs", None),
                    ("flow", "fik_y", None), ("flow", "fik_y_derivs", None),
                    ("analysis", "fik_y_derivs", None)],
    "flow.remesh": [("flow", "_UnscaledEngine.remesh", "flow.remeshes"),
                    ("flow", "_DilatedEngine.remesh", "flow.remeshes")],
    "grids.mesh": [("flow", "window_mesh", "grids.mesh_calls")],
    "flow.measure": [("flow", "_UnscaledEngine.measure", None),
                     ("flow", "_DilatedEngine.measure", None)],
    "flow.io": [("flow", "write_artifacts", None)],
}

# count-only boundaries: key -> (module, dotted path)
COUNTS = {"flow.rhs_calls": ("flow", "_UnscaledEngine.rhs")}


def _resolve(module, dotted):
    """(owner, attribute name, current value) or None when absent."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)      # inclusive seconds per span name
        self.self_time = defaultdict(float)  # seconds minus enclosed spans
        self.counts = Counter()
        self.absent = []                     # layer names with no boundary found
        self._stack = []                     # open spans: [name, enclosed seconds]
        self._depth = Counter()              # open spans per name

    def install(self, modules):
        """Wrap every boundary; `modules` maps short names to krflow modules."""
        for span, bounds in BOUNDARIES.items():
            found = [self._wrap(modules[m], dotted, span, key)
                     for m, dotted, key in bounds]
            if not any(found):
                self.absent.append(span)
        for key, (m, dotted) in COUNTS.items():
            if not self._wrap(modules[m], dotted, None, key):
                self.absent.append(key)

    def _wrap(self, module, dotted, span, key):
        hit = _resolve(module, dotted)
        if hit is None:
            return False
        owner, attr, fn = hit
        counts, stack, depth = self.counts, self._stack, self._depth
        total, self_time = self.total, self.self_time

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            setattr(owner, attr, counted)
            return True

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if key:
                counts[key] += 1
            frame = [span, 0.0]
            stack.append(frame)
            depth[span] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[span] -= 1
                self_time[span] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not depth[span]:
                    total[span] += dur
        setattr(owner, attr, spanned)
        return True
