"""Span tracing at the module boundaries of a package, from outside it.

``Tracer.install`` walks every loaded module of the package and replaces
each module-global function that another module of the package defines
with a timing wrapper labelled ``<defining module>.<function>``.  A call
from ``experiment`` into ``merit_order.commit`` therefore records a
``merit_order.commit`` span, whichever name it was imported under.  A
function added to the package later is attributed the same way without
editing the tracer.  Calls inside one module are not boundaries and are
charged to that module's span.

Spans are kept in memory as ``(run_id, span_id, parent_id, name, start_ns,
end_ns, error)`` and written out with ``write_csv`` when the run ends.
``remove`` restores every original function, so untraced runs execute the
package unmodified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

SPAN_FIELDS = ("run_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "error")


def _scenario_bytes(result) -> int:
    """Bytes of every array field of a returned dataclass (computed, not measured)."""
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


# counters taken from the results of named boundary calls:
# span name -> (counter name, result -> increment)
RESULT_COUNTERS = {
    "scenarios.generate_scenarios": ("scenarios.bytes_out", _scenario_bytes),
    "settlement.reserve_and_ramp_check": ("settlement.violations", len),
}


class Tracer:
    """Records one span per call across a module boundary of ``package``."""

    def __init__(self, package: str = "gridclear"):
        self.package = package
        self.spans: list = []
        self.counters_by_run: dict[int, Counter] = {}
        self.run_id = 0
        self.counters = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-module function binding of the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ != modname
                        and obj.__module__.startswith(prefix)):
                    label = f"{obj.__module__[len(prefix):]}.{obj.__qualname__}"
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, label))
        self._patch_ppf()

    def remove(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_ppf(self) -> None:
        # scenario draws are inverse-CDF evaluations; count the values each
        # ppf call returns and charge them to the innermost open span's module
        from scipy.stats import rv_continuous

        original = rv_continuous.ppf
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def ppf(dist, *args, **kwargs):
            out = original(dist, *args, **kwargs)
            module = spans[stack[-1]][3].split(".", 1)[0] if stack else "untraced"
            self.counters[f"{module}.ppf_calls"] += 1
            self.counters[f"{module}.draws"] += int(np.size(out))
            return out

        self._patches.append((rv_continuous, "ppf", original))
        rv_continuous.ppf = ppf

    # -- recording ----------------------------------------------------------

    def new_run(self) -> int:
        """Start a new run id with fresh counters; earlier spans are kept."""
        self.run_id += 1
        self.counters = self.counters_by_run[self.run_id] = Counter()
        return self.run_id

    def call(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``label`` (used for the root span)."""
        spans, stack = self.spans, self._stack
        span_id = len(spans)
        parent = stack[-1] if stack else -1
        # placeholder, so that nested calls can read the open span's name
        spans.append((self.run_id, span_id, parent, label, 0, 0, False))
        stack.append(span_id)
        error = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[span_id] = (self.run_id, span_id, parent, label, start, end, error)

    def _wrap(self, fn, label: str):
        call = self.call
        counter = RESULT_COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = call(label, fn, *args, **kwargs)
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]},{int(s[6])}\n")


def summarize(spans, run_id: int) -> dict:
    """Per-module and per-span-name totals for one run.

    Returns ``{"modules": {m: {calls, busy_ns, self_ns, errors}}, "names":
    {name: {calls, busy_ns}}, "wall_ns": root span duration}``.  ``busy``
    is inclusive and counts a span only when no enclosing span belongs to
    the same module (or name), so re-entry is not double counted; ``self``
    is the span's duration less the time its child spans cover.
    """
    run = [s for s in spans if s[0] == run_id]
    index = {s[1]: s for s in run}
    child_ns: Counter = Counter()
    for s in run:
        if s[2] in index:
            child_ns[s[2]] += s[5] - s[4]
    ancestors: dict[int, frozenset] = {}
    modules: dict[str, Counter] = {}
    names: dict[str, Counter] = {}
    wall_ns = 0
    for s in sorted(run, key=lambda s: s[1]):
        span_id, parent, name = s[1], s[2], s[3]
        module = name.split(".", 1)[0]
        dur = s[5] - s[4]
        above = ancestors.get(parent, frozenset())
        if parent in index:
            above = above | {index[parent][3], index[parent][3].split(".", 1)[0]}
        else:
            wall_ns += dur
        ancestors[span_id] = above
        m = modules.setdefault(module, Counter())
        m["calls"] += 1
        m["self_ns"] += dur - child_ns[span_id]
        m["errors"] += int(s[6])
        if module not in above:
            m["busy_ns"] += dur
        n = names.setdefault(name, Counter())
        n["calls"] += 1
        if name not in above:
            n["busy_ns"] += dur
    return {"modules": modules, "names": names, "wall_ns": wall_ns}
