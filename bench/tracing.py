"""Spans around the program's layer boundaries, recorded from outside it.

:func:`instrument` replaces the public functions of each layer, in every
``stpt`` module namespace that holds them, with wrappers that record one
span per call: name, start, end, parent span and the test it belongs to.
``Deferred.wait`` is wrapped on the class; the adapter and abstraction
are wrapped by the campaign, through the factory it hands to
``run_property``. Spans stay in memory until :meth:`Tracer.write`.

A test opens when the command generator is asked for its sequence (or
when the benchmark calls :meth:`Tracer.begin_test`) and closes with its
last top-level span; every span on that thread in between belongs to it.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

ROOT = "test"

# (module that defines the name, name, span name)
_FUNCTIONS = (
    ("statemodel", "step", "statemodel.step"),
    ("statemodel", "enabled_actions", "statemodel.enabled_actions"),
    ("spatial", "normalize", "spatial.normalize"),
    ("spatial", "evaluate", "spatial.evaluate"),
    ("spatial", "box_covered", "spatial.box_covered"),
    ("spatial", "check_trace", "spatial.check_trace"),
    ("formula_text", "parse_invariant", "formula_text.parse_invariant"),
    ("conformance", "check_against", "conformance.check_against"),
    ("reports", "report_to_json", "reports.report_to_json"),
)
MODULES = (
    "statemodel", "spatial", "formula_text", "genrand", "conformance",
    "suts", "reports", "cli",
)

# Field positions of a span record.
ID, NAME, START, END, PARENT, TEST, VALUE = range(7)


class _Thread:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.root: list | None = None


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def begin_test(self) -> None:
        """Close this thread's open test and open the next one."""
        state = self._thread()
        self._close_root(state)
        test = next(self._ids)
        state.root = [test, ROOT, perf_counter(), None, -1, test, None]

    @staticmethod
    def _close_root(state: _Thread) -> None:
        root = state.root
        if root is not None and root[END] is not None:
            state.spans.append(root)
        state.root = None

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call; a direct recursion records none."""
        thread = self._thread

        def traced(*args, **kwargs):
            state = thread()
            stack = state.stack
            if stack:
                parent = stack[-1]
                if parent[NAME] == name:
                    return fn(*args, **kwargs)
                parent_id, test = parent[ID], parent[TEST]
            elif state.root is not None:
                parent_id, test = state.root[ID], state.root[ID]
            else:
                parent_id, test = -1, -1
            span = [next(self._ids), name, 0.0, 0.0, parent_id, test, None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                state.spans.append(span)
                if not stack and state.root is not None:
                    state.root[END] = span[END]

        return traced

    def end_tests(self) -> None:
        """Close the open test of every thread; call once the threads are done."""
        for state in self._threads:
            self._close_root(state)

    def last_span(self) -> list:
        """The span this thread closed most recently."""
        return self._thread().spans[-1]

    def spans(self) -> list[list]:
        """Every span recorded, ordered by start."""
        out = [span for state in self._threads for span in state.spans]
        out.sort(key=lambda span: span[START])
        return out

    def write(self, path: str, header: dict) -> int:
        spans = self.spans()
        origin = spans[0][START] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": ["id", "name", "start_s", "end_s",
                                                      "parent", "test", "value"]}) + "\n")
            for span in spans:
                row = list(span)
                row[START] = round(span[START] - origin, 9)
                row[END] = round(span[END] - origin, 9)
                fh.write(json.dumps(row) + "\n")
        return len(spans)


class TracedAdapter:
    """An adapter whose ``reset`` and ``apply`` calls are recorded as spans."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self.reset = tracer.wrap("suts.reset", inner.reset)
        self.apply = tracer.wrap("suts.apply", inner.apply)
        self.vocabulary = inner.vocabulary


@contextmanager
def instrument(tracer: Tracer, stpt_modules: dict):
    """Wrap each layer's public functions for the duration of the block.

    ``stpt_modules`` maps short module names (and ``""`` for the package)
    to the imported modules. ``shrink_sequence`` is wrapped so that its
    span also carries the number of candidates it accepted, and the
    generator's ``run`` is left to the campaign, which owns the generator.
    """
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    namespaces = [stpt_modules[m] for m in MODULES] + [stpt_modules[""]]
    targets = [
        (getattr(stpt_modules[home], name), tracer.wrap(span, getattr(stpt_modules[home], name)))
        for home, name, span in _FUNCTIONS
    ]
    shrink = stpt_modules["genrand"].shrink_sequence
    targets.append((shrink, _counting_shrink(tracer, shrink)))
    for original, wrapped in targets:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patch(ns, attr, wrapped)
    deferred = stpt_modules["conformance"].Deferred
    patch(deferred, "wait", tracer.wrap("conformance.Deferred.wait", deferred.wait))
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _counting_shrink(tracer: Tracer, shrink):
    traced = tracer.wrap("genrand.shrink_sequence", shrink)

    def shrink_sequence(seq, fails):
        accepted = 0

        def counted(candidate):
            nonlocal accepted
            ok = fails(candidate)
            accepted += bool(ok)
            return ok

        try:
            return traced(seq, counted)
        finally:
            # the first call only confirms that the original fails
            tracer.last_span()[VALUE] = max(accepted - 1, 0)

    return shrink_sequence


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed values.

    Self time is a span's duration minus the durations of its children;
    children run on the parent's thread, inside the parent's interval.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span[ID], 0.0)
        if span[VALUE] is not None:
            entry["value"] += span[VALUE]
    return totals


def calls_under(spans: list[list], child: str, parent: str) -> int:
    """Number of ``child`` spans whose parent span is a ``parent`` span."""
    parents = {span[ID] for span in spans if span[NAME] == parent}
    return sum(1 for span in spans if span[NAME] == child and span[PARENT] in parents)
