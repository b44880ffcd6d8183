"""Spans and call counts around the public functions of paircommit's modules.

The tracer wraps functions from outside the package: while installed,
every module-level binding of a wrapped function in any ``paircommit``
module is swapped for a wrapper, so a call made through
``from .groups import g_pow`` and one made through ``curve.ec_add`` are
both seen. ``installed`` puts the originals back on exit.

Each wrapped call opens a span with a parent link; a span opened with
no parent starts a new trace, and its children share its trace id.
Totals (calls, inclusive time, self time) are kept for every span; span
records themselves are kept in memory for the first ``keep_traces``
traces only, whole, and are written out by ``write``.
"""

import contextlib
import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# the modules whose public functions get spans; `selftest` and `errors`
# do no work on any benchmark path
MODULES = ("arith", "curve", "groups", "commitment", "forgery", "fileio", "cli")

# both concrete context constructors report as one span
CONTEXT_INIT = "groups.context_init"
CONTEXT_CLASSES = ("CurveContext", "TransparentContext")


class Tracer:
    def __init__(self, keep_traces):
        self.keep_traces = keep_traces
        self.spans = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        # figures the hooks below add: bytes moved, census pairs, final exps
        self.extra = defaultdict(float)
        self.names = set()
        self._stack = []
        self._next_id = 0

    def take(self):
        """Return the totals gathered so far and start new ones."""
        taken = (dict(self.calls), dict(self.total), dict(self.self_time), dict(self.extra))
        for table in (self.calls, self.total, self.self_time, self.extra):
            table.clear()
        return taken

    def _open(self, name):
        stack = self._stack
        self._next_id += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            trace, keep = parent[3], parent[4]
        else:
            trace, keep = self._next_id, self.keep_traces > 0
            self.keep_traces -= keep
        # [span id, name, time covered by children, trace id, record it]
        frame = [self._next_id, name, 0.0, trace, keep]
        stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, start, end):
        self._stack.pop()
        name = frame[1]
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[2]
        if parent is not None:
            parent[2] += dur
            if name == "curve.f2_pow" and parent[1] == "curve.tate_pairing":
                self.extra["curve.final_exp.ms"] += dur * 1e3
        if frame[4]:
            self.spans.append((frame[0], parent[0] if parent else None, frame[3],
                               name, start, end))

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one request."""
        frame, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, start, perf_counter())

    def wrap(self, name, fn, on_return=None):
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, parent, start, perf_counter())
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def write(self, path):
        """Write the recorded spans as JSON lines, times in microseconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, trace, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                }) + "\n")


def _count_bytes_read(tracer, args, result):
    tracer.extra["fileio.bytes_read"] += os.path.getsize(args[0])


def _count_bytes_written(tracer, args, result):
    tracer.extra["fileio.bytes_written"] += os.path.getsize(args[0])


def _count_census(tracer, args, result):
    tracer.extra["forgery.census.accepting_pairs"] += result.accepting_pairs
    tracer.extra["forgery.census.pairs_tested"] += result.n * result.n


HOOKS = {
    "fileio.read_kv": _count_bytes_read,
    "fileio.write_kv": _count_bytes_written,
    "forgery.accepting_census": _count_census,
}


@contextlib.contextmanager
def installed(tracer):
    """Swap every binding of a public paircommit function for a traced one."""
    wrappers = {}
    for short in MODULES:
        module = sys.modules[f"paircommit.{short}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "paircommit":
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    groups = sys.modules["paircommit.groups"]
    for cls_name in CONTEXT_CLASSES:
        cls = getattr(groups, cls_name)
        original = vars(cls)["__init__"]
        patched.append((cls, "__init__", original))
        setattr(cls, "__init__", tracer.wrap(CONTEXT_INIT, original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
