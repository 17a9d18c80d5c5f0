"""Spans around the seqreg CLI's calls between its modules.

``Tracer.recording(op)`` is a context manager.  Inside it, every name in a
``seqreg`` module's namespace that refers to a function of another
``seqreg`` module (``seqreg.cli``'s ``convex_minorant``, ``seqreg.weights``'s
``is_log_convex``, ...) is replaced by a wrapper that records a span, and
so are the methods in ``METHODS`` and the CLI helpers in ``CLI_HELPERS``.
The real CLI runs unchanged otherwise, so a traced invocation does the same
work as an untraced one, and the names are restored on exit.

A span is named ``<layer>.<function>``; the layer is the ``src/seqreg``
module whose work the call does (``cli`` for parsing and output).  A call
of a function whose span is already the innermost open one (``to_json``
inside ``to_json``) opens no new span.  Times are the calling thread's CPU
time, so the spans of the CLI's worker threads add up to the process's CPU
time instead of each counting the time the other holds the GIL.  Spans
stay in memory: ``spans`` holds (name, start, end, parent, op, raised)
tuples, ``parent`` being the index of the enclosing span or -1, and
``ops`` holds (op, wall seconds, process CPU seconds) per recording.
``observe`` maps a span name to (counter, function of the call's result);
the counter in ``counts`` grows by the function's value on every call.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
from time import perf_counter, process_time, thread_time

# (module, class, method) -> span name
METHODS = {
    ("sequences", "SequenceSpec", "values"): "tails.values",
    ("piecewise", "PiecewiseLinearFn", "evaluate"): "piecewise.evaluate",
    ("piecewise", "PiecewiseLinearFn", "conjugate_at"): "piecewise.conjugate_at",
}
# seqreg.cli helper -> span name
CLI_HELPERS = {
    "_load_spec": "cli.parse",
    "_canonical": "cli.emit",
    "_csv_cell": "cli.emit",
    "_minorant_payload": "cli.emit",
}
# every to_json method of a seqreg class records this span
EMIT = "cli.emit"
# modules whose functions are too small and too frequent to trace
UNTRACED = ("extreal", "errors")
PACKAGE = "seqreg."


class Tracer:
    def __init__(self, observe: dict | None = None):
        self.spans: list[tuple[str, float, float, int, int, bool]] = []
        self.ops: list[tuple[int, float, float]] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.observe: dict[str, tuple[str, object]] = observe or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = self._find_patches()

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced name."""
        modules = {name[len(PACKAGE):]: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE) and mod is not None}
        patches = []
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                home = getattr(value, "__module__", "") or ""
                if not callable(value) or isinstance(value, type) or not home.startswith(PACKAGE):
                    continue
                home = home[len(PACKAGE):]
                if home == layer or home in UNTRACED:
                    continue
                name = f"{home}.{value.__name__}"
                patches.append((mod, attr, value, self._wrap(name, value)))
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__ \
                        and "to_json" in vars(cls):
                    fn = vars(cls)["to_json"]
                    patches.append((cls, "to_json", fn, self._wrap(EMIT, fn)))
        for (layer, cls_name, method), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[method]
            patches.append((cls, method, fn, self._wrap(name, fn)))
        cli = modules["cli"]
        for attr, name in CLI_HELPERS.items():
            fn = getattr(cli, attr)
            patches.append((cli, attr, fn, self._wrap(name, fn)))
        return patches

    def _wrap(self, name: str, fn):
        local, lock, spans = self._local, self._lock, self.spans
        observer = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            with lock:
                spans.append((name, thread_time(), 0.0, parent, self.op, False))
                index = len(spans) - 1
            stack.append(index)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                if observer is not None:
                    key, count = observer
                    with lock:
                        self.counts[key] = self.counts.get(key, 0) + count(result)
                return result
            finally:
                stack.pop()
                start = spans[index][1]
                spans[index] = (name, start, thread_time(), parent, self.op, raised)

        return traced

    @contextlib.contextmanager
    def recording(self, op: int):
        """Trace everything the block runs as invocation ``op``."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        wall, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            wall, cpu = perf_counter() - wall, process_time() - cpu
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.ops.append((op, wall, cpu))
