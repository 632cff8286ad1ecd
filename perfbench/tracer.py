"""Outside-in layer tracer: wraps public methods of the program's classes.

The benchmark never edits the program to trace it.  Instead a
:class:`LayerTracer` replaces chosen methods on their classes with
wrappers that record one span per call (layer, method, start, end,
parent span, root span) and restores the original class attributes
when it is closed.  Per-charge hot paths are deliberately left alone so
their cost stays inside the caller's span.

Spans are kept in memory in flat integer arrays and written out once,
at the end (:meth:`LayerTracer.write`).  Self time (span duration minus
the durations of its direct children) is accumulated per layer as the
spans close, in integer nanoseconds, so the layers' self times plus the
time outside every span add up to the traced window exactly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: One wrapping target: (layer, class, method names defined on it).
Target = Tuple[str, type, Sequence[str]]


class LayerTracer:
    """Records spans around calls into each layer's public methods.

    Use as a context manager: entering installs the wrappers, leaving
    removes them (even on error) and leaves every wrapped class's
    ``__dict__`` exactly as it was.
    """

    def __init__(self, targets: Sequence[Target],
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._targets = list(targets)
        self._clock = clock
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.methods: List[str] = []
        # (class, attribute name, original __dict__ entry or _ABSENT)
        self._saved: List[Tuple[type, str, object]] = []
        # Span columns, one entry per closed span.
        self.span_id = array("q")
        self.span_method = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_root = array("q")
        self._opened = 0
        self._roots = 0
        # Open spans, innermost last (frames built by _push).
        self._stack: List[List[int]] = []
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.window_ns = 0
        # Optional hooks keyed by "Class.method": ``before(*args)``
        # returns a note, ``after(note, result)`` sees it with the call's
        # result.  They measure counts at the layer boundary, such as the
        # useful/attempted ratio of a sweep, and run outside the span.
        self.before_hooks: Dict[str, Callable[..., object]] = {}
        self.after_hooks: Dict[str, Callable[..., None]] = {}
        #: Counts the hooks accumulate, by name.
        self.counts: Dict[str, int] = {}

    # --- installation -----------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        """Index of ``layer``, registering it on first use."""
        index = self._layer_ids.get(layer)
        if index is None:
            index = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_ns.append(0)
            self.calls.append(0)
        return index

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, cls, names in self._targets:
                layer_index = self._layer_id(layer)
                for name in names:
                    self._install(layer_index, cls, name)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Restore every wrapped attribute; safe to call twice."""
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is _ABSENT:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def _install(self, layer_index: int, cls: type, name: str) -> None:
        raw = cls.__dict__.get(name, _ABSENT)
        if raw is _ABSENT:
            # Inherited: wrap what the class resolves to, and remove the
            # wrapper again (rather than restore) on close.
            resolved = inspect.getattr_static(cls, name)
        else:
            resolved = raw
        if isinstance(resolved, staticmethod):
            kind, function = staticmethod, resolved.__func__
        elif isinstance(resolved, classmethod):
            kind, function = classmethod, resolved.__func__
        elif inspect.isfunction(resolved):
            kind, function = None, resolved
        else:
            raise TypeError(
                f"{cls.__name__}.{name} is not a plain, static or class "
                f"method ({type(resolved).__name__})")
        if inspect.isgeneratorfunction(function):
            raise TypeError(
                f"{cls.__name__}.{name} is a generator: a span around the "
                f"call would close before any of its work runs")
        method_index = len(self.methods)
        qualified = f"{cls.__name__}.{name}"
        self.methods.append(f"{self.layers[layer_index]}:{qualified}")
        wrapper = self._wrap(layer_index, method_index, qualified, function)
        self._saved.append((cls, name, raw))
        setattr(cls, name, kind(wrapper) if kind is not None else wrapper)

    def _push(self) -> List[int]:
        """Open a span: returns its frame [id, root, parent, start, child ns]."""
        span_id = self._opened
        self._opened += 1
        stack = self._stack
        if stack:
            parent = stack[-1]
            frame = [span_id, parent[1], parent[0], 0, 0]
        else:
            frame = [span_id, self._roots, -1, 0, 0]
            self._roots += 1
        stack.append(frame)
        frame[3] = self._clock()
        return frame

    def _pop(self, frame: List[int], layer_index: int,
             method_index: int) -> None:
        """Close the innermost span and charge its self time."""
        end = self._clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[3]
        self.self_ns[layer_index] += duration - frame[4]
        self.calls[layer_index] += 1
        if stack:
            stack[-1][4] += duration
        self.span_id.append(frame[0])
        self.span_method.append(method_index)
        self.span_start.append(frame[3])
        self.span_end.append(end)
        self.span_parent.append(frame[2])
        self.span_root.append(frame[1])

    def _wrap(self, layer_index: int, method_index: int, qualified: str,
              function: Callable[..., object]) -> Callable[..., object]:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: object, **kwargs: object) -> object:
            before = tracer.before_hooks.get(qualified)
            note = before(*args, **kwargs) if before is not None else None
            frame = tracer._push()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._pop(frame, layer_index, method_index)
            after = tracer.after_hooks.get(qualified)
            if after is not None:
                after(note, result)
            return result

        return wrapper

    # --- driver-side regions ---------------------------------------------

    @contextlib.contextmanager
    def region(self, layer: str) -> Iterator[None]:
        """A span the benchmark opens around its own call into a layer
        (e.g. materializing a generator's output)."""
        layer_index = self._layer_id(layer)
        name = f"{layer}:<region>"
        if name not in self.methods:
            self.methods.append(name)
        method_index = self.methods.index(name)
        frame = self._push()
        try:
            yield
        finally:
            self._pop(frame, layer_index, method_index)

    def extend_window(self, nanoseconds: int) -> None:
        """Add measured time to the traced window, the denominator
        every layer's self time is a share of."""
        self.window_ns += nanoseconds

    # --- results ------------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self.span_method)

    def self_seconds(self) -> Dict[str, float]:
        return {layer: self.self_ns[index] * 1e-9
                for index, layer in enumerate(self.layers)}

    def call_counts(self) -> Dict[str, int]:
        return {layer: self.calls[index]
                for index, layer in enumerate(self.layers)}

    def unattributed_ns(self) -> int:
        """Window time outside every span (the driver's own work)."""
        return self.window_ns - sum(self.self_ns)

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        """Write the spans as one JSON header line plus six columns of
        native-endian int64, in span-close order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, layers=self.layers, methods=self.methods,
                      spans=self.spans,
                      columns=["id", "method", "start_ns", "end_ns",
                               "parent", "root"])
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_id, self.span_method, self.span_start,
                           self.span_end, self.span_parent,
                           self.span_root):
                column.tofile(out)


_ABSENT = object()
