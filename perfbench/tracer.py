"""Outside-in span tracer: host-time spans around a program's public functions.

The tracer never edits the program.  It replaces chosen functions on their
classes or modules with timing wrappers, records one span per call, and
puts the originals back on :meth:`Tracer.restore`.

* A plain function gets one span per call.
* A generator function (a simulator fiber or anything driven through
  ``yield from``) gets one span per *resume*: the wrapper times each
  ``send``/``throw`` into the generator and nothing while it is suspended,
  so time the simulator spends running other fibers is never billed to it.

Every span is ``(name, start, end, parent, op)``: ``parent`` is the span
that was running when it opened (spans nest in host time because the
program is single-threaded) and ``op`` is the benchmark operation in
flight.  Spans stay in memory, in flat typed arrays, until the run ends;
:meth:`Tracer.write` dumps them.  A span's *self time* is its duration
minus the part of its interval that its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "TimedGen", "self_times", "layer_of_code", "CHECKING"]

#: ``Tracer.current_op`` while a workload checks its outputs after the
#: timed phase; ``-1`` is set-up, ``>= 0`` the operation in flight.
CHECKING = -2


class TimedGen:
    """A generator proxy that records one span per resume.

    It implements the generator protocol (``send``/``throw``/``close`` and
    iteration), so both the simulator kernel and ``yield from`` drive it
    exactly as they drive the generator it wraps, return value included.
    """

    def __init__(self, tracer: "Tracer", gen: Any, name_id: int):
        self._gen = gen
        self._tracer = tracer
        self._nid = name_id
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        index = tracer.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            tracer.close(index)

    def throw(self, *args: Any) -> Any:
        tracer = self._tracer
        index = tracer.open(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.close(index)

    def close(self) -> None:
        self._gen.close()


def layer_of_code(filename: str) -> str:
    """``.../repro/<package>/...py`` -> ``<package>`` (else ``other``)."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1]
    return "other"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: Wrapper invocations per name id (calls, not resumes).
        self.calls: List[int] = []
        #: Sum of ``measure(result)`` per name id, for wrappers given one.
        self.items: List[int] = []
        #: Instances captured by :meth:`collect`, per class name.
        self.instances: Dict[str, List[Any]] = {}
        self.current_op = -1
        self._stack = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []
        self._fiber_ids: Dict[Any, int] = {}

    # ----------------------------------------------------------- recording
    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.items.append(0)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------ wrapping
    def wrap_callable(self, fn: Callable, name: str,
                      measure: Optional[Callable[[Any], int]] = None,
                      generator: bool = False) -> Callable:
        """A timing wrapper for ``fn`` recording spans named ``name``."""
        nid = self.intern(name)
        calls, items = self.calls, self.items
        tracer = self

        if generator:
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> TimedGen:
                calls[nid] += 1
                return TimedGen(tracer, fn(*args, **kwargs), nid)
            return gen_wrapper

        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[nid] += 1
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if measure is not None:
                items[nid] += measure(result)
            return result
        return wrapper

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attr: str, name: str,
             measure: Optional[Callable[[Any], int]] = None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute).

        When ``owner`` is the module that defines a function, every loaded
        module that imported the same object by name is patched too, so
        ``from m import f`` callers are traced as well; when ``owner`` only
        imported it, just that binding is wrapped.
        """
        raw = owner.__dict__[attr]
        bound = isinstance(raw, (staticmethod, classmethod))
        fn = raw.__func__ if bound else raw
        wrapped = self.wrap_callable(
            fn, name, measure, generator=inspect.isgeneratorfunction(fn))
        self._replace(owner, attr, type(raw)(wrapped) if bound else wrapped)
        if (isinstance(owner, type(sys))
                and getattr(fn, "__module__", None) == owner.__name__):
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and getattr(module, "__dict__", {}).get(attr) is fn):
                    self._replace(module, attr, wrapped)

    def wrap_fibers(self, simulator_cls: Any) -> None:
        """Time every fiber resume, named ``<layer>.fiber``.

        ``Simulator.process`` hands each new fiber's generator to the kernel;
        the wrapper swaps in a :class:`TimedGen` named by the package that
        defines the generator's code.  Generators that already are traced
        (a wrapped generator function) are passed through unchanged.
        """
        original = simulator_cls.__dict__["process"]
        tracer = self
        fiber_ids = self._fiber_ids

        def process(sim: Any, generator: Any, name: str = "") -> Any:
            if not isinstance(generator, TimedGen):
                if not name:
                    name = getattr(generator, "__name__", "process")
                code = getattr(generator, "gi_code", None)
                nid = fiber_ids.get(code)
                if nid is None:
                    layer = (layer_of_code(code.co_filename)
                             if code is not None else "other")
                    nid = fiber_ids[code] = tracer.intern(layer + ".fiber")
                tracer.calls[nid] += 1
                generator = TimedGen(tracer, generator, nid)
            return original(sim, generator, name=name)

        self._replace(simulator_cls, "process", process)

    def collect(self, cls: Any) -> None:
        """Keep every instance of ``cls`` constructed while installed,
        except during the output checks (``current_op == CHECKING``)."""
        original = cls.__dict__["__init__"]
        bucket = self.instances.setdefault(cls.__name__, [])

        @functools.wraps(original)
        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            if self.current_op != CHECKING:
                bucket.append(obj)

        self._replace(cls, "__init__", __init__)

    def restore(self) -> None:
        """Put every replaced attribute back, last replaced first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- results
    def self_by_name(self) -> Dict[str, float]:
        """Summed self time (s) per span name."""
        selfs = self_times(self.start, self.end, self.parent)
        totals = [0.0] * len(self.names)
        name_id = self.name_id
        for index, value in enumerate(selfs):
            totals[name_id[index]] += value
        return {name: totals[nid] for nid, name in enumerate(self.names)}

    def write(self, directory: str, stem: str) -> None:
        """Dump spans as typed arrays plus a JSON index of names and calls."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, stem)
        with open(base + ".spans", "wb") as handle:
            for column in (self.name_id, self.parent, self.op,
                           self.start, self.end):
                column.tofile(handle)
        with open(base + ".json", "w") as handle:
            json.dump({
                "spans": len(self.start),
                "layout": ["name_id:i32", "parent:i32", "op:i32",
                           "start_s:f64", "end_s:f64"],
                "names": self.names,
                "calls": self.calls,
            }, handle, indent=1)


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Per-span self time: duration minus the union of child intervals.

    Children are clipped to their parent's interval.  A child opens after
    its parent and siblings open in order, so one pass in index order that
    merges each parent's child intervals as they arrive computes the union
    exactly, overlapping children included.
    """
    count = len(start)
    covered = [0.0] * count
    last_end = list(start)  # per parent: end of the union so far
    for index in range(count):
        p = parent[index]
        if p < 0:
            continue
        lo = start[index]
        hi = end[index]
        if hi > end[p]:
            hi = end[p]
        if lo < last_end[p]:
            lo = last_end[p]
        if hi > lo:
            covered[p] += hi - lo
            last_end[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(count)]
