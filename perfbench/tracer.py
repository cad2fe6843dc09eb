"""Span tracing around calls into the package's public functions.

The tracer wraps every public function of the layer modules, and the
constructors of the classes in ``CONSTRUCTORS``, in every module namespace
of the package that binds them (``protocol`` binds ``shot_stream``, ``cli``
binds ``run_analytic``, the package root binds almost everything). Spans
are kept in memory in flat arrays and the wrappers are removed when the
``installed()`` block ends, so every patched name is the original object
again afterwards.

A span's self time is its duration minus the time covered by its child
spans. Private helpers such as ``protocol._simulate_shot`` are not
wrapped, so their cost appears as the self time of the public caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import tracemalloc
from array import array
from time import perf_counter

PACKAGE = "telecloning"
LAYERS = ("config", "cli", "resource", "gaussian", "homodyne", "protocol",
          "metrics", "opo")
# classes whose construction is counted (their __init__ validates)
CONSTRUCTORS = ("gaussian.GaussianState", "gaussian.SymplecticMatrix")
# the command handlers run inside cli.main; their argparse, JSON and CSV
# work is reported as cli.main self time
UNTRACED = ("cli.build_parser", "cli.cmd_run", "cli.cmd_sample", "cli.cmd_sweep",
            "cli.cmd_criteria")


def traced_callables() -> dict[str, tuple[object, str, object]]:
    """Span name -> (owner, attribute, original) for every traced callable.

    The owner is the defining module for functions and the class for
    constructors. The package must already be imported.
    """
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    found = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and f"{layer}.{attr}" not in UNTRACED):
                found[f"{layer}.{attr}"] = (module, attr, obj)
    for name in CONSTRUCTORS:
        layer, cls_name = name.split(".")
        cls = getattr(modules[layer], cls_name)
        found[name] = (cls, "__init__", cls.__dict__["__init__"])
    return found


@contextlib.contextmanager
def patched(wrappers: dict[str, object]):
    """Swap each named traced callable for its wrapper, then restore it.

    Yields the list of (namespace, attribute, original) bindings replaced.
    """
    originals = traced_callables()
    by_id = {id(originals[name][2]): name for name in wrappers}
    bindings = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            bindings += [(module, attr, obj) for attr, obj in vars(module).items()
                         if id(obj) in by_id]
    bindings += [originals[name] for name in wrappers
                 if inspect.isclass(originals[name][0])]
    try:
        for owner, attr, obj in bindings:
            setattr(owner, attr, wrappers[by_id[id(obj)]])
        yield bindings
    finally:
        for owner, attr, obj in bindings:
            setattr(owner, attr, obj)


class Tracer:
    """In-memory span recorder; one span per call of a traced callable."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.op_id = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.name)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if parent >= 0:
                    tracer.child[parent] += t1 - t0

        return traced

    def installed(self):
        """Context manager that traces every callable of ``traced_callables``."""
        return patched({name: self._wrap(name, obj)
                        for name, (_, _, obj) in traced_callables().items()})

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: exact call count and total self time in seconds."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for idx, name_id in enumerate(self.name):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += self.end[idx] - self.start[idx] - self.child[idx]
        return out

    def write_csv(self, path) -> None:
        """One row per span: id, name, start, end, parent id, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start,end,parent,op\n")
            for idx, name_id in enumerate(self.name):
                handle.write(f"{idx},{self.names[name_id]},{self.start[idx]!r},"
                             f"{self.end[idx]!r},{self.parent[idx]},{self.op[idx]}\n")


def peak_alloc_wrapper(fn, peaks: list[int]):
    """Wrap ``fn`` so each call appends its tracemalloc peak in bytes."""
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured
