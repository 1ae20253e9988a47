"""Span recorder for the traced benchmark run.

``install`` wraps every public module-level function and every public
method of the ``involute`` modules.  A name is bound in every module that
imports it (``binom`` lives in ``exactnum`` and is bound again in
``weights``, ``walk``, ``transform``, ``spectral`` and ``continuum``), so
each binding is replaced, not only the defining one.  Private helpers,
lambdas and dunder methods run inside the span of their public caller.

Each call records a span: function, job, parent span, start and end.  Spans
go into flat arrays while the run is going and are rolled up into per-layer
self times after it.  A layer is a module of ``src/involute``; ``_linalg``
is reported as ``linalg`` because metric names may not start with ``_``.

Two counters are measured at the layer boundary from the arguments alone:
``linalg.matmul.mul_ops`` is n*k*m from the operand shapes (computed, not
measured), and ``continuum.quad_evals`` counts calls of the integrand that
is passed to ``adaptive_quad``.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import sys
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self):
        self.names: list = []  # function id -> "layer.function"
        self.ids: dict = {}  # "layer.function" -> function id, stable across installs
        self.fn = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.job_id = -1
        self.counters = {"matmul_mul_ops": 0, "quad_evals": 0}

    def wrap(self, fn, name: str):
        fid = self.ids.setdefault(name, len(self.names))
        if fid == len(self.names):
            self.names.append(name)
        fns, parents, jobs, starts, ends = self.fn, self.parent, self.job, self.start, self.end
        clock = time.perf_counter
        rec = self
        pre = _PRE_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(rec, args)
            idx = len(starts)
            fns.append(fid)
            parents.append(rec.current)
            jobs.append(rec.job_id)
            ends.append(0.0)
            caller = rec.current
            rec.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec.current = caller

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def rollup(self) -> dict:
        """{"layer.function": (calls, self seconds)}; self time is a span's
        duration minus the durations of its child spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, f in enumerate(self.fn):
            calls[f] += 1
            self_s[f] += own[i]
        return {name: (calls[f], self_s[f]) for f, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """All spans as gzip CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,job,parent,name,start_s,end_s\n")
            for i, (f, j, p, s, e) in enumerate(
                zip(self.fn, self.job, self.parent, self.start, self.end)
            ):
                fh.write(f"{i},{j},{p},{names[f]},{s - t0:.9f},{e - t0:.9f}\n")


def _count_matmul(rec, args):
    a, b = args[0], args[1]
    rec.counters["matmul_mul_ops"] += len(a) * len(b) * (len(b[0]) if b else 0)
    return args


def _count_integrand(rec, args):
    f = args[0]
    counters = rec.counters

    def counted(x):
        counters["quad_evals"] += 1
        return f(x)

    return (counted, *args[1:])


_PRE_HOOKS = {"linalg.matmul": _count_matmul, "continuum.adaptive_quad": _count_integrand}


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def install(rec: SpanRecorder, package: str = "involute"):
    """Wrap the package's public functions; returns a function that undoes it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.startswith(package + ".")]
    wrapper_of: dict = {}  # id(original) -> (original, wrapper)
    undo: list = []
    for mod in modules:
        layer = layer_of(mod.__name__)
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper_of[id(obj)] = (obj, rec.wrap(obj, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    label = f"{layer}.{name}.{attr}"
                    if isinstance(member, classmethod):
                        setattr(obj, attr, classmethod(rec.wrap(member.__func__, label)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, rec.wrap(member, label))
                    else:
                        continue
                    undo.append((obj, attr, member))
    for mod in [sys.modules[package], *modules]:
        for name, obj in list(vars(mod).items()):
            pair = wrapper_of.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(mod, name, pair[1])
                undo.append((mod, name, obj))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
