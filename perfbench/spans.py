"""Outside-in span recorder for the benchmark's traced run.

Every function in each layer module's ``__all__`` (plus ``cli.main``) is
replaced by a timing wrapper in every namespace that holds it: the defining
module, the modules that imported it by name, and the ``mimoaf`` package.
Nothing inside ``src/`` changes; the wrappers come from this file and are
installed only for the traced phase, then removed.

A span is (name, start, end, parent, op id).  Spans stay in memory; the
per-layer numbers are folded out of them when the run ends.  A span's self
time is its duration minus the durations of its child spans, so the self
times of one op plus the benchmark's own glue partition the op's wall time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc

LAYERS = ("signals", "ambiguity", "properties", "symmetry", "io_formats", "cli")

# functions that get their own per-function metrics (layer.function.<kind>)
FUNCTION_SELF = (
    "ambiguity.cross_ambiguity",
    "ambiguity.correlation_matrix",
    "ambiguity.mimo_ambiguity",
    "ambiguity.spatial_integral",
    "ambiguity.mimo_slice_spatial",
    "ambiguity.mimo_energy_quadrature",
    "symmetry.act_on_surface",
    "symmetry.verify_mimo_symmetry",
    "symmetry.verify_mirror",
    "properties.gram_psd_check",
    "properties.trace_psd_check",
    "signals.heisenberg_shift",
    "signals.dilate",
    "io_formats.write_surface",
    "io_formats.read_signal",
    "io_formats.write_surface_csv",
    "io_formats.read_surface_csv",
    "io_formats.write_signal",
    "io_formats.write_ppm",
)
FUNCTION_CALLS = ("ambiguity.cross_ambiguity", "signals.heisenberg_shift")
FUNCTION_CELLS = ("ambiguity.cross_ambiguity", "ambiguity.correlation_matrix")
FUNCTION_BYTES = (
    "io_formats.write_surface",
    "io_formats.write_surface_csv",
    "io_formats.read_surface_csv",
)


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"),
                 (f"{layer}.errors", "count")]
    for fn in FUNCTION_SELF:
        spec.append((f"{fn}.self_s", "s"))
    spec += [(f"{fn}.calls", "count") for fn in FUNCTION_CALLS]
    spec += [(f"{fn}.cells", "count") for fn in FUNCTION_CELLS]
    spec += [(f"{fn}.bytes", "B") for fn in FUNCTION_BYTES]
    spec += [
        ("ambiguity.cross_ambiguity.peak_mib", "MiB"),
        ("ambiguity.cells_used_ratio", "ratio"),
        ("cli.verify.checks", "count"),
        ("cli.verify.checks_failed", "count"),
        ("trace.op_s", "s"),
        ("trace.glue_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return spec


def _public_functions(mods: dict) -> list[tuple[str, str, object]]:
    """(layer, function name, function) for every wrapped function."""
    out = []
    for layer in LAYERS:
        mod = mods[layer]
        # cli has no __all__; main is its public entry
        names = ["main"] if layer == "cli" else mod.__all__
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                out.append((layer, name, fn))
    return out


def _swap(mods: dict, replacements: dict) -> list[tuple[object, str, object]]:
    """Replace every binding of an original function; return undo records."""
    undo = []
    for ns in [mods[layer] for layer in LAYERS] + [mods["package"]]:
        for attr, val in list(vars(ns).items()):
            new = replacements.get(id(val))
            if new is not None and val is new[0]:
                setattr(ns, attr, new[1])
                undo.append((ns, attr, val))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for ns, attr, val in reversed(undo):
        setattr(ns, attr, val)


class SpanRecorder:
    """Collects spans while an op is open; idle between ops."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, error, extra]
        self.stack: list[int] = []
        self.op_id = -1

    # ------------------------------------------------------------ ops
    def begin_op(self, op_id: int, label: str) -> None:
        self.op_id = op_id
        self.stack = [self._open(f"op.{label}")]

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.stack = []
        self.op_id = -1

    # ---------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, False, None])
        return len(self.spans) - 1

    def wrap(self, qualname: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.stack:
                return fn(*args, **kwargs)
            idx = rec._open(qualname)
            rec.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.spans[idx][5] = True
                raise
            finally:
                rec.spans[idx][2] = time.perf_counter()
                rec.stack.pop()
            rec.spans[idx][6] = _extra(qualname, args, kwargs, out)
            return out

        return traced

    def install(self, mods: dict) -> list:
        reps = {}
        for layer, name, fn in _public_functions(mods):
            reps[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        return _swap(mods, reps)

    # ------------------------------------------------------- folding
    def fold(self, n_ops: int) -> dict[str, float]:
        """Per-op totals of self time, calls, errors, cells and bytes."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op, _err, _extra in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        acc: dict[str, float] = {}

        def add(key: str, val: float) -> None:
            acc[key] = acc.get(key, 0.0) + val

        for i, (name, t0, t1, _parent, _op, err, extra) in enumerate(self.spans):
            self_s = (t1 - t0) - child[i]
            if name.startswith("op."):
                add("trace.op_s", t1 - t0)
                add("trace.glue_s", self_s)
                continue
            layer = name.split(".", 1)[0]
            add(f"{layer}.self_s", self_s)
            add(f"{layer}.calls", 1)
            add(f"{layer}.errors", 1 if err else 0)
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
            if extra:
                for k, v in extra.items():
                    add(f"{name}.{k}", v)
        return {k: v / n_ops for k, v in acc.items()}


def _extra(qualname: str, args, kwargs, out) -> dict | None:
    """Work counts recorded at the same boundary as the span."""
    if qualname in FUNCTION_CELLS:
        arr = out.values if hasattr(out, "values") else out.entries
        return {"cells": arr.size}
    if qualname in FUNCTION_BYTES:
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


class PeakProbe:
    """tracemalloc peak inside each ``cross_ambiguity`` call.

    Runs in its own pass: only that function is wrapped, and tracemalloc is
    on only while it runs, so the Python-heavy text codecs are not slowed.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0

    def install(self, mods: dict) -> list:
        fn = mods["ambiguity"].cross_ambiguity
        probe = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _cur, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                probe.peak_bytes = max(probe.peak_bytes, peak)

        return _swap(mods, {id(fn): (fn, measured)})


def load_modules() -> dict:
    pkg = sys.modules["mimoaf"]
    mods = {layer: sys.modules[f"mimoaf.{layer}"] for layer in LAYERS}
    mods["package"] = pkg
    return mods
