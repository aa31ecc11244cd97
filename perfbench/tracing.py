"""Spans around graphrde's public functions, recorded from outside the program.

``Tracer.install`` rebinds each function named in ``LAYERS``, in every
graphrde module that holds a reference to it, to a wrapper that opens a
span for the call.  Spans nest through a stack of open spans: a layer's
self time is its span's duration minus the time covered by the spans it
caused.  Spans stay in memory as running sums; nothing is written while
the workload runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, attribute); an attribute "Class.method" names a method.
# Two entries may share a layer: their self times add up.
LAYERS = [
    ("data.load_values", "graphrde.data", "load_values"),
    ("data.make_windows", "graphrde.data", "make_windows"),
    ("data.drop_observations", "graphrde.data", "drop_observations"),
    ("paths.fit_spline", "graphrde.paths", "fit_spline"),
    ("paths.sample_chords", "graphrde.paths", "sample_chords"),
    ("logsig.window_logsig", "graphrde.logsig", "window_logsig"),
    ("logsig.sig_polyline", "graphrde.logsig", "sig_polyline"),
    ("logsig.tensor_log", "graphrde.logsig", "tensor_log"),
    ("logsig.lyndon_project", "graphrde.logsig", "lyndon_project"),
    ("training.prepare_split", "graphrde.training", "prepare_split"),
    ("training.forward", "graphrde.training", "forward_prepared"),
    ("training.adam_step", "graphrde.training", "Adam.step"),
    ("training.evaluate", "graphrde.training", "evaluate_prepared"),
    ("training.evaluate", "graphrde.training", "predict_denormalized"),
    ("tensor.backward", "graphrde.tensor", "backward"),
    ("solver.integrate", "graphrde.solver", "integrate"),
    ("model.augmented_rhs", "graphrde.model", "augmented_rhs"),
    ("model.field_f", "graphrde.model", "field_f"),
    ("model.field_g", "graphrde.model", "field_g"),
    ("model.save_checkpoint", "graphrde.model", "save_checkpoint"),
    ("model.load_checkpoint", "graphrde.model", "load_checkpoint"),
    ("cli.predict", "graphrde.cli", "cmd_predict"),
]


def rebind(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace a graphrde function everywhere it is bound; False if it is gone.

    ``make_wrapper(original)`` returns the replacement.  Module-level
    functions are rebound in every loaded graphrde module that imported
    them by name, so calls made through ``from x import f`` see the
    wrapper too.
    """
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return False
        setattr(cls, meth, make_wrapper(vars(cls)[meth]))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "graphrde" or name.startswith("graphrde.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


class Tracer:
    """Self time and call counts per layer, plus counters taken at boundaries."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer, _, _ in LAYERS}
        self.calls = {layer: 0 for layer, _, _ in LAYERS}
        self.cells = 0
        self.tape_entries = 0
        self.tape_bytes = 0
        self.missing: list[str] = []
        self._open: list[float] = []  # child time covered inside each open span

    def install(self) -> None:
        importlib.import_module("graphrde.cli")  # loads every module that binds a traced name
        for layer, module_name, attr in LAYERS:
            if not rebind(module_name, attr, functools.partial(self._wrap, layer)):
                self.missing.append(f"{module_name}.{attr}")

    def _wrap(self, layer: str, fn):
        probe = _PROBES.get(layer)
        clock = time.perf_counter
        open_spans = self._open
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(self, *args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration - open_spans.pop()
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}_s": seconds for layer, seconds in self.self_s.items()}
        out["paths.fit_spline_calls"] = self.calls["paths.fit_spline"]
        out["paths.sample_chords_calls"] = self.calls["paths.sample_chords"]
        out["logsig.cells"] = self.cells
        out["tensor.tape_entries"] = self.tape_entries
        out["tensor.tape_bytes"] = self.tape_bytes
        out["solver.rhs_evals"] = self.calls["model.augmented_rhs"]
        return out


def _probe_cells(tracer: Tracer, windows, *args, **kwargs) -> None:
    """One cell is one (window, node) pair handed to the front end."""
    tracer.cells += len(windows) * windows.inputs.shape[1]


def _probe_tape(tracer: Tracer, *args, **kwargs) -> None:
    """Largest tape seen before a backward pass: entries, and bytes of the
    taped outputs computed as the sum of their ``nbytes`` (not measured RSS)."""
    tensor = sys.modules["graphrde.tensor"]
    tracer.tape_entries = max(tracer.tape_entries, tensor.tape_size())
    taped = sum(out.data.nbytes for out, _ in tensor._TAPE)
    tracer.tape_bytes = max(tracer.tape_bytes, taped)


_PROBES = {"training.prepare_split": _probe_cells, "tensor.backward": _probe_tape}
