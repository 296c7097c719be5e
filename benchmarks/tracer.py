"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each coinwalk module (the
names in its ``__all__``) and the validating ``__post_init__`` of its public
dataclasses, then rebinds every module attribute that names a wrapped
function.  The rebinding matters: ``cli`` and ``analysis`` import functions
by name, so wrapping only ``coinwalk.evolution.run_walk`` would miss the
calls made through ``coinwalk.cli.run_walk``.

Spans live in memory as ``(layer, name, parent, start, end, note)`` tuples;
``parent`` is the index of the enclosing span (-1 at the top) and ``note``
carries the one argument some metrics need.  A layer's self time is the sum
over its spans of duration minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS = ("coin", "state", "evolution", "dense", "analysis", "entanglement", "cli")

#: Functions whose span keeps one argument: the step count of a dense run and
#: the window half-width of an assembled dense operator.
NOTES = {"dense_amplitudes": "steps", "build_step_unitary": "half_width"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note_arg = NOTES.get(name)
        signature = inspect.signature(fn) if note_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            note = signature.bind(*args, **kwargs).arguments[note_arg] if note_arg else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, parent, start, end, note)

        return traced

    def install(self) -> None:
        """Wrap every layer of the already imported coinwalk package."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"coinwalk.{layer}"]
            for name in module.__all__:
                obj = getattr(module, name)
                if isinstance(obj, type) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self.wrap(layer, name, vars(obj)["__post_init__"])
                elif isinstance(obj, types.FunctionType):
                    replaced[obj] = self.wrap(layer, name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "coinwalk" or mod_name.startswith("coinwalk."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in replaced:
                        setattr(module, attr, replaced[value])

    def drain(self) -> dict:
        """Summarise and forget the spans recorded so far, as a flat dict of totals."""
        spans = list(self.spans)
        self.spans.clear()
        children = [0.0] * len(spans)
        for layer, name, parent, start, end, note in spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (layer, name, parent, start, end, note) in enumerate(spans):
            totals[f"self_s.{layer}"] += (end - start) - children[index]
            totals[f"calls.{layer}"] += 1
            totals[f"spans.{name}"] += 1
            if name == "run_walk" and parent >= 0 and spans[parent][0] == "analysis":
                totals["analysis_walks"] += 1
            elif name == "build_step_unitary":
                totals["dense_build_s"] += end - start
                totals["dense_max_half_width"] = max(totals["dense_max_half_width"], note)
            elif name == "dense_amplitudes":
                totals["dense_matvecs"] += note
        return dict(totals)


def merge(total: dict, part: dict) -> None:
    """Add the totals of ``part`` into ``total`` (the operator size is a maximum)."""
    for key, value in part.items():
        if key == "dense_max_half_width":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
