"""Run one ncsym CLI invocation with every public ncsym function timed.

    python3 perfbench/traced_cli.py TRACE.json <ncsym arguments...>

The wrapping is done from outside the package: each public module-level
function and each public method (plus constructors and arithmetic
operators) of the classes a module defines is replaced by a timing wrapper, and the
wrapper is rebound in every ncsym namespace that imported the function
by name, so no call escapes.  Spans stay in memory; per-function
aggregates (calls, inclusive seconds, self seconds) and a few size
counters are written to TRACE.json when the command ends.  stdout is the
CLI's own, byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

MODULES = ("poly", "linalg", "lie", "geometry", "solver", "representations",
           "mechanics", "fluids", "em", "cli")
# Dunder methods that do a module's work: constructors and arithmetic.
DUNDERS = {"__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__neg__", "__pow__", "__truediv__", "__rtruediv__"}
PROOF = "solver.span_equal"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {
            "rref_cells": 0, "rref_nnz": 0, "rref_under_proof": 0,
            "nullspace_vectors": 0, "rk4_steps": 0, "fluid_points": 0,
        }
        self.active: dict[str, int] = {}
        self.stack: list[list] = []  # open spans: [seconds covered by children]
        self.hook_s = 0.0  # time spent sizing arguments, kept out of every span

    def wrap(self, key: str, fn, before=None, after=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, active, clock = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(args, kwargs)
                self._hook(clock() - h0)
            depth = active.get(key, 0)
            active[key] = depth + 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[key] = depth
                stats[0] += 1
                stats[2] += dur - frame[0]
                if depth == 0:
                    stats[1] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                h0 = clock()
                after(result)
                self._hook(clock() - h0)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _hook(self, seconds: float) -> None:
        self.hook_s += seconds
        if self.stack:
            self.stack[-1][0] += seconds

    # -- size counters ----------------------------------------------------

    def _rref_in(self, args, kwargs):
        m = args[0]
        c = self.counters
        c["rref_cells"] += len(m) * (len(m[0]) if m else 0)
        c["rref_nnz"] += sum(1 for row in m for v in row if v)
        if self.active.get(PROOF):
            c["rref_under_proof"] += 1

    def _nullspace_out(self, result):
        self.counters["nullspace_vectors"] += len(result)

    def _rk4_in(self, args, kwargs):
        self.counters["rk4_steps"] += args[3] if len(args) > 3 else kwargs["steps"]

    def _fluid_in(self, args, kwargs):
        points = args[3] if len(args) > 3 else kwargs["points"]
        self.counters["fluid_points"] += len(points)

    def hooks(self, key: str) -> dict:
        return {
            "linalg.rref": {"before": self._rref_in},
            "linalg.nullspace": {"after": self._nullspace_out},
            "mechanics.rk4": {"before": self._rk4_in},
            "fluids.fluid_residual": {"before": self._fluid_in},
        }.get(key, {})


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every public ncsym function; return any reference left unwrapped."""
    mods = {name: importlib.import_module(f"ncsym.{name}") for name in MODULES}
    namespaces = [vars(importlib.import_module("ncsym"))] + [vars(m) for m in mods.values()]
    originals: dict[int, object] = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                key = f"{layer}.{name}"
                wrapped = tracer.wrap(key, obj, **tracer.hooks(key))
                originals[id(obj)] = obj
                for ns in namespaces:
                    for alias, value in list(ns.items()):
                        if value is obj:
                            ns[alias] = wrapped
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, value in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
                    fn = value.__func__ if kind else value
                    if not isinstance(fn, types.FunctionType):
                        continue
                    wrapped = tracer.wrap(f"{layer}.{name}.{attr}", fn)
                    originals[id(fn)] = fn
                    setattr(obj, attr, kind(wrapped) if kind else wrapped)
    return escapes(namespaces, originals)


def escapes(namespaces, originals) -> list[str]:
    """Names and defaults that still reach an unwrapped original."""
    left = []
    for ns in namespaces:
        for alias, value in ns.items():
            if id(value) in originals and value is originals[id(value)]:
                left.append(alias)
            if isinstance(value, type) and value.__module__.startswith("ncsym"):
                values = vars(value).values()
            else:
                values = [value]
            for v in values:
                v = getattr(v, "__func__", v)
                v = getattr(v, "__wrapped_original__", v)
                for default in (getattr(v, "__defaults__", None) or ()):
                    if id(default) in originals:
                        left.append(f"default of {alias}")
    return sorted(set(left))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    left = instrument(tracer)
    cli = sys.modules["ncsym.cli"]
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s, "hook_s": tracer.hook_s, "escapes": left,
                       "functions": tracer.stats, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
