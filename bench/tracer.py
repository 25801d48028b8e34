"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of ``odoshift`` with a
timing wrapper, wherever callers look the function up: the defining module
and every loaded ``odoshift`` module that imported it by name.  Nothing in
``src/`` is edited, so the same tracer works on any commit that still has
the function; a function that no longer exists is skipped and its layer
reads 0.

Each call opens a frame on a stack.  A frame's self time is its duration
minus the time its child calls cover, so nested layers are not counted
twice.  Calls of ordinary functions are kept as spans (name, start, end,
parent, op id, time covered by children); functions that run tens of
thousands of times per op (``HOT``) only add to a call count and an
aggregate time.  Self times are derived from the spans and aggregates when
the run ends, and the spans are written to a JSON file.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import time

# (module, attribute, layer).  An attribute "Class.method" wraps a method.
TARGETS = (
    ("substitution", "fixed_point_prefix", "substitution.generate"),
    ("substitution", "grigorchuk_prefix", "substitution.generate"),
    ("substitution", "grigorchuk_codes", "substitution.oracle"),
    ("substitution", "SymbolicPrefix.shifted", "substitution.shift"),
    ("toeplitz", "period_skeleton", "toeplitz.skeleton"),
    ("toeplitz", "skeleton_levels_from_codes", "toeplitz.skeleton"),
    ("toeplitz", "essential_periods", "toeplitz.essential_periods"),
    ("factormap", "encode_fG", "factormap.encode"),
    ("factormap", "encode_value", "factormap.encode"),
    ("factormap", "verify_equivariance", "factormap.equivariance"),
    ("factormap", "sigma_preimage_letters", "factormap.preimage"),
    ("factormap", "classify_fiber", "factormap.fiber"),
    ("ergodic", "invariant_measure_cylinder", "ergodic.measure"),
    ("ergodic", "cylinder_frequency", "ergodic.frequency"),
    ("ergodic", "spectral_scan", "ergodic.spectrum"),
    ("ergodic", "eigenfunction_check", "ergodic.eigenfunction"),
)

# every public function defined in odoshift.odometer belongs to this layer
ODOMETER_LAYER = "odometer"

HOT = {"encode_value", "skeleton_levels_from_codes", "cf_contains", "factorize", "odometer_step"}

# word lengths that split ergodic.measure into short and long calls
SHORT_WORD = 7
LONG_WORD = 12


class Tracer:
    """Installs the wrappers and records spans, aggregates and counters in memory."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.aggregates = {}  # function name -> [layer, calls, total_s, self_s]
        self.entries = {}  # layer -> calls entering the layer from outside it
        self.counters = {}  # (layer, key) -> summed quantity
        self.first_calls = {}  # layer -> inclusive seconds of its first call
        self.op = "setup"
        self._ids = itertools.count(1)
        self._restore = []

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded odoshift module; returns self."""
        from odoshift import verification

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "odoshift" or name.startswith("odoshift."))]
        for module_name, attr, layer in TARGETS:
            module = sys.modules.get(f"odoshift.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is not None:
                    self._patch(cls, meth, self._wrap(original, attr, layer))
                continue
            original = getattr(module, attr, None)
            if original is not None:
                self._patch_everywhere(modules, original, self._wrap(original, attr, layer))
        odometer = sys.modules.get("odoshift.odometer")
        if odometer is not None:
            for name, fn in sorted(vars(odometer).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == odometer.__name__):
                    self._patch_everywhere(modules, fn, self._wrap(fn, name, ODOMETER_LAYER))
        checks = getattr(verification, "ALL_CHECKS", None)
        if checks is not None:
            wrapped = tuple(
                self._wrap(c, c.__name__, "verification." + c.__name__.removeprefix("check_"))
                for c in checks
            )
            self._patch(verification, "ALL_CHECKS", wrapped)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _wrap(self, fn, name, layer):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        hot = name in HOT
        stack = self.stack
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, time.perf_counter(), next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[1] += duration
                if parent is None or parent[0] != layer:
                    self.entries[layer] = self.entries.get(layer, 0) + 1
                    self.first_calls.setdefault(layer, duration)
                if hot:
                    agg = self.aggregates.setdefault(name, [layer, 0, 0.0, 0.0])
                    agg[1] += 1
                    agg[2] += duration
                    agg[3] += duration - frame[1]
                else:
                    self.spans.append((name, layer, frame[2], end,
                                       parent[3] if parent else None, frame[3], self.op, frame[1]))
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    return result
                bound.apply_defaults()
                hook(self, layer, bound.arguments, result, duration)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, layer, key, amount):
        self.counters[(layer, key)] = self.counters.get((layer, key), 0) + amount

    # -- results -----------------------------------------------------------

    def dump(self):
        """Plain-JSON form of everything recorded, for files and for merging."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": self.aggregates,
            "entries": self.entries,
            "counters": [[layer, key, v] for (layer, key), v in self.counters.items()],
            "first_calls": self.first_calls,
        }


def _shift_hook(tracer, layer, args, result, duration):
    """Bytes the shifted object owns that it does not share with its source."""
    import numpy as np

    source = list(vars(args["self"]).values())
    copied = 0
    for value in vars(result).values():
        if isinstance(value, np.ndarray):
            if not any(isinstance(v, np.ndarray) and np.shares_memory(value, v) for v in source):
                copied += value.nbytes
        elif isinstance(value, (str, bytes)) and not any(value is v for v in source):
            copied += len(value)
    tracer.count(layer, "bytes_copied", copied)


def _generate_hook(tracer, layer, args, result, duration):
    tracer.count(layer, "letters", len(result))


def _encode_fg_hook(tracer, layer, args, result, duration):
    tracer.count(layer, "window_used", result.window_used)
    tracer.count(layer, "letters_in", len(args["prefix"]))


def _encode_value_hook(tracer, layer, args, result, duration):
    # the skeleton scan at precision k reads a window of 2^(k+2) letters
    tracer.count(layer, "window_used", 1 << (args["k"] + 2))
    tracer.count(layer, "letters_in", len(args["prefix_codes"]))


def _shifts_hook(argument):
    def hook(tracer, layer, args, result, duration):
        tracer.count(layer, "shifts", args[argument])
        tracer.count(layer, "shift_seconds", duration)
    return hook


def _measure_hook(tracer, layer, args, result, duration):
    n = len(args["word"])
    if n <= SHORT_WORD:
        tracer.count(layer, "short_calls", 1)
        tracer.count(layer, "short_s", duration)
    elif n >= LONG_WORD:
        tracer.count(layer, "long_calls", 1)
        tracer.count(layer, "long_s", duration)


_HOOKS = {
    "SymbolicPrefix.shifted": _shift_hook,
    "fixed_point_prefix": _generate_hook,
    "encode_fG": _encode_fg_hook,
    "encode_value": _encode_value_hook,
    "verify_equivariance": _shifts_hook("shifts"),
    "eigenfunction_check": _shifts_hook("window"),
    "invariant_measure_cylinder": _measure_hook,
}


class TraceLog:
    """Spans and aggregates merged from this process and traced children."""

    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.entries = {}
        self.counters = {}
        self.first_calls = {}  # layer -> list of first-call seconds, one per process

    def merge(self, dump, op=None):
        for span in dump["spans"]:
            if op is not None:
                span[6] = op
            self.spans.append(span)
        for name, (layer, calls, total, self_s) in dump["aggregates"].items():
            agg = self.aggregates.setdefault(name, [layer, 0, 0.0, 0.0])
            agg[1] += calls
            agg[2] += total
            agg[3] += self_s
        for layer, n in dump["entries"].items():
            self.entries[layer] = self.entries.get(layer, 0) + n
        for layer, key, v in dump["counters"]:
            self.counters[(layer, key)] = self.counters.get((layer, key), 0) + v
        for layer, seconds in dump["first_calls"].items():
            self.first_calls.setdefault(layer, []).append(seconds)

    def self_seconds(self):
        """Layer -> self time: span duration minus what child calls covered."""
        out = {}
        for _, layer, start, end, _, _, _, children in self.spans:
            out[layer] = out.get(layer, 0.0) + (end - start) - children
        for layer, _, _, self_s in self.aggregates.values():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def per_op_inclusive(self, layer):
        """Median over ops of the inclusive seconds spent in ``layer``."""
        per_op = {}
        for _, span_layer, start, end, _, _, op, _ in self.spans:
            if span_layer == layer:
                per_op[op] = per_op.get(op, 0.0) + end - start
        return statistics.median(per_op.values()) if per_op else 0.0

    def write(self, path, meta):
        body = dict(meta)
        body["span_fields"] = ["name", "layer", "start", "end", "parent", "id", "op", "children_s"]
        body["spans"] = self.spans
        body["aggregates"] = self.aggregates
        body["entries"] = self.entries
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def layer_metrics(log: TraceLog, check_names):
    """Every span-derived per-layer metric, by name (0 where a layer did not run)."""
    self_s = log.self_seconds()
    c = log.counters

    def counter(layer, key):
        return c.get((layer, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    first = log.first_calls.get("factormap.preimage", [])
    m = {
        "substitution.generate.self_s": self_s.get("substitution.generate", 0.0),
        "substitution.generate.ns_per_letter": 1e9 * ratio(
            self_s.get("substitution.generate", 0.0), counter("substitution.generate", "letters")),
        "substitution.oracle.self_s": self_s.get("substitution.oracle", 0.0),
        "substitution.shift.self_s": self_s.get("substitution.shift", 0.0),
        "substitution.shift.calls": log.entries.get("substitution.shift", 0),
        "substitution.shift.bytes_copied": counter("substitution.shift", "bytes_copied"),
        "toeplitz.skeleton.self_s": self_s.get("toeplitz.skeleton", 0.0),
        "toeplitz.skeleton.calls": log.entries.get("toeplitz.skeleton", 0),
        "toeplitz.essential_periods.self_s": self_s.get("toeplitz.essential_periods", 0.0),
        "factormap.encode.self_s": self_s.get("factormap.encode", 0.0),
        "factormap.encode.calls": log.entries.get("factormap.encode", 0),
        "factormap.encode.window_used_ratio": ratio(
            counter("factormap.encode", "window_used"), counter("factormap.encode", "letters_in")),
        "factormap.equivariance.self_s": self_s.get("factormap.equivariance", 0.0),
        "factormap.equivariance.shifts_per_s": ratio(
            counter("factormap.equivariance", "shifts"),
            counter("factormap.equivariance", "shift_seconds")),
        "factormap.preimage.self_s": self_s.get("factormap.preimage", 0.0),
        "factormap.preimage.calls": log.entries.get("factormap.preimage", 0),
        "factormap.preimage.first_call_s": statistics.median(first) if first else 0.0,
        "factormap.fiber.self_s": self_s.get("factormap.fiber", 0.0),
        "ergodic.measure.self_s": self_s.get("ergodic.measure", 0.0),
        "ergodic.measure.calls": log.entries.get("ergodic.measure", 0),
        "ergodic.measure.short_s": ratio(
            counter("ergodic.measure", "short_s"), counter("ergodic.measure", "short_calls")),
        "ergodic.measure.long_s": ratio(
            counter("ergodic.measure", "long_s"), counter("ergodic.measure", "long_calls")),
        "ergodic.frequency.self_s": self_s.get("ergodic.frequency", 0.0),
        "ergodic.spectrum.self_s": self_s.get("ergodic.spectrum", 0.0),
        "ergodic.eigenfunction.self_s": self_s.get("ergodic.eigenfunction", 0.0),
        "ergodic.eigenfunction.shifts_per_s": ratio(
            counter("ergodic.eigenfunction", "shifts"),
            counter("ergodic.eigenfunction", "shift_seconds")),
        "odometer.self_s": self_s.get(ODOMETER_LAYER, 0.0),
        "odometer.calls": log.entries.get(ODOMETER_LAYER, 0),
    }
    for name in check_names:
        m[f"verification.{name}.s"] = log.per_op_inclusive(f"verification.{name}")
    return m
