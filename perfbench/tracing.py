"""Spans around the public functions of each thermoshift layer.

``Tracer.install`` wraps every public function defined in a layer module
and rebinds each module attribute that refers to it, in every loaded
``thermoshift`` module, so calls between modules are seen too.  Spans
are kept in memory as ``[layer, name, start, end, parent, op, info]``;
``info`` holds what the return value tells (precision, sizes) or the
exception raised.  ``layer_metrics`` turns the spans of one pass into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("core_sft", "max_face", "orbits", "cache", "potential",
          "rotation_geometry", "thermodynamics", "zero_temperature",
          "boundary_entropy", "cli")

SOLVES = ("equilibrium_markov", "pressure", "parry_from_matrix")


def _observe(name: str, result):
    """Small facts the library already exposes on its return values."""
    if name in ("equilibrium_markov", "parry_measure", "parry_from_matrix"):
        return {"precision": result.precision}
    if name in ("elementary_orbits", "cached_elementary_orbits"):
        return {"size": len(result)}
    if name == "rotation_set":
        return {"fallback": not result.generator_points}
    if name == "zt_coefficients":
        return {"steps": len(result.t_values)}
    if name == "face_entropy_curve":
        return {"points": len(result.points)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else -1, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[6] = _observe(name, result)
                return result
            except Exception as exc:
                span[6] = {"error": type(exc).__name__}
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"thermoshift.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "thermoshift" and not modname.startswith("thermoshift."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans, recode_info=(0, 0), children=()) -> dict:
    """Per-layer metrics of one pass.

    ``spans`` are the in-process spans recorded while ops ran; spans
    recorded outside an op (input building) are ignored.  ``recode_info``
    is the (hits, misses) change of the recoding cache over the ops.
    ``children`` holds, per traced CLI child, its startup time and spans.
    """
    out = {f"{layer}.{key}": 0 for layer in LAYERS
           for key in ("calls", "self_s")}
    out.update({k: 0 for k in (
        "core_sft.recode_hit_ratio", "max_face.karp_calls", "max_face.karp_s",
        "orbits.cycles", "orbits.cap_hits", "orbits.wasted_s", "cache.hits",
        "cache.misses", "cache.hit_s", "cache.miss_s",
        "rotation_geometry.support_fallbacks", "thermodynamics.solves",
        "thermodynamics.escalation_ratio", "thermodynamics.mp_digits_mean",
        "thermodynamics.escalated_s", "zero_temperature.sweep_steps",
        "zero_temperature.symmetry_s", "boundary_entropy.curve_points",
        "cli.startup_s")})
    out.pop("thermodynamics.calls")     # thermodynamics counts solves instead
    digits = []
    groups = [(spans, True)]
    for child in children:
        groups.append((child["spans"], False))
        out["cli.startup_s"] += child["startup_s"]
    for group, in_ops_only in groups:
        nested = [0.0] * len(group)
        enumerated = [False] * len(group)     # ran the orbit enumerator
        for s in group:
            if s[4] >= 0:
                nested[s[4]] += s[3] - s[2]
                enumerated[s[4]] |= s[1] == "elementary_orbits"
        for i, (layer, name, start, end, parent, op, info) in enumerate(group):
            if in_ops_only and op is None:
                continue
            dur = end - start
            info = info or {}
            out[f"{layer}.self_s"] += dur - nested[i]
            if layer != "thermodynamics" and (
                    parent < 0 or group[parent][0] != layer):
                out[f"{layer}.calls"] += 1
            if name == "karp_max_mean":
                out["max_face.karp_calls"] += 1
                out["max_face.karp_s"] += dur
            elif name == "elementary_orbits":
                out["orbits.cycles"] += info.get("size", 0)
                if info.get("error") == "ResourceLimitError":
                    out["orbits.cap_hits"] += 1
                    out["orbits.wasted_s"] += dur
            elif name == "cached_elementary_orbits":
                hit = not enumerated[i]
                out["cache.hits" if hit else "cache.misses"] += 1
                out["cache.hit_s" if hit else "cache.miss_s"] += dur
            elif name == "rotation_set":
                out["rotation_geometry.support_fallbacks"] += bool(
                    info.get("fallback"))
            elif name == "zt_coefficients":
                out["zero_temperature.sweep_steps"] += info.get("steps", 0)
            elif name == "symmetry_coefficients":
                out["zero_temperature.symmetry_s"] += dur
            elif name == "face_entropy_curve":
                out["boundary_entropy.curve_points"] += info.get("points", 0)
            if name in SOLVES:
                out["thermodynamics.solves"] += 1
                prec = info.get("precision", "")
                if prec.startswith("mp["):
                    digits.append(int(prec[3:-1]))
                    out["thermodynamics.escalated_s"] += dur
    solves = out["thermodynamics.solves"]
    out["thermodynamics.escalation_ratio"] = len(digits) / solves if solves else 0
    out["thermodynamics.mp_digits_mean"] = sum(digits) / len(digits) if digits else 0
    hits, misses = recode_info
    out["core_sft.recode_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    return out
