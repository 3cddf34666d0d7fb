"""Layer tracing for the benchmark, installed from outside the package.

The tracer replaces functions of the modclass layers with timing wrappers
and puts the originals back on ``uninstall``.  A wrapped module-level
function is patched in every modclass namespace that holds the same object
under the same name (``meataxe.hom_basis_matrices`` and
``green.hom_basis_matrices`` are both the function from ``modrep``), so calls
are seen whichever import path they take.

Two kinds of wrapper share one stack of open frames:

* span wrappers record ``(id, name, start, end, parent id, query id)`` for
  every call and keep the records in memory until :meth:`Tracer.write`;
* aggregate wrappers, for the hot ``FiniteField``, ``RowSpace`` and
  ``polynomials`` calls (hundreds of thousands per run), only add to a call
  count and a self-time total.  A call made while another call of the same
  class is open runs unwrapped, so their counts are entry calls.

A frame's self time is its duration minus the durations of the frames
opened directly inside it, so self times of all frames add up to the
wrapped time without double counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "finite_field",
    "polynomials",
    "linalg",
    "perm_group",
    "modrep",
    "meataxe",
    "green",
    "classify",
    "serialize",
    "cli",
)

# Leaf helpers called millions of times; their time stays in the caller.
_UNWRAPPED = {
    "perm_group": {"identity_perm", "pmul", "pinv", "perm_order", "_validate_perm"},
    "finite_field": {"is_prime"},
}

# Classes whose methods get aggregate wrappers (entry calls only).
_AGGREGATE_CLASSES = {"finite_field": ("FiniteField",), "linalg": ("RowSpace",)}

# Modules whose functions get aggregate wrappers instead of spans.
_AGGREGATE_MODULES = {"polynomials"}

# Methods of other classes traced as spans.
_SPAN_METHODS = {
    "perm_group": {
        "PermGroup": ("__init__", "conjugacy_classes", "p_regular_class_count", "generated_subgroup"),
        "Subgroup": ("__init__",),
    },
}

# Names whose outermost calls are summed as inclusive time, to give the
# share of a run spent under them.
INCLUSIVE_GROUPS = {
    "modrep.hom_basis_matrices": "hom",
    "linalg.spin": "spin",
}
for _m in ("add", "reduce", "reduce_with_coords", "contains", "_reduce"):
    INCLUSIVE_GROUPS["linalg.RowSpace." + _m] = "spin"


class Tracer:
    """Spans, counters and self times of one traced interval."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._busy: dict[str, bool] = defaultdict(bool)  # per wrapper family
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self._group_depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self.query = "setup"
        self.tag = ""

    # ----- wrappers -----

    def _span(self, name: str, fn, hook=None):
        tracer = self
        group = INCLUSIVE_GROUPS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            if group:
                tracer._group_depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.calls[name] += 1
                tracer.self_s[(name, tracer.tag)] += dur - frame[0]
                tracer.spans.append((sid, name, t0, t1, parent, tracer.query))
                if group:
                    tracer._group_depth[group] -= 1
                    if not tracer._group_depth[group]:
                        tracer.inclusive_s[group] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _aggregate(self, name: str, fn, family: str, hook=None):
        tracer = self
        busy = self._busy
        group = INCLUSIVE_GROUPS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[family]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            busy[family] = True
            if group:
                tracer._group_depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                busy[family] = False
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.calls[name] += 1
                tracer.self_s[(name, tracer.tag)] += dur - frame[0]
                if group:
                    tracer._group_depth[group] -= 1
                    if not tracer._group_depth[group]:
                        tracer.inclusive_s[group] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # ----- installation -----

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the layers of ``package`` (the imported modclass package)."""
        modules = {name: importlib.import_module(package.__name__ + "." + name) for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            skip = _UNWRAPPED.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or attr in skip:
                    continue
                name = "%s.%s" % (layer, attr)
                hook = _HOOKS.get(name)
                if layer in _AGGREGATE_MODULES:
                    new = self._aggregate(name, fn, layer, hook)
                else:
                    new = self._span(name, fn, hook)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._patch(ns, attr, new)
            for cls_name in _AGGREGATE_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and not attr.startswith("__"):
                        name = "%s.%s.%s" % (layer, cls_name, attr)
                        hook = _HOOKS.get(name, _CLASS_HOOKS.get(cls_name))
                        self._patch(cls, attr, self._aggregate(name, fn, cls_name, hook))
            for cls_name, attrs in _SPAN_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    name = "%s.%s.%s" % (layer, cls_name, attr)
                    self._patch(cls, attr, self._span(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ----- read-out -----

    def layer_self_s(self, layer: str, tag: str | None = None) -> float:
        prefix = layer + "."
        return sum(
            v for (name, t), v in self.self_s.items()
            if name.startswith(prefix) and (tag is None or t == tag)
        )

    def name_self_s(self, *names: str, tag: str | None = None) -> float:
        return sum(
            v for (name, t), v in self.self_s.items()
            if name in names and (tag is None or t == tag)
        )

    def write(self, path: str) -> None:
        """Write spans and aggregate totals as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "query"],
            "spans": self.spans,
            "aggregates": {
                name: {"calls": self.calls[name], "self_s": self.name_self_s(name)}
                for name in sorted(self.calls)
            },
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ----- counters taken from call arguments and results -----


def _field_entry(tracer: Tracer, args, result) -> None:
    if args[0].n > 1:
        tracer.counters["finite_field.ext_calls"] += 1


def _rref_cells(tracer: Tracer, args, result) -> None:
    rows, cols = result[0].shape
    tracer.counters["linalg.rref_cells"] += rows * cols


def _rowspace_add(tracer: Tracer, args, result) -> None:
    tracer.counters["linalg.rowspace_adds"] += 1
    if result:
        tracer.counters["linalg.rowspace_useful"] += 1


def _hom_system(tracer: Tracer, args, result) -> None:
    _, mats_src, _, d_src, d_tgt = args[:5]
    cells = max(len(mats_src), 1) * (d_src * d_tgt) ** 2
    tracer.counters["modrep.hom_system_cells"] += cells
    mb = cells * 8 / 2**20
    if mb > tracer.counters["modrep.hom_system_max_mb"]:
        tracer.counters["modrep.hom_system_max_mb"] = mb


def _cache_read(tracer: Tracer, args, result) -> None:
    tracer.counters["cli.cache_reads." + tracer.tag] += 1
    if result is not None:
        tracer.counters["cli.cache_hits." + tracer.tag] += 1


_HOOKS = {
    "linalg.rref": _rref_cells,
    "linalg.RowSpace.add": _rowspace_add,
    "modrep.hom_basis_matrices": _hom_system,
    "cli._cache_read": _cache_read,
}

_CLASS_HOOKS = {"FiniteField": _field_entry}
