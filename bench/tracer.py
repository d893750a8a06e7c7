"""Outside-in per-layer tracer for the qheis package.

The tracer patches the package from the benchmark's side; nothing under
``src/`` knows about it.  It wraps every public function of each layer
module, every public method of the layer's public classes and the
arithmetic operators of those classes, so that

* a stack of open calls gives each layer its self time: a call's
  duration minus the part of it spent inside other wrapped calls;
* named hooks count the calls the benchmark reports (``scalar.ops``,
  ``liealg.table_builds`` and so on).

A module-level function is patched in every ``qheis.*`` namespace that
holds it, because ``from .series import series_inverse`` binds a second
name to the same object; methods are patched on their class.  A named
hook whose target no longer exists is reported as missing, not raised,
so the benchmark keeps running when a later commit moves or deletes it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("scalar", "series", "kernels", "liealg", "fock", "vertexops")

# dunder methods that do a layer's work (Scalar and TruncatedLaurent
# arithmetic); other dunders are cheap and called from dict internals
OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
             "__neg__", "__pow__")

SCALAR_OPS = tuple(f"Scalar.{op}" for op in OPERATORS)

# metric -> (layer, qualified names whose calls it counts)
CALL_COUNTS = {
    "scalar.ops": ("scalar", SCALAR_OPS),
    "scalar.evaluate_calls": ("scalar", ("Scalar.evaluate",)),
    "series.mul_calls": ("series", ("TruncatedLaurent.__mul__",)),
    "series.inverse_calls": ("series", ("series_inverse",)),
    "kernels.expand_calls": ("kernels", ("iota_expand",)),
    "liealg.bracket_calls": ("liealg", ("bracket_modes",)),
    "liealg.table_builds": ("liealg", ("bhatq_commutator_table",)),
    "liealg.f_series_calls": ("liealg", ("f_series",)),
    "fock.apply_generator_calls": ("fock", ("apply_generator",)),
    "fock.pair_calls": ("fock", ("pair_vectors",)),
    "fock.two_point_calls": ("fock", ("two_point",)),
    "vertexops.ordered_core_calls": ("vertexops", ("ordered_core",)),
    "vertexops.inverse_exp_calls": ("vertexops", ("Multiplier.inverse_exp",)),
}

# the registered laws, timed through verify_identity
LAW_NAMES = (
    "bhat-commutator-delta", "hq-commutator-delta", "hq-quasi-locality",
    "hq-quasi-locality-control", "htq-commutator-euler-form",
    "htq-commutator-kernel-form", "htq-quasi-locality",
    "htq-quasi-locality-control", "locality-transfer",
    "phi-image-bq-commutator", "phi-image-heisenberg",
    "phi-weak-associativity", "scale-covariance", "special-pair-transfer",
)

# module-level caches read after the run: metric -> (layer, attribute)
CACHES = {
    "cache.reduce_cache_entries": ("scalar", "_REDUCE_CACHE"),
    "cache.g_cache_entries": ("liealg", "_G_CACHE"),
    "cache.f_cache_entries": ("liealg", "_F_CACHE"),
    "cache.bracket_memo_entries": ("liealg", "_BRACKET_MEMO"),
    "cache.table_cache_entries": ("liealg", "_TABLE_CACHE"),
    "cache.zpow_cache_entries": ("vertexops", "_ZPOW_CACHE"),
    "cache.sufficient_cache_entries": ("vertexops", "_SUFFICIENT_CACHE"),
    "cache.stack_cache_entries": ("vertexops", "_STACK_CACHE"),
}


def _nonmono_den(args, kwargs) -> bool:
    """Scalar(num, den) with a denominator of several terms: the gcd path."""
    den = args[2] if len(args) > 2 else kwargs.get("den")
    canonical = args[3] if len(args) > 3 else kwargs.get("_canonical", False)
    try:
        return not canonical and len(den) > 1
    except TypeError:
        return False


class Tracer:
    """Per-layer self time and call counts for one process."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.law_s: dict[str, float] = {}
        self.inverse_exp_keys: set = set()
        self.nonmono_ctor = 0
        self.missing: list[str] = []
        self._stack: list[float] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        raised = self.raised
        calls[qualname] = 0
        raised[qualname] = 0
        law_s = self.law_s if qualname == "verify_identity" else None
        distinct = (self.inverse_exp_keys
                    if qualname == "Multiplier.inverse_exp" else None)

        def traced(*args, **kwargs):
            calls[qualname] += 1
            if distinct is not None:
                distinct.add(args)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[qualname] += 1
                raise
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if law_s is not None and args:
                    law_s[args[0]] = law_s.get(args[0], 0.0) + elapsed

        return functools.wraps(fn)(traced)

    def _count_init(self, init):
        def counted(*args, **kwargs):
            if _nonmono_den(args, kwargs):
                self.nonmono_ctor += 1
            return init(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Patch every layer module of the imported package."""
        import importlib

        modules = {layer: importlib.import_module(f"qheis.{layer}")
                   for layer in LAYERS}
        importlib.import_module("qheis.cli")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qheis" or name.startswith("qheis.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                setattr(ns, attr, wrapped)
                elif inspect.isclass(obj) and \
                        not issubclass(obj, BaseException):
                    self._patch_class(layer, obj)
        scalar_cls = getattr(modules["scalar"], "Scalar", None)
        if scalar_cls is None:
            self.missing.append("scalar.Scalar.__init__")
        else:
            scalar_cls.__init__ = self._count_init(scalar_cls.__init__)
        hooks = [(layer, n) for layer, names in CALL_COUNTS.values()
                 for n in names]
        for layer, qualname in hooks + [("kernels", "parse_kernel"),
                                        ("vertexops", "verify_identity")]:
            if qualname not in self.calls:
                self.missing.append(f"{layer}.{qualname}")

    def _patch_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                setattr(cls, attr,
                        kind(self._wrap(layer, qualname, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(layer, qualname, raw))

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts and times by metric name."""
        out: dict[str, float] = {}
        for metric, (_layer, names) in CALL_COUNTS.items():
            out[metric] = sum(self.calls.get(n, 0) for n in names)
        out["scalar.nonmono_ctor"] = self.nonmono_ctor
        out["kernels.parse_failures"] = self.raised.get("parse_kernel", 0)
        out["vertexops.inverse_exp_distinct"] = len(self.inverse_exp_keys)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in LAW_NAMES:
            out[f"law.{name}_s"] = self.law_s.get(name, 0.0)
        for metric, (layer, attr) in CACHES.items():
            cache = getattr(sys.modules.get(f"qheis.{layer}"), attr, None)
            if cache is None:
                self.missing.append(f"{layer}.{attr}")
            out[metric] = len(cache) if cache is not None else 0
        return out
