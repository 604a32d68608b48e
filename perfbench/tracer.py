"""Per-layer tracing of flagstrata from outside the package.

Every public function and every public method of a public class in each
``flagstrata`` module is replaced, in every module namespace that holds it, by
a wrapper that keeps an aggregate span per function: call count, inclusive
time, and self time (its time minus the time of the spans it caused).  A
layer is a module; its self time is the sum of its functions' self times.

Names are discovered at install time, so a function that is renamed or
removed simply has no span, and any metric built on it is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

PACKAGE = "flagstrata"

# Dunder methods that do arithmetic or construction; the comparison, hash and
# repr protocol methods are left unwrapped.
WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__sub__", "__mul__", "__neg__"}


class Stat:
    __slots__ = ("layer", "calls", "total_s", "self_s", "active")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Aggregate spans keyed by ``module.name`` or ``module.Class.name``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}
        self.results: dict[str, list] = {}
        self.layers: list[str] = []
        self._stack: list[float] = []
        self._hooks: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def on_result(self, key: str, hook) -> None:
        """Call ``hook(result)`` on every return of ``key``; keep its values."""
        self._hooks[key] = hook

    def install(self) -> None:
        """Wrap every public function and method of every package module."""
        pkg = importlib.import_module(PACKAGE)
        modules = {}
        for info in pkgutil.iter_modules(pkg.__path__):
            modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
        self.layers = sorted(modules)
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif _traceable(obj):
                    key = f"{layer}.{name}"
                    wrappers[id(obj)] = self._wrap(key, layer, obj)
        # Rebind every public name, including re-imports such as
        # ``schur.weakly_decreasing`` and the package-level exports.
        for namespace in [pkg, *modules.values()]:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    setattr(namespace, name, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(key, layer, attr.__func__)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self._wrap(key, layer, attr.fget), attr.fset, attr.fdel))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(key, layer, attr))

    def _wrap(self, key: str, layer: str, fn):
        stat = self.stats[key] = Stat(layer)
        self.originals[key] = fn
        stack = self._stack  # child time accumulated by each open span
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        hook = self._hooks.get(key)
        if hook is not None:
            values = self.results.setdefault(key, [])

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens as it is resumed, so each resume is
            # timed as a span of its own layer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    stat.active += 1
                    push(0.0)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - t0
                        stat.active -= 1
                        stat.self_s += elapsed - pop()
                        if not stat.active:
                            stat.total_s += elapsed
                        if stack:
                            stack[-1] += elapsed
                    yield value

            return gen_wrapper

        # The span bookkeeping is written out in each wrapper, not factored
        # into helpers, because every extra call here is tracing overhead.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            push(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.active -= 1
                stat.self_s += elapsed - pop()
                if not stat.active:
                    stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                # A result of another shape after a refactor makes the
                # metric absent instead of failing the call.
                try:
                    values.append(hook(result))
                except (AttributeError, TypeError, IndexError, ValueError):
                    values.append(None)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in self.layers}
        for stat in self.stats.values():
            out[stat.layer] += stat.self_s
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in self.layers}
        for stat in self.stats.values():
            out[stat.layer] += stat.calls
        return out

    def cache_info(self, key: str):
        fn = self.originals.get(key)
        info = getattr(fn, "cache_info", None)
        return info() if info is not None else None


def _traceable(obj) -> bool:
    # lru_cache wrappers are not plain functions but carry ``cache_info``.
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))
