"""Per-layer tracing by wrapping the program's public functions from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces each
target function with a timing wrapper in every ``superstar`` module that holds
it, because modules bind names at import (``starprod`` imports
``ep_integrate_partial``, ``ep_mul`` and ``eps``; ``verify`` keeps its suites in
the ``_SUITES`` table).  Methods are replaced on their class.  ``uninstall``
puts every original back.

Each wrapper keeps calls, inclusive seconds (outermost activation only, so
recursion is not counted twice) and self seconds (inclusive minus the time in
wrapped children).  The wrapper's own bookkeeping lands in nobody's self time;
it is estimated by :meth:`Tracer.calibrate` and reported as overhead.
"""

from __future__ import annotations

import sys
from time import perf_counter


class Layer:
    __slots__ = ("calls", "s", "self_s", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counts: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)


class Tracer:
    """Timing wrappers keyed by layer name (``module.function``)."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._stack: list[list[float]] = []
        self._undo: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Return a timing wrapper for ``fn``.

        ``before(args, kwargs)`` returns a state handed to
        ``after(layer, state, result)``; both run outside the timed interval.
        """
        layer = self.layers.setdefault(name, Layer())
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            state = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            layer.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                layer.depth -= 1
                layer.calls += 1
                layer.self_s += dt - frame[0]
                if layer.depth == 0:
                    layer.s += dt
            if after is not None:
                after(layer, state, result)
            if stack:
                stack[-1][0] += perf_counter() - t_enter
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install_function(self, module, attr: str, name: str, before=None, after=None):
        """Wrap ``module.attr`` wherever a ``superstar`` module refers to it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "superstar" or mod_name.startswith("superstar.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is orig:
                    self._undo.append((setattr, mod, key, orig))
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append((dict.__setitem__, value, k, orig))
                            value[k] = wrapped
        return wrapped

    def install_method(self, cls, attr: str, name: str, before=None, after=None):
        orig = cls.__dict__[attr]
        self._undo.append((setattr, cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig, before, after))

    def uninstall(self) -> None:
        while self._undo:
            op, owner, key, orig = self._undo.pop()
            op(owner, key, orig)

    def wrapped_calls(self) -> int:
        return sum(layer.calls for layer in self.layers.values())


def calibrate(n: int = 20000) -> float:
    """Seconds one wrapper adds to one call, measured on a no-op function."""

    def noop(*args):
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    probe._stack.append([0.0])  # calls inside a parent span, as in a traced pass
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        for i in range(n):
            noop(i)
        bare = perf_counter() - t0
        t0 = perf_counter()
        for i in range(n):
            wrapped(i)
        traced = perf_counter() - t0
        best = min(best, (traced - bare) / n)
    return max(best, 0.0)
