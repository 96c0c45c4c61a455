"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces public layer functions (methods, classmethods,
properties, async methods, module functions, instance attributes) with
timing wrappers and puts every original back on :meth:`Tracer.restore`.
Nothing under ``src/`` is edited: the wrappers live only for the traced
phase of a benchmark run.

Spans nest per execution context (a ``ContextVar`` holds the open span), so
concurrent asyncio tasks never charge each other's time. A layer's *self*
time is its span duration minus the part covered by its child spans. Async
spans include the time their task spent suspended, so the self time of an
async layer is the time it spent waiting on the event loop.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["LayerStats", "Tracer", "count_hits"]

#: Child-time accumulator of the innermost open span in this context.
_OPEN_SPAN: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "perfbench_open_span", default=None
)


def count_hits(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """``on_result`` hook for lookups: a ``None`` result is a miss."""
    tracer.add(name, "hits" if result is not None else "misses", 1)


@dataclass
class LayerStats:
    """Aggregate of every span recorded under one layer name."""

    count: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    #: Extra per-layer quantities (samples, bytes, hits, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Individual span durations, kept only for layers asked to keep them.
    durations_s: list[float] | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "count": self.count,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
        }
        out.update(self.extra)
        return out


class Tracer:
    """Wraps layer entry points with timing spans; restores them afterwards."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        """The stats of one layer, created empty on first use."""
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def add(self, name: str, key: str, amount: float) -> None:
        """Add ``amount`` to an extra quantity of one layer."""
        extra = self.layer(name).extra
        extra[key] = extra.get(key, 0) + amount

    def _close(self, name: str, duration_s: float, child_s: float, keep: bool) -> None:
        stats = self.layer(name)
        stats.count += 1
        stats.busy_s += duration_s
        stats.self_s += duration_s - child_s
        if keep:
            if stats.durations_s is None:
                stats.durations_s = []
            stats.durations_s.append(duration_s)

    # -- wrapping ----------------------------------------------------------

    def _timed(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        on_result: Callable[..., None] | None,
        keep: bool,
    ) -> Callable:
        clock = self.clock
        namer = name if callable(name) else None

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                key = namer(*args, **kwargs) if namer else name
                frame = [0.0]
                parent = _OPEN_SPAN.get()
                token = _OPEN_SPAN.set(frame)
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    duration = clock() - t0
                    _OPEN_SPAN.reset(token)
                    if parent is not None:
                        parent[0] += duration
                    self._close(key, duration, frame[0], keep)
                if on_result is not None:
                    on_result(self, key, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = namer(*args, **kwargs) if namer else name
            frame = [0.0]
            parent = _OPEN_SPAN.get()
            token = _OPEN_SPAN.set(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                _OPEN_SPAN.reset(token)
                if parent is not None:
                    parent[0] += duration
                self._close(key, duration, frame[0], keep)
            if on_result is not None:
                on_result(self, key, args, kwargs, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        *,
        on_result: Callable[..., None] | None = None,
        keep_durations: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper recorded as ``name``.

        ``owner`` is a class (the attribute must be defined on it, not
        inherited), a module, or an instance whose ``__dict__`` holds the
        attribute. ``name`` may be a callable of the call's arguments, to
        split one entry point into several layers. ``on_result(tracer, name,
        args, kwargs, result)`` runs after the span closes.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__}.{attr} is not defined on the class itself")
            raw = owner.__dict__[attr]
        elif isinstance(owner, types.ModuleType) or attr in vars(owner):
            raw = getattr(owner, attr)
        else:
            raise AttributeError(f"{owner!r} has no own attribute {attr!r}")

        if isinstance(raw, property):
            patched: Any = property(
                self._timed(raw.fget, name, on_result, keep_durations), raw.fset, raw.fdel, raw.__doc__
            )
        elif isinstance(raw, classmethod):
            patched = classmethod(self._timed(raw.__func__, name, on_result, keep_durations))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._timed(raw.__func__, name, on_result, keep_durations))
        elif callable(raw):
            patched = self._timed(raw, name, on_result, keep_durations)
        else:
            raise TypeError(f"cannot trace non-callable {attr!r}")
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def wrap_iterable(self, iterable, name: str, *, count_key: str = "items"):
        """A generator over ``iterable`` timing each ``next()`` as one span."""
        iterator = iter(iterable)
        clock = self.clock
        stats = self.layer(name)
        while True:
            parent = _OPEN_SPAN.get()
            t0 = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                duration = clock() - t0
                if parent is not None:
                    parent[0] += duration
            stats.busy_s += duration
            stats.self_s += duration
            stats.count += 1
            stats.extra[count_key] = stats.extra.get(count_key, 0) + 1
            yield item

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- export ------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Every layer's count, busy and self time plus extras, by name."""
        return {name: self.layers[name].to_dict() for name in sorted(self.layers)}
