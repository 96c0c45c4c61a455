"""One ledger: counters that snapshot, restore and check their identities.

A :class:`Ledger` subclass is a dataclass that declares fields only. Each
field's declared default tells its kind: ``field(default_factory=Counter)``
is a keyed counter (str keys, non-negative int counts),
``field(default_factory=list)`` a list of names, and any other default a
scalar — a count, or any number when the default is a ``float``.
``IDENTITIES`` declares ``(total, parts)`` pairs of counter names, each
meaning ``total == sum(parts)`` for every key in the union of their keys.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import Field, dataclass, fields
from typing import ClassVar

__all__ = ["Ledger"]


def _count(name: str, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"ledger field {name!r}: expected an int count, got {value!r}")
    if value < 0:
        raise ValueError(f"ledger field {name!r}: negative count {value}")
    return value


def _restored(f: Field, value: object) -> object:
    """``value`` checked against the kind of field ``f`` declares."""
    if f.default_factory is Counter:
        if not isinstance(value, Mapping) or not all(isinstance(k, str) for k in value):
            raise TypeError(f"ledger field {f.name!r}: expected a str-keyed mapping, got {value!r}")
        return Counter({key: _count(f"{f.name}[{key!r}]", n) for key, n in value.items()})
    if f.default_factory is list:
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise TypeError(f"ledger field {f.name!r}: expected a list of str, got {value!r}")
        return list(value)
    if isinstance(f.default, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"ledger field {f.name!r}: expected a number, got {value!r}")
        return value
    return _count(f.name, value)


def _plain(value: object) -> object:
    """A counter as a plain ``dict``, a list copied, a scalar as it is."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    return value


@dataclass
class Ledger:
    """Base of every counter record; subclasses declare fields only."""

    IDENTITIES: ClassVar[tuple[tuple[str, tuple[str, ...]], ...]] = ()

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every field, in declaration order."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def load_state_dict(self, state: dict) -> None:
        """Overwrite every field in place from a :meth:`state_dict` snapshot.

        A value of the wrong kind raises ``TypeError`` or ``ValueError``
        naming its field, and the ledger is left unchanged.
        """
        restored = {f.name: _restored(f, state[f.name]) for f in fields(self)}
        for name, value in restored.items():
            setattr(self, name, value)

    def reconciles(self) -> bool:
        """Whether every declared identity holds for every key it touches."""
        for total, parts in self.IDENTITIES:
            whole = getattr(self, total)
            counters = [getattr(self, part) for part in parts]
            if any(
                whole[key] != sum(counter[key] for counter in counters)
                for key in set(whole).union(*counters)
            ):
                return False
        return True
