"""Checkpoint persistence for the supervised monitoring pipeline.

A monitor that watches a facility for months must survive being killed —
host reboots, deploys, OOM — without losing its accumulated view: CUSUM
baselines and open segments, the regime tracker's debounce state, open
rollup windows, advisor dedup state, metrics and the full alert history.
Every stateful stage already exposes ``state_dict()`` /
``load_state_dict()``; this module is the file format around them.

A checkpoint (version 5) is one :mod:`repro.framing` frame with magic
``b"RMONCKPT"`` and the JSON header ``{"version": 5, "sequence": n,
"payload": …}``. Every ``bytes`` value in the payload — each rollup's
quantile-sketch ``pending`` and ``summary`` arrays of little-endian
float64, and the alert history as one JSON array — is stored raw in the
body and referenced from the header as ``{"$section": [offset, length]}``.
Python's ``json`` round-trips IEEE-754 doubles exactly and writes
NaN/±inf natively, so a restored pipeline is *bit-identical* to the one
that wrote the file — the kill-and-resume tests assert exact equality of
segment means and alert sequences, not approximate agreement.

A checkpoint path ``P`` names two slot files, ``P`` and ``P.1``.
Checkpoint *n* of a run is written over ``P`` when *n* is odd and over
``P.1`` when it is even, in place (:func:`repro.framing.write_in_place`:
no temp file, no rename), so a killed or failed write can tear only the
slot holding the older checkpoint. Checkpoint 1 removes ``P.1`` first, so
a slot left by an older run cannot outrank it. A read loads the slot with
the higher sequence number among those that pass every check; a slot
that fails any check — torn, bit-flipped, forged or an older version —
is refused with a :class:`~repro.errors.CheckpointError` naming the file
and the check, never a raw Python error, and the other slot is used.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from ..core.regimes import OptimisationTarget, Regime
from ..errors import CheckpointError
from ..framing import frame, read_frame, write_in_place
from .alerts import (
    AdviceAlert,
    Alert,
    ChangePointAlert,
    DataGapAlert,
    DeadLetterAlert,
    DegradedModeAlert,
    ProcessorCrashAlert,
    Recommendation,
    RegimeChangeAlert,
    RollupAlert,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "LoadedCheckpoint",
    "alert_to_dict",
    "alert_from_dict",
    "checkpoint_slots",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint",
]

#: Bump on any incompatible change to the checkpoint payload layout.
#: v2: WindowedRollup snapshots a MergingQuantileSketch ("sketch") in
#: place of the former per-quantile P² marker list ("quantiles").
#: v3: the sketch's "pending" and "summary" arrays are base64 strings of
#: little-endian float64 in place of JSON float lists.
#: v4: one checksummed frame; ``bytes`` values are raw body sections.
#: v5: two slot files written in place; the header carries the
#: checkpoint's sequence number; the alert history is one body section.
CHECKPOINT_VERSION = 5

_MAGIC = b"RMONCKPT"
_SECTION = "$section"

_ALERT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        Alert,
        RollupAlert,
        ChangePointAlert,
        RegimeChangeAlert,
        AdviceAlert,
        DataGapAlert,
        ProcessorCrashAlert,
        DeadLetterAlert,
        DegradedModeAlert,
    )
}


def alert_to_dict(alert: Alert) -> dict:
    """Serialise any alert to a JSON-compatible dict with a type tag."""
    name = type(alert).__name__
    if name not in _ALERT_TYPES:
        raise CheckpointError(f"cannot serialise alert type {name!r}")
    out: dict = {"type": name}
    for field in dataclasses.fields(alert):
        value = getattr(alert, field.name)
        if isinstance(value, (Regime, OptimisationTarget)):
            value = value.value
        elif field.name == "recommendations":
            value = [dataclasses.asdict(r) for r in value]
        elif field.name in ("quantiles", "stale_streams"):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        elif value is not None and not isinstance(value, (int, float, str, bool)):
            raise CheckpointError(
                f"alert field {name}.{field.name} of type "
                f"{type(value).__name__} is not checkpointable"
            )
        out[field.name] = value
    return out


def alert_from_dict(payload: dict) -> Alert:
    """Rebuild an alert serialised by :func:`alert_to_dict`."""
    data = dict(payload)
    name = data.pop("type", None)
    cls = _ALERT_TYPES.get(name)
    if cls is None:
        raise CheckpointError(f"unknown alert type {name!r} in checkpoint")
    if cls is RegimeChangeAlert:
        data["previous"] = Regime(data["previous"]) if data["previous"] else None
        data["regime"] = Regime(data["regime"])
    elif cls is AdviceAlert:
        data["regime"] = Regime(data["regime"])
        data["target"] = OptimisationTarget(data["target"])
        data["recommendations"] = tuple(
            Recommendation(**r) for r in data["recommendations"]
        )
    elif cls is RollupAlert:
        data["quantiles"] = tuple(tuple(pair) for pair in data["quantiles"])
    elif cls is DegradedModeAlert:
        data["stale_streams"] = tuple(data["stale_streams"])
    try:
        return cls(**data)
    except TypeError as exc:
        raise CheckpointError(f"malformed {name} record in checkpoint: {exc}") from exc


def checkpoint_slots(path: str | Path) -> tuple[Path, Path]:
    """The two slot files of checkpoint path ``path``: ``path`` itself,
    which holds the odd-numbered checkpoints, and ``path.1``."""
    path = Path(path)
    return path, path.with_name(path.name + ".1")


def save_checkpoint(path: str | Path, payload: dict, sequence: int = 1) -> None:
    """Write checkpoint number ``sequence`` in place over its slot file.

    Odd numbers go to ``path`` and even ones to ``path.1`` (see
    :func:`checkpoint_slots`); checkpoint 1 removes ``path.1`` first. The
    header is added here; ``payload`` is whatever the supervisor's
    ``checkpoint()`` assembled: JSON values plus ``bytes``, which are
    stored raw as body sections. Raises
    :class:`~repro.errors.CheckpointError` if the payload cannot be
    serialised or the file cannot be written; a failed write can tear only
    the slot it was writing, and the other slot stays loadable.
    """
    sections: list[bytes] = []
    offset = 0

    def section(value):
        nonlocal offset
        if not isinstance(value, bytes):
            raise TypeError(f"{type(value).__name__} values cannot be stored")
        sections.append(value)
        offset += len(value)
        return {_SECTION: [offset - len(value), len(value)]}

    document = {"version": CHECKPOINT_VERSION, "sequence": sequence, "payload": payload}
    try:
        header = json.dumps(document, separators=(",", ":"), default=section)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint payload is not serialisable: {exc}") from exc
    odd, even = checkpoint_slots(path)
    target = odd if sequence % 2 else even
    try:
        if sequence == 1:
            even.unlink(missing_ok=True)
        write_in_place(target, frame(_MAGIC, header, sections))
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class LoadedCheckpoint:
    """What :func:`read_checkpoint` found: the payload of the newest slot
    that passed every check, that slot's file and sequence number, and the
    refusal of each other slot file that exists but failed a check."""

    payload: dict
    path: Path
    sequence: int
    refused: tuple[CheckpointError, ...] = ()


def read_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Read the newest valid slot of checkpoint path ``path``.

    Each slot file that exists is read with every check of one file (see
    :func:`_read_slot`). If no slot passes, raises the
    :class:`~repro.errors.CheckpointError` of the one slot file that
    exists (of ``path`` itself when neither does), or one naming each file
    and its failed check.
    """
    loaded: list[LoadedCheckpoint] = []
    errors: list[CheckpointError] = []
    for slot in checkpoint_slots(path):
        try:
            loaded.append(_read_slot(slot))
        except CheckpointError as exc:
            errors.append(exc)
    refused = tuple(e for e in errors if not isinstance(e.__cause__, FileNotFoundError))
    if loaded:
        # On equal sequence numbers ``path`` itself wins.
        return dataclasses.replace(max(loaded, key=lambda c: c.sequence), refused=refused)
    if len(refused) > 1:
        raise CheckpointError("no checkpoint slot is readable: " + "; ".join(map(str, refused)))
    raise (refused or errors)[0]


def load_checkpoint(path: str | Path) -> dict:
    """The payload of the newest valid slot of checkpoint path ``path``
    (see :func:`read_checkpoint`)."""
    return read_checkpoint(path).payload


def _read_slot(path: Path) -> LoadedCheckpoint:
    """One slot file's payload and sequence number.

    Raises :class:`~repro.errors.CheckpointError` naming the file and the
    failed check on a missing/unreadable file, a wrong magic or checksum,
    a malformed header, a version this code does not read, a missing
    payload or sequence number, or a section reference outside the body.
    """
    try:
        header, (data,) = read_frame(path, _MAGIC, lambda _, length: [bytearray(length)])
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not a readable version-{CHECKPOINT_VERSION} "
            f"checkpoint: {exc}"
        ) from exc
    body = memoryview(data)

    def section(obj: dict):
        if _SECTION not in obj:
            return obj
        offset, length = obj[_SECTION]
        if not 0 <= offset <= offset + length <= len(body):
            raise ValueError(f"section {obj[_SECTION]} runs past the {len(body)}-byte body")
        return bytes(body[offset : offset + length])

    try:
        document = json.loads(header, object_hook=section)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint {path} has a malformed header: {exc}") from exc
    if not isinstance(document, dict) or "version" not in document:
        raise CheckpointError(f"checkpoint {path} has no version header")
    version = document["version"]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} has no payload")
    sequence = document.get("sequence")
    if type(sequence) is not int or sequence < 1:
        raise CheckpointError(f"checkpoint {path} has no sequence number")
    return LoadedCheckpoint(payload, path, sequence)
