"""Checkpoint persistence for the supervised monitoring pipeline.

A monitor that watches a facility for months must survive being killed —
host reboots, deploys, OOM — without losing its accumulated view: CUSUM
baselines and open segments, the regime tracker's debounce state, open
rollup windows, advisor dedup state, metrics and the full alert history.
Every stateful stage already exposes ``state_dict()`` /
``load_state_dict()``; this module is the file format around them.

A checkpoint (version 4) is one :mod:`repro.framing` frame with magic
``b"RMONCKPT"`` and the JSON header ``{"version": 4, "payload": …}``.
Every ``bytes`` value in the payload — each rollup's quantile-sketch
``pending`` and ``summary`` arrays of little-endian float64 — is stored
raw in the body and referenced from the header as
``{"$section": [offset, length]}``. Python's ``json`` round-trips
IEEE-754 doubles exactly and writes NaN/±inf natively, so a restored
pipeline is *bit-identical* to the one that wrote the file — the
kill-and-resume tests assert exact equality of segment means and alert
sequences, not approximate agreement. Writes are atomic
(:func:`repro.framing.atomic_write`); a file that fails any check on read
— torn, bit-flipped, forged or an older JSON checkpoint — raises a
:class:`~repro.errors.CheckpointError` naming the file and the check,
never a raw Python error.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from ..core.regimes import OptimisationTarget, Regime
from ..errors import CheckpointError
from ..framing import atomic_write, frame, unframe
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
    "alert_to_dict",
    "alert_from_dict",
    "save_checkpoint",
    "load_checkpoint",
]

#: Bump on any incompatible change to the checkpoint payload layout.
#: v2: WindowedRollup snapshots a MergingQuantileSketch ("sketch") in
#: place of the former per-quantile P² marker list ("quantiles").
#: v3: the sketch's "pending" and "summary" arrays are base64 strings of
#: little-endian float64 in place of JSON float lists.
#: v4: one checksummed frame; ``bytes`` values are raw body sections.
CHECKPOINT_VERSION = 4

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


def save_checkpoint(path: str | Path, payload: dict) -> None:
    """Write a checkpoint atomically (unique temp file, then rename).

    The version header is added here; ``payload`` is whatever the
    supervisor's ``checkpoint()`` assembled: JSON values plus ``bytes``,
    which are stored raw as body sections. Raises
    :class:`~repro.errors.CheckpointError` if the payload cannot be
    serialised or the file cannot be written; a failed write leaves any
    previous checkpoint at ``path`` untouched and no temp file behind.
    """
    path = Path(path)
    sections: list[bytes] = []
    offset = 0

    def section(value):
        nonlocal offset
        if not isinstance(value, bytes):
            raise TypeError(f"{type(value).__name__} values cannot be stored")
        sections.append(value)
        offset += len(value)
        return {_SECTION: [offset - len(value), len(value)]}

    document = {"version": CHECKPOINT_VERSION, "payload": payload}
    try:
        header = json.dumps(document, separators=(",", ":"), default=section)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint payload is not serialisable: {exc}") from exc
    try:
        atomic_write(path, frame(_MAGIC, header, sections))
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`; returns the payload.

    Raises :class:`~repro.errors.CheckpointError` naming the file and the
    failed check on a missing/unreadable file, a wrong magic or checksum,
    a malformed header, a version this code does not read, or a section
    reference outside the body.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header, body = unframe(data, _MAGIC)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not a readable version-{CHECKPOINT_VERSION} "
            f"checkpoint: {exc}"
        ) from exc

    def section(obj: dict):
        if _SECTION not in obj:
            return obj
        offset, length = obj[_SECTION]
        if not 0 <= offset <= offset + length <= len(body):
            raise ValueError(f"section {obj[_SECTION]} runs past the {len(body)}-byte body")
        return bytes(body[offset : offset + length])

    try:
        document = json.loads(header, object_hook=section)
    except (TypeError, ValueError) as exc:
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
    return payload
