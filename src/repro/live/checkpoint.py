"""Checkpoint persistence for the supervised monitoring pipeline.

A monitor that watches a facility for months must survive being killed —
host reboots, deploys, OOM — without losing its accumulated view: CUSUM
baselines and open segments, the regime tracker's debounce state, open
rollup windows, advisor dedup state, metrics and the full alert history.
Every stateful stage already exposes ``state_dict()`` /
``load_state_dict()``; this module is the file format around them.

Checkpoints are JSON: Python's ``json`` round-trips IEEE-754 doubles
exactly (``repr`` shortest-round-trip) and serialises NaN/±inf natively.
The one bulk state — each rollup's quantile-sketch ``pending`` and
``summary`` arrays, up to 16,384 floats — is packed as base64 of
little-endian float64 rather than a list of floats, which is exact by
construction and avoids a ``repr`` per float. Either way a restored
pipeline is *bit-identical* to the one that wrote the file — the
kill-and-resume tests assert exact equality of segment means and alert
sequences, not approximate agreement. Writes are atomic (temp file +
``os.replace``) so a crash mid-write can never leave a truncated
checkpoint where a good one used to be; a file torn some other way fails
to load with a :class:`~repro.errors.CheckpointError`, never a raw
Python error.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from ..core.regimes import OptimisationTarget, Regime
from ..errors import CheckpointError
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
CHECKPOINT_VERSION = 3

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
    """Write a checkpoint atomically (temp file in place, then rename).

    The version header is added here; ``payload`` is whatever the
    supervisor's ``checkpoint()`` assembled. Raises
    :class:`~repro.errors.CheckpointError` if the payload cannot be
    serialised or the file cannot be written.
    """
    path = Path(path)
    document = {"version": CHECKPOINT_VERSION, "payload": payload}
    try:
        text = json.dumps(document)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint payload is not serialisable: {exc}") from exc
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`; returns the payload.

    Raises :class:`~repro.errors.CheckpointError` on a missing/unreadable
    file, malformed JSON, or a version this code does not understand.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
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
