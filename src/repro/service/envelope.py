"""Versioned request/response envelopes and structured error codes.

Every service exchange — in-process or over the HTTP front — is a pair of
JSON-able envelopes:

* request: ``{"v": 1, "method": ..., "params": {...}, "tenant": ...}``
* response: ``{"v": 1, "ok": true, "result": {...}}`` or
  ``{"v": 1, "ok": false, "error": {"code": ..., "type": ..., "message": ...}}``

Exceptions from :mod:`repro.errors` map to *structured codes* (a
``ConfigurationError`` becomes ``"bad-request"``, admission refusals
``"rate-limited"``/``"overloaded"``…) instead of stringified tracebacks, so
clients can branch on ``error["code"]`` without parsing prose.

:meth:`ServiceResponse.wire_json` is canonical (sorted keys, compact
separators), which is what makes the service-vs-session byte-identity gate
in ``benchmarks/bench_service.py`` meaningful.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import (
    AnalysisError,
    CalibrationError,
    CheckpointError,
    ConfigurationError,
    ExperimentError,
    HpcemError,
    MonitoringError,
    SchedulingError,
    ServiceError,
    TelemetryError,
    UnitError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "METHODS",
    "error_code",
    "ServiceRequest",
    "ServiceResponse",
]

#: Version of the request/response envelope semantics. Bumping it is a
#: breaking wire change; responses always echo the version they speak.
PROTOCOL_VERSION = 1

#: The routable methods, mirroring the FacilitySession surface plus the
#: scheduler comparison ("sched compare" on the CLI).
METHODS = (
    "emissions",
    "classify_regime",
    "efficiency",
    "advise",
    "sweep",
    "sched_compare",
)

#: Exception class → structured error code, most specific first.
_ERROR_CODES: tuple[tuple[type[Exception], str], ...] = (
    (ConfigurationError, "bad-request"),
    (UnitError, "bad-request"),
    (AnalysisError, "bad-request"),
    (CalibrationError, "calibration-error"),
    (SchedulingError, "scheduling-error"),
    (TelemetryError, "telemetry-error"),
    (CheckpointError, "checkpoint-error"),
    (MonitoringError, "monitoring-error"),
    (ExperimentError, "experiment-error"),
    (HpcemError, "service-error"),
)


def error_code(exc: BaseException) -> str:
    """The structured code one exception maps to.

    ``ServiceError`` (and its admission subclasses) carry their own code;
    other library errors map by class; anything else is ``internal-error``.
    """
    if isinstance(exc, ServiceError):
        return exc.code
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return "internal-error"


def _canonical_json(data: object, allow_nan: bool = False) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)


@dataclass(frozen=True)
class ServiceRequest:
    """One routed call: a method name plus its JSON-able params.

    ``request_key`` is the SHA-256 of the canonical ``(v, method, params)``
    form — deliberately *excluding* the tenant, so identical questions from
    different tenants coalesce into one computation.
    """

    method: str
    params: Mapping = field(default_factory=dict)
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise ServiceError(
                f"method must be a non-empty string, got {self.method!r}"
            )
        if not isinstance(self.params, Mapping):
            raise ServiceError(f"params must be a mapping, got {self.params!r}")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ServiceError(
                f"tenant must be a non-empty string, got {self.tenant!r}"
            )
        object.__setattr__(self, "params", dict(self.params))

    @property
    def request_key(self) -> str:
        """Content address of the question (tenant-independent)."""
        # Params built in process may hold NaN or ±inf, which the router
        # refuses by name; the key only has to exist until then.
        payload = _canonical_json(
            {"v": PROTOCOL_VERSION, "method": self.method, "params": self.params},
            allow_nan=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_wire(self) -> dict:
        """The versioned JSON-able request envelope."""
        return {
            "v": PROTOCOL_VERSION,
            "method": self.method,
            "params": dict(self.params),
            "tenant": self.tenant,
        }

    @classmethod
    def from_wire(cls, data: object) -> "ServiceRequest":
        """Parse and validate a request envelope (raises ``ServiceError``)."""
        if not isinstance(data, Mapping):
            raise ServiceError(f"request envelope must be a mapping, got {data!r}")
        version = data.get("v")
        if version != PROTOCOL_VERSION:
            raise ServiceError(
                f"unsupported envelope version {version!r}; this service "
                f"speaks v{PROTOCOL_VERSION}",
                code="unsupported-version",
            )
        if "method" not in data:
            raise ServiceError("request envelope is missing 'method'")
        return cls(
            method=data["method"],
            params=data.get("params", {}),
            tenant=data.get("tenant", "default"),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """One answered request, in the versioned ``ok/result|error`` envelope;
    ``to_dict`` *is* the envelope."""

    ok: bool
    result: dict | None = None
    error: dict | None = None
    request_key: str = ""
    #: Provenance, never part of the envelope: "computed", "coalesced".
    served_by: str = "computed"

    def __post_init__(self) -> None:
        if self.ok == (self.error is not None) or self.ok != (self.result is not None):
            raise ServiceError(
                "a response carries exactly one of result (ok) or error (not ok)"
            )

    @classmethod
    def success(
        cls, result: dict, *, request_key: str = "", served_by: str = "computed"
    ) -> "ServiceResponse":
        """An ``ok`` envelope around one JSON-able result payload."""
        return cls(
            ok=True, result=result, request_key=request_key, served_by=served_by
        )

    @classmethod
    def failure(
        cls, exc: BaseException, *, request_key: str = ""
    ) -> "ServiceResponse":
        """A structured error envelope for one exception."""
        error: dict = {
            "code": error_code(exc),
            "type": type(exc).__name__,
            "message": str(exc),
        }
        retry = getattr(exc, "retry_after_s", None)
        if retry is not None:
            error["retry_after_s"] = float(retry)
        return cls(ok=False, error=error, request_key=request_key)

    def to_dict(self) -> dict:
        """The versioned JSON envelope: ``v``, ``ok``, ``result`` | ``error``."""
        envelope: dict = {"v": PROTOCOL_VERSION, "ok": self.ok}
        if self.ok:
            envelope["result"] = self.result
        else:
            envelope["error"] = self.error
        return envelope

    def wire_json(self) -> str:
        """Canonical JSON of the envelope (sorted keys, compact separators)."""
        return _canonical_json(self.to_dict())

