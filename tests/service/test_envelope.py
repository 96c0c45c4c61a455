"""Envelope contract: versioning, content keys, structured error codes."""

import json

import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    SchedulingError,
    ServiceError,
)
from repro.service.envelope import (
    METHODS,
    PROTOCOL_VERSION,
    ServiceRequest,
    ServiceResponse,
    error_code,
)


class TestServiceRequest:
    def test_request_key_is_content_addressed(self):
        a = ServiceRequest("emissions", {"n_nodes": 100})
        b = ServiceRequest("emissions", {"n_nodes": 100})
        c = ServiceRequest("emissions", {"n_nodes": 101})
        assert a.request_key == b.request_key
        assert a.request_key != c.request_key

    def test_request_key_ignores_tenant(self):
        """Identical questions from different tenants must coalesce."""
        a = ServiceRequest("emissions", {"n_nodes": 100}, tenant="alpha")
        b = ServiceRequest("emissions", {"n_nodes": 100}, tenant="beta")
        assert a.request_key == b.request_key

    def test_wire_round_trip(self):
        original = ServiceRequest("sweep", {"chunk_size": 64}, tenant="t1")
        parsed = ServiceRequest.from_wire(original.to_wire())
        assert parsed == original
        assert parsed.request_key == original.request_key

    def test_wrong_version_is_a_structured_error(self):
        with pytest.raises(ServiceError) as err:
            ServiceRequest.from_wire({"v": 2, "method": "emissions"})
        assert err.value.code == "unsupported-version"

    def test_malformed_envelopes_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRequest.from_wire("not a mapping")
        with pytest.raises(ServiceError):
            ServiceRequest.from_wire({"v": PROTOCOL_VERSION})  # no method
        with pytest.raises(ServiceError):
            ServiceRequest(method="", params={})
        with pytest.raises(ServiceError):
            ServiceRequest(method="emissions", params={}, tenant="")

    def test_methods_cover_the_session_surface(self):
        assert METHODS == (
            "emissions",
            "classify_regime",
            "efficiency",
            "advise",
            "sweep",
            "sched_compare",
        )


class TestErrorCodes:
    def test_library_errors_map_to_structured_codes(self):
        assert error_code(ConfigurationError("x")) == "bad-request"
        assert error_code(SchedulingError("x")) == "scheduling-error"
        assert error_code(RuntimeError("x")) == "internal-error"

    def test_service_errors_carry_their_own_code(self):
        assert error_code(ServiceError("x", code="unknown-method")) == "unknown-method"
        assert error_code(AdmissionError("x", code="rate-limited")) == "rate-limited"

    def test_admission_error_defaults_overloaded(self):
        assert AdmissionError("x").code == "overloaded"


class TestServiceResponse:
    def test_envelope_shape_success(self):
        response = ServiceResponse.success({"answer": 1}, request_key="ab" * 32)
        assert response.to_dict() == {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "result": {"answer": 1},
        }

    def test_envelope_shape_failure_with_retry_hint(self):
        exc = AdmissionError("slow down", code="rate-limited", retry_after_s=2.5)
        response = ServiceResponse.failure(exc)
        envelope = response.to_dict()
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "rate-limited"
        assert envelope["error"]["type"] == "AdmissionError"
        assert envelope["error"]["retry_after_s"] == 2.5

    def test_result_xor_error_enforced(self):
        with pytest.raises(ServiceError):
            ServiceResponse(ok=True, result=None, error=None)
        with pytest.raises(ServiceError):
            ServiceResponse(ok=False, result={"x": 1}, error=None)
        with pytest.raises(ServiceError):
            ServiceResponse(ok=True, result={"x": 1}, error={"code": "boom"})

    def test_wire_json_is_canonical(self):
        response = ServiceResponse.success({"b": 2, "a": 1})
        wire = response.wire_json()
        assert wire == json.dumps(
            json.loads(wire), sort_keys=True, separators=(",", ":")
        )
        assert wire.index('"a"') < wire.index('"b"')


    def test_wire_json_is_strict(self):
        """RFC 8259 has no NaN or infinity: a payload holding one is refused
        at encoding, never put on the wire."""
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                ServiceResponse.success({"x": value}).wire_json()

    def test_request_key_exists_for_non_finite_params(self):
        """In process, params may hold NaN; the key exists so the router can
        refuse the request by name."""
        assert ServiceRequest("classify_regime", {"at_ci_g_per_kwh": float("nan")}).request_key
