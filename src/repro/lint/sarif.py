"""SARIF 2.1.0 rendering of a lint report.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/>`_ is the exchange
format GitHub code scanning ingests: uploading ``repro lint --format sarif``
output annotates the offending lines directly on the pull request.  The
rendering is minimal but valid — one run, one driver, one rule per REP code,
one result per finding.  Parse errors ride along as ``REP000`` errors so a
broken file cannot silently produce an empty report.  No fingerprints are
emitted: the uploader computes its own to track a result across commits.
"""

from __future__ import annotations

from .engine import LintReport
from .findings import Finding
from .registry import all_codes

__all__ = ["to_sarif"]

_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_PARSE_ERROR_CODE = "REP000"


def _result(finding: Finding) -> dict:
    return {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
    }


def to_sarif(report: LintReport) -> dict:
    """The SARIF payload for one lint run (stable ordering throughout)."""
    rules = {_PARSE_ERROR_CODE: "file does not parse"}
    rules.update(all_codes())
    results = [_result(f) for f in [*report.parse_errors, *report.findings]]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {"text": description},
                            }
                            for code, description in sorted(rules.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
