"""repro.lint — AST-based contract checker for the repro codebase itself.

The paper's methodology only holds if the numbers do: mixing kW with kWh
corrupts the §2 scope-2/scope-3 split, hidden wall-clock or RNG reads break
the bit-identical checkpoint-resume and cache-replay guarantees, and an
asymmetric ``state_dict`` breaks resume outright.  This package enforces
those contracts mechanically at lint time, over the repo's own source,
with a pluggable checker registry:

========  ==============  ====================================================
code      checker         contract
========  ==============  ====================================================
REP101    units           identifier unit suffixes match the canonical
                          registry derived from :mod:`repro.units`
REP102    units           +, − and comparisons never mix incompatible units
REP201    determinism     no wall-clock reads outside entry points
REP202    determinism     no unseeded / global RNG
REP301    float-equality  no ``==``/``!=`` on floats outside annotated
                          exact sentinels (``# lint: exact-float``)
REP401    state-dict      ``state_dict`` ⇄ ``load_state_dict`` symmetry
REP402    state-dict      written and read state keys agree
REP501    public-api      every ``__all__`` name resolves
REP502    public-api      ``repro/__init__`` and the contract test agree
========  ==============  ====================================================

Run it as ``repro lint [PATH ...]`` or from Python::

    from repro.lint import run_lint

    report = run_lint(["src/repro"])
    assert report.exit_code == 0, report.to_dict()

A finding is accepted only by a justified in-source ``# lint:``
annotation on its line, and a unit is stated only by an identifier's name
suffix.  See ``docs/contributing.md`` for the annotation syntax.
"""

from __future__ import annotations

from .annotations import ALIASES, parse_suppressions
from .engine import LintReport, collect_files, run_lint
from .findings import Finding
from .registry import REGISTRY, Checker, all_codes, register
from .unitspec import DIMENSIONS, suffix_of

__all__ = [
    "ALIASES",
    "Checker",
    "DIMENSIONS",
    "Finding",
    "LintReport",
    "REGISTRY",
    "all_codes",
    "collect_files",
    "parse_suppressions",
    "register",
    "run_lint",
    "suffix_of",
]
