"""Every ``KEPT`` entry of ``tools/reach.py`` names a function that exists.

``tools/reach.py`` traces the system's commands (the CI ``reach`` job runs
it, several minutes) and fails on an unreached function missing from its
``KEPT`` table, and on a ``KEPT`` entry that names no function. Here the
table is checked by AST alone, with no tracing: a deletion that leaves its
entry behind fails tier-1, and the audit itself runs on a made-up trace.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach_tool", _TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_kept_entry_names_a_def():
    defined = {key for key, _, _, _ in reach.defined_functions()}
    assert sorted(set(reach.KEPT) - defined) == []


def test_every_kept_entry_gives_a_reason():
    assert all(isinstance(reason, str) and reason for reason in reach.KEPT.values())


def test_a_kept_entry_naming_no_function_fails_the_audit(monkeypatch, capsys):
    reached = {
        (str(path), node.lineno)
        for key, node, _, path in reach.defined_functions()
        if key not in reach.KEPT
    }
    monkeypatch.setattr(reach, "trace_commands", lambda: reached)
    assert reach.main([]) == 0
    stale = "live/pipeline.py::MonitorPipeline._admit"
    monkeypatch.setitem(reach.KEPT, stale, "a deleted function's entry")
    assert reach.audit(reached)[4] == [stale]
    capsys.readouterr()
    assert reach.main([]) == 1
    assert stale in capsys.readouterr().out
