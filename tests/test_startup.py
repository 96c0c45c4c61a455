"""Start-up contract: a command loads only the subsystem it runs.

Each check runs in a fresh interpreter, because this process's
``sys.modules`` already holds whatever earlier tests imported.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
HEAVY = ("numpy", "scipy", "networkx")

PROBE = """\
import contextlib, io, json, sys
{code}
print(json.dumps([m for m in {heavy!r} if m in sys.modules]))
"""


def heavy_loaded_by(code: str) -> set[str]:
    """The heavy libraries a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code, heavy=HEAVY)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli(*argv: str) -> str:
    """Probe code that runs ``repro ARGV`` with its output swallowed."""
    return (
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        main({list(argv)!r})\n"
        "    except SystemExit:\n"
        "        pass"
    )


@pytest.mark.parametrize(
    "code, forbidden",
    [
        ("import repro", HEAVY),
        (cli("lint", "--help"), ("numpy",)),
        (cli("run", "--list"), ("scipy", "networkx")),
        (cli("sched", "--help"), ("scipy", "networkx")),
    ],
    ids=["import-repro", "lint-help", "run-list", "sched-help"],
)
def test_command_loads_only_its_subsystem(code, forbidden):
    assert heavy_loaded_by(code).isdisjoint(forbidden)


@pytest.mark.parametrize("module", ["repro.grid", "repro.engine.cache"])
def test_module_imports_as_the_first_import(module):
    """No module relies on ``repro/__init__`` having imported others first."""
    heavy_loaded_by(f"import {module}")


def test_lazy_top_level_names_are_their_submodules_objects():
    assert set(repro.__all__) == {"__version__", *repro._EXPORTS}
    assert set(repro.__all__) <= set(dir(repro))
    for name, submodule in repro._EXPORTS.items():
        module = importlib.import_module(f"repro.{submodule}")
        expected = module if submodule == name else getattr(module, name)
        assert getattr(repro, name) is expected, name
