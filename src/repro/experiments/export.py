"""Artefact export: write every experiment's table and figure data to disk.

``python -m repro run --export out/`` produces, for each experiment, a
``<id>.txt`` with the rendered table and headline numbers, plus a
``<id>_<series>.csv`` for every time series the experiment carries (the
figure data behind F1–F3) — everything needed to re-plot the paper's
figures with any external tool.

Since every experiment (and sweep) implements the
:class:`repro.results.Result` protocol, export here is just the generic
:func:`repro.results.write_result` — no per-type branches.
"""

from __future__ import annotations

from pathlib import Path

from ..results import write_result

__all__ = ["export_all"]


def export_all(
    experiment_ids: list[str],
    out_dir: str | Path,
    runner=None,
) -> dict[str, list[Path]]:
    """Run and export a list of experiments; returns id → created paths.

    ``runner`` defaults to :func:`repro.experiments.run_experiment`; tests
    inject a stub to avoid running campaigns.
    """
    if runner is None:
        from . import run_experiment as runner  # deferred: avoids cycle at import
    exported: dict[str, list[Path]] = {}
    for exp_id in experiment_ids:
        result = runner(exp_id)
        exported[exp_id] = write_result(result, out_dir)
    return exported
