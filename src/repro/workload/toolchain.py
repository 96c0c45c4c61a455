"""Compiler/library toolchain effects on the execution model.

The paper's stated future work includes "investigating the impact of
compiler and library choices on the energy efficiency of application
benchmarks at different CPU frequencies" (§5). This module provides the
machinery: a toolchain transforms an application's roofline components —

* ``compute_speedup`` — better instruction selection / vectorisation lowers
  the core-rate-limited time ``T_c``;
* ``memory_speedup`` — prefetching, blocking and better libraries lower the
  bandwidth-limited time ``T_m``.

Because frequency scaling only stretches the compute component, a toolchain
that shrinks ``T_c`` makes an application *less* frequency-sensitive (lower
effective compute fraction) — so compiler choice and the §4.2 frequency
policy interact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from ..units import ensure_positive
from .applications import AppProfile

__all__ = [
    "Toolchain",
    "REFERENCE_TOOLCHAINS",
    "apply_toolchain",
]


@dataclass(frozen=True)
class Toolchain:
    """A compiler + maths-library configuration.

    Speedups are relative to the baseline toolchain the catalogue profiles
    were calibrated with (>1 = faster component).
    """

    name: str
    compute_speedup: float = 1.0
    memory_speedup: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.compute_speedup, "compute_speedup")
        ensure_positive(self.memory_speedup, "memory_speedup")
        if self.compute_speedup > 4.0 or self.memory_speedup > 4.0:
            raise ConfigurationError(
                f"{self.name}: speedups above 4x are outside the model's validity"
            )

    @property
    def overall_label(self) -> str:
        """Short display label."""
        return (
            f"{self.name} (compute x{self.compute_speedup:.2f}, "
            f"memory x{self.memory_speedup:.2f})"
        )


#: Archetype toolchains. Values are representative of published HPC compiler
#: comparisons on EPYC-class hardware (vendor compiler with tuned BLAS vs a
#: stock GNU baseline), not measurements of any specific product version.
REFERENCE_TOOLCHAINS: dict[str, Toolchain] = {
    "baseline-gnu": Toolchain(name="baseline-gnu"),
    "vendor-tuned": Toolchain(name="vendor-tuned", compute_speedup=1.15, memory_speedup=1.05),
    "vector-aggressive": Toolchain(
        name="vector-aggressive", compute_speedup=1.30, memory_speedup=1.0
    ),
    "memory-optimised": Toolchain(
        name="memory-optimised", compute_speedup=1.05, memory_speedup=1.20
    ),
}


def apply_toolchain(app: AppProfile, toolchain: Toolchain) -> AppProfile:
    """The application as built with ``toolchain``.

    With baseline components ``T_c = φ`` and ``T_m = 1 − φ`` (normalised at
    the reference frequency), the new components are ``T_c/s_c`` and
    ``T_m/s_m``; the profile's compute fraction and baseline runtime are
    updated accordingly. Paper-expected ratios are dropped — they belong to
    the calibration toolchain only.
    """
    t_c = app.compute_fraction / toolchain.compute_speedup
    t_m = (1.0 - app.compute_fraction) / toolchain.memory_speedup
    total = t_c + t_m
    return replace(
        app,
        compute_fraction=t_c / total,
        baseline_runtime_s=app.baseline_runtime_s * total,
        paper_perf_ratio=None,
        paper_energy_ratio=None,
        assumed=True,
    )

