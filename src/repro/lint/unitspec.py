"""Unit-suffix registry for the units-discipline checker.

The single source of truth for *which units exist* is :mod:`repro.units`: its
converter names (``j_to_kwh``) and parameter conventions (``value_kwh``,
``duration_s``, ``intensity_gco2_per_kwh``) define the canonical suffix
vocabulary.  This module derives the token set from that file's AST at lint
time and validates it against the static dimension table below — if someone
adds a converter for a unit the table does not know, the lint pass refuses to
run until the table is taught the new unit, keeping the two in sync by
construction.

The table also carries domain extensions that need no converters (``_ghz``,
``_tco2e``, ``_c``, ``_gbp``) and the scale of each token within its
dimension, so the checker can flag both *cross-dimension* arithmetic
(``power_kw + energy_kwh``) and *mixed-scale* arithmetic (``power_kw +
power_mw``) while accepting exact aliases (``duration_s + wait_seconds``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from ..errors import LintError

__all__ = [
    "UnitInfo",
    "DIMENSIONS",
    "NEAR_MISSES",
    "suffix_of",
    "near_miss_of",
    "derive_unit_tokens",
    "validate_registry_against_units_module",
]


@dataclass(frozen=True)
class UnitInfo:
    """Dimension plus in-dimension scale for one suffix token."""

    token: str
    dimension: str
    scale: float | None  # None = unique token in its dimension; never mixed

    def compatible_with(self, other: "UnitInfo") -> bool:
        """Same dimension *and* same scale (exact aliases only)."""
        return (
            self.dimension == other.dimension
            and self.scale is not None
            and self.scale == other.scale
        )


def _info(token: str, dimension: str, scale: float | None) -> tuple[str, UnitInfo]:
    return token, UnitInfo(token=token, dimension=dimension, scale=scale)


#: Canonical suffix token -> unit info.  Scales are relative to an arbitrary
#: per-dimension base; only equality/inequality of scales is ever used.
DIMENSIONS: dict[str, UnitInfo] = dict(
    [
        # power (base: watt)
        _info("w", "power", 1.0),
        _info("kw", "power", 1e3),
        _info("mw", "power", 1e6),
        # energy (base: joule)
        _info("j", "energy", 1.0),
        _info("wh", "energy", 3.6e3),
        _info("kwh", "energy", 3.6e6),
        _info("mwh", "energy", 3.6e9),
        # time (base: second)
        _info("s", "time", 1.0),
        _info("seconds", "time", 1.0),
        _info("minutes", "time", 60.0),
        _info("hour", "time", 3600.0),
        _info("hours", "time", 3600.0),
        _info("day", "time", 86_400.0),
        _info("days", "time", 86_400.0),
        _info("months", "time", 365.2425 / 12.0 * 86_400.0),
        _info("year", "time", 365.2425 * 86_400.0),
        _info("years", "time", 365.2425 * 86_400.0),
        # emissions mass (base: gram CO2e)
        _info("g", "emissions-mass", 1.0),
        _info("grams", "emissions-mass", 1.0),
        _info("kg", "emissions-mass", 1e3),
        _info("kilograms", "emissions-mass", 1e3),
        _info("tonnes", "emissions-mass", 1e6),
        _info("tco2e", "emissions-mass", 1e6),
        # frequency (base: hertz)
        _info("hz", "frequency", 1.0),
        _info("mhz", "frequency", 1e6),
        _info("ghz", "frequency", 1e9),
        # temperature / money: single-token dimensions, never scale-mixed
        _info("c", "temperature", None),
        _info("gbp", "currency", None),
        # carbon intensity (the paper's gCO2e per kWh axis)
        _info("gco2_per_kwh", "carbon-intensity", 1.0),
        _info("g_per_kwh", "carbon-intensity", 1.0),
        _info("kg_per_mwh", "carbon-intensity", 1.0),  # numerically equal
    ]
)

#: Non-canonical spellings the checker recognises and maps to the canonical
#: token.  ``_seconds`` and ``_kilograms`` are canonical aliases (they appear
#: in repro/units.py itself) and therefore are *not* near-misses.
NEAR_MISSES: dict[str, str] = {
    "watt": "w",
    "watts": "w",
    "kilowatt": "kw",
    "kilowatts": "kw",
    "megawatts": "mw",
    "kwhr": "kwh",
    "kwhrs": "kwh",
    "joule": "j",
    "joules": "j",
    "sec": "s",
    "secs": "s",
    "msec": "s",
    "hr": "hours",
    "hrs": "hours",
    "mins": "minutes",
    "gram": "g",
    "kgs": "kg",
    "ton": "tonnes",
    "tons": "tonnes",
    "tonne": "tonnes",
    "degc": "c",
    "celsius": "c",
    "gco2": "g",
    "kgco2": "kg",
}

# Tokens that *look* like units but are everyday programming vocabulary in
# this codebase; never interpreted as suffixes (``v_min``, ``delta_t``,
# ``best_k``, ``alpha_c`` stay unflagged — ``_c`` only counts when the name
# is temperature-like, see suffix_of).
_AMBIGUOUS = {"min", "max", "t", "k"}

_COMPOUND_RE = re.compile(r"(?:^|_)([a-z0-9]+(?:_per_[a-z0-9]+)+)$")
_SIMPLE_RE = re.compile(r"(?:^|_)([a-z0-9]+)$")

# `_c` is the one genuinely overloaded suffix: coolant_c is a temperature,
# alpha_c a fraction.  Only treat it as Celsius when the stem reads thermal.
_THERMAL_STEM_RE = re.compile(
    r"(temp|coolant|inlet|outlet|junction|ambient|setpoint|threshold|t_)"
)


def suffix_of(name: str) -> UnitInfo | None:
    """The unit carried by an identifier, or ``None``.

    Compound ``_a_per_b`` suffixes are resolved first (dedicated table entry,
    else composed from the component dimensions); then simple suffixes.
    """
    name = name.lower()
    match = _COMPOUND_RE.search(name)
    if match:
        compound = match.group(1)
        if compound in DIMENSIONS:
            return DIMENSIONS[compound]
        parts = compound.split("_per_")
        infos = [DIMENSIONS.get(p) for p in parts]
        if all(infos):
            # Same-dimension compounds (SECONDS_PER_DAY) are conversion
            # constants: their *value* carries the numerator's unit.
            dims = {i.dimension for i in infos}  # type: ignore[union-attr]
            if len(dims) == 1:
                return infos[0]
            dimension = "/".join(i.dimension for i in infos)  # type: ignore[union-attr]
            scales = [i.scale for i in infos]  # type: ignore[union-attr]
            scale = None
            if all(s is not None for s in scales):
                scale = scales[0]
                for s in scales[1:]:
                    scale /= s  # type: ignore[operator]
            return UnitInfo(token=compound, dimension=dimension, scale=scale)
        return None
    match = _SIMPLE_RE.search(name)
    if not match or match.group(1) == name:
        # A bare token ("hours") is a word, not a suffixed quantity — except
        # in units.py itself, which the checker does not lint for REP102.
        return None
    token = match.group(1)
    if token in _AMBIGUOUS:
        return None
    if token == "c" and not _THERMAL_STEM_RE.search(name):
        return None
    return DIMENSIONS.get(token)


def near_miss_of(name: str) -> tuple[str, str] | None:
    """(bad token, canonical token) when a name uses a non-canonical suffix."""
    match = _COMPOUND_RE.search(name.lower())
    if match:  # per-compounds are judged by their components elsewhere
        return None
    match = _SIMPLE_RE.search(name.lower())
    if not match or match.group(1) == name.lower():
        return None
    token = match.group(1)
    if token in NEAR_MISSES:
        return token, NEAR_MISSES[token]
    return None


_CONVERTER_RE = re.compile(r"^([a-z0-9]+)_to_([a-z0-9]+)$")
_PARAM_SUFFIX_RE = re.compile(r"_([a-z0-9]+(?:_per_[a-z0-9]+)*)_?$")
_BARE_UNIT_PARAMS = {
    "hours",
    "seconds",
    "days",
    "minutes",
    "months",
    "years",
    "grams",
    "kilograms",
    "tonnes",
}


def derive_unit_tokens(units_source: str) -> set[str]:
    """Unit tokens declared by :mod:`repro.units`, read from its AST.

    Converter names contribute both sides of ``X_to_Y``; parameters
    contribute their suffix (``value_kwh`` -> ``kwh``, ``duration_s`` ->
    ``s``) or, for the time/mass helpers, their bare name (``hours``).
    """
    tree = ast.parse(units_source)
    tokens: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        match = _CONVERTER_RE.match(node.name)
        if match:
            tokens.update(match.groups())
        for arg in node.args.args:
            name = arg.arg
            if name in _BARE_UNIT_PARAMS:
                tokens.add(name)
                continue
            suffix = _PARAM_SUFFIX_RE.search(name)
            if suffix and suffix.group(1) in DIMENSIONS:
                tokens.add(suffix.group(1))
    return tokens


def validate_registry_against_units_module(root: Path) -> set[str]:
    """Check every token derived from ``src/repro/units.py`` is mapped.

    Returns the derived token set.  Raises :class:`LintError` naming the
    unmapped tokens when the converter module has outgrown this registry —
    the failure mode we want loud, not silent.
    """
    units_path = root / "src" / "repro" / "units.py"
    if not units_path.is_file():
        return set()  # fixture trees without the real package: table stands alone
    derived = derive_unit_tokens(units_path.read_text(encoding="utf-8"))
    unmapped = {
        token
        for token in derived
        if token not in DIMENSIONS and token not in _BARE_UNIT_PARAMS
    }
    if unmapped:
        raise LintError(
            "repro/units.py declares unit tokens unknown to repro.lint's "
            f"dimension table: {sorted(unmapped)}; teach "
            "repro/lint/unitspec.py the new units before linting"
        )
    return derived
