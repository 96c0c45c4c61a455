"""Interconnect substrate: load-invariant switch power.

ARCHER2's Slingshot fabric is a dragonfly of 768 switches (Table 1); the
switch count comes from the facility inventory, and only their power,
which does not follow load, matters to the paper.
"""

from .power import SwitchPowerModel

__all__ = ["SwitchPowerModel"]
