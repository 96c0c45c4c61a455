"""Dragonfly fabric topology builder.

ARCHER2's Slingshot-10 fabric is a dragonfly: switches form groups with
all-to-all electrical links inside each group and optical global links
between groups (Table 1: 768 switches, dragonfly topology). The builder
produces a :mod:`networkx` graph with switch and node vertices, and verifies
the structural properties the power model relies on (switch count, port
budget) plus the small-diameter property that makes dragonflies attractive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["DragonflyConfig", "DragonflyTopology", "archer2_like_dragonfly"]


@dataclass(frozen=True)
class DragonflyConfig:
    """Structural parameters of a dragonfly fabric.

    ``global_links_per_switch`` optical ports per switch connect groups;
    groups are wired all-to-all when enough global links exist.
    """

    n_groups: int = 48
    switches_per_group: int = 16
    nodes_per_switch: int = 8
    global_links_per_switch: int = 3
    switch_ports: int = 64

    def __post_init__(self) -> None:
        for name in ("n_groups", "switches_per_group", "nodes_per_switch", "switch_ports"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.global_links_per_switch < 0:
            raise ConfigurationError("global_links_per_switch must be non-negative")
        ports_needed = (
            (self.switches_per_group - 1)  # intra-group all-to-all
            + self.nodes_per_switch  # injection
            + self.global_links_per_switch
        )
        if ports_needed > self.switch_ports:
            raise ConfigurationError(
                f"switch needs {ports_needed} ports but has {self.switch_ports}"
            )
        # All-to-all group graph requires enough global links in each group.
        if self.n_groups > 1:
            global_per_group = self.switches_per_group * self.global_links_per_switch
            if global_per_group < self.n_groups - 1:
                raise ConfigurationError(
                    f"group has {global_per_group} global links but needs "
                    f"{self.n_groups - 1} for an all-to-all group graph"
                )

    @property
    def n_switches(self) -> int:
        """Total switches in the fabric."""
        return self.n_groups * self.switches_per_group

    @property
    def n_nodes(self) -> int:
        """Total injection endpoints (compute nodes) in the fabric."""
        return self.n_switches * self.nodes_per_switch


class DragonflyTopology:
    """A built dragonfly graph with named switch/node vertices."""

    def __init__(self, config: DragonflyConfig) -> None:
        self.config = config
        self.graph = self._build(config)

    @staticmethod
    def _build(cfg: DragonflyConfig) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        for group in range(cfg.n_groups):
            switches = [f"s{group}.{i}" for i in range(cfg.switches_per_group)]
            for name in switches:
                g.add_node(name, kind="switch", group=group)
            # Intra-group all-to-all.
            for i, a in enumerate(switches):
                for b in switches[i + 1 :]:
                    g.add_edge(a, b, kind="local")
            # Injection ports.
            for i, name in enumerate(switches):
                for p in range(cfg.nodes_per_switch):
                    node = f"n{group}.{i}.{p}"
                    g.add_node(node, kind="node", group=group)
                    g.add_edge(name, node, kind="injection")
        # Global links: group j's k-th global port connects to group
        # (j+k+1) mod n_groups, giving an all-to-all group graph when the
        # port budget allows (validated in the config).
        for ga in range(cfg.n_groups):
            for gb in range(ga + 1, cfg.n_groups):
                offset = gb - ga - 1
                sa = f"s{ga}.{offset % cfg.switches_per_group}"
                sb = f"s{gb}.{(offset + 1) % cfg.switches_per_group}"
                g.add_edge(sa, sb, kind="global")
        return g

    @property
    def n_switches(self) -> int:
        """Switch vertices in the built graph."""
        return sum(1 for _, d in self.graph.nodes(data=True) if d["kind"] == "switch")

    @property
    def n_nodes(self) -> int:
        """Compute-node vertices in the built graph."""
        return sum(1 for _, d in self.graph.nodes(data=True) if d["kind"] == "node")

    def switch_subgraph(self) -> nx.Graph:
        """The fabric restricted to switches (no injection edges)."""
        switches = [n for n, d in self.graph.nodes(data=True) if d["kind"] == "switch"]
        return self.graph.subgraph(switches)

    def switch_diameter(self) -> int:
        """Hop diameter of the switch fabric (≤ 3 + ε for healthy dragonflies)."""
        import networkx as nx

        return nx.diameter(self.switch_subgraph())

    def max_switch_degree(self) -> int:
        """Largest port usage across switches (must fit the port budget)."""
        sub = self.graph
        return max(
            d
            for n, d in sub.degree()
            if sub.nodes[n]["kind"] == "switch"
        )


def archer2_like_dragonfly() -> DragonflyTopology:
    """A fabric matching ARCHER2's published scale: 768 switches.

    48 groups × 16 switches × 8 injection ports ≈ 6,144 endpoints — enough
    for 5,860 nodes with spare ports, as on the real system.
    """
    return DragonflyTopology(DragonflyConfig())
