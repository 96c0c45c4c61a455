"""Node pool with allocation invariants.

Power on ARCHER2 is node-count- not placement-dominated (the fabric draws
constant power), so the pool tracks counts rather than individual node IDs.
The pool enforces conservation — allocations never exceed capacity and
releases never exceed outstanding allocations — which the property tests
hammer.
"""

from __future__ import annotations

from ..errors import AllocationError

__all__ = ["NodePool"]


class NodePool:
    """Counts-based allocator over a fixed set of identical nodes."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise AllocationError(f"n_nodes must be positive, got {n_nodes}")
        self._n_nodes = n_nodes
        self._busy = 0
        self._drained = 0

    @property
    def busy(self) -> int:
        """Nodes currently allocated to jobs."""
        return self._busy

    @property
    def drained(self) -> int:
        """Nodes held out of service awaiting repair."""
        return self._drained

    @property
    def up_nodes(self) -> int:
        """Nodes in service (busy or free): total minus drained."""
        return self._n_nodes - self._drained

    @property
    def free(self) -> int:
        """Nodes currently idle and in service."""
        return self._n_nodes - self._busy - self._drained

    def fits(self, n: int) -> bool:
        """Whether an ``n``-node request can start now."""
        return 0 < n <= self.free

    def allocate(self, n: int) -> None:
        """Claim ``n`` nodes; raises :class:`AllocationError` when impossible."""
        if n <= 0:
            raise AllocationError(f"allocation size must be positive, got {n}")
        if n > self.free:
            raise AllocationError(
                f"cannot allocate {n} nodes: only {self.free} of {self._n_nodes} free"
            )
        self._busy += n

    def release(self, n: int) -> None:
        """Return ``n`` nodes; raises on over-release (double-free guard)."""
        if n <= 0:
            raise AllocationError(f"release size must be positive, got {n}")
        if n > self._busy:
            raise AllocationError(
                f"cannot release {n} nodes: only {self._busy} allocated"
            )
        self._busy -= n

    def drain(self, n: int = 1) -> None:
        """Take ``n`` idle nodes out of service (failure/repair hold).

        A failed node hosting a job must have its allocation released first
        (the job is killed); drain then claims the now-idle node, so drained
        capacity is invisible to ``fits``/``allocate`` until restored.
        """
        if n <= 0:
            raise AllocationError(f"drain size must be positive, got {n}")
        if n > self.free:
            raise AllocationError(
                f"cannot drain {n} nodes: only {self.free} idle "
                f"({self._busy} busy, {self._drained} already drained)"
            )
        self._drained += n

    def restore(self, n: int = 1) -> None:
        """Return ``n`` repaired nodes to service."""
        if n <= 0:
            raise AllocationError(f"restore size must be positive, got {n}")
        if n > self._drained:
            raise AllocationError(
                f"cannot restore {n} nodes: only {self._drained} drained"
            )
        self._drained -= n

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable snapshot of the allocation state."""
        return {
            "n_nodes": self._n_nodes,
            "busy": self._busy,
            "drained": self._drained,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore allocation state; the pool size must match the snapshot."""
        if int(state["n_nodes"]) != self._n_nodes:
            raise AllocationError(
                f"checkpoint was taken on a {state['n_nodes']}-node pool; "
                f"this pool has {self._n_nodes} nodes"
            )
        busy = int(state["busy"])
        drained = int(state.get("drained", 0))
        if not 0 <= busy <= self._n_nodes:
            raise AllocationError(
                f"checkpoint busy count {busy} outside [0, {self._n_nodes}]"
            )
        if not 0 <= drained <= self._n_nodes - busy:
            raise AllocationError(
                f"checkpoint drained count {drained} outside "
                f"[0, {self._n_nodes - busy}]"
            )
        self._busy = busy
        self._drained = drained
