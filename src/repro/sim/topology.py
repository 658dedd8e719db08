"""Buddy-group assignment strategies.

The paper partitions nodes into pairs (doubles) or rotating triples
(§II, §IV) but does not prescribe *which* nodes are grouped.  On a real
machine the choice matters: buddies should be close (cheap transfers) yet
failure-independent (not share a power supply / blade — correlated
failures inside a group defeat the replication).  This module provides:

* :func:`contiguous_groups` — nodes ``(0,1)``, ``(2,3)``, … ; the simplest
  layout and the paper's implicit default.
* :func:`strided_groups` — node ``i`` grouped with ``i + n/g``: buddies
  land in distant racks, decorrelating group failures.
* :func:`random_groups` — uniformly random partition (seeded).
* :func:`topology_aware_groups` — greedy grouping on a ``networkx`` graph
  that minimises intra-group distance subject to an anti-affinity
  predicate (e.g. "different racks").

All return a :class:`GroupAssignment`, validated to be a partition.
The two fixed layouts are pure functions of ``(n, g)`` and memoised: every
call with the same arguments returns the same (immutable) assignment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ParameterError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "GroupAssignment",
    "contiguous_groups",
    "strided_groups",
    "random_groups",
    "topology_aware_groups",
    "ring_of_racks",
]


@dataclass(frozen=True)
class GroupAssignment:
    """A partition of ``n`` nodes into groups of equal size ``g``."""

    n_nodes: int
    group_size: int
    #: tuple of groups; each group is a tuple of node ids.
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_nodes % self.group_size != 0:
            raise ParameterError(
                f"n={self.n_nodes} not divisible by group size {self.group_size}"
            )
        seen: set[int] = set()
        for group in self.groups:
            if len(group) != self.group_size:
                raise ParameterError(f"group {group} has wrong size")
            seen.update(group)
        if seen != set(range(self.n_nodes)):
            raise ParameterError("groups do not partition the node set")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_of(self, node: int) -> int:
        """Index of the group containing ``node``."""
        return self._node_to_group()[node]

    def members(self, node: int) -> tuple[int, ...]:
        """All members of ``node``'s group (including itself)."""
        return self.groups[self.group_of(node)]

    def buddies(self, node: int) -> tuple[int, ...]:
        """The other members of ``node``'s group.

        For triples the order encodes the paper's rotation: the first
        entry is the *preferred* buddy, the second the *secondary* buddy
        (§IV: p → p′ → p″ → p).
        """
        group = self.members(node)
        idx = group.index(node)
        return tuple(group[(idx + k) % len(group)] for k in range(1, len(group)))

    def _node_to_group(self) -> np.ndarray:
        cache = getattr(self, "_n2g_cache", None)
        if cache is None:
            cache = np.empty(self.n_nodes, dtype=np.int64)
            for gi, group in enumerate(self.groups):
                for node in group:
                    cache[node] = gi
            object.__setattr__(self, "_n2g_cache", cache)
        return cache


def _check(n_nodes: int, group_size: int) -> None:
    if group_size < 2:
        raise ParameterError("group_size must be >= 2")
    if n_nodes < group_size or n_nodes % group_size != 0:
        raise ParameterError(
            f"n_nodes={n_nodes} must be a positive multiple of {group_size}"
        )


@functools.lru_cache(maxsize=256, typed=True)
def contiguous_groups(n_nodes: int, group_size: int) -> GroupAssignment:
    """Adjacent node ids share a group: ``(0..g-1), (g..2g-1), ...``."""
    _check(n_nodes, group_size)
    groups = tuple(
        tuple(range(i, i + group_size)) for i in range(0, n_nodes, group_size)
    )
    return GroupAssignment(n_nodes, group_size, groups)


@functools.lru_cache(maxsize=256, typed=True)
def strided_groups(n_nodes: int, group_size: int) -> GroupAssignment:
    """Group ``i`` = ``(i, i + n/g, i + 2n/g, ...)`` — maximally spread ids."""
    _check(n_nodes, group_size)
    stride = n_nodes // group_size
    groups = tuple(
        tuple(i + k * stride for k in range(group_size)) for i in range(stride)
    )
    return GroupAssignment(n_nodes, group_size, groups)


def random_groups(
    n_nodes: int, group_size: int, rng: np.random.Generator
) -> GroupAssignment:
    """Uniformly random partition into groups of size ``group_size``."""
    _check(n_nodes, group_size)
    perm = rng.permutation(n_nodes)
    groups = tuple(
        tuple(int(x) for x in perm[i : i + group_size])
        for i in range(0, n_nodes, group_size)
    )
    return GroupAssignment(n_nodes, group_size, groups)


def ring_of_racks(n_racks: int, nodes_per_rack: int) -> nx.Graph:
    """A simple machine topology: racks on a ring, full mesh inside a rack.

    Node ids are ``rack * nodes_per_rack + slot``; every node carries a
    ``rack`` attribute and edges carry ``distance`` (1 intra-rack, 2 + ring
    distance inter-rack via the rack heads).  This is the stand-in for real
    machine topologies used by the topology-aware example.
    """
    import networkx as nx

    if n_racks < 1 or nodes_per_rack < 1:
        raise ParameterError("need at least one rack and one node per rack")
    graph = nx.Graph()
    for rack in range(n_racks):
        base = rack * nodes_per_rack
        for slot in range(nodes_per_rack):
            graph.add_node(base + slot, rack=rack)
        for a in range(nodes_per_rack):
            for b in range(a + 1, nodes_per_rack):
                graph.add_edge(base + a, base + b, distance=1.0)
    for rack in range(n_racks):
        nxt = (rack + 1) % n_racks
        if n_racks > 1:
            graph.add_edge(
                rack * nodes_per_rack, nxt * nodes_per_rack, distance=2.0
            )
    return graph


def topology_aware_groups(
    graph: nx.Graph,
    group_size: int,
    *,
    anti_affinity: str | None = None,
) -> GroupAssignment:
    """Greedy distance-minimising grouping on a machine graph.

    Repeatedly seeds a group with the lowest-id ungrouped node and adds its
    nearest ungrouped peers (shortest-path ``distance``), skipping peers
    that share the seed's ``anti_affinity`` attribute (e.g. ``"rack"``) so
    a group never lies entirely inside one failure domain.  Falls back to
    same-domain peers when nothing else remains.
    """
    import networkx as nx

    n_nodes = graph.number_of_nodes()
    _check(n_nodes, group_size)
    if set(graph.nodes) != set(range(n_nodes)):
        raise ParameterError("graph nodes must be exactly 0..n-1")

    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="distance"))
    ungrouped: set[int] = set(range(n_nodes))
    groups: list[tuple[int, ...]] = []
    while ungrouped:
        seed = min(ungrouped)
        ungrouped.remove(seed)
        candidates = sorted(ungrouped, key=lambda v: (lengths[seed].get(v, np.inf), v))
        chosen: list[int] = [seed]
        if anti_affinity is not None:
            seed_domain = graph.nodes[seed].get(anti_affinity)
            preferred = [
                v for v in candidates
                if graph.nodes[v].get(anti_affinity) != seed_domain
            ]
            others = [v for v in candidates if v not in set(preferred)]
            candidates = preferred + others
        for v in candidates:
            if len(chosen) == group_size:
                break
            chosen.append(v)
        if len(chosen) != group_size:
            raise ParameterError("graph too small to complete groups")
        ungrouped.difference_update(chosen[1:])
        groups.append(tuple(chosen))
    return GroupAssignment(n_nodes, group_size, tuple(groups))
