"""Cluster state: nodes, buddy groups and their recovery bookkeeping.

The DES tracks, for every buddy group, whether it is *at risk* — i.e. a
member failed and the replacement has not yet re-received every checkpoint
image it is responsible for.  A further failure of another member during
that window is **fatal** (§III-C/§V-C); a repeat failure of the recovering
node itself merely restarts its recovery (the surviving members still hold
every image — the model ignores this second-order event, the simulator
handles it).

Node lifecycle::

    HEALTHY --failure--> DOWN --(downtime D)--> RESTORING
            <------------- risk window ends ----------- AT_RISK...

The cluster is protocol-agnostic; durations of each stage come from the
protocol state machine that drives it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ParameterError, SimulationError
from .topology import GroupAssignment

__all__ = ["NodeState", "GroupStatus", "Cluster"]


class NodeState(enum.Enum):
    HEALTHY = "healthy"
    #: Failed, replacement not yet restored (within downtime + recovery).
    DOWN = "down"
    #: Replacement running but group images not fully re-replicated.
    AT_RISK = "at-risk"


@dataclass
class GroupStatus:
    """Risk bookkeeping of one buddy group."""

    index: int
    members: tuple[int, ...]
    #: Node currently recovering, or None when the group is safe.
    recovering: int | None = None
    #: Absolute end time of the current risk window (valid iff recovering).
    risk_end: float = 0.0
    #: Number of failures this group has absorbed.
    failures: int = 0
    #: Cumulative time spent at risk (for reporting).
    risk_time: float = 0.0
    _risk_start: float = field(default=0.0, repr=False)

    @property
    def at_risk(self) -> bool:
        return self.recovering is not None


class Cluster:
    """Node states plus group risk windows over a :class:`GroupAssignment`."""

    def __init__(self, assignment: GroupAssignment):
        self.assignment = assignment
        self.n_nodes = assignment.n_nodes
        self.states = [NodeState.HEALTHY] * self.n_nodes
        self.groups = [
            GroupStatus(index=i, members=members)
            for i, members in enumerate(assignment.groups)
        ]
        #: node -> its group's status (a list read on every failure).
        self._node_group = [None] * self.n_nodes
        for group in self.groups:
            for node in group.members:
                self._node_group[node] = group
        self.total_failures = 0

    # ------------------------------------------------------------------
    def group_of(self, node: int) -> GroupStatus:
        return self._node_group[node]

    def on_failure(self, node: int, now: float, risk_duration: float) -> bool:
        """Register a failure at ``now``.

        Returns ``True`` if the failure is **fatal** (another member of the
        group is still within its risk window).  Otherwise opens/extends
        the group's risk window to ``now + risk_duration``.
        """
        if not 0 <= node < self.n_nodes:
            raise ParameterError(f"node {node} out of range")
        if risk_duration < 0:
            raise ParameterError("risk_duration must be >= 0")
        group = self.group_of(node)
        group.failures += 1
        self.total_failures += 1
        if group.at_risk and now > group.risk_end:
            # The window expired but no explicit close arrived (lazy
            # expiry keeps the cluster correct standalone; the DES also
            # schedules explicit risk-end events for state reporting).
            self.on_risk_end(group.recovering, group.risk_end)
        if group.at_risk and group.recovering != node:
            # Second distinct member lost while under-replicated: the only
            # remaining copies of some image just vanished.
            return True
        if not group.at_risk:
            group._risk_start = now
        group.recovering = node
        group.risk_end = now + risk_duration
        self.states[node] = NodeState.DOWN
        return False

    def on_risk_end(self, node: int, now: float) -> None:
        """Risk window closed: group fully re-replicated."""
        group = self.group_of(node)
        if group.recovering != node:
            raise SimulationError(
                f"risk window closed for {node} but group recovering "
                f"{group.recovering}"
            )
        group.risk_time += now - group._risk_start
        group.recovering = None
        self.states[node] = NodeState.HEALTHY

    # ------------------------------------------------------------------
    def at_risk_groups(self) -> list[GroupStatus]:
        return [g for g in self.groups if g.at_risk]

    def abort_risk_windows(self, now: float) -> None:
        """Close all open windows (end of simulation bookkeeping)."""
        for group in self.groups:
            if group.at_risk:
                group.risk_time += now - group._risk_start
                self.states[group.recovering] = NodeState.HEALTHY
                group.recovering = None

    def describe(self) -> str:
        healthy = sum(1 for s in self.states if s is NodeState.HEALTHY)
        return (
            f"Cluster(n={self.n_nodes}, groups={len(self.groups)}, "
            f"healthy={healthy}, failures={self.total_failures})"
        )
