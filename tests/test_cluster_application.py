"""Cluster risk bookkeeping and application rollback semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.sim.application import Application
from repro.sim.cluster import Cluster, NodeState
from repro.sim.topology import (
    GroupAssignment,
    contiguous_groups,
    random_groups,
    strided_groups,
)


@pytest.fixture
def pair_cluster() -> Cluster:
    return Cluster(contiguous_groups(4, 2))


@pytest.fixture
def triple_cluster() -> Cluster:
    return Cluster(contiguous_groups(6, 3))


class TestClusterFailures:
    def test_single_failure_not_fatal(self, pair_cluster):
        assert pair_cluster.on_failure(0, now=10.0, risk_duration=5.0) is False
        assert pair_cluster.states[0] is NodeState.DOWN
        assert pair_cluster.group_of(0).at_risk

    def test_buddy_failure_within_window_is_fatal(self, pair_cluster):
        pair_cluster.on_failure(0, now=10.0, risk_duration=5.0)
        assert pair_cluster.on_failure(1, now=12.0, risk_duration=5.0) is True

    def test_other_group_unaffected(self, pair_cluster):
        pair_cluster.on_failure(0, now=10.0, risk_duration=5.0)
        assert pair_cluster.on_failure(2, now=12.0, risk_duration=5.0) is False
        assert len(pair_cluster.at_risk_groups()) == 2

    def test_same_node_refailure_extends(self, pair_cluster):
        pair_cluster.on_failure(0, now=10.0, risk_duration=5.0)
        assert pair_cluster.on_failure(0, now=12.0, risk_duration=5.0) is False
        assert pair_cluster.group_of(0).risk_end == 17.0

    def test_failure_after_window_closed_not_fatal(self, pair_cluster):
        pair_cluster.on_failure(0, now=10.0, risk_duration=5.0)
        pair_cluster.on_risk_end(0, now=15.0)
        assert not pair_cluster.group_of(0).at_risk
        assert pair_cluster.states[0] is NodeState.HEALTHY
        assert pair_cluster.on_failure(1, now=16.0, risk_duration=5.0) is False

    def test_risk_time_accounting(self, pair_cluster):
        pair_cluster.on_failure(0, now=10.0, risk_duration=5.0)
        pair_cluster.on_risk_end(0, now=15.0)
        assert pair_cluster.group_of(0).risk_time == pytest.approx(5.0)

    def test_triple_second_failure_fatal_in_window(self, triple_cluster):
        # The cluster treats the group as fatally hit once a *different*
        # member fails during recovery (the DES chain semantics live in
        # the risk MC; the DES uses the conservative rule).
        triple_cluster.on_failure(0, now=0.0, risk_duration=10.0)
        assert triple_cluster.on_failure(1, now=5.0, risk_duration=10.0) is True

    def test_failure_counters(self, pair_cluster):
        pair_cluster.on_failure(0, now=0.0, risk_duration=1.0)
        pair_cluster.on_risk_end(0, now=1.0)
        pair_cluster.on_failure(3, now=2.0, risk_duration=1.0)
        assert pair_cluster.total_failures == 2
        assert pair_cluster.group_of(3).failures == 1

    def test_abort_windows(self, pair_cluster):
        pair_cluster.on_failure(0, now=0.0, risk_duration=100.0)
        pair_cluster.abort_risk_windows(now=10.0)
        assert not pair_cluster.group_of(0).at_risk
        assert pair_cluster.group_of(0).risk_time == pytest.approx(10.0)

    def test_validation(self, pair_cluster):
        with pytest.raises(ParameterError):
            pair_cluster.on_failure(99, 0.0, 1.0)
        with pytest.raises(ParameterError):
            pair_cluster.on_failure(0, 0.0, -1.0)
        with pytest.raises(SimulationError):
            pair_cluster.on_risk_end(0, 0.0)  # nothing recovering

    def test_describe(self, pair_cluster):
        assert "n=4" in pair_cluster.describe()


class TestClusterGroupLookup:
    """``Cluster.group_of`` reads a node -> group list built once; it must
    name the same group as the assignment it was built from."""

    @pytest.mark.parametrize("assignment", [
        contiguous_groups(12, 2),
        contiguous_groups(12, 3),
        strided_groups(12, 2),
        strided_groups(12, 3),
        random_groups(12, 3, np.random.default_rng(7)),
        GroupAssignment(6, 2, ((5, 0), (3, 1), (2, 4))),
    ], ids=["contiguous-2", "contiguous-3", "strided-2", "strided-3",
            "random-3", "user"])
    def test_agrees_with_the_assignment(self, assignment):
        cluster = Cluster(assignment)
        for node in range(assignment.n_nodes):
            group = cluster.group_of(node)
            assert group is cluster.groups[assignment.group_of(node)]
            assert group.members == assignment.members(node)

    @pytest.mark.parametrize("layout", [contiguous_groups, strided_groups])
    def test_fixed_layouts_are_memoised(self, layout):
        first = layout(24, 3)
        assert layout(24, 3) is first
        assert layout(24, 2) is not first
        # Clusters over the shared assignment keep their own risk state.
        a, b = Cluster(first), Cluster(first)
        a.on_failure(0, now=1.0, risk_duration=5.0)
        assert a.group_of(0).at_risk and not b.group_of(0).at_risk

    def test_memoised_layouts_still_refuse(self):
        for _ in range(2):
            with pytest.raises(ParameterError):
                contiguous_groups(5, 2)
            with pytest.raises(ParameterError):
                strided_groups(7, 3)

    def test_random_groups_draw_every_call(self):
        a = random_groups(24, 2, np.random.default_rng(1))
        b = random_groups(24, 2, np.random.default_rng(2))
        assert a is not b
        assert a.groups != b.groups
        rng = np.random.default_rng(3)
        assert random_groups(24, 2, rng).groups \
            != random_groups(24, 2, rng).groups


class TestApplication:
    def test_advance_and_complete(self):
        app = Application(work_target=10.0)
        app.advance(4.0)
        assert not app.complete
        assert app.remaining == pytest.approx(6.0)
        app.advance(6.0)
        assert app.complete

    def test_commit_default_level(self):
        app = Application(work_target=10.0)
        app.advance(4.0)
        app.commit_snapshot(now=1.0)
        assert app.committed_work == 4.0

    def test_commit_period_start_level(self):
        # Buddy checkpoints capture period-start state, not current.
        app = Application(work_target=100.0)
        app.advance(10.0)
        app.commit_snapshot(now=1.0, work_level=6.0)
        assert app.committed_work == 6.0

    def test_rollback_returns_lost(self):
        app = Application(work_target=100.0)
        app.advance(10.0)
        app.commit_snapshot(now=1.0, work_level=6.0)
        app.advance(5.0)
        lost = app.rollback()
        assert lost == pytest.approx(9.0)
        assert app.work_done == 6.0
        assert app.rollbacks == 1
        assert app.work_lost == pytest.approx(9.0)

    def test_rollback_without_commit_goes_to_zero(self):
        app = Application(work_target=10.0)
        app.advance(3.0)
        assert app.rollback() == pytest.approx(3.0)
        assert app.work_done == 0.0

    def test_commit_cannot_move_backwards(self):
        app = Application(work_target=10.0)
        app.advance(5.0)
        app.commit_snapshot(now=0.0)
        with pytest.raises(SimulationError):
            app.commit_snapshot(now=1.0, work_level=2.0)

    def test_commit_cannot_exceed_done(self):
        app = Application(work_target=10.0)
        app.advance(2.0)
        with pytest.raises(SimulationError):
            app.commit_snapshot(now=0.0, work_level=5.0)

    def test_negative_advance_rejected(self):
        app = Application(work_target=10.0)
        with pytest.raises(SimulationError):
            app.advance(-1.0)

    def test_time_to_complete(self):
        app = Application(work_target=10.0)
        app.advance(4.0)
        assert app.time_to_complete(0.5) == pytest.approx(12.0)
        assert app.time_to_complete(0.0) == float("inf")

    def test_validation(self):
        with pytest.raises(ParameterError):
            Application(work_target=0.0)

    def test_commit_history(self):
        app = Application(work_target=10.0)
        app.advance(2.0)
        app.commit_snapshot(now=5.0)
        app.advance(3.0)
        app.commit_snapshot(now=9.0)
        assert app.commits == [(5.0, 2.0), (9.0, 5.0)]
