"""Failure injection, traces, and buddy-group topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.sim.distributions import Deterministic, Exponential, Weibull
from repro.sim.failures import FailureInjector, generate_trace, trace_statistics
from repro.sim.rng import RngFactory
from repro.sim.topology import (
    GroupAssignment,
    contiguous_groups,
    random_groups,
    ring_of_racks,
    strided_groups,
    topology_aware_groups,
)


class TestInjector:
    def test_platform_mtbf_conversion(self):
        inj = FailureInjector.from_platform_mtbf(100, 60.0, RngFactory(0))
        assert inj.node_mtbf == pytest.approx(6000.0)
        assert inj.platform_mtbf == pytest.approx(60.0)

    def test_custom_distribution_rescaled(self):
        inj = FailureInjector.from_platform_mtbf(
            10, 60.0, RngFactory(0), distribution=Weibull(1.0, shape=0.7)
        )
        assert isinstance(inj.distribution, Weibull)
        assert inj.distribution.mean() == pytest.approx(600.0)

    def test_per_node_streams_independent(self):
        inj = FailureInjector(4, Exponential(100.0), RngFactory(1))
        draws = [inj.next_failure_delay(i) for i in range(4)]
        assert len(set(draws)) == 4

    def test_reproducible(self):
        a = FailureInjector(4, Exponential(100.0), RngFactory(1)).initial_failure_times()
        b = FailureInjector(4, Exponential(100.0), RngFactory(1)).initial_failure_times()
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ParameterError):
            FailureInjector(0, Exponential(1.0), RngFactory(0))
        inj = FailureInjector(2, Exponential(1.0), RngFactory(0))
        with pytest.raises(ParameterError):
            inj.next_failure_delay(5)
        with pytest.raises(ParameterError):
            FailureInjector.from_platform_mtbf(2, 0.0, RngFactory(0))


class TestTraces:
    def test_trace_sorted_and_bounded(self):
        inj = FailureInjector(8, Exponential(50.0), RngFactory(3))
        trace = generate_trace(inj, horizon=1000.0)
        assert np.all(np.diff(trace["time"]) >= 0)
        assert np.all(trace["time"] <= 1000.0)
        assert np.all((trace["node"] >= 0) & (trace["node"] < 8))

    def test_deterministic_counts(self):
        inj = FailureInjector(3, Deterministic(10.0), RngFactory(0))
        trace = generate_trace(inj, horizon=35.0)
        # Each node fails at 10, 20, 30 -> 9 failures.
        assert trace.shape[0] == 9

    def test_statistics_mtbf_estimate(self):
        n, m_platform = 50, 20.0
        inj = FailureInjector.from_platform_mtbf(n, m_platform, RngFactory(7))
        horizon = 50_000.0
        stats = trace_statistics(generate_trace(inj, horizon), horizon, n)
        assert stats.platform_mtbf == pytest.approx(m_platform, rel=0.1)
        assert stats.node_mtbf_estimate == pytest.approx(n * m_platform, rel=0.1)
        assert stats.interarrival_cv == pytest.approx(1.0, abs=0.1)  # Poisson

    def test_empty_trace(self):
        inj = FailureInjector(2, Deterministic(1e9), RngFactory(0))
        stats = trace_statistics(generate_trace(inj, 10.0), 10.0, 2)
        assert stats.count == 0
        assert stats.platform_mtbf == np.inf

    def test_validation(self):
        inj = FailureInjector(2, Exponential(1.0), RngFactory(0))
        with pytest.raises(ParameterError):
            generate_trace(inj, 0.0)
        with pytest.raises(ParameterError):
            trace_statistics(np.empty(0), -1.0, 2)


class TestGroupAssignments:
    def test_contiguous_pairs(self):
        a = contiguous_groups(6, 2)
        assert a.groups == ((0, 1), (2, 3), (4, 5))
        assert a.buddies(2) == (3,)
        assert a.group_of(5) == 2

    def test_contiguous_triples_rotation(self):
        a = contiguous_groups(6, 3)
        # §IV rotation: buddies(p) = (preferred, secondary).
        assert a.buddies(0) == (1, 2)
        assert a.buddies(1) == (2, 0)
        assert a.buddies(2) == (0, 1)

    def test_strided(self):
        a = strided_groups(6, 2)
        assert a.groups == ((0, 3), (1, 4), (2, 5))

    def test_random_is_partition(self):
        a = random_groups(30, 3, np.random.default_rng(0))
        seen = sorted(node for g in a.groups for node in g)
        assert seen == list(range(30))
        assert all(len(g) == 3 for g in a.groups)

    def test_random_reproducible(self):
        a = random_groups(10, 2, np.random.default_rng(5))
        b = random_groups(10, 2, np.random.default_rng(5))
        assert a.groups == b.groups

    def test_members_includes_self(self):
        a = contiguous_groups(4, 2)
        assert a.members(1) == (0, 1)

    @pytest.mark.parametrize("n,g", [(5, 2), (7, 3), (0, 2), (2, 1)])
    def test_validation(self, n, g):
        with pytest.raises(ParameterError):
            contiguous_groups(n, g)

    def test_assignment_rejects_non_partition(self):
        with pytest.raises(ParameterError):
            GroupAssignment(4, 2, ((0, 1), (1, 2)))
        with pytest.raises(ParameterError):
            GroupAssignment(4, 2, ((0, 1, 2), (3,)))


class TestTopologyAware:
    def test_ring_of_racks_structure(self):
        g = ring_of_racks(n_racks=3, nodes_per_rack=4)
        assert g.number_of_nodes() == 12
        assert g.nodes[5]["rack"] == 1
        # Intra-rack edges are distance 1.
        assert g.edges[4, 5]["distance"] == 1.0

    def test_groups_prefer_close_nodes(self):
        g = ring_of_racks(n_racks=2, nodes_per_rack=4)
        a = topology_aware_groups(g, 2)
        # Without anti-affinity, buddies stay intra-rack (distance 1).
        for group in a.groups:
            racks = {g.nodes[v]["rack"] for v in group}
            assert len(racks) == 1

    def test_anti_affinity_spreads_racks(self):
        g = ring_of_racks(n_racks=4, nodes_per_rack=2)
        a = topology_aware_groups(g, 2, anti_affinity="rack")
        for group in a.groups:
            racks = {g.nodes[v]["rack"] for v in group}
            assert len(racks) == 2  # never both in one failure domain

    def test_rejects_mislabelled_graph(self):
        import networkx as nx

        g = nx.path_graph([10, 11])
        with pytest.raises(ParameterError):
            topology_aware_groups(g, 2)

    def test_ring_validation(self):
        with pytest.raises(ParameterError):
            ring_of_racks(0, 4)

    def test_package_imports_without_networkx(self):
        """Only the two graph functions need ``networkx``: the CLI and
        the service import with it blocked, and load none of it."""
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro.cli, repro.service\n"
            "loaded = [m for m in sys.modules"
            " if m.split('.')[0] == 'networkx' and sys.modules[m] is not None]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})
