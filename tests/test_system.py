"""Unit tests for processors, groups and distributed systems."""

from __future__ import annotations

import pytest

from repro.distsys import (
    DistributedSystem,
    GroupSpec,
    NetworkTopology,
    SystemSpec,
    TopologyEdge,
    build_system,
    lan_spec,
    parallel_spec,
    wan_spec,
)
from repro.distsys.group import Group
from repro.distsys.network import mren_wan
from repro.distsys.processor import Processor
from repro.partition import group_capacities


def nominal_capacities(system):
    """Group id -> ``n_g * p_g``."""
    return dict(enumerate(
        group_capacities(system, system.weight_by_pid).tolist()))


def _two_node_topology(edges=True) -> NetworkTopology:
    """Group nodes ``a`` and ``b``, joined by one WAN edge unless ``edges``
    is false."""
    links = [TopologyEdge("a--b", 0, 1, mren_wan())] if edges else []
    return NetworkTopology(["a", "b"], [0, 1], links)


class TestProcessor:
    def test_speed(self):
        p = Processor(0, 0, weight=2.0, base_speed=1e6)
        assert p.speed == 2e6

    def test_execution_time(self):
        p = Processor(0, 0, weight=1.0, base_speed=1e6)
        assert p.execution_time(5e5) == pytest.approx(0.5)

    def test_zero_work_is_free(self):
        assert Processor(0, 0).execution_time(0.0) == 0.0

    def test_negative_work_raises(self):
        with pytest.raises(ValueError):
            Processor(0, 0).execution_time(-1.0)

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            Processor(-1, 0)
        with pytest.raises(ValueError):
            Processor(0, 0, weight=0)
        with pytest.raises(ValueError):
            Processor(0, 0, base_speed=0)


class TestGroup:
    def test_capacity(self):
        procs = [Processor(i, 0, weight=2.0) for i in range(3)]
        g = Group(0, "g", procs)
        assert g.nprocs == 3
        assert g.processor_weight == 2.0
        s = build_system(SystemSpec(groups=(GroupSpec(nprocs=3, weight=2.0),)))
        assert nominal_capacities(s) == {0: 6.0}

    def test_empty_group_raises(self):
        with pytest.raises(ValueError):
            Group(0, "g", [])

    def test_wrong_group_id_raises(self):
        with pytest.raises(ValueError):
            Group(0, "g", [Processor(0, 1)])

    def test_heterogeneous_group_raises(self):
        """A group is homogeneous by the paper's definition."""
        procs = [Processor(0, 0, weight=1.0), Processor(1, 0, weight=2.0)]
        with pytest.raises(ValueError):
            Group(0, "g", procs)


class TestDistributedSystem:
    def test_wan_shape(self):
        s = build_system(wan_spec(2))
        assert s.ngroups == 2
        assert s.nprocs == 4
        assert [p.pid for p in s.processors] == [0, 1, 2, 3]

    def test_pid_groups(self):
        s = build_system(wan_spec(2))
        assert s.pid_groups.tolist() == [0, 0, 1, 1]
        assert [p.group_id for p in s.processors] == [0, 0, 1, 1]

    def test_route_between(self):
        s = build_system(wan_spec(2))
        route = s.route_between(0, 1)
        assert len(route.links) == 1
        assert s.route_between(1, 0).links == route.links
        assert route.links[0] is not s.groups[0].intra_link

    def test_inter_link_same_group_raises(self):
        s = build_system(wan_spec(2))
        with pytest.raises(ValueError):
            s.route_between(0, 0)

    def test_capacity_fraction(self):
        s = build_system(SystemSpec(groups=(2, 6)))
        caps = nominal_capacities(s)
        assert caps[0] / sum(caps.values()) == pytest.approx(0.25)
        assert caps[1] / sum(caps.values()) == pytest.approx(0.75)

    def test_heterogeneous_groups(self):
        s = build_system(SystemSpec(
            groups=(GroupSpec(nprocs=2, weight=1.0),
                    GroupSpec(nprocs=2, weight=3.0)),
            inter_link="gigabit-lan"))
        caps = nominal_capacities(s)
        assert sum(caps.values()) == pytest.approx(8.0)
        assert caps[1] / sum(caps.values()) == pytest.approx(0.75)

    def test_parallel_system_single_group(self):
        s = build_system(parallel_spec(8))
        assert s.ngroups == 1
        assert s.nprocs == 8
        assert set(s.pid_groups.tolist()) == {0}

    def test_missing_inter_link_raises(self):
        g0 = Group(0, "a", [Processor(0, 0)])
        g1 = Group(1, "b", [Processor(1, 1)])
        with pytest.raises(ValueError, match="no path"):
            DistributedSystem([g0, g1], _two_node_topology(edges=False))

    def test_nondense_pids_raise(self):
        g0 = Group(0, "a", [Processor(0, 0)])
        g1 = Group(1, "b", [Processor(5, 1)])
        with pytest.raises(ValueError):
            DistributedSystem([g0, g1], _two_node_topology())

    def test_group_id_mismatch_raises(self):
        g0 = Group(1, "a", [Processor(0, 1)])
        with pytest.raises(ValueError):
            DistributedSystem([g0], NetworkTopology(["a"], [0], []))

    def test_multigroup_needs_link(self):
        """Every group needs a node in the network graph."""
        g0 = Group(0, "a", [Processor(0, 0)])
        g1 = Group(1, "b", [Processor(1, 1)])
        with pytest.raises(ValueError, match="group node"):
            DistributedSystem([g0, g1], NetworkTopology(["a"], [0], []))

    def test_build_system_takes_only_a_spec(self):
        with pytest.raises(TypeError, match="SystemSpec"):
            build_system([1, 1])

    def test_describe_mentions_groups(self):
        text = build_system(wan_spec(2)).describe()
        assert "ANL" in text and "NCSA" in text

    def test_lan_system_names(self):
        s = build_system(lan_spec(1))
        assert {g.name for g in s.groups} == {"ANL-1", "ANL-2"}
