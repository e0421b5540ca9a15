"""Unit tests for processors, groups and distributed systems."""

from __future__ import annotations

import pytest

from repro.distsys import (
    DistributedSystem,
    build_system,
    lan_spec,
    parallel_spec,
    wan_spec,
)
from repro.distsys.group import Group
from repro.distsys.network import gigabit_lan, mren_wan
from repro.distsys.processor import Processor


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
        assert g.capacity == 6.0
        assert g.nprocs == 3
        assert g.processor_weight == 2.0

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

    def test_group_of_and_is_remote(self):
        s = build_system(wan_spec(2))
        assert s.group_of(0).group_id == 0
        assert s.group_of(3).group_id == 1
        assert s.is_remote(0, 3)
        assert not s.is_remote(0, 1)

    def test_link_between(self):
        s = build_system(wan_spec(2))
        assert s.link_between(0, 0) is None
        assert s.link_between(0, 1) is s.groups[0].intra_link
        assert s.link_between(0, 2) is s.inter_link(0, 1)

    def test_inter_link_same_group_raises(self):
        s = build_system(wan_spec(2))
        with pytest.raises(ValueError):
            s.inter_link(0, 0)

    def test_capacity_fraction(self):
        s = build_system([2, 6], inter_link=mren_wan())
        assert s.capacity_fraction(0) == pytest.approx(0.25)
        assert s.capacity_fraction(1) == pytest.approx(0.75)

    def test_heterogeneous_groups(self):
        s = build_system([2, 2], inter_link=gigabit_lan(), group_weights=[1.0, 3.0])
        assert s.total_capacity == pytest.approx(8.0)
        assert s.capacity_fraction(1) == pytest.approx(0.75)

    def test_parallel_system_single_group(self):
        s = build_system(parallel_spec(8))
        assert s.ngroups == 1
        assert s.nprocs == 8
        assert not s.is_remote(0, 7)

    def test_missing_inter_link_raises(self):
        g0 = Group(0, "a", [Processor(0, 0)])
        g1 = Group(1, "b", [Processor(1, 1)])
        with pytest.raises(ValueError):
            DistributedSystem([g0, g1], {})

    def test_nondense_pids_raise(self):
        g0 = Group(0, "a", [Processor(0, 0)])
        g1 = Group(1, "b", [Processor(5, 1)])
        with pytest.raises(ValueError):
            DistributedSystem([g0, g1], {frozenset((0, 1)): mren_wan()})

    def test_group_id_mismatch_raises(self):
        g0 = Group(1, "a", [Processor(0, 1)])
        with pytest.raises(ValueError):
            DistributedSystem([g0])

    def test_multigroup_needs_link(self):
        with pytest.raises(ValueError):
            build_system([1, 1])

    def test_describe_mentions_groups(self):
        text = build_system(wan_spec(2)).describe()
        assert "ANL" in text and "NCSA" in text

    def test_lan_system_names(self):
        s = build_system(lan_spec(1))
        assert {g.name for g in s.groups} == {"ANL-1", "ANL-2"}
