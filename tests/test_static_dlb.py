"""Unit/integration tests for the ``static`` reference scheme."""

from __future__ import annotations


from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.distsys.events import LocalBalanceEvent, RedistributionEvent
from repro.runtime import SAMRRunner


def run_static(steps=3):
    app = ShockPool3D(domain_cells=16, max_levels=3)
    system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.3))
    return SAMRRunner(app, system, make_scheme("static")).run(steps)


class TestStaticDLB:
    def test_runs_to_completion(self):
        r = run_static()
        assert r.total_time > 0
        assert r.scheme == "static (no DLB)"

    def test_no_balancing_events(self):
        r = run_static()
        # zero-move LocalBalanceEvents are logged by execute_moves only when
        # a scheme calls it; the static scheme never does
        assert r.events.of_type(LocalBalanceEvent) == []
        assert r.events.of_type(RedistributionEvent) == []
        assert r.balance_overhead == 0.0
        assert r.probe_time == 0.0

    def test_children_inherit_parent_processor(self):
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.3))
        runner = SAMRRunner(app, system, make_scheme("static"))
        runner.integrator.step()
        h, owners = runner.hierarchy, runner.assignment
        assert h.nlevels > 1
        for level in range(1, h.nlevels):
            parents = owners.owners(level - 1)[h.parent_rows(level)]
            assert owners.owners(level).tolist() == parents.tolist()

    def test_no_remote_ghost_from_parent_child(self):
        """Subtrees stay on one processor, so all parent-child traffic is
        processor-local (free)."""
        r = run_static()
        # any remote traffic is level-0 sibling exchange only
        assert r.remote_comm_busy < r.comm_time + 1e-9

    def test_dynamic_schemes_beat_static_on_moving_workload(self):
        """The whole point of DLB: adaptation-induced imbalance accumulates
        without it."""
        static = run_static(steps=4)
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.3))
        dist = SAMRRunner(app, system, make_scheme("distributed")).run(4)
        assert dist.total_time < static.total_time
