"""The declarative system API: ``SystemSpec`` -> ``build_system`` (PR satellite).

Pins the contract of :mod:`repro.distsys.spec`: specs round-trip through
plain JSON, the testbed helpers resolve into the paper's system shapes,
specs flow through ``ExperimentConfig.system`` into the
harness/cache/persist layers, and the CLI accepts ``--system`` as inline
JSON or a file path.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.cli import main
from repro.config import FaultParams
from repro.distsys import (
    LINK_PRESETS,
    ConstantTraffic,
    GroupSpec,
    SystemSpec,
    build_system,
    multi_site_spec,
    wan_spec,
)
from repro.exec import task_key
from repro.harness import ExperimentConfig, run_experiment, sequential_config
from repro.harness.experiment import make_faults, make_system
from repro.harness.persist import _config_from_dict, _config_to_dict

HETERO = SystemSpec(
    groups=(GroupSpec(nprocs=2, name="fast", weight=2.0),
            GroupSpec(nprocs=4, name="slow", base_speed=5e3)),
    inter_link="gigabit-lan",
    base_speed=2e4,
)


class TestSpecData:
    def test_round_trip(self):
        assert SystemSpec.from_dict(HETERO.to_dict()) == HETERO

    def test_round_trip_is_plain_json(self):
        data = json.loads(json.dumps(HETERO.to_dict()))
        assert SystemSpec.from_dict(data) == HETERO

    def test_fault_hook_round_trips(self):
        spec = replace(HETERO, fault=FaultParams(scenario="slowdown"))
        assert SystemSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            SystemSpec.from_dict({"groups": [{"nprocs": 1}], "colour": "red"})
        with pytest.raises(ValueError, match="unknown"):
            GroupSpec.from_dict({"nprocs": 1, "colour": "red"})

    def test_int_groups_shorthand(self):
        spec = SystemSpec(groups=(2, 2))
        assert spec.groups == (GroupSpec(nprocs=2), GroupSpec(nprocs=2))
        assert spec.label == "2+2"
        assert spec.nprocs == 4

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            HETERO.inter_link = "mren-wan"

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one group"):
            SystemSpec(groups=())
        with pytest.raises(ValueError, match="nprocs"):
            GroupSpec(nprocs=0)
        with pytest.raises(ValueError, match="weight"):
            GroupSpec(nprocs=1, weight=0.0)
        with pytest.raises(ValueError, match="preset"):
            GroupSpec(nprocs=1, intra_link="token-ring")
        with pytest.raises(ValueError, match="preset"):
            SystemSpec(groups=(1, 1), inter_link="token-ring")

    def test_link_presets_frozen_names(self):
        assert sorted(LINK_PRESETS) == ["gigabit-lan", "mren-wan", "origin2000"]


class TestResolver:
    def test_group_layout_and_speeds(self):
        system = build_system(HETERO)
        assert system.ngroups == 2 and system.nprocs == 6
        assert [g.name for g in system.groups] == ["fast", "slow"]
        # group 0 inherits the spec speed, weight applies multiplicatively
        assert system.processor(0).speed == pytest.approx(2.0 * 2e4)
        # group 1 pins its own base speed
        assert system.processor(2).speed == pytest.approx(5e3)

    def test_traffic_lands_on_inter_link(self):
        traffic = ConstantTraffic(0.4)
        system = build_system(wan_spec(2), traffic=traffic)
        assert system.inter_link(0, 1).traffic is traffic
        # intra links stay dedicated
        assert system.groups[0].intra_link.occupancy(0.0) == 0.0

    def test_independent_inter_links(self):
        system = build_system(multi_site_spec([1, 1, 1]))
        links = {tuple(sorted(pair)): link
                 for pair, link in system.inter_links.items()}
        assert [links[k].name for k in sorted(links)] == [
            "wan-0-1", "wan-0-2", "wan-1-2"]
        assert len({id(l) for l in links.values()}) == 3

    def test_shared_inter_link_is_one_instance(self):
        system = build_system(SystemSpec(groups=(1, 1, 1)))
        assert len({id(l) for l in system.inter_links.values()}) == 1

    def test_spec_rejects_legacy_keywords(self):
        with pytest.raises(TypeError, match="spec pins everything else"):
            build_system(wan_spec(2), group_names=["a", "b"])

    def test_legacy_path_rejects_traffic(self):
        with pytest.raises(TypeError, match="SystemSpec"):
            build_system([2], traffic=ConstantTraffic(0.1))


class TestLegacyShims:
    """What the removed ``*_system`` constructor shims guaranteed, checked on
    the spec helpers that replace them."""

    def test_wan_shim_keeps_link_parameters(self):
        link = build_system(wan_spec(1)).inter_link(0, 1)
        assert link.name == "mren-oc3-wan"
        assert link.latency == pytest.approx(5.0e-3)
        assert link.bandwidth == pytest.approx(19.0e6)

    def test_multi_site_needs_two_sites(self):
        with pytest.raises(ValueError, match="two sites"):
            multi_site_spec([4])


class TestHarnessWiring:
    def test_config_coerces_dict_spec(self):
        cfg = ExperimentConfig(system=HETERO.to_dict())
        assert cfg.system == HETERO

    def test_make_system_prefers_spec(self):
        cfg = ExperimentConfig(network="wan", procs_per_group=1, system=HETERO)
        system = make_system(cfg)
        assert [g.name for g in system.groups] == ["fast", "slow"]

    def test_make_system_fills_unpinned_base_speed(self):
        cfg = ExperimentConfig(system=SystemSpec(groups=(1, 1)))
        assert make_system(cfg).processor(0).speed == pytest.approx(
            cfg.base_speed)

    def test_spec_fault_hook_applies_when_config_has_none(self):
        spec = replace(HETERO, fault=FaultParams(scenario="slowdown"))
        assert make_faults(ExperimentConfig(system=spec)) is not None
        # an explicit config scenario wins
        cfg = ExperimentConfig(system=spec,
                               fault=FaultParams(scenario="dropout"))
        assert make_faults(cfg) is not None

    def test_sequential_config_clears_spec(self):
        cfg = ExperimentConfig(system=HETERO)
        assert sequential_config(cfg).system is None

    def test_cache_key_tracks_spec(self):
        base = ExperimentConfig(procs_per_group=1, steps=2)
        with_spec = replace(base, system=HETERO)
        other_spec = replace(base, system=replace(HETERO, base_speed=3e4))
        keys = {task_key(c, "distributed")
                for c in (base, with_spec, other_spec)}
        assert len(keys) == 3

    def test_persist_round_trip(self):
        cfg = ExperimentConfig(
            steps=2, system=replace(HETERO,
                                    fault=FaultParams(scenario="slowdown")))
        assert _config_from_dict(_config_to_dict(cfg)) == cfg

    def test_run_experiment_with_spec(self):
        cfg = ExperimentConfig(steps=2, system=SystemSpec(groups=(1, 1)))
        result = run_experiment(cfg, "distributed")
        assert result.total_time > 0


class TestCli:
    def test_inline_json(self, capsys):
        spec_json = json.dumps(SystemSpec(groups=(1, 1)).to_dict())
        rc = main(["run", "--scheme", "distributed", "--steps", "2",
                   "--system", spec_json, "--no-cache"])
        assert rc == 0
        assert "distributed" in capsys.readouterr().out

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(SystemSpec(groups=(1, 1)).to_dict()))
        rc = main(["run", "--scheme", "static", "--steps", "2",
                   "--system", str(path), "--no-cache"])
        assert rc == 0
