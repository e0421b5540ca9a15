"""Refactored built-ins reproduce pre-refactor ``RunResult``s bit-for-bit.

``tests/data/golden_runresults.json`` was captured by running every
built-in scheme (plus the sequential reference) *before* the schemes were
rebuilt as policy compositions.  Each test re-runs the same configuration
through the composed schemes and compares the full serialized result --
every float, event, and per-step timing -- with exact equality.  Any
behavioural drift in the refactor fails here, not in a statistics test.
"""

import json
from pathlib import Path

import pytest

from repro.config import FaultParams, ServiceConfig
from repro.distsys import GroupSpec, SystemSpec, multi_site_spec, ring
from repro.harness import ExperimentConfig, run_experiment, run_sequential
from repro.harness.persist import run_result_to_dict

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_runresults.json").read_text())

_BASE = dict(procs_per_group=2, steps=3, domain_cells=16, max_levels=3)
_RING = ring(4)
CONFIGS = {
    "wan": ExperimentConfig(**_BASE),
    "lan": ExperimentConfig(app_name="amr64", network="lan", **_BASE),
    "faulted": ExperimentConfig(fault=FaultParams(scenario="slowdown"),
                                traffic_kind="bursty", **_BASE),
    # the other fault scenarios: bursty CPU weather (the scenario's own
    # burst probability), a link overlay on the bursty WAN, and both at once
    "cpu-load": ExperimentConfig(fault=FaultParams(scenario="cpu-load"),
                                 traffic_kind="bursty", **_BASE),
    "link-degraded": ExperimentConfig(
        fault=FaultParams(scenario="link-degraded"), traffic_kind="bursty",
        **_BASE),
    "mixed": ExperimentConfig(fault=FaultParams(scenario="mixed"),
                              traffic_kind="bursty", **_BASE),
    # the composite arrival preset's raw three-source sum exceeds the
    # arrival ceiling on 11 of the 60 ticks at seed 0, so this pins the
    # ceiling on the arrival rate; the dropout window pins the availability
    # floor of the dropped group
    "service": ExperimentConfig(service=ServiceConfig(arrivals="composite"),
                                fault=FaultParams(scenario="dropout"), **_BASE),
    # the feedback routers, entering at a middle site of three: requests
    # route to two remote groups, replica sets clip to the groups' two
    # members, dropout fills the overflow bucket, both schemes stall moved
    # shards' requests, and distributed splits 32 shards into 36
    **{
        f"service-{router}": ExperimentConfig(
            service=ServiceConfig(router=router, replication=3,
                                  gateway_group=1),
            fault=FaultParams(scenario="dropout"),
            system=multi_site_spec([2, 2, 2]), **_BASE)
        for router in ("ewma", "inverse-priority")
    },
    # a real neighbour graph: on the two-group configs every group pair is
    # adjacent, so only this one exercises the diffusion neighbour sets
    "ring": ExperimentConfig(
        system=SystemSpec(
            groups=tuple(GroupSpec(name=n, nprocs=2) for n in _RING.groups),
            topology=_RING),
        **_BASE),
    # three groups without a topology: a star whose spokes all carry the
    # one shared backbone link, and a mesh of independent per-pair links
    # under the two link-fault scenarios
    "star3": ExperimentConfig(system=SystemSpec(groups=(2, 2, 2)), **_BASE),
    "mesh3-link-degraded": ExperimentConfig(
        system=multi_site_spec([2, 2, 2]),
        fault=FaultParams(scenario="link-degraded"), traffic_kind="bursty",
        **_BASE),
    "mesh3-mixed": ExperimentConfig(
        system=multi_site_spec([2, 2, 2]),
        fault=FaultParams(scenario="mixed"), traffic_kind="bursty", **_BASE),
}


def _golden_keys():
    return sorted(GOLDEN["results"])


@pytest.mark.parametrize("key", _golden_keys())
def test_scheme_matches_golden(key):
    config_name, scheme = key.split("/")
    cfg = CONFIGS[config_name]
    if scheme == "sequential":
        result = run_sequential(cfg)
    else:
        result = run_experiment(cfg, scheme)
    assert run_result_to_dict(result) == GOLDEN["results"][key]


def test_golden_covers_every_builtin_scheme():
    from repro.core.registry import available_schemes

    covered = {key.split("/")[1] for key in GOLDEN["results"]}
    assert set(available_schemes()) <= covered
