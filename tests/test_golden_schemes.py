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

from repro.config import FaultParams
from repro.distsys import GroupSpec, SystemSpec, ring
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
    # a real neighbour graph: on the two-group configs every group pair is
    # adjacent, so only this one exercises the diffusion neighbour sets
    "ring": ExperimentConfig(
        system=SystemSpec(
            groups=tuple(GroupSpec(name=n, nprocs=2) for n in _RING.groups),
            topology=_RING),
        **_BASE),
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
