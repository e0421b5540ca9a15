"""Shared fixtures: small, fast instances of every major object."""

from __future__ import annotations

import pytest

from repro.amr.applications import AMR64, BlastWave, ShockPool3D
from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.config import SchemeParams, SimParams
from repro.distsys import (
    ConstantTraffic,
    build_system,
    lan_spec,
    parallel_spec,
    wan_spec,
)
from repro.runtime import root_blocks


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the default result cache at a per-test temp dir.

    The CLI caches results under ``.repro_cache`` by default; during tests
    that must neither dirty the working directory nor leak state between
    tests.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


@pytest.fixture
def domain3d() -> Box:
    return Box.cube(0, 16, 3)


@pytest.fixture
def domain2d() -> Box:
    return Box.cube(0, 16, 2)


@pytest.fixture
def small_hierarchy(domain3d) -> GridHierarchy:
    """A 3-level hierarchy with four root slabs, no refinement yet."""
    h = GridHierarchy(domain3d, refinement_ratio=2, max_levels=3)
    h.create_root_grids(root_blocks(domain3d, (4, 1, 1)))
    return h


@pytest.fixture
def shockpool_app() -> ShockPool3D:
    return ShockPool3D(domain_cells=16, max_levels=3)


@pytest.fixture
def amr64_app() -> AMR64:
    return AMR64(domain_cells=16, max_levels=3, nclumps=8)


@pytest.fixture
def blastwave_app() -> BlastWave:
    return BlastWave(domain_cells=16, max_levels=3)


@pytest.fixture
def wan2x2():
    """Two groups of two processors over the shared WAN."""
    return build_system(wan_spec(2, base_speed=2.0e4), traffic=ConstantTraffic(0.3))


@pytest.fixture
def lan2x2():
    return build_system(lan_spec(2, base_speed=2.0e4), traffic=ConstantTraffic(0.3))


@pytest.fixture
def par4():
    """One dedicated four-processor machine."""
    return build_system(parallel_spec(4, base_speed=2.0e4))


@pytest.fixture
def sim_params() -> SimParams:
    return SimParams()


@pytest.fixture
def scheme_params() -> SchemeParams:
    return SchemeParams()
