"""Unit tests for configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import SchemeParams, SimParams


class TestSimParams:
    def test_defaults_valid(self):
        p = SimParams()
        assert p.bytes_per_cell > 0
        assert p.ghost_width >= 0

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            SimParams().bytes_per_cell = 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"bytes_per_cell": 0},
            {"ghost_width": -1},
            {"parent_child_factor": -0.5},
            {"repartition_fixed_seconds": -1},
            {"repartition_seconds_per_grid": -1},
            {"regrid_seconds_per_grid": -1},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SimParams(**kw)


class TestSchemeParams:
    def test_paper_default_gamma(self):
        """'gamma is a user-defined parameter (default is 2.0)'."""
        assert SchemeParams().gamma == 2.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma": -1},
            {"imbalance_threshold": 0.9},
            {"local_tolerance": 0.0},
            {"local_tolerance": 1.0},
            {"max_local_moves": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SchemeParams(**kw)


NAN = float("nan")
INF = float("inf")


def _config_cases():
    """Every float field of every config class outside the service config,
    with the class's keyword arguments besides the field under test."""
    from repro.config import FaultParams, TraceParams
    from repro.harness import ExperimentConfig

    return [
        (SimParams, {}, "bytes_per_cell"),
        (SimParams, {}, "parent_child_factor"),
        (SimParams, {}, "repartition_fixed_seconds"),
        (SimParams, {}, "repartition_seconds_per_grid"),
        (SimParams, {}, "regrid_seconds_per_grid"),
        (SchemeParams, {}, "gamma"),
        (SchemeParams, {}, "imbalance_threshold"),
        (SchemeParams, {}, "local_tolerance"),
        (FaultParams, {"scenario": "slowdown"}, "start"),
        (FaultParams, {"scenario": "slowdown"}, "duration"),
        (FaultParams, {"scenario": "slowdown"}, "severity"),
        (TraceParams, {"source": "synth:hotspot"}, "intensity"),
        (ExperimentConfig, {}, "base_speed"),
        (ExperimentConfig, {}, "traffic_level"),
        (ExperimentConfig, {}, "gamma"),
    ]


class TestNonFiniteFloats:
    """NaN passes every ordered comparison, so each range check used to
    let it through and the run went on with a gate that never fires, an
    unfaulted window or a NaN time."""

    @pytest.mark.parametrize(
        "cls,kw,name", _config_cases(),
        ids=[f"{c.__name__}.{n}" for c, _, n in _config_cases()])
    def test_nan_rejected_by_name(self, cls, kw, name):
        with pytest.raises(ValueError, match=name):
            cls(**kw, **{name: NAN})

    @pytest.mark.parametrize("name", [
        "bytes_per_cell", "parent_child_factor", "repartition_fixed_seconds",
        "repartition_seconds_per_grid", "regrid_seconds_per_grid"])
    @pytest.mark.parametrize("value", [INF, -INF])
    def test_sim_params_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimParams(**{name: value})

    def test_meaningful_infinities_accepted(self):
        from repro.config import FaultParams
        from repro.harness import ExperimentConfig

        assert SchemeParams(gamma=INF, imbalance_threshold=INF).gamma == INF
        assert FaultParams(scenario="slowdown", duration=INF).end == INF
        assert ExperimentConfig(gamma=INF).effective_scheme_params().gamma == INF

    @pytest.mark.parametrize("cfg_kw", [
        {"gamma": INF},
        {"scheme_params": SchemeParams(imbalance_threshold=INF)},
    ], ids=["gamma", "imbalance_threshold"])
    def test_infinite_gate_never_fires(self, cfg_kw):
        from repro.harness import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(procs_per_group=2, steps=3, domain_cells=16,
                               max_levels=3, **cfg_kw)
        assert run_experiment(cfg, "distributed").redistributions == 0
