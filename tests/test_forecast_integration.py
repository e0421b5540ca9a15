"""Tests for NWS forecasting wired into the distributed scheme's cost model."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.amr.applications import ShockPool3D
from repro.core import get_scheme_spec, make_scheme
from repro.distsys import BurstyTraffic, ConstantTraffic, build_system, wan_spec
from repro.distsys.events import GlobalDecisionEvent, ProbeEvent
from repro.runtime import SAMRRunner


def distributed(use_forecast):
    """The paper's scheme with NWS forecasting of the probed link on/off."""
    spec = get_scheme_spec("distributed")
    return make_scheme(
        replace(spec, options={**spec.options, "use_forecast": use_forecast}))


def run_with(scheme, traffic, steps=4):
    app = ShockPool3D(domain_cells=16, max_levels=3)
    system = build_system(wan_spec(2, base_speed=2e4), traffic=traffic)
    runner = SAMRRunner(app, system, scheme)
    return runner.run(steps)


class TestForecastIntegration:
    def test_default_is_off(self):
        decision = make_scheme("distributed").decision_policy
        assert not decision.use_forecast
        assert decision._alpha_forecaster is None

    def test_forecast_scheme_completes(self):
        r = run_with(distributed(use_forecast=True), ConstantTraffic(0.3))
        assert r.total_time > 0
        assert r.events.of_type(GlobalDecisionEvent)

    def test_forecasters_fed_by_probes(self):
        scheme = distributed(use_forecast=True)
        r = run_with(scheme, ConstantTraffic(0.3))
        nprobes = len(r.events.of_type(ProbeEvent))
        if nprobes:
            assert scheme.decision_policy._alpha_forecaster.forecast() is not None
            assert scheme.decision_policy._beta_forecaster.forecast() is not None

    def test_constant_traffic_forecast_matches_probe(self):
        """On a static link the forecast converges to the probed truth, so
        both variants make identical decisions."""
        plain = run_with(distributed(use_forecast=False), ConstantTraffic(0.3))
        fc = run_with(distributed(use_forecast=True), ConstantTraffic(0.3))
        assert plain.redistributions == fc.redistributions
        assert plain.total_time == pytest.approx(fc.total_time, rel=1e-6)

    def test_bursty_traffic_smooths_cost_inputs(self):
        """Under bursty traffic the forecast variant still runs and decides;
        its decision count stays within one of the plain variant (the gate
        is robust, forecasting only refines the inputs)."""
        plain = run_with(
            distributed(use_forecast=False),
            BurstyTraffic(seed=5, base=0.1, burst=0.7, bucket_seconds=2.0),
            steps=5,
        )
        fc = run_with(
            distributed(use_forecast=True),
            BurstyTraffic(seed=5, base=0.1, burst=0.7, bucket_seconds=2.0),
            steps=5,
        )
        assert fc.total_time > 0
        assert abs(plain.redistributions - fc.redistributions) <= 2
