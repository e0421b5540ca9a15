"""The weight policy is the only place that decides what a processor is worth.

Group capacities, targets and the gain used to pick nominal or measured
weights themselves, by branching on an optional ``time``.  The reference
functions below keep those branches as they were; the hypothesis test
shows that the pid-indexed array a weight policy returns reproduces them
bit for bit on random heterogeneous systems, with and without external
load.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SchemeParams
from repro.core.gain import WorkloadHistory, estimate_gain
from repro.core.policies import GainCostDecision, MeasuredWeights, NominalWeights
from repro.core.registry import SchemeSpec, register_scheme, unregister_scheme
from repro.distsys import BurstyTraffic, GroupSpec, SystemSpec, build_system
from repro.distsys.traffic import NoTraffic
from repro.faults import CpuLoadFault, FaultSchedule, SlowdownFault
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.persist import run_result_to_dict
from repro.partition import (
    group_capacities,
    group_targets,
    processor_targets,
    proportional_shares,
)

# --------------------------------------------------------------------- #
# reference: the nominal/measured branches the weight policy replaced
# --------------------------------------------------------------------- #


def _capacity_reference(group):
    """Former ``Group.capacity``: the nominal ``n_g * p_g``."""
    return sum(p.weight for p in group.processors)


def _capacity_at_reference(group, time):
    """Former ``Group.capacity_at``, all-idle shortcut included."""
    if all(isinstance(p.load, NoTraffic) for p in group.processors):
        return _capacity_reference(group)
    return sum(p.weight * p.availability(time) for p in group.processors)


def _group_targets_reference(system, total, time=None):
    """Former ``group_targets(system, total, time)``."""
    caps = [
        _capacity_reference(g) if time is None else _capacity_at_reference(g, time)
        for g in system.groups
    ]
    shares = proportional_shares(total, caps)
    return {g.group_id: share for g, share in zip(system.groups, shares)}


def _processor_targets_reference(system, total, time=None):
    """Former ``processor_targets(system, total, time)``."""
    procs = system.processors
    weights = [
        p.weight if time is None else p.weight * p.availability(time)
        for p in procs
    ]
    shares = proportional_shares(total, weights)
    return {p.pid: share for p, share in zip(procs, shares)}


def _estimate_gain_reference(history, system, time=None):
    """Former ``estimate_gain(history, system, time)``."""
    rec = history.last_complete
    if rec is None:
        return 0.0
    totals = dict(enumerate(rec.group_totals(system).tolist()))
    if not totals:
        return 0.0
    if time is not None:
        caps = {g: _capacity_at_reference(system.groups[g], time) for g in totals}
        cap_total = sum(caps.values())
        n = len(totals)
        if cap_total > 0.0:
            totals = {
                g: totals[g] * cap_total / (n * caps[g])
                for g in totals
                if caps[g] > 0.0
            }
            if not totals:
                return 0.0
    w_max = max(totals.values())
    w_min = min(totals.values())
    if w_max <= 0.0:
        return 0.0
    return rec.walltime * (w_max - w_min) / (len(totals) * w_max)


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #


@st.composite
def systems(draw):
    """1-4 groups of 1-5 processors, weights in [0.1, 4], optionally under
    bursty CPU load or a slowdown window on one group."""
    shape = draw(st.lists(
        st.tuples(st.integers(1, 5), st.floats(0.1, 4.0)),
        min_size=1, max_size=4))
    system = build_system(SystemSpec(
        groups=tuple(GroupSpec(nprocs=n, weight=w) for n, w in shape)))
    kind = draw(st.sampled_from([None, "cpu-load", "slowdown"]))
    if kind is None:
        return system
    group = draw(st.integers(0, len(shape) - 1))
    if kind == "cpu-load":
        fault = CpuLoadFault(group=group, model=BurstyTraffic(
            seed=draw(st.integers(0, 99)), base=0.2, burst=0.75,
            burst_probability=0.25, bucket_seconds=5.0))
    else:
        start = draw(st.floats(0.0, 15.0))
        fault = SlowdownFault(group=group, start=start,
                              end=start + draw(st.floats(1.0, 10.0)),
                              factor=draw(st.floats(1.5, 8.0)))
    return FaultSchedule([fault]).apply(system)


@st.composite
def histories(draw, system):
    """One completed coarse step over two levels."""
    loads = st.floats(0.0, 100.0)
    history = WorkloadHistory()
    history.record_solve(0, np.array([draw(loads) for _ in system.processors]))
    for _ in range(draw(st.integers(0, 2))):
        history.record_solve(
            1, np.array([draw(loads) for _ in system.processors]))
    history.end_coarse_step(draw(st.floats(0.0, 20.0)))
    return history


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(system=systems(), time=st.floats(0.0, 20.0),
       total=st.floats(0.0, 1e4), data=st.data())
def test_policy_weights_reproduce_the_time_branches(system, time, total, data):
    nominal = NominalWeights().processor_weights(system, time)
    measured = MeasuredWeights().processor_weights(system, time)

    def by_index(values):
        return dict(enumerate(values.tolist()))

    # nominal weights: the former time=None branches
    assert by_index(group_capacities(system, nominal)) == {
        g.group_id: _capacity_reference(g) for g in system.groups}
    assert by_index(group_targets(system, total, nominal)) == \
        _group_targets_reference(system, total)
    assert by_index(processor_targets(system, total, nominal)) == \
        _processor_targets_reference(system, total)

    # measured weights at t: the former time=t branches
    caps = group_capacities(system, measured)
    assert by_index(caps) == {
        g.group_id: _capacity_at_reference(g, time) for g in system.groups}
    assert by_index(group_targets(system, total, measured)) == \
        _group_targets_reference(system, total, time)
    assert by_index(processor_targets(system, total, measured)) == \
        _processor_targets_reference(system, total, time)

    # Eq. 4: raw without capacities, normalised with the measured ones
    history = data.draw(histories(system))
    assert estimate_gain(history, system) == \
        _estimate_gain_reference(history, system)
    assert estimate_gain(history, system, caps) == \
        _estimate_gain_reference(history, system, time)


def test_gate_sees_the_same_gain_under_equal_weights():
    """Weights 2, 2, 1, 1 with equal loads: the groups are imbalanced
    relative to their capacities.  Both policies return these weights, so
    the gate must detect the imbalance and see the same gain under both
    (the nominal one used to see the raw Eq. 4 gain of 0)."""
    system = build_system(SystemSpec(groups=(
        GroupSpec(nprocs=2, weight=2.0), GroupSpec(nprocs=2, weight=1.0))))
    history = WorkloadHistory()
    history.record_solve(0, np.full(system.nprocs, 10.0))
    history.end_coarse_step(5.0)
    ctx = SimpleNamespace(system=system, history=history,
                          scheme_params=SchemeParams())
    gate = GainCostDecision()
    for policy in (NominalWeights(), MeasuredWeights()):
        weights = policy.processor_weights(system, 3.0)
        assert gate.imbalance_exists(ctx, weights)
        # capacities 4 and 2: normalised totals 15 and 30, T = 5
        assert gate.estimate_gain(ctx, weights) == 1.25


@pytest.fixture
def nominal_dist():
    """The distributed scheme with nominal instead of measured weights."""
    spec = register_scheme(SchemeSpec(
        name="nominal-dist", weights="nominal", decision="gain-cost",
        global_partition="proportional", local="group",
        options={"initial_delta": 0.05, "use_forecast": False}))
    yield spec.name
    unregister_scheme(spec.name)


def test_equal_weights_make_equal_decisions(nominal_dist):
    """Without faults, nominal and measured weights are the same mapping,
    so the two compositions must run identically."""
    cfg = ExperimentConfig(
        app_name="shockpool3d",
        system=SystemSpec(groups=(GroupSpec(nprocs=2, weight=2.0),
                                  GroupSpec(nprocs=3, weight=0.7))),
        steps=4, domain_cells=16, max_levels=3)
    runs = []
    for scheme in (nominal_dist, "distributed"):
        result = run_result_to_dict(run_experiment(cfg, scheme))
        result.pop("scheme")
        runs.append(result)
    assert runs[0]["redistributions"] == 2
    assert runs[0] == runs[1]
