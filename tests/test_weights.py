"""Unit tests for relative performance weights."""

from __future__ import annotations

import pytest

from repro.core.weights import (
    capacity_normalized_loads,
    measure_weights,
    relative_weights,
)
from repro.distsys import build_system, multi_site_spec, parallel_spec


class TestRelativeWeights:
    def test_homogeneous_all_one(self):
        assert relative_weights([5.0, 5.0, 5.0]) == [1.0, 1.0, 1.0]

    def test_mean_is_one(self):
        w = relative_weights([1.0, 2.0, 3.0])
        assert sum(w) / len(w) == pytest.approx(1.0)

    def test_ratios_preserved(self):
        w = relative_weights([100.0, 300.0])
        assert w[1] / w[0] == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_weights([])
        with pytest.raises(ValueError):
            relative_weights([1.0, 0.0])


class TestMeasureWeights:
    def test_homogeneous_system(self):
        s = build_system(parallel_spec(4))
        w = measure_weights(s)
        assert w == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}

    def test_heterogeneous_system(self):
        s = build_system(multi_site_spec([1, 1], group_weights=[1.0, 3.0]))
        w = measure_weights(s)
        assert w[1] / w[0] == pytest.approx(3.0)
        assert sum(w.values()) / 2 == pytest.approx(1.0)


class TestCapacityNormalizedLoads:
    def test_weighted_balance_detected(self):
        loads = {0: 10.0, 1: 30.0}
        weights = {0: 1.0, 1: 3.0}
        norm = capacity_normalized_loads(loads, weights)
        assert norm[0] == pytest.approx(norm[1])

    def test_missing_weight_raises(self):
        with pytest.raises(ValueError):
            capacity_normalized_loads({0: 1.0}, {})
