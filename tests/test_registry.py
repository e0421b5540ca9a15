"""The scheme registry: specs, resolution, cache keys, and custom schemes.

Covers the registry contract promised by ``docs/SCHEMES.md``: a
``SchemeSpec`` round-trips through its dict form, unknown names fail with
a message listing what *is* registered, display labels are not names, and
a user-registered hybrid scheme
flows through ``run_paired`` / ``run_sweep`` / the result cache with zero
harness changes -- including a cache key distinct from every built-in.
"""

import warnings
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core import ComposedScheme
from repro.core.registry import (
    BUILTIN_SPECS,
    SEQUENTIAL,
    SchemeSpec,
    available_schemes,
    get_scheme_spec,
    make_scheme,
    register_scheme,
    scheme_cache_payload,
    unregister_scheme,
)
from repro.exec import ResultCache, SerialExecutor, task_key
from repro.harness import ExperimentConfig, run_experiment, run_paired, run_sweep

SMALL = ExperimentConfig(procs_per_group=1, steps=2)

BUILTINS = ("diffusion", "diffusion:dimex", "diffusion:sos", "distributed",
            "parallel", "sfc:hilbert", "sfc:morton", "static")

HYBRID = SchemeSpec(
    name="hybrid-diffusion",
    display="hybrid (gain/cost global + diffusion local)",
    weights="measured",
    decision="gain-cost",
    global_partition="proportional",
    local="diffusion",
    options={"sweeps": 2},
)


@pytest.fixture
def scratch_registry():
    """Register specs through this and they are removed again afterwards."""
    registered = []

    def _register(spec, **kwargs):
        register_scheme(spec, **kwargs)
        registered.append(spec.name)
        return spec

    yield _register
    for name in registered:
        unregister_scheme(name)


class TestSchemeSpec:
    def test_round_trip(self):
        data = HYBRID.to_dict()
        assert SchemeSpec.from_dict(data) == HYBRID

    def test_round_trip_is_plain_data(self):
        import json

        assert SchemeSpec.from_dict(
            json.loads(json.dumps(HYBRID.to_dict()))) == HYBRID

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            SchemeSpec.from_dict({"name": "x", "colour": "red"})

    def test_from_dict_requires_name(self):
        with pytest.raises(ValueError):
            SchemeSpec.from_dict({"weights": "nominal"})

    def test_unknown_component_rejected_per_axis(self):
        for axis in ("weights", "decision", "global_partition", "local"):
            with pytest.raises(ValueError, match=axis):
                SchemeSpec(name="x", **{axis: "bogus"})

    def test_always_decision_policy_rejected(self):
        """The gate-skipping ``always`` policy had no caller and is gone."""
        with pytest.raises(ValueError, match="decision"):
            SchemeSpec(name="x", decision="always")

    def test_label_falls_back_to_name(self):
        assert SchemeSpec(name="x").label == "x"
        assert HYBRID.label == HYBRID.display

    def test_options_are_copied(self):
        opts = {"sweeps": 3}
        spec = SchemeSpec(name="x", local="diffusion", options=opts)
        opts["sweeps"] = 99
        assert spec.options["sweeps"] == 3


class TestResolution:
    def test_builtins_registered(self):
        assert available_schemes() == BUILTINS

    def test_builtins_are_the_spec_table(self):
        assert tuple(sorted(s.name for s in BUILTIN_SPECS)) == BUILTINS
        for spec in BUILTIN_SPECS:
            assert get_scheme_spec(spec.name) is spec

    def test_make_scheme_builds_builtin_classes(self):
        for name in BUILTINS:
            scheme = make_scheme(name)
            assert type(scheme) is ComposedScheme
            assert scheme.spec == get_scheme_spec(name)
            assert scheme.name == get_scheme_spec(name).display

    def test_unknown_name_lists_registered_schemes(self):
        with pytest.raises(ValueError) as err:
            make_scheme("nope")
        message = str(err.value)
        assert "nope" in message
        for name in BUILTINS:
            assert name in message

    def test_display_label_is_not_a_name(self):
        with pytest.raises(ValueError, match="registered schemes"):
            make_scheme("parallel DLB")

    def test_canonical_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in BUILTINS:
                make_scheme(name)

    def test_duplicate_registration_rejected(self, scratch_registry):
        spec = scratch_registry(replace(HYBRID, name="dup-check"))
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(spec)
        register_scheme(replace(spec, local="greedy", options={}),
                        replace=True)
        assert get_scheme_spec("dup-check").local == "greedy"

    def test_register_takes_no_factory(self):
        with pytest.raises(TypeError):
            register_scheme(HYBRID, lambda spec: None)  # type: ignore[misc]
        assert HYBRID.name not in available_schemes()

    def test_sequential_name_reserved(self):
        with pytest.raises(ValueError):
            register_scheme(SchemeSpec(name=SEQUENTIAL))

    def test_make_scheme_accepts_unregistered_spec(self):
        spec = replace(HYBRID, name="ad-hoc")
        scheme = make_scheme(spec)
        assert isinstance(scheme, ComposedScheme)
        assert scheme.name == spec.label
        assert "ad-hoc" not in available_schemes()

    def test_unknown_option_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="typo"):
            make_scheme(SchemeSpec(name="x", options={"typo": 1}))


class TestCacheKeys:
    def test_every_registered_scheme_keys_differently(self):
        keys = {task_key(SMALL, name) for name in BUILTINS}
        keys.add(task_key(SMALL, SEQUENTIAL))
        assert len(keys) == len(BUILTINS) + 1

    def test_custom_scheme_key_distinct_from_builtins(self, scratch_registry):
        scratch_registry(HYBRID)
        key = task_key(SMALL, HYBRID.name)
        for other in (*BUILTINS, SEQUENTIAL):
            assert key != task_key(SMALL, other)

    def test_key_tracks_composition_not_name(self, scratch_registry):
        scratch_registry(replace(HYBRID, name="tmp"))
        first = task_key(SMALL, "tmp")
        unregister_scheme("tmp")
        scratch_registry(
            replace(HYBRID, name="tmp", local="sticky", options={}))
        assert task_key(SMALL, "tmp") != first

    def test_sequential_payload_is_pseudo_marker(self):
        assert scheme_cache_payload(SEQUENTIAL) == {"pseudo": SEQUENTIAL}

    def test_unknown_scheme_key_raises(self):
        with pytest.raises(ValueError, match="registered schemes"):
            task_key(SMALL, "nope")


class TestHybridEndToEnd:
    """A user-defined composition runs through the harness unchanged."""

    def test_run_experiment(self, scratch_registry):
        scratch_registry(HYBRID)
        result = run_experiment(SMALL, HYBRID.name)
        assert result.scheme == HYBRID.display
        assert result.total_time > 0

    def test_run_paired_with_diffusion_treatment(self):
        pair = run_paired(SMALL, schemes=("parallel", "diffusion"))
        assert pair.scheme_names == ("parallel", "diffusion")
        assert pair.parallel.scheme == "parallel DLB"
        assert pair.distributed.scheme == "diffusion DLB"

    def test_run_sweep_with_cache(self, scratch_registry, tmp_path):
        scratch_registry(HYBRID)
        cache = ResultCache(tmp_path)
        ex = SerialExecutor(cache=cache)
        cold = run_sweep(SMALL, procs_per_group=(1,),
                         schemes=("static", HYBRID.name), executor=ex)
        assert cache.hits == 0 and cache.misses == 2
        warm = run_sweep(SMALL, procs_per_group=(1,),
                         schemes=("static", HYBRID.name), executor=ex)
        assert cache.hits == 2
        assert (warm.pairs[0].distributed.total_time
                == cold.pairs[0].distributed.total_time)
        assert cold.pairs[0].distributed.scheme == HYBRID.display

    def test_scheme_pair_must_have_two_names(self):
        with pytest.raises(ValueError, match="two"):
            run_paired(SMALL, schemes=("parallel",))

    def test_cli_run_diffusion(self, capsys, tmp_path):
        rc = main(["run", "--scheme", "diffusion", "--procs", "1",
                   "--steps", "2", "--no-cache"])
        assert rc == 0
        assert "diffusion" in capsys.readouterr().out
