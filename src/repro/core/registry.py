"""The scheme registry: every scheme name resolves here, and only here.

A scheme is a serializable :class:`SchemeSpec` -- one policy per axis --
registered under a short name (``"parallel"``, ``"distributed"``,
``"static"``, ``"diffusion"``, ... or anything a user adds); the built-ins
are the :data:`BUILTIN_SPECS` table, registered when this module is
imported.  :func:`make_scheme` composes every spec the same way, into a
:class:`~repro.core.composed.ComposedScheme`.  Everything that takes a
scheme name -- the CLI ``--scheme`` choices, ``repro.quick_run``, the
harness dispatchers and the result cache's content address -- resolves it
here, so registering a scheme once makes it reachable from
run/compare/sweep/faults/trace with zero harness changes.

>>> from repro.core.registry import SchemeSpec, register_scheme
>>> hybrid = SchemeSpec(name="dist-diffusion", weights="measured",
...                     decision="gain-cost", global_partition="proportional",
...                     local="diffusion")
>>> register_scheme(hybrid)                        # doctest: +SKIP
>>> run_sweep(cfg, schemes=("parallel", "dist-diffusion"))  # doctest: +SKIP

The spec -- not the bare name -- is what the result cache hashes
(:func:`scheme_cache_payload`), so re-registering a name with a different
composition can never serve stale cached results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple, Union

from .base import DLBScheme
from .composed import ComposedScheme
from .policies import POLICY_REGISTRIES, build_policies

__all__ = [
    "SEQUENTIAL",
    "BUILTIN_SPECS",
    "SchemeSpec",
    "register_scheme",
    "unregister_scheme",
    "available_schemes",
    "get_scheme_spec",
    "make_scheme",
    "scheme_cache_payload",
]

#: pseudo-scheme name for the one-processor ``E(1)`` reference run; it is
#: not a DLB scheme (nothing to balance on one processor) and therefore
#: never enters the registry, but the harness and cache accept it
SEQUENTIAL = "sequential"

_SPEC_FIELDS = ("name", "display", "weights", "decision", "global_partition",
                "local", "options")


@dataclass(frozen=True)
class SchemeSpec:
    """Serializable description of a scheme: a name plus one policy per axis.

    ``weights`` / ``decision`` / ``global_partition`` / ``local`` are short
    component names from :data:`~repro.core.policies.POLICY_REGISTRIES`;
    ``options`` carries constructor parameters routed to whichever policies
    accept them (e.g. ``{"sweeps": 2}`` for the diffusion local policy).
    ``display`` is the human-facing label (``RunResult.scheme``, obs span
    attributes); it defaults to the registry name.
    """

    name: str
    display: str = ""
    weights: str = "nominal"
    decision: str = "never"
    global_partition: str = "flat"
    local: str = "greedy"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scheme name must be non-empty")
        # freeze a private copy so a caller's dict can't mutate the spec
        object.__setattr__(self, "options", dict(self.options))
        for axis in ("weights", "decision", "global_partition", "local"):
            name = getattr(self, axis)
            if name not in POLICY_REGISTRIES[axis]:
                known = ", ".join(sorted(POLICY_REGISTRIES[axis]))
                raise ValueError(
                    f"scheme {self.name!r}: unknown {axis} policy {name!r} "
                    f"(known: {known})"
                )

    @property
    def label(self) -> str:
        """Display label, falling back to the registry name."""
        return self.display or self.name

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the canonical serialization the cache hashes)."""
        return {
            "name": self.name,
            "display": self.display,
            "weights": self.weights,
            "decision": self.decision,
            "global_partition": self.global_partition,
            "local": self.local,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SchemeSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        unknown = set(payload) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown SchemeSpec fields: {sorted(unknown)}")
        if "name" not in payload:
            raise ValueError("SchemeSpec payload must have a name")
        return cls(**dict(payload))


#: the built-in schemes; ``display`` labels feed ``RunResult.scheme`` and
#: every pinned result digest, so they never change
BUILTIN_SPECS: Tuple[SchemeSpec, ...] = (
    # the ICPP'01 baseline (Section 2.3): group-oblivious even balancing
    SchemeSpec(name="parallel", display="parallel DLB", weights="nominal",
               decision="never", global_partition="flat", local="greedy"),
    # the paper's contribution (Section 4): group-local phase plus the
    # gain/cost-gated global phase
    SchemeSpec(name="distributed", display="distributed DLB",
               weights="measured", decision="gain-cost",
               global_partition="proportional", local="group",
               options={"initial_delta": 0.05, "use_forecast": False}),
    # control: distribute once, children stay on the parent's processor
    SchemeSpec(name="static", display="static (no DLB)", weights="nominal",
               decision="never", global_partition="flat", local="sticky"),
    # Cybenko's first-order diffusion on the complete processor graph
    SchemeSpec(name="diffusion", display="diffusion DLB", weights="nominal",
               decision="never", global_partition="flat", local="diffusion",
               options={"sweeps": 1}),
    # topology-aware, whole-grid diffusion (Demirel & Sbalzarini)
    SchemeSpec(name="diffusion:sos", display="second-order diffusion DLB",
               weights="nominal", decision="never", global_partition="flat",
               local="diffusion-sos",
               options={"sweeps": 2, "beta": 1.6, "hysteresis": 0.02}),
    SchemeSpec(name="diffusion:dimex",
               display="dimension-exchange diffusion DLB", weights="nominal",
               decision="never", global_partition="flat",
               local="diffusion-dimex",
               options={"sweeps": 1, "hysteresis": 0.02}),
    # space-filling-curve cuts in both phases (Schornbaum & Rüde)
    SchemeSpec(name="sfc:morton", display="SFC Morton DLB", weights="measured",
               decision="gain-cost", global_partition="sfc", local="sfc",
               options={"curve": "morton", "initial_delta": 0.05,
                        "use_forecast": False}),
    SchemeSpec(name="sfc:hilbert", display="SFC Hilbert DLB",
               weights="measured", decision="gain-cost",
               global_partition="sfc", local="sfc",
               options={"curve": "hilbert", "initial_delta": 0.05,
                        "use_forecast": False}),
)

_REGISTRY: Dict[str, SchemeSpec] = {}


def register_scheme(spec: SchemeSpec, *, replace: bool = False) -> SchemeSpec:
    """Register ``spec`` under ``spec.name``; returns the spec for chaining.

    Re-registering a name raises unless ``replace=True`` (a silent
    overwrite would repoint every harness entry point at different
    behaviour).
    """
    if spec.name == SEQUENTIAL:
        raise ValueError(
            f"{SEQUENTIAL!r} is the reserved pseudo-scheme name"
        )
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"scheme {spec.name!r} is already registered "
            f"(pass replace=True to overwrite)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scheme(name: str) -> None:
    """Remove a registered scheme (primarily for test cleanup)."""
    _REGISTRY.pop(name, None)


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, sorted (the CLI ``--scheme`` vocabulary)."""
    return tuple(sorted(_REGISTRY))


def get_scheme_spec(name: str) -> SchemeSpec:
    """The registered spec for ``name``."""
    if name not in _REGISTRY:
        known = ", ".join(available_schemes())
        raise ValueError(
            f"unknown scheme {name!r}; registered schemes: {known}"
        )
    return _REGISTRY[name]


def make_scheme(scheme: Union[str, SchemeSpec]) -> DLBScheme:
    """Build a scheme instance from a registered name or an ad-hoc spec."""
    spec = scheme if isinstance(scheme, SchemeSpec) else get_scheme_spec(scheme)
    return ComposedScheme(spec, **build_policies(spec))


def scheme_cache_payload(scheme: str) -> Dict[str, Any]:
    """What the result cache hashes for a task's scheme.

    The full canonical spec rather than the bare name: two schemes
    registered under the same name with different policy compositions can
    never collide on a content address.  The ``sequential`` pseudo-scheme
    hashes a stable marker payload of its own.
    """
    if scheme == SEQUENTIAL:
        return {"pseudo": SEQUENTIAL}
    return get_scheme_spec(scheme).to_dict()


for _spec in BUILTIN_SPECS:
    register_scheme(_spec)
