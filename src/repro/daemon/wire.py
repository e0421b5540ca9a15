"""Marshalling between protocol payloads and harness objects.

The config wire form is the full-config JSON layout of
:mod:`repro.harness.persist` (every field, nested params included), so a
config submitted to the daemon deserialises equal to the original and the
executor's content-addressed cache keys agree between the daemon and the
in-process harness.  Partial dicts are fine -- missing fields take the
:class:`~repro.harness.experiment.ExperimentConfig` defaults -- and every
validation failure surfaces as a clean
:class:`~repro.daemon.protocol.MalformedRequestError` instead of killing
the connection.
"""

from __future__ import annotations

from typing import Any, Dict

from .jobs import JOB_KINDS, JobSpec
from .protocol import MalformedRequestError

__all__ = ["config_to_wire", "config_from_wire", "spec_from_payload",
           "spec_to_payload"]


def config_to_wire(config) -> Dict[str, Any]:
    """Full JSON form of an :class:`ExperimentConfig` (trace included)."""
    from ..harness.persist import _config_to_dict

    return _config_to_dict(config)


def config_from_wire(data: Any):
    """Rebuild an :class:`ExperimentConfig`; malformed input raises the
    protocol's typed error."""
    from ..harness.persist import _config_from_dict

    if not isinstance(data, dict):
        raise MalformedRequestError(
            f"job config must be a JSON object, got {type(data).__name__}"
        )
    try:
        return _config_from_dict(data)
    except (TypeError, ValueError) as err:
        raise MalformedRequestError(f"invalid job config: {err}") from None


def _known_scheme_names() -> tuple:
    from ..core.registry import SEQUENTIAL, available_schemes

    return (*available_schemes(), SEQUENTIAL)


def spec_from_payload(payload: Any) -> JobSpec:
    """Validate a submit payload's ``job`` object into a :class:`JobSpec`."""
    if not isinstance(payload, dict):
        raise MalformedRequestError(
            f"job must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind", "run")
    if kind not in JOB_KINDS:
        raise MalformedRequestError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    config = config_from_wire(payload.get("config", {}))
    known = _known_scheme_names()

    def check_scheme(name: Any) -> str:
        if name not in known:
            raise MalformedRequestError(
                f"unknown scheme {name!r}; registered: {sorted(known)}"
            )
        return name

    scheme = check_scheme(payload.get("scheme", "distributed"))
    try:
        priority = int(payload.get("priority", 0))
    except (TypeError, ValueError):
        raise MalformedRequestError("priority must be an integer") from None
    spec = JobSpec(
        kind=kind,
        config=config,
        scheme=scheme,
        priority=priority,
        use_cache=bool(payload.get("use_cache", True)),
        trace_spans=bool(payload.get("trace_spans", False)),
    )
    if kind == "sweep":
        if config.system is not None:
            raise MalformedRequestError(
                "sweep jobs vary procs_per_group of the two-level system; "
                "a config with a system spec cannot sweep (submit one run "
                "per spec instead)"
            )
        procs = payload.get("procs") or []
        if (not isinstance(procs, list) or not procs
                or not all(isinstance(p, int) and p >= 1 for p in procs)):
            raise MalformedRequestError(
                "sweep jobs need 'procs': a non-empty list of ints >= 1"
            )
        schemes = payload.get("schemes") or [scheme]
        if not isinstance(schemes, list) or not schemes:
            raise MalformedRequestError("sweep 'schemes' must be a non-empty list")
        spec.procs = tuple(procs)
        spec.schemes = tuple(check_scheme(s) for s in schemes)
    return spec


def spec_to_payload(spec: JobSpec) -> Dict[str, Any]:
    """Client-side: the submit payload's ``job`` object for a spec."""
    payload: Dict[str, Any] = {
        "kind": spec.kind,
        "config": config_to_wire(spec.config),
        "scheme": spec.scheme,
        "priority": spec.priority,
        "use_cache": spec.use_cache,
        "trace_spans": spec.trace_spans,
    }
    if spec.kind == "sweep":
        payload["procs"] = list(spec.procs)
        payload["schemes"] = list(spec.schemes)
    return payload
