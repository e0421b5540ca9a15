"""Workload trace format: versioned, compact, deterministic (gzipped JSONL).

A trace captures the *workload signal* of one SAMR run -- everything a DLB
scheme consumes, nothing the solver computes.  Line 1 is a schema-validated
header; every following line is one record in hook order; the final line is
an ``end`` footer whose record count detects truncation.  See
``docs/TRACES.md`` for the full specification.

Record vocabulary (all coordinates are lattice integers, all floats are
JSON ``repr`` round-trips, i.e. bit-exact):

``global``    ``{"op", "t", "s"}`` -- one per coarse step, before its solve.
``solve``     ``{"op", "l", "q", "w"}`` -- one per solver sub-step:
              level, Fig. 2 sequence number, per-grid workloads in grid
              creation order.
``regrid``    ``{"op", "l", "t", "b", "wpc"}`` -- one per regrid of level
              ``l + 1``: the *cluster boxes* in level-``l`` coordinates
              (pre-clipping -- the scheme-independent signal) and the fine
              level's work per cell.
``local``     ``{"op", "l", "t"}`` -- local balance point (Fig. 5).
``end``       ``{"op", "n"}`` -- footer; ``n`` counts the preceding records.

Every field is type-checked on read and write (:func:`validate_record`), so
a hand-edited or corrupt value raises :class:`TraceFormatError` naming the
record, op and field instead of surfacing later as a bare ``TypeError`` or
a NaN.  Older version-1 files may also hold ``manifest`` records
(``{"op", "l", "v", "sib", "pc"}``, per-level copies of the message
volumes); :func:`read_trace` validates and drops them, because replay
derives message volumes from its own hierarchy.

Determinism: files are written with a zeroed gzip mtime and no filename
field, so identical traces are identical bytes -- which is what lets the
executor cache key replay runs by the trace file's sha256.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import reprlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..amr.box import Box
from ..amr.boxarray import BoxArray

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceFormatError",
    "TraceReplayError",
    "read_trace",
    "write_trace",
    "trace_file_hash",
    "encode_box",
    "decode_box",
    "decode_root",
    "validate_header",
    "validate_record",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_box(value: Any) -> bool:
    """``[[lo...], [hi...]]``: integer corners of equal rank >= 1 that fit
    in ``int64`` (the hierarchy's box arrays), ``hi >= lo``."""
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(c, list) and all(map(_is_int, c)) for c in value)
            and len(value[0]) == len(value[1]) >= 1
            and all(-2**63 <= lo <= hi < 2**63 for lo, hi in zip(*value)))


#: the per-level message-volume copies older recorders wrote; replay
#: derives message volumes from its own hierarchy instead
_DROPPED_OP = "manifest"

#: a field check and what it expects, for the error message
_Check = Tuple[Callable[[Any], bool], str]
_INT: _Check = (_is_int, "an integer")
_TIME: _Check = (_is_finite, "a finite number")
_LIST: _Check = (lambda v: isinstance(v, list), "a list")
_WPC: _Check = (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0")

#: record ops -> their required fields (beyond ``op``) -> check
_RECORD_FIELDS: Dict[str, Dict[str, _Check]] = {
    "global": {"t": _TIME, "s": _INT},
    "solve": {"l": _INT, "q": _INT,
              "w": (lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                    "a list of finite numbers")},
    "regrid": {"l": _INT, "t": _TIME,
               "b": (lambda v: isinstance(v, list) and all(map(_is_box, v)),
                     "a list of boxes [[lo...], [hi...]] of int64 corners "
                     "with hi >= lo"),
               "wpc": _WPC},
    "local": {"l": _INT, "t": _TIME},
    "end": {"n": _INT},
    # written by older recorders only: read and dropped, never written
    _DROPPED_OP: {"l": _INT, "v": _INT, "sib": _LIST, "pc": _LIST},
}

#: header fields whose values are range-checked once their types are
_HEADER_RANGES: Dict[str, _Check] = {
    "nsteps": (lambda v: v >= 0, ">= 0"),
    "dt0": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "root_wpc": _WPC,
}


class TraceFormatError(ValueError):
    """The file is not a valid repro workload trace (wrong format, corrupt
    compression, schema violation, or truncation)."""


class TraceReplayError(RuntimeError):
    """The trace and the replay desynchronised: the replayed hierarchy asked
    for a different hook sequence than the trace recorded (wrong step count,
    wrong scheme expectations in strict mode, exhausted records)."""


def encode_box(box: Box) -> List[List[int]]:
    """``Box`` -> ``[[lo...], [hi...]]`` (JSON-stable)."""
    return [list(box.lo), list(box.hi)]


def decode_box(data: Any) -> Box:
    """Inverse of :func:`encode_box`; raises :class:`TraceFormatError`.

    :func:`_is_box` checks everything ``Box`` would, so the box is built
    without checking it again.
    """
    if not _is_box(data):
        raise TraceFormatError(f"malformed box {data!r}")
    return Box._unchecked(tuple(data[0]), tuple(data[1]))


def _all_of(values: List[Any], base: type) -> bool:
    """Is every value a ``base``?  Bools are not ints here."""
    return all(issubclass(t, base) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _root_corners(root: List[Any], ndim: int) -> Optional[np.ndarray]:
    """``root`` as an ``(N, 2, ndim)`` ``int64`` array, or ``None`` if a
    box is malformed or has another rank."""
    if not (_all_of(root, list) and set(map(len, root)) <= {2}):
        return None
    corners = list(chain.from_iterable(root))
    if not (_all_of(corners, list) and set(map(len, corners)) <= {ndim}):
        return None
    values = list(chain.from_iterable(corners))
    if not _all_of(values, int):
        return None
    try:
        a = np.array(values, dtype=np.int64).reshape(len(root), 2, ndim)
    except OverflowError:
        return None
    return a if (a[:, 1] >= a[:, 0]).all() else None


def decode_root(root: List[Any], ndim: int) -> np.ndarray:
    """A header's ``root`` as one ``(N, 2, ndim)`` ``int64`` corner array.

    Rejects everything :func:`_is_box` rejects, raising
    ``TraceFormatError("malformed box ...")`` for the first bad box, and
    any box whose rank is not the domain's ``ndim``.  The check is one
    pass over the flattened lists and one array compare; only a rejected
    root is walked box by box, to name what is wrong.
    """
    corners = _root_corners(root, ndim)
    if corners is not None:
        return corners
    boxes = [decode_box(data) for data in root]
    k = next(k for k, box in enumerate(boxes) if box.ndim != ndim)
    raise TraceFormatError(
        f"trace header field 'root' holds a {boxes[k].ndim}-d box {root[k]!r} "
        f"in a {ndim}-d domain")


@dataclass
class Trace:
    """One recorded (or synthesised) workload trace: header + records.

    Equality is structural, so ``read_trace(write_trace(t)) == t`` -- the
    round-trip property the schema tests pin.
    """

    header: Dict[str, Any]
    records: List[Dict[str, Any]] = field(default_factory=list)

    # -- header accessors --------------------------------------------------

    @property
    def app(self) -> str:
        return self.header["app"]

    @property
    def scheme(self) -> str:
        """Registry name of the scheme the trace was recorded under
        (``"synth"`` for generated traces)."""
        return self.header["scheme"]

    @property
    def nsteps(self) -> int:
        return self.header["nsteps"]

    @property
    def dt0(self) -> float:
        return self.header["dt0"]

    @property
    def refinement_ratio(self) -> int:
        return self.header["refinement_ratio"]

    @property
    def max_levels(self) -> int:
        return self.header["max_levels"]

    @property
    def domain(self) -> Box:
        return decode_box(self.header["domain"])

    @property
    def root_boxes(self) -> BoxArray:
        return BoxArray(decode_root(self.header["root"], self.domain.ndim))

    @property
    def root_work_per_cell(self) -> float:
        return self.header["root_wpc"]

    @property
    def min_piece_cells(self) -> int:
        return self.header["min_piece_cells"]

    def describe(self) -> str:
        """One-line human summary."""
        return (f"{self.app} · {self.nsteps} steps · {self.max_levels} levels "
                f"· {len(self.records)} records · recorded under "
                f"{self.scheme!r}")


def validate_header(header: Any) -> Dict[str, Any]:
    """Check the header record; returns it or raises :class:`TraceFormatError`."""
    if not isinstance(header, dict):
        raise TraceFormatError(f"trace header must be an object, got {type(header).__name__}")
    if header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"not a repro workload trace (format={header.get('format')!r}, "
            f"expected {TRACE_FORMAT!r})"
        )
    if header.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {header.get('version')!r} "
            f"(this build reads version {TRACE_VERSION})"
        )
    required = {
        "app": str, "scheme": str, "nsteps": int, "dt0": (int, float),
        "refinement_ratio": int, "max_levels": int, "domain": list,
        "root": list, "root_wpc": (int, float), "min_piece_cells": int,
        "seed": int, "salt": str, "config_hash": str,
    }
    for key, types in required.items():
        if key not in header:
            raise TraceFormatError(f"trace header missing required field {key!r}")
        if not isinstance(header[key], types) or isinstance(header[key], bool):
            raise TraceFormatError(
                f"trace header field {key!r} has wrong type "
                f"{type(header[key]).__name__}"
            )
    for key, (check, expected) in _HEADER_RANGES.items():
        if not check(header[key]):
            raise TraceFormatError(
                f"trace header field {key!r} must be {expected}, "
                f"got {header[key]!r}")
    decode_root(header["root"], decode_box(header["domain"]).ndim)
    return header


def validate_record(record: Any, index: int) -> Dict[str, Any]:
    """Check one record line; returns it or raises :class:`TraceFormatError`
    naming the record index, op and offending field."""
    if not isinstance(record, dict):
        raise TraceFormatError(f"record {index} is not an object")
    op = record.get("op")
    if op not in _RECORD_FIELDS:
        raise TraceFormatError(
            f"record {index} has unknown op {op!r}; "
            f"expected one of {sorted(_RECORD_FIELDS)}"
        )
    for key, (check, expected) in _RECORD_FIELDS[op].items():
        if key not in record:
            raise TraceFormatError(f"record {index} ({op!r}) missing field {key!r}")
        if not check(record[key]):
            raise TraceFormatError(
                f"record {index} ({op!r}) field {key!r} must be {expected}, "
                f"got {reprlib.repr(record[key])}"
            )
    return record


# -------------------------------------------------------------------------- #
# IO
# -------------------------------------------------------------------------- #


def write_trace(trace: Trace, path: Union[str, Path]) -> int:
    """Write ``trace`` to ``path`` as deterministic gzipped JSONL.

    Appends the ``end`` footer; returns the compressed size in bytes.
    Identical traces produce identical bytes (gzip mtime is zeroed and keys
    are sorted), so the file's sha256 is a content address.
    """
    validate_header(trace.header)
    path = Path(path)

    def dump(obj: Any) -> bytes:
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")

    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as gz:
            gz.write(dump(trace.header))
            for i, record in enumerate(trace.records):
                if validate_record(record, i)["op"] == _DROPPED_OP:
                    raise TraceFormatError(
                        f"record {i}: {_DROPPED_OP!r} records are read and "
                        f"dropped, never written")
                gz.write(dump(record))
            gz.write(dump({"op": "end", "n": len(trace.records)}))
    return path.stat().st_size


def read_trace(path: Union[str, Path]) -> Trace:
    """Read and validate a trace file; raises :class:`TraceFormatError` on
    anything short of a complete, schema-valid trace (including a missing or
    miscounting ``end`` footer -- the truncation detector).  ``manifest``
    records of older files are validated, counted against the footer and
    dropped."""
    path = Path(path)
    lines: List[Any] = []
    try:
        with gzip.open(path, "rt", encoding="ascii") as fh:
            for i, line in enumerate(fh):
                try:
                    lines.append(json.loads(line))
                except ValueError as err:
                    raise TraceFormatError(
                        f"{path}: line {i + 1} is not valid JSON: {err}"
                    ) from None
    except TraceFormatError:
        raise
    except (OSError, EOFError, UnicodeDecodeError) as err:
        raise TraceFormatError(f"{path}: cannot read trace: {err}") from None
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    header = validate_header(lines[0])
    body = lines[1:]
    if not body or body[-1].get("op") != "end":
        raise TraceFormatError(
            f"{path}: truncated trace (missing 'end' footer)"
        )
    footer = body.pop()
    records = [validate_record(r, i) for i, r in enumerate(body)]
    if footer.get("n") != len(records):
        raise TraceFormatError(
            f"{path}: truncated trace (footer counts {footer.get('n')} "
            f"records, file holds {len(records)})"
        )
    return Trace(header=header,
                 records=[r for r in records if r["op"] != _DROPPED_OP])


def trace_file_hash(path: Union[str, Path]) -> str:
    """sha256 of the trace file bytes -- the content address replay cache
    keys embed (see ``TraceParams.content_hash``)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_header(
    *,
    app: str,
    scheme: str,
    nsteps: int,
    dt0: float,
    domain: Box,
    refinement_ratio: int,
    max_levels: int,
    root_boxes: BoxArray,
    root_wpc: float,
    min_piece_cells: int,
    seed: int,
    config: Any = None,
    config_hash: str = "",
) -> Dict[str, Any]:
    """Assemble a schema-valid trace header.

    ``config`` is the canonicalised recorded :class:`ExperimentConfig`
    payload (or ``None`` for synthetic traces); ``salt`` pins the package
    version + cache schema the trace was recorded with, for provenance --
    replay does not require it to match.
    """
    from ..exec.cache import CODE_VERSION_SALT

    return validate_header({
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "app": app,
        "scheme": scheme,
        "nsteps": int(nsteps),
        "dt0": float(dt0),
        "domain": encode_box(domain),
        "refinement_ratio": int(refinement_ratio),
        "max_levels": int(max_levels),
        "root": root_boxes.corners.tolist(),
        "root_wpc": float(root_wpc),
        "min_piece_cells": int(min_piece_cells),
        "seed": int(seed),
        "salt": CODE_VERSION_SALT,
        "config": config,
        "config_hash": config_hash,
    })
