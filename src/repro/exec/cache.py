"""Content-addressed, on-disk cache of experiment results.

Every ``(ExperimentConfig, scheme)`` run of the simulator is fully
deterministic, so its result is a pure function of the configuration.  This
module hashes a *canonical* recursive serialization of the config (nested
``SimParams`` / ``SchemeParams`` / ``FaultParams`` included), the scheme's
registered :class:`~repro.core.registry.SchemeSpec` and a code-version salt
into a key, and stores the result as JSON under
``<cache_dir>/<key[:2]>/<key>.json`` -- the layout used by git's loose
object store, keeping directories small for big sweeps.

Invalidation rules (see docs/PERFORMANCE.md):

* any config field change -- including inside nested dataclasses -- changes
  the key;
* the scheme's full policy composition (not just its name) is part of the
  key, via :func:`repro.core.registry.scheme_cache_payload` -- so a custom
  scheme registered under a reused name can never be served another
  scheme's results;
* the salt folds in the package version and a cache schema version, so
  bumping either orphans old entries (they are simply never hit again);
* unreadable, truncated or wrong-version entries are treated as misses and
  overwritten, never trusted.

Cached entries hold the persisted form of a :class:`RunResult`
(``run_result_to_dict``), which summarises the event log to per-type counts.
A cache hit therefore returns a result with ``events=None``; consumers that
need the full event log (timeline rendering, resilience metrics) must
execute fresh -- :class:`repro.exec.ExecTask` has a ``use_cache`` switch for
exactly that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Union

from .. import __version__

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CODE_VERSION_SALT",
    "ResultCache",
    "canonical_value",
    "canonical_json",
    "task_key",
    "default_cache_dir",
]

#: bump when the cached payload layout (or run semantics) change; folded
#: into every key, so old entries silently become unreachable.
#: v2: keys hash the scheme's canonical SchemeSpec instead of its bare name
#: v3: configs gained the trace field (replayed runs share the key space,
#: keyed by trace content hash)
#: v4: configs gained the declarative system field (a SystemSpec hashes
#: into the key like any nested dataclass)
#: v5: configs gained the service field (serving-simulator runs; cached
#: run dicts can carry a ``service`` report)
#: v6: a ``sequential`` task runs ``sequential_config`` of its config, so
#: an un-normalised config's entry may now hold a different ``E(1)``
#: v7: the gain/cost gate normalises Eq. 4 by group capacity under every
#: weight policy, so a custom composition pairing ``nominal`` weights with
#: ``gain-cost`` may now decide differently
CACHE_SCHEMA_VERSION = 7

#: the code-version salt: results are only reused within the same package
#: version and cache schema
CODE_VERSION_SALT = f"repro-{__version__}/cache-v{CACHE_SCHEMA_VERSION}"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache`` under the cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path(".repro_cache")


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, safely under concurrency.

    Each writer gets its *own* temp file (``tempfile.mkstemp`` in the
    target directory, so the final ``os.replace`` stays a same-filesystem
    rename) -- a fixed ``.tmp`` name would let two concurrent writers
    interleave write/rename and publish a torn file.
    """
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def canonical_value(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable canonical form.

    Dataclasses become ``{"__dataclass__": <classname>, <field>: ...}`` with
    every field canonicalised recursively -- the class name is included so
    two dataclasses with identical fields hash differently.  Tuples become
    lists, dict keys are emitted in sorted order by :func:`canonical_json`.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__dataclass__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical_value(getattr(obj, f.name))
        if out["__dataclass__"] == "TraceParams" and out.get("content_hash"):
            # a pinned content hash IS the trace identity; dropping the
            # path makes the key follow the bytes, not their location
            out["source"] = "<content-addressed>"
        return out
    if isinstance(obj, dict):
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for cache keying")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of :func:`canonical_value` (sorted keys,
    no whitespace)."""
    return json.dumps(canonical_value(obj), sort_keys=True, separators=(",", ":"))


def task_key(config: Any, scheme: str, salt: str = CODE_VERSION_SALT) -> str:
    """SHA-256 content address of one ``(config, scheme)`` run.

    ``scheme`` is resolved through the registry to its canonical
    :class:`~repro.core.registry.SchemeSpec` serialization (the
    ``"sequential"`` pseudo-scheme hashes a marker payload), so the address
    captures the scheme's actual policy composition.  Unknown scheme names
    raise the registry's ``ValueError`` -- the same error the run itself
    would hit, just before any work is done.
    """
    from ..core.registry import scheme_cache_payload

    text = (f"{salt}\n{canonical_json(scheme_cache_payload(scheme))}\n"
            f"{canonical_json(config)}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """JSON-on-disk store of run results, keyed by content address.

    Counters (``hits`` / ``misses`` / ``stores``) accumulate over the cache
    object's lifetime and feed the executor's stats.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise ValueError(
                f"cache dir {self.cache_dir} exists and is not a directory"
            )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: counters already folded into the on-disk metrics file
        self._flushed = {"exec.cache_hits": 0, "exec.cache_misses": 0,
                         "exec.cache_stores": 0}

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def _load(self, key: str):
        """The validated on-disk payload for ``key``, or ``None`` (counted
        as a miss: missing, unparsable, wrong schema version, wrong key)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            payload.get("format") != CACHE_SCHEMA_VERSION
            or payload.get("kind") != "cache-entry"
            or payload.get("key") != key
            or not isinstance(payload.get("run"), dict)
        ):
            self.misses += 1
            return None
        return payload

    def get(self, key: str):
        """Return the cached :class:`RunResult` for ``key`` or ``None``.

        Any malformed entry (unparsable, wrong schema version, wrong key)
        counts as a miss.
        """
        from ..harness.persist import run_result_from_dict

        payload = self._load(key)
        if payload is None:
            return None
        try:
            result = run_result_from_dict(payload["run"])
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def get_run_dict(self, key: str):
        """The stored run dict for ``key``, verbatim, or ``None``.

        This is the exact ``run_result_to_dict`` form :meth:`put` wrote
        (``event_counts`` included), which :meth:`get`'s reconstructed
        :class:`RunResult` cannot reproduce -- its event log is gone.  The
        serving daemon streams this form so cache hits are bit-identical
        to fresh runs.
        """
        payload = self._load(key)
        if payload is None:
            return None
        self.hits += 1
        return payload["run"]

    def put(self, key: str, result) -> None:
        """Store ``result`` under ``key``.

        The write is atomic *per writer*: each goes to a uniquely named
        temp file in the entry's directory, then ``os.replace``s it into
        place, so concurrent writers (the serving daemon's worker
        processes, parallel executors sharing one cache dir) race only on
        who lands last -- readers always see a complete entry.
        """
        from ..harness.persist import run_result_to_dict

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        run = run_result_to_dict(result)
        # observability payloads are per-execution artifacts, not part of
        # the content-addressed result: dropping them keeps cache hits
        # bit-identical to fresh untraced runs
        run.pop("metrics", None)
        payload = {
            "format": CACHE_SCHEMA_VERSION,
            "kind": "cache-entry",
            "key": key,
            "salt": CODE_VERSION_SALT,
            "run": run,
        }
        _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))
        self.stores += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def entry_count(self) -> int:
        """Number of entries on disk."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def total_bytes(self) -> int:
        """Total size of all entries on disk."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.cache_dir.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for p in self.cache_dir.glob("*/*.json"):
                p.unlink()
                removed += 1
        return removed

    # -- lifetime metrics -------------------------------------------------

    @property
    def _metrics_path(self) -> Path:
        # lives at the cache root, outside the */*.json entry layout, so
        # entry_count/total_bytes/clear never see it
        return self.cache_dir / "metrics.json"

    def lifetime_metrics(self) -> Dict[str, int]:
        """Cumulative ``exec.cache_*`` counters across every process that
        used this cache directory (unflushed activity of *this* object
        included)."""
        totals = self._read_metrics_file()
        totals["exec.cache_hits"] += self.hits - self._flushed["exec.cache_hits"]
        totals["exec.cache_misses"] += self.misses - self._flushed["exec.cache_misses"]
        totals["exec.cache_stores"] += self.stores - self._flushed["exec.cache_stores"]
        return totals

    def _read_metrics_file(self) -> Dict[str, int]:
        try:
            data = json.loads(self._metrics_path.read_text())
            counters = data.get("counters", {})
        except (OSError, ValueError, AttributeError):
            counters = {}
        return {
            name: int(counters.get(name, 0))
            for name in ("exec.cache_hits", "exec.cache_misses",
                         "exec.cache_stores")
        }

    def flush_metrics(self) -> None:
        """Fold activity since the last flush into the on-disk counters.

        Best-effort (a read-only cache directory must not fail the run);
        concurrent writers may lose increments, never corrupt the file.
        """
        deltas = {
            "exec.cache_hits": self.hits - self._flushed["exec.cache_hits"],
            "exec.cache_misses": self.misses - self._flushed["exec.cache_misses"],
            "exec.cache_stores": self.stores - self._flushed["exec.cache_stores"],
        }
        if not any(deltas.values()):
            return
        totals = self._read_metrics_file()
        for name, delta in deltas.items():
            totals[name] += delta
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(self._metrics_path,
                               json.dumps({"counters": totals}, indent=2,
                                          sort_keys=True))
        except OSError:
            return
        self._flushed = {"exec.cache_hits": self.hits,
                         "exec.cache_misses": self.misses,
                         "exec.cache_stores": self.stores}
