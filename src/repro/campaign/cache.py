"""Content-addressed result cache for campaign jobs.

Results live under ``benchmarks/results/cache/`` (configurable), one
entry per job key:

* ``<key[:2]>/<key>.pkl`` — the pickled result object, and
* ``<key[:2]>/<key>.json`` — a small human-readable sidecar (label,
  kind, version) for inspecting what a hash refers to.

The key is computed by :mod:`repro.campaign.plan` from the canonicalised
job payload plus the ``repro`` version and cache schema, so the whole
cache is invalidated simply by bumping either — or by deleting the
directory (see ``docs/CAMPAIGNS.md``).

Because every job is a deterministic function of its payload, a cache
hit must equal a fresh run.  :func:`result_fingerprint` gives the
canonical digest used to *check* that property: the campaign's
spot-check verification mode re-runs a deterministic sample of cache
hits and compares fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import repro
from repro.campaign.plan import CACHE_SCHEMA, Job, canonical_json

DEFAULT_CACHE_DIR = Path("benchmarks") / "results" / "cache"

#: Sentinel returned by :meth:`ResultCache.load` when a key is absent.
MISS = object()


def result_fingerprint(result: Any) -> str:
    """Canonical digest of a job result's observable values.

    Every attribute counts, down to the samples, buckets and gaps of a
    kept :class:`~repro.cluster.metrics.MetricsCollector`; an object
    without a ``__dict__`` raises rather than hash to its identity.
    """
    text = canonical_json(_state(result))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _state(value: Any) -> Any:
    """``value`` as canonical JSON data; a float list (a sample list)
    becomes the digest of its packed little-endian doubles."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, list) and value and type(value[0]) is float:
        packed = struct.pack(f"<{len(value)}d", *value)
        return "f64:" + hashlib.sha256(packed).hexdigest()
    if isinstance(value, dict):
        return {str(key): _state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_state(item) for item in value]
    return {type(value).__name__: _state(vars(value))}


def should_verify(key: str, fraction: float) -> bool:
    """Deterministic sampling: verify roughly ``fraction`` of cache hits.

    Derived from the job key itself, so the same jobs are spot-checked
    on every machine — failures are reproducible.
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    return int(key[:8], 16) < fraction * 0x100000000


@dataclass
class CacheStats:
    """Counters one cache accumulates over a campaign."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


@dataclass
class ResultCache:
    """A content-addressed pickle store, keyed by job hash."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def load(self, key: str) -> Any:
        """The cached result for ``key``, or :data:`MISS`.

        Corrupt entries (truncated pickles, unreadable files) are
        dropped and counted as misses — the job simply re-runs.
        """
        path = self._path(key)
        try:
            with path.open("rb") as stream:
                result = pickle.load(stream)
        except FileNotFoundError:
            self.stats.misses += 1
            return MISS
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.evict(key)
            return MISS
        self.stats.hits += 1
        return result

    def store(
        self,
        key: str,
        result: Any,
        job: Optional[Job] = None,
        profile: Optional[dict[str, Any]] = None,
    ) -> None:
        """Persist one result (and a human-readable sidecar).

        ``profile`` is the job's performance profile (wall time,
        dispatched events, …); it rides in the sidecar so later
        campaigns can surface the cost of cached jobs without
        re-running them (``campaign --report --slowest K``).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".pkl.tmp")
        with tmp.open("wb") as stream:
            pickle.dump(result, stream, protocol=4)
        tmp.replace(path)
        meta = {
            "key": key,
            "schema": CACHE_SCHEMA,
            "version": repro.__version__,
        }
        if job is not None:
            meta["kind"] = job.kind
            meta["label"] = job.label
        if profile is not None:
            meta["profile"] = profile
        self._meta_path(key).write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        self.stats.stores += 1

    def load_profile(self, key: str) -> Optional[dict[str, Any]]:
        """The performance profile recorded when ``key`` was executed.

        Read from the JSON sidecar; ``None`` when the entry predates
        profiling or the sidecar is unreadable.
        """
        try:
            meta = json.loads(self._meta_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        profile = meta.get("profile")
        return profile if isinstance(profile, dict) else None

    def size(self) -> tuple[int, int]:
        """Current on-disk footprint: ``(result entries, total bytes)``.

        Bytes cover both the pickled results and their JSON sidecars —
        what deleting the directory would actually reclaim.
        """
        entries = 0
        total_bytes = 0
        if not self.root.exists():
            return entries, total_bytes
        for path in self.root.glob("*/*"):
            try:
                size = path.stat().st_size
            except OSError:
                continue  # evicted concurrently
            total_bytes += size
            if path.suffix == ".pkl":
                entries += 1
        return entries, total_bytes

    def evict(self, key: str) -> None:
        """Remove one entry (stale or corrupt)."""
        for path in (self._path(key), self._meta_path(key)):
            try:
                path.unlink()
            except OSError:
                pass
