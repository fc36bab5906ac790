"""Cache garbage collection: prune entries no recent campaign used.

The content-addressed cache only ever grows — every schema bump, spec
tweak or version change strands the previous keys on disk.  To know
which entries are still *useful* without re-planning old campaigns, the
engine records a small **run manifest** after every campaign
(:func:`record_run`): the sorted set of job keys that campaign
referenced, stamped with wall time, under ``<cache>/runs/``.

:func:`collect_garbage` then keeps the union of the last ``keep_runs``
manifests' keys and evicts everything else.  Two safety valves keep it
conservative:

* with **no manifests on disk** (a cache predating this feature),
  nothing is removed;
* if any manifest inside the keep window is unreadable, nothing is
  removed either, since its references cannot be honoured.

Wall-clock use is deliberate and sanctioned here: manifests order
campaign runs in real time and never feed a simulation (``repro.campaign``
is excluded from the determinism lint's wall-clock rule).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.campaign.cache import ResultCache

#: Subdirectory of the cache root holding one manifest per campaign run.
RUNS_DIRNAME = "runs"


def record_run(
    root: Union[str, Path],
    keys: Iterable[str],
    started: Optional[float] = None,
) -> Path:
    """Persist the manifest of one campaign's referenced job keys.

    The filename embeds the start time in milliseconds (so plain
    lexicographic order is chronological) and a short digest of the key
    set (so two campaigns started within the same millisecond cannot
    clobber each other unless they referenced the same jobs anyway).
    """
    if started is None:
        started = time.time()
    runs_dir = Path(root) / RUNS_DIRNAME
    runs_dir.mkdir(parents=True, exist_ok=True)
    sorted_keys = sorted(set(keys))
    digest = hashlib.sha256("\n".join(sorted_keys).encode("utf-8")).hexdigest()[:12]
    path = runs_dir / f"{int(started * 1000):013d}-{digest}.json"
    manifest = {"started": started, "keys": sorted_keys}
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


@dataclass
class GcReport:
    """What one garbage-collection pass examined and reclaimed."""

    examined: int = 0
    kept: int = 0
    removed: int = 0
    reclaimed_bytes: int = 0
    manifests_kept: int = 0
    manifests_removed: int = 0
    #: True when reference pruning was skipped (no or unreadable manifests).
    references_unknown: bool = False

    def render(self) -> str:
        lines = [
            f"gc: examined {self.examined} cache entr"
            f"{'y' if self.examined == 1 else 'ies'}: "
            f"kept {self.kept}, removed {self.removed} "
            f"({self.reclaimed_bytes} bytes reclaimed)",
            f"gc: run manifests: kept {self.manifests_kept}, "
            f"removed {self.manifests_removed}",
        ]
        if self.references_unknown:
            lines.append(
                "gc: no readable run manifests — reference pruning skipped"
            )
        return "\n".join(lines)


def _load_manifest_keys(path: Path) -> Optional[set[str]]:
    """The key set one manifest references, or ``None`` if unreadable."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        keys = manifest["keys"]
    except (OSError, ValueError, KeyError):
        return None
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        return None
    return set(keys)


def collect_garbage(cache: ResultCache, keep_runs: int = 5) -> GcReport:
    """Evict cache entries the last ``keep_runs`` campaigns never used.

    An entry is removed when it is unreferenced by every kept manifest.
    Manifests beyond the keep window are pruned too.  Returns a
    :class:`GcReport`.
    """
    if keep_runs < 1:
        raise ValueError(f"keep_runs must be >= 1, got {keep_runs}")
    report = GcReport()
    root = cache.root
    runs_dir = root / RUNS_DIRNAME
    manifests = sorted(runs_dir.glob("*.json")) if runs_dir.is_dir() else []
    kept_manifests = manifests[-keep_runs:]
    stale_manifests = manifests[: len(manifests) - len(kept_manifests)]

    referenced: set[str] = set()
    prune_unreferenced = bool(kept_manifests)
    for manifest in kept_manifests:
        keys = _load_manifest_keys(manifest)
        if keys is None:
            # A kept manifest we cannot read might reference anything;
            # honouring it means not reference-pruning at all this pass.
            prune_unreferenced = False
            break
        referenced.update(keys)
    report.references_unknown = not prune_unreferenced

    for path in sorted(root.glob("*/*.pkl")):
        key = path.stem
        report.examined += 1
        if not prune_unreferenced or key in referenced:
            report.kept += 1
            continue
        entry_bytes = 0
        for piece in (path, path.with_suffix(".json")):
            try:
                entry_bytes += piece.stat().st_size
            except OSError:
                pass
        cache.evict(key)
        report.removed += 1
        report.reclaimed_bytes += entry_bytes

    for manifest in stale_manifests:
        try:
            size = manifest.stat().st_size
            manifest.unlink()
        except OSError:
            continue
        report.manifests_removed += 1
        report.reclaimed_bytes += size
    report.manifests_kept = len(kept_manifests)
    return report
