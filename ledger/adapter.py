"""The only file of the ledger that imports ``repro``.

Everything the benchmark needs from the program goes through the public
names in :data:`API`; ``python -m ledger.run --check-api`` resolves each
one and names what is missing, so a refactor sees which contract it
broke.  Results leave this module as plain dicts of numbers.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import Any

from ledger.spec import GRID_WORKERS, OUTAGE_BUCKET, Workload

ROOT = Path(__file__).resolve().parent.parent

API: dict[str, tuple[str, ...]] = {
    "repro.cluster.runner": ("RunSpec", "run_experiment"),
    "repro.cluster.builder": ("build_cluster",),
    "repro.cluster.faults": ("FaultSchedule", "CrashFault"),
    "repro.population.spec": ("PopulationSpec",),
    "repro.campaign": ("execute_jobs", "ResultCache", "result_fingerprint"),
    "repro.campaign.plan": ("sim_job",),
}


def _resolve_api() -> tuple[dict[str, Any], list[str]]:
    # Measure this checkout's program, whatever else is installed; the
    # driver runs without PYTHONPATH=src.
    if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    names: dict[str, Any] = {}
    missing: list[str] = []
    for module_name, attrs in API.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            missing.extend(f"{module_name}.{attr} ({error})" for attr in attrs)
            continue
        for attr in attrs:
            if hasattr(module, attr):
                names[attr] = getattr(module, attr)
            else:
                missing.append(f"{module_name}.{attr}")
    return names, missing


_API, MISSING = _resolve_api()


def require_api() -> None:
    """Exit naming every public name of the contract that did not resolve."""
    if MISSING:
        raise SystemExit("ledger: repro API contract broken, missing: " + "; ".join(MISSING))


def run_spec(workload: Workload, seed: int) -> Any:
    """The ``RunSpec`` of a single-simulation workload."""
    extra: dict[str, Any] = {}
    if workload.crash_at is not None:
        extra.update(
            faults=_API["FaultSchedule"]([_API["CrashFault"](workload.crash_at, "leader")]),
            safety=True,
            keep_metrics=True,
            bucket_width=OUTAGE_BUCKET,
        )
    if workload.think_time is not None:
        extra["population"] = _API["PopulationSpec"](
            think_time=workload.think_time, reject_reentry="think"
        )
    return _API["RunSpec"](
        workload.system,
        workload.clients,
        duration=workload.duration,
        warmup=workload.warmup,
        seed=seed,
        **extra,
    )


def build(spec: Any) -> None:
    """Assemble (and drop) the cluster ``run_experiment`` would build for ``spec``."""
    _API["build_cluster"](
        spec.system,
        spec.clients,
        seed=spec.seed,
        window_start=spec.warmup,
        window_end=spec.duration,
        bucket_width=spec.bucket_width,
        stop_time=spec.duration,
        population=spec.population,
    )


def run(spec: Any) -> Any:
    return _API["run_experiment"](spec)


def fingerprint(result: Any) -> str:
    return _API["result_fingerprint"](result)


def _outage_ms(workload: Workload, result: Any) -> float:
    """Longest run of empty reply buckets at/after the crash, in ms."""
    if workload.crash_at is None:
        return 0.0
    counter = result.metrics.reply_counter
    width = counter.bucket_width
    longest = run_length = 0
    for index in range(int(workload.crash_at / width), int(workload.duration / width)):
        run_length = 0 if counter.count_in_bucket(index) else run_length + 1
        longest = max(longest, run_length)
    return longest * width * 1e3


def observe(workload: Workload, result: Any) -> dict[str, float]:
    """Every number the ledger reads from one ``ExperimentResult``."""
    clients = result.client_stats
    replicas = result.replica_stats

    def total(key: str) -> float:
        return sum(replica.get(key, 0) for replica in replicas)

    return {
        "commands": clients["commands"],
        "successes": clients["successes"],
        "rejections": clients["rejections"],
        "timeouts": clients["timeouts"],
        "give_ups": clients["give_ups"],
        "sends": clients["sends"],
        "arrivals": clients.get("arrivals", 0),
        "dropped_arrivals": clients.get("shed_arrivals", 0) + clients.get("lost_arrivals", 0),
        "feedback_ticks": clients.get("feedback_ticks", 0),
        "max_in_flight": clients.get("virtual_clients", result.clients),
        "safety_violations": len(result.safety_violations or ()),
        "goodput_rps": result.throughput,
        "samples": result.latency.count,
        "p50_ms": result.latency.p50 * 1e3,
        "p99_ms": result.latency.p99 * 1e3,
        "p999_ms": result.latency.p999 * 1e3,
        "reject_p99_ms": result.reject_latency.p99 * 1e3,
        "outage_ms": _outage_ms(workload, result),
        "events": result.sim_stats["dispatched_events"],
        "peak_heap": result.sim_stats["peak_heap"],
        "tombstones": result.sim_stats["drained_tombstones"],
        "messages": result.traffic["total_messages"],
        "bytes": result.traffic["total_bytes"],
        "replica_bytes": result.traffic["replica_bytes"],
        "proposals": total("proposals"),
        "executed": max(replica.get("executed", 0) for replica in replicas),
        "view_changes": max(replica.get("view_changes", 0) for replica in replicas),
        "leader_utilization": max(replica["utilization"] for replica in replicas),
        "forwards": total("forwards"),
        "fetches": total("fetches"),
    }


def grid_specs(workload: Workload, seed: int) -> list[Any]:
    """The campaign grid's runs: every cell at ``seed``, then at ``seed + 1``."""
    return [
        _API["RunSpec"](
            system, clients, duration=workload.duration, warmup=workload.warmup, seed=s
        )
        for s in (seed, seed + 1)
        for system, clients in workload.grid
    ]


def grid_jobs(workload: Workload, seed: int) -> list[Any]:
    """The benchmark-owned campaign jobs, one per grid run."""
    return [_API["sim_job"]("ledger", spec) for spec in grid_specs(workload, seed)]


def run_grid(
    jobs: list[Any], cache_dir: Path, workers: int = GRID_WORKERS
) -> tuple[list[Any], dict[str, Any]]:
    """``execute_jobs`` over ``jobs``; returns (results in job order, stats)."""
    cache = _API["ResultCache"](cache_dir)
    results, stats = _API["execute_jobs"](jobs, workers=workers, cache=cache)
    wall_s = {profile["key"]: profile["wall_seconds"] for profile in stats.job_profiles}
    return [results[job.key] for job in jobs], {
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
        "pool_fallback": stats.pool_fallback,
        "job_wall_s": [wall_s[job.key] for job in jobs],
        "cache_bytes": cache.size()[1],
    }
