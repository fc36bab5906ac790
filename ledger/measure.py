"""One workload, one fresh process: ``python -m ledger.measure``.

``ledger.run`` starts this module as a child process per measurement so
that imports, allocator state and peak RSS belong to that workload alone.
Three modes, each printing one JSON object as the last line of stdout:

``setup``   time the adapter import plus one cluster build (or job planning)
``timed``   a discarded warm-up, then repeats of the workload with gc off
``traced``  a warm-up, one untraced reference repeat, one repeat under cProfile
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import resource
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from ledger import trace
from ledger.spec import GRID_WORKERS, WORKLOADS, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"

# The warm-up repeat is the same workload at a fraction of its simulated
# length: it imports lazily loaded modules, fills the allocator's arenas
# and specialises the hot bytecode, at a fifth of a timed repeat's cost.
WARMUP_SCALE = 0.2
MIN_REPEATS = 3


def _no_gc(fn: Callable[[], Any], clock: Callable[[], float]) -> tuple[Any, float]:
    """``fn()`` with the collector off; returns (result, elapsed by ``clock``)."""
    gc.collect()
    gc.disable()
    try:
        started = clock()
        result = fn()
        return result, clock() - started
    finally:
        gc.enable()


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class SimSubject:
    """A workload that is one ``run_experiment`` call."""

    def __init__(self, adapter: Any, workload: Workload, seed: int):
        self.adapter, self.workload, self.seed = adapter, workload, seed

    def warm_up(self) -> None:
        self.adapter.run(
            self.adapter.run_spec(self.workload.scaled(WARMUP_SCALE), self.seed)
        )

    def _run(self) -> Any:
        return self.adapter.run(self.adapter.run_spec(self.workload, self.seed))

    def _repeat(self, result: Any, host_s: float) -> dict[str, Any]:
        return {
            "host_s": host_s,
            "digest": self.adapter.fingerprint(result),
            "obs": self.adapter.observe(self.workload, result),
        }

    def timed(self) -> dict[str, Any]:
        # Process CPU time: the simulation is one thread and never waits.
        return self._repeat(*_no_gc(self._run, time.process_time))

    def traced(self, reference: dict[str, Any]) -> dict[str, Any]:
        (result, stats), traced_s = _no_gc(
            functools.partial(trace.profiled, self._run), time.process_time
        )
        repeat = self._repeat(result, traced_s)
        repeat.update(
            stats=stats,
            reference_s=reference["host_s"],
            matches_reference=repeat["digest"] == reference["digest"],
        )
        return repeat

    def peak_rss_mib(self) -> float:
        return _rss_mib(resource.RUSAGE_SELF)


def _pooled(observations: list[dict[str, float]]) -> dict[str, float]:
    """One observation for a grid of jobs: counts add up, goodput is the
    mean, latencies and high-water marks take the worst job."""
    worst = {
        "p50_ms", "p99_ms", "p999_ms", "reject_p99_ms", "outage_ms",
        "peak_heap", "view_changes", "leader_utilization",
    }
    pooled = {
        key: (max if key in worst else sum)(obs[key] for obs in observations)
        for key in observations[0]
    }
    pooled["goodput_rps"] /= len(observations)
    return pooled


class GridSubject:
    """The campaign workload: the job grid through the pool, cold then warm."""

    def __init__(self, adapter: Any, workload: Workload, seed: int):
        self.adapter, self.workload, self.seed = adapter, workload, seed
        self.jobs = adapter.grid_jobs(workload, seed)

    def warm_up(self) -> None:
        # Two short jobs through a real pool: pages in the interpreter and
        # the repro modules every spawned worker is about to import.
        jobs = self.adapter.grid_jobs(self.workload.scaled(WARMUP_SCALE), self.seed)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as cache_dir:
            self.adapter.run_grid(jobs[:GRID_WORKERS], Path(cache_dir))

    def _digest(self, results: list[Any]) -> list[str]:
        return [self.adapter.fingerprint(result) for result in results]

    def _repeat(self, results: list[Any], digests: list[str], host_s: float) -> dict[str, Any]:
        return {
            "host_s": host_s,
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "obs": _pooled([self.adapter.observe(self.workload, r) for r in results]),
        }

    def timed(self) -> dict[str, Any]:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as cache_dir:
            run = functools.partial(self.adapter.run_grid, self.jobs, Path(cache_dir))
            (cold, cold_stats), cold_s = _no_gc(run, time.perf_counter)
            (warm, warm_stats), warm_s = _no_gc(run, time.perf_counter)
        digests = self._digest(cold)
        repeat = self._repeat(cold, digests, cold_s + warm_s)
        repeat["job_digests"] = digests
        repeat["campaign"] = {
            "cold_wall_s": cold_s,
            "warm_wall_s": warm_s,
            "job_wall_s": cold_stats["job_wall_s"],
            "jobs": len(self.jobs),
            "executed": cold_stats["executed"],
            "warm_hits": warm_stats["cache_hits"],
            "cache_bytes": cold_stats["cache_bytes"],
            "pool_fallback": cold_stats["pool_fallback"] or warm_stats["pool_fallback"],
            "warm_equals_cold": self._digest(warm) == digests,
        }
        return repeat

    def traced(self, reference: dict[str, Any]) -> dict[str, Any]:
        # Pool workers are out of the profiler's reach, so the traced
        # repeat runs the first seed's half of the grid serially in this
        # process; its reference is what the same jobs cost in the workers.
        half = len(self.workload.grid)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as cache_dir:
            run = functools.partial(
                self.adapter.run_grid, self.jobs[:half], Path(cache_dir), workers=1
            )
            ((results, _), stats), traced_s = _no_gc(
                functools.partial(trace.profiled, run), time.process_time
            )
        digests = self._digest(results)
        repeat = self._repeat(results, digests, traced_s)
        repeat.update(
            stats=stats,
            reference_s=sum(reference["campaign"]["job_wall_s"][:half]),
            matches_reference=digests == reference["job_digests"][:half],
        )
        return repeat

    def peak_rss_mib(self) -> float:
        return _rss_mib(resource.RUSAGE_SELF) + _rss_mib(resource.RUSAGE_CHILDREN)


def _subject(adapter: Any, workload: Workload, seed: int):
    return (GridSubject if workload.grid else SimSubject)(adapter, workload, seed)


def measure_setup(workload: Workload, seed: int) -> dict[str, float]:
    started = time.perf_counter()
    from ledger import adapter

    adapter.require_api()
    if workload.grid:
        adapter.grid_jobs(workload, seed)
    planned = time.perf_counter()
    if workload.grid:
        specs = adapter.grid_specs(workload, seed)[: len(workload.grid)]
    else:
        specs = [adapter.run_spec(workload, seed)]
    for spec in specs:
        adapter.build(spec)
    build_s = time.perf_counter() - planned
    # A campaign pays the builds inside its workers, as part of host_s.
    setup_s = planned - started + (0.0 if workload.grid else build_s)
    return {"setup_s": setup_s, "build_s": build_s}


def measure_timed(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    from ledger import adapter

    adapter.require_api()
    subject = _subject(adapter, workload, seed)
    subject.warm_up()
    repeats: list[dict[str, Any]] = []
    started = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
        repeats.append(subject.timed())
    return {"repeats": repeats, "peak_rss_mb": subject.peak_rss_mib()}


def measure_traced(workload: Workload, seed: int) -> dict[str, Any]:
    from ledger import adapter

    adapter.require_api()
    subject = _subject(adapter, workload, seed)
    subject.warm_up()
    reference = subject.timed()
    traced = subject.traced(reference)
    stats = traced.pop("stats")
    layers = trace.attribute(stats)
    trace.dump_pstats(stats, OUT_DIR / f"{workload.name}.pstats")
    (OUT_DIR / f"{workload.name}.layers.json").write_text(
        json.dumps(trace.layer_table(layers), indent=1) + "\n", encoding="utf-8"
    )
    traced["layers"] = trace.layer_metrics(layers, traced["obs"]["commands"])
    return {
        "repeats": [reference],
        "traced": traced,
        "peak_rss_mb": subject.peak_rss_mib(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger.measure", description=__doc__)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload].scaled(args.scale)
    OUT_DIR.mkdir(exist_ok=True)
    if args.mode == "setup":
        document = measure_setup(workload, args.seed)
    elif args.mode == "timed":
        document = measure_timed(workload, args.seed, args.seconds)
    else:
        document = measure_traced(workload, args.seed)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
