#!/usr/bin/env python
"""Guard the observer-only contract of repro.obs.

Runs one seeded scenario three times — bare, traced (``observe=True``)
and probed (``probes=True``) — and demands the three ExperimentResults
agree on every measured field, including the per-replica protocol
counters.  Any drift means instrumentation leaked into the simulation
(scheduled an extra event the protocol can see, drew randomness, or
mutated protocol state) and fails CI.

The probed leg additionally checks a bounded-cost contract: the probe
sampler must record samples (the recorder is live) while dispatching
exactly as many simulation events as the traced leg — probing rides the
observer sampling tick and schedules nothing of its own — and the
sample count must stay within the sampling-cadence budget
(ticks x series, with headroom for node churn).

Usage::

    PYTHONPATH=src python tools/overhead_guard.py [--seed N] [--system S]
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster.faults import FaultSchedule
from repro.cluster.runner import RunSpec, run_experiment
from repro.obs import SAMPLE_INTERVAL
from repro.population import PopulationSpec

# Gauges only the aggregate population node publishes.
POPULATION_SERIES = ("virtual_clients", "active_requests", "think_pool")


def fingerprint(result) -> list[tuple[str, object]]:
    """Every result field that must not move when tracing is attached."""
    return [
        ("throughput", result.throughput),
        ("latency", result.latency),
        ("reject_throughput", result.reject_throughput),
        ("reject_latency", result.reject_latency),
        ("timeouts", result.timeouts),
        ("traffic", tuple(sorted(result.traffic.items()))),
        (
            "replica_stats",
            tuple(tuple(sorted(stats.items())) for stats in result.replica_stats),
        ),
    ]


def scenarios(system: str, seed: int) -> list[tuple[str, dict]]:
    """Steady state, overload (rejection path), a crash/recovery and a
    population run (hooks forwarded to whichever pooled client is lent)."""
    return [
        (
            "steady",
            dict(system=system, clients=10, duration=1.0, warmup=0.3, seed=seed),
        ),
        (
            "overload",
            dict(
                system=system,
                clients=40,
                duration=1.0,
                warmup=0.3,
                seed=seed,
                overrides={"reject_threshold": 2},
            ),
        ),
        (
            "crash",
            dict(
                system=system,
                clients=10,
                duration=1.2,
                warmup=0.2,
                seed=seed,
                faults=FaultSchedule().crash_follower(0.4).recover_replica(0.8),
            ),
        ),
        (
            "population",
            dict(
                system=system,
                clients=2000,
                duration=1.0,
                warmup=0.3,
                seed=seed,
                population=PopulationSpec(think_time=0.2),
                overrides={"reject_threshold": 2},
            ),
        ),
    ]


def diff(reference, candidate) -> list[tuple[str, object, object]]:
    return [
        (name, a, b)
        for (name, a), (_name, b) in zip(
            fingerprint(reference), fingerprint(candidate)
        )
        if a != b
    ]


def probe_budget(spec: RunSpec, recorder) -> int:
    """Upper bound on recorder samples for one run of ``spec``.

    One probe pass records at most one sample per (node, series) pair;
    passes fire on the sampling cadence, so ticks x series (plus one
    pass of slack for boundary rounding) bounds the total.
    """
    ticks = int(spec.duration / SAMPLE_INTERVAL) + 1
    return ticks * max(1, len(recorder))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--system", default="idem")
    args = parser.parse_args(argv)

    failures = 0
    for label, kwargs in scenarios(args.system, args.seed):
        plain = run_experiment(RunSpec(**kwargs))
        traced = run_experiment(RunSpec(**kwargs, observe=True))
        probed_spec = RunSpec(**kwargs, probes=True)
        probed = run_experiment(probed_spec)

        ok = True
        for leg, result in (("tracing", traced), ("probes", probed)):
            drift = diff(plain, result)
            if drift:
                failures += 1
                ok = False
                print(f"[{label}] DRIFT with {leg} on:")
                for name, a, b in drift:
                    print(f"  {name}:\n    off: {a}\n    on:  {b}")

        # Probing must not change the event count either: it rides the
        # sampling tick the traced leg already schedules.
        traced_events = traced.sim_stats["dispatched_events"]
        probed_events = probed.sim_stats["dispatched_events"]
        if probed_events != traced_events:
            failures += 1
            ok = False
            print(
                f"[{label}] probe OVERHEAD: {probed_events} dispatched "
                f"events with probes vs {traced_events} traced"
            )

        recorder = probed.obs.recorder
        budget = probe_budget(probed_spec, recorder)
        if recorder.samples_recorded == 0:
            failures += 1
            ok = False
            print(f"[{label}] probe recorder recorded nothing")
        elif recorder.samples_recorded > budget:
            failures += 1
            ok = False
            print(
                f"[{label}] probe OVERHEAD: {recorder.samples_recorded} "
                f"samples recorded, cadence budget is {budget}"
            )

        if label == "population":
            missing = [
                name
                for name in POPULATION_SERIES
                if not recorder.series("clients", name)
            ]
            if missing:
                failures += 1
                ok = False
                print(f"[{label}] probe series not published: {missing}")

        if ok:
            events = len(traced.obs.tracer.events) if traced.obs else 0
            print(
                f"[{label}] ok: identical results, {events} trace events, "
                f"{recorder.samples_recorded} probe samples "
                f"(budget {budget}), {probed_events} dispatched events"
            )
    if failures:
        print(f"overhead guard FAILED: {failures} check(s) drifted", file=sys.stderr)
        return 1
    print("overhead guard passed: tracing and probing are observer-only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
