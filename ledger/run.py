"""The performance ledger's one command: ``python -m ledger.run``.

Runs each workload in fresh child processes (``ledger.measure``), prints
every metric by name with its unit, checks the outputs, and exits
non-zero when a check fails.  With ``--workload`` the last line of stdout
is the one-object JSON summary the benchmark driver reads
(``BENCHMARK.json`` at the repository root names this command).

``--trace 0`` (default) reports the end-to-end metrics from timed
repeats; ``--trace 1`` reports the per-layer metrics from one traced
repeat; a bare ``--trace`` does both, which is what a committed history
record holds.  The two kinds of repeat never share a process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

from ledger.compare import quartiles
from ledger.spec import (
    COUNTED,
    END_TO_END,
    GATED,
    GRID_WORKERS,
    PER_LAYER,
    TRACED,
    WORKLOADS,
    Metric,
    Workload,
)

ROOT = Path(__file__).resolve().parent.parent

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 7
DEFAULT_SECONDS = 15.0


def _child(mode: str, workload: str, seed: int, scale: float, seconds: float = 0.0) -> dict:
    """Run ``ledger.measure`` to completion and parse its last line."""
    done = subprocess.run(
        [
            sys.executable, "-m", "ledger.measure", mode,
            "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--seconds", repr(seconds),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"ledger: {mode} run of {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _checks(workload: Workload, repeats: list[dict], traced: Optional[dict]) -> dict[str, bool]:
    """The output checks of one workload; every value must be True."""
    obs = repeats[0]["obs"]
    in_flight = obs["commands"] - (
        obs["successes"] + obs["rejections"] + obs["timeouts"] + obs["give_ups"]
    )
    checks = {
        "repeats_identical": len({repeat["digest"] for repeat in repeats}) == 1,
        "commands_accounted": 0 <= in_flight <= obs["max_in_flight"],
        "no_safety_violation": obs["safety_violations"] == 0,
    }
    if traced is not None:
        checks["traced_identical"] = traced["matches_reference"]
    if workload.grid:
        campaigns = [repeat["campaign"] for repeat in repeats]
        checks["all_jobs_executed"] = all(c["executed"] == c["jobs"] for c in campaigns)
        checks["warm_equals_cold"] = all(c["warm_equals_cold"] for c in campaigns)
        checks["warm_all_hits"] = all(c["warm_hits"] == c["jobs"] for c in campaigns)
        checks["pool_used"] = not any(c["pool_fallback"] for c in campaigns)
    return checks


SIM_KEYS = ("goodput_rps", "p50_ms", "p99_ms", "p999_ms", "reject_p99_ms", "outage_ms")


def _end_to_end(setup: list[dict], timed: dict, sim: dict[str, float]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric (one value where it is exact)."""
    commands = timed["repeats"][0]["obs"]["commands"]
    hosts = [repeat["host_s"] for repeat in timed["repeats"]]
    samples = {
        "setup_s": [probe["setup_s"] for probe in setup],
        "host_s": hosts,
        "sim_req_per_host_s": [commands / host_s for host_s in hosts],
        "peak_rss_mb": [timed["peak_rss_mb"]],
    }
    samples.update({name: [value] for name, value in sim.items()})
    return samples


def _counted(setup: list[dict], repeats: list[dict]) -> dict[str, float]:
    """Layer counts read from the public result of an untraced repeat."""
    obs = repeats[0]["obs"]
    hosts = [repeat["host_s"] for repeat in repeats]
    host_s = statistics.median(hosts)
    first, _, third = quartiles(hosts)
    commands = obs["commands"]
    counted = {
        "sim.events_per_req": obs["events"] / commands,
        "sim.events_per_host_s": obs["events"] / host_s,
        "sim.peak_heap": obs["peak_heap"],
        "sim.tombstones_per_req": obs["tombstones"] / commands,
        "sim.samples": obs["samples"],
        "net.msgs_per_req": obs["messages"] / commands,
        "net.bytes_per_req": obs["bytes"] / commands,
        "net.replica_bytes_share": _ratio(obs["replica_bytes"], obs["bytes"]),
        "protocols.reqs_per_proposal": _ratio(obs["executed"], obs["proposals"]),
        "protocols.view_changes": obs["view_changes"],
        "protocols.leader_utilization": obs["leader_utilization"],
        "core.reject_ratio": obs["rejections"] / commands,
        "core.forwards_per_req": obs["forwards"] / commands,
        "core.fetches_per_req": obs["fetches"] / commands,
        "resilience.load_amplification": obs["sends"] / commands,
        "resilience.timeout_ratio": obs["timeouts"] / commands,
        "population.arrivals_per_tick": _ratio(obs["arrivals"], obs["feedback_ticks"]),
        "population.lost_arrival_ratio": _ratio(obs["dropped_arrivals"], obs["arrivals"]),
        "cluster.build_s": statistics.median(probe["build_s"] for probe in setup),
        "host.min_s": min(hosts),
        "host.iqr_s": third - first,
        "host.repeats": len(hosts),
    }
    counted.update({m.name: 0.0 for m in COUNTED if m.name.startswith("campaign.")})
    campaigns = [repeat["campaign"] for repeat in repeats if "campaign" in repeat]
    if campaigns:
        # Ratios come from the fastest cold repeat, the least disturbed one.
        c = min(campaigns, key=lambda c: c["cold_wall_s"])
        job_wall_sum = sum(c["job_wall_s"])
        counted.update({
            "campaign.cold_wall_s": statistics.median(c["cold_wall_s"] for c in campaigns),
            "campaign.warm_wall_s": statistics.median(c["warm_wall_s"] for c in campaigns),
            "campaign.job_wall_sum_s": job_wall_sum,
            "campaign.pool_efficiency": job_wall_sum / (GRID_WORKERS * c["cold_wall_s"]),
            "campaign.warm_hit_ratio": c["warm_hits"] / c["jobs"],
            "campaign.cache_bytes_per_job": c["cache_bytes"] / c["jobs"],
        })
    return counted


def run_workload(name: str, seed: int, scale: float, seconds: float, trace: str) -> dict:
    """Measure one workload; returns its ledger record."""
    workload = WORKLOADS[name]
    setup = [_child("setup", name, seed, scale) for _ in range(SETUP_PROBES)]
    timed = _child("timed", name, seed, scale, seconds) if trace != "1" else None
    traced_run = _child("traced", name, seed, scale) if trace != "0" else None
    untraced = timed or traced_run
    repeats = untraced["repeats"]
    traced = traced_run["traced"] if traced_run else None
    obs = repeats[0]["obs"]
    checks = _checks(workload, repeats, traced)
    if timed and traced_run:
        checks["runs_identical"] = traced_run["repeats"][0]["digest"] == repeats[0]["digest"]

    sim = {f"sim_{key}": obs[key] for key in SIM_KEYS}
    per_layer = _counted(setup, repeats)
    per_layer.update({m.name: sim[m.name] for m in END_TO_END if m.seed_bound is None})
    if traced is not None:
        per_layer.update(traced["layers"])
        per_layer["trace.overhead_ratio"] = traced["host_s"] / traced["reference_s"]
    samples = _end_to_end(setup, timed, sim) if timed else {}
    campaign = repeats[0].get("campaign")
    failed_jobs = campaign["jobs"] - campaign["executed"] if campaign else 0
    return {
        "correct": all(checks.values()),
        "checks": checks,
        "digest": repeats[0]["digest"],
        "ops_attempted": int(obs["commands"]),
        "ops_failed": int(
            obs["timeouts"] + obs["give_ups"] + obs["dropped_arrivals"]
            + obs["safety_violations"] + failed_jobs
        ),
        "end_to_end": {key: statistics.median(values) for key, values in samples.items()},
        "samples": samples,
        "per_layer": per_layer,
    }


def _print_record(name: str, record: dict) -> None:
    print(f"== {name}: {WORKLOADS[name].why}")
    values = {**record["per_layer"], **record["end_to_end"]}
    for metric in END_TO_END + TRACED + COUNTED:
        if metric.name in values:
            print(f"  {metric.name:<34s} {values[metric.name]:>16.6g} {metric.unit}")
    print(f"  {'ops_attempted':<34s} {record['ops_attempted']:>16d} count")
    print(f"  {'ops_failed':<34s} {record['ops_failed']:>16d} count")
    print(f"  {'digest':<34s} {record['digest'][:16]:>16s}")
    for check, passed in record["checks"].items():
        print(f"  check {check:<28s} {'ok' if passed else 'FAILED':>16s}")


def code_digest() -> str:
    """sha256 over the program's and the ledger's sources: two records with
    the same digest come from the same code, so exact metrics must agree."""
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
        (ROOT / "ledger").glob("*.py")
    )
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _driver_line(record: dict, metrics: tuple[Metric, ...], values: dict[str, float]) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in metrics
        },
    })


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger.run", description=__doc__)
    parser.add_argument("--workload", choices=tuple(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="budget of the timed repeats per workload (at least 3 run)")
    parser.add_argument("--trace", nargs="?", choices=("0", "1", "both"), default="0",
                        const="both", help="0 end-to-end, 1 per-layer, bare flag both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply simulated times (tests only; records use 1.0)")
    parser.add_argument("--out", type=Path, help="write the ledger record as JSON")
    parser.add_argument("--check-api", action="store_true",
                        help="resolve the repro names the ledger depends on, then exit")
    args = parser.parse_args(argv)

    from ledger import adapter

    if args.check_api:
        for module_name, attrs in adapter.API.items():
            for attr in attrs:
                print(f"{module_name}.{attr}")
    adapter.require_api()
    if args.check_api:
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    for name in names:
        records[name] = run_workload(name, args.seed, args.scale, args.seconds, args.trace)
        _print_record(name, records[name])
    correct = all(record["correct"] for record in records.values())
    print(f"ledger: {sum(r['correct'] for r in records.values())}/{len(records)} "
          f"workloads passed their output checks")
    if args.out:
        args.out.write_text(json.dumps({
            "ledger": 1,
            "claim": None,
            "code_digest": code_digest(),
            "python": platform.python_version(),
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "workloads": records,
        }, indent=1) + "\n", encoding="utf-8")
    if args.workload:
        record = records[args.workload]
        metrics, values = (), {}
        if args.trace != "1":
            metrics, values = metrics + GATED, {**values, **record["end_to_end"]}
        if args.trace != "0":
            metrics, values = metrics + PER_LAYER, {**values, **record["per_layer"]}
        print(_driver_line(record, metrics, values))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
