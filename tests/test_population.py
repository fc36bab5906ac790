"""repro.population: the aggregate million-client workload backend.

Covers the :class:`PopulationSpec` contract, the campaign payload
round-trip, the aggregate node's three operating modes, determinism
(including PYTHONHASHSEED invariance of the fabricated rid/cid
streams), the events-per-request cost claim, and — most importantly —
the closed-loop equivalence gate: the aggregate backend must reproduce
the per-object clients' throughput and latency tail at small N before
anyone trusts it at N = 1,000,000 (see ``docs/WORKLOADS.md``).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.campaign.plan import (
    payload_to_population,
    payload_to_spec,
    population_to_payload,
    spec_to_payload,
)
from repro.cluster.runner import RunSpec, run_experiment
from repro.population import (
    POPULATION_PROCESSES,
    REJECT_REENTRY_MODES,
    PopulationSpec,
)
from repro.population.validate import (
    P99_TOLERANCE,
    THROUGHPUT_TOLERANCE,
    validate_population,
)
from repro.workload.open_loop import ArrivalSpec


def population_run(
    system="idem",
    clients=100,
    think_time=0.0,
    duration=0.3,
    warmup=0.1,
    seed=3,
    **kwargs,
):
    population = kwargs.pop(
        "population", PopulationSpec(think_time=think_time)
    )
    spec = RunSpec(
        system=system,
        clients=clients,
        duration=duration,
        warmup=warmup,
        seed=seed,
        population=population,
        **kwargs,
    )
    return run_experiment(spec)


# -- the spec ----------------------------------------------------------


class TestPopulationSpec:
    def test_defaults(self):
        spec = PopulationSpec()
        assert spec.think_time is None
        assert spec.process == "poisson"
        assert spec.reject_reentry == "backoff"
        assert spec.process in POPULATION_PROCESSES
        assert spec.reject_reentry in REJECT_REENTRY_MODES

    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError, match="population process"):
            PopulationSpec(process="fractal")

    def test_rejects_unknown_reject_reentry(self):
        with pytest.raises(ValueError, match="reject_reentry"):
            PopulationSpec(reject_reentry="meditate")

    def test_rejects_negative_think_time(self):
        with pytest.raises(ValueError, match="think_time"):
            PopulationSpec(think_time=-0.1)

    def test_rejects_bad_feedback_interval(self):
        with pytest.raises(ValueError, match="feedback_interval"):
            PopulationSpec(feedback_interval=0.0)

    def test_rejects_bad_mmpp_parameters(self):
        with pytest.raises(ValueError, match="burst_multiplier"):
            PopulationSpec(process="mmpp", burst_multiplier=0.0)
        with pytest.raises(ValueError, match="dwell"):
            PopulationSpec(process="mmpp", dwell_normal=0.0)
        # The same parameters are ignored (not validated) for poisson.
        PopulationSpec(process="poisson", burst_multiplier=0.0)

    def test_effective_think_time(self):
        config = SimpleNamespace(think_time=2.0)
        assert PopulationSpec().effective_think_time(config) == 2.0
        assert PopulationSpec(think_time=0.5).effective_think_time(config) == 0.5
        assert PopulationSpec(think_time=0.0).effective_think_time(config) == 0.0


# -- campaign payloads -------------------------------------------------


class TestPayloads:
    def test_population_payload_roundtrip(self):
        for spec in (
            PopulationSpec(),
            PopulationSpec(think_time=0.02, reject_reentry="think"),
            PopulationSpec(
                process="mmpp",
                burst_multiplier=8.0,
                dwell_normal=2.0,
                dwell_burst=0.1,
            ),
        ):
            payload = population_to_payload(spec)
            assert json.loads(json.dumps(payload)) == payload  # JSON-safe
            assert payload_to_population(payload) == spec

    def test_run_spec_roundtrip_with_population(self):
        spec = RunSpec(
            system="idem",
            clients=10_000,
            duration=0.5,
            warmup=0.25,
            seed=3,
            population=PopulationSpec(think_time=0.2, reject_reentry="think"),
        )
        assert payload_to_spec(spec_to_payload(spec)) == spec

    def test_population_absent_by_default(self):
        """A plain RunSpec carries population=None: the knob is provably
        off unless selected (cache keys shift only via the schema bump)."""
        payload = spec_to_payload(RunSpec(system="idem", clients=3))
        assert payload["population"] is None
        assert payload_to_spec(payload).population is None


# -- the aggregate node, exact closed loop -----------------------------


class TestExactClosedLoop:
    def test_basic_run_and_stats_shape(self):
        result = population_run(clients=50)
        stats = result.client_stats
        assert result.throughput > 0
        assert stats["successes"] > 0
        assert stats["commands"] >= stats["successes"]
        # Aggregate-only accounting rides the same dict.
        assert stats["virtual_clients"] == 50
        assert stats["feedback_ticks"] > 0
        for key in ("sends", "retries", "hedges", "give_ups", "rejections",
                    "timeouts", "load_amplification"):
            assert key in stats

    def test_same_seed_is_deterministic(self):
        a = population_run(clients=80, seed=11)
        b = population_run(clients=80, seed=11)
        assert a.throughput == b.throughput
        assert a.client_stats == b.client_stats
        assert a.latency.p99 == b.latency.p99

    def test_different_seeds_differ(self):
        a = population_run(clients=80, seed=11)
        b = population_run(clients=80, seed=12)
        assert a.client_stats != b.client_stats


# -- analytic closed loop (Z > 0) --------------------------------------


class TestAnalyticMode:
    def test_think_pool_feeds_arrivals(self):
        result = population_run(clients=200, think_time=0.02)
        stats = result.client_stats
        assert stats["arrivals"] > 0
        assert stats["successes"] > 0
        assert stats["feedback_ticks"] > 0
        # Offered ~N/Z = 10k/s over the 0.3 s run; the analytic arrival
        # process must be in that regime (the loose band tolerates
        # closed-loop throttling of the think pool).
        expected_arrivals = (200 / 0.02) * 0.3
        assert 0.5 * expected_arrivals < stats["arrivals"] <= 1.2 * expected_arrivals

    def test_reject_reentry_modes_both_run(self):
        for mode in REJECT_REENTRY_MODES:
            result = population_run(
                system="idem",
                clients=100,
                duration=0.3,
                population=PopulationSpec(think_time=0.005, reject_reentry=mode),
                overrides={"reject_threshold": 4},
            )
            assert result.client_stats["rejections"] > 0
            assert result.client_stats["successes"] > 0

    def test_mmpp_process_runs(self):
        result = population_run(
            clients=200,
            population=PopulationSpec(
                think_time=0.02, process="mmpp", dwell_normal=0.1,
                dwell_burst=0.05,
            ),
        )
        assert result.client_stats["successes"] > 0


# -- open loop (ArrivalSpec drives the aggregate) ----------------------


class TestOpenLoopMode:
    def test_arrival_spec_drives_the_population(self):
        result = population_run(
            system="paxos",
            clients=100,
            think_time=0.0,
            arrivals=ArrivalSpec(steps=((0.0, 2000.0),)),
        )
        stats = result.client_stats
        assert stats["arrivals"] > 0
        assert stats["successes"] > 0

    def test_events_per_request_near_the_object_client_floor(self):
        """The aggregate's cost claim: driving the same open-loop load
        through the population backend costs at most ~1.2x the simulator
        events per request of the per-object OpenLoopDriver path."""
        arrivals = ArrivalSpec(steps=((0.0, 2000.0),))
        reference = run_experiment(
            RunSpec(
                system="paxos", clients=50, duration=0.5, warmup=0.1,
                seed=5, arrivals=arrivals,
            )
        )
        population = run_experiment(
            RunSpec(
                system="paxos", clients=50, duration=0.5, warmup=0.1,
                seed=5, arrivals=arrivals,
                population=PopulationSpec(think_time=0.0),
            )
        )
        def events_per_request(result):
            return (
                result.sim_stats["dispatched_events"]
                / result.client_stats["commands"]
            )
        floor = events_per_request(reference)
        cost = events_per_request(population)
        assert cost <= 1.2 * floor, (cost, floor)


# -- determinism across hash seeds -------------------------------------


def _population_fingerprint(hash_seed: str) -> str:
    """Fingerprint a population run in a subprocess with PYTHONHASHSEED.

    The fabricated rid/cid streams (seeded cid draws, the monotone onr
    counter) must not depend on str/set hash order.
    """
    code = (
        "from repro.cluster.runner import RunSpec, run_experiment\n"
        "from repro.population import PopulationSpec\n"
        "r = run_experiment(RunSpec(system='idem', clients=60, duration=0.25,\n"
        "    warmup=0.1, seed=9, population=PopulationSpec(think_time=0.01)))\n"
        "print(r.throughput, r.latency.p99, sorted(r.client_stats.items()))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_population_run_is_hash_seed_invariant():
    out_a = _population_fingerprint("1")
    out_b = _population_fingerprint("4242")
    assert "successes" in out_a
    assert out_a == out_b


# -- the equivalence gate ----------------------------------------------


def test_closed_loop_equivalence_gate():
    """The headline claim of ``repro.population``: in the exact
    closed-loop regime the aggregate reproduces the per-object clients'
    throughput within ±5% and p99 within ±10% at N in {50, 100, 200},
    for both the proactive-rejection system and the baseline."""
    report = validate_population()
    rendered = report.render()
    assert report.ok, rendered
    assert {row.clients for row in report.rows} == {50, 100, 200}
    assert {row.system for row in report.rows} == {"idem", "paxos"}
    for row in report.rows:
        assert row.throughput_error <= THROUGHPUT_TOLERANCE, rendered
        assert row.p99_error <= P99_TOLERANCE, rendered


# -- figM --------------------------------------------------------------


class TestFigM:
    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "figM" in EXPERIMENTS
        assert callable(EXPERIMENTS["figM"].headlines)

    def test_plan_runs(self):
        from repro.experiments import figM_million_users as figM

        specs = figM.plan_runs(quick=True)
        assert len(specs) == len(figM.SYSTEMS) * len(figM.N_SWEEP)
        for spec in specs:
            assert spec.population is not None
            assert spec.population.reject_reentry == "think"
            # Think time scales with N to hold the offered load fixed.
            assert spec.population.think_time == spec.clients / figM.OFFERED
            assert spec.clients in figM.N_SWEEP
        assert {spec.clients for spec in specs} == set(figM.N_SWEEP)

    def test_committed_baseline_matches_the_plan(self):
        """BENCH_figM.json must cover every (system, N) arm with the
        four gated headline metrics, under the CI gate's settings."""
        from repro.experiments import figM_million_users as figM

        path = (
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "baselines"
            / "BENCH_figM.json"
        )
        document = json.loads(path.read_text())
        assert document["settings"]["quick"] is True
        assert document["settings"]["runs"] == 1
        metrics = document["metrics"]
        for system in figM.SYSTEMS:
            for n_clients in figM.N_SWEEP:
                for metric in (
                    "goodput", "p99_ms", "reject_rate", "events_per_request"
                ):
                    assert f"{system}.n{n_clients}.{metric}" in metrics
        # The cost claim the figure is named for: a million-user arm
        # costs no more simulator events per request than the 10k arm.
        for system in figM.SYSTEMS:
            small = metrics[f"{system}.n10000.events_per_request"]
            huge = metrics[f"{system}.n1000000.events_per_request"]
            assert huge <= 1.2 * small
