"""repro.population: the aggregate million-client workload backend.

Covers the :class:`PopulationSpec` contract, the campaign payload
round-trip, the lend/return path that hands virtual-client identities
to pooled real clients (safety under a leader crash with retries,
late-message routing, pool size, the shared retry budget), determinism
(including PYTHONHASHSEED invariance of the fabricated rid/cid
streams), and the light-load agreement of the think-pool approximation
with per-object clients that think for the same Z (see
``docs/WORKLOADS.md``).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.campaign.plan import (
    payload_to_population,
    payload_to_spec,
    population_to_payload,
    spec_to_payload,
)
from repro.cluster.builder import build_cluster
from repro.cluster.faults import CrashFault, FaultSchedule
from repro.cluster.runner import RunSpec, run_experiment
from repro.net.addresses import replica_address
from repro.obs.spans import CLIENT_SEND
from repro.population import (
    POPULATION_PROCESSES,
    REJECT_REENTRY_MODES,
    PopulationSpec,
)
from repro.population import aggregate
from repro.protocols.messages import Reject
from repro.workload.open_loop import ArrivalSpec


def population_run(
    system="idem",
    clients=100,
    think_time=0.02,
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


# -- the think pool and its arrival process ---------------------------


class TestAnalyticMode:
    def test_think_pool_feeds_arrivals(self):
        result = population_run(clients=200, think_time=0.02)
        stats = result.client_stats
        assert stats["arrivals"] > 0
        assert stats["successes"] > 0
        assert stats["commands"] >= stats["successes"]
        assert stats["feedback_ticks"] > 0
        # Aggregate-only accounting rides the per-object counters' dict.
        assert stats["virtual_clients"] == 200
        for key in ("sends", "retries", "hedges", "give_ups", "rejections",
                    "timeouts", "load_amplification"):
            assert key in stats
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


# -- modes that are the per-object backend under another name ----------


class TestRemovedModes:
    def test_population_with_arrivals_is_refused(self):
        with pytest.raises(ValueError, match="drop population="):
            RunSpec(
                system="paxos",
                clients=100,
                population=PopulationSpec(think_time=0.02),
                arrivals=ArrivalSpec(steps=((0.0, 2000.0),)),
            )

    @pytest.mark.parametrize("population", [
        PopulationSpec(think_time=0.0),
        PopulationSpec(),  # inherits the config's zero think time
    ])
    def test_zero_think_population_is_refused(self, population):
        with pytest.raises(ValueError, match="drop population="):
            build_cluster("idem", 50, population=population)


# -- lending cids to pooled real clients -------------------------------


def population_cluster(system="idem", clients=100, think_time=0.02, **kwargs):
    cluster = build_cluster(
        system, clients, population=PopulationSpec(think_time=think_time),
        **kwargs,
    )
    return cluster, cluster.clients[0]


class TestLending:
    @pytest.mark.parametrize("system", ["idem", "paxos", "paxos-lbr", "bftsmart"])
    def test_safe_and_monotone_across_a_leader_crash_with_retries(self, system):
        """Retries and failover re-send under fresh onrs while other
        pool objects serve the same cids before and after: the replicas'
        at-most-once window needs every cid's onrs strictly increasing."""
        result = run_experiment(RunSpec(
            system=system,
            clients=150,
            duration=1.0,
            warmup=0.1,
            seed=4,
            population=PopulationSpec(think_time=0.02),
            overrides={
                "retry_policy": "immediate",
                "retry_on": "any",
                "request_timeout": 0.2,
            },
            faults=FaultSchedule([CrashFault(0.3, "leader")]),
            safety=True,
            observe=True,
        ))
        assert result.safety_violations == []
        assert result.client_stats["retries"] > 0
        assert result.client_stats["successes"] > 1000
        last: dict[int, int] = {}
        relent = 0
        for event in result.obs.tracer.events:
            if event.kind == CLIENT_SEND:
                cid, onr = event.rid
                assert onr > last.get(cid, 0), (cid, onr, last[cid])
                relent += cid in last
                last[cid] = onr
        assert relent > 1000  # cids really were lent again and again

    def test_late_reject_for_a_returned_cid_still_counts(self):
        cluster, node = population_cluster()
        cluster.run_until(0.05)
        idle_cid = next(c for c in range(node.n_clients) if c not in node._lent)
        assert node._clients
        gaps = cluster.metrics.reject_gaps
        assert gaps.last_time is None
        node.deliver(replica_address(0), Reject((idle_cid, 1)))
        assert gaps.last_time == cluster.loop.now

    def test_pool_holds_peak_in_flight_not_n(self):
        cluster, node = population_cluster(
            clients=100_000, think_time=10.0, stop_time=0.3
        )
        peak = 0
        lend = node._lend

        def spying_lend():
            nonlocal peak
            lend()
            peak = max(peak, len(node._lent))

        node._lend = spying_lend
        cluster.run_until(0.3)
        assert cluster.client_stats()["successes"] > 2000
        assert len(node._clients) == peak < 200
        assert len(node._pool) + len(node._lent) == len(node._clients)

    def test_retry_budget_is_one_bucket_scaled_by_n(self):
        """Object clients own a budget each; the pool shares one scaled
        by N, so the retries a binding budget lets through depend on N
        and time only — not on how many pool objects the load created."""
        horizon, rate, cap, n = 0.4, 2.0, 1.0, 300
        spent = {}
        for think_time in (0.004, 0.012):
            cluster, node = population_cluster(
                clients=n,
                think_time=think_time,
                stop_time=horizon,
                overrides={
                    "retry_policy": "immediate",
                    "retry_on": "reject",
                    "retry_budget_rate": rate,
                    "retry_budget_cap": cap,
                    "reject_threshold": 2,
                },
            )
            cluster.run_until(horizon)
            stats = cluster.client_stats()
            assert stats["give_ups"] > 0  # the budget binds
            spent[len(node._clients)] = stats["retries"]
        assert len(spent) == 2 and max(spent) > 2 * min(spent)
        budget = n * (cap + rate * horizon)
        assert set(spent.values()) == {int(budget) - 1}


class _SilentClient(SimpleNamespace):
    """A pool object that issues nothing: lending it exercises the draw."""

    def _issue_next(self):
        pass


def silent_node(n_clients):
    _, node = population_cluster(clients=n_clients)
    node._pool = [_SilentClient(onr=0) for _ in range(n_clients)]
    return node


class TestCidDraw:
    def test_a_drawn_id_is_never_lent(self):
        node = silent_node(8)
        for lent in range(1, 8):
            node._lend()
            assert len(node._lent) == lent  # a new key, not an overwrite

    @pytest.mark.parametrize("free", [0, 1, 2])
    def test_the_draw_ends_when_one_id_of_three_is_free(self, free):
        node = silent_node(3)
        node._lent = {cid: _SilentClient() for cid in range(3) if cid != free}
        node._lend()
        assert set(node._lent) == {0, 1, 2}

    def test_the_draw_is_uniform_over_the_free_ids(self):
        node = silent_node(4)
        node._lend()
        (held,) = node._lent
        draws = 40_000
        counts = dict.fromkeys(set(range(4)) - {held}, 0)
        for _ in range(draws):
            node._lend()
            (cid,) = set(node._lent) - {held}
            counts[cid] += 1
            node.client_finished(node._lent[cid], 0.0, "success")
        for count in counts.values():
            assert count / draws == pytest.approx(1 / 3, rel=0.03)

    def test_a_lend_always_finds_a_free_id(self):
        """Every virtual client is thinking, lent or backing off, so a
        lend (an arrival that took a thinker, or a backoff re-entry)
        always finds at least one id free."""
        cluster, node = population_cluster(
            clients=50,
            think_time=0.0001,
            stop_time=0.5,
            overrides={"reject_threshold": 45},
        )
        entries = []
        lend = node._lend

        def spying_lend():
            entries.append(len(node._lent))
            lend()

        node._lend = spying_lend
        cluster.run_until(0.5)
        assert cluster.client_stats()["rejections"] > 0
        assert len(entries) > 1000
        # The bound is reached: some lends find exactly one id free.
        assert max(entries) == node.n_clients - 1

    def test_node_memory_does_not_grow_with_n(self):
        """A million virtual clients cost the node O(in-flight) memory."""
        tracemalloc.start()
        try:
            cluster, node = population_cluster(
                clients=1_000_000, think_time=20.0, stop_time=0.1
            )
            cluster.run_until(0.1)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert node.arrivals_generated > 1000
        traces = snapshot.filter_traces(
            [tracemalloc.Filter(True, aggregate.__file__)]
        )
        retained = sum(stat.size for stat in traces.statistics("filename"))
        assert retained < 2**20


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


# -- what the think-pool approximation costs ---------------------------


@pytest.mark.parametrize("system", ["idem", "paxos"])
def test_light_load_agrees_with_thinking_object_clients(system):
    """Below saturation the population (exponential think as a Poisson
    rate, a random cid per operation) and N per-object clients with the
    same deterministic think time Z offer the same load N / (Z + R):
    goodput and p99 agree within 5 % over three metric buckets.  Under
    overload they differ by design — docs/WORKLOADS.md has the numbers
    and the cause."""
    common = dict(system=system, clients=200, duration=1.0, warmup=0.25, seed=1)
    population = run_experiment(
        RunSpec(population=PopulationSpec(think_time=0.02), **common)
    )
    objects = run_experiment(RunSpec(overrides={"think_time": 0.02}, **common))
    assert objects.client_stats["rejections"] == 0 == objects.timeouts
    assert population.throughput == pytest.approx(objects.throughput, rel=0.05)
    assert population.latency.p99 == pytest.approx(objects.latency.p99, rel=0.05)


# -- figM --------------------------------------------------------------


class TestFigM:
    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "figM" in EXPERIMENTS
        assert callable(EXPERIMENTS["figM"].headlines)

    def test_plan_runs(self):
        from repro.experiments import figM_million_users as figM

        plan = figM.plan(quick=True)
        assert [label for label, _specs in plan] == [
            system for system in figM.SYSTEMS for _n in figM.N_SWEEP
        ]
        specs = [spec for _label, specs in plan for spec in specs]
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
        four gated headline metrics and the arm's job fingerprint, under
        the CI gate's settings."""
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
        metrics = document["headlines"]
        for system in figM.SYSTEMS:
            for n_clients in figM.N_SWEEP:
                for metric in (
                    "goodput", "p99_ms", "reject_rate", "events_per_request"
                ):
                    assert f"{system}.n{n_clients}.{metric}" in metrics
                job = f"figM/{system}/c{n_clients}/s0 [{system}]"
                assert len(document["jobs"][job]) == 64
        assert len(document["jobs"]) == len(figM.SYSTEMS) * len(figM.N_SWEEP)
        # The cost claim the figure is named for: a million-user arm
        # costs no more simulator events per request than the 10k arm.
        for system in figM.SYSTEMS:
            small = metrics[f"{system}.n10000.events_per_request"]
            huge = metrics[f"{system}.n1000000.events_per_request"]
            assert huge <= 1.2 * small
