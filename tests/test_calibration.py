"""Calibration: the simulated cluster reproduces the paper's regime.

These are the shape claims of the evaluation at reduced scale; the
campaign's claims gate re-checks them at figure scale.  The default profile is
tuned so the 3-replica cluster saturates in the tens of thousands of
requests per second around a millisecond (Section 7.1/7.2).
"""

import pytest

from repro.cluster.runner import RunSpec, run_experiment


def measure(system: str, clients: int, **overrides):
    return run_experiment(
        RunSpec(
            system=system,
            clients=clients,
            duration=0.8,
            warmup=0.25,
            seed=1,
            overrides=overrides,
        )
    )


@pytest.fixture(scope="module")
def curves():
    systems = ["idem", "idem-nopr", "paxos", "bftsmart"]
    return {
        system: {clients: measure(system, clients) for clients in (25, 50, 200)}
        for system in systems
    }


def test_saturation_lands_in_the_papers_regime(curves):
    peak = max(r.throughput for r in curves["idem"].values())
    assert 30_000 < peak < 70_000
    latency = curves["idem"][50].latency_ms
    assert 0.5 < latency < 2.5


def test_idem_latency_plateaus_under_overload(curves):
    at_saturation = curves["idem"][50].latency_ms
    at_overload = curves["idem"][200].latency_ms
    assert at_overload < 1.5 * at_saturation


def test_nopr_latency_explodes_under_overload(curves):
    at_saturation = curves["idem-nopr"][50].latency_ms
    at_overload = curves["idem-nopr"][200].latency_ms
    assert at_overload > 2.5 * at_saturation


def test_paxos_latency_explodes_under_overload(curves):
    at_saturation = curves["paxos"][50].latency_ms
    at_overload = curves["paxos"][200].latency_ms
    assert at_overload > 2.5 * at_saturation


def test_rejection_costs_nothing_below_the_threshold(curves):
    idem = curves["idem"][25]
    nopr = curves["idem-nopr"][25]
    assert idem.throughput == pytest.approx(nopr.throughput, rel=0.02)
    assert idem.latency_ms == pytest.approx(nopr.latency_ms, rel=0.05)
    assert idem.reject_throughput == 0


def test_idem_rejects_only_past_saturation(curves):
    assert curves["idem"][25].reject_throughput == 0
    assert curves["idem"][200].reject_throughput > 0


def test_bftsmart_saturates_below_paxos(curves):
    bft_peak = max(r.throughput for r in curves["bftsmart"].values())
    paxos_peak = max(r.throughput for r in curves["paxos"].values())
    assert bft_peak < paxos_peak


def test_cluster_is_cpu_bound_at_overload(curves):
    overload = curves["paxos"][200]
    assert max(s["utilization"] for s in overload.replica_stats) > 0.9
