"""Reproducibility: identical seeds give bit-identical results."""

import os
import subprocess
import sys

import pytest

from repro.cluster.runner import RunSpec, run_experiment

from tests.conftest import small_profile


def result_fingerprint(result):
    return (
        result.throughput,
        result.latency,
        result.reject_throughput,
        result.reject_latency,
        result.timeouts,
        result.traffic["total_bytes"],
        result.traffic["total_messages"],
        tuple(tuple(sorted(stats.items())) for stats in result.replica_stats),
    )


@pytest.mark.parametrize("system", ["idem", "paxos", "paxos-lbr", "bftsmart"])
def test_same_seed_is_bit_reproducible(system):
    spec = dict(
        system=system, clients=8, duration=0.5, warmup=0.1, seed=11,
        profile=small_profile(),
    )
    a = run_experiment(RunSpec(**spec))
    b = run_experiment(RunSpec(**spec))
    assert result_fingerprint(a) == result_fingerprint(b)


def test_different_seeds_differ():
    base = dict(
        system="idem", clients=8, duration=0.5, warmup=0.1, profile=small_profile()
    )
    a = run_experiment(RunSpec(seed=1, **base))
    b = run_experiment(RunSpec(seed=2, **base))
    assert result_fingerprint(a) != result_fingerprint(b)


def test_reproducible_under_message_loss():
    profile = small_profile(loss_probability=0.02)
    spec = dict(
        system="idem", clients=5, duration=0.6, warmup=0.1, seed=5, profile=profile
    )
    a = run_experiment(RunSpec(**spec))
    b = run_experiment(RunSpec(**spec))
    assert result_fingerprint(a) == result_fingerprint(b)


def test_reproducible_across_crashes():
    from repro.cluster.faults import FaultSchedule

    def run():
        return run_experiment(
            RunSpec(
                system="idem",
                clients=5,
                duration=2.0,
                warmup=0.2,
                seed=9,
                profile=small_profile(),
                overrides={"view_change_timeout": 0.4},
                faults=FaultSchedule().crash_leader(0.5),
            )
        )

    assert result_fingerprint(run()) == result_fingerprint(run())


def _run_fig2_with_hash_seed(hash_seed: str) -> str:
    """Render fig2 (tiny settings) in a subprocess with PYTHONHASHSEED set."""
    code = (
        "from repro.campaign import CampaignOptions, run_campaign\n"
        "options = CampaignOptions(experiments=['fig2'], quick=True, runs=1,\n"
        "                          duration=0.2, jobs=1, cache_dir=None)\n"
        "print(run_campaign(options).outcomes[0].text)\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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


def test_fig2_byte_identical_across_hash_seeds():
    """Hash randomization must not leak into experiment output.

    Set iteration order (and str hashing generally) varies with
    PYTHONHASHSEED; detlint's DET005 guards the known sites statically,
    and this test pins the end-to-end property: the same seeded fig2
    sweep renders byte-identically under different hash seeds.
    """
    out_a = _run_fig2_with_hash_seed("1")
    out_b = _run_fig2_with_hash_seed("4242")
    assert "paxos" in out_a  # the run actually produced the table
    assert out_a == out_b
