"""A ``--scale 0.05`` smoke of all five workloads through the one command."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ledger.spec import END_TO_END, GATED, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def ledger_run(*args, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ledger.run", "--scale", "0.05", "--seconds", "0", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False,
    )


def full_record(tmp_path_factory, hashseed):
    out = tmp_path_factory.mktemp("ledger") / "record.json"
    done = ledger_run("--trace", "--seed", "1", "--out", str(out), hashseed=hashseed)
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    return full_record(tmp_path_factory, hashseed="1")


@pytest.fixture(scope="module")
def record_again(tmp_path_factory):
    return full_record(tmp_path_factory, hashseed="2")


def test_record_shape(record):
    assert record["claim"] is None and record["ledger"] == 1
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, entry in record["workloads"].items():
        assert entry["correct"], (name, entry["checks"])
        assert all(entry["checks"].values())
        assert entry["ops_attempted"] >= 1 and entry["ops_failed"] == 0
        assert set(entry["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in PER_LAYER}
        assert set(entry["samples"]) == set(entry["end_to_end"])
        for key in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert NAME.fullmatch(key)
        shares = [v for k, v in entry["per_layer"].items() if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)
    grid = record["workloads"]["campaign_grid"]
    assert {"warm_equals_cold", "warm_all_hits", "pool_used"} <= set(grid["checks"])
    assert grid["per_layer"]["campaign.warm_hit_ratio"] == 1.0
    assert "no_safety_violation" in record["workloads"]["idem_leader_crash"]["checks"]


def test_simulated_metrics_and_call_counts_repeat_exactly(record, record_again):
    """Two invocations, two PYTHONHASHSEEDs: every exact number agrees."""
    assert record["code_digest"] == record_again["code_digest"]
    for name in WORKLOADS:
        first, second = record["workloads"][name], record_again["workloads"][name]
        assert first["digest"] == second["digest"]
        assert first["ops_attempted"] == second["ops_attempted"]
        for key, value in first["end_to_end"].items():
            if key.startswith("sim_") and key != "sim_req_per_host_s":
                assert value == second["end_to_end"][key], (name, key)
        for key, value in first["per_layer"].items():
            if key.endswith(".calls_per_req"):
                assert value == second["per_layer"][key], (name, key)


def test_traced_layers_are_written(record):
    for name in WORKLOADS:
        table = json.loads((ROOT / "ledger" / "out" / f"{name}.layers.json").read_text())
        assert len(table["sim"]["top"]) == 10
        assert (ROOT / "ledger" / "out" / f"{name}.pstats").stat().st_size > 0


def test_another_seed_is_another_input(record, tmp_path):
    out = tmp_path / "seed2.json"
    done = ledger_run("--workload", "paxos_saturated", "--seed", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout
    other = json.loads(out.read_text(encoding="utf-8"))["workloads"]["paxos_saturated"]
    assert other["digest"] != record["workloads"]["paxos_saturated"]["digest"]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m.name for m in GATED]
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_trace_1_prints_every_per_layer_metric():
    done = ledger_run("--workload", "idem_overload", "--seed", "1", "--trace", "1")
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.splitlines()[-1])
    assert list(line["metrics"]) == [m.name for m in PER_LAYER]
    assert line["metrics"]["core.self_share"]["value"] > 0.05


def test_check_api_lists_the_contract():
    done = subprocess.run(
        [sys.executable, "-m", "ledger.run", "--check-api"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 0
    assert "repro.campaign.plan.sim_job" in done.stdout.split()
