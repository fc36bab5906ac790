"""``ledger.compare`` verdicts on hand-made records."""

import copy
import json

from ledger import compare
from ledger.spec import END_TO_END

METRICS = {metric.name: metric for metric in END_TO_END}


def record(code="c1", seed=1, **samples):
    base = {
        "setup_s": [0.13, 0.14, 0.15], "host_s": [4.0, 4.1, 4.2],
        "sim_req_per_host_s": [25000.0, 24400.0, 23800.0], "peak_rss_mb": [40.0],
        "sim_goodput_rps": [48000.0], "sim_p50_ms": [3.1], "sim_p99_ms": [3.5],
        "sim_p999_ms": [3.7], "sim_reject_p99_ms": [0.0], "sim_outage_ms": [0.0],
    }
    base.update(samples)
    return {
        "code_digest": code, "seed": seed, "scale": 1.0,
        "workloads": {"paxos_saturated": {
            "correct": True, "checks": {"repeats_identical": True},
            "ops_attempted": 1000, "ops_failed": 0, "samples": base,
            "per_layer": {"sim.calls_per_req": 73.5, "sim.self_share": 0.27},
        }},
    }


def verdicts(a, b):
    rows, notes = compare.compare(a, b)
    return {row.metric: row.verdict for row in rows}, notes


def test_identical_records_are_same():
    result, notes = verdicts(record(), record())
    assert set(result.values()) == {"same"} and not notes
    assert set(result) == set(METRICS)


def test_worse_better_and_direction():
    slow = record(code="c2", host_s=[5.9, 6.0, 6.1], sim_goodput_rps=[52000.0])
    result, _ = verdicts(record(), slow)
    assert result["host_s"] == "worse"  # lower is better, +46%
    assert result["sim_goodput_rps"] == "better"  # higher is better, +8%
    result, _ = verdicts(slow, record())
    assert result["host_s"] == "better" and result["sim_goodput_rps"] == "worse"


def test_spread_wider_than_bound_is_unresolved():
    noisy = record(code="c2", host_s=[3.0, 4.2, 5.4])
    result, _ = verdicts(record(), noisy)
    assert result["host_s"] == "unresolved"
    # ...unless the medians differ by more than that spread.
    result, _ = verdicts(record(), record(code="c2", host_s=[7.6, 8.2, 8.8]))
    assert result["host_s"] == "worse"


def test_setup_floor_allows_small_absolute_changes():
    metric = METRICS["setup_s"]
    within_floor = compare.judge("w", metric, [0.020], [0.035], exact=False)
    assert within_floor.verdict == "same"  # +75% but only 15 ms
    assert compare.judge("w", metric, [0.20], [0.30], exact=False).verdict == "worse"


def test_zero_medians():
    metric = METRICS["sim_outage_ms"]
    assert compare.judge("w", metric, [0.0], [0.0], exact=False).verdict == "same"
    assert compare.judge("w", metric, [0.0], [5.0], exact=False).verdict == "worse"


def test_exact_mode_requires_bit_equal_sim_metrics_and_call_counts():
    drifted = record(sim_p99_ms=[3.5000001])
    drifted["workloads"]["paxos_saturated"]["per_layer"]["sim.calls_per_req"] = 73.6
    result, _ = verdicts(record(), drifted)
    assert result["sim_p99_ms"] == "worse"
    assert result["sim.calls_per_req"] == "worse"
    assert result["host_s"] == "same"  # host time is never compared exactly
    # The same drift between different commits is inside the 1 % band.
    drifted["code_digest"] = "c2"
    result, _ = verdicts(record(), drifted)
    assert result["sim_p99_ms"] == "same" and "sim.calls_per_req" not in result


def test_failures_and_failed_checks_are_reported(tmp_path, capsys):
    bad = copy.deepcopy(record())
    bad["workloads"]["paxos_saturated"].update(
        ops_failed=3, correct=False, checks={"repeats_identical": False}
    )
    _, notes = verdicts(record(), bad)
    assert len(notes) == 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record()))
    b.write_text(json.dumps(bad))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "exact mode (same code, seed and scale): on" in capsys.readouterr().out
