"""``BENCHMARK.json`` and ``ledger.spec`` say the same thing."""

import json
import re
from pathlib import Path

from ledger import adapter
from ledger.spec import END_TO_END, GATED, LAYERS, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "-m", "ledger.run"]
    assert BENCHMARK["paths"] == ["ledger"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_match_the_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_spec():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [m.name for m in GATED]
    for entry, metric in zip(BENCHMARK["end_to_end"], GATED):
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        assert entry["bound"] == metric.seed_bound <= 0.25
    setup = BENCHMARK["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_match_the_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert len(PER_LAYER) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(metric.unit) and metric.better in ("lower", "higher")
    for layer in LAYERS:
        assert f"{layer}.self_share" in names and f"{layer}.calls_per_req" in names


def test_adapter_is_the_only_importer_of_repro():
    pattern = re.compile(r"^\s*(from|import)\s+repro\b", re.MULTILINE)
    importers = [
        path.name for path in (ROOT / "ledger").glob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert importers == []  # adapter.py resolves the names through importlib
    assert adapter.MISSING == []


def test_check_api_names_what_is_missing(monkeypatch):
    monkeypatch.setitem(adapter.API, "repro.campaign", ("execute_jobs", "no_such_name"))
    monkeypatch.setitem(adapter.API, "repro.no_such_module", ("thing",))
    _, missing = adapter._resolve_api()
    assert missing[0] == "repro.campaign.no_such_name"
    assert missing[1].startswith("repro.no_such_module.thing")
