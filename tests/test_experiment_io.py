"""Tests for JSON export of experiment results."""

import json

from repro.experiments.io import save_json, to_jsonable
from repro.obs import TraceEvent
from repro.sim.monitor import SummaryStats

from tests.test_experiments import make_point


class TestToJsonable:
    def test_point_round_trips(self):
        data = to_jsonable(make_point())
        assert data["system"] == "idem"
        assert data["throughput"] == 43_000.0
        json.dumps(data)  # must be serialisable

    def test_nested_structures(self):
        from repro.experiments.fig6_comparison import Fig6Data

        data = Fig6Data({"idem": [make_point()], "paxos": [make_point("paxos")]})
        jsonable = to_jsonable(data)
        assert jsonable["curves"]["idem"][0]["system"] == "idem"
        json.dumps(jsonable)

    def test_summary_stats(self):
        stats = SummaryStats.of([1.0, 2.0, 3.0])
        jsonable = to_jsonable(stats)
        assert jsonable["count"] == 3

    def test_namedtuples(self):
        jsonable = to_jsonable(TraceEvent(1.5, "replica-0", "recv", (3, 1), None))
        assert jsonable["time"] == 1.5
        assert jsonable["rid"] == [3, 1]
        json.dumps(jsonable)

    def test_unknown_objects_fall_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert to_jsonable(Weird()) == "<weird>"

    def test_scalars_pass_through(self):
        assert to_jsonable(None) is None
        assert to_jsonable(3) == 3
        assert to_jsonable("x") == "x"


class TestSaveJson:
    def test_writes_valid_json(self, tmp_path):
        path = save_json(make_point(), tmp_path / "out" / "point.json")
        loaded = json.loads(path.read_text())
        assert loaded["clients"] == 50

    def test_cli_json_flag(self, tmp_path, capsys, monkeypatch):
        """`campaign --json DIR` writes each experiment's raw data."""
        from repro import cli
        from repro.experiments import registry

        from tests.test_experiment_helpers import StubExperiment

        monkeypatch.setitem(registry.EXPERIMENTS, "fakejson", StubExperiment("fakejson"))
        argv = ["campaign", "--experiments", "fakejson", "--seed", "4"]
        argv += ["--no-cache", "--jobs", "1", "--json", str(tmp_path)]
        assert cli.main(argv) == 0
        loaded = json.loads((tmp_path / "fakejson.json").read_text())
        assert loaded["seed"] == 4 and loaded["successes"] > 0
