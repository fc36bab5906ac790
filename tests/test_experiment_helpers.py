"""Tests for experiment-layer helpers (fairness index, CLI plumbing)."""

import pytest

from repro.experiments.common import jain_fairness


class TestJainFairness:
    def test_perfectly_fair(self):
        assert jain_fairness([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_totally_unfair(self):
        index = jain_fairness([100.0, 0.0, 0.0, 0.0])
        assert index == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_bounds(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0]
        index = jain_fairness(values)
        assert 1.0 / len(values) <= index <= 1.0

    def test_more_even_is_fairer(self):
        assert jain_fairness([5.0, 5.0, 6.0]) > jain_fairness([1.0, 5.0, 10.0])

    def test_aqm_rotation_shares_an_overloaded_system_evenly(self):
        """Section 5.1: "all clients having a similar share of accepted
        and rejected requests over the runtime".  100 clients against
        RT=50 form two priority groups; with the time slice shortened
        the 1 s run covers two full rotations.  (With the paper's 2 s
        slice it covers none and the index is ~0.57.)"""
        from repro.cluster.builder import build_cluster

        cluster = build_cluster(
            "idem", 100, seed=5, stop_time=1.0, overrides={"aqm_time_slice": 0.25}
        )
        cluster.run_until(1.0)
        successes = [client.successes for client in cluster.clients]
        assert sum(client.rejections for client in cluster.clients) > 0
        assert min(successes) > 0
        assert jain_fairness([float(count) for count in successes]) >= 0.9


class TestCliRun:
    def test_running_a_single_experiment_prints_its_report(self, capsys, monkeypatch):
        """The CLI executes an experiment module end-to-end (stubbed)."""
        from repro import cli
        from repro.experiments import registry

        class FakeModule:
            __doc__ = "Fake experiment."

            @staticmethod
            def run(quick=False, runs=None, seed0=0, duration=None):
                return {"quick": quick, "seed": seed0}

            @staticmethod
            def render(data):
                return f"FAKE REPORT quick={data['quick']} seed={data['seed']}"

        monkeypatch.setitem(registry.EXPERIMENTS, "fake", FakeModule)
        assert cli.main(["fake", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FAKE REPORT quick=True seed=3" in out
        assert "[fake finished" in out

    def test_all_runs_every_registered_experiment(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry

        ran = []

        class Stub:
            __doc__ = "Stub."

            def __init__(self, name):
                self.name = name

            def run(self, quick=False, runs=None, seed0=0, duration=None):
                ran.append(self.name)
                return None

            def render(self, data):
                return f"report {self.name}"

        monkeypatch.setattr(
            registry, "EXPERIMENTS", {"a": Stub("a"), "b": Stub("b")}
        )
        monkeypatch.setattr(cli, "EXPERIMENTS", registry.EXPERIMENTS)
        assert cli.main(["all"]) == 0
        assert ran == ["a", "b"]
