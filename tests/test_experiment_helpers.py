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



def tiny_spec(seed0=0, system="idem"):
    from repro.cluster.runner import RunSpec

    return RunSpec(system=system, clients=2, duration=0.3, warmup=0.1, seed=seed0)


class StubExperiment:
    """The experiment-module interface, over one tiny simulation."""

    def __init__(self, name, ran=None, system="idem"):
        self.__doc__ = f"Stub {name}."
        self.name = name
        self.ran = ran if ran is not None else []
        self.system = system

    def plan(self, quick=False, runs=None, seed0=0, duration=None):
        return [(quick, [tiny_spec(seed0, self.system)])]

    def assemble(self, plan, results):
        self.ran.append(self.name)
        [(quick, [spec])] = plan
        [[result]] = results
        return {"quick": quick, "seed": spec.seed, "successes": result.client_stats["successes"]}

    def render(self, data):
        return f"STUB {self.name} quick={data['quick']} seed={data['seed']}"

    def headlines(self, data):
        return {}

    def claims(self, data):
        return []


class TestCliRun:
    def test_running_a_single_experiment_prints_its_report(self, capsys, monkeypatch):
        """`campaign --experiments <id>` runs one module end to end."""
        from repro import cli
        from repro.experiments import registry

        monkeypatch.setitem(registry.EXPERIMENTS, "fake", StubExperiment("fake"))
        argv = ["campaign", "--experiments", "fake", "--quick", "--seed", "3"]
        assert cli.main(argv + ["--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "STUB fake quick=True seed=3\n\n"

    def test_all_runs_every_registered_experiment(self, capsys, monkeypatch):
        """`campaign` without a selection runs every registered module."""
        from repro import cli
        from repro.campaign import engine
        from repro.experiments import registry

        ran = []
        stubs = {name: StubExperiment(name, ran) for name in ("a", "b")}
        monkeypatch.setattr(registry, "EXPERIMENTS", stubs)
        monkeypatch.setattr(engine, "EXPERIMENTS", stubs)
        assert cli.main(["campaign", "--no-cache", "--jobs", "1"]) == 0
        assert ran == ["a", "b"]
        out = capsys.readouterr().out
        assert out == "STUB a quick=False seed=0\n\nSTUB b quick=False seed=0\n\n"

    def test_a_failing_job_exits_one_naming_it(self, capsys, monkeypatch):
        """A job that raises ends the campaign with exit 1 and one
        error line naming the job; no report is printed."""
        from repro import cli
        from repro.experiments import registry

        stub = StubExperiment("broken", system="nope")
        monkeypatch.setitem(registry.EXPERIMENTS, "broken", stub)
        argv = ["campaign", "--experiments", "broken", "--no-cache", "--jobs", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "failed" in line]
        assert len(errors) == 1
        assert errors[0].startswith("campaign: job broken/nope/c2/s0 (key ")
        assert "ValueError: unknown system 'nope'" in errors[0]
        assert stub.ran == []
