"""Tests for ``repro.campaign``: planner, cache, pool, engine, baselines.

The acceptance properties from the campaign design:

* a parallel campaign's rendered output is byte-identical to the serial
  path (and a re-run resolves everything from the cache, still
  byte-identical);
* every experiment's ``assemble`` builds its data from the results of
  its own plan and simulates nothing;
* a job that raises names itself, serial or pooled;
* a pool that loses a worker re-runs only the jobs that had no result,
  and a finished job leaves no simulation behind in its process;
* the baseline gate passes on freshly written records and fails
  (non-zero exit) on any change to a headline or a job fingerprint,
  naming it;
* a paper claim that does not hold fails ``--check`` and blocks
  ``--update-baselines``, and is harmless without either.
"""

import gc
import json
import math
import multiprocessing
import os
import pathlib
import pickle
import signal
from types import SimpleNamespace

import pytest

from repro.campaign import (
    CampaignOptions,
    ExecutionStats,
    JobFailed,
    MISS,
    ResultCache,
    UnplannableSpec,
    check_baselines,
    execute_jobs,
    execute_payload,
    job_key,
    job_profile,
    payload_to_spec,
    plan_experiment,
    result_fingerprint,
    run_campaign,
    should_verify,
    spec_to_payload,
    write_baseline,
)
from repro.campaign.baseline import baseline_path
from repro.campaign.plan import KIND_SIM, sim_job
from repro.campaign.report import render_slowest, render_summary
from repro.cluster.faults import FaultSchedule
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec, run_experiment
from repro.experiments import EXPERIMENTS, common
from repro.experiments.tab1_overhead import Tab1Cell
from repro.sim.loop import EventLoop
from repro.workload.open_loop import ArrivalSpec
from repro.workload.schedule import BurstSchedule, ConstantSchedule, StepSchedule


def tiny_spec(seed: int = 0, **overrides) -> RunSpec:
    values = dict(
        system="idem", clients=2, duration=0.3, warmup=0.1, seed=seed,
        keep_metrics=True,
    )
    values.update(overrides)
    return RunSpec(**values)


@pytest.fixture(scope="module")
def tiny_result():
    """One real simulation result, shared by every test that needs one."""
    return run_experiment(tiny_spec())


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One cache directory shared across the campaign-level tests, so
    the CLI round-trip reuses what the parity test already simulated."""
    return tmp_path_factory.mktemp("campaign-cache")


class TestPlan:
    def test_payload_roundtrip_with_faults_profile_overrides(self):
        spec = tiny_spec(
            overrides={"reject_threshold": 40},
            profile=ClusterProfile(),
            faults=FaultSchedule().crash_leader(2.0),
            safety=True,
        )
        payload = spec_to_payload(spec)
        json.dumps(payload)  # must be JSON-safe as-is
        rebuilt = payload_to_spec(payload)
        assert spec_to_payload(rebuilt) == payload
        assert rebuilt.faults.faults == spec.faults.faults
        assert rebuilt.profile == spec.profile

    def test_key_excludes_experiment_and_label(self):
        spec = tiny_spec()
        a, b = sim_job("fig7", spec), sim_job("fig9", spec)
        assert a.key == b.key
        assert a.label != b.label

    def test_key_changes_with_payload(self):
        assert sim_job("x", tiny_spec(seed=0)).key != sim_job("x", tiny_spec(seed=1)).key

    def test_key_ignores_payload_key_order(self):
        # Canonical JSON sorts keys: one payload built in two orders is
        # one cache entry, at every nesting level.
        payload = spec_to_payload(tiny_spec(overrides={"reject_threshold": 40}))
        reordered = {
            name: dict(reversed(value.items())) if isinstance(value, dict) else value
            for name, value in reversed(payload.items())
        }
        assert reordered == payload
        assert list(reordered) != list(payload)
        assert job_key(KIND_SIM, reordered) == job_key(KIND_SIM, payload)

    def test_unplannable_specs_raise(self):
        class CustomSchedule(ConstantSchedule):
            """Subclasses are unplannable: a worker cannot rebuild them."""

        with pytest.raises(UnplannableSpec):
            spec_to_payload(tiny_spec(observe=True))
        with pytest.raises(UnplannableSpec):
            spec_to_payload(tiny_spec(schedule=CustomSchedule(clients=2)))
        with pytest.raises(UnplannableSpec):
            spec_to_payload(tiny_spec(overrides={"bad": object()}))

    @pytest.mark.parametrize(
        "schedule",
        [
            ConstantSchedule(clients=2),
            StepSchedule(steps=((0.0, 1), (0.2, 3))),
            BurstSchedule(base=1, burst=4, period=0.2, burst_duration=0.05),
        ],
        ids=["constant", "step", "burst"],
    )
    def test_builtin_schedules_roundtrip(self, schedule):
        payload = spec_to_payload(tiny_spec(schedule=schedule))
        json.dumps(payload)
        rebuilt = payload_to_spec(payload)
        assert rebuilt.schedule == schedule
        assert spec_to_payload(rebuilt) == payload

    def test_arrivals_roundtrip(self):
        arrivals = ArrivalSpec(steps=((0.0, 100.0), (0.2, 400.0)))
        payload = spec_to_payload(tiny_spec(arrivals=arrivals))
        json.dumps(payload)
        rebuilt = payload_to_spec(payload)
        assert rebuilt.arrivals == arrivals
        assert spec_to_payload(rebuilt) == payload

    def test_cross_experiment_jobs_dedup_by_key(self):
        settings = dict(quick=True, runs=1, duration=0.3)
        jobs = plan_experiment("fig7", **settings) + plan_experiment("fig9", **settings)
        keys = [job.key for job in jobs]
        # fig7's 2x/8x idem points reappear in fig9b's sweep.
        assert len(set(keys)) < len(keys)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("quick", [True, False])
    def test_assemble_simulates_nothing(
        self, experiment_id, quick, tiny_result, monkeypatch
    ):
        """``assemble`` builds the data from the results it is handed,
        one per job of the plan, and ``render``/``headlines``/``claims``
        read only that data: with every way to simulate patched to
        raise, the whole reduction still runs."""
        import repro
        from repro.cluster import builder, runner
        from repro.experiments import tab1_overhead

        module = EXPERIMENTS[experiment_id]
        plan = module.plan(quick=quick)

        def canned(job):
            if isinstance(job, RunSpec):
                return tiny_result
            return Tab1Cell(
                system=job["system"], load_label=job["load_label"],
                clients=job["clients"], requests_completed=100, total_bytes=1_000,
                client_bytes=800, replica_bytes=200, rejects=0, sim_seconds=1.0,
            )

        results = [[canned(job) for job in jobs] for _label, jobs in plan]

        def must_not_simulate(*args, **kwargs):
            raise AssertionError("assemble simulated")

        for owner, name in (
            (runner, "run_experiment"),
            (repro, "run_experiment"),
            (runner, "build_cluster"),
            (builder, "build_cluster"),
            (tab1_overhead, "build_cluster"),
            (tab1_overhead, "measure_cell"),
        ):
            monkeypatch.setattr(owner, name, must_not_simulate)
        data = module.assemble(plan, results)
        assert module.render(data)
        assert all(type(value) is float for value in module.headlines(data).values())
        assert module.claims(data)


class TestCache:
    def test_store_load_roundtrip(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        job = sim_job("t", tiny_spec())
        cache.store(job.key, tiny_result, job)
        loaded = cache.load(job.key)
        assert result_fingerprint(loaded) == result_fingerprint(tiny_result)
        meta = json.loads(
            (tmp_path / job.key[:2] / f"{job.key}.json").read_text()
        )
        assert meta["label"] == job.label

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is MISS
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_evicted_and_missed(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        job = sim_job("t", tiny_spec())
        cache.store(job.key, tiny_result, job)
        (tmp_path / job.key[:2] / f"{job.key}.pkl").write_bytes(b"not a pickle")
        assert cache.load(job.key) is MISS
        assert cache.stats.corrupt == 1
        assert not cache.contains(job.key)

    def test_fingerprint_masks_object_identity(self, tiny_result):
        # keep_metrics attaches a live MetricsCollector; two loads of the
        # same result must fingerprint identically regardless.
        clone = pickle.loads(pickle.dumps(tiny_result))
        assert result_fingerprint(clone) == result_fingerprint(tiny_result)

    def test_fingerprint_covers_the_kept_collector(self, tiny_result):
        """A stale cache hit that differs only inside the kept collector
        (fig3/fig10/figR read it) must not pass --verify."""
        reference = result_fingerprint(tiny_result)
        samples = tiny_result.metrics.reply_latency.samples
        assert samples

        def nudge_sample(metrics):
            metrics.reply_latency.samples[-1] = math.nextafter(samples[-1], 1.0)

        for mutate in (
            nudge_sample,
            lambda metrics: metrics.reject_gaps.record(1e9),
            lambda metrics: metrics.reply_counter.record(0.0),
        ):
            clone = pickle.loads(pickle.dumps(tiny_result))
            mutate(clone.metrics)
            assert result_fingerprint(clone) != reference

    def test_leftover_shard_entry_never_serves_a_sim_job(
        self, tmp_path, tiny_result, capsys
    ):
        """An older checkout's `--shards` left "sim-shard" entries and
        manifests behind.  The kind is part of the key, so no sim job
        resolves to one, and `gc` reclaims them past the keep window."""
        from repro.campaign import record_run
        from repro.campaign.plan import Job
        from repro.cli import main

        cache = ResultCache(tmp_path)
        cohort = dict(spec_to_payload(tiny_spec()), shard={"index": 0, "of": 2})
        old = Job("fig2", "sim-shard", cohort, "fig2/idem/c2/s0#shard0of2")
        cache.store(old.key, tiny_result, old)
        record_run(cache.root, [old.key], started=1000.0)

        current = sim_job("fig2", payload_to_spec(cohort))
        assert current.key != old.key
        assert cache.load(current.key) is MISS
        _, stats = execute_jobs([current], workers=1, cache=cache)
        assert stats.cache_hits == 0 and stats.executed == 1

        # Five newer runs fill the default keep window.
        for started in (2000.0, 3000.0, 4000.0, 5000.0, 6000.0):
            record_run(cache.root, [current.key], started=started)
        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not cache.contains(old.key)
        assert cache.contains(current.key)

    def test_should_verify_bounds_and_determinism(self):
        key = "ab" * 32
        assert not should_verify(key, 0.0)
        assert should_verify(key, 1.0)
        assert should_verify(key, 0.3) == should_verify(key, 0.3)


class TestPool:
    def test_execute_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [sim_job("t", tiny_spec())]
        results, stats = execute_jobs(jobs, workers=1, cache=cache)
        assert stats.executed == 1 and stats.cache_hits == 0 and stats.stored == 1
        again, stats2 = execute_jobs(jobs, workers=1, cache=cache)
        assert stats2.cache_hits == 1 and stats2.executed == 0
        assert stats2.hit_rate == 1.0
        key = jobs[0].key
        assert result_fingerprint(again[key]) == result_fingerprint(results[key])

    def test_duplicate_jobs_execute_once(self, tmp_path):
        job = sim_job("t", tiny_spec())
        results, stats = execute_jobs([job, job], workers=1, cache=None)
        assert stats.planned == 2 and stats.unique == 1 and stats.executed == 1
        assert list(results) == [job.key]

    def test_verification_catches_stale_entry(self, tmp_path, tiny_result):
        from repro.campaign import CacheVerificationError

        cache = ResultCache(tmp_path)
        job = sim_job("t", tiny_spec(seed=1))
        # Poison the cache: the seed=0 result stored under the seed=1 key.
        cache.store(job.key, tiny_result, job)
        with pytest.raises(CacheVerificationError):
            execute_jobs([job], workers=1, cache=cache, verify_fraction=1.0)
        assert not cache.contains(job.key)  # stale entry evicted

    def test_execute_payload_frees_the_simulation(self):
        """No event loop a job built outlives the job, even with the
        automatic collector off: the cluster's cycles are collected
        before the result is handed back."""
        job = sim_job("t", tiny_spec(seed=2))
        gc.collect()
        before = {id(obj) for obj in gc.get_objects() if isinstance(obj, EventLoop)}
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = execute_payload(job.kind, dict(job.payload))
            left = [
                obj for obj in gc.get_objects()
                if isinstance(obj, EventLoop) and id(obj) not in before
            ]
        finally:
            if was_enabled:
                gc.enable()
        assert result.throughput > 0
        assert left == []

    def test_broken_pool_reruns_only_the_lost_jobs(self, tmp_path):
        """A worker SIGKILLed after the first job finishes breaks the
        pool; the finished job's result is kept (and cached), and only
        the others re-run serially, each exactly once."""
        jobs = [sim_job("t", tiny_spec(seed=seed)) for seed in range(10, 14)]
        serial, _ = execute_jobs(jobs, workers=1, cache=None)
        notes, killed = [], []

        def kill_a_worker(note):
            notes.append(note)
            if note.startswith("campaign: finished") and not killed:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.pid)

        cache = ResultCache(tmp_path)
        results, stats = execute_jobs(jobs, workers=2, cache=cache, echo=kill_a_worker)
        assert killed and stats.pool_fallback
        assert stats.executed == stats.unique == 4
        rerun = [note for note in notes if "serially" in note]
        assert len(rerun) == 1
        rerun_count = int(rerun[0].split("re-running ")[1].split(" of 4")[0])
        assert rerun_count < 4
        for job in jobs:
            assert cache.contains(job.key)
            assert result_fingerprint(results[job.key]) == result_fingerprint(
                serial[job.key]
            )


class TestJobFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_job_names_itself(self, workers):
        """A job that raises surfaces as JobFailed naming its label and
        key, with its own exception chained; it is not mistaken for a
        pool failure and re-run serially."""
        bad = sim_job("t", tiny_spec(system="nope"))
        notes = []
        with pytest.raises(JobFailed) as raised:
            execute_jobs(
                [sim_job("t", tiny_spec(seed=7)), bad],
                workers=workers,
                cache=None,
                echo=notes.append,
            )
        message = str(raised.value)
        assert f"job {bad.label} (key {bad.key[:12]}) failed: ValueError: " in message
        assert "unknown system 'nope'" in message
        assert raised.value.job == bad
        assert isinstance(raised.value.__cause__, ValueError)
        assert not any("serially" in note for note in notes)


class TestCampaignEndToEnd:
    IDS = ["fig2", "fig7"]
    SETTINGS = dict(quick=True, runs=1, duration=0.25, seed0=0)

    def serial_texts(self):
        """The serial reference: one worker, no cache."""
        serial = run_campaign(
            CampaignOptions(
                experiments=list(self.IDS), jobs=1, cache_dir=None, **self.SETTINGS
            )
        )
        assert serial.stats.workers == 1 and serial.stats.cache_hits == 0
        return {o.experiment_id: o.text for o in serial.outcomes}

    def test_parallel_campaign_matches_serial_and_caches(self, shared_cache_dir):
        serial = self.serial_texts()
        options = CampaignOptions(
            experiments=list(self.IDS),
            jobs=4,
            cache_dir=shared_cache_dir,
            **self.SETTINGS,
        )
        cold = run_campaign(options)
        assert [o.experiment_id for o in cold.outcomes] == self.IDS
        assert {o.experiment_id: o.text for o in cold.outcomes} == serial
        assert cold.stats.executed == cold.stats.unique

        warm = run_campaign(options)
        assert {o.experiment_id: o.text for o in warm.outcomes} == serial
        assert warm.stats.executed == 0
        assert warm.stats.hit_rate == 1.0
        assert warm.exit_code == 0

    def test_baseline_cycle_via_cli(self, shared_cache_dir, tmp_path, capsys):
        """--update-baselines → --check passes → perturb → --check fails."""
        from repro.cli import main

        baseline_dir = tmp_path / "baselines"
        argv = [
            "campaign", "--experiments", "fig7", "--quick", "--runs", "1",
            "--duration", "0.25", "--jobs", "1",
            "--cache-dir", str(shared_cache_dir),
            "--baseline-dir", str(baseline_dir),
        ]
        assert main(argv + ["--update-baselines"]) == 0
        capsys.readouterr()
        raw_dir = tmp_path / "raw"
        assert main(argv + ["--check", "--json", str(raw_dir)]) == 0
        err = capsys.readouterr().err
        assert "=> PASS" in err and "claims: 3/3 hold" in err
        raw = json.loads((raw_dir / "fig7.json").read_text())
        assert {point["system"] for point in raw["points"]} == {"idem"}

        assert "headlines: 3/3 match" in err and "jobs: 2/2 match" in err

        path = baseline_path(baseline_dir, "fig7")
        document = json.loads(path.read_text())
        label = "fig7/idem/c400/s0 [idem]"
        document["jobs"][label] = "0" * 64
        path.write_text(json.dumps(document))
        assert main(argv + ["--check"]) == 1
        err = capsys.readouterr().err
        assert f"fig7 job {label}: " in err and "=> FAIL" in err
        assert "jobs: 1/2 match" in err

    def test_failing_claim_gates_check_and_update(
        self, shared_cache_dir, tmp_path, monkeypatch, capsys
    ):
        """A claim that does not hold: harmless on a plain run, exit 1
        under --check (named with the paper's sentence), and
        --update-baselines refuses to write anything."""
        from repro.cli import main
        from repro.experiments import fig7_reject_behavior as fig7

        # A healthy record, blessed while the claims still hold.
        healthy_dir = tmp_path / "healthy"
        healthy = run_campaign(
            CampaignOptions(
                experiments=["fig7"], jobs=1, cache_dir=shared_cache_dir,
                baseline_dir=healthy_dir, update_baselines=True, **self.SETTINGS,
            )
        )
        assert healthy.exit_code == 0 and len(healthy.baseline_paths) == 1

        sentence = "§7.3: reply latency stays on the plateau"
        broken = common.Claim("fig7.reply-latency-plateau", sentence, "9.99 ms", False)
        monkeypatch.setattr(fig7, "claims", lambda data: [broken])
        baseline_dir = tmp_path / "baselines"
        options = dict(
            experiments=["fig7"], jobs=1, cache_dir=shared_cache_dir,
            baseline_dir=baseline_dir, **self.SETTINGS,
        )
        plain = run_campaign(CampaignOptions(**options))
        assert plain.failed_claims == [broken] and plain.exit_code == 0

        blessed = run_campaign(CampaignOptions(update_baselines=True, **options))
        assert blessed.exit_code == 1 and blessed.baseline_paths == []
        assert not baseline_dir.exists()
        assert "baselines   : NOT written" in render_summary(blessed)

        # With a healthy record the claim alone fails --check.
        argv = [
            "campaign", "--experiments", "fig7", "--quick", "--runs", "1",
            "--duration", "0.25", "--jobs", "1", "--report", str(tmp_path / "r.json"),
            "--cache-dir", str(shared_cache_dir), "--baseline-dir", str(healthy_dir),
        ]
        assert main(argv + ["--check"]) == 1
        err = capsys.readouterr().err
        assert "=> PASS" in err and "FAILS" in err and sentence in err
        assert "claims: 0/1 hold; FAILS: fig7.reply-latency-plateau" in err
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["ok"] is False
        assert report["claims"] == [
            {"id": broken.id, "paper": sentence, "measured": "9.99 ms",
             "holds": False, "note": ""}
        ]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--experiments", "nope"], "unknown experiment"),
            (["--experiments", "fig2", "--jobs", "-1"], "jobs must be >= 0"),
            # A run count or duration that would silently become
            # another value (the default, or an empty grid).
            (["--experiments", "fig2", "--runs", "0"], "runs must be >= 1"),
            (["--experiments", "fig2", "--runs", "-1"], "runs must be >= 1"),
            (["--experiments", "fig2", "--duration", "0"], "duration must be > 0"),
        ],
    )
    def test_bad_usage_exits_two_with_one_line(self, bad, message, capsys):
        from repro.cli import main

        assert main(["campaign", *bad]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_zero_jobs_still_means_one_per_cpu(self):
        import os

        assert CampaignOptions(jobs=0).resolved_jobs() == (os.cpu_count() or 1)

    def test_removed_selectors_are_rejected_or_inert(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        for argv, message in (
            (["--sim-core", "array", "fig2"], "invalid choice: 'array'"),
            (["campaign", "--shards", "4"], "unrecognized arguments"),
            (["fig2", "--scenarios", "x"], "invalid choice: 'fig2'"),
            (["lint", "--changed"], "unrecognized arguments"),
            (["lint", "--cache-dir", "d"], "unrecognized arguments"),
            (["lint", "--sarif", "x"], "unrecognized arguments"),
            (["lint", "--baseline", "b"], "unrecognized arguments"),
            (["lint", "--update-baseline"], "unrecognized arguments"),
            (["population", "--validate"], "invalid choice: 'population'"),
            (["perf"], "invalid choice: 'perf'"),
            (["population"], "invalid choice: 'population'"),
            # The inline figure mode and the campaign's gc flags.
            (["fig6"], "invalid choice: 'fig6'"),
            (["all"], "invalid choice: 'all'"),
            (["--list"], "required: command"),
            (["campaign", "--gc"], "unrecognized arguments: --gc"),
        ):
            with pytest.raises(SystemExit) as raised:
                main(argv)
            assert raised.value.code == 2
            assert message in capsys.readouterr().err

        def traced() -> str:
            argv = ["trace", "--clients", "2", "--duration", "0.3"]
            assert main(argv + ["--out", str(tmp_path)]) == 0
            return capsys.readouterr().out

        baseline = traced()
        for value in ("array", "no-such-core"):
            monkeypatch.setenv("REPRO_SIM_CORE", value)
            assert traced() == baseline

        # The benchmark suite's two variables went with it: no quick
        # mode and no cache wrapper can be switched on from outside.
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        assert traced() == baseline
        planned = plan_experiment("fig2", runs=1)
        assert len(planned) == len(EXPERIMENTS["fig2"].FULL_CLIENTS)


COMMITTED = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def committed_record(experiment_id: str) -> dict:
    """A committed BENCH file as the record a campaign would produce."""
    document = json.loads(baseline_path(COMMITTED, experiment_id).read_text())
    del document["experiment"]
    return document


class TestBaselines:
    SETTINGS = dict(quick=True, runs=1, duration=0.5, seed0=0)

    def record(self, headlines=None, jobs=None, settings=None) -> dict:
        return {
            "settings": dict(settings or self.SETTINGS),
            "headlines": {"a": 1.0, "b": 2.0} if headlines is None else headlines,
            "jobs": {"fig2/idem/c10/s0 [idem]": "0" * 64} if jobs is None else jobs,
        }

    def check(self, tmp_path, current: dict):
        write_baseline(tmp_path, "fig2", self.record())
        return check_baselines(tmp_path, {"fig2": current})

    def test_identical_record_passes(self, tmp_path):
        report = self.check(tmp_path, self.record())
        assert report.ok
        text = report.render()
        assert "headlines: 2/2 match" in text and "jobs: 1/1 match" in text
        assert "=> PASS" in text

    def test_drift_beyond_tolerance_fails(self, tmp_path):
        report = self.check(tmp_path, self.record({"a": 1.3, "b": 2.0}))
        assert not report.ok
        assert report.problems == ["fig2 headline a: 1.0 -> 1.3"]
        assert "headlines: 1/2 match" in report.render()

    def test_one_ulp_change_to_any_committed_headline_fails(self):
        compared = 0
        for experiment_id in EXPERIMENTS:
            record = committed_record(experiment_id)
            assert check_baselines(COMMITTED, {experiment_id: record}).ok
            for name, value in record["headlines"].items():
                bumped = json.loads(json.dumps(record))
                bumped["headlines"][name] = math.nextafter(value, math.inf)
                report = check_baselines(COMMITTED, {experiment_id: bumped})
                [problem] = report.problems
                assert problem.startswith(f"{experiment_id} headline {name}: ")
                compared += 1
        assert compared >= 100

    def test_fig7_reject_latency_up_14_percent_fails(self):
        """A uniform +14 % shift of fig7's reject latency is a real
        change; the gate names the headline with both values."""
        record = committed_record("fig7")
        name = "max_load.reject_latency_ms"
        old = record["headlines"][name]
        record["headlines"][name] = old * 1.14
        report = check_baselines(COMMITTED, {"fig7": record})
        assert report.problems == [
            f"fig7 headline {name}: {old!r} -> {old * 1.14!r}"
        ]

    def test_new_headline_fails(self, tmp_path):
        report = self.check(tmp_path, self.record({"a": 1.0, "b": 2.0, "c": 3.0}))
        assert report.problems == ["fig2 headline c: 'missing' -> 3.0"]

    def test_missing_headline_or_job_fails(self, tmp_path):
        report = self.check(tmp_path, self.record({"a": 1.0}, jobs={}))
        assert report.problems == [
            "fig2 headline b: 2.0 -> 'missing'",
            f"fig2 job fig2/idem/c10/s0 [idem]: {'0' * 64!r} -> 'missing'",
        ]

    def test_changed_fingerprint_is_reported_by_its_job_label(self, tmp_path):
        record = self.record(jobs={"fig2/idem/c10/s0 [idem]": "1" * 64})
        report = self.check(tmp_path, record)
        [problem] = report.problems
        assert problem.startswith("fig2 job fig2/idem/c10/s0 [idem]: ")
        assert "jobs: 0/1 match" in report.render()

    def test_settings_mismatch_fails(self, tmp_path):
        report = self.check(tmp_path, self.record(settings=dict(self.SETTINGS, runs=3)))
        assert not report.ok
        [problem] = report.problems
        assert problem.startswith("fig2: BENCH_fig2.json recorded settings ")
        assert "headlines: 0/2 match" in report.render()

    def test_missing_baseline_fails(self, tmp_path):
        report = check_baselines(tmp_path, {"fig2": self.record()})
        assert report.problems == ["fig2: no BENCH_fig2.json"]
        assert "jobs: 0/1 match" in report.render()

    def test_update_names_what_it_changed(self, tmp_path):
        path, changes = write_baseline(tmp_path, "fig2", self.record())
        assert changes == ["fig2: no BENCH_fig2.json"]
        _, changes = write_baseline(tmp_path, "fig2", self.record({"a": 1.5, "b": 2.0}))
        assert changes == ["fig2 headline a: 1.0 -> 1.5"]
        assert write_baseline(tmp_path, "fig2", self.record({"a": 1.5, "b": 2.0}))[1] == []
        assert set(json.loads(path.read_text())) == {
            "experiment", "settings", "headlines", "jobs"
        }

    def test_module_headlines_fig2(self):
        from repro.experiments.fig2_existing_protocols import Fig2Data, headlines

        point = common.Point(
            system="paxos", clients=50, load_factor=1.0, throughput=50_000.0,
            throughput_std=0.0, latency_ms=1.2, latency_std_ms=0.1,
            reject_throughput=0.0, reject_latency_ms=0.0,
            reject_latency_std_ms=0.0, timeouts=0, runs=1,
        )
        metrics = headlines(Fig2Data([point]))
        assert metrics["knee.throughput"] == 50_000.0
        assert set(metrics) == {
            "knee.throughput", "knee.latency_ms", "max_load.latency_ms",
        }


# -- per-job profiles ---------------------------------------------------


def test_job_profile_pairs_wall_time_with_sim_counters():
    job = sim_job("fig2", tiny_spec())
    result = SimpleNamespace(
        sim_stats={"dispatched_events": 500, "peak_heap": 42, "drained_tombstones": 7}
    )
    profile = job_profile(job, result, wall_seconds=0.5)
    assert profile["key"] == job.key
    assert profile["dispatched_events"] == 500
    assert profile["events_per_sec"] == pytest.approx(1000.0)
    assert profile["peak_heap"] == 42
    assert profile["drained_tombstones"] == 7
    assert profile["cached"] is False


def test_job_profile_tolerates_results_without_sim_stats():
    job = sim_job("fig2", tiny_spec())
    profile = job_profile(job, object(), wall_seconds=0.5)
    assert profile["wall_seconds"] == 0.5
    assert profile["dispatched_events"] is None
    assert profile["events_per_sec"] is None


def test_cache_sidecar_profile_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    job = sim_job("fig2", tiny_spec())
    profile = job_profile(job, object(), wall_seconds=1.25)
    cache.store(job.key, {"data": 1}, job, profile=profile)
    assert cache.load_profile(job.key) == profile
    assert cache.load_profile("0" * 64) is None


def test_execute_jobs_profiles_fresh_and_cached_runs(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = [sim_job("fig2", tiny_spec())]

    _, cold = execute_jobs(jobs, cache=cache)
    assert len(cold.job_profiles) == 1
    fresh = cold.job_profiles[0]
    assert fresh["cached"] is False
    assert fresh["wall_seconds"] > 0
    assert fresh["dispatched_events"] > 0

    _, warm = execute_jobs(jobs, cache=cache)
    assert warm.executed == 0 and warm.cache_hits == 1
    cached = warm.job_profiles[0]
    assert cached["cached"] is True
    # The sidecar preserved the original execution's cost.
    assert cached["wall_seconds"] == fresh["wall_seconds"]
    assert cached["dispatched_events"] == fresh["dispatched_events"]


def test_render_slowest_orders_by_wall_time():
    stats = ExecutionStats(
        job_profiles=[
            {"label": "fast", "wall_seconds": 0.1, "dispatched_events": 10,
             "events_per_sec": 100.0, "cached": False},
            {"label": "slow", "wall_seconds": 2.0, "dispatched_events": 10,
             "events_per_sec": 5.0, "cached": True},
            {"label": "unprofiled", "wall_seconds": None},
        ]
    )
    text = render_slowest(SimpleNamespace(stats=stats), k=1)
    assert "Slowest 1 of 2" in text
    assert "slow (cached)" in text
    assert "fast" not in text


def test_render_slowest_with_no_profiles():
    text = render_slowest(SimpleNamespace(stats=ExecutionStats()), k=5)
    assert "no job profiles" in text
