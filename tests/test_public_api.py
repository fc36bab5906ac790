"""The public API surface: every advertised name exists and imports."""

import importlib
import importlib.util

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.app",
    "repro.workload",
    "repro.core",
    "repro.cluster",
    "repro.protocols",
    "repro.experiments",
    "repro.obs",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} is advertised but missing"


def test_second_core_and_sharding_are_not_exported():
    # One event loop, one deployment model, one instrument per question:
    # no selector survives as an alias.
    removed = {
        "repro.sim": "ArrayEvent ArrayEventLoop CORES make_loop use_core "
        "set_default_core get_default_core TimeSeries",
        "repro.campaign": "render_shards run_sharded shard_campaign_jobs "
        "merge_shard_groups SHARD_SEED_STRIDE CachingExecutor extract_headlines "
        "HEADLINE_EXTRACTORS CampaignExecutor plan_campaign "
        "DEFAULT_RELATIVE_TOLERANCE DEFAULT_ABSOLUTE_TOLERANCE BaselineEntry "
        "load_baseline",
        "repro.campaign.engine": "CampaignExecutor",
        # Exact gate: no tolerance band, no per-metric status zoo.
        "repro.campaign.baseline": "extract_headlines HEADLINE_EXTRACTORS "
        "DEFAULT_RELATIVE_TOLERANCE DEFAULT_ABSOLUTE_TOLERANCE _within "
        "BaselineEntry load_baseline check_experiment SETTINGS_FIELDS",
        "repro.campaign.cache": "_ADDRESS",
        "repro.net": "MessageTracer TraceFilter TraceRecord",
        "repro.analysis": "LintCache ProjectIndex build_index lint_project "
        "Baseline BaselineEntry",
        # One record per measurement: the trace and the flight recorder.
        "repro.obs": "resilience_summary Counter Gauge Histogram MetricsRegistry "
        "PercentileSketch WindowStats DetectorConfig DetectorRule RULES Probeable "
        "write_series_chrome_trace",
        "repro.obs.timeseries": "PercentileSketch WindowStats SKETCH_CAP "
        "SKETCH_BINS_PER_DECADE write_series_chrome_trace",
        "repro.obs.spans": "SAMPLE",
        "repro.experiments": "run_experiment_by_id",
        "repro.experiments.registry": "run_experiment_by_id",
        # One grid per figure: plan + assemble, no executor to keep a
        # second walk of the grid in step with the plan.
        "repro.experiments.common": "default_runs default_duration "
        "ExperimentExecutor use_executor execute_run execute_tab1_cell "
        "averaged_point sweep_specs",
    }
    for package_name, names in removed.items():
        package = importlib.import_module(package_name)
        for name in names.split():
            assert not hasattr(package, name), f"{package_name}.{name} is back"
    from repro.campaign import ExecutionStats

    assert not hasattr(ExecutionStats(), "inline_misses")
    assert importlib.util.find_spec("repro.perf") is None
    assert importlib.util.find_spec("repro.obs.registry") is None
    # One command surface: no environment-backed settings module.
    assert importlib.util.find_spec("repro.experiments.settings") is None
    # detlint is one per-file pass with pragmas: no project index, call
    # graph, hot-path or campaign rules, SARIF writer or baseline file.
    for module in ("index", "interproc", "perfrule", "sarif", "camp", "baseline"):
        assert importlib.util.find_spec(f"repro.analysis.{module}") is None, module
    from repro.net import Network
    from repro.sim import EventLoop, RngRegistry

    assert not hasattr(Network(EventLoop(), RngRegistry(0)), "tracer")


def test_top_level_quickstart_surface():
    import repro

    assert callable(repro.run_experiment)
    assert callable(repro.build_cluster)
    assert repro.RunSpec is not None
    assert repro.__version__


def test_systems_registry_is_complete():
    from repro import SYSTEMS

    expected = {
        "idem",
        "idem-nopr",
        "idem-noaqm",
        "idem-pessimistic",
        "idem-cost",
        "idem-adaptive",
        "idem-multileader",
        "paxos",
        "paxos-lbr",
        "bftsmart",
    }
    assert set(SYSTEMS) == expected


def test_experiment_registry_matches_cli_listing(capsys):
    from repro.cli import main
    from repro.experiments import EXPERIMENTS

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in EXPERIMENTS:
        assert experiment_id in out


def test_docstrings_everywhere():
    """Every public module and public class carries a docstring."""
    import inspect

    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        assert package.__doc__, package_name
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package_name}.{name} lacks a docstring"
