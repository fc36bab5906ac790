"""detlint v2: project index, call graph, interprocedural OBS005 and
SARIF output.

The per-rule fixture matrix lives in ``test_analysis.py``; this file
covers everything that needs more than one module at a time.
"""

from __future__ import annotations

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    lint_paths,
    lint_project,
    lint_source,
    module_name_for,
)
from repro.analysis.index import ProjectIndex


def dedent(source: str) -> str:
    return textwrap.dedent(source)


# -- the project index --------------------------------------------------


MUTATOR = dedent(
    """\
    def poke(sim):
        sim.acceptance_threshold = 0
    """
)


def test_index_resolves_from_import_with_alias():
    index = ProjectIndex()
    index.add_source("repro.cluster.mutators", MUTATOR, "<m>")
    index.add_source(
        "repro.experiments.helpers",
        "from repro.cluster import mutators as m\n\ndef relay(sim):\n    m.poke(sim)\n",
        "<h>",
    )
    found = index.resolve_function("repro.experiments.helpers", "m.poke")
    assert found is not None and found.fqn == "repro.cluster.mutators.poke"


def test_index_resolves_reexport_through_package_init():
    index = ProjectIndex()
    index.add_source("repro.cluster.mutators", MUTATOR, "<m>")
    index.add_source(
        "repro.cluster",
        "from repro.cluster.mutators import poke\n",
        "<init>",
        is_package=True,
    )
    index.add_source(
        "repro.obs.probe",
        "import repro.cluster\n\ndef go(sim):\n    repro.cluster.poke(sim)\n",
        "<p>",
    )
    found = index.resolve_function("repro.obs.probe", "repro.cluster.poke")
    assert found is not None and found.fqn == "repro.cluster.mutators.poke"


def test_index_resolves_relative_reexport():
    index = ProjectIndex()
    index.add_source("repro.cluster.mutators", MUTATOR, "<m>")
    index.add_source(
        "repro.cluster",
        "from .mutators import poke\n",
        "<init>",
        is_package=True,
    )
    found = index.resolve_function("repro.cluster", "poke")
    assert found is not None and found.fqn == "repro.cluster.mutators.poke"


def test_index_resolves_star_import():
    index = ProjectIndex()
    index.add_source("repro.cluster.mutators", MUTATOR, "<m>")
    index.add_source(
        "repro.obs.star",
        "from repro.cluster.mutators import *\n\ndef go(sim):\n    poke(sim)\n",
        "<s>",
    )
    found = index.resolve_function("repro.obs.star", "poke")
    assert found is not None and found.fqn == "repro.cluster.mutators.poke"


def test_index_reexport_cycle_terminates():
    index = ProjectIndex()
    index.add_source("repro.a", "from repro.b import thing\n", "<a>")
    index.add_source("repro.b", "from repro.a import thing\n", "<b>")
    assert index.resolve_function("repro.a", "thing") is None


def test_module_name_for_anchors_at_repro_and_tools():
    assert module_name_for(Path("src/repro/cluster/builder.py")) == (
        "repro.cluster.builder"
    )
    assert module_name_for(Path("/x/src/repro/obs/__init__.py")) == "repro.obs"
    assert module_name_for(Path("/x/tools/overhead_guard.py")) == (
        "tools.overhead_guard"
    )


# -- interprocedural OBS005 ---------------------------------------------


TWO_HOP = {
    "repro.cluster.mutators": MUTATOR,
    "repro.experiments.helpers": dedent(
        """\
        from repro.cluster.mutators import poke

        def relay(sim):
            poke(sim)
        """
    ),
    "repro.obs.watcher": dedent(
        """\
        from repro.experiments.helpers import relay

        def sample(replica):
            relay(replica)
        """
    ),
}


def test_obs005_flags_a_two_hop_cross_module_mutation():
    report = lint_project(TWO_HOP)
    assert report.parse_errors == []
    findings = [f for f in report.active if f.rule == "OBS005"]
    assert len(findings) == 1
    finding = findings[0]
    assert finding.module == "repro.obs.watcher"
    assert "repro.experiments.helpers.relay" in finding.message
    assert "repro.cluster.mutators.poke" in finding.message


def test_v1_misses_the_two_hop_mutation_v2_catches_it():
    # v1 semantics: the observer module linted alone is clean — the
    # mutation lives two calls away in other modules.
    alone = lint_source(TWO_HOP["repro.obs.watcher"], "repro.obs.watcher")
    assert [f for f in alone if f.rule.startswith("OBS")] == []
    # v2 semantics: the project-wide pass chases the chain and flags it.
    report = lint_project(TWO_HOP)
    assert [f.rule for f in report.active] == ["OBS005"]


def test_obs005_negative_pure_chain():
    sources = dict(TWO_HOP)
    sources["repro.cluster.mutators"] = dedent(
        """\
        def poke(sim):
            return sim.acceptance_threshold
        """
    )
    report = lint_project(sources)
    assert [f for f in report.findings if f.rule == "OBS005"] == []


def test_obs005_sees_through_self_attributes():
    sources = {
        "repro.experiments.helpers": TWO_HOP["repro.experiments.helpers"],
        "repro.cluster.mutators": MUTATOR,
        "repro.obs.cls": dedent(
            """\
            from repro.experiments.helpers import relay

            class Probe:
                def __init__(self, replica):
                    self.replica = replica

                def sample(self):
                    relay(self.replica)
            """
        ),
    }
    report = lint_project(sources)
    findings = [f for f in report.active if f.rule == "OBS005"]
    assert len(findings) == 1 and findings[0].module == "repro.obs.cls"


def test_obs005_follows_method_calls():
    sources = {
        "repro.obs.meth": dedent(
            """\
            class Probe:
                def poke(self, replica):
                    replica.queue = []

                def sample(self, replica):
                    self.poke(replica)
            """
        ),
    }
    report = lint_project(sources)
    rules = {f.rule for f in report.active}
    assert "OBS005" in rules  # the call site in sample()
    assert "OBS001" in rules  # the direct assignment in poke()


def test_obs005_exempts_the_hook_attribute():
    sources = {
        "repro.cluster.hooks": dedent(
            """\
            def attach_hook(sim, hub):
                sim.obs = hub
            """
        ),
        "repro.obs.attacher": dedent(
            """\
            from repro.cluster.hooks import attach_hook

            def wire(replica, hub):
                attach_hook(replica, hub)
            """
        ),
    }
    report = lint_project(sources)
    assert [f for f in report.findings if f.rule == "OBS005"] == []


def test_obs005_pragma_suppression():
    sources = dict(TWO_HOP)
    sources["repro.obs.watcher"] = sources["repro.obs.watcher"].replace(
        "    relay(replica)",
        "    relay(replica)  # detlint: disable=OBS005 -- fixture justification",
    )
    report = lint_project(sources)
    assert report.active == []
    assert [f.rule for f in report.pragma_suppressed] == ["OBS005"]


def test_obs005_v1_and_v2_agree_on_sim_rootedness():
    # The v2 pass reuses the v1 scope rules, so a locally constructed
    # object passed into a mutating helper is *not* flagged.
    sources = dict(TWO_HOP)
    sources["repro.obs.watcher"] = dedent(
        """\
        from repro.experiments.helpers import relay

        def sample(replica):
            own = {}
            relay(own)
        """
    )
    report = lint_project(sources)
    assert [f for f in report.findings if f.rule == "OBS005"] == []


# -- a clean on-disk tree for the CLI tests -----------------------------


CLEAN_TREE = {
    "repro/__init__.py": "",
    "repro/cluster/__init__.py": "",
    "repro/cluster/topo.py": dedent(
        """\
        def quorum(config):
            return config.quorum
        """
    ),
    "repro/experiments/__init__.py": "",
    "repro/experiments/runs.py": dedent(
        """\
        from repro.cluster.topo import quorum

        def plan(config):
            return quorum(config)
        """
    ),
    "repro/workload/__init__.py": "",
    "repro/workload/gen.py": dedent(
        """\
        def shape():
            return "update-heavy"
        """
    ),
}

def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


# -- the CLI: --sarif, --update-baseline --------------------------------


def test_cli_sarif_output(tmp_path, capsys):
    write_tree(tmp_path, CLEAN_TREE)
    out = tmp_path / "detlint.sarif"
    code = main(
        [
            "--sarif",
            str(out),
            "--baseline",
            str(tmp_path / "b.json"),
            str(tmp_path / "repro"),
        ]
    )
    capsys.readouterr()
    assert code == 0
    log = json.loads(out.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["tool"]["driver"]["name"] == "detlint"


def justify_all(baseline_path: Path) -> None:
    """Replace every placeholder reason with a real justification."""
    baseline = load_baseline(baseline_path)
    entries = [
        dataclasses.replace(entry, reason="fixture justification")
        for entry in baseline.entries
    ]
    write_baseline(baseline_path, Baseline(entries=entries))


def test_cli_update_baseline_reports_resolved_entries(tmp_path, capsys):
    bad = tmp_path / "repro" / "cluster" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def make():\n    f = 1\n", encoding="utf-8")
    baseline_path = tmp_path / "b.json"
    assert main(["--update-baseline", "--baseline", str(baseline_path), str(bad)]) == 0
    capsys.readouterr()
    # Justify the placeholder, then fix the finding at the source.
    justify_all(baseline_path)
    bad.write_text(
        "from repro.protocols.config import fault_tolerance\n"
        "def make(n):\n    return fault_tolerance(n)\n",
        encoding="utf-8",
    )
    assert main(["--update-baseline", "--baseline", str(baseline_path), str(bad)]) == 0
    err = capsys.readouterr().err
    assert "resolved: PROTO001" in err
    assert load_baseline(baseline_path).entries == []


def test_cli_update_baseline_preserves_suppressing_entries(tmp_path, capsys):
    # Regression: a justified entry suppresses its finding, and a
    # rewrite must regenerate from *all* findings (not just active
    # ones) or a second --update-baseline would silently drop every
    # working suppression.
    bad = tmp_path / "repro" / "cluster" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def make():\n    f = 1\n", encoding="utf-8")
    baseline_path = tmp_path / "b.json"
    assert main(["--update-baseline", "--baseline", str(baseline_path), str(bad)]) == 0
    justify_all(baseline_path)
    assert main(["--update-baseline", "--baseline", str(baseline_path), str(bad)]) == 0
    capsys.readouterr()
    entries = load_baseline(baseline_path).entries
    assert len(entries) == 1
    assert entries[0].reason == "fixture justification"


# -- SARIF --------------------------------------------------------------


SARIF_FIXTURE = {
    "repro.cluster.topo": dedent(
        """\
        def a():
            f = 1

        def b():
            quorum = 2  # detlint: disable=PROTO001 -- fixture justification

        def c():
            majority = 2
        """
    ),
}

SARIF_BASELINE = Baseline(
    entries=[
        BaselineEntry(
            rule="PROTO001",
            module="repro.cluster.topo",
            context="majority = 2",
            reason="fixture justification",
        )
    ]
)


def sarif_report():
    from repro.analysis.sarif import render_sarif

    report = lint_project(SARIF_FIXTURE, baseline=SARIF_BASELINE)
    assert len(report.findings) == 3
    return render_sarif(report)


def test_sarif_log_structure():
    log = sarif_report()
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"DET001", "OBS005", "PROTO001", "PERF001"} <= rules
    results = run["results"]
    assert len(results) == 3
    by_kind = {}
    for result in results:
        assert result["ruleId"] == "PROTO001"
        assert result["level"] == "error"
        location = result["locations"][0]
        assert location["physicalLocation"]["region"]["startLine"] >= 1
        assert (
            location["logicalLocations"][0]["fullyQualifiedName"]
            == "repro.cluster.topo"
        )
        assert "detlint/v1" in result["partialFingerprints"]
        suppressions = result.get("suppressions", [])
        kind = suppressions[0]["kind"] if suppressions else "active"
        by_kind[kind] = result
    assert set(by_kind) == {"active", "inSource", "external"}
    assert (
        by_kind["inSource"]["suppressions"][0]["justification"]
        == "fixture justification"
    )


def test_sarif_validates_against_the_2_1_0_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = (
        Path(__file__).parent.parent / "tools" / "sarif_2.1.0_subset_schema.json"
    )
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    jsonschema.validate(sarif_report(), schema)


def test_real_tree_sarif_validates_against_the_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import repro

    package = Path(repro.__file__).parent
    tools_dir = package.parent.parent / "tools"
    baseline = load_baseline(tools_dir / "detlint_baseline.json")
    report = lint_paths(
        [package, tools_dir / "overhead_guard.py"], baseline=baseline
    )
    assert report.ok
    from repro.analysis.sarif import render_sarif

    schema = json.loads(
        (tools_dir / "sarif_2.1.0_subset_schema.json").read_text(encoding="utf-8")
    )
    jsonschema.validate(render_sarif(report), schema)
