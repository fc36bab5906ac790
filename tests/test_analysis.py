"""detlint: fixture-snippet tests per rule, pragmas, CLI.

Each rule gets three fixtures: a positive snippet (finding raised), a
negative one (clean) and a pragma-suppressed one.  The snippets are
linted under a module name that puts the rule in scope (see
repro.analysis.config.RULE_SCOPES).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source, main
from repro.analysis.config import ENV_READ_ALLOWED, rule_applies, rules_for_module
from repro.analysis.engine import module_name_for
from repro.analysis.rules import RULES


def lint(source, module, rules=None):
    return lint_source(textwrap.dedent(source), module, rules_filter=rules)


def active_rules(findings):
    return [f.rule for f in findings if f.active]


# One (positive, negative) snippet pair per rule.  The positive snippet
# has the offending statement on its *last* line so the pragma fixture
# can append a disable comment to it.
FIXTURES = {
    "DET001": (
        "repro.sim.loop",
        """\
        import time
        def stamp():
            return time.time()
        """,
        """\
        def stamp(loop):
            return loop.now
        """,
    ),
    "DET002": (
        "repro.core.replica",
        """\
        import uuid
        def fresh_id():
            return uuid.uuid4()
        """,
        """\
        def fresh_id(counter):
            return counter + 1
        """,
    ),
    "DET003": (
        "repro.workload.keys",
        """\
        import random
        def pick(items):
            return random.choice(items)
        """,
        """\
        import random
        def pick(items, rng: random.Random):
            return items[rng.randrange(len(items))]
        """,
    ),
    "DET004": (
        "repro.cluster.runner",
        """\
        import os
        def runs():
            return int(os.environ.get("REPRO_RUNS", "2"))
        """,
        """\
        def runs(runs: int = 2):
            return runs
        """,
    ),
    "DET005": (
        "repro.net.network",
        """\
        def drain(pending: set):
            return [item for item in pending]
        """,
        """\
        def drain(pending: set):
            return [item for item in sorted(pending)]
        """,
    ),
    "DET006": (
        "repro.experiments.common",
        """\
        import os
        def force(runs):
            os.environ["REPRO_RUNS"] = str(runs)
        """,
        """\
        def force(runs):
            return {"runs": runs}
        """,
    ),
    "OBS003": (
        "repro.protocols.base",
        """\
        from repro.obs import ObservabilityHub
        """,
        """\
        def notify(self):
            if self.obs is not None:
                self.obs.on_quorum(None)
        """,
    ),
    "PROTO001": (
        "repro.cluster.profile",
        """\
        def make():
            f = 1
        """,
        """\
        from repro.protocols.config import fault_tolerance
        def make(n):
            return fault_tolerance(n)
        """,
    ),
    "PROTO003": (
        "repro.cluster.faults",
        """\
        def leader(view, config):
            return view % config.n
        """,
        """\
        def leader(view, config):
            return config.leader_of(view)
        """,
    ),
}


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_positive_fixture_raises_the_rule(rule_id):
    module, positive, _ = FIXTURES[rule_id]
    assert rule_id in active_rules(lint(positive, module)), rule_id


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_negative_fixture_is_clean(rule_id):
    module, _, negative = FIXTURES[rule_id]
    assert rule_id not in active_rules(lint(negative, module)), rule_id


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_pragma_suppresses_the_finding(rule_id):
    module, positive, _ = FIXTURES[rule_id]
    lines = textwrap.dedent(positive).rstrip().splitlines()
    lines[-1] += f"  # detlint: disable={rule_id} -- fixture justification"
    findings = lint("\n".join(lines) + "\n", module)
    mine = [f for f in findings if f.rule == rule_id]
    assert mine and not any(f.active for f in mine)
    assert all(f.suppression_reason == "fixture justification" for f in mine)


@pytest.mark.parametrize(
    "pragma",
    ["disable={}", "disable={} --", "disable={} --  "],
    ids=["no-dashes", "empty", "blank"],
)
def test_pragma_without_a_reason_suppresses_nothing(pragma):
    module, positive, _ = FIXTURES["DET001"]
    lines = textwrap.dedent(positive).rstrip().splitlines()
    lines[-1] += "  # detlint: " + pragma.format("DET001")
    findings = lint("\n".join(lines) + "\n", module)
    assert active_rules(findings) == ["DET001"]
    assert "no `-- reason`" in findings[0].message


def test_disable_next_line_pragma():
    source = """\
    import time
    def stamp():
        # detlint: disable-next-line=DET001 -- wall clock wanted here
        return time.time()
    """
    findings = lint(source, "repro.sim.loop")
    assert findings and findings[0].suppression_reason == "wall clock wanted here"


def test_disable_all_pragma():
    source = """\
    import time, os
    def stamp():
        return time.time(), os.environ.get("X")  # detlint: disable=all -- fixture
    """
    findings = lint(source, "repro.sim.loop")
    assert len(findings) == 2 and not any(f.active for f in findings)


# -- scope configuration ------------------------------------------------


def test_scopes_follow_the_architecture():
    # DET001 guards the sim core but not the CLI/campaign wall timers.
    assert rule_applies("DET001", "repro.sim.loop")
    assert not rule_applies("DET001", "repro.cli")
    assert not rule_applies("DET001", "repro.campaign.engine")
    # DET004 exempts exactly the CLI.
    assert ENV_READ_ALLOWED == ("repro.cli",)
    assert not rule_applies("DET004", "repro.cli")
    assert rule_applies("DET004", "repro.experiments.common")
    # Prefixes match whole dotted segments.
    assert not rule_applies("DET005", "repro.simulator")
    # repro.cluster composes hubs, so OBS003 spares it.
    assert not rule_applies("OBS003", "repro.cluster.runner")
    assert rule_applies("OBS003", "repro.protocols.base")
    # PROTO guards topology consumers, never the protocol config itself.
    assert rule_applies("PROTO001", "repro.cluster.builder")
    assert rule_applies("PROTO003", "repro.experiments.common")
    assert not rule_applies("PROTO001", "repro.protocols.config")
    assert not rule_applies("PROTO003", "repro.protocols.paxos")
    # The standalone tools and the workload generators are linted too.
    assert rule_applies("DET005", "tools.overhead_guard")
    assert rule_applies("DET005", "repro.workload.ycsb")
    assert rule_applies("PROTO001", "tools.overhead_guard")


def test_rules_for_module_covers_every_family():
    assert {"DET001", "DET005", "OBS003"} <= rules_for_module("repro.net.network")
    assert {"DET004", "PROTO001", "PROTO003"} <= rules_for_module(
        "repro.experiments.common"
    )
    # Observers are checked for determinism hazards only: their purity
    # is the overhead guard's to prove at run time.
    assert rules_for_module("repro.obs.hub") == {
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET006",
    }


def test_wall_clock_out_of_scope_is_ignored():
    module, positive, _ = FIXTURES["DET001"]
    assert active_rules(lint(positive, "repro.cli")) == []


# -- specific matcher behaviour ----------------------------------------


def test_det003_allows_seeded_random_instances():
    source = """\
    import random
    def make_rng(seed):
        return random.Random(seed)
    """
    assert active_rules(lint(source, "repro.cluster.chaos")) == []


def test_det005_tracks_self_attributes():
    source = """\
    class Net:
        def __init__(self):
            self._partitions: set = set()
        def sweep(self):
            return [p for p in self._partitions]
    """
    assert "DET005" in active_rules(lint(source, "repro.net.network"))


def test_det005_ignores_order_insensitive_consumers():
    source = """\
    class Net:
        def __init__(self):
            self._crashed: set = set()
        def count(self):
            return len(self._crashed), max(self._crashed), sorted(self._crashed)
        def fold(self):
            return sorted(x for x in self._crashed)
    """
    assert active_rules(lint(source, "repro.net.network")) == []


def test_det005_flags_list_conversion():
    source = """\
    def snapshot(live: set):
        return list(live)
    """
    assert "DET005" in active_rules(lint(source, "repro.protocols.base"))


def test_obs003_permits_type_checking_imports():
    source = """\
    from typing import TYPE_CHECKING
    if TYPE_CHECKING:
        from repro.obs import ObservabilityHub
    """
    assert active_rules(lint(source, "repro.protocols.base")) == []


def test_det004_flags_membership_test():
    source = """\
    import os
    def has_override():
        return "REPRO_RUNS" in os.environ
    """
    assert "DET004" in active_rules(lint(source, "repro.cluster.runner"))


# -- the real tree ------------------------------------------------------


def repo_package():
    import repro

    return Path(repro.__file__).parent


def repo_lint_targets():
    """Everything CI lints: the package plus the standalone tools."""
    package = repo_package()
    return [package, package.parent.parent / "tools" / "overhead_guard.py"]


def test_module_name_for_anchors_at_repro_and_tools():
    assert module_name_for(Path("src/repro/cluster/builder.py")) == (
        "repro.cluster.builder"
    )
    assert module_name_for(Path("/x/src/repro/obs/__init__.py")) == "repro.obs"
    assert module_name_for(Path("/x/tools/overhead_guard.py")) == (
        "tools.overhead_guard"
    )


def test_the_tree_is_clean_without_suppressions():
    report = lint_paths(repo_lint_targets())
    assert report.parse_errors == []
    offenders = [f"{f.location()} {f.rule}" for f in report.findings]
    assert offenders == []


def test_cli_check_passes_on_the_tree():
    assert main(["--check", *map(str, repo_lint_targets())]) == 0


def test_cli_check_fails_on_a_dirty_file(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    assert main(["--check", str(bad)]) == 1
    # Without --check the same run is informational.
    assert main([str(bad)]) == 0


def test_cli_check_fails_on_a_parse_error(tmp_path):
    bad = tmp_path / "repro" / "sim" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def t(:\n")
    assert main(["--check", str(bad)]) == 1


def test_cli_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--json", str(out), str(repo_package())])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert data["counts"]["active"] == 0
    assert data["files_scanned"] > 50


def test_cli_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_rule_filter(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    args = ["--check", str(bad)]
    assert main(["--rule", "DET002", *args]) == 0  # DET001 filtered out
    assert main(["--rule", "DET001", *args]) == 1
    assert main(["--rule", "NOPE", *args]) == 2

