"""detlint: fixture-snippet tests per rule, suppression machinery, CLI.

Each rule gets four fixtures: a positive snippet (finding raised), a
negative one (clean), a pragma-suppressed one and a baseline-suppressed
one.  The snippets are linted under a module name that puts the rule in
scope (see repro.analysis.config.RULE_SCOPES).
"""

import json
import textwrap

import pytest

from repro.analysis import lint_paths, lint_source, main
from repro.analysis.baseline import (
    PLACEHOLDER_REASON,
    Baseline,
    BaselineEntry,
    load_baseline,
    regenerate,
    write_baseline,
)
from repro.analysis.config import rule_applies, rules_for_module
from repro.analysis.rules import RULES


def lint(source, module, baseline=None, rules=None):
    return lint_source(
        textwrap.dedent(source), module, baseline=baseline, rules_filter=rules
    )


def active_rules(findings):
    return [f.rule for f in findings if f.active]


def baseline_for(source, module, reason="justified in the test"):
    """A baseline suppressing every finding the snippet raises."""
    findings = lint(source, module)
    entries = [
        BaselineEntry(
            rule=f.rule, module=f.module, context=f.source_line, reason=reason
        )
        for f in findings
    ]
    return Baseline(entries=entries)


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
        from repro.experiments.settings import default_runs
        def runs():
            return default_runs()
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
    "OBS001": (
        "repro.obs.hub",
        """\
        def attach(replica):
            replica.acceptance_threshold = 0
        """,
        """\
        def attach(replica, observer):
            replica.obs = observer
        """,
    ),
    "OBS002": (
        "repro.obs.spans",
        """\
        def sample(replica):
            replica.processor.charge(0.1)
        """,
        """\
        def sample(replica):
            return replica.processor.queue_length
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
    "OBS004": (
        "repro.obs.registry",
        """\
        def sample(replica):
            return replica.rng
        """,
        """\
        def sample(replica):
            return replica.index
        """,
    ),
    "CAMP001": (
        "repro.campaign.plan",
        """\
        def spec_to_payload(spec):
            return {"targets": set(spec.targets)}
        """,
        """\
        def spec_to_payload(spec):
            return {"targets": sorted(spec.targets)}
        """,
    ),
    "CAMP002": (
        "repro.campaign.cache",
        """\
        def key_of(payload):
            return hash(tuple(payload))
        """,
        """\
        import hashlib
        def key_of(text):
            return hashlib.sha256(text.encode()).hexdigest()
        """,
    ),
    "CAMP003": (
        "repro.campaign.plan",
        """\
        import json
        def canonical(value):
            return json.dumps(value)
        """,
        """\
        import json
        def canonical(value):
            return json.dumps(value, sort_keys=True)
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
    "PROTO002": (
        "repro.cluster.builder",
        """\
        def quorum(config):
            return config.f + 1
        """,
        """\
        def quorum(config):
            return config.quorum
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
    "PROTO004": (
        "repro.experiments.common",
        """\
        def placement():
            replicas = [0, 1, 2]
        """,
        """\
        def placement(config):
            replicas = list(range(config.n))
            return replicas
        """,
    ),
    "PROTO005": (
        "repro.cluster.chaos",
        """\
        def pick(rng):
            return rng.randrange(3)
        """,
        """\
        def pick(rng, cluster):
            return rng.randrange(len(cluster.replicas))
        """,
    ),
    "PERF001": (
        "repro.net.network",
        """\
        def flood(self, deadlines):
            for when in deadlines:
                self._loop.call_at(when, self.tick)
        """,
        """\
        def flood(self, deadlines):
            call_at = self._loop.call_at
            for when in deadlines:
                call_at(when, self.tick)
        """,
    ),
    "PERF002": (
        "repro.sim.loop",
        """\
        def run(self):
            while self._heap:
                handle = Event(self._heap.pop())
        """,
        """\
        def run(self):
            pool = self._handles
            while self._heap:
                entry = self._heap.pop()
                pool[entry[4]].fire()
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
    assert mine and all(f.suppressed_by == "pragma" for f in mine)
    assert all(f.suppression_reason == "fixture justification" for f in mine)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_baseline_suppresses_the_finding(rule_id):
    module, positive, _ = FIXTURES[rule_id]
    baseline = baseline_for(positive, module)
    findings = lint(positive, module, baseline=baseline)
    mine = [f for f in findings if f.rule == rule_id]
    assert mine and all(f.suppressed_by == "baseline" for f in mine)
    assert not baseline.stale_entries()


def test_disable_next_line_pragma():
    source = """\
    import time
    def stamp():
        # detlint: disable-next-line=DET001 -- wall clock wanted here
        return time.time()
    """
    findings = lint(source, "repro.sim.loop")
    assert findings and findings[0].suppressed_by == "pragma"


def test_disable_all_pragma():
    source = """\
    import time, os
    def stamp():
        return time.time(), os.environ.get("X")  # detlint: disable=all -- fixture
    """
    findings = lint(source, "repro.sim.loop")
    assert findings and all(f.suppressed_by == "pragma" for f in findings)


# -- scope configuration ------------------------------------------------


def test_scopes_follow_the_architecture():
    # DET001 guards the sim core but not the CLI/campaign wall timers.
    assert rule_applies("DET001", "repro.sim.loop")
    assert not rule_applies("DET001", "repro.cli")
    assert not rule_applies("DET001", "repro.campaign.engine")
    # DET004 exempts exactly the CLI and the settings accessor.
    assert not rule_applies("DET004", "repro.experiments.settings")
    assert not rule_applies("DET004", "repro.cli")
    assert rule_applies("DET004", "repro.experiments.common")
    # Prefixes match whole dotted segments.
    assert not rule_applies("OBS001", "repro.observatory")
    # repro.cluster composes hubs, so OBS003 spares it.
    assert not rule_applies("OBS003", "repro.cluster.runner")
    assert rule_applies("OBS003", "repro.protocols.base")
    # PERF001 polices the dispatch/send hot paths; PERF002's
    # no-allocation contract is repro.sim only.
    assert rule_applies("PERF001", "repro.sim.loop")
    assert rule_applies("PERF001", "repro.net.network")
    assert not rule_applies("PERF001", "repro.campaign.engine")
    assert not rule_applies("PERF001", "repro.protocols.paxos")
    assert rule_applies("PERF002", "repro.sim.loop")
    assert not rule_applies("PERF002", "repro.net.network")
    assert not rule_applies("PERF002", "repro.campaign.engine")
    # PROTO guards topology consumers, never the protocol config itself.
    assert rule_applies("PROTO001", "repro.cluster.builder")
    assert rule_applies("PROTO003", "repro.experiments.common")
    assert not rule_applies("PROTO001", "repro.protocols.config")
    assert not rule_applies("PROTO003", "repro.protocols.paxos")
    # ...except PROTO002: quorum arithmetic is banned inside the
    # protocols too, everywhere but the one module that owns it.
    assert rule_applies("PROTO002", "repro.protocols.paxos")
    assert not rule_applies("PROTO002", "repro.protocols.config")
    # The standalone tools and the workload generators are linted too.
    assert rule_applies("DET005", "tools.overhead_guard")
    assert rule_applies("DET005", "repro.workload.ycsb")
    assert rule_applies("PROTO005", "tools.overhead_guard")


def test_rules_for_module_covers_every_family():
    assert {"DET001", "DET005", "OBS003", "PERF001"} <= rules_for_module(
        "repro.net.network"
    )
    assert {"OBS001", "OBS002", "OBS004"} <= rules_for_module("repro.obs.hub")
    assert {"CAMP001", "CAMP002", "CAMP003"} <= rules_for_module("repro.campaign.plan")


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


def test_obs001_allows_locally_constructed_objects():
    source = """\
    class Row:
        pass
    def build(tracer):
        row = Row()
        row.latency = 1.0
        return row
    """
    assert active_rules(lint(source, "repro.obs.analysis")) == []


def test_obs002_tracks_derived_names():
    source = """\
    class Hub:
        def tick(self):
            cluster = self.cluster
            cluster.loop.call_after(0.1, self.tick)
    """
    assert "OBS002" in active_rules(lint(source, "repro.obs.hub"))


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


def test_perf001_flags_heapq_module_attribute_in_loop():
    source = """\
    import heapq
    def fill(heap, items):
        for item in items:
            heapq.heappush(heap, item)
    """
    assert "PERF001" in active_rules(lint(source, "repro.sim.loop"))


def test_perf001_spares_single_hop_and_cold_code():
    source = """\
    import heapq
    class Loop:
        def drain(self):
            while self.heap:
                self.pop_one()
        def reset(self):
            heapq.heapify(self.heap)
    """
    assert active_rules(lint(source, "repro.sim.loop")) == []


def test_perf001_fresh_function_scope_inside_loop():
    # A def inside a loop body does not run per iteration; its own
    # non-loop body must not inherit the enclosing loop depth.
    source = """\
    def build(self, items):
        handlers = []
        for item in items:
            def fire():
                self._loop.call_after(0.1, item)
            handlers.append(fire)
        return handlers
    """
    assert active_rules(lint(source, "repro.net.network")) == []


def test_perf001_out_of_scope_module_is_ignored():
    module, positive, _ = FIXTURES["PERF001"]
    assert active_rules(lint(positive, "repro.campaign.pool")) == []


def test_perf002_flags_attribute_constructor_in_run_until():
    source = """\
    def run_until(self, horizon):
        while self._heap:
            entry = events.Record(self._heap.pop())
            entry.apply()
    """
    assert "PERF002" in active_rules(lint(source, "repro.sim.loop"))


def test_perf002_spares_non_dispatch_functions():
    # The contract covers the dispatch loops only; a builder or a
    # drain pass may allocate per item freely.
    source = """\
    def drain_cancelled(self):
        kept = []
        for entry in self._heap:
            kept.append(Entry(entry))
        return kept
    """
    assert active_rules(lint(source, "repro.sim.loop")) == []


def test_perf002_spares_exception_constructors():
    # Raise-path allocations fire at most once per loop lifetime.
    source = """\
    def run(self):
        while self._heap:
            if self._stopped:
                raise StoppedError(self._now)
            self.fire()
    """
    assert active_rules(lint(source, "repro.sim.loop")) == []


def test_perf002_spares_constructors_outside_the_loop():
    source = """\
    def run(self):
        snapshot = Snapshot(self._now)
        while self._heap:
            self.fire()
        return snapshot
    """
    assert active_rules(lint(source, "repro.sim.loop")) == []


def test_perf002_fresh_function_scope_inside_dispatch_loop():
    # A def inside the dispatch loop body gets its own (non-dispatch)
    # name and loop scope; constructors in it are not per-event cost
    # of the enclosing loop.
    source = """\
    def run(self):
        while self._heap:
            def finish():
                return Receipt(self._now)
            self.fire(finish)
    """
    assert active_rules(lint(source, "repro.sim.loop")) == []


def test_perf002_out_of_scope_module_is_ignored():
    module, positive, _ = FIXTURES["PERF002"]
    assert active_rules(lint(positive, "repro.net.network")) == []


# -- baseline machinery -------------------------------------------------


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    baseline = Baseline(
        entries=[BaselineEntry("DET001", "repro.sim.loop", "time.time()", "why")]
    )
    write_baseline(path, baseline)
    loaded = load_baseline(path)
    assert loaded.entries == baseline.entries


def test_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json").entries == []


def test_baseline_stale_and_unjustified_tracking():
    module, positive, _ = FIXTURES["DET001"]
    baseline = baseline_for(positive, module)
    baseline.entries.append(
        BaselineEntry("DET999", "repro.nowhere", "gone()", "obsolete")
    )
    baseline.entries.append(BaselineEntry("DET001", "repro.sim.x", "y()", ""))
    lint(positive, module, baseline=baseline)
    stale = {entry.rule for entry in baseline.stale_entries()}
    assert "DET999" in stale
    assert baseline.unjustified_entries()


def test_placeholder_baseline_entry_does_not_suppress():
    """An entry still carrying the --update-baseline placeholder (or an
    empty reason) suppresses nothing: the finding stays active, so the
    gate fails hard until a real justification is written."""
    module, positive, _ = FIXTURES["DET001"]
    placeholder = baseline_for(positive, module, reason=PLACEHOLDER_REASON)
    assert active_rules(lint(positive, module, baseline=placeholder)) == [
        "DET001"
    ]
    empty = baseline_for(positive, module, reason="   ")
    assert active_rules(lint(positive, module, baseline=empty)) == ["DET001"]
    justified = baseline_for(positive, module)
    assert active_rules(lint(positive, module, baseline=justified)) == []


def test_regenerate_preserves_reasons():
    module, positive, _ = FIXTURES["DET002"]
    findings = lint(positive, module)
    previous = Baseline(
        entries=[
            BaselineEntry(
                findings[0].rule, module, findings[0].source_line, "kept reason"
            )
        ]
    )
    fresh = regenerate(previous, findings)
    assert [entry.reason for entry in fresh.entries] == ["kept reason"]
    # A brand-new finding gets the placeholder the gate refuses.
    fresh2 = regenerate(Baseline(), findings)
    assert fresh2.entries[0].reason.startswith("TODO")


# -- the real tree ------------------------------------------------------


def repo_paths():
    import pathlib

    import repro

    package = pathlib.Path(repro.__file__).parent
    baseline = package.parent.parent / "tools" / "detlint_baseline.json"
    return package, baseline


def repo_lint_targets():
    """Everything CI lints: the package plus the standalone tools."""
    package, baseline = repo_paths()
    overhead_guard = package.parent.parent / "tools" / "overhead_guard.py"
    return [package, overhead_guard], baseline


def test_the_tree_is_clean_under_the_committed_baseline():
    targets, baseline_path = repo_lint_targets()
    report = lint_paths(targets, baseline=load_baseline(baseline_path))
    assert report.parse_errors == []
    offenders = [f"{f.location()} {f.rule}" for f in report.active]
    assert offenders == []
    assert report.baseline.stale_entries() == []
    assert report.baseline.unjustified_entries() == []


def test_cli_check_passes_on_the_tree():
    targets, baseline_path = repo_lint_targets()
    argv = ["--check", "--baseline", str(baseline_path)]
    argv += [str(t) for t in targets]
    assert main(argv) == 0


def test_cli_check_fails_on_a_dirty_file(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    assert main(["--check", "--baseline", str(tmp_path / "b.json"), str(bad)]) == 1
    # Without --check the same run is informational.
    assert main(["--baseline", str(tmp_path / "b.json"), str(bad)]) == 0


def test_cli_json_report(tmp_path, capsys):
    package, baseline_path = repo_paths()
    out = tmp_path / "report.json"
    code = main(
        ["--json", str(out), "--baseline", str(baseline_path), str(package)]
    )
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
    args = ["--baseline", str(tmp_path / "b.json"), "--check", str(bad)]
    assert main(["--rule", "DET002", *args]) == 0  # DET001 filtered out
    assert main(["--rule", "DET001", *args]) == 1
    assert main(["--rule", "NOPE", *args]) == 2


def test_cli_update_baseline_round_trip(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"
    assert main(["--update-baseline", "--baseline", str(baseline), str(bad)]) == 0
    capsys.readouterr()
    entries = json.loads(baseline.read_text())["suppressions"]
    assert len(entries) == 1 and entries[0]["rule"] == "DET001"
    # The placeholder reason fails the gate until a human justifies it.
    assert main(["--check", "--baseline", str(baseline), str(bad)]) == 1
    entries[0]["reason"] = "intentional wall clock in a fixture"
    baseline.write_text(
        json.dumps({"version": 1, "suppressions": entries}), encoding="utf-8"
    )
    assert main(["--check", "--baseline", str(baseline), str(bad)]) == 0
