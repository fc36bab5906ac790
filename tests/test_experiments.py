"""Tests for the experiment suite machinery (fast paths only).

Full experiment runs are ``repro-experiments campaign``'s job; here we
test the shared sweep/averaging machinery, the plans, the renderers and
the claim evaluators (against synthetic data) and the registry/CLI
plumbing.
"""

from dataclasses import replace

import pytest

from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments import common
from repro.experiments import (
    ablations,
    fig2_existing_protocols,
    fig3_lbr_crash,
    fig6_comparison,
    fig7_reject_behavior,
    fig8_threshold,
    fig9_disruptive,
    fig10_replica_crash,
    figM_million_users,
    figR_retry_storm,
    tab1_overhead,
)


def make_point(system="idem", clients=50, **overrides) -> common.Point:
    values = dict(
        system=system,
        clients=clients,
        load_factor=clients / 50,
        throughput=43_000.0,
        throughput_std=500.0,
        latency_ms=1.3,
        latency_std_ms=0.2,
        reject_throughput=100.0,
        reject_latency_ms=1.5,
        reject_latency_std_ms=1.0,
        timeouts=0,
        runs=2,
    )
    values.update(overrides)
    return common.Point(**values)


class TestCommon:
    def test_point_properties(self):
        point = make_point(throughput=40_000, reject_throughput=10_000)
        assert point.throughput_kops == pytest.approx(40.0)
        assert point.reject_share == pytest.approx(0.2)

    def test_reject_share_of_idle_point(self):
        point = make_point(throughput=0.0, reject_throughput=0.0)
        assert point.reject_share == 0.0

    def test_render_table_alignment(self):
        table = common.render_table("T", ["col", "x"], [["a", "1"], ["bb", "22"]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert lines[3].startswith("---")

    def test_point_rows_with_rejects(self):
        rows = common.point_rows([make_point()], with_rejects=True)
        assert len(rows[0]) == len(common.REJECT_HEADERS)

    def test_averaged_point_runs_real_simulations(self):
        from repro.cluster.runner import run_experiment

        specs = common.point_specs("idem", clients=2, runs=2, duration=0.3, warmup=0.1)
        point = common.point(specs, [run_experiment(spec) for spec in specs])
        assert point.runs == 2
        assert point.throughput > 0
        assert point.clients == 2

    def test_sweep_lengths(self):
        cells = common.sweep("idem", [1, 2], runs=1, duration=0.3, warmup=0.1)
        assert [specs[0].clients for _label, specs in cells] == [1, 2]
        assert [label for label, _specs in cells] == ["idem", "idem"]

    def test_point_defaults_ignore_environment(self, monkeypatch):
        """A point's run count and duration come from DEFAULT_RUNS and
        DEFAULT_DURATION; the retired REPRO_RUNS/REPRO_DURATION
        variables change nothing."""
        monkeypatch.setenv("REPRO_RUNS", "7")
        monkeypatch.setenv("REPRO_DURATION", "2.5")
        specs = common.point_specs("idem", clients=2)
        assert len(specs) == common.DEFAULT_RUNS
        assert {spec.duration for spec in specs} == {common.DEFAULT_DURATION}


class TestRenderers:
    def test_fig2_render(self):
        data = fig2_existing_protocols.Fig2Data([make_point("paxos")])
        text = fig2_existing_protocols.render(data)
        assert "Figure 2" in text and "paxos" in text

    def test_fig2_saturation_point(self):
        slow = make_point("paxos", clients=25, throughput=20_000)
        fast = make_point("paxos", clients=50, throughput=50_000)
        data = fig2_existing_protocols.Fig2Data([slow, fast])
        assert data.saturation_point() is fast

    def test_fig6_render_and_accessors(self):
        data = healthy_fig6()
        assert data.max_throughput("idem") == 47_100.0
        assert data.latency_at_max_load("paxos") == 4.16
        text = fig6_comparison.render(data)
        assert "Figure 6" in text and "bftsmart" in text

    def test_fig7_point_lookup(self):
        data = fig7_reject_behavior.Fig7Data([make_point(clients=100)])
        assert data.point_at(2.0).clients == 100
        with pytest.raises(KeyError):
            data.point_at(9.0)

    def test_fig8_render(self):
        data = fig8_threshold.Fig8Data({20: [make_point()], 75: [make_point()]})
        text = fig8_threshold.render(data)
        assert "RT=" in text and "Figure 8" in text

    def test_fig9_render(self):
        data = fig9_disruptive.Fig9Data([make_point()], [make_point(clients=700)])
        text = fig9_disruptive.render(data)
        assert "Figure 9a" in text and "Figure 9b" in text

    def test_tab1_cell_math(self):
        cell = tab1_overhead.Tab1Cell(
            system="idem",
            load_label="high (1x)",
            clients=50,
            requests_completed=1000,
            total_bytes=3_300_000,
            client_bytes=3_000_000,
            replica_bytes=300_000,
            rejects=0,
            sim_seconds=1.0,
        )
        assert cell.bytes_per_request == pytest.approx(3300.0)
        assert cell.projected_gb_per_million == pytest.approx(3.3)

    def test_tab1_lookup(self):
        data = healthy_tab1()
        assert data.cell("idem", "high (1x)") is data.cells[4]
        with pytest.raises(KeyError):
            data.cell("idem", "nope")

    def test_fig10_timeline_outage_detection(self):
        series = [(0.0, 100.0), (0.25, 0.0), (0.5, 0.0), (0.75, 50.0)]
        outage = fig10_replica_crash._longest_outage(series, 0.25, 1.0, 0.25)
        assert outage == pytest.approx(0.5)

    def test_fig10_find(self):
        run = timeline("idem", 100, "leader")
        data = fig10_replica_crash.Fig10Data([run], [])
        assert data.find("idem", 100, "leader") is run
        with pytest.raises(KeyError):
            data.find("idem", 50, "leader")


# -- claims: each module's verdict on its own data --------------------
#
# One healthy synthetic data object per figure (shaped like the quick
# campaign's numbers) on which every claim holds, and one mutant per
# figure that breaks the curve the named claim is about.


def curve(system, *points, **common_fields):
    """Points from (clients, throughput, latency_ms, reject_throughput)."""
    return [
        make_point(
            system, clients, throughput=tput, latency_ms=lat,
            reject_throughput=rejects, **common_fields,
        )
        for clients, tput, lat, rejects in points
    ]


def healthy_fig2():
    return fig2_existing_protocols.Fig2Data(
        curve("paxos", (10, 13e3, 0.66, 0), (50, 51e3, 1.04, 0), (200, 51.5e3, 4.16, 0))
    )


def healthy_fig3():
    return fig3_lbr_crash.Fig3Data(
        crash_time=2.5, duration=6.0, reject_rate_series=[],
        reject_downtime=2.42, pre_crash_reject_rate=1241.0,
        post_crash_reject_rate=1248.0,
    )


def healthy_fig6():
    def system_curve(system, peak, knee_ms, overload_ms, rejects):
        return curve(
            system, (10, 12_730.0, 0.841, 0), (50, peak, knee_ms, 0),
            (200, peak, overload_ms, rejects),
        )

    return fig6_comparison.Fig6Data(
        {
            "idem": system_curve("idem", 47.1e3, 1.14, 1.11, 2000),
            "idem-nopr": system_curve("idem-nopr", 49.2e3, 1.14, 4.36, 0),
            "paxos": system_curve("paxos", 51.5e3, 1.04, 4.16, 0),
            "bftsmart": system_curve("bftsmart", 41.7e3, 1.29, 5.14, 0),
        }
    )


def healthy_fig7():
    return fig7_reject_behavior.Fig7Data(
        curve("idem", (100, 43e3, 1.10, 700), (400, 40e3, 1.12, 5000),
              reject_latency_ms=2.2)
    )


def healthy_fig8():
    return fig8_threshold.Fig8Data(
        {
            20: curve("idem", (25, 22e3, 0.90, 300), (150, 22.8e3, 0.83, 9000)),
            75: curve("idem", (25, 25e3, 0.96, 0), (150, 47.9e3, 1.78, 900)),
        }
    )


def healthy_fig9():
    return fig9_disruptive.Fig9Data(
        misconfigured=curve("idem", (50, 47.1e3, 1.14, 0), (300, 44.2e3, 6.93, 197)),
        extreme=curve("idem", (100, 44.9e3, 1.12, 700), (700, 37.1e3, 1.05, 9200)),
    )


def timeline(system, clients, target, **overrides):
    values = dict(
        system=system, clients=clients, target=target, crash_time=2.5,
        duration=6.5, throughput_series=[], latency_series=[],
        reject_rate_series=[], reject_latency_series=[],
        service_gap=1.0 if target == "leader" else 0.0, reject_downtime=0.02,
        pre_throughput=41.8e3, post_throughput=39.6e3, pre_latency_ms=1.12,
        post_latency_ms=1.37, timeouts=0,
    )
    values.update(overrides)
    return fig10_replica_crash.TimelineRun(**values)


NOAQM_PENALTY = dict(post_throughput=34.2e3, post_latency_ms=1.95)
LBR_OUTAGE = dict(reject_downtime=2.42, service_gap=2.5)


def healthy_fig10(full=False):
    targets = ("leader", "follower") if full else ("leader",)
    loads = (50, 100) if full else (100,)
    return fig10_replica_crash.Fig10Data(
        panels_abc=[
            timeline(system, clients, target, **penalty)
            for system, penalty in (("idem", {}), ("idem-noaqm", NOAQM_PENALTY))
            for clients in loads
            for target in targets
        ],
        panel_d=[
            timeline(system, 150, target, **(outage if target == "leader" else {}))
            for system, outage in (("idem", {}), ("paxos-lbr", LBR_OUTAGE))
            for target in targets
        ],
    )


def healthy_tab1(idem_factor=1.0):
    def cell(system, load_label, clients, total_bytes):
        return tab1_overhead.Tab1Cell(
            system=system, load_label=load_label, clients=clients,
            requests_completed=20_000, total_bytes=total_bytes,
            client_bytes=0, replica_bytes=0, rejects=0, sim_seconds=1.0,
        )

    return tab1_overhead.Tab1Data(
        [
            cell(system, load_label, clients, int(20_000 * 2240 * factor))
            for system, factor in (("idem-nopr", 1.0), ("idem", idem_factor))
            for load_label, clients in tab1_overhead.LOADS
        ],
        target_requests=20_000,
    )


def storm(system, policy, **overrides):
    values = dict(
        system=system, policy=policy, seed=0, duration=8.4,
        phase_goodput=[450.0, 698.0, 700.0, 698.0, 472.0, 341.0, 434.0],
        throughput_series=[], pre_goodput=450.0, recovered=True,
        wedged_phases=0, amplification=1.0, retries=0, give_ups=0, timeouts=0,
        rejections=0, shed_arrivals=0,
    )
    values.update(overrides)
    return figR_retry_storm.StormRun(**values)


def healthy_figR():
    return figR_retry_storm.FigRData(
        [
            storm("paxos", "none"),
            storm("paxos", "naive", recovered=False, wedged_phases=4,
                  amplification=2.97),
            storm("paxos", "budget", wedged_phases=1, amplification=1.18),
            storm("idem", "none"),
            storm("idem", "naive"),
            storm("idem", "naive-any", amplification=2.19, drift_findings=0),
            storm("idem", "naive+crash", crashed=True),
        ]
    )


def healthy_figM():
    def arm(system, clients, p99_ms, events):
        return figM_million_users.MillionRun(
            system=system, clients=clients, runs=1, goodput=17e3, goodput_std=0.0,
            mean_ms=1.0, p99_ms=p99_ms, reject_rate=0.0, reject_p99_ms=5.4,
            timeouts=0, events_per_request=events, arrivals=0,
        )

    return figM_million_users.FigMData(
        [
            arm("idem", 10_000, 1.58, 15.2), arm("idem", 100_000, 1.57, 15.2),
            arm("idem", 1_000_000, 1.62, 15.2), arm("paxos", 10_000, 12.8, 6.5),
            arm("paxos", 100_000, 44.8, 6.4), arm("paxos", 1_000_000, 55.0, 6.3),
        ]
    )


def healthy_abl():
    def arm(ablation, value, tput, lat=1.11, rej_lat=2.34, rejects=2154.0, **counts):
        counts = {"forwards": 757.0, "fetches": 0.0, **counts}
        return ablations.Arm(ablation, value, tput, lat, rejects, rej_lat, **counts)

    return ablations.AblData(
        [
            arm("batch_size", "4", 37.9e3, 4.85),
            arm("batch_size", "32", 43.1e3),
            arm("batch_size", "128", 39.8e3, 1.17),
            arm("client_strategy", "optimistic", 43.1e3),
            arm("client_strategy", "pessimistic", 43.2e3, rej_lat=0.32, rejects=2183.0),
            arm("forward_timeout", "2ms", 44.4e3, forwards=863.0),
            arm("forward_timeout", "10ms", 43.1e3),
            arm("forward_timeout", "40ms", 37.9e3, forwards=729.0),
            arm("reject_cache", "256", 43.1e3),
            arm("reject_cache", "0", 36.1e3, 1.17, fetches=16_408.0),
            arm("aqm", "aqm", 43.2e3, rej_lat=2.28),
            arm("aqm", "taildrop", 44.1e3, 1.21, rej_lat=3.64),
        ]
    )


def fig6_idem_explodes():
    data = healthy_fig6()
    knee_ms = data.latency_at_saturation("idem")
    data.curves["idem"][-1] = replace(data.curves["idem"][-1], latency_ms=3 * knee_ms)
    return data


def fig10_idem_goes_silent():
    data = healthy_fig10()
    data.panel_d[0] = replace(data.panel_d[0], reject_downtime=2.0)
    return data


def fig8_no_latency_price():
    data = healthy_fig8()
    data.curves[75][-1] = replace(data.curves[75][-1], latency_ms=0.5)
    return data


def mutate(data, attribute, index, **changes):
    items = getattr(data, attribute)
    items[index] = replace(items[index], **changes)
    return data


CLAIM_CASES = [
    # (module, healthy data, mutant, claim the mutant must fail)
    (fig2_existing_protocols, healthy_fig2,
     lambda: mutate(healthy_fig2(), "points", -1, latency_ms=1.2), "fig2.bad-tier"),
    (fig3_lbr_crash, healthy_fig3,
     lambda: replace(healthy_fig3(), reject_downtime=0.1), "fig3.reject-outage"),
    (fig6_comparison, healthy_fig6, fig6_idem_explodes, "fig6.idem-plateau"),
    (fig7_reject_behavior, healthy_fig7,
     lambda: mutate(healthy_fig7(), "points", -1, reject_latency_ms=9.0),
     "fig7.reject-latency-stable"),
    (fig8_threshold, healthy_fig8, fig8_no_latency_price, "fig8.tradeoff"),
    (fig9_disruptive, healthy_fig9,
     lambda: mutate(healthy_fig9(), "extreme", -1, latency_ms=5.0),
     "fig9.b-latency-stays-low"),
    (fig10_replica_crash, healthy_fig10, fig10_idem_goes_silent,
     "fig10.d-reject-continuity"),
    (tab1_overhead, healthy_tab1, lambda: healthy_tab1(idem_factor=1.2),
     "tab1.no-visible-overhead"),
    (figR_retry_storm, healthy_figR,
     lambda: mutate(healthy_figR(), "runs", 1, recovered=True),
     "figR.timeout-retries-wedge-paxos"),
    (figM_million_users, healthy_figM,
     lambda: mutate(healthy_figM(), "runs", 2, p99_ms=8.0),
     "figM.idem-tail-flat-in-n"),
    (ablations, healthy_abl,
     lambda: mutate(healthy_abl(), "arms", 8, fetches=20_000.0), "abl.reject-cache"),
]
CLAIM_IDS = [case[3].split(".")[0] for case in CLAIM_CASES]


class TestClaims:
    def test_every_registered_module_has_a_case(self):
        assert {case[0] for case in CLAIM_CASES} == set(EXPERIMENTS.values())

    @pytest.mark.parametrize("module, healthy, mutant, broken", CLAIM_CASES, ids=CLAIM_IDS)
    def test_claims_hold_on_healthy_data(self, module, healthy, mutant, broken):
        claims = module.claims(healthy())
        assert claims and all(claim.holds for claim in claims), [
            claim.id for claim in claims if not claim.holds
        ]
        ids = [claim.id for claim in claims]
        assert len(set(ids)) == len(ids)
        prefix = broken.split(".")[0] + "."
        for claim in claims:
            assert claim.id.startswith(prefix)
            assert claim.paper and claim.measured

    @pytest.mark.parametrize("module, healthy, mutant, broken", CLAIM_CASES, ids=CLAIM_IDS)
    def test_mutant_breaks_the_named_claim(self, module, healthy, mutant, broken):
        verdicts = {claim.id: claim.holds for claim in module.claims(mutant())}
        assert verdicts[broken] is False
        # The verdict follows the data: the same claim holds when healthy.
        assert {c.id: c.holds for c in module.claims(healthy())}[broken] is True

    @pytest.mark.parametrize("module, healthy, mutant, broken", CLAIM_CASES, ids=CLAIM_IDS)
    def test_headlines_are_floats(self, module, healthy, mutant, broken):
        headlines = module.headlines(healthy())
        assert headlines
        assert all(type(value) is float for value in headlines.values())

    def test_fig10_claim_ids_are_pinned_per_shape(self):
        """An arm can never vanish silently: quick-shaped data emits
        exactly the leader-crash claims, full-shaped data all of them."""
        quick_ids = {c.id for c in fig10_replica_crash.claims(healthy_fig10())}
        full_ids = {c.id for c in fig10_replica_crash.claims(healthy_fig10(full=True))}
        assert quick_ids == {
            "fig10.leader-crash",
            "fig10.noaqm-worse",
            "fig10.d-reject-continuity",
        }
        assert full_ids - quick_ids == {
            "fig10.follower-crash-no-interruption",
            "fig10.normal-load-full-recovery",
            "fig10.d-follower-crash-harmless",
        }
        assert all(c.holds for c in fig10_replica_crash.claims(healthy_fig10(full=True)))

    def test_notes_only_on_documented_deviations(self):
        noted = {
            claim.id
            for module, healthy, _mutant, _broken in CLAIM_CASES
            for claim in module.claims(healthy())
            if claim.note
        }
        assert noted == {"fig9.a-misconfig-costs-latency", "fig10.noaqm-worse"}

    def test_fig6_below_threshold_uses_the_lightest_common_point(self):
        data = healthy_fig6()
        data.curves["idem"][0] = replace(data.curves["idem"][0], latency_ms=0.95)
        verdicts = {c.id: c.holds for c in fig6_comparison.claims(data)}
        assert verdicts["fig6.identical-below-threshold"] is False

    def test_render_claims_table(self):
        claims = fig2_existing_protocols.claims(
            mutate(healthy_fig2(), "points", -1, latency_ms=1.2)
        )
        claims.append(common.Claim("x.noted", "§9: p", "m", True, note="why"))
        text = common.render_claims(claims)
        assert "fig2.bad-tier" in text and "FAILS" in text
        assert "§3.1: past saturation" in text
        assert "x.noted*" in text and "* x.noted: why" in text
        assert text.splitlines()[-1] == "claims: 3/4 hold; FAILS: fig2.bad-tier"
        assert common.render_claims(claims[:1]).endswith("claims: 1/1 hold")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fig6", "fig7", "tab1", "fig8", "fig9", "fig10",
            "figR", "figM", "abl",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_unknown_id_message_lists_choices(self):
        with pytest.raises(KeyError) as error:
            get_experiment("fig99")
        message = str(error.value)
        assert "unknown experiment" in message and "fig2" in message

    def test_modules_expose_headlines_and_claims(self):
        """The campaign gate has no fallback: a module without a verdict
        on its own data cannot be registered."""
        for module in EXPERIMENTS.values():
            assert callable(module.headlines)
            assert callable(module.claims)

    def test_modules_expose_run_and_render(self):
        """A module is run as ``assemble`` over its planned results, then
        ``render``; there is no ``run`` that could walk the grid a second
        time."""
        for module in EXPERIMENTS.values():
            assert callable(module.assemble)
            assert callable(module.render)
            assert not hasattr(module, "run"), module.__name__

    def test_modules_expose_campaign_plan(self):
        """One grid per figure: a single ``plan``, not the old
        ``plan_runs``/``plan_cells`` pair."""
        for module in EXPERIMENTS.values():
            assert callable(module.plan)
            for gone in ("plan_runs", "plan_cells"):
                assert not hasattr(module, gone), (module.__name__, gone)

    def test_explicit_runs_and_duration_reach_sweep(self):
        fig2 = fig2_existing_protocols
        plan = fig2.plan(quick=True, runs=2, seed0=5, duration=0.7)
        assert [specs[0].clients for _label, specs in plan] == fig2.QUICK_CLIENTS
        for _label, specs in plan:
            # Two seeded runs per point, seeds counted up from seed0.
            assert [spec.seed for spec in specs] == [5, 6]
            assert {spec.duration for spec in specs} == {0.7}

    def test_environment_cannot_change_the_science(self, monkeypatch):
        """The retired REPRO_RUNS/REPRO_DURATION/REPRO_TAB1_REQUESTS
        variables are inert: what a campaign fingerprints in its
        settings is what it runs."""
        fig2 = fig2_existing_protocols
        names = ("REPRO_RUNS", "REPRO_DURATION", "REPRO_TAB1_REQUESTS")

        def plans():
            return tuple(
                [job for _label, jobs in plan for job in jobs]
                for plan in (
                    fig2.plan(quick=True),
                    fig2.plan(quick=False),
                    tab1_overhead.plan(quick=False),
                )
            )

        for name in names:
            monkeypatch.delenv(name, raising=False)
        unset = plans()
        for name, value in zip(names, ("3", "0.5", "7")):
            monkeypatch.setenv(name, value)
        assert plans() == unset
        _, full, cells = unset
        assert len(full) == common.DEFAULT_RUNS * len(fig2.FULL_CLIENTS)
        assert {spec.duration for spec in full} == {common.DEFAULT_DURATION}
        assert {cell["target"] for cell in cells} == {tab1_overhead.REQUESTS}


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tab1" in out

    def test_unknown_experiment_exits_nonzero(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as raised:
            main(["nope"])
        assert raised.value.code == 2
