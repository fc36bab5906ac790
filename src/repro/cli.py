"""Command-line entry point: regenerate the paper's figures and tables.

Usage::

    repro-experiments list                               # experiment ids
    repro-experiments campaign --experiments fig6        # one experiment, full settings
    repro-experiments campaign --quick --jobs 4          # everything, scaled-down
    repro-experiments campaign --check                   # gate paper claims + exact BENCH_* records
    repro-experiments gc --cache-dir DIR                 # prune the campaign result cache
    repro-experiments chaos --seed 3 --duration 8        # seeded fault injection + safety check
    repro-experiments trace --protocol paxos             # traced run, slowest-request breakdown
    repro-experiments obs --mode detect --scenario storm # probe series + drift detectors
    repro-experiments lint --check                       # detlint determinism/purity gate

Every subcommand declares only the flags it reads, so any other flag
exits 2.  A flag's ``dest`` is the field it sets on the dataclass the
command builds (:class:`~repro.campaign.CampaignOptions`,
:class:`~repro.cluster.chaos.ChaosOptions`,
:class:`~repro.cluster.runner.RunSpec`), and an omitted flag is left
out of the parsed namespace, so that dataclass holds the only default.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.campaign.cache import DEFAULT_CACHE_DIR
from repro.cluster.runner import RunSpec
from repro.experiments.registry import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    """The whole command surface; parsing an argv with it runs nothing."""
    from repro.analysis.__main__ import build_parser as build_lint_parser

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the IDEM paper's figures and tables.",
    )
    commands = parser.add_subparsers(metavar="command", required=True)

    def command(name, handler, description, parents=()):
        sub = commands.add_parser(
            name,
            help=description,
            description=description,
            parents=list(parents),
            argument_default=argparse.SUPPRESS,
        )
        sub.set_defaults(run=handler)
        return sub

    command("list", run_list_command, "list the experiment ids and exit")

    campaign = command(
        "campaign",
        run_campaign_command,
        "plan, run (in parallel, against the result cache) and gate experiments",
    )
    campaign.add_argument(
        "--experiments",
        type=lambda text: [part for part in text.split(",") if part],
        help="comma-separated experiment ids (default: all)",
    )
    campaign.add_argument(
        "--quick", action="store_true", help="scaled-down settings (faster, coarser)"
    )
    campaign.add_argument("--runs", type=int, help="seeded runs per data point")
    campaign.add_argument(
        "--duration", type=float, help="measured seconds per steady-state run"
    )
    campaign.add_argument(
        "--seed", dest="seed0", type=int, metavar="SEED", help="base random seed"
    )
    campaign.add_argument(
        "--jobs", type=int, help="parallel worker processes (0 = one per CPU)"
    )
    campaign.add_argument(
        "--cache-dir", help="content-addressed result cache directory"
    )
    campaign.add_argument(
        "--no-cache",
        dest="cache_dir",
        action="store_const",
        const=None,
        help="bypass the result cache entirely",
    )
    campaign.add_argument(
        "--verify",
        dest="verify_fraction",
        type=float,
        metavar="FRACTION",
        help="re-run this fraction of cache hits and diff them",
    )
    campaign.add_argument(
        "--check",
        action="store_true",
        help="gate the paper's claims and compare every headline and job "
        "fingerprint exactly with the BENCH_* files; exit 1 on a failing claim "
        "or any difference, each named",
    )
    campaign.add_argument(
        "--update-baselines",
        action="store_true",
        help="re-bless the BENCH_* files with this campaign's headlines and job "
        "fingerprints, printing what changed (refused, exit 1, while any paper "
        "claim fails)",
    )
    campaign.add_argument(
        "--baseline-dir", help="directory holding the BENCH_*.json baselines"
    )
    campaign.add_argument(
        "--report",
        metavar="PATH",
        help="write a machine-readable campaign report (JSON) to PATH",
    )
    campaign.add_argument(
        "--slowest",
        type=int,
        metavar="K",
        help="list the K most expensive jobs from the per-job profiles (stderr)",
    )
    campaign.add_argument(
        "--json",
        dest="json_dir",
        metavar="DIR",
        help="also write each experiment's raw data as JSON into DIR",
    )

    gc = command(
        "gc",
        run_gc_command,
        "prune result-cache entries the last campaign runs did not reference",
    )
    gc.add_argument("--cache-dir", help="content-addressed result cache directory")

    # chaos, trace and obs each run one system: the flags shared by
    # ChaosOptions and RunSpec.
    one_run = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    one_run.add_argument("--seed", type=int, help="random seed")
    one_run.add_argument("--protocol", dest="system", help="system to run against")
    one_run.add_argument("--clients", type=int, help="closed-loop clients driving the run")
    one_run.add_argument("--duration", type=float, help="simulated seconds")

    command(
        "chaos",
        run_chaos_command,
        "randomized fault injection with the safety checker; exit 1 on a violation",
        [one_run],
    )
    trace = command(
        "trace",
        run_trace_command,
        "traced run with request-lifecycle analysis",
        [one_run],
    )
    trace.add_argument("--out", metavar="DIR", help="directory for trace exports")
    trace.add_argument(
        "--top", type=int, help="how many slowest requests to break down"
    )
    obs = command(
        "obs",
        run_obs_command,
        "probed run with replica-state series and drift detection",
        [one_run],
    )
    obs.add_argument(
        "--mode",
        choices=("report", "series", "detect"),
        help=(
            "'report' prints a per-node series summary plus the drift "
            "findings, 'series' exports the probe series (JSONL + Perfetto "
            "counters) into --out, 'detect' runs the drift detectors and "
            "exits 1 on any finding"
        ),
    )
    obs.add_argument(
        "--scenario",
        choices=("steady", "storm"),
        help=(
            "'steady' probes a closed-loop run of --protocol/--clients/"
            "--duration, 'storm' probes the figR reject-retry storm arm "
            "(idem/naive-any; scenario-fixed, takes only --seed)"
        ),
    )
    obs.add_argument("--out", metavar="DIR", help="directory for series exports")

    commands.add_parser(
        "lint",
        parents=[build_lint_parser()],
        add_help=False,
        help="detlint determinism/purity static-analysis pass",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.analysis import main as lint_main

        return lint_main(argv[1:])
    fields = vars(build_parser().parse_args(argv))
    return fields.pop("run")(**fields)


def run_list_command() -> int:
    """Print one line per registered experiment: its id and headline."""
    for experiment_id, module in EXPERIMENTS.items():
        headline = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:6s} {headline}")
    return 0


def run_campaign_command(
    json_dir: str | None = None,
    report: str | None = None,
    slowest: int = 0,
    **fields,
) -> int:
    """Plan, execute (in parallel, against the cache) and gate a campaign.

    stdout carries only the rendered experiment reports — fully
    deterministic, so two runs with the same settings diff clean.
    Progress, cache statistics, the paper-claims table and the baseline
    verdict go to stderr;
    ``--report`` additionally writes a machine-readable JSON artifact.
    """
    from repro.campaign import (
        CacheVerificationError,
        CampaignOptions,
        JobFailed,
        render_slowest,
        render_summary,
        run_campaign,
        write_report,
    )
    from repro.experiments.common import render_claims

    def echo(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        options = CampaignOptions(echo=echo, **fields)
    except ValueError as error:  # negative --jobs, --runs < 1, --duration <= 0
        print(f"campaign: {error}", file=sys.stderr)
        return 2
    try:
        result = run_campaign(options)
    except KeyError as error:
        print(f"campaign: {error.args[0]}", file=sys.stderr)
        return 2
    except (CacheVerificationError, JobFailed) as error:
        print(f"campaign: {error}", file=sys.stderr)
        return 1

    for outcome in result.outcomes:
        print(outcome.text)
        print()
    print(render_summary(result), file=sys.stderr)
    if slowest > 0:
        print(render_slowest(result, slowest), file=sys.stderr)
    print(render_claims(result.claims), file=sys.stderr)
    if result.baseline_report is not None:
        print(result.baseline_report.render(), file=sys.stderr)
    if json_dir:
        from repro.experiments.io import save_json

        for outcome in result.outcomes:
            path = save_json(outcome.data, f"{json_dir}/{outcome.experiment_id}.json")
            print(f"campaign: raw data saved to {path}", file=sys.stderr)
    if report:
        path = write_report(report, result)
        print(f"campaign: report written to {path}", file=sys.stderr)
    return result.exit_code


def run_gc_command(cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR) -> int:
    """Evict cache entries that no recent campaign run referenced."""
    from repro.campaign import ResultCache, collect_garbage

    print(collect_garbage(ResultCache(cache_dir)).render())
    return 0


def run_chaos_command(**fields) -> int:
    """Run a seeded chaos campaign; exit 1 on any invariant violation.

    The report printed to stdout is fully deterministic for a given
    option set (no wall-clock content), so two runs with the same seed
    can be compared byte-for-byte — see the CI determinism job.
    """
    from repro.cluster.chaos import ChaosOptions, run_chaos

    try:
        report = run_chaos(ChaosOptions(**fields))
    except ValueError as error:  # unknown system, bad duration, ...
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def closed_loop_spec(**fields) -> RunSpec:
    """The closed-loop :class:`RunSpec` behind ``trace`` and ``obs``.

    The warm-up shrinks to 30 % of a run shorter than one second.
    """
    duration = fields.setdefault("duration", RunSpec.duration)
    return RunSpec(warmup=min(RunSpec.warmup, duration * 0.3), **fields)


def run_trace_command(out: str = "traces", top: int = 5, **fields) -> int:
    """Run one traced scenario and emit/summarise its traces.

    Writes a JSONL event log and a Chrome trace-event JSON (loadable in
    Perfetto / ``chrome://tracing``) into ``--out``, then prints the
    top-K slowest requests with per-hop latency breakdowns and the
    reject-reason histogram.  The traced run is byte-identical to an
    untraced run of the same spec (the observer-only invariant).
    """
    from repro.cluster.runner import run_experiment
    from repro.obs import render_report, write_chrome_trace, write_jsonl

    try:
        spec = closed_loop_spec(observe=True, **fields)
        result = run_experiment(spec)
    except ValueError as error:  # unknown system, bad duration, ...
        print(f"trace: {error}", file=sys.stderr)
        return 2
    hub = result.obs
    os.makedirs(out, exist_ok=True)
    base = f"{spec.system}-seed{spec.seed}"
    jsonl_path = os.path.join(out, f"{base}.jsonl")
    chrome_path = os.path.join(out, f"{base}.trace.json")
    with open(jsonl_path, "w") as stream:
        lines = write_jsonl(hub.tracer, stream)
    with open(chrome_path, "w") as stream:
        events = write_chrome_trace(stream, hub.tracer, hub.recorder)
    print(result.describe())
    print(f"[{lines} events -> {jsonl_path}]")
    print(f"[{events} Chrome trace events -> {chrome_path}]")
    print()
    print(render_report(hub.tracer, hub.recorder, k=top))
    return 0


def run_obs_command(
    mode: str = "report", scenario: str = "steady", out: str = "traces", **fields
) -> int:
    """Run one probed scenario: replica-state series + drift detection.

    ``--mode report`` prints a per-(node, series) summary table and the
    drift-detector findings; ``--mode series`` exports every retained
    probe sample as JSONL plus a Perfetto counter-track document into
    ``--out``; ``--mode detect`` prints only the findings and exits 1
    when there are any (the CI smoke gate).  All output is
    deterministic for a given option set.
    """
    from repro.cluster.runner import run_experiment
    from repro.obs import write_chrome_trace, write_series_jsonl
    from repro.sim.monitor import SummaryStats

    try:
        if scenario == "storm":
            fixed = [
                flag
                for dest, flag in (
                    ("system", "--protocol"),
                    ("clients", "--clients"),
                    ("duration", "--duration"),
                )
                if dest in fields
            ]
            if fixed:
                print(
                    f"obs: --scenario storm is scenario-fixed; drop {' '.join(fixed)}",
                    file=sys.stderr,
                )
                return 2
            from repro.experiments.figR_retry_storm import (
                ANY_RETRY,
                BASE_OVERRIDES,
                IDEM_OVERRIDES,
                storm_spec,
            )

            overrides = {**BASE_OVERRIDES, **IDEM_OVERRIDES, **ANY_RETRY}
            spec = storm_spec("idem", "naive-any", overrides, probes=True, **fields)
            base = f"storm-idem-naive-any-seed{spec.seed}"
        else:
            spec = closed_loop_spec(probes=True, **fields)
            base = f"{spec.system}-seed{spec.seed}"
        result = run_experiment(spec)
    except ValueError as error:  # unknown system, bad duration, ...
        print(f"obs: {error}", file=sys.stderr)
        return 2

    recorder = result.obs.recorder
    findings = result.findings or []

    def render_findings_lines() -> str:
        if not findings:
            return "drift findings: none"
        lines = [f"drift findings: {len(findings)}"]
        for finding in findings:
            lines.append(
                f"  [{finding['rule']}] {finding['node']} "
                f"{finding['start']:.2f}-{finding['end']:.2f}s — "
                f"{finding['summary']}"
            )
        return "\n".join(lines)

    if mode == "series":
        os.makedirs(out, exist_ok=True)
        jsonl_path = os.path.join(out, f"{base}.series.jsonl")
        perfetto_path = os.path.join(out, f"{base}.counters.json")
        with open(jsonl_path, "w") as stream:
            lines = write_series_jsonl(recorder, stream)
        with open(perfetto_path, "w") as stream:
            events = write_chrome_trace(stream, recorder=recorder)
        print(f"[{lines} samples -> {jsonl_path}]")
        print(f"[{events} counter events -> {perfetto_path}]")
        print(render_findings_lines())
        return 0

    if mode == "detect":
        print(render_findings_lines())
        return 1 if findings else 0

    # report: one line per (node, series), summarising its retained samples.
    print(
        f"{len(recorder)} series, {recorder.samples_recorded} samples, "
        f"{len(recorder.marks)} fault mark(s)"
    )
    header = (
        f"{'node':10s} {'series':24s} {'n':>6s} {'min':>10s} "
        f"{'mean':>10s} {'max':>10s} {'last':>10s} {'p50':>10s} {'p99':>10s}"
    )
    print(header)
    print("-" * len(header))
    for (node, name), series in recorder.items():
        stats = SummaryStats.of(series.values())
        print(
            f"{node:10s} {name:24s} {stats.count:>6d} {stats.minimum:>10.2f} "
            f"{stats.mean:>10.2f} {stats.maximum:>10.2f} {series.last_value:>10.2f} "
            f"{stats.p50:>10.2f} {stats.p99:>10.2f}"
        )
    print()
    print(render_findings_lines())
    return 0


if __name__ == "__main__":
    sys.exit(main())
