"""Command-line entry point: regenerate the paper's figures and tables.

Usage::

    repro-experiments fig6                  # one experiment, full settings
    repro-experiments all --quick           # everything, scaled-down
    repro-experiments campaign --jobs 4     # parallel, cached campaign
    repro-experiments campaign --check      # gate paper claims + BENCH_* baselines
    repro-experiments lint --check          # detlint determinism/purity gate
    repro-experiments --list
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.registry import EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # detlint has its own option surface (rule filters, JSON
        # report); hand the remaining arguments straight to it.
        from repro.analysis import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the IDEM paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help=(
            "experiment id (fig2, fig3, fig6, fig7, tab1, fig8, fig9, fig10, "
            "figR, figM, abl), "
            "'all', 'campaign' for a parallel cached campaign, 'chaos' for a "
            "randomized fault-injection run, 'trace' for a traced run with "
            "request-lifecycle analysis, 'obs' for a probed run with "
            "replica-state series and drift detection, or 'lint' for the "
            "detlint determinism/purity static-analysis pass"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down settings (faster, coarser)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="seeded runs per data point (default: REPRO_RUNS or 2)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="measured seconds per steady-state run (default: REPRO_DURATION or 1.0)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each experiment's raw data as JSON into DIR",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--protocol",
        default="idem",
        help="system to run against (chaos and trace only)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=20,
        help="closed-loop clients driving the run (chaos and trace only)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="traces",
        help="directory for trace exports (trace only; default: traces/)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many slowest requests to break down (trace only)",
    )
    campaign = parser.add_argument_group("campaign options")
    campaign.add_argument(
        "--experiments",
        default="all",
        help="comma-separated experiment ids for the campaign (default: all)",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="parallel worker processes (0 = one per CPU; campaign only)",
    )
    campaign.add_argument(
        "--cache-dir",
        default="benchmarks/results/cache",
        help="content-addressed result cache directory (campaign only)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (campaign only)",
    )
    campaign.add_argument(
        "--verify",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="re-run this fraction of cache hits and diff them (campaign only)",
    )
    campaign.add_argument(
        "--check",
        action="store_true",
        help="gate the paper's claims and the BENCH_* headline baselines; "
        "exit 1 on a failing claim or a regression",
    )
    campaign.add_argument(
        "--update-baselines",
        action="store_true",
        help="refresh the BENCH_* baseline files from this campaign's results "
        "(refused, exit 1, while any paper claim fails)",
    )
    campaign.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="directory holding the BENCH_*.json baselines (campaign only)",
    )
    campaign.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a machine-readable campaign report (JSON) to PATH",
    )
    campaign.add_argument(
        "--slowest",
        type=int,
        default=0,
        metavar="K",
        help="list the K most expensive jobs from the per-job profiles "
        "(campaign only; stderr)",
    )
    campaign.add_argument(
        "--gc",
        action="store_true",
        help="garbage-collect the result cache (prune entries no recent "
        "campaign referenced) and exit without running anything",
    )
    campaign.add_argument(
        "--gc-keep",
        type=int,
        default=5,
        metavar="N",
        help="with --gc: keep every entry the last N campaign runs "
        "referenced (default: 5)",
    )
    campaign.add_argument(
        "--gc-max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="with --gc: additionally remove entries older than DAYS, "
        "referenced or not",
    )
    obs = parser.add_argument_group("obs options")
    obs.add_argument(
        "--mode",
        choices=("report", "series", "detect"),
        default="report",
        help=(
            "obs only: 'report' prints a per-node series summary plus the "
            "drift findings, 'series' exports the probe series (JSONL + "
            "Perfetto counters) into --out, 'detect' runs the drift "
            "detectors and exits 1 on any finding"
        ),
    )
    obs.add_argument(
        "--scenario",
        choices=("steady", "storm"),
        default="steady",
        help=(
            "obs only: 'steady' probes a closed-loop run of "
            "--protocol/--clients/--duration, 'storm' probes the figR "
            "reject-retry storm arm (idem/naive-any; scenario-fixed)"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment == "chaos":
        return run_chaos_command(args)
    if args.experiment == "trace":
        return run_trace_command(args)
    if args.experiment == "obs":
        return run_obs_command(args)
    if args.experiment == "campaign":
        return run_campaign_command(args)

    if args.list:
        for experiment_id, module in EXPERIMENTS.items():
            headline = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{experiment_id:6s} {headline}")
        return 0

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if any(experiment_id not in EXPERIMENTS for experiment_id in ids):
        bad = [i for i in ids if i not in EXPERIMENTS]
        print(f"unknown experiment(s): {bad}; use --list", file=sys.stderr)
        return 2

    for experiment_id in ids:
        started = time.time()
        module = EXPERIMENTS[experiment_id]
        # runs/duration are threaded explicitly (no env-var mutation):
        # the REPRO_RUNS/REPRO_DURATION environment variables are only
        # read as defaults when these stay None.
        data = module.run(
            quick=args.quick,
            runs=args.runs,
            seed0=args.seed,
            duration=args.duration,
        )
        elapsed = time.time() - started
        print(module.render(data))
        if args.json:
            from repro.experiments.io import save_json

            path = save_json(data, f"{args.json}/{experiment_id}.json")
            print(f"[raw data saved to {path}]")
        print(f"\n[{experiment_id} finished in {elapsed:.1f}s wall time]\n")
    return 0


def run_campaign_command(args) -> int:
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
        render_slowest,
        render_summary,
        run_campaign,
        write_report,
    )
    from repro.experiments.common import render_claims

    def echo(message: str) -> None:
        print(message, file=sys.stderr)

    if args.gc:
        from repro.campaign import ResultCache
        from repro.campaign.gc import collect_garbage

        if args.no_cache:
            print("campaign: --gc is meaningless with --no-cache", file=sys.stderr)
            return 2
        try:
            report = collect_garbage(
                ResultCache(args.cache_dir),
                keep_runs=args.gc_keep,
                max_age_days=args.gc_max_age_days,
            )
        except ValueError as error:  # bad --gc-keep
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        print(report.render())
        return 0

    try:
        options = CampaignOptions(
            experiments=[part for part in args.experiments.split(",") if part],
            quick=args.quick,
            runs=args.runs,
            duration=args.duration,
            seed0=args.seed,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            verify_fraction=args.verify,
            check=args.check,
            update_baselines=args.update_baselines,
            baseline_dir=args.baseline_dir,
            echo=echo,
        )
    except ValueError as error:  # negative --jobs
        print(f"campaign: {error}", file=sys.stderr)
        return 2
    try:
        result = run_campaign(options)
    except KeyError as error:
        print(f"campaign: {error.args[0]}", file=sys.stderr)
        return 2
    except CacheVerificationError as error:
        print(f"campaign: {error}", file=sys.stderr)
        return 1

    for outcome in result.outcomes:
        print(outcome.text)
        print()
    print(render_summary(result), file=sys.stderr)
    if args.slowest > 0:
        print(render_slowest(result, args.slowest), file=sys.stderr)
    print(render_claims(result.claims), file=sys.stderr)
    if result.baseline_report is not None:
        print(result.baseline_report.render(), file=sys.stderr)
    if args.json:
        from repro.experiments.io import save_json

        for outcome in result.outcomes:
            path = save_json(outcome.data, f"{args.json}/{outcome.experiment_id}.json")
            print(f"campaign: raw data saved to {path}", file=sys.stderr)
    if args.report:
        path = write_report(args.report, result)
        print(f"campaign: report written to {path}", file=sys.stderr)
    return result.exit_code


def run_chaos_command(args) -> int:
    """Run a seeded chaos campaign; exit 1 on any invariant violation.

    The report printed to stdout is fully deterministic for a given
    option set (no wall-clock content), so two runs with the same seed
    can be compared byte-for-byte — see the CI determinism job.
    """
    from repro.cluster.chaos import ChaosOptions, run_chaos

    try:
        options = ChaosOptions(
            system=args.protocol,
            clients=args.clients,
            duration=args.duration if args.duration is not None else 30.0,
            seed=args.seed,
        )
        report = run_chaos(options)
    except ValueError as error:  # unknown system, bad duration, ...
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def run_trace_command(args) -> int:
    """Run one traced scenario and emit/summarise its traces.

    Writes a JSONL event log and a Chrome trace-event JSON (loadable in
    Perfetto / ``chrome://tracing``) into ``--out``, then prints the
    top-K slowest requests with per-hop latency breakdowns and the
    reject-reason histogram.  The traced run is byte-identical to an
    untraced run of the same spec (the observer-only invariant).
    """
    from repro.cluster.runner import RunSpec, run_experiment
    from repro.obs import render_report, write_chrome_trace, write_jsonl

    duration = args.duration if args.duration is not None else 1.0
    try:
        spec = RunSpec(
            system=args.protocol,
            clients=args.clients,
            duration=duration,
            warmup=min(0.3, duration * 0.3),
            seed=args.seed,
            observe=True,
        )
        result = run_experiment(spec)
    except ValueError as error:  # unknown system, bad duration, ...
        print(f"trace: {error}", file=sys.stderr)
        return 2
    hub = result.obs
    os.makedirs(args.out, exist_ok=True)
    base = f"{args.protocol}-seed{args.seed}"
    jsonl_path = os.path.join(args.out, f"{base}.jsonl")
    chrome_path = os.path.join(args.out, f"{base}.trace.json")
    with open(jsonl_path, "w") as stream:
        lines = write_jsonl(hub.tracer, stream)
    with open(chrome_path, "w") as stream:
        events = write_chrome_trace(hub.tracer, stream, hub.registry)
    print(result.describe())
    print(f"[{lines} events -> {jsonl_path}]")
    print(f"[{events} Chrome trace events -> {chrome_path}]")
    print()
    print(render_report(hub.tracer, hub.registry, k=args.top))
    return 0


def run_obs_command(args) -> int:
    """Run one probed scenario: replica-state series + drift detection.

    ``--mode report`` prints a per-(node, series) summary table and the
    drift-detector findings; ``--mode series`` exports every retained
    probe sample as JSONL plus a Perfetto counter-track document into
    ``--out``; ``--mode detect`` prints only the findings and exits 1
    when there are any (the CI smoke gate).  All output is
    deterministic for a given option set.
    """
    from repro.cluster.runner import RunSpec, run_experiment
    from repro.obs import write_series_chrome_trace, write_series_jsonl

    try:
        if args.scenario == "storm":
            from repro.experiments.figR_retry_storm import (
                ANY_RETRY,
                BASE_OVERRIDES,
                IDEM_OVERRIDES,
                storm_spec,
            )

            overrides = {**BASE_OVERRIDES, **IDEM_OVERRIDES, **ANY_RETRY}
            spec = storm_spec(
                "idem", "naive-any", overrides, args.seed, probes=True
            )
            base = f"storm-idem-naive-any-seed{args.seed}"
        else:
            duration = args.duration if args.duration is not None else 1.0
            spec = RunSpec(
                system=args.protocol,
                clients=args.clients,
                duration=duration,
                warmup=min(0.3, duration * 0.3),
                seed=args.seed,
                probes=True,
            )
            base = f"{args.protocol}-seed{args.seed}"
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

    if args.mode == "series":
        os.makedirs(args.out, exist_ok=True)
        jsonl_path = os.path.join(args.out, f"{base}.series.jsonl")
        perfetto_path = os.path.join(args.out, f"{base}.counters.json")
        with open(jsonl_path, "w") as stream:
            lines = write_series_jsonl(recorder, stream)
        with open(perfetto_path, "w") as stream:
            events = write_series_chrome_trace(recorder, stream)
        print(f"[{lines} samples -> {jsonl_path}]")
        print(f"[{events} counter events -> {perfetto_path}]")
        print(render_findings_lines())
        return 0

    if args.mode == "detect":
        print(render_findings_lines())
        return 1 if findings else 0

    # report: one line per (node, series) with window stats + quantiles.
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
        stats = series.window(0.0, spec.duration)
        print(
            f"{node:10s} {name:24s} {stats.count:>6d} {stats.min:>10.2f} "
            f"{stats.mean:>10.2f} {stats.max:>10.2f} {stats.last:>10.2f} "
            f"{series.quantile(0.5):>10.2f} {series.quantile(0.99):>10.2f}"
        )
    print()
    print(render_findings_lines())
    return 0


if __name__ == "__main__":
    sys.exit(main())
