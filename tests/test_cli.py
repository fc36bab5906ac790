"""The command surface: each subcommand accepts only the flags it reads.

``build_parser()`` parses without running anything, so the foreign-flag
table and CI's own command lines are checked at parse time.  A flag's
``dest`` is the dataclass field it sets and an omitted flag stays out
of the namespace, so the dataclass holds the only default.  ``chaos``
and ``obs`` run twice through ``main`` to pin their stdout.
"""

import re
import shlex

import pytest

from repro import cli
from repro.campaign import CampaignOptions
from repro.cluster.chaos import ChaosOptions
from repro.cluster.runner import RunSpec
from repro.cli import build_parser, main
from tools import gate

#: (command, flag...) pairs that parsed before subcommands and were
#: never read by the command they were given to.
FOREIGN_FLAGS = [
    ("chaos", "--quick"),
    ("campaign", "--protocol", "paxos"),
    ("trace", "--jobs", "2"),
    ("obs", "--top", "3"),
    ("campaign", "--mode", "detect"),
    ("gc", "--check"),
    ("gc", "--gc-keep", "5"),
    ("gc", "--no-cache"),
    ("campaign", "--clients", "4"),
    ("campaign", "--out", "d"),
    ("chaos", "--out", "d"),
    ("chaos", "--cache-dir", "d"),
    ("trace", "--mode", "detect"),
    ("trace", "--runs", "2"),
    ("obs", "--json", "d"),
    ("list", "--quick"),
]


@pytest.mark.parametrize("argv", FOREIGN_FLAGS, ids=" ".join)
def test_foreign_flag_exits_2_before_anything_runs(argv, monkeypatch, capsys):
    def must_not_run(**fields):
        raise AssertionError(f"{argv[0]} ran with {fields}")

    for name in vars(cli).copy():
        if name.startswith("run_") and name.endswith("_command"):
            monkeypatch.setattr(cli, name, must_not_run)
    build_parser().parse_args([argv[0]])  # the command alone parses
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    assert raised.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def parsed(argv):
    fields = vars(build_parser().parse_args(argv))
    fields.pop("run")
    return fields


def test_omitted_flags_leave_the_dataclass_defaults():
    for command in ("list", "campaign", "gc", "chaos", "trace", "obs"):
        assert parsed([command]) == {}, command
    assert cli.closed_loop_spec() == RunSpec()


def test_flag_dests_are_dataclass_fields():
    run = ["--seed", "3", "--protocol", "paxos", "--clients", "4", "--duration", "5"]
    expected = dict(seed=3, system="paxos", clients=4, duration=5.0)
    assert parsed(["chaos", *run]) == expected
    assert ChaosOptions(**parsed(["chaos", *run])) == ChaosOptions(**expected)
    spec = cli.closed_loop_spec(**parsed(["trace", *run]))
    assert spec == RunSpec(warmup=0.3, **expected)

    fields = parsed([
        "campaign", "--experiments", "fig2,fig7", "--quick", "--runs", "1",
        "--duration", "0.5", "--seed", "7", "--jobs", "2", "--cache-dir", "c",
        "--verify", "0.25", "--check", "--update-baselines", "--baseline-dir", "b",
    ])
    assert CampaignOptions(**fields) == CampaignOptions(
        experiments=["fig2", "fig7"], quick=True, runs=1, duration=0.5, seed0=7,
        jobs=2, cache_dir="c", verify_fraction=0.25, check=True,
        update_baselines=True, baseline_dir="b",
    )
    assert parsed(["campaign", "--no-cache"]) == {"cache_dir": None}


SHELL_OPERATOR = re.compile(r"^(\d*>|\||&&|;|<)")


def ci_invocations() -> list[list[str]]:
    """Every ``python -m repro.cli`` argv in CI, matrix-expanded."""
    invocations = []
    for job in gate.load_workflow()["jobs"].values():
        for combination in gate.steps(job):
            for _name, script, _reason in combination:
                for line in gate.command_lines(script):
                    if "python -m repro.cli" not in line:
                        continue
                    argv = []
                    for token in shlex.split(line.split("python -m repro.cli", 1)[1]):
                        if SHELL_OPERATOR.match(token):
                            break
                        argv.append(token)
                    invocations.append(argv)
    return invocations


CI_INVOCATIONS = ci_invocations()


def test_ci_invocations_were_found():
    commands = {argv[0] for argv in CI_INVOCATIONS}
    assert commands == {"lint", "obs", "campaign", "gc", "chaos"}
    assert ["chaos", "--seed", "1", "--duration", "8", "--clients", "6",
            "--protocol", "bftsmart"] in CI_INVOCATIONS


@pytest.mark.parametrize("argv", CI_INVOCATIONS, ids=" ".join)
def test_ci_command_line_parses(argv):
    build_parser().parse_args(argv)


def test_storm_scenario_rejects_the_run_flags(capsys):
    argv = ["obs", "--scenario", "storm", "--seed", "1"]
    assert main(argv + ["--protocol", "paxos", "--duration", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "obs: --scenario storm is scenario-fixed; drop --protocol --duration\n"
    assert main(argv + ["--clients", "3"]) == 2
    assert "drop --clients\n" in capsys.readouterr().err


def run_twice(argv, capsys) -> str:
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    return outputs[0]


def test_chaos_through_main_is_deterministic(capsys):
    floor = ChaosOptions.warmup + ChaosOptions.settle
    assert main(["chaos", "--duration", str(floor)]) == 2
    assert "must exceed warmup + settle" in capsys.readouterr().err
    # Seed 28's plan fits a crash and recovery of the leader into the
    # half second between warmup and settle.
    argv = ["chaos", "--seed", "28", "--clients", "2", "--duration", str(floor + 0.5)]
    out = run_twice(argv, capsys)
    assert "CrashFault(target='leader')" in out and "safety: OK" in out


def test_obs_detect_through_main_is_deterministic(capsys):
    argv = ["obs", "--mode", "detect", "--clients", "2", "--duration", "0.3"]
    assert run_twice(argv, capsys) == "drift findings: none\n"
