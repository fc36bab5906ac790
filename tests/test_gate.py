"""``tools/gate.py``: CI's jobs as one local command.

A small in-memory workflow pins the parser (matrix expansion,
continuation joining, skip reasons) and the runner's verdict lines;
the scripts run under ``bash -eo pipefail`` like GitHub's.
"""

from tools import gate

WORKFLOW = {
    "jobs": {
        "demo": {
            "strategy": {"matrix": {"n": [1, 2]}},
            "steps": [
                {"uses": "actions/checkout@v4"},
                {"name": "Install", "run": "python -m pip install ruff"},
                {"name": "Echo", "run": "echo \\\n  n=${{ matrix.n }}"},
                {"name": "Pipe", "run": "false | true"},
                {"name": "After", "run": "true"},
            ],
        },
    }
}


def test_steps_expand_the_matrix_and_name_what_cannot_run():
    job = WORKFLOW["jobs"]["demo"]
    combinations = gate.steps(job)
    assert len(combinations) == 2
    names = [name for name, _script, _reason in combinations[1]]
    assert names == [
        "actions/checkout@v4 [n=2]", "Install [n=2]", "Echo [n=2]",
        "Pipe [n=2]", "After [n=2]",
    ]
    reasons = [reason for _name, _script, reason in combinations[0]]
    assert reasons == [
        "uses the actions/checkout@v4 action", "installs packages", None, None, None,
    ]
    _name, script, _reason = combinations[1][2]
    assert gate.command_lines(script) == ["echo    n=2"]


def test_run_job_prints_one_verdict_per_step(capfd):
    """pipefail makes ``false | true`` fail; the rest of that matrix
    combination is skipped, and every step still prints a line."""
    lines = []
    failures = gate.run_job(WORKFLOW["jobs"]["demo"], echo=lines.append)
    assert failures == 2
    assert lines[:5] == [
        "SKIP actions/checkout@v4 [n=1]: uses the actions/checkout@v4 action",
        "SKIP Install [n=1]: installs packages",
        "ok Echo [n=1]",
        "FAIL Pipe [n=1] (exit 1)",
        "SKIP After [n=1]: an earlier step failed",
    ]
    assert len(lines) == 10 and lines[8] == "FAIL Pipe [n=2] (exit 1)"
    assert "n=1" in capfd.readouterr().out


def test_missing_tool_is_skipped(monkeypatch):
    monkeypatch.setattr(gate.shutil, "which", lambda tool: None)
    step = {"name": "Lint", "run": "ruff check src/"}
    assert gate.skip_reason(step, step["run"]) == "ruff is not installed"
    monkeypatch.setattr(gate.shutil, "which", lambda tool: f"/bin/{tool}")
    assert gate.skip_reason(step, step["run"]) is None


def test_unknown_job_exits_two(capsys):
    assert gate.main(["no-such-job"]) == 2
    assert "unknown job 'no-such-job'" in capsys.readouterr().err
