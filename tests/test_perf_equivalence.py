"""The hot-path optimisation's equivalence gate.

The tuple-keyed heap, the lazy-deadline timers, the single-sizing send
path and auto-drain are all *performance* changes: they must not move a
single simulated event.  The goldens under ``tests/golden/`` were
rendered by the pre-optimisation simulator (fixed seed, tiny settings);
any byte of drift here means an optimisation changed behaviour, not
just speed.
"""

from pathlib import Path

import pytest

import repro.sim.loop as loop_module

GOLDEN_DIR = Path(__file__).parent / "golden"


def _render(experiment_id: str) -> str:
    """One experiment's report, executed serially in this process."""
    from repro.campaign import CampaignOptions, run_campaign

    options = CampaignOptions(
        experiments=[experiment_id], quick=True, runs=1, duration=0.2,
        jobs=1, cache_dir=None,
    )
    return run_campaign(options).outcomes[0].text + "\n"


def test_fig2_matches_the_pre_optimisation_golden():
    golden = (GOLDEN_DIR / "fig2_golden.txt").read_text(encoding="utf-8")
    assert _render("fig2") == golden


def test_fig6_matches_the_pre_optimisation_golden():
    golden = (GOLDEN_DIR / "fig6_golden.txt").read_text(encoding="utf-8")
    assert _render("fig6") == golden


def test_fig2_is_byte_identical_with_auto_drain_off(monkeypatch):
    """Auto-drain is a space/speed knob, never a behaviour knob.

    Event loops built deep inside the experiment pick up the module
    default, so flipping it exercises the whole fig2 slice with
    tombstones left in place — the rendered output must not move.
    """
    golden = (GOLDEN_DIR / "fig2_golden.txt").read_text(encoding="utf-8")
    monkeypatch.setattr(loop_module, "AUTO_DRAIN_DEFAULT", False)
    assert _render("fig2") == golden


def test_golden_files_are_committed():
    for name in ("fig2_golden.txt", "fig6_golden.txt"):
        path = GOLDEN_DIR / name
        assert path.exists() and path.stat().st_size > 0, name


@pytest.mark.parametrize("auto_drain", [True, False])
def test_drain_setting_does_not_change_dispatch_order(auto_drain):
    """Directly: cancelling half the events mid-run dispatches the same
    survivors in the same order whether tombstones are compacted or not."""
    from repro.sim.loop import DRAIN_MIN_TOMBSTONES, EventLoop

    loop = EventLoop(auto_drain=auto_drain)
    seen = []
    doomed = [
        loop.call_after(0.5 + i * 1e-6, seen.append, f"doomed{i}")
        for i in range(DRAIN_MIN_TOMBSTONES)
    ]
    survivors = [
        loop.call_after(0.6 + i * 1e-6, seen.append, i) for i in range(10)
    ]
    del survivors

    def cancel_all():
        for event in doomed:
            event.cancel()

    loop.call_after(0.1, cancel_all)
    loop.run_until(1.0)
    assert seen == list(range(10))
    if auto_drain:
        assert loop.drained_tombstones == DRAIN_MIN_TOMBSTONES
    else:
        assert loop.drained_tombstones == 0
