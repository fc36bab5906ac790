"""The single environment access point for experiment settings.

Everything the experiment suite reads from the process environment goes
through here, so detlint's DET004 can keep ``os.environ`` out of
library code: explicit function arguments always win, environment
variables act as default-only fallbacks, and there is exactly one
module to audit when a run behaves differently across shells.

* ``REPRO_RUNS`` — seeded runs per data point (default 2).
* ``REPRO_DURATION`` — measured run length in simulated seconds.
* ``REPRO_TAB1_REQUESTS`` — request count for Table 1's traffic cells.
"""

from __future__ import annotations

import os


def env_int(name: str, default: int) -> int:
    """Integer environment setting with a default."""
    return int(os.environ.get(name, str(default)))


def env_float(name: str, default: float) -> float:
    """Float environment setting with a default."""
    return float(os.environ.get(name, str(default)))


def default_runs() -> int:
    """Seeded runs per data point (paper: 3; default here: 2)."""
    return env_int("REPRO_RUNS", 2)


def default_duration() -> float:
    """Simulated seconds per steady-state run."""
    return env_float("REPRO_DURATION", 1.0)


def tab1_requests() -> int:
    """Requests per Table 1 traffic cell (paper: 1,000,000)."""
    return env_int("REPRO_TAB1_REQUESTS", 200_000)
