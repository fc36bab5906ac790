"""Declarative description of an aggregate client population.

A :class:`PopulationSpec` is a frozen dataclass of primitives, like
:class:`~repro.workload.open_loop.ArrivalSpec` and the fault types, so
it serialises losslessly through the campaign planner's JSON payloads
(``repro.campaign.plan``) and participates in content-addressed job
keys.  The population size itself is *not* part of the spec — it is the
:class:`~repro.cluster.runner.RunSpec`'s ``clients`` field, so sweeps
over N reuse one spec object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Supported aggregate arrival processes.  "poisson" is the homogeneous
# M/.../N closed-loop approximation; "mmpp" modulates it with a
# two-state Markov chain (normal/burst) for bursty edge populations.
POPULATION_PROCESSES = ("poisson", "mmpp")

# What a virtual client does after a *rejected* operation is abandoned.
# "backoff" re-engages after the 50-100 ms
# rejection backoff, exactly like the per-object benchmark clients
# (Section 7.1) — under sustained overload at large N this amplifies
# offered load without bound (every rejected client re-offers ~13x/s
# instead of 1/Z) and the population death-spirals, which is faithful
# but usually not the question being asked.  "think" models
# semi-autonomous edge clients (Section 2.3): the fallback already
# served the user, who returns to the think pool — rejection then
# *sheds* load, which is the regime the paper's thesis addresses.
REJECT_REENTRY_MODES = ("backoff", "think")


@dataclass(frozen=True)
class PopulationSpec:
    """How N virtual clients behave as one aggregate arrival process.

    ``think_time``
        Mean think time Z between a virtual client's operations.  When
        set it overrides ``config.think_time`` for the whole run (the
        retry policies' timeout backoff uses the same value, exactly as
        it would for object clients).  Arrivals are Poisson at
        ``lambda_eff(t) = thinkers(t) / Z``, so the effective Z must be
        positive (``build_cluster`` rejects ``Z <= 0``: zero-think
        closed-loop clients are the per-object backend).
    ``process``
        "poisson" or "mmpp" (two-state Markov-modulated bursts).
    ``burst_multiplier`` / ``dwell_normal`` / ``dwell_burst``
        MMPP parameters: the rate multiplier while in the burst state
        and the mean (exponential) sojourn times of the normal and
        burst states.  Ignored for ``process == "poisson"``.
    ``feedback_interval``
        Cadence of the feedback tick that re-derives ``lambda_eff``
        from the think pool.  Purely a fidelity/cost dial — the tick
        only touches the aggregate node's own state, never the replicas
        or the lent clients (their deadlines are exact timers).
    ``reject_reentry``
        Post-rejection behaviour: "backoff" re-engages after the 50-100 ms rejection backoff
        (faithful to the per-object benchmark clients but death-spirals
        under sustained overload at large N); "think" returns the
        virtual client to the think pool (the fallback response served
        it), so rejection sheds load — the regime proactive rejection
        is designed for.
    """

    think_time: Optional[float] = None
    process: str = "poisson"
    burst_multiplier: float = 4.0
    dwell_normal: float = 1.0
    dwell_burst: float = 0.25
    feedback_interval: float = 0.005
    reject_reentry: str = "backoff"

    def __post_init__(self) -> None:
        if self.process not in POPULATION_PROCESSES:
            raise ValueError(
                f"unknown population process {self.process!r}; "
                f"choose from {POPULATION_PROCESSES}"
            )
        if self.reject_reentry not in REJECT_REENTRY_MODES:
            raise ValueError(
                f"unknown reject_reentry {self.reject_reentry!r}; "
                f"choose from {REJECT_REENTRY_MODES}"
            )
        if self.think_time is not None and self.think_time < 0.0:
            raise ValueError(f"think_time must be >= 0, got {self.think_time}")
        if self.feedback_interval <= 0.0:
            raise ValueError(
                f"feedback_interval must be positive, got {self.feedback_interval}"
            )
        if self.process == "mmpp":
            if self.burst_multiplier <= 0.0:
                raise ValueError(
                    f"burst_multiplier must be positive, got {self.burst_multiplier}"
                )
            if self.dwell_normal <= 0.0 or self.dwell_burst <= 0.0:
                raise ValueError(
                    "mmpp dwell times must be positive, got "
                    f"{self.dwell_normal}/{self.dwell_burst}"
                )

    def effective_think_time(self, config) -> float:
        """The think time Z this population runs with under ``config``."""
        if self.think_time is not None:
            return self.think_time
        return config.think_time
