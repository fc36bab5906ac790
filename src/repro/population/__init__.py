"""``repro.population`` — aggregate million-client workload backend.

Every client elsewhere in the repo is a simulated object with its own
timers and RNG streams, which caps realistic populations at a few
hundred.  This package collapses N virtual clients into **one**
:class:`AggregateClientNode` driving a single aggregate arrival process
(Poisson, Markov-modulated for bursts, or schedule-modulated), with
closed-loop feedback approximated analytically: the effective open-loop
rate ``lambda_eff(t) = thinkers(t) / Z`` is recomputed on a periodic
feedback tick from the think-pool population instead of firing one
timer per client.  Each arrival lends a fabricated virtual-client
identity (seeded cid draws, one monotone onr counter) to a pooled
object of the system's ordinary client class, which handles the
request with the same code as a per-object client and hands itself
back when done — so client objects and event cost are O(active
requests), not O(N), and there is one client state machine, not a
re-model of it.  What does grow with N is each replica's per-cid
``executed_onr``/``last_reply``.

:class:`PopulationSpec` is the serialisable knob (rides campaign
payloads like :class:`~repro.workload.open_loop.ArrivalSpec`).  What
the think-pool approximation costs against per-object clients with the
same think time is measured in ``tests/test_population.py`` and
written down in ``docs/WORKLOADS.md``.
"""

from repro.population.aggregate import AggregateClientNode
from repro.population.spec import (
    POPULATION_PROCESSES,
    REJECT_REENTRY_MODES,
    PopulationSpec,
)

__all__ = [
    "AggregateClientNode",
    "POPULATION_PROCESSES",
    "REJECT_REENTRY_MODES",
    "PopulationSpec",
]
