"""The detlint rule catalog.

A rule is metadata only — the matching logic lives in the checker
modules (:mod:`repro.analysis.det`, :mod:`repro.analysis.layering`,
:mod:`repro.analysis.proto`).  Which modules a rule applies to is
decided by :mod:`repro.analysis.config`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One detlint rule: identifier, family, and rationale."""

    id: str
    family: str  # "DET", "OBS" or "PROTO"
    title: str
    rationale: str


_RULE_LIST = [
    Rule(
        "DET001",
        "DET",
        "wall-clock read in simulation code",
        "Simulation code must use the event loop's virtual time "
        "(`loop.now`); a wall-clock read makes results depend on host "
        "speed and breaks seeded replay.",
    ),
    Rule(
        "DET002",
        "DET",
        "ambient entropy source",
        "os.urandom / uuid.uuid4 / secrets draw from the OS entropy "
        "pool, which no seed controls; every random byte must come "
        "from a seeded stream.",
    ),
    Rule(
        "DET003",
        "DET",
        "global random module call",
        "The module-level random functions share one hidden global "
        "state; use the named per-component streams of "
        "repro.sim.rng.RngRegistry (instantiating random.Random with "
        "an explicit seed is fine).",
    ),
    Rule(
        "DET004",
        "DET",
        "environment read outside the CLI",
        "os.environ reads in library code make behaviour depend on "
        "ambient process state; thread settings as explicit arguments "
        "(the CLI is the only boundary allowed to read them).",
    ),
    Rule(
        "DET005",
        "DET",
        "unsorted iteration over a set",
        "Set iteration order depends on PYTHONHASHSEED for any element "
        "containing a str; feeding it into dispatch, tie-breaking or "
        "bookkeeping makes runs irreproducible.  Iterate "
        "sorted(the_set) instead.",
    ),
    Rule(
        "DET006",
        "DET",
        "process environment mutation",
        "Writing os.environ leaks state between runs and across "
        "campaign workers; thread settings explicitly (the campaign "
        "engine removed exactly this pattern in PR 3).",
    ),
    Rule(
        "OBS003",
        "OBS",
        "simulation module imports repro.obs",
        "Protocol/sim code may only reach observability through its "
        "`self.obs` hook; importing repro.obs from the simulation core "
        "would invert the dependency and invite accidental coupling.",
    ),
    Rule(
        "PROTO001",
        "PROTO",
        "integer literal as replica count / fault threshold",
        "A literal n/f/quorum outside repro.protocols.config freezes "
        "the 3-replica topology; counts flow from the explicit knob "
        "(ClusterProfile.n / ProtocolConfig.n) and derived quantities "
        "from fault_tolerance()/quorum_size().",
    ),
    Rule(
        "PROTO003",
        "PROTO",
        "hard-coded leader-index pattern",
        "view % n arithmetic, replicas[0] and leader == 0 comparisons "
        "outside the protocol layer each re-implement leader policy; "
        "ProtocolConfig.leader_of(view) is the single owner, which a "
        "leaderless baseline can override.",
    ),
]

RULES: dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}
