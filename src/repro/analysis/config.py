"""Per-module rule configuration.

Which rules apply where is a property of the architecture, not of the
individual finding, so it lives here rather than in suppressions:

* The DET family guards the *simulation core* — everything that runs
  inside (or feeds) the event loop.  ``repro.cli`` and
  ``repro.campaign`` legitimately read the wall clock (progress
  timings on stderr) and are excluded from DET001.
* OBS003 applies to the simulation core.  ``repro.cluster`` is the
  sanctioned composition layer (it *builds* hubs for observed runs), so
  it is exempt.
* The PROTO family applies to the composition and configuration layers,
  where topology must stay abstract.

A rule applies to a module when the module matches one of the rule's
include prefixes and none of its exclude prefixes.  Prefixes match
whole dotted segments (``repro.net`` matches ``repro.net.network`` but
not ``repro.network``).
"""

from __future__ import annotations

#: Everything that runs under the event loop and must be seeded-replayable.
SIMULATED_PACKAGES = (
    "repro.sim",
    "repro.net",
    "repro.protocols",
    "repro.cluster",
    "repro.core",
    "repro.app",
    "repro.workload",
    "repro.resilience",
    "repro.population",
)

#: Modules allowed to read os.environ (DET004): the CLI boundary.
ENV_READ_ALLOWED = ("repro.cli",)

#: Composition/configuration layers where topology must stay abstract
#: (the PROTO family); protocol-owned policy lives outside this scope.
TOPOLOGY_SCOPE = (
    "repro.cluster",
    "repro.experiments",
    "repro.population",
    "repro.workload",
    "repro.campaign",
    "repro.app",
    "tools",
)

#: rule id -> (include prefixes, exclude prefixes).
RULE_SCOPES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # Wall clock: the sim core plus repro.obs (observers must timestamp
    # with sim time only).  The CLI and campaign engine measure wall
    # time on purpose (stderr-only content).
    "DET001": (SIMULATED_PACKAGES + ("repro.obs", "repro.experiments"), ()),
    "DET002": (("repro", "tools"), ()),
    "DET003": (("repro", "tools"), ()),
    "DET004": (("repro", "tools"), ENV_READ_ALLOWED),
    # Hash-order-sensitive iteration matters where messages are
    # dispatched, ties broken and quorums counted.
    "DET005": (
        (
            "repro.sim",
            "repro.net",
            "repro.protocols",
            "repro.cluster",
            "repro.core",
            "repro.resilience",
            "repro.population",
            "repro.workload",
            "tools",
        ),
        (),
    ),
    "DET006": (("repro", "tools"), ()),
    "OBS003": (SIMULATED_PACKAGES, ("repro.cluster",)),
    # Topology assumptions: the composition/configuration layers must
    # not bake in the 3-replica topology.  Protocol-owned policy
    # (repro.protocols, repro.core) legitimately implements quorum and
    # leader arithmetic.
    "PROTO001": (TOPOLOGY_SCOPE, ()),
    "PROTO003": (TOPOLOGY_SCOPE, ()),
}

#: Aggregations whose result does not depend on iteration order; a set
#: consumed directly by one of these is not a DET005 hazard.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset", "bool"}
)


def _matches_prefix(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def rule_applies(rule_id: str, module: str) -> bool:
    """Whether ``rule_id`` is in force for dotted ``module``."""
    include, exclude = RULE_SCOPES[rule_id]
    if not any(_matches_prefix(module, prefix) for prefix in include):
        return False
    return not any(_matches_prefix(module, prefix) for prefix in exclude)


def rules_for_module(module: str) -> set[str]:
    """All rule ids in force for dotted ``module``."""
    return {rule_id for rule_id in RULE_SCOPES if rule_applies(rule_id, module)}
