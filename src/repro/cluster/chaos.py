"""Randomized chaos ("nemesis") testing with machine-checked invariants.

Deterministic simulation makes large randomized fault campaigns cheap:
a :class:`ChaosRunner` derives a fault plan from a seed — crashes with
crash-recovery rejoins, partitions with heals, loss windows and gray
failures (slow CPUs, latency spikes) — runs it against any registered
system, and a :class:`SafetyChecker` observes every execution and every
client reply to assert the protocol's safety invariants:

* **agreement** — every replica that executes a sequence number executes
  the same batch of requests in the same order (this is what makes the
  executed command sequences of all replicas prefix-consistent, and what
  "committed instances survive view changes" reduces to);
* **at-most-once** — no request id executes twice on one replica
  incarnation, and no request id is executed under two different
  sequence numbers anywhere in the cluster;
* **monotonic execution** — each replica incarnation executes sequence
  numbers in non-decreasing order;
* **reply validity** — every reply a client accepted corresponds to an
  execution observed on some replica;
* **convergence** — after faults heal and the run drains, live replicas
  are within the protocol's lag threshold of each other and replicas at
  equal positions hold identical application state.

Two runs with the same options produce byte-identical
:meth:`ChaosReport.summary` strings — the determinism contract the CI
smoke job enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.faults import CrashFault, FaultSchedule
from repro.cluster.profile import ClusterProfile
from repro.protocols.messages import Rid

# A replica incarnation: (replica index, incarnation number).
_Key = tuple[int, int]


class SafetyChecker:
    """Observes a cluster run and collects safety-invariant violations.

    Attach before the run starts; cheap per-execution checks (duplicate
    and cross-sequence-number reuse of request ids, execution order)
    happen online as executions are observed, the cross-replica checks
    (agreement, reply validity, convergence) at :meth:`finish`.

    What it retains, and why each check still holds with no more:

    * ``_batches`` — every rid each incarnation executed at each sqn, in
      order.  Agreement compares these lists; it is also the record of
      *who* executed a rid *where*.
    * ``_rid_sqn`` — the first sqn each rid executed at, anywhere.  A
      different sqn later is the cross-sqn at-most-once violation, and
      its keys are the executed rids reply validity checks against.
    * ``_further_sqns`` — for the rids that violated that rule only, the
      other sqns they executed at.  An incarnation executed a rid before
      exactly when the rid is in its ``_batches`` list at one of the
      rid's sqns, so the per-incarnation at-most-once check needs no
      per-execution set.
    * ``_last_sqn`` — one integer per incarnation, for monotonic order.

    So the checker holds one batch slot per execution plus one entry per
    distinct rid, and nothing per (incarnation, rid) pair.
    """

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.executions = 0
        # sqn -> incarnation -> rids executed under that sqn, in order.
        self._batches: dict[int, dict[_Key, list[Rid]]] = {}
        self._rid_sqn: dict[Rid, int] = {}
        # rid -> sqns other than _rid_sqn[rid] it executed at (violations only).
        self._further_sqns: dict[Rid, list[int]] = {}
        self._last_sqn: dict[_Key, int] = {}
        self._clients: list = []

    def attach(self, cluster: Cluster) -> None:
        """Start observing ``cluster``'s replicas and clients."""
        for replica in cluster.replicas:
            replica.exec_observer = self._note_execution
        for client in cluster.clients:
            client.reply_log = []
        self._clients = list(cluster.clients)

    # -- online checks -------------------------------------------------

    def _note_execution(self, replica, sqn: int, rid: Rid) -> None:
        key = (replica.index, replica.incarnation)
        self.executions += 1
        batches = self._batches
        at_sqn = batches.get(sqn)
        if at_sqn is None:
            at_sqn = batches[sqn] = {}
        batch = at_sqn.get(key)
        if batch is None:
            batch = at_sqn[key] = []
        known = self._rid_sqn.setdefault(rid, sqn)
        further = self._further_sqns.get(rid)
        # This incarnation executed rid before exactly when its batch at
        # one of the rid's sqns lists it.
        if known == sqn and further is None:
            twice = rid in batch
        else:
            twice = any(
                rid in batches[other].get(key, ())
                for other in (known, *(further or ()))
            )
        if known != sqn:
            self._violate(
                f"at-most-once: rid {rid} executed at sqn {known} and sqn {sqn}"
            )
            if further is None:
                further = self._further_sqns[rid] = []
            if sqn not in further:
                further.append(sqn)
        if twice:
            self._violate(
                f"at-most-once: replica {key} executed rid {rid} twice"
            )
        last = self._last_sqn.get(key, 0)
        if sqn < last:
            self._violate(
                f"order: replica {key} executed sqn {sqn} after sqn {last}"
            )
        else:
            self._last_sqn[key] = sqn
        batch.append(rid)

    def _violate(self, message: str) -> None:
        self.violations.append(message)

    # -- end-of-run checks ---------------------------------------------

    def finish(self, cluster: Cluster, lag_slack: float = 1.0) -> list[str]:
        """Run the cross-replica checks and return all violations.

        ``lag_slack`` scales the allowed divergence of live replicas'
        execution positions; pass >1 when checking a cluster mid-run
        (no drain), where window-deep lag is legitimate.
        """
        self._check_agreement()
        self._check_replies()
        self._check_convergence(cluster, lag_slack)
        return self.violations

    def _check_agreement(self) -> None:
        for sqn in sorted(self._batches):
            sequences = {tuple(rids) for rids in self._batches[sqn].values()}
            if len(sequences) > 1:
                keys = sorted(self._batches[sqn])
                self._violate(
                    f"agreement: divergent batches at sqn {sqn} across "
                    f"replicas {keys}: {sorted(sequences)}"
                )

    def _check_replies(self) -> None:
        for client in self._clients:
            for rid in client.reply_log or ():
                if rid not in self._rid_sqn:
                    self._violate(
                        f"reply validity: client accepted a reply for {rid} "
                        "but no replica executed it"
                    )

    def _check_convergence(self, cluster: Cluster, lag_slack: float) -> None:
        live = [replica for replica in cluster.replicas if not replica.halted]
        if not live:
            self._violate("convergence: no live replicas at end of run")
            return
        positions = [replica.exec_sqn for replica in live]
        threshold = max(replica._lag_threshold() for replica in live) * lag_slack
        if max(positions) - min(positions) > threshold:
            self._violate(
                f"convergence: live replicas diverge beyond the lag "
                f"threshold ({threshold:.0f}): exec positions {positions}"
            )
        by_position: dict[int, set[int]] = {}
        for replica in live:
            by_position.setdefault(replica.exec_sqn, set()).add(replica.app.digest())
        for position, digests in sorted(by_position.items()):
            if len(digests) > 1:
                self._violate(
                    f"convergence: replicas at exec_sqn {position} hold "
                    f"different application state"
                )


def generate_plan(
    seed: int,
    duration: float,
    n: int,
    warmup: float = 1.0,
    settle: float = 3.0,
    mean_gap: float = 0.8,
) -> FaultSchedule:
    """Derive a randomized, self-healing fault plan from ``seed``.

    The plan is sequential (one fault active at a time, Jepsen-nemesis
    style) so that a quorum is always reachable once the current fault
    lifts: every crash schedules a recovery, every partition a heal, and
    every degradation expires.  No fault starts before ``warmup`` or
    extends into the final ``settle`` seconds, giving the cluster a
    quiet tail to converge in before the safety checks run.
    """
    rng = random.Random(seed)
    schedule = FaultSchedule()
    horizon = duration - settle
    t = warmup
    while True:
        t += rng.uniform(0.5 * mean_gap, 1.5 * mean_gap)
        if t >= horizon:
            break
        remaining = horizon - t
        kind = rng.choices(
            ("crash", "partition", "loss", "slow", "spike"),
            weights=(3, 2, 1, 2, 2),
        )[0]
        if kind == "crash":
            hold = min(rng.uniform(0.8, 2.2), remaining)
            target: Union[int, str] = rng.choice(
                ["leader", "follower", rng.randrange(n)]
            )
            schedule.faults.append(CrashFault(t, target))
            schedule.recover_replica(t + hold)
            t += hold
        elif kind == "partition":
            a, b = rng.sample(range(n), 2)
            hold = min(rng.uniform(0.4, 1.4), remaining)
            schedule.partition_replicas(t, a, b)
            schedule.heal_replicas(t + hold, a, b)
            t += hold
        elif kind == "loss":
            hold = min(rng.uniform(0.3, 1.0), remaining)
            schedule.loss_window(t, hold, rng.uniform(0.05, 0.25))
            t += hold
        elif kind == "slow":
            hold = min(rng.uniform(0.3, 1.2), remaining)
            schedule.slow_replica(t, rng.randrange(n), rng.uniform(2.0, 5.0), hold)
            t += hold
        else:
            hold = min(rng.uniform(0.2, 0.8), remaining)
            schedule.latency_spike(t, rng.randrange(n), rng.uniform(3.0, 8.0), hold)
            t += hold
    return schedule


@dataclass
class ChaosOptions:
    """Everything that parameterizes one chaos run."""

    system: str = "idem"
    clients: int = 20
    duration: float = 30.0
    seed: int = 0
    drain: float = 2.5
    warmup: float = 1.0
    settle: float = 3.0
    mean_gap: float = 0.8
    profile: Optional[ClusterProfile] = None

    def __post_init__(self) -> None:
        if self.duration <= self.warmup + self.settle:
            raise ValueError(
                f"duration ({self.duration}) must exceed warmup + settle "
                f"({self.warmup} + {self.settle})"
            )


@dataclass
class ChaosReport:
    """The outcome of one chaos run, rendered deterministically."""

    options: ChaosOptions
    plan: list[str]
    executions: int
    exec_positions: list[int]
    app_digests: list[int]
    views: list[int]
    recoveries: int
    state_transfers: int
    view_changes: int
    successes: int
    rejections: int
    timeouts: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every safety invariant held."""
        return not self.violations

    def summary(self) -> str:
        """Deterministic multi-line report: same options => same bytes."""
        options = self.options
        lines = [
            f"chaos run: system={options.system} seed={options.seed} "
            f"duration={options.duration:.1f}s clients={options.clients}",
            f"plan ({len(self.plan)} faults):",
        ]
        lines.extend(f"  {entry}" for entry in self.plan)
        lines.extend(
            [
                "outcome:",
                f"  executions observed: {self.executions}",
                f"  final exec positions: {self.exec_positions}",
                "  app digests: "
                + str([f"{digest & (2**64 - 1):#018x}" for digest in self.app_digests]),
                f"  views: {self.views}",
                f"  recoveries: {self.recoveries}  "
                f"state transfers: {self.state_transfers}  "
                f"view changes: {self.view_changes}",
                f"  clients: successes={self.successes} "
                f"rejections={self.rejections} timeouts={self.timeouts}",
            ]
        )
        if self.ok:
            lines.append("safety: OK (0 violations)")
        else:
            lines.append(f"safety: {len(self.violations)} VIOLATION(S)")
            lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class ChaosRunner:
    """Runs one seeded chaos campaign against a freshly built cluster."""

    def __init__(self, options: ChaosOptions):
        self.options = options

    def run(self) -> ChaosReport:
        options = self.options
        profile = options.profile or ClusterProfile()
        cluster = build_cluster(
            options.system,
            options.clients,
            seed=options.seed,
            profile=profile,
            stop_time=options.duration,
        )
        checker = SafetyChecker()
        checker.attach(cluster)
        plan = generate_plan(
            options.seed,
            options.duration,
            profile.n,
            warmup=options.warmup,
            settle=options.settle,
            mean_gap=options.mean_gap,
        )
        plan.install(cluster)
        cluster.run_until(options.duration)
        cluster.stop_clients()
        cluster.run_until(options.duration + options.drain)
        violations = checker.finish(cluster)
        live = [replica for replica in cluster.replicas if not replica.halted]
        return ChaosReport(
            options=options,
            plan=plan.describe(),
            executions=checker.executions,
            exec_positions=[replica.exec_sqn for replica in live],
            app_digests=[replica.app.digest() for replica in live],
            views=[replica.view for replica in live],
            recoveries=cluster.recoveries,
            state_transfers=sum(
                replica.stats["state_transfers"] for replica in live
            ),
            view_changes=sum(replica.stats["view_changes"] for replica in live),
            successes=sum(client.successes for client in cluster.clients),
            rejections=sum(client.rejections for client in cluster.clients),
            timeouts=sum(client.timeouts for client in cluster.clients),
            violations=violations,
        )


def run_chaos(options: ChaosOptions) -> ChaosReport:
    """Convenience wrapper: run one chaos campaign."""
    return ChaosRunner(options).run()
