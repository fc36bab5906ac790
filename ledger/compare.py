"""Compare two ledger records: ``python -m ledger.compare A.json B.json``.

One row per workload and end-to-end metric, with its direction, bound,
and both records' median and quartiles over the repeats.  Verdicts:

``same``        B's median is within the bound of A's
``better``      B improved on A by more than the bound and the spread
``worse``       B is worse than A by more than the bound and the spread
``unresolved``  the spread between repeats is wider than the bound

When both records come from the same code, seed and scale, every
``sim_*`` metric and every ``*.calls_per_req`` must be bit-equal; any
difference is ``worse``.  Exits non-zero on a ``worse`` row or when B
fails a larger share of its operations than A.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ledger.spec import END_TO_END, Metric


# Measured on the host, so noisy; every other end-to-end metric is simulated
# and exact for a given code, seed and scale.
HOST_MEASURED = {"setup_s", "host_s", "sim_req_per_host_s", "peak_rss_mb"}


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    better: str
    bound: float
    a: tuple[float, float, float]  # first quartile, median, third quartile
    b: tuple[float, float, float]
    change: float  # relative change of the median, positive = worse
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def _worsening(metric: Metric, a: float, b: float) -> float:
    if a == b:
        return 0.0
    delta = b - a if metric.better == "lower" else a - b
    return delta / abs(a) if a else math.copysign(math.inf, delta)


def judge(workload: str, metric: Metric, a: list[float], b: list[float], exact: bool) -> Row:
    """The row for one metric given both records' samples."""
    qa, qb = quartiles(a), quartiles(b)
    change = _worsening(metric, qa[1], qb[1])
    if exact:
        verdict = "same" if a == b else "worse"
    else:
        scale = abs(qa[1]) or 1.0
        allowed = max(metric.bound, metric.floor / scale)
        spread = max(qa[2] - qa[0], qb[2] - qb[0]) / scale
        if change > max(allowed, spread):
            verdict = "worse"
        elif -change > max(allowed, spread):
            verdict = "better"
        elif spread > allowed:
            verdict = "unresolved"
        else:
            verdict = "same"
    return Row(workload, metric.name, metric.better, metric.bound, qa, qb, change, verdict)


def same_code(a: dict, b: dict) -> bool:
    return all(a.get(key) == b.get(key) for key in ("code_digest", "seed", "scale"))


def compare(a: dict, b: dict) -> tuple[list[Row], list[str]]:
    """Rows for every workload both records hold, plus failure notes."""
    exact = same_code(a, b)
    rows: list[Row] = []
    notes: list[str] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            notes.append(f"{name}: missing from B")
            continue
        for metric in END_TO_END:
            if metric.name in wa["samples"] and metric.name in wb["samples"]:
                rows.append(judge(
                    name, metric, wa["samples"][metric.name], wb["samples"][metric.name],
                    exact and metric.name not in HOST_MEASURED,
                ))
        if exact:
            for key, value in wa["per_layer"].items():
                if key.endswith(".calls_per_req") and value != wb["per_layer"].get(key, value):
                    calls = Metric(key, "calls/req", "lower")
                    rows.append(judge(name, calls, [value], [wb["per_layer"][key]], True))
        for label, record in (("A", wa), ("B", wb)):
            if not record["correct"]:
                failed = [check for check, ok in record["checks"].items() if not ok]
                notes.append(f"{name}: {label} failed its output checks: {', '.join(failed)}")
        fail_a = wa["ops_failed"] / wa["ops_attempted"]
        fail_b = wb["ops_failed"] / wb["ops_attempted"]
        if fail_b > fail_a:
            notes.append(f"{name}: B fails more operations ({fail_b:.3g} of attempts, A {fail_a:.3g})")
    return rows, notes


def render(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<18s} {'metric':<22s} {'better':<6s} {'bound':>6s} "
        f"{'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s} {'change':>8s}  verdict"
    ]
    for row in rows:
        a = f"{row.a[1]:.6g} [{row.a[0]:.6g}, {row.a[2]:.6g}]"
        b = f"{row.b[1]:.6g} [{row.b[0]:.6g}, {row.b[2]:.6g}]"
        lines.append(
            f"{row.workload:<18s} {row.metric:<22s} {row.better:<6s} {row.bound:>6.2f} "
            f"{a:>38s} {b:>38s} {row.change:>+8.2%}  {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger.compare", description=__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    rows, notes = compare(a, b)
    print(render(rows))
    print(f"exact mode (same code, seed and scale): {'on' if same_code(a, b) else 'off'}")
    for note in notes:
        print(f"FAIL {note}")
    counts = {v: sum(row.verdict == v for row in rows) for v in ("same", "better", "worse", "unresolved")}
    print("  ".join(f"{verdict}: {count}" for verdict, count in counts.items()))
    return 1 if counts["worse"] or notes else 0


if __name__ == "__main__":
    sys.exit(main())
