"""Layer attribution of one traced repeat.

The traced repeat runs under ``cProfile``; every profiled function is
bucketed by the ``repro`` package its file belongs to.  Builtins and
stdlib frames have no package, so their self time and calls are charged
to the nearest caller that has a layer, split over the profile's caller
edges (by edge self time for time, by edge call count for calls — the
second is exact, so ``calls_per_req`` repeats bit for bit).
"""

from __future__ import annotations

import cProfile
import marshal
import re
from pathlib import Path
from typing import Any, Callable, Optional

from ledger.spec import LAYERS

FuncKey = tuple[str, int, str]

_REPRO_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")
_RNG_FILE = re.compile(r"[/\\]random\.py$")
_RNG_BUILTIN = re.compile(r"_random\.Random|built-in method math\.")

# Builtin labels such as "<function Random.seed at 0x7f...>" carry an address.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")

# Indices into a pstats caller edge (nc, cc, tt, ct).
_EDGE_CALLS, _EDGE_SELF = 0, 2


def _stable(func: FuncKey) -> FuncKey:
    """Sort key that is the same in every process (float sums then repeat)."""
    return func[0], func[1], _ADDRESS.sub("", func[2])


def profiled(fn: Callable[[], Any]) -> tuple[Any, dict[FuncKey, tuple]]:
    """Run ``fn`` under cProfile; returns (its result, the pstats table)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, merged_table(profiler.getstats())


def merged_table(entries: list) -> dict[FuncKey, tuple]:
    """``{func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}`` from
    ``Profile.getstats()``, the layout of ``pstats.Stats.stats``.

    ``pstats.Stats(profiler)`` keeps only one of the code objects that
    share a (file, line, name) — every namedtuple ``__new__`` is
    ``<string>:1 <lambda>``, every dataclass ``__init__`` is
    ``<string>:2`` — and which one survives depends on memory addresses.
    Summing them keeps every call, so the counts repeat exactly.
    """
    table: dict[FuncKey, tuple] = {}
    for entry in entries:
        func = cProfile.label(entry.code)
        cc, nc, tt, ct, callers = table.get(func, (0, 0, 0.0, 0.0, {}))
        table[func] = (
            cc + entry.callcount - entry.reccallcount,
            nc + entry.callcount,
            tt + entry.inlinetime,
            ct + entry.totaltime,
            callers,
        )
    for entry in entries:
        caller = cProfile.label(entry.code)
        for sub in entry.calls or ():
            callers = table[cProfile.label(sub.code)][4]
            nc, cc, tt, ct = callers.get(caller, (0, 0, 0.0, 0.0))
            callers[caller] = (
                nc + sub.callcount,
                cc + sub.callcount - sub.reccallcount,
                tt + sub.inlinetime,
                ct + sub.totaltime,
            )
    return table


def dump_pstats(table: dict[FuncKey, tuple], path: Path) -> None:
    """Write ``table`` in the file format ``pstats.Stats(path)`` loads."""
    with path.open("wb") as stream:
        marshal.dump(table, stream)


def layer_of(func: FuncKey) -> Optional[str]:
    """The layer a profiled function belongs to by itself, if any."""
    filename, _, name = func
    match = _REPRO_PACKAGE.search(filename)
    if match:
        return match.group(1) if match.group(1) in LAYERS else "other"
    if _RNG_FILE.search(filename) or (filename == "~" and _RNG_BUILTIN.search(name)):
        return "rng"
    return None


def _charge(
    func: FuncKey,
    table: dict[FuncKey, tuple],
    edge_index: int,
    memo: dict[FuncKey, dict[str, float]],
    path: frozenset[FuncKey],
) -> dict[str, float]:
    """Shares (summing to 1) of an unlayered function's cost per layer."""
    if func in memo:
        return memo[func]
    callers = table[func][4]
    total = sum(edge[edge_index] for edge in callers.values())
    if total <= 0:
        # A root frame (the ledger's own), or a function too cheap to time.
        return {"other": 1.0}
    shares: dict[str, float] = {}
    for caller, edge in sorted(callers.items(), key=lambda item: _stable(item[0])):
        weight = edge[edge_index] / total
        if not weight:
            continue
        layer = layer_of(caller)
        if layer is not None:
            parts = {layer: 1.0}
        elif caller in path or caller not in table:
            parts = {"other": 1.0}  # recursion among unlayered frames
        else:
            parts = _charge(caller, table, edge_index, memo, path | {func})
        for name, share in parts.items():
            shares[name] = shares.get(name, 0.0) + weight * share
    memo[func] = shares
    return shares


def attribute(table: dict[FuncKey, tuple]) -> dict[str, dict[str, Any]]:
    """Per layer: self seconds, calls, and its functions by self time.

    ``table`` is ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt, ct,
    {caller: (nc, cc, tt, ct)})}``.
    """
    layers: dict[str, dict[str, Any]] = {
        name: {"self_s": 0.0, "calls": 0.0, "functions": []} for name in LAYERS
    }
    time_memo: dict[FuncKey, dict[str, float]] = {}
    call_memo: dict[FuncKey, dict[str, float]] = {}
    for func in sorted(table, key=_stable):
        _, calls, self_s, _, _ = table[func]
        own = layer_of(func)
        if own is not None:
            time_shares = call_shares = {own: 1.0}
        else:
            time_shares = _charge(func, table, _EDGE_SELF, time_memo, frozenset())
            call_shares = _charge(func, table, _EDGE_CALLS, call_memo, frozenset())
        for name in time_shares.keys() | call_shares.keys():
            entry = layers[name]
            charged_s = self_s * time_shares.get(name, 0.0)
            charged_calls = calls * call_shares.get(name, 0.0)
            entry["self_s"] += charged_s
            entry["calls"] += charged_calls
            entry["functions"].append(
                {
                    "function": _ADDRESS.sub("", func[2]),
                    "where": f"{func[0]}:{func[1]}",
                    "self_s": charged_s,
                    "calls": charged_calls,
                    "charged": own is None,
                }
            )
    for entry in layers.values():
        entry["functions"].sort(key=lambda f: (-f["self_s"], f["where"], f["function"]))
    return layers


def layer_metrics(
    layers: dict[str, dict[str, Any]], commands: float
) -> dict[str, float]:
    """``<layer>.self_share`` / ``<layer>.calls_per_req`` and the total."""
    total_s = sum(entry["self_s"] for entry in layers.values())
    metrics: dict[str, float] = {}
    for name, entry in layers.items():
        metrics[f"{name}.self_share"] = entry["self_s"] / total_s if total_s else 0.0
        metrics[f"{name}.calls_per_req"] = entry["calls"] / commands
    metrics["trace.calls_per_req"] = sum(e["calls"] for e in layers.values()) / commands
    return metrics


def layer_table(layers: dict[str, dict[str, Any]], top: int = 10) -> dict[str, Any]:
    """The JSON written to ``ledger/out/<workload>.layers.json``."""
    total_s = sum(entry["self_s"] for entry in layers.values())
    return {
        name: {
            "self_s": entry["self_s"],
            "self_share": entry["self_s"] / total_s if total_s else 0.0,
            "calls": entry["calls"],
            "top": entry["functions"][:top],
        }
        for name, entry in layers.items()
    }
