"""Layer bucketing and caller-edge attribution on a synthetic pstats table."""

from collections import namedtuple

import pytest

from ledger.spec import LAYERS
from ledger.trace import attribute, layer_metrics, layer_of, layer_table, profiled

SIM = ("/x/src/repro/sim/loop.py", 10, "run_until")
NET = ("/x/src/repro/net/network.py", 20, "send")
ANALYSIS = ("/x/src/repro/analysis/engine.py", 5, "lint")
LOGNORM = ("/usr/lib/python3.11/random.py", 603, "lognormvariate")
MATH_LOG = ("~", 0, "<built-in method math.log>")
RANDOM = ("~", 0, "<method 'random' of '_random.Random' objects>")
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")
LEN = ("~", 0, "<built-in method builtins.len>")
DEQUE = ("/usr/lib/python3.11/collections/__init__.py", 1, "helper")
ROOT = ("/x/ledger/measure.py", 62, "_run")
DISABLE = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def edge(calls, self_s):
    return (calls, calls, self_s, self_s)


def entry(calls, self_s, callers):
    return (calls, calls, self_s, self_s, callers)


TABLE = {
    ROOT: entry(1, 0.5, {}),
    SIM: entry(100, 2.0, {ROOT: edge(100, 2.0)}),
    NET: entry(300, 1.0, {SIM: edge(300, 1.0)}),
    LOGNORM: entry(300, 0.3, {NET: edge(300, 0.3)}),
    MATH_LOG: entry(300, 0.1, {LOGNORM: edge(300, 0.1)}),
    RANDOM: entry(400, 0.1, {LOGNORM: edge(400, 0.1)}),
    HEAPPOP: entry(100, 0.4, {SIM: edge(100, 0.4)}),
    # len() is called from two layers: 3/4 of the calls but 1/2 of the time from sim.
    LEN: entry(400, 0.2, {SIM: edge(300, 0.1), NET: edge(100, 0.1)}),
    # a stdlib helper between net and a builtin: charged through two edges.
    DEQUE: entry(50, 0.2, {NET: edge(50, 0.2)}),
    DISABLE: entry(1, 0.0, {}),
}
TABLE[HEAPPOP][4][DEQUE] = edge(0, 0.0)  # an edge that never fired


def test_layer_of_buckets_by_package_and_rng():
    assert layer_of(SIM) == "sim"
    assert layer_of(NET) == "net"
    assert layer_of(ANALYSIS) == "other"  # a repro package that is not a layer
    assert layer_of(LOGNORM) == layer_of(MATH_LOG) == layer_of(RANDOM) == "rng"
    assert layer_of(HEAPPOP) is None and layer_of(ROOT) is None


def test_builtins_are_charged_to_the_nearest_layered_caller():
    layers = attribute(TABLE)
    assert layers["sim"]["self_s"] == pytest.approx(2.0 + 0.4 + 0.1)
    assert layers["net"]["self_s"] == pytest.approx(1.0 + 0.1 + 0.2)
    assert layers["rng"]["self_s"] == pytest.approx(0.3 + 0.1 + 0.1)
    assert layers["other"]["self_s"] == pytest.approx(0.5)  # the ledger's own frame
    # Calls split by edge call counts, which are exact integers.
    assert layers["sim"]["calls"] == 100 + 100 + 300
    assert layers["net"]["calls"] == 300 + 100 + 50
    assert layers["rng"]["calls"] == 300 + 300 + 400
    assert layers["other"]["calls"] == 2
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(
        sum(row[2] for row in TABLE.values())
    )


def test_unlayered_chain_is_charged_through_its_callers():
    table = dict(TABLE)
    via_helper = ("~", 0, "<built-in method builtins.sorted>")
    table[via_helper] = entry(10, 0.05, {DEQUE: edge(10, 0.05)})
    layers = attribute(table)
    assert layers["net"]["self_s"] == pytest.approx(1.3 + 0.05)
    assert layers["net"]["calls"] == 450 + 10


def test_layer_metrics_and_table():
    layers = attribute(TABLE)
    metrics = layer_metrics(layers, commands=100)
    assert set(metrics) == {f"{layer}.{kind}" for layer in LAYERS
                            for kind in ("self_share", "calls_per_req")} | {"trace.calls_per_req"}
    assert sum(metrics[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(1.0)
    assert metrics["sim.calls_per_req"] == 5.0
    assert metrics["trace.calls_per_req"] == sum(row[1] for row in TABLE.values()) / 100
    table = layer_table(layers, top=2)
    assert [f["function"] for f in table["sim"]["top"]] == [
        "run_until", "<built-in method _heapq.heappop>"
    ]
    assert table["sim"]["top"][1]["charged"] is True
    assert table["population"]["top"] == []


def test_attribution_does_not_depend_on_table_order_or_addresses():
    moved = ("~", 0, "<function Random.seed at 0x7f0000000001>")
    again = ("~", 0, "<function Random.seed at 0x7f0000000999>")
    first = {**TABLE, moved: entry(3, 0.01, {NET: edge(3, 0.01)})}
    second = dict(reversed(list(TABLE.items())))
    second[again] = entry(3, 0.01, {NET: edge(3, 0.01)})
    assert layer_metrics(attribute(first), 7) == layer_metrics(attribute(second), 7)


def test_code_objects_sharing_a_key_are_summed_not_overwritten():
    """Every namedtuple's __new__ is ``<string>:1 <lambda>``; pstats keeps one."""
    first, second = namedtuple("first", "x"), namedtuple("second", "y")

    def build():
        return [first(1) for _ in range(3)] + [second(2) for _ in range(5)]

    _, table = profiled(build)
    (key,) = [func for func in table if func[0] == "<string>" and func[2] == "<lambda>"]
    assert table[key][1] == 8
    assert sum(edge[0] for edge in table[key][4].values()) == 8
