"""Tests of the benchmark's own code: statistics, load generators and
the self-time arithmetic. Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import heapq
import itertools
import sys
import types

import pytest

from layers import SpanProfiler
from loadgen import (
    ClosedLoop,
    OpenLoop,
    nearest_rank,
    poisson_arrivals,
    tail,
)


class FakeRuntime:
    """Just the clock and ``call_at`` the generators use."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = itertools.count()

    def call_at(self, time, fn, *args):
        heapq.heappush(self._queue, (time, next(self._seq), fn, args))

    def run(self):
        while self._queue:
            time, _, fn, args = heapq.heappop(self._queue)
            self.now = max(self.now, time)
            fn(*args)


class FakeClient:
    """Holds every callback until the test resolves it."""

    def __init__(self):
        self.node = types.SimpleNamespace(max_retries=100)
        self.waiting = []

    def submit(self, op, done):
        self.waiting.append((op, done))

    def finish(self, committed=True, retries=0):
        op, done = self.waiting.pop(0)
        done(types.SimpleNamespace(committed=committed, retries=retries))

    def give_up(self):
        self.finish(committed=False, retries=self.node.max_retries + 1)


# -- percentiles -------------------------------------------------------------

def test_nearest_rank():
    values = list(range(1, 11))
    assert nearest_rank(values, 0) == 1
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_tail_keeps_ten_samples_beyond():
    big = list(range(1, 2001))
    assert tail(big) == (99.0, 1980)
    # 1000 samples is the smallest sample where p99 leaves 10 beyond.
    assert tail(list(range(1, 1001))) == (99.0, 990)
    pct, value = tail(list(range(1, 1000)))
    assert value == 989 and pct == pytest.approx(100 * 989 / 999)
    pct, value = tail(list(range(1, 101)))
    assert (pct, value) == (90.0, 90)
    assert len([v for v in range(1, 101) if v > value]) == 10
    # Too few samples for any percentile with 10 beyond: the maximum.
    assert tail([1, 2, 3]) == (100.0, 3)


# -- open-loop schedule ------------------------------------------------------

def test_poisson_schedule_is_seeded():
    a = poisson_arrivals(7, rate=40.0, duration=60.0)
    assert a == poisson_arrivals(7, rate=40.0, duration=60.0)
    assert a != poisson_arrivals(8, rate=40.0, duration=60.0)
    assert all(0 <= x < 60.0 for x in a)
    assert a == sorted(a)
    assert 2000 < len(a) < 2800


def test_open_loop_fires_on_its_schedule_round_robin():
    def due_times(seed):
        runtime = FakeRuntime()
        clients = [FakeClient(), FakeClient()]
        gen = OpenLoop(runtime, clients, itertools.count(), rate=50.0,
                       duration=2.0, seed=seed)
        fired = []
        original = gen._fire
        gen._fire = lambda i, due: (fired.append(due), original(i, due))
        gen.start()
        runtime.run()
        return fired, clients, gen

    fired, clients, gen = due_times(3)
    assert fired == [gen.origin + x for x in gen.offsets]
    assert fired == due_times(3)[0]
    assert len(clients[0].waiting) - len(clients[1].waiting) in (0, 1)
    assert gen.lateness == [0.0] * len(fired)
    assert gen.out.attempted == len(fired)


def test_backlog_that_drains_still_fails_the_pace_check():
    runtime = FakeRuntime()
    client = FakeClient()
    gen = OpenLoop(runtime, [client], itertools.count(), rate=50.0,
                   duration=2.0, seed=3, backlog_limit=4)
    gen.start()
    # Nothing completes for the first ten arrivals, then all of them do:
    # the backlog is gone by the last arrival, but it was 10 on the way.
    fired = 0
    while runtime._queue:
        _, _, fn, args = heapq.heappop(runtime._queue)
        fn(*args)
        fired += 1
        if fired >= 10:
            while client.waiting:
                client.finish()
    assert gen.out.pending == 0
    assert gen.max_backlog >= 9
    assert not gen.keeps_pace


# -- failure accounting ------------------------------------------------------

def test_failures_include_transactions_still_pending():
    runtime = FakeRuntime()
    client = FakeClient()
    gen = ClosedLoop(runtime, [client], itertools.count(), depth=3)
    gen.start()
    gen.stop()
    client.finish(committed=True)
    client.give_up()
    assert gen.out.committed == 1 and gen.out.timedout == 1
    assert gen.out.aborted == 0
    # The third transaction never completed: it is a failure too.
    assert gen.out.pending == 1
    assert gen.out.failed == 2


def test_spec_violations_are_recorded():
    runtime = FakeRuntime()
    client = FakeClient()
    ops = [types.SimpleNamespace(proc=f"p{i}") for i in (1, 2, 3)]
    gen = ClosedLoop(runtime, [client], iter(ops), depth=1,
                     must_abort=lambda op: op.proc == "p2")
    gen.start()
    client.finish(committed=True)     # op 1 commits: fine
    client.finish(committed=True)     # op 2 must abort
    gen.stop()
    client.finish(committed=False)    # op 3 must commit
    assert gen.out.unexpected == [("p2", True), ("p3", False)]
    assert gen.out.aborted == 1 and gen.out.failed == 0


# -- self time ---------------------------------------------------------------

def test_self_time_of_nested_spans():
    # Clock reads in call order: outer starts at 0, inner runs 10-15,
    # leaf 40-50, inner again 60-65, outer ends at 100.
    ticks = iter([0, 10, 15, 40, 50, 60, 65, 100])
    profiler = SpanProfiler(clock=lambda: next(ticks))
    profiler.enabled = True
    inner = profiler.wrap(lambda: None, lambda a: "inner", counter="inner")
    leaf = profiler.wrap(lambda: None, lambda a: "leaf")

    def body():
        inner()
        leaf()
        inner()

    profiler.wrap(body, lambda a: "outer")()
    assert profiler.self_ns == {"inner": 10, "leaf": 10, "outer": 80}
    assert sum(profiler.self_ns.values()) == 100
    assert profiler.calls["inner"] == 2
    outer_id = next(s[0] for s in profiler.spans if s[2] == "outer")
    parents = {sid: parent for sid, parent, *_ in profiler.spans}
    assert parents.pop(outer_id) == 0
    assert set(parents.values()) == {outer_id}


def test_collection_is_charged_to_gc_not_the_open_span():
    # A collection runs 20-50 inside a span that runs 0-100.
    ticks = iter([0, 20, 50, 100])
    profiler = SpanProfiler(clock=lambda: next(ticks))
    profiler.enabled = True

    def body():
        profiler._on_gc("start", {})
        profiler._on_gc("stop", {})

    profiler.wrap(body, lambda a: "span")()
    assert profiler.self_ns == {"span": 70, "gc": 30}
    assert profiler.calls["gc.collections"] == 1


def test_disabled_wrapper_is_a_pass_through():
    profiler = SpanProfiler(clock=lambda: 1 / 0)
    assert profiler.wrap(lambda x: x + 1, lambda a: "f")(1) == 2
    assert not profiler.self_ns and not profiler.spans


def test_install_patches_and_restores(monkeypatch):
    module = types.ModuleType("perfbench_fake_target")

    class Box:
        def work(self, x):
            return x * 2

    module.Box = Box
    module.helper = lambda: 7
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_work, original_helper = Box.__dict__["work"], module.helper
    profiler = SpanProfiler()
    profiler.install([
        (module.__name__, "Box", "work", "box", lambda a: "box", None),
        (module.__name__, None, "helper", None, lambda a: "h", None),
        (module.__name__, "Box", "gone", None, lambda a: "x", None),
    ])
    try:
        assert Box.__dict__["work"] is not original_work
        profiler.enabled = True
        assert Box().work(3) == 6 and module.helper() == 7
    finally:
        profiler.uninstall()
    assert Box.__dict__["work"] is original_work
    assert module.helper is original_helper
    assert profiler.calls["box"] == 1
    assert f"{module.__name__}.Box.gone" in profiler.missing


# -- output contract -----------------------------------------------------------

def test_metric_names_match_benchmark_json():
    import json
    import os

    import run
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    window = {"committed": 10, "cpu": 0.02, "wall": 0.03, "events": 100,
              "fanout": 40, "stamps": 10, "t0": 0.0, "t1": 1.0}
    result = run.Result()
    e2e = run._e2e_metrics(result, {"peak": 1.0, "light": 1.0, "setup": 1.0},
                           [1.0], [2.0], [0.1],
                           [0.001, 0.002], [0.003, 0.004])
    layer = run._layer_metrics(SpanProfiler(), window, window, result,
                               0.0, sim=False)
    for metrics, kind in ((e2e, "end_to_end"), (layer, "per_layer")):
        assert {n: u for n, (_, u) in metrics.items()} == \
            {m["name"]: m["unit"] for m in spec[kind]}


def test_e2e_metrics_are_rescaled_to_nominal_speed():
    import run
    # The host ran at half the probe's nominal speed during the peak
    # phase and a quarter during set-ups: times shrink and rates grow by
    # as much. The light phase has no reading and stays as measured.
    m = run._e2e_metrics(run.Result(), {"peak": 2.0, "setup": 4.0},
                         [100.0], [300.0], [0.5], [0.004], [0.002])
    assert m["peak_txn_s"][0] == 200.0
    assert m["cpu_us_per_txn"][0] == 150.0
    assert m["peak_p50_ms"][0] == pytest.approx(2.0)
    assert m["light_p50_ms"][0] == pytest.approx(2.0)
    assert m["setup_s"][0] == 0.125


def test_layer_table_closes_to_process_cpu():
    import run
    window = {"committed": 10, "cpu": 0.02, "wall": 0.03, "events": 0,
              "fanout": 0, "stamps": 0, "t0": 0.0, "t1": 1.0}
    profiler = SpanProfiler()
    profiler.self_ns.update({"codec.decode": 4_000_000, "dispatch": 1_000_000,
                             "handler.ErisClient.TxnReply": 2_000_000,
                             "handler.SDNController.SequencerPong": 500_000})
    m = run._layer_metrics(profiler, window, window, run.Result(), 0.0,
                           sim=False)
    assert m["codec.decode_us_per_txn"][0] == 400.0
    assert m["handler.rest_us_per_txn"][0] == 50.0
    assert m["other.us_per_txn"][0] == pytest.approx(2000.0 - 750.0)
    assert sum(m[row][0] for row in run.TABLE_ROWS) == \
        pytest.approx(m["cpu.traced_us_per_txn"][0])
