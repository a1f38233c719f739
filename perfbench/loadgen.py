"""Load generators and the statistics the benchmark reports.

Both generators submit through :meth:`Cluster.make_client` endpoints
and schedule only through the runtime's public clock (``now``,
``call_at``), so the same code drives the asyncio-UDP backend and the
simulator. Latency is always measured on ``wall`` (``perf_counter``):
on UDP the loop clock and the wall clock advance together, and on the
simulator wall time is the CPU the simulator spent carrying the
transaction.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

def nearest_rank(sorted_values: list, q: float):
    """The nearest-rank ``q``-th percentile (``q`` in [0, 100]) of an
    ascending list: the smallest value with at least q% of the sample
    at or below it. ``q = 0`` gives the minimum."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def tail(sorted_values: list, target: float = 99.0,
         beyond: int = 10) -> tuple[float, object]:
    """``(percentile, value)`` for the highest percentile up to
    ``target`` that leaves at least ``beyond`` samples ranked above it.

    With fewer than ``beyond + 1`` samples no such percentile exists and
    the maximum is returned as percentile 100."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if n <= beyond:
        return 100.0, sorted_values[-1]
    rank = min(math.ceil(target * n / 100.0), n - beyond)
    percentile = target if rank == math.ceil(target * n / 100.0) \
        else 100.0 * rank / n
    return percentile, sorted_values[rank - 1]


def median(values: list) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def poisson_arrivals(seed, rate: float, duration: float) -> list[float]:
    """Offsets in [0, duration) of a seeded Poisson process at ``rate``
    per second. The same seed always gives the same schedule."""
    rng = random.Random(f"perfbench-open-loop/{seed}")
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


@dataclass
class Outcomes:
    """What happened to every transaction one generator submitted."""

    attempted: int = 0
    committed: int = 0
    #: Application aborts (a TPC-C invalid item), not failures.
    aborted: int = 0
    #: Transactions the client endpoint gave up on after its retries.
    timedout: int = 0
    retries: int = 0
    #: ``(completion time on the runtime clock, latency in seconds)``
    #: for every committed transaction.
    samples: list = field(default_factory=list)
    #: ``(procedure, committed)`` of outcomes the workload's spec
    #: forbids: an abort of a transaction that must commit, or the
    #: reverse.
    unexpected: list = field(default_factory=list)

    @property
    def pending(self) -> int:
        return self.attempted - self.committed - self.aborted - self.timedout

    @property
    def failed(self) -> int:
        """Timed-out transactions plus those still pending when the
        phase, grace period included, ended."""
        return self.timedout + self.pending

    def latencies(self, start: float = -math.inf, end: float = math.inf,
                  submitted_within: bool = False) -> list[float]:
        """Sorted latencies of commits completed in [start, end), with
        ``submitted_within`` only those also submitted in it (on a
        runtime whose clock runs at the rate of ``wall``)."""
        return sorted(lat for t, lat in self.samples if start <= t < end
                      and (not submitted_within or t - lat >= start))


class _Generator:
    def __init__(self, runtime, clients, ops: Iterator,
                 wall: Callable[[], float] = time.perf_counter,
                 wrap: Optional[Callable] = None,
                 must_abort: Callable = lambda op: False):
        self.runtime = runtime
        self.clients = list(clients)
        self.ops = ops
        self.wall = wall
        #: Wraps the generator's own callbacks (the traced run times
        #: them as the ``harness`` layer).
        self.wrap = wrap or (lambda fn: fn)
        self.must_abort = must_abort
        self.out = Outcomes()
        self.stopped = False

    def _submit(self, client, start: float, after=None) -> None:
        op = next(self.ops)
        self.out.attempted += 1
        client.submit(op, self.wrap(
            lambda result: self._done(client, op, start, result, after)))

    def _done(self, client, op, start: float, result, after) -> None:
        out = self.out
        out.retries += result.retries
        if result.retries > client.node.max_retries:
            # The endpoint gave up (and counted it in timedout_count).
            out.timedout += 1
        else:
            if result.committed:
                out.committed += 1
                out.samples.append((self.runtime.now, self.wall() - start))
            else:
                out.aborted += 1
            if result.committed == self.must_abort(op):
                out.unexpected.append((op.proc, result.committed))
        if after is not None:
            after(client)

    def stop(self) -> None:
        self.stopped = True


class ClosedLoop(_Generator):
    """``depth`` transactions outstanding on every client endpoint; a
    completion immediately submits the next, until :meth:`stop`."""

    def __init__(self, runtime, clients, ops: Iterator, depth: int,
                 **kwargs):
        super().__init__(runtime, clients, ops, **kwargs)
        self.depth = depth

    def start(self, stagger: float = 0.0) -> None:
        """Fill every endpoint's window; with ``stagger`` the i-th
        endpoint starts ``i * stagger`` seconds later."""
        for i, client in enumerate(self.clients):
            for _ in range(self.depth):
                if stagger:
                    self.runtime.call_at(self.runtime.now + i * stagger,
                                         self._issue, client)
                else:
                    self._issue(client)

    def _issue(self, client) -> None:
        if not self.stopped:
            self._submit(client, self.wall(), after=self._issue)


class OpenLoop(_Generator):
    """Seeded Poisson arrivals at ``rate`` per second of runtime time,
    round-robin over the client endpoints. Each arrival is scheduled at
    its due time with ``runtime.call_at``; a transaction's latency runs
    from when it was due, and how late the arrival fired is recorded.
    It keeps pace while no arrival finds more than ``backlog_limit``
    transactions of its own still outstanding."""

    def __init__(self, runtime, clients, ops: Iterator, rate: float,
                 duration: float, seed, backlog_limit: int = 8, **kwargs):
        super().__init__(runtime, clients, ops, **kwargs)
        self.offsets = poisson_arrivals(seed, rate, duration)
        self.backlog_limit = backlog_limit
        #: Seconds each arrival fired after its due time.
        self.lateness: list[float] = []
        #: Most transactions outstanding when an arrival fired.
        self.max_backlog = 0

    def start(self) -> None:
        self.origin = self.runtime.now
        self._arm(0)

    @property
    def keeps_pace(self) -> bool:
        """Whether completions kept up with the offered rate over the
        whole phase: a backlog that built up and drained again counts."""
        return self.max_backlog <= self.backlog_limit

    def _arm(self, index: int) -> None:
        if index < len(self.offsets) and not self.stopped:
            due = self.origin + self.offsets[index]
            self.runtime.call_at(due, self.wrap(self._fire), index, due)

    def _fire(self, index: int, due: float) -> None:
        late = max(0.0, self.runtime.now - due)
        self.lateness.append(late)
        self.max_backlog = max(self.max_backlog, self.out.pending)
        client = self.clients[index % len(self.clients)]
        self._submit(client, self.wall() - late)
        self._arm(index + 1)
