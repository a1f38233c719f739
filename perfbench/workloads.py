"""The three benchmark workloads: how each cluster is built and fed.

Every cluster is built through public API in its default
configuration: no wire, batching, fast-path or chain knob is passed, so
a change of default is measured by this file unedited. Only the
transaction stream depends on the benchmark's seed; the cluster's own
seed stays at its default.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.harness import ClusterConfig, build_cluster
from repro.harness.udp_smoke import build_udp_cluster, smoke_cluster_config
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import Partitioner, register_ycsb_procedures
from repro.workloads.tpcc import (
    TPCCConfig,
    TPCCWorkload,
    load_tpcc,
    register_tpcc_procedures,
    tpcc_partitioner,
)
from repro.workloads.tpcc.schema import TPCCScale
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload, load_ycsb

#: The UDP smoke key space (``build_udp_cluster``'s default).
N_KEYS = 200
#: TPC-C at the benchmarks' bench scale (benchmarks/bench_common.py).
TPCC_SCALE = TPCCScale(n_warehouses=6, districts_per_warehouse=4,
                       customers_per_district=10, n_items=60)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str                      # "udp" or "sim"
    build: Callable                   # () -> Cluster, keys loaded
    generator: Callable               # (partitioner, seed) -> next_op()
    endpoints: int                    # client endpoints
    depth: int                        # outstanding txns per endpoint
    #: Open-loop rate of the light phase, in txn per second of the
    #: runtime's clock (real seconds on UDP, simulated on sim).
    light_rate: float
    #: Most light-phase transactions that may be outstanding when an
    #: arrival fires; beyond it completions are not keeping pace.
    backlog_limit: int
    #: Whether ``op`` is one the workload's spec makes abort.
    must_abort: Callable = lambda op: False


def _mrmw_ops(partitioner, seed: int):
    return YCSBWorkload(
        YCSBConfig(workload="mrmw", n_keys=N_KEYS, distributed_fraction=0.5),
        partitioner, SplitRandom(seed))


def _tpcc_ops(partitioner, seed: int):
    return TPCCWorkload(TPCCConfig(scale=TPCC_SCALE, remote_fraction=0.10),
                        partitioner, SplitRandom(seed))


def _build_udp_tpcc():
    registry = ProcedureRegistry()
    register_tpcc_procedures(registry)
    return build_cluster(
        smoke_cluster_config(), registry, tpcc_partitioner(2),
        loader=lambda stores, p: load_tpcc(stores, p, TPCC_SCALE))


def _build_sim_mrmw():
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    return build_cluster(
        ClusterConfig(system="eris", n_shards=2, n_replicas=3),
        registry, Partitioner(2),
        loader=lambda stores, p: load_ycsb(stores, p, N_KEYS))


WORKLOADS = {w.name: w for w in (
    # Light rates sit at about a tenth of each workload's peak, below
    # the ~80 txn/s where open-loop load has set off a false sequencer
    # failover (see NOTES.md). Backlog limits sit above the most seen
    # outstanding in a healthy run (3 on UDP; 11-35 over sim-mrmw's
    # seeds 0-99).
    Workload("udp-mrmw", "udp", build_udp_cluster, _mrmw_ops,
             endpoints=2, depth=2, light_rate=40.0, backlog_limit=8),
    Workload("udp-tpcc", "udp", _build_udp_tpcc, _tpcc_ops,
             endpoints=2, depth=2, light_rate=40.0, backlog_limit=8,
             must_abort=lambda op: bool(op.args.get("invalid_item"))),
    # bench_common's saturating closed-loop client count.
    Workload("sim-mrmw", "sim", _build_sim_mrmw, _mrmw_ops,
             endpoints=220, depth=1, light_rate=65_000.0, backlog_limit=48),
)}


def op_stream(workload: Workload, partitioner, seed: int,
              prefill: int) -> Iterator:
    """The seeded transaction stream: ``prefill`` ops generated now (so
    that generation stays out of the measured windows), then more on
    demand from the same generator."""
    gen = workload.generator(partitioner, seed)
    ops = [gen.next_op() for _ in range(prefill)]
    return itertools.chain(ops, iter(gen.next_op, None))
