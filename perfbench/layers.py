"""Per-layer self time, measured from outside the program.

The traced run replaces a fixed list of module entry points with timing
wrappers (:data:`TARGETS`), runs the workload, and restores them. Each
wrapped call is a span; a span's *self time* is its duration minus the
durations of the wrapped calls nested inside it, so every nanosecond is
charged to exactly one layer. Garbage collections are timed through
``gc.callbacks`` as a layer of their own, ``gc``, and taken out of the
span they interrupt, which would otherwise be charged for them. What
no wrapper covers (asyncio internals, timers, the simulator's event
loop) is the ``other`` row: process CPU minus the sum of all self
times.

Spans are kept in memory (up to ``keep``) and written out when the run
ends; the per-layer sums are accumulated as spans close, so they cover
every span even past that cap.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Optional


def _const(name: str) -> Callable:
    return lambda args: name


def _handler(args) -> str:
    # Node._process(self, packet): keyed by receiver class and payload.
    node, packet = args[0], args[1]
    return f"handler.{type(node).__name__}.{type(packet.payload).__name__}"


def _len_result(args, result) -> int:
    return 0 if result is None else len(result)


#: ``(module, class or None, attribute, call counter or None, layer of
#: args, bytes of (args, result) or None)``. Module functions are
#: patched where the runtime imported them, so the runtime's calls go
#: through the wrapper.
TARGETS = [
    ("repro.runtime.asyncio_udp", None, "decode_datagram",
     None, _const("codec.decode"), None),
    ("repro.runtime.asyncio_udp", None, "encode_packet",
     "codec.frames", _const("codec.encode"), _len_result),
    ("repro.runtime.asyncio_udp", None, "encode_datagram",
     None, _const("codec.encode"), None),
    ("repro.runtime.asyncio_udp", "_NodeProtocol", "datagram_received",
     None, _const("udp.recv"), None),
    ("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "send",
     None, _const("udp.send"), None),
    ("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "fan_out",
     None, _const("udp.send"), None),
    ("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "_sendto",
     "udp.datagrams_out", _const("udp.send"), None),
    ("repro.net.network", "Network", "send",
     None, _const("net.fabric"), None),
    ("repro.net.network", "Network", "fan_out",
     None, _const("net.fabric"), None),
    ("repro.net.network", "Network", "_arrive",
     None, _const("net.fabric"), None),
    ("repro.net.endpoint", "Node", "deliver",
     None, _const("dispatch"), None),
    ("repro.net.sequencer", "MultiSequencer", "deliver",
     None, _const("dispatch"), None),
    ("repro.net.endpoint", "Node", "_process",
     "dispatch.deliveries", _handler, None),
    ("repro.net.sequencer", "MultiSequencer", "_process",
     "dispatch.deliveries", _handler, None),
    ("repro.core.client", "ErisClient", "submit",
     None, _const("handler.ErisClient.submit"), None),
    ("repro.store.procedures", "ProcedureRegistry", "execute",
     "store.executions", _const("store.execute"), None),
    ("repro.obs.trace", "Tracer", "record",
     "obs.records", _const("obs.record"), None),
    ("repro.obs.trace", "Tracer", "packet_send",
     None, _const("obs.record"), None),
    ("repro.obs.trace", "Tracer", "packet_tx",
     None, _const("obs.record"), None),
    ("repro.obs.trace", "Tracer", "packet_deliver",
     None, _const("obs.record"), None),
]


class SpanProfiler:
    """Stack-based self-time accounting over wrapped calls."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep: int = 200_000):
        self.clock = clock
        self.keep = keep
        self.enabled = False
        #: layer -> self time in ns.
        self.self_ns: dict[str, int] = defaultdict(int)
        #: counter name -> calls / bytes.
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        #: ``(span id, parent id or 0, layer, start ns, end ns)``.
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self._gc_start = 0
        #: Targets that no longer exist in the program.
        self.missing: list[str] = []

    # -- wrapping -------------------------------------------------------
    def wrap(self, fn: Callable, layer_of: Callable,
             counter: Optional[str] = None,
             size_of: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span of layer ``layer_of(args)``."""
        stack = self._stack
        clock = self.clock

        def timed(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            layer = layer_of(args)
            self._next_id += 1
            parent = stack[-1][2] if stack else 0
            frame = [clock(), 0, self._next_id]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                self.self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if counter is not None:
                    self.calls[counter] += 1
                    if size_of is not None:
                        self.bytes[counter] += size_of(args, result)
                if len(self.spans) < self.keep:
                    self.spans.append((frame[2], parent, layer,
                                       frame[0], end))
                else:
                    self.spans_dropped += 1
        return timed

    def install(self, targets=TARGETS) -> None:
        """Patch every target that exists; record the ones that do not."""
        for module_name, cls_name, attr, counter, layer_of, size_of \
                in targets:
            label = ".".join(p for p in (module_name, cls_name, attr) if p)
            try:
                owner = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr] if cls_name is not None \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            setattr(owner, attr,
                    self.wrap(original, layer_of, counter, size_of))
            self._patched.append((owner, attr, original))

        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        """Charge a collection to ``gc`` rather than the open span."""
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = self.clock()
            return
        elapsed = self.clock() - self._gc_start
        self.self_ns["gc"] += elapsed
        self.calls["gc.collections"] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    # -- reporting ------------------------------------------------------
    def missing_notes(self) -> list[str]:
        return [f"WARNING: {label} no longer exists; its time is in other"
                for label in self.missing]

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (ids link parent spans)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.spans_dropped}) + "\n")
            for sid, parent, layer, start, end in self.spans:
                fh.write(json.dumps([sid, parent, layer, start, end]) + "\n")
