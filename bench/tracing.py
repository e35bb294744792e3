"""Outside-in instrumentation of the program's layers.

Nothing here edits the program.  At run time the benchmark replaces
public functions of each layer with thin wrappers that read
``time.perf_counter_ns`` on entry and exit, and puts the originals back
afterwards.  Two sets of wrappers exist:

* **block hooks** (:func:`install_block_hooks`) time whole blocks: from
  ``SenderService.submit_block`` entry for block ``b`` to
  ``ReceiverPool.wait_block(b)`` return on the serve path, and from one
  ``StreamSender.send_block`` entry to the next on the offline trial
  path.  With them, an untraced unit times a short reference slice
  (:func:`reference_slice_ns`) as each block opens, so every latency
  can be read against the machine's speed at that moment.  They are
  the only instrumentation of an untraced run.
* **span wrappers** (:func:`install_tracing`) record one span per call
  into a layer: name, start, end, parent span and the block it served.
  Every wrapped function is synchronous, so on the single asyncio
  thread spans nest strictly and the innermost open span is the parent.

A layer's *self time* is its spans' durations minus the part covered by
their child spans (:func:`self_times`).  The session itself is the root
span (``serve.loop`` or ``simulation.loop``), so its self time is the
residual no layer claims: the event loop, queues, barrier and trial
loop bookkeeping.

This module imports no part of the program at import time; targets are
resolved by name when installed, and a target that no longer exists is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import hashlib
import importlib
import struct
import time
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

__all__ = [
    "LAYERS", "RESIDUALS", "TARGETS", "Target", "Probe", "Patcher",
    "install_block_hooks", "install_tracing", "self_times",
    "per_layer_metric_names", "reference_slice_ns",
]

#: Layers named by module, in report order.
LAYERS = (
    "crypto.sign",
    "crypto.verify",
    "crypto.batch",
    "schemes.make_block",
    "packets.encode",
    "packets.decode",
    "simulation.ingest",
    "simulation.finish_block",
    "serve.close_block",
    "serve.control",
    "network.transmit",
    "faults.transmit",
    "topology.transmit",
    "serve.adaptive",
    "design.optimize",
    "obs.health",
    "obs.lifecycle",
    "obs.timeseries",
)

#: Root spans: the serve session and the offline repetition.
RESIDUALS = ("serve.loop", "simulation.loop")


class Target(NamedTuple):
    """One public function whose calls count as work of ``layer``.

    ``path`` is ``Class.method`` or a module-level name, looked up in
    ``module`` at install time.  With ``subclasses`` every subclass that
    defines the method itself is wrapped too.  A call made while the
    innermost open span belongs to a layer in ``absorb`` (or to the
    same layer) opens no span of its own: its time stays with the
    caller.
    """

    layer: str
    module: str
    path: str
    absorb: Tuple[str, ...] = ()
    subclasses: bool = False


TARGETS: Tuple[Target, ...] = (
    # The HMAC stand-in verifies by recomputing the tag through sign();
    # that call is verification work.
    Target("crypto.sign", "repro.crypto.signatures", "HmacStubSigner.sign",
           absorb=("crypto.verify",)),
    Target("crypto.sign", "repro.crypto.signatures", "RsaSigner.sign",
           absorb=("crypto.verify",)),
    Target("crypto.verify", "repro.crypto.signatures",
           "HmacStubSigner.verify"),
    Target("crypto.verify", "repro.crypto.signatures", "RsaSigner.verify"),
    Target("crypto.batch", "repro.crypto.batch", "BatchSigner.flush"),
    Target("crypto.batch", "repro.crypto.batch", "BatchVerifier.verify"),
    Target("schemes.make_block", "repro.schemes", "Scheme.make_block",
           subclasses=True),
    Target("packets.encode", "repro.packets", "Packet.to_wire"),
    # Patched where it is looked up, not where it is defined.
    Target("packets.decode", "repro.simulation.receiver", "packet_from_wire"),
    Target("simulation.ingest", "repro.simulation.receiver",
           "ChainReceiver.ingest"),
    Target("simulation.ingest", "repro.simulation.receiver",
           "ChainReceiver.receive"),
    Target("simulation.finish_block", "repro.simulation.stream_receiver",
           "StreamReceiver.finish_block"),
    Target("serve.close_block", "repro.serve.receiver",
           "ReceiverSession.close_block"),
    Target("serve.control", "repro.serve.sender", "encode_control"),
    Target("serve.control", "repro.serve.receiver", "decode_control"),
    Target("network.transmit", "repro.network.channel", "Channel.transmit"),
    Target("faults.transmit", "repro.faults.channel",
           "AdversarialChannel.transmit_wire"),
    Target("topology.transmit", "repro.topology.channel",
           "TopologyChannel.transmit"),
    Target("serve.adaptive", "repro.serve.adaptive",
           "AdaptiveController.observe"),
    Target("serve.adaptive", "repro.serve.adaptive",
           "AdaptiveController.request_refresh"),
    Target("design.optimize", "repro.serve.adaptive", "optimize_emss"),
    Target("design.optimize", "repro.serve.adaptive", "optimize_ac"),
    Target("design.optimize", "repro.design.service", "DesignService.lookup"),
    Target("obs.health", "repro.obs.health", "HealthMonitor.observe_slo"),
    Target("obs.health", "repro.obs.health", "HealthMonitor.observe_envelope"),
    Target("obs.health", "repro.obs.health",
           "HealthMonitor.observe_sentinels"),
    Target("obs.lifecycle", "repro.obs.lifecycle", "LifecycleTracer.record"),
    Target("obs.timeseries", "repro.obs.timeseries",
           "TimeseriesSampler.record"),
)

#: Per-layer metrics other than ``<layer>.{self_s,calls,share}``.
EXTRA_METRICS = (
    ("serve.transport.wait_ms_p50", "ms", "lower"),
    ("serve.transport.wait_ms_p95", "ms", "lower"),
    ("serve.barrier.wait_ms_p50", "ms", "lower"),
    ("serve.barrier.wait_ms_p95", "ms", "lower"),
    ("serve.transport.queue_drops", "count", "lower"),
    ("simulation.ingest.verified_ratio", "ratio", "higher"),
    ("simulation.ingest.rejects", "count", "higher"),
    ("crypto.batch.cache_hit_ratio", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
)


def per_layer_metric_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s", "lower"))
        names.append((f"{layer}.calls", "count", "lower"))
        names.append((f"{layer}.share", "ratio", "lower"))
    for residual in RESIDUALS:
        names.append((f"{residual}.self_s", "s", "lower"))
        names.append((f"{residual}.share", "ratio", "lower"))
    names.extend(EXTRA_METRICS)
    return names


# ---------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------

class Patcher:
    """Replaces attributes and puts every one of them back on restore.

    All originals are read before the first replacement, so wrapping a
    subclass and its base in one batch never wraps a wrapper.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []
        self.missing: List[str] = []

    def apply(self, patches: Sequence[Tuple[object, str, Callable]]) -> None:
        """``patches`` holds ``(owner, attribute, make_wrapper)`` triples."""
        resolved = [(owner, attr, make, getattr(owner, attr))
                    for owner, attr, make in patches]
        for owner, attr, make, original in resolved:
            own = vars(owner)
            self._undo.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attr, had_own, saved = self._undo.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)


def _resolve(target: Target) -> List[Tuple[object, str]]:
    """``(owner, attribute)`` pairs for one target; raises if it is gone."""
    owner = importlib.import_module(target.module)
    *owner_path, attr = target.path.split(".")
    for name in owner_path:
        owner = getattr(owner, name)
    getattr(owner, attr)
    found = [(owner, attr)]
    if target.subclasses:
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                found.append((cls, attr))
    return found


# ---------------------------------------------------------------------
# The probe: everything the wrappers record
# ---------------------------------------------------------------------

#: ``(name, start_ns, end_ns, parent, block)``; a root span has parent
#: and block -1.
Span = Tuple[str, int, int, int, int]

#: Interpreter iterations and big-integer exponentiations of one
#: reference slice; the two halves take about equally long.
REFERENCE_ITERATIONS = 150
REFERENCE_POWERS = 3
_MODULUS = (1 << 1023) + 12345678910111213
_BASE = (1 << 1000) + 987654321


def reference_slice_ns() -> int:
    """Time of one fixed slice of work (about 0.3 ms): the machine's speed now.

    It mixes the two kinds of work the program leans on: interpreter
    work (bytecode, tuples, dicts, ``struct`` packing, SHA-256 of short
    messages, byte slicing) and big-integer modular exponentiation, as
    RSA signing and verification do.  A co-tenant slows the two by
    different amounts, so a slice of only one kind would track one kind
    of workload.  On a shared machine the unit under test and the slice
    slow down together, so the ratio of the two is steadier than either.
    """
    digest = hashlib.sha256
    table = {}
    total = 0
    start = time.perf_counter_ns()
    for index in range(REFERENCE_ITERATIONS):
        blob = struct.pack(">II", index, index ^ 0x5A5A) + b"\x00" * 8
        hashed = digest(blob).digest()
        table[(index % 97, index & 0xFF)] = hashed[:4]
        total += len(table) + hashed[0]
    value = _BASE
    for _ in range(REFERENCE_POWERS):
        value = pow(value, 65537, _MODULUS)
    return time.perf_counter_ns() - start


class Probe:
    """Timings the wrappers record for the unit in progress.

    A block's latency runs from :meth:`open_block` to
    :meth:`close_block`.  With slicing on, a reference slice runs at
    every :meth:`open_block` and at :meth:`finish`; ``latency_slices[i]``
    is the ``(first, last)`` index range of the slices taken from the
    block's open to the first one after its close, so a block that stays
    open across others (batch signing) is judged by every slice during
    it.  Slice time is left out of every latency and summed in
    ``slice_total_ns`` for the unit to leave out of its wall time.
    """

    def __init__(self) -> None:
        self.slicing = False
        self.block = 0
        self.latencies_ns: List[int] = []
        self.latency_slices: List[Tuple[int, int]] = []
        self.slices_ns: List[int] = []
        self.slice_total_ns = 0
        self.barrier_ns: List[int] = []
        self.transport_ns: List[int] = []
        self.spans: List[Optional[Span]] = []
        self.stack: List[Tuple[str, int]] = []
        self.receivers: List[object] = []
        self.batch_verifiers: List[object] = []
        self._open: Dict[object, Tuple[int, int, int]] = {}
        self._enqueued: Dict[int, int] = {}

    def reset(self, slicing: bool = False) -> None:
        """Forget the last unit's records; slice the next one if asked."""
        self.block = 0
        for records in (self.latencies_ns, self.latency_slices,
                        self.slices_ns, self.barrier_ns, self.transport_ns,
                        self.spans, self.stack, self.receivers,
                        self.batch_verifiers):
            records.clear()
        self._open.clear()
        self._enqueued.clear()
        self.slice_total_ns = 0
        self.slicing = slicing

    def _slice(self) -> None:
        if self.slicing:
            start = time.perf_counter_ns()
            self.slices_ns.append(reference_slice_ns())
            self.slice_total_ns += time.perf_counter_ns() - start

    def open_block(self, key) -> None:
        """Start timing the block ``key``."""
        self._slice()
        self._open[key] = (time.perf_counter_ns(), self.slice_total_ns,
                           len(self.slices_ns) - 1)

    def close_block(self, key) -> None:
        """Record the latency of the block ``key``."""
        start, sliced, first = self._open.pop(key)
        self.latencies_ns.append(time.perf_counter_ns() - start
                                 - (self.slice_total_ns - sliced))
        self.latency_slices.append((first, len(self.slices_ns)))

    def end_trial(self) -> None:
        """Close the open offline trial, if any."""
        if "trial" in self._open:
            self.close_block("trial")

    def finish(self) -> None:
        """The unit's last slice, after its last block closed."""
        self._slice()

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """The session's root span; its self time is the residual."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append((name, index))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, start, end, -1, -1)

    # -- wrappers ------------------------------------------------------

    def span_wrapper(self, layer: str, absorb: Sequence[str],
                     fn: Callable) -> Callable:
        """``fn`` with a span around each call (see :class:`Target`)."""
        spans = self.spans
        stack = self.stack
        skip = frozenset(absorb) | {layer}
        clock = time.perf_counter_ns
        probe = self

        def timed(*args, **kwargs):
            if stack:
                top, parent = stack[-1]
                if top in skip:
                    return fn(*args, **kwargs)
            else:
                parent = -1
            index = len(spans)
            spans.append(None)
            stack.append((layer, index))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, probe.block)

        return timed


def install_block_hooks(probe: Probe) -> Patcher:
    """Per-block wall-clock hooks; the untraced run's only instrumentation.

    Serve blocks run from ``SenderService.submit_block`` entry to
    ``ReceiverPool.wait_block`` return; an offline trial runs from one
    ``StreamSender.send_block`` entry to the next (the workload closes
    the last one when its Monte Carlo function returns).
    """
    from repro.serve.receiver import ReceiverPool
    from repro.serve.sender import SenderService
    from repro.simulation.sender import StreamSender

    clock = time.perf_counter_ns

    def submit_hook(original):
        async def submit_block(sender, *args, **kwargs):
            probe.block = sender.next_block_id
            probe.open_block(probe.block)
            return await original(sender, *args, **kwargs)
        return submit_block

    def wait_hook(original):
        async def wait_block(pool, block_id):
            start = clock()
            reports = await original(pool, block_id)
            probe.barrier_ns.append(clock() - start)
            probe.close_block(block_id)
            return reports
        return wait_block

    def trial_hook(original):
        def send_block(sender, *args, **kwargs):
            probe.end_trial()
            probe.block = len(probe.latencies_ns)
            probe.open_block("trial")
            return original(sender, *args, **kwargs)
        return send_block

    patcher = Patcher()
    patcher.apply([(SenderService, "submit_block", submit_hook),
                   (ReceiverPool, "wait_block", wait_hook),
                   (StreamSender, "send_block", trial_hook)])
    return patcher


def install_tracing(probe: Probe,
                    targets: Sequence[Target] = TARGETS) -> Patcher:
    """Span wrappers on every target, plus queue-wait and instance hooks.

    Targets that cannot be found land in ``patcher.missing`` as
    ``"layer: module.path"`` and are skipped.
    """
    patcher = Patcher()
    patches = []
    for target in targets:
        try:
            owners = _resolve(target)
        except (ImportError, AttributeError):
            patcher.missing.append(
                f"{target.layer}: {target.module}.{target.path}")
            continue
        for owner, attr in owners:
            patches.append((owner, attr,
                            lambda fn, t=target: probe.span_wrapper(
                                t.layer, t.absorb, fn)))

    from repro.crypto.batch import BatchVerifier
    from repro.serve.transport import LocalTransport
    from repro.simulation.receiver import ChainReceiver

    clock = time.perf_counter_ns
    enqueued = probe._enqueued

    def send_hook(original):
        async def send(transport, receiver_id, deliveries):
            now = clock()
            for delivery in deliveries:
                enqueued[id(delivery)] = now
            return await original(transport, receiver_id, deliveries)
        return send

    def subscribe_hook(original):
        async def subscribe(transport, receiver_id):
            async for delivery in original(transport, receiver_id):
                sent = enqueued.pop(id(delivery), None)
                if sent is not None:
                    probe.transport_ns.append(clock() - sent)
                yield delivery
        return subscribe

    def collect_hook(instances):
        def make(original):
            def __init__(self, *args, **kwargs):
                original(self, *args, **kwargs)
                instances.append(self)
            return __init__
        return make

    patches += [(LocalTransport, "send", send_hook),
                (LocalTransport, "subscribe", subscribe_hook),
                (ChainReceiver, "__init__", collect_hook(probe.receivers)),
                (BatchVerifier, "__init__",
                 collect_hook(probe.batch_verifiers))]
    patcher.apply(patches)
    return patcher


def self_times(spans: Sequence[Span]
               ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-layer self time (ns) and span count from a closed span list.

    A span's self time is its duration minus the durations of its
    direct children; children of one parent never overlap, because
    every traced function is synchronous.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _block in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for index, (name, start, end, _parent, _block) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + (end - start) - covered[index]
        calls[name] = calls.get(name, 0) + 1
    return self_ns, calls
