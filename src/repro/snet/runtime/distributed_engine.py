"""Distributed execution engine: placement combinators on real OS processes.

Distributed S-Net maps an *unchanged* logical network onto compute nodes
with two placement combinators — static placement ``A @ num`` and indexed
dynamic placement ``A !@ <tag>`` (see :mod:`repro.snet.placement`).  The
simulated runtime (:mod:`repro.dsnet.simruntime`) models that mapping in
virtual time; :class:`DistributedRuntime` *executes* it: every placement
partition runs in a real worker process ("compute node"), and records
cross partition boundaries over a pipe/socket transport using the shared
protocol-5 out-of-band data plane (:mod:`repro.snet.runtime.data_plane`).

How a network is partitioned
----------------------------

The network is annotated with :func:`~repro.snet.placement.assign_default_placement`
and split at its placement combinators:

* every ``A @ num`` subtree becomes one **static partition** executing on
  compute node ``placement_of(A @ num) % nodes``;
* every placed index split ``A !@ <tag>`` becomes a family of **dynamic
  partitions**: the replica for tag value *v* executes on node
  ``v % nodes``, instantiated lazily when *v* is first observed — exactly
  the paper's indexed placement;
* everything *not* under a placement combinator (routing ports, the
  merger's synchrocell chain, ``genImg``) runs on the coordinating parent's
  scheduler with ordinary threaded-backend semantics, so stateful
  primitives keep their single-home guarantee;
* a network with **no placement combinators at all** is wrapped in an
  implicit ``@ 0``, so the whole network executes on compute node 0 — any
  S-Net program runs distributed unchanged.

Partition templates are registered in a fork-shared registry keyed by the
**structural content hash** of the placed subtree
(:func:`~repro.snet.placement.structural_key`): two networks built twice
from the same code hash identically, so a *warm* runtime distributes any
structurally identical network — not just the exact object handed to
``setup()``.  A warm run whose partitions match no registered template
raises loudly instead of silently executing in-process.

Placement combinators *nested inside* a partition are transparent (the
outermost placement wins): a shipped subtree executes sequentially on its
node with the reference interpreter semantics
(:meth:`~repro.snet.combinators.Combinator.feed`), which the conformance
suite pins against the threaded engine.

The wire protocol
-----------------

Workers are forked (inheriting the partition-template and broadcast
registries, so unpicklable box closures and the scene never cross by
value) and speak the framed ``OPEN``/``DATA``/``EOS``/``RESULT``/``ERROR``/
``SHUTDOWN`` protocol of :mod:`repro.snet.runtime.link` over a duplex
``multiprocessing`` pipe — a Unix socket pair under the hood.

Every frame byte in either direction is accumulated in
:attr:`DistributedRuntime.bytes_pickled` — the cross-partition
bytes-on-the-wire metric the distributed benchmarks pin.

Each parent-side channel sits behind a
:class:`~repro.snet.runtime.core.StreamBridge` port of the scheduler and
gets a *forwarder* thread (batching records off the bridge's bounded input
stream); each link gets a *sender* thread (so a slow worker can never
deadlock the duplex pipe: frames queue in the parent instead of blocking
mid-send) and a *receiver* thread (demultiplexing ``RESULT`` frames onto
the channels' bridges, which hand them to the scheduler's inbox).  Worker
errors surface through the core's collector with drain-on-error
semantics, exactly like a failing box on any other backend.

Fault tolerance
---------------

Node loss is survivable, not just detectable.  The transport journals
every batch it sends on a channel (the *in-flight* ledger) together with
the count of result records already delivered downstream.  When a link
dies mid-run (pipe EOF or send failure), the work the dead node owed is
re-dispatched: the worker is respawned at its slot (or, if fork fails,
its slots are re-mapped onto a surviving node), the affected channels are
re-opened on the replacement from a **fresh template copy**, and their
full journal is replayed from the start — partitions can be stateful
(synchrocells), so replaying only the unacknowledged tail would be wrong.
Replayed results are merged idempotently: the first ``delivered`` records
of the replayed stream are skipped, and frames still arriving from the
dead link are dropped once it has been replaced, so no chunk can ever be
double-counted.  This relies on partitions being deterministic — the
S-Net box purity contract.  Respawns are budgeted per run
(``max_respawns``); when the budget is exhausted, or fault tolerance is
disabled, the dead-node error surfaces promptly and frames posted to the
dead link are counted in :attr:`DistributedRuntime.frames_dropped` rather
than vanishing.

The warm lifecycle mirrors the process engine: :meth:`DistributedRuntime.setup`
registers partitions and broadcast payloads, then forks the node workers
once; :meth:`DistributedRuntime.run` reuses them until
:meth:`DistributedRuntime.teardown`, reviving any worker that died
between jobs.  Between jobs a warm runtime is also *elastic*:
:meth:`DistributedRuntime.add_node` / :meth:`DistributedRuntime.remove_node`
grow or shrink the live node set without a teardown.  On platforms
without ``fork`` the runtime degrades to threaded in-process execution
with a :class:`RuntimeWarning`, treating every placement as transparent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import traceback
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.snet.base import Entity
from repro.snet.combinators import IndexSplit, _end, _feed
from repro.snet.errors import RuntimeError_
from repro.snet.placement import (
    StaticPlacement,
    assign_default_placement,
    iter_placement_roots,
    placement_of,
    structural_key,
)
from repro.snet.records import Record
from repro.snet.runtime.core import (
    EngineCore,
    Port,
    PortWriter,
    StreamBridge,
    Transport,
    drain_stream,
    warn_fork_degraded,
    worker_scope,
)
from repro.snet.runtime.data_plane import (
    BROADCAST_MIN_BYTES,
    dumps_records,
    loads_records,
    register_shared_inputs,
    register_shared_value,
    resolve_shared_in,
    swap_shared_out,
    unregister_shared,
)
from repro.snet.runtime.link import (
    DATA,
    EOS,
    EOS_ACK,
    ERROR,
    OPEN,
    RESULT,
    SHUTDOWN,
    PipeLink,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.snet.runtime.stream import Stream, StreamClosed, StreamWriter
from repro.snet.runtime.tracing import Tracer

__all__ = [
    "DistributedRuntime",
    "PartitionTransport",
    "DistributedWorkerError",
    "run_distributed",
]


class DistributedWorkerError(RuntimeError_):
    """A partition raised inside a node worker (message embeds the remote traceback)."""


#: partition templates visible to forked node workers, keyed by the
#: structural content hash of the placed subtree
#: (:func:`~repro.snet.placement.structural_key`) and refcounted so two
#: warm runtimes hosting structurally identical partitions can coexist.
#: Populated in the parent *before* the workers fork, like the process
#: engine's box registry; the key also rides on the placement entity as an
#: attribute so it survives ``Entity.copy`` (star unrolling copies placed
#: subtrees mid-run, long after the fork) without re-hashing.
_PARTITION_REGISTRY: Dict[str, Tuple[int, Entity]] = {}
_KEY_ATTR = "_dist_partition_key"


def _register_template(key: str, template: Entity) -> None:
    count, existing = _PARTITION_REGISTRY.get(key, (0, None))
    _PARTITION_REGISTRY[key] = (count + 1, template if existing is None else existing)


def _release_template(key: str) -> None:
    entry = _PARTITION_REGISTRY.get(key)
    if entry is None:
        return
    count, template = entry
    if count <= 1:
        _PARTITION_REGISTRY.pop(key, None)
    else:
        _PARTITION_REGISTRY[key] = (count - 1, template)


def _partition_worker_main(conn, node_index: int) -> None:
    """Entry point of one forked node worker ("compute node").

    Serves partition channels until ``SHUTDOWN`` (or the parent dies and
    the pipe reports EOF).  Each channel is a fresh copy of a fork-inherited
    partition template, executed with the sequential reference semantics —
    node-level parallelism comes from running many workers, exactly as in
    the paper's one-runtime-per-node prototype.  Because every channel
    starts from a fresh template copy and consumes its input in order, a
    replacement worker replaying a dead node's journal reproduces the
    original result stream exactly (deterministic partitions), which is
    what the parent's idempotent merge counts on.
    """
    channels: Dict[int, Entity] = {}
    dead_channels: Set[int] = set()

    def send_results(channel: int, produced: Sequence[Record]) -> None:
        if not produced:
            return
        payload, buffers, _ = dumps_records([swap_shared_out(r) for r in produced])
        send_frame(conn, encode_frame(RESULT, channel, payload=payload, buffers=buffers))

    try:
        while True:
            try:
                kind, channel, meta, payload, buffers, _ = recv_frame(conn)
            except (EOFError, OSError):
                break
            if kind == SHUTDOWN:
                break
            try:
                if kind == OPEN:
                    entry = _PARTITION_REGISTRY.get(meta)
                    if entry is None:
                        raise DistributedWorkerError(
                            f"partition template {meta} missing on compute node "
                            f"{node_index}; the distributed runtime requires "
                            "the 'fork' start method"
                        )
                    channels[channel] = entry[1].copy()
                elif kind == DATA:
                    if channel in dead_channels:
                        continue
                    entity = channels[channel]
                    produced: List[Record] = []
                    for rec in loads_records(payload, buffers):
                        produced.extend(_feed(entity, resolve_shared_in(rec)))
                    send_results(channel, produced)
                elif kind == EOS:
                    entity = channels.pop(channel, None)
                    if entity is not None and channel not in dead_channels:
                        send_results(channel, _end(entity))
                    dead_channels.discard(channel)
                    send_frame(conn, encode_frame(EOS_ACK, channel))
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                # user exceptions are not guaranteed to pickle; ship a plain
                # string with the remote traceback, like the pool engine
                dead_channels.add(channel)
                channels.pop(channel, None)
                try:
                    send_frame(
                        conn,
                        encode_frame(
                            ERROR,
                            channel,
                            meta=(
                                f"partition failed on compute node {node_index}: "
                                f"{type(exc).__name__}: {exc}\n"
                                f"{traceback.format_exc()}"
                            ),
                        ),
                    )
                except (OSError, ValueError):
                    break
    finally:
        conn.close()


class _Channel:
    """Parent-side ledger for one partition instance on the wire.

    ``journal`` holds every batch sent since ``OPEN`` (references, not
    copies) and ``delivered`` the count of result records already put on
    the output stream — together they are exactly what a replacement node
    needs to take over: replay the journal from a fresh template copy and
    skip the first ``delivered`` replayed results.  The journal is freed
    as soon as the worker acknowledges ``EOS``.  All mutable fields are
    guarded by the transport's fault lock.
    """

    __slots__ = (
        "id",
        "key",
        "node",
        "label",
        "writer",
        "journal",
        "delivered",
        "replay_skip",
        "eos_sent",
        "done",
    )

    def __init__(
        self, channel_id: int, key: str, node: int, label: str, writer: StreamWriter
    ) -> None:
        self.id = channel_id
        self.key = key
        self.node = node  # logical node: resolved to a link modulo live slots
        self.label = label
        self.writer = writer
        self.journal: List[List[Record]] = []
        self.delivered = 0
        self.replay_skip = 0
        self.eos_sent = False
        self.done = False


class _NodeLink(PipeLink):
    """Parent-side endpoint of one node worker: a pipe link plus I/O threads.

    The sender thread drains an unbounded outbox so no engine thread ever
    blocks inside ``send`` while holding a lock (a full duplex pipe with
    both sides mid-``send`` would otherwise deadlock cyclic networks); the
    receiver thread hands worker frames to the transport, which owns all
    channel state — a link knows nothing about channels, so replacing a
    dead link never orphans bookkeeping.
    """

    def __init__(self, transport: "PartitionTransport", index: int) -> None:
        super().__init__(
            functools.partial(_partition_worker_main, node_index=index),
            name=f"dsnet-node-{index}",
        )
        self.transport = transport
        self.index = index
        self._cv = threading.Condition()
        self._outbox: Deque[Optional[Sequence[bytes]]] = deque()
        #: set (under the transport's fault lock) by the first
        #: failure-handling pass so send-failure and pipe-EOF — which both
        #: fire for one death — trigger exactly one failover
        self.failure_handled = False
        self._retired = False
        self._sender: Optional[threading.Thread] = None
        self._receiver: Optional[threading.Thread] = None

    def start_io(self) -> None:
        """Start the I/O threads (after *all* node workers have forked)."""
        self._sender = threading.Thread(
            target=self._sender_loop, name=f"dist-send-{self.index}", daemon=True
        )
        self._receiver = threading.Thread(
            target=self._receiver_loop, name=f"dist-recv-{self.index}", daemon=True
        )
        self._sender.start()
        self._receiver.start()

    # -- sending -------------------------------------------------------------
    def post(self, parts: Sequence[bytes]) -> bool:
        """Queue one multipart frame for the worker (never blocks).

        Returns ``False`` — without queueing or counting wire bytes — when
        the link is already dead, so the caller can account for the
        dropped frame instead of letting it vanish.  The outbox is
        deliberately unbounded: an engine thread blocked mid-``send`` on a
        full duplex pipe can deadlock cyclic networks (the dynamic farm's
        token loop), so forward-path back-pressure is traded for deadlock
        freedom.  Real workloads self-throttle — the farm admits at most
        ``tokens`` sections at a time — and the return path keeps normal
        bounded-stream back-pressure.
        """
        with self._cv:
            if self.dead:
                return False
            self._outbox.append(parts)
            self._cv.notify()
        self.transport._count_wire(sum(len(part) for part in parts))
        return True

    def _sender_loop(self) -> None:
        while True:
            with self._cv:
                while not self._outbox:
                    self._cv.wait()
                parts = self._outbox.popleft()
            if parts is None:  # shutdown sentinel
                try:
                    send_frame(self.conn, encode_frame(SHUTDOWN, 0))
                except (OSError, ValueError):
                    pass
                return
            try:
                send_frame(self.conn, parts)
            except (OSError, ValueError) as exc:
                self.transport._handle_link_failure(
                    self, f"worker pipe closed while sending ({exc!r})"
                )
                return

    # -- receiving -----------------------------------------------------------
    def _receiver_loop(self) -> None:
        while True:
            try:
                kind, channel, meta, payload, buffers, nbytes = recv_frame(self.conn)
            except (EOFError, OSError):
                break
            self.transport._count_wire(nbytes)
            if kind == RESULT:
                self.transport._deliver(self, channel, payload, buffers)
            elif kind == EOS_ACK:
                self.transport._finish_channel(self, channel)
            elif kind == ERROR:
                self.transport._channel_error(self, channel, meta)
        self.transport._handle_link_failure(self, "worker process exited")

    def mark_dead(self) -> None:
        with self._cv:
            self.dead = True
            self._cv.notify_all()

    # -- shutdown ------------------------------------------------------------
    def retire(self) -> None:
        """Stop I/O for a link that has been replaced (idempotent, non-blocking)."""
        with self._cv:
            if self._retired:
                return
            self._retired = True
            self.dead = True
            self._outbox.append(None)
            self._cv.notify_all()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self.process.join(timeout=0.5)

    def shutdown(self) -> None:
        with self._cv:
            if not self._retired:
                self._retired = True
                self._outbox.append(None)
                self._cv.notify_all()
        if self._sender is not None:
            self._sender.join(timeout=5.0)
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self._receiver is not None:
            self._receiver.join(timeout=5.0)


class PartitionTransport(Transport):
    """Run placement partitions on forked node workers over pipe links."""

    name = "partition"

    def __init__(self) -> None:
        super().__init__()
        self._links: List[_NodeLink] = []
        self._live_keys: Set[str] = set()
        self._registered_keys: List[str] = []
        self._shared_registered: List[int] = []
        self._channel_ids = itertools.count(1)
        self._stats_lock = threading.Lock()
        self._bytes_on_wire = 0
        #: guards links, channels, journals and the failover counters; an
        #: RLock because failure handling can be re-entered from a post
        #: that itself discovered the death
        self._fault_lock = threading.RLock()
        self._channels: Dict[int, _Channel] = {}
        self._run_active = False
        self._shutting_down = False
        self._respawns_left = 0
        #: node failovers + between-job revivals performed (cumulative)
        self.recoveries = 0
        #: frames lost on a dead link with no replacement (reset per run)
        self.frames_dropped = 0
        #: partition name -> compute node (static) or "!@<tag>" (dynamic);
        #: populated by the partitioning pass, kept for introspection
        self.partition_plan: Dict[str, Any] = {}

    # -- accounting ----------------------------------------------------------
    @property
    def bytes_pickled(self) -> int:
        return self._bytes_on_wire

    def _count_wire(self, nbytes: int) -> None:
        with self._stats_lock:
            self._bytes_on_wire += nbytes

    @property
    def in_flight(self) -> Dict[str, Dict[str, Any]]:
        """Per-channel ledger snapshot: what each live partition is owed."""
        with self._fault_lock:
            return {
                ch.label: {
                    "node": ch.node,
                    "batches": len(ch.journal),
                    "records": sum(len(batch) for batch in ch.journal),
                    "delivered": ch.delivered,
                    "eos_sent": ch.eos_sent,
                }
                for ch in self._channels.values()
                if not ch.done
            }

    def _report_error(self, exc: BaseException) -> None:
        if self.runtime is not None:
            self.runtime._record_error(exc, source="distributed-link")

    def _warn_degraded(self) -> None:
        warn_fork_degraded(
            "DistributedRuntime", "placement combinators treated as transparent"
        )

    # -- partitioning --------------------------------------------------------
    def _prepare(self, network: Entity, wrap_unplaced: bool = True) -> Entity:
        """Partition ``network``: register every placement subtree pre-fork.

        Registers the operand of each placement combinator in the
        fork-shared template registry under its structural content key and
        stamps the combinator with that key (the stamp survives
        ``Entity.copy``, so replicas made by stars/splits after the fork
        still resolve their template without re-hashing).  An entirely
        unplaced network is wrapped in an implicit ``@ 0``.
        """
        roots = list(iter_placement_roots(network))
        if not roots and wrap_unplaced:
            network = StaticPlacement(network, 0, name=f"{network.name}@0")
            roots = [network]
        # annotate the whole tree (entities under a placement inherit its
        # node; entities under !@ are dynamically placed) — the inspection
        # surface placement_of()/``.placement`` readers rely on
        assign_default_placement(network, 0)
        plan: Dict[str, Any] = {}
        for root in roots:
            key = structural_key(root)
            setattr(root, _KEY_ATTR, key)
            _register_template(key, root.operand)
            self._registered_keys.append(key)
            self._live_keys.add(key)
            if isinstance(root, StaticPlacement):
                plan[root.name] = placement_of(root)
            else:
                plan[root.name] = f"!@<{root.tag}>"
        self.partition_plan = plan
        return network

    def _unregister(self) -> None:
        for key in self._registered_keys:
            _release_template(key)
        self._registered_keys.clear()
        self._live_keys.clear()

    def _resolve_key(self, entity: Entity) -> Optional[str]:
        """Structural key of a placement combinator, if it is one of ours.

        The stamp left by :meth:`_prepare` rides ``Entity.copy``; an
        unstamped combinator (a structurally identical network built
        independently and run warm) is hashed on the spot and cached.
        """
        key = getattr(entity, _KEY_ATTR, None)
        if key is None:
            key = structural_key(entity)
            try:
                setattr(entity, _KEY_ATTR, key)
            except AttributeError:  # pragma: no cover - slots-only entity
                pass
        return key if key in self._live_keys else None

    def _check_warm_network(self, network: Entity) -> None:
        """Refuse loudly when a warm run would not actually distribute.

        A warm runtime distributes any network *structurally identical* to
        the one it was set up with; anything else must not silently fall
        back to in-process execution (the PR 5 silent-fallback bug).
        """
        roots = list(iter_placement_roots(network))
        if not roots:
            warnings.warn(
                "DistributedRuntime: warm run of a network with no placement "
                "combinators (@ / !@) — it executes in-process on the "
                "coordinating node, not on the warm node workers",
                RuntimeWarning,
                stacklevel=4,
            )
            return
        assign_default_placement(network, 0)
        for root in roots:
            key = getattr(root, _KEY_ATTR, None)
            if key is None:
                key = structural_key(root)
                try:
                    setattr(root, _KEY_ATTR, key)
                except AttributeError:  # pragma: no cover - slots-only entity
                    pass
            if key not in self._live_keys:
                raise RuntimeError_(
                    f"warm DistributedRuntime: partition {root.name!r} "
                    f"(structural key {key}) matches no template registered "
                    "by setup(); a warm runtime only distributes networks "
                    "structurally identical to the one it was set up with — "
                    "call teardown() and setup() with this network to "
                    "redistribute it"
                )

    # -- link lifecycle ------------------------------------------------------
    def _fork_links(self) -> None:
        # fork every node worker before starting any I/O thread, so each
        # child inherits a quiescent parent (complete registries, no
        # frames); append one-by-one so a fork failing halfway leaves the
        # earlier links on self._links for teardown to reap
        for index in range(self.runtime.nodes):
            self._links.append(_NodeLink(self, index))
        for link in self._links:
            link.start_io()

    def _shutdown_links(self) -> None:
        with self._fault_lock:
            self._shutting_down = True
            links, self._links = self._links, []
            channels, self._channels = list(self._channels.values()), {}
            for ch in channels:
                ch.done = True
                ch.journal = []
        for ch in channels:
            ch.writer.close()
        seen: Set[int] = set()
        try:
            for link in links:
                if id(link) in seen:  # an aliased slot after a re-map
                    continue
                seen.add(id(link))
                link.shutdown()
        finally:
            with self._fault_lock:
                self._shutting_down = False

    def _revive_links(self) -> None:
        """Between jobs: respawn any node worker that died while warm.

        Also restores a dedicated worker for slots that were re-mapped
        (aliased) onto a surviving node during a mid-run failover.  With
        fault tolerance disabled this keeps the historical contract of
        refusing to run on a broken warm runtime.
        """
        retired: List[_NodeLink] = []
        with self._fault_lock:
            seen: Set[int] = set()
            stale: List[int] = []
            for i, link in enumerate(self._links):
                if link.dead or not link.process.is_alive():
                    stale.append(i)
                elif id(link) in seen:
                    stale.append(i)
                else:
                    seen.add(id(link))
            if not stale:
                return
            if not self.runtime.fault_tolerance:
                raise RuntimeError_(
                    f"distributed compute node {self._links[stale[0]].index} "
                    "is no longer alive; call teardown() and setup() to "
                    "rebuild the links (fault tolerance is disabled)"
                )
            for i in stale:
                old = self._links[i]
                fresh = _NodeLink(self, i)
                fresh.start_io()
                self._links[i] = fresh
                self.recoveries += 1
                self.runtime.tracer.record(
                    "distributed-link", "node-revived", node=i
                )
                if old.dead and all(l is not old for l in self._links):
                    retired.append(old)
        for old in retired:
            old.retire()

    # -- failover ------------------------------------------------------------
    def _replace_link(self, link: _NodeLink) -> Optional[_NodeLink]:
        """Provision a replacement for ``link`` into every slot it holds.

        Called under the fault lock.  Prefers respawning a fresh worker at
        the dead node's slot (forked now, so it inherits the current
        registries); if the fork fails, re-maps the slots onto a surviving
        node — the ``!@ <tag>`` modulo mapping then lands on the survivor
        set, exactly the paper's node-set contraction.  Returns ``None``
        when no replacement is possible (fault tolerance off, respawn
        budget spent, or nothing left alive).
        """
        if not self.runtime.fault_tolerance or self._shutting_down:
            return None
        if self._respawns_left <= 0:
            return None
        slots = [i for i, l in enumerate(self._links) if l is link]
        if not slots:
            return None
        replacement: Optional[_NodeLink] = None
        try:
            replacement = _NodeLink(self, link.index)
            replacement.start_io()
        except OSError:  # pragma: no cover - fork exhaustion
            survivors = [l for l in self._links if l is not link and not l.dead]
            if not survivors:
                return None
            replacement = survivors[slots[0] % len(survivors)]
        self._respawns_left -= 1
        for i in slots:
            self._links[i] = replacement
        self.recoveries += 1
        return replacement

    def _replay_channel(self, ch: _Channel, link: _NodeLink) -> None:
        """Re-dispatch everything a dead node owed ``ch`` (under the fault lock).

        The replacement re-opens the channel from a fresh template copy
        and replays the journal *from the start* — partitions can be
        stateful, so the prefix cannot be skipped on the sending side.
        The first ``delivered`` replayed results are skipped on receipt
        instead, which makes the merge idempotent.
        """
        ch.replay_skip = ch.delivered
        link.post(encode_frame(OPEN, ch.id, meta=ch.key))
        for batch in ch.journal:
            payload, buffers, _ = dumps_records([swap_shared_out(r) for r in batch])
            link.post(encode_frame(DATA, ch.id, payload=payload, buffers=buffers))
        if ch.eos_sent:
            link.post(encode_frame(EOS, ch.id))

    def _handle_link_failure(self, link: _NodeLink, reason: str) -> None:
        """One node worker is gone: re-dispatch its in-flight work or fail loudly.

        Entered from the link's sender (send failed) and receiver (pipe
        EOF) — ``failure_handled`` makes the two entries one failover.
        """
        closers: List[StreamWriter] = []
        error: Optional[DistributedWorkerError] = None
        retire_link = False
        with self._fault_lock:
            if link.failure_handled:
                return
            link.failure_handled = True
            link.mark_dead()
            if self._shutting_down or all(l is not link for l in self._links):
                return  # normal teardown, or a link already replaced/removed
            n = len(self._links)
            affected = [
                ch
                for ch in self._channels.values()
                if not ch.done and self._links[ch.node % n] is link
            ]
            replacement = self._replace_link(link)
            if replacement is not None:
                retire_link = True
                self.runtime.tracer.record(
                    "distributed-link",
                    "node-failover",
                    node=link.index,
                    channels=len(affected),
                    respawned=replacement.process is not link.process
                    and replacement.index == link.index,
                    reason=reason,
                )
                for ch in affected:
                    self._replay_channel(ch, replacement)
            elif affected:
                for ch in affected:
                    ch.done = True
                    ch.journal = []
                    closers.append(ch.writer)
                    self._channels.pop(ch.id, None)
                error = DistributedWorkerError(
                    f"compute node {link.index} died ({reason}) with "
                    f"{len(affected)} partition channel(s) open and no "
                    "replacement available"
                )
            # a dead link with nothing owed stays in its slot; channels
            # opening on it later trigger their own failover, and the warm
            # lifecycle revives it at the next begin_run
        for writer in closers:
            writer.close()
        if error is not None:
            self._report_error(error)
        if retire_link:
            link.retire()

    # -- frame handling (called from link receiver threads) ------------------
    def _deliver(
        self, link: _NodeLink, channel_id: int, payload: bytes, buffers: List[bytes]
    ) -> None:
        records = loads_records(payload, buffers)
        with self._fault_lock:
            ch = self._channels.get(channel_id)
            if ch is None or ch.done:
                return
            if not self._links or self._links[ch.node % len(self._links)] is not link:
                return  # stale frame from a replaced link; the replay re-produces it
            if ch.replay_skip:
                skip = min(ch.replay_skip, len(records))
                ch.replay_skip -= skip
                records = records[skip:]
            ch.delivered += len(records)
            writer = ch.writer
        try:
            for rec in records:
                writer.put(resolve_shared_in(rec))
        except StreamClosed:
            pass

    def _finish_channel(self, link: _NodeLink, channel_id: int) -> None:
        with self._fault_lock:
            ch = self._channels.get(channel_id)
            if ch is None or ch.done:
                return
            if not self._links or self._links[ch.node % len(self._links)] is not link:
                return
            ch.done = True
            ch.journal = []
            self._channels.pop(channel_id, None)
        ch.writer.close()

    def _channel_error(self, link: _NodeLink, channel_id: int, message: str) -> None:
        with self._fault_lock:
            ch = self._channels.get(channel_id)
            if ch is None or ch.done:
                return
            if not self._links or self._links[ch.node % len(self._links)] is not link:
                return  # a deterministic error will recur on the replay
            ch.done = True
            ch.journal = []
            self._channels.pop(channel_id, None)
        ch.writer.close()
        self._report_error(DistributedWorkerError(message))

    # -- outbound path -------------------------------------------------------
    def _post_data(self, ch: _Channel, batch: List[Record]) -> None:
        payload, buffers, _ = dumps_records([swap_shared_out(r) for r in batch])
        parts = encode_frame(DATA, ch.id, payload=payload, buffers=buffers)
        with self._fault_lock:
            if ch.done:
                return
            if self.runtime.fault_tolerance:
                ch.journal.append(list(batch))
            link = self._links[ch.node % len(self._links)]
        if not link.post(parts):
            self._note_dropped_frame(ch, link)

    def _post_eos(self, ch: _Channel) -> None:
        parts = encode_frame(EOS, ch.id)
        with self._fault_lock:
            if ch.done:
                return
            ch.eos_sent = True
            link = self._links[ch.node % len(self._links)]
        if not link.post(parts):
            self._note_dropped_frame(ch, link)

    def _note_dropped_frame(self, ch: _Channel, link: _NodeLink) -> None:
        """A frame hit a dead link: account for it, then force the failover.

        If a replacement takes (or already took) over, the journal replay
        covers the frame and nothing was lost; otherwise the drop counter
        records it and the failure handler surfaces the dead-node error so
        the run fails promptly instead of grinding to the deadline.
        """
        with self._fault_lock:
            if not ch.done and self._links and self._links[ch.node % len(self._links)] is link:
                self.frames_dropped += 1
        self._handle_link_failure(link, "frame posted to a dead node link")

    @property
    def worker_pids(self) -> List[int]:
        return [link.process.pid for link in self._links]

    # -- elasticity ----------------------------------------------------------
    def add_node(self) -> int:
        """Grow the warm node set by one freshly forked worker (between jobs)."""
        with self._fault_lock:
            if self._run_active:
                raise RuntimeError_(
                    "add_node() while a run is in progress; elastic resize "
                    "is only allowed between jobs"
                )
            self.runtime.nodes += 1
            if self._links:
                link = _NodeLink(self, len(self._links))
                link.start_io()
                self._links.append(link)
            return self.runtime.nodes

    def remove_node(self, index: Optional[int] = None) -> int:
        """Shrink the warm node set (between jobs); defaults to the last slot.

        Placements previously mapped to the removed slot re-map modulo the
        remaining nodes on the next run — the same contraction rule the
        failover path uses.
        """
        with self._fault_lock:
            if self._run_active:
                raise RuntimeError_(
                    "remove_node() while a run is in progress; elastic "
                    "resize is only allowed between jobs"
                )
            if self.runtime.nodes <= 1:
                raise RuntimeError_("cannot remove the last compute node")
            victim: Optional[_NodeLink] = None
            if self._links:
                slot = len(self._links) - 1 if index is None else index
                if not 0 <= slot < len(self._links):
                    raise RuntimeError_(
                        f"remove_node: no compute node at slot {slot}"
                    )
                victim = self._links.pop(slot)
                for i, link in enumerate(self._links):
                    link.index = i
            self.runtime.nodes -= 1
        if victim is not None and all(l is not victim for l in self._links):
            victim.shutdown()
        return self.runtime.nodes

    # -- warm lifecycle ------------------------------------------------------
    def setup(self, network: Optional[Entity], broadcast: Sequence[Any] = ()) -> None:
        runtime = self.runtime
        if runtime.is_warm:
            raise RuntimeError_(
                "setup() called on an already-warm DistributedRuntime; call "
                "teardown() first to rebuild the node workers"
            )
        if not runtime.fork_available():
            self._warn_degraded()
            return
        try:
            self._prepare(network, wrap_unplaced=False)
            if not self._live_keys:
                warnings.warn(
                    "DistributedRuntime.setup: the network has no placement "
                    "combinators (@ / !@); warm runs will execute in-process",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return
            if runtime.zero_copy:
                for value in broadcast:
                    register_shared_value(
                        value, self._shared_registered, runtime.BROADCAST_MIN_BYTES
                    )
            self._fork_links()
        except BaseException:
            # teardown-on-failure is unconditional: a failed setup must not
            # leak fork-shared templates, /dev/shm broadcast segments or
            # half-forked node workers
            self.teardown()
            raise

    def teardown(self) -> None:
        self._shutdown_links()
        self._unregister()
        unregister_shared(self._shared_registered)

    # -- per-run lifecycle ---------------------------------------------------
    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> Entity:
        with self._stats_lock:
            self._bytes_on_wire = 0
        runtime = self.runtime
        with self._fault_lock:
            self.frames_dropped = 0
            self._respawns_left = runtime.max_respawns
            self._run_active = True
        if runtime.is_warm:
            if self._links:
                self._revive_links()
                self._check_warm_network(network)
            return network
        if not runtime.fork_available():
            self._warn_degraded()
            return network
        network = self._prepare(network)
        if runtime.zero_copy:
            register_shared_inputs(
                inputs, self._shared_registered, runtime.BROADCAST_MIN_BYTES
            )
        self._fork_links()
        return network

    def end_run(self) -> None:
        with self._fault_lock:
            self._run_active = False
            stale = [ch for ch in self._channels.values() if not ch.done]
            for ch in stale:
                ch.done = True
                ch.journal = []
            self._channels.clear()
        for ch in stale:  # an interrupted run (deadline/error) left channels open
            ch.writer.close()
        if self.runtime.is_warm:
            return  # links and registrations persist until teardown()
        self._shutdown_links()
        self._unregister()
        unregister_shared(self._shared_registered)

    # -- compilation seam ----------------------------------------------------
    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        if not self._links or not isinstance(entity, StaticPlacement):
            return None
        key = self._resolve_key(entity)
        if key is None:
            return None
        return self._bridge_channel(key, placement_of(entity), out, entity.name)

    def compile_split_instance(
        self, entity: IndexSplit, value: int, out: PortWriter
    ) -> Optional[Port]:
        if not self._links or not entity.placed:
            return None
        key = self._resolve_key(entity)
        if key is None:
            return None
        # indexed placement: the replica for tag value v runs on node v
        return self._bridge_channel(key, value, out, f"{entity.name}-{value}")

    def claims_entity(self, entity: Entity) -> bool:
        """Mirror of :meth:`compile_entity`'s claim condition (no side effects)."""
        return (
            bool(self._links)
            and isinstance(entity, StaticPlacement)
            and self._resolve_key(entity) is not None
        )

    # -- channels ------------------------------------------------------------
    def _bridge_channel(self, key: str, node: int, out: PortWriter, label: str) -> Port:
        """Open a channel behind a :class:`StreamBridge` port of the scheduler."""
        bridge = StreamBridge(self.runtime, label, out)
        self._open_channel(key, node, bridge.in_stream, bridge, label)
        return bridge

    def _open_channel(
        self,
        key: str,
        node: int,
        in_stream: Stream,
        out_writer: StreamWriter,
        label: str,
    ) -> None:
        """Wire one partition instance to its node worker.

        Creates the channel ledger, announces the channel with ``OPEN``
        and spawns the forwarder that batches the partition's input
        records onto the wire.  A channel landing on an already-dead link
        first gets the normal failover treatment; if no replacement is
        possible the open is refused — the writer is closed (downstream
        EOS), the input drained, and the dead-node error recorded so the
        run fails promptly instead of stalling.
        """
        runtime = self.runtime
        channel_id = next(self._channel_ids)
        ch = _Channel(channel_id, key, node, label, out_writer)
        with self._fault_lock:
            link = self._links[node % len(self._links)]
        if link.dead or not link.process.is_alive():
            self._handle_link_failure(link, "found dead while opening a channel")
        with self._fault_lock:
            link = self._links[node % len(self._links)]
            if not link.dead:
                self._channels[channel_id] = ch
        if link.dead:
            self._report_error(
                DistributedWorkerError(
                    f"partition {label!r} cannot open a channel: compute node "
                    f"{link.index} is dead and no replacement is available"
                )
            )
            out_writer.close()
            runtime._spawn(
                lambda: drain_stream(in_stream), f"dist-drain-{label}-ch{channel_id}"
            )
            return
        if not link.post(encode_frame(OPEN, channel_id, meta=key)):
            self._note_dropped_frame(ch, link)
        runtime.tracer.record(label, "partition-open", node=link.index, channel=channel_id)
        chunk = runtime.chunk_size

        def forwarder() -> None:
            # the transport owns out_writer from here (closed on EOS_ACK,
            # partition error or unrecovered link death); worker_scope
            # still drains the input on error so upstream workers never
            # hang on back-pressure
            with worker_scope(in_stream, lambda: ()):
                try:
                    while True:
                        rec = in_stream.get()
                        if rec is None:
                            break
                        batch = [rec]
                        while len(batch) < chunk:
                            extra = in_stream.try_get()
                            if extra is None:
                                break
                            batch.append(extra)
                        self._post_data(ch, batch)
                finally:
                    self._post_eos(ch)

        runtime._spawn(forwarder, f"dist-fwd-{label}-ch{channel_id}")


class DistributedRuntime(EngineCore):
    """Execute an S-Net network across real node worker processes.

    Parameters
    ----------
    nodes:
        Number of compute-node worker processes.  Static placements
        ``A @ num`` map to worker ``num % nodes``; indexed placements
        ``A !@ <tag>`` map each replica to worker ``value % nodes``.
    chunk_size:
        Records per cross-partition ``DATA`` frame (forwarders batch
        greedily up to this size, never blocking to fill a batch).
    zero_copy:
        Broadcast large input-record payloads (and ``setup(broadcast=...)``
        objects) through the fork-shared registry so they cross the wire as
        tokens instead of bytes — the scene ships zero times per run.
    fault_tolerance:
        Journal in-flight batches per partition channel and, when a node
        worker dies mid-run, re-dispatch the work it owed to a respawned
        (or re-mapped) replacement with an idempotent merge.  Disable to
        get fail-fast semantics (a dead node errors the run promptly) and
        to skip the journal bookkeeping.
    max_respawns:
        Mid-run failover budget per run.  Workers that died *between*
        jobs are always revived on the next run while warm (not counted
        against this budget).
    tracer / stream_capacity:
        As for :class:`~repro.snet.runtime.engine.ThreadedRuntime`.

    After a run, :attr:`bytes_pickled` holds the total frame bytes that
    crossed partition links in either direction, :attr:`partition_plan`
    the partition → node mapping of the last partitioning pass,
    :attr:`worker_pids` the node workers' OS pids (empty when cold),
    :attr:`recoveries` the cumulative count of node failovers/revivals,
    and :attr:`frames_dropped` the frames lost on a dead link without a
    replacement during the last run.  While a run is executing,
    :attr:`in_flight` snapshots the per-partition ledger the failover
    replays from.  A warm runtime is elastic between jobs via
    :meth:`add_node` / :meth:`remove_node`.
    """

    #: payload threshold for the fork-shared broadcast (the data plane's
    #: canonical threshold, shared with the process engine)
    BROADCAST_MIN_BYTES = BROADCAST_MIN_BYTES

    def __init__(
        self,
        nodes: int = 2,
        tracer: Optional[Tracer] = None,
        stream_capacity: int = 256,
        chunk_size: int = 16,
        zero_copy: bool = True,
        fault_tolerance: bool = True,
        max_respawns: int = 3,
        check: str = "warn",
        fuse: str = "auto",
    ):
        super().__init__(
            tracer=tracer,
            stream_capacity=stream_capacity,
            transport=PartitionTransport(),
            check=check,
            fuse=fuse,
        )
        self.nodes = int(nodes)
        if self.nodes < 1:
            raise RuntimeError_("the distributed runtime needs at least one node")
        # placement checks (@num beyond the cluster) know the real node count
        self.check_nodes = self.nodes
        if chunk_size < 1:
            raise RuntimeError_("chunk_size must be at least 1")
        self.chunk_size = int(chunk_size)
        self.zero_copy = zero_copy
        self.fault_tolerance = bool(fault_tolerance)
        self.max_respawns = int(max_respawns)

    @property
    def partition_plan(self) -> Dict[str, Any]:
        """Partition name → node (static) or ``"!@<tag>"`` (dynamic)."""
        return self.transport.partition_plan

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the live node workers (empty before fork/after teardown)."""
        return self.transport.worker_pids

    @property
    def recoveries(self) -> int:
        """Cumulative node failovers (mid-run) and revivals (between jobs)."""
        return self.transport.recoveries

    @property
    def frames_dropped(self) -> int:
        """Frames lost on a dead link with no replacement during the last run."""
        return self.transport.frames_dropped

    @property
    def in_flight(self) -> Dict[str, Dict[str, Any]]:
        """Live per-partition ledger: journalled batches/records and deliveries."""
        return self.transport.in_flight

    def add_node(self) -> int:
        """Elastically grow the node set between jobs; returns the new count."""
        return self.transport.add_node()

    def remove_node(self, index: Optional[int] = None) -> int:
        """Elastically shrink the node set between jobs; returns the new count."""
        return self.transport.remove_node(index)


def run_distributed(
    network: Entity,
    inputs: Sequence[Record],
    nodes: int = 2,
    tracer: Optional[Tracer] = None,
    stream_capacity: int = 256,
    timeout: Optional[float] = 60.0,
) -> List[Record]:
    """Convenience wrapper: run ``network`` on a fresh distributed runtime."""
    runtime = DistributedRuntime(
        nodes=nodes, tracer=tracer, stream_capacity=stream_capacity
    )
    return runtime.run(network, inputs, timeout=timeout)
