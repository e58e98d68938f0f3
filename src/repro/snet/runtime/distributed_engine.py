"""Distributed execution engine: placement combinators on real OS processes.

Distributed S-Net maps an *unchanged* logical network onto compute nodes
with two placement combinators — static placement ``A @ num`` and indexed
dynamic placement ``A !@ <tag>`` (see :mod:`repro.snet.placement`).  The
simulated runtime (:mod:`repro.dsnet.simruntime`) models that mapping in
virtual time; :class:`DistributedRuntime` *executes* it with a
:class:`PartitionTransport`, the claim policy of
:class:`~repro.snet.runtime.link.LinkTransport` that claims placement
partitions (the link protocol, the worker and the warm lifecycle are in
:mod:`repro.snet.runtime.link`; the rules in DESIGN.md, "Partitioning
rules" and "Fault tolerance and elasticity").

The network is split at the placement roots its
:class:`~repro.snet.runtime.plan.Plan` lists, each with its structural key
and node; the network itself is never changed.  Every ``A @ num`` subtree
is one **static partition** on node ``num % nodes``; every ``A !@ <tag>``
a family of **dynamic partitions**, the replica for tag value *v* on node
``v % nodes``, instantiated when *v* is first observed; everything else
runs on the coordinating scheduler.  A network without placement
combinators runs wholly on node 0 (an implicit ``@ 0``).  Templates are
registered under the **structural content hash** of the placed subtree
(:func:`~repro.snet.placement.structural_key`), so a *warm* runtime
distributes any structurally identical network and refuses loudly one
whose partitions match no template.  Placements nested inside a partition
are transparent: the outermost wins.

Each partition instance is a scheduler port (:class:`_PartitionPort`) with
its own channel: ``OPEN`` copies the template on the node, the turn's
records go out as ``DATA`` batches of up to ``chunk_size`` when the turn
ends, and ``EOS`` flushes it.  Each port journals the batches it sends
and counts the results delivered, so when a link is found dead the
failover respawns the worker (or re-maps its slots onto a survivor),
re-opens the affected channels from a fresh template copy, replays their
journals from the start and skips the results already delivered — within
the per-run ``max_respawns`` budget.  A warm runtime revives dead workers
before each run and grows or shrinks between jobs
(:meth:`DistributedRuntime.add_node` / :meth:`DistributedRuntime.remove_node`).
Without ``fork`` the runtime degrades to threaded in-process execution
with a :class:`RuntimeWarning`, treating every placement as transparent.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Any, Dict, List, Optional, Sequence

from repro.snet.base import Entity
from repro.snet.combinators import IndexSplit
from repro.snet.errors import RuntimeError_
from repro.snet.placement import StaticPlacement, structural_key
from repro.snet.records import Record
from repro.snet.runtime.core import EngineCore, Port, PortWriter
from repro.snet.runtime.plan import Placement, plan_of
from repro.snet.runtime.data_plane import dumps_records, resolve_shared_in, swap_shared_out
from repro.snet.runtime.link import (
    DATA,
    EOS,
    EOS_ACK,
    ERROR,
    OPEN,
    LinkTransport,
    PipeLink,
    close_links,
    encode_frame,
)
from repro.snet.runtime.tracing import Tracer

__all__ = [
    "DistributedRuntime",
    "PartitionTransport",
    "DistributedWorkerError",
    "run_distributed",
]


class DistributedWorkerError(RuntimeError_):
    """A partition raised inside a node worker (message embeds the remote traceback)."""


class _PartitionPort(Port):
    """One partition instance on the wire: a scheduler port and its ledger.

    The records of a scheduler turn go out when the turn ends, in ``DATA``
    batches of at most ``chunk_size``; end of input sends ``EOS``.
    ``journal`` holds every batch sent since ``OPEN`` (references, not
    copies) and ``delivered`` the count of result records already pushed
    downstream — together exactly what a replacement node needs to take
    over: replay the journal into a fresh template copy and skip the first
    ``delivered`` replayed results.  The journal is freed when the worker
    acknowledges ``EOS``.
    """

    def __init__(
        self, transport: "PartitionTransport", key: str, node: int, label: str, out: PortWriter
    ):
        super().__init__(transport.runtime.scheduler, label)
        self.transport = transport
        self.id = next(transport._channel_ids)
        self.key = key
        self.node = node  # logical node: resolved to a link modulo live slots
        self.out = out
        self.waiting: List[Record] = []
        self.journal: List[List[Record]] = []
        self.delivered = 0
        self.replay_skip = 0
        self.eos_sent = False
        self.done = False

    def on_record(self, rec: Record) -> None:
        if not self.waiting:
            self.sched.at_turn_end(self)
        self.waiting.append(rec)

    def end_turn(self, _arg: Any = None) -> None:
        waiting, self.waiting = self.waiting, []
        chunk = self.transport.runtime.chunk_size
        for start in range(0, len(waiting), chunk):
            self.transport._send_data(self, waiting[start : start + chunk])

    def on_close(self) -> None:
        self.end_turn()
        self.transport._send_eos(self)

    def outputs(self) -> Sequence[PortWriter]:
        return (self.out,)

    def _landed(self, records: List[Record]) -> None:
        if self.out.closed:  # a failover without replacement closed the channel
            return
        for rec in records:
            self.out.push(resolve_shared_in(rec))

    def _finish(self, records: List[Record]) -> None:
        self._landed(records)
        self.out.close()

    def _failed(self, exc: BaseException) -> None:
        raise exc


class PartitionTransport(LinkTransport):
    """Claim placement partitions; run each on its node worker's channel."""

    name = "partition"
    worker_name = "dsnet-node"
    degraded = "placement combinators treated as transparent"

    def __init__(self) -> None:
        super().__init__()
        self._channel_ids = itertools.count(1)
        #: open partition channels by id
        self._channels: Dict[int, _PartitionPort] = {}
        self._run_active = False
        self._respawns_left = 0
        #: frames lost on a dead link with no replacement (reset per run)
        self.frames_dropped = 0
        #: partition name -> compute node (static) or "!@<tag>" (dynamic);
        #: populated by the partitioning pass, kept for introspection
        self.partition_plan: Dict[str, Any] = {}
        #: id of a placement root of the network in hand -> its plan facts
        self._roots: Dict[int, Placement] = {}

    def _slots(self) -> int:
        return self.runtime.nodes

    @property
    def in_flight(self) -> Dict[str, Dict[str, Any]]:
        """Per-channel ledger snapshot: what each live partition is owed."""
        return {
            ch.name: {
                "node": ch.node,
                "batches": len(ch.journal),
                "records": sum(len(batch) for batch in ch.journal),
                "delivered": ch.delivered,
                "eos_sent": ch.eos_sent,
            }
            for ch in self._channels.values()
        }

    def _report_error(self, exc: BaseException) -> None:
        self.runtime._record_error(exc, source=self.name)

    # -- partitioning --------------------------------------------------------
    def _claim(self, network: Entity, cold: bool) -> None:
        """Register the operand of every placement root under its structural
        key, before the fork.  An entirely unplaced network runs wholly on
        node 0, as if wrapped in ``@ 0``, on a cold run; ``setup()`` warns
        instead."""
        roots = plan_of(network, self.runtime.check_nodes).placements
        if not roots and cold:
            implicit = StaticPlacement(network, 0, name=f"{network.name}@0")
            key = structural_key(implicit)
            roots = (Placement(id(network), implicit.name, key, 0, None, network),)
        elif not roots:
            warnings.warn(
                "DistributedRuntime.setup: the network has no placement "
                "combinators (@ / !@); warm runs will execute in-process",
                RuntimeWarning,
                stacklevel=5,
            )
        for root in roots:
            if root.key not in self._keys:
                self._register(root.key, root.key, root.operand)
        self.partition_plan = {
            root.name: root.node if root.tag is None else f"!@<{root.tag}>" for root in roots
        }
        self._roots = {root.entity: root for root in roots}

    # -- per-run lifecycle ---------------------------------------------------
    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> None:
        self.frames_dropped = 0
        self._respawns_left = self.runtime.max_respawns
        self._run_active = True
        super().begin_run(network, inputs, timeout)
        if not (self.runtime.is_warm and self._links):
            return
        # a warm runtime distributes any network structurally identical to
        # the one it was set up with, and refuses loudly to run anything
        # else in-process
        roots = plan_of(network, self.runtime.check_nodes).placements
        if not roots:
            warnings.warn(
                "DistributedRuntime: warm run of a network with no placement "
                "combinators (@ / !@) — it executes in-process on the "
                "coordinating node, not on the warm node workers",
                RuntimeWarning,
                stacklevel=3,
            )
        for root in roots:
            if root.key not in self._keys:
                raise RuntimeError_(
                    f"warm DistributedRuntime: partition {root.name!r} "
                    f"(structural key {root.key}) matches no "
                    "template registered by setup(); a warm runtime only "
                    "distributes networks structurally identical to the one "
                    "it was set up with — call teardown() and setup() with "
                    "this network to redistribute it"
                )
        self._roots = {root.entity: root for root in roots}

    def end_run(self) -> None:
        self._run_active = False
        self._channels.clear()  # an interrupted run (deadline/error) left some open
        self._roots = {}
        super().end_run()

    def _link_of(self, ch: _PartitionPort) -> PipeLink:
        return self._links[ch.node % len(self._links)]

    # -- failover ------------------------------------------------------------
    def _replace_link(self, link: PipeLink, slots: List[int]) -> Optional[PipeLink]:
        """Provision a replacement for ``link`` into every slot it holds.

        Prefers respawning a fresh worker at the dead node's slot (forked
        now, so it inherits the current registries); if the fork fails,
        re-maps the slots onto a surviving node — the ``!@ <tag>`` modulo
        mapping then lands on the survivor set, exactly the paper's
        node-set contraction.  Returns ``None`` when no replacement is
        possible (respawn budget spent, or nothing left alive).
        """
        if self._respawns_left <= 0:
            return None
        try:
            replacement = self._fork_link(link.index)
        except OSError:  # pragma: no cover - fork exhaustion
            survivors = [l for l in dict.fromkeys(self._links) if not l.dead]
            if not survivors:
                return None
            replacement = survivors[slots[0] % len(survivors)]
        self._respawns_left -= 1
        for i in slots:
            self._links[i] = replacement
        self.recoveries += 1
        return replacement

    def _replay(self, ch: _PartitionPort, link: PipeLink) -> None:
        """Re-dispatch everything a dead node owed ``ch`` onto ``link``.

        The replacement re-opens the channel from a fresh template copy
        and replays the journal *from the start*; the first ``delivered``
        replayed results are skipped on receipt instead, which makes the
        merge idempotent.
        """
        ch.replay_skip = ch.delivered
        self._send(link, encode_frame(OPEN, ch.id, meta=ch.key), None)
        for batch in ch.journal:
            self._send(link, self._data_frame(ch, batch), ch)
        if ch.eos_sent:
            self._send(link, encode_frame(EOS, ch.id), ch)

    def _fail_over(self, link: PipeLink, reason: str) -> None:
        """One node worker is gone: re-dispatch the work it owed or fail loudly.

        Runs on the scheduler's thread wherever the death shows: a read
        meeting EOF, a wait seeing the sentinel, a send failing.  A dead
        link that no replacement could take stays in its slot, so a
        second call finds nothing left to do; the warm lifecycle revives
        it at the next :meth:`begin_run`.
        """
        link.dead = True
        slots = [i for i, l in enumerate(self._links) if l is link]
        if not slots:
            return  # already replaced or removed
        affected = [ch for ch in self._channels.values() if self._link_of(ch) is link]
        replacement = self._replace_link(link, slots)
        if replacement is None:
            for ch in affected:
                self._close(ch)
                ch.out.close()
            if affected:
                self._report_error(
                    DistributedWorkerError(
                        f"compute node {link.index} died ({reason}) with "
                        f"{len(affected)} partition channel(s) open and no "
                        "replacement available"
                    )
                )
            return
        self.runtime.tracer.record(
            self.name,
            "node-failover",
            node=link.index,
            channels=len(affected),
            respawned=replacement.index == link.index,
            reason=reason,
        )
        close_links([link])
        for ch in affected:
            self._replay(ch, replacement)

    # -- the channels ----------------------------------------------------------
    @staticmethod
    def _data_frame(ch: _PartitionPort, batch: List[Record]) -> List[bytes]:
        payload, buffers, _ = dumps_records([swap_shared_out(r) for r in batch])
        return encode_frame(DATA, ch.id, payload=payload, buffers=buffers)

    def _send_data(self, ch: _PartitionPort, batch: List[Record]) -> None:
        if ch.done:
            return
        ch.journal.append(batch)
        self._send_to_node(ch, self._data_frame(ch, batch))

    def _send_eos(self, ch: _PartitionPort) -> None:
        if ch.done:
            return
        ch.eos_sent = True
        self._send_to_node(ch, encode_frame(EOS, ch.id))

    def _send_to_node(self, ch: _PartitionPort, parts: List[bytes]) -> None:
        link = self._link_of(ch)
        if not link.dead:
            self._send(link, parts, ch)
            return
        # counted, then the failover replays the frame from the journal or
        # fails the channel, so the run fails promptly instead of grinding
        # to the deadline
        self.frames_dropped += 1
        self._fail_over(link, "frame sent to a dead node link")

    def _close(self, ch: _PartitionPort) -> None:
        ch.done = True
        ch.journal = []
        self._channels.pop(ch.id, None)

    def _settle(self, ch: _PartitionPort, kind: int, meta: Any, records: List[Record]):
        """Book one reply on its channel's ledger as it is read, so a
        failover later in the same poll replays from a ledger that already
        counts it."""
        if ch.done:  # the channel failed: an empty answer to a frame in flight
            return None
        if kind == ERROR:
            self._close(ch)
            return (ch, ch._failed, DistributedWorkerError(meta))
        if ch.replay_skip:
            skip = min(ch.replay_skip, len(records))
            ch.replay_skip -= skip
            records = records[skip:]
        ch.delivered += len(records)
        if kind == EOS_ACK:
            self._close(ch)
            return (ch, ch._finish, records)
        return (ch, ch._landed, records) if records else None

    # -- elasticity ----------------------------------------------------------
    def _check_between_jobs(self, what: str) -> None:
        if self._run_active:
            raise RuntimeError_(
                f"{what}() while a run is in progress; elastic resize is only "
                "allowed between jobs"
            )

    def add_node(self) -> int:
        """Grow the warm node set by one freshly forked worker (between jobs)."""
        self._check_between_jobs("add_node")
        self.runtime.nodes += 1
        if self._links:
            self._links.append(self._fork_link(len(self._links)))
        return self.runtime.nodes

    def remove_node(self, index: Optional[int] = None) -> int:
        """Shrink the warm node set (between jobs); defaults to the last slot.

        Placements previously mapped to the removed slot re-map modulo the
        remaining nodes on the next run — the same contraction rule the
        failover path uses.
        """
        self._check_between_jobs("remove_node")
        if self.runtime.nodes <= 1:
            raise RuntimeError_("cannot remove the last compute node")
        victim: Optional[PipeLink] = None
        if self._links:
            slot = len(self._links) - 1 if index is None else index
            if not 0 <= slot < len(self._links):
                raise RuntimeError_(f"remove_node: no compute node at slot {slot}")
            victim = self._links.pop(slot)
            for i, link in enumerate(self._links):
                link.index = i
        self.runtime.nodes -= 1
        if victim is not None and victim not in self._links:
            close_links([victim])
        return self.runtime.nodes

    # -- compilation seam ----------------------------------------------------
    def _root(self, entity: Entity, static: bool) -> Optional[Placement]:
        root = self._roots.get(id(entity)) if self._links else None
        return root if root is not None and (root.tag is None) == static else None

    def compile_entity(self, entity: Entity, out: PortWriter) -> Optional[Port]:
        root = self._root(entity, static=True)
        if root is None:
            return None
        return self._open_channel(root.key, root.node, root.name, out)

    def compile_split_instance(
        self, entity: IndexSplit, value: int, out: PortWriter
    ) -> Optional[Port]:
        root = self._root(entity, static=False)
        if root is None:
            return None
        # indexed placement: the replica for tag value v runs on node v
        return self._open_channel(root.key, value, f"{root.name}-{value}", out)

    def claims_entity(self, entity: Entity) -> bool:
        """Mirror of :meth:`compile_entity`'s claim condition (no side effects)."""
        return self._root(entity, static=True) is not None

    def _open_channel(self, key: str, node: int, label: str, out: PortWriter) -> Port:
        """Wire one partition instance to its node worker: its port.

        A channel landing on an already-dead link first gets the normal
        failover treatment; if no replacement is possible the open is
        refused — the output closes (downstream EOS), the port drops its
        input, and the dead-node error is recorded so the run fails
        promptly instead of stalling.
        """
        ch = _PartitionPort(self, key, node, label, out)
        link = self._link_of(ch)
        if not link.alive:
            self._fail_over(link, "found dead while opening a channel")
            link = self._link_of(ch)
        if link.dead:
            self._report_error(
                DistributedWorkerError(
                    f"partition {label!r} cannot open a channel: compute node "
                    f"{link.index} is dead and no replacement is available"
                )
            )
            ch.done = True
            out.close()
            return ch
        self._channels[ch.id] = ch
        self.runtime.tracer.record(label, "partition-open", node=link.index, channel=ch.id)
        self._send(link, encode_frame(OPEN, ch.id, meta=key), None)
        return ch


class DistributedRuntime(EngineCore):
    """Execute an S-Net network across real node worker processes.

    Parameters
    ----------
    nodes:
        Number of compute-node worker processes.  Static placements
        ``A @ num`` map to worker ``num % nodes``; indexed placements
        ``A !@ <tag>`` map each replica to worker ``value % nodes``.
    chunk_size:
        Records per cross-partition ``DATA`` frame (a partition port
        batches the records of one scheduler turn up to this size).
    zero_copy:
        Broadcast large input-record payloads (and ``setup(broadcast=...)``
        objects) through the fork-shared registry so they cross the wire as
        tokens instead of bytes — the scene ships zero times per run.
    max_respawns:
        Mid-run failover budget per run; ``0`` fails fast.  Workers that
        died *between* jobs are always revived on the next run while warm
        (not counted against this budget).
    tracer:
        As for :class:`~repro.snet.runtime.engine.ThreadedRuntime`.

    After a run, :attr:`bytes_pickled` holds the record bytes (payloads and
    out-of-band buffers) that crossed partition links in either direction,
    :attr:`partition_plan` the partition → node mapping of the last
    partitioning pass, :attr:`worker_pids` the live node workers' OS pids
    (empty when cold), :attr:`recoveries` the cumulative count of node
    failovers/revivals, and :attr:`frames_dropped` the frames lost on a
    dead link without a replacement during the last run.  While a run is
    executing, :attr:`in_flight` snapshots the per-partition ledger the
    failover replays from.  A warm runtime is elastic between jobs via
    :meth:`add_node` / :meth:`remove_node`.
    """

    def __init__(
        self,
        nodes: int = 2,
        tracer: Optional[Tracer] = None,
        chunk_size: int = 16,
        zero_copy: bool = True,
        max_respawns: int = 3,
        check: str = "warn",
        fuse: str = "auto",
    ):
        super().__init__(
            tracer=tracer,
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
    timeout: Optional[float] = 60.0,
) -> List[Record]:
    """Convenience wrapper: run ``network`` on a fresh distributed runtime."""
    runtime = DistributedRuntime(nodes=nodes, tracer=tracer)
    return runtime.run(network, inputs, timeout=timeout)
