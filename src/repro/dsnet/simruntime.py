"""Simulated distributed execution of S-Net networks.

The engine mirrors the threaded runtime's compilation scheme — one worker
per primitive entity, dispatchers for the dynamic combinators — but workers
are discrete-event processes on a :class:`~repro.cluster.topology.Cluster`
and every action has a cost:

* a box invocation occupies a CPU of its node for
  ``box.estimated_cost(record)`` reference seconds plus the runtime's
  per-invocation overhead and marshalling of the record payload;
* filters, synchrocells and routing decisions charge small runtime overheads
  on their hosting node;
* a record whose producer and consumer live on different nodes crosses the
  simulated Ethernet (latency + bandwidth + link contention);
* placement follows Distributed S-Net: ``A@num`` pins a subnetwork to node
  ``num``; ``A!@<tag>`` instantiates the operand per tag value on node
  ``value % num_nodes``; everything else inherits its parent's node (the
  master node by default), exactly like the prototype's MPI mapping.

The result records the output records, the makespan and per-node/network
statistics used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.cluster.sim import SimulationError, Store
from repro.cluster.topology import Cluster
from repro.dsnet.config import DSNetConfig
from repro.snet.base import Entity, PrimitiveEntity
from repro.snet.boxes import Box
from repro.snet.combinators import IndexSplit, Parallel, Serial, Star
from repro.snet.errors import RuntimeError_
from repro.snet.network import Network
from repro.snet.placement import StaticPlacement
from repro.snet.records import Record
from repro.snet.runtime.plan import plan_of

__all__ = ["SimRunResult", "SimulatedDSNetRuntime"]

#: sentinel marking end-of-stream on simulated streams
_EOS = object()


class _SimStream:
    """A single-reader stream with writer reference counting (simulated)."""

    def __init__(self, cluster: Cluster, name: str):
        self.store = Store(cluster.sim, name=name)
        self.name = name
        self._writers = 0
        self._eos_sent = False

    def open_writer(self) -> "_SimWriter":
        self._writers += 1
        return _SimWriter(self)

    def _writer_closed(self) -> None:
        self._writers -= 1
        if self._writers == 0 and not self._eos_sent:
            self._eos_sent = True
            self.store.put(_EOS)

    def get(self):
        return self.store.get()


class _SimWriter:
    """Writer handle for a :class:`_SimStream`."""

    def __init__(self, stream: _SimStream):
        self.stream = stream
        self._closed = False

    def put(self, rec: Record):
        if self._closed:
            raise RuntimeError_(f"write on closed simulated writer of {self.stream.name}")
        return self.stream.store.put(rec)

    def dup(self) -> "_SimWriter":
        return self.stream.open_writer()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.stream._writer_closed()


@dataclass
class _Port:
    """Destination of produced records: a stream plus its consumer's node."""

    writer: _SimWriter
    node: int

    def dup(self) -> "_Port":
        return _Port(self.writer.dup(), self.node)


@dataclass
class SimRunResult:
    """Outcome of one simulated distributed run."""

    outputs: List[Record]
    makespan: float
    cluster: Cluster
    box_invocations: int = 0
    records_transferred: int = 0

    @property
    def network_bytes(self) -> int:
        return self.cluster.network.total_bytes

    def node_utilisations(self) -> List[float]:
        horizon = self.makespan if self.makespan > 0 else None
        return [node.utilisation(horizon) for node in self.cluster.nodes]


class SimulatedDSNetRuntime:
    """Distributed S-Net execution engine on the cluster simulator."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[DSNetConfig] = None,
        master_node: int = 0,
        check: str = "warn",
    ):
        if check not in ("warn", "error", "off"):
            raise SimulationError(
                f"check must be 'warn', 'error' or 'off', got {check!r}"
            )
        self.cluster = cluster
        self.config = config or DSNetConfig()
        self.master_node = master_node
        self.check = check
        self.box_invocations = 0
        self.records_transferred = 0

    # -- cost helpers --------------------------------------------------------
    def _node_of(self, requested: int) -> int:
        """Map an abstract node number onto a physical cluster node."""
        return requested % self.cluster.num_nodes

    def _runtime_work(self, node: int, seconds: float) -> Generator:
        """Charge *box* work on a node's CPUs (queues behind other box work)."""
        if seconds > 0:
            yield from self.cluster.compute_on(node, seconds)

    def _service_delay(self, node: int, seconds: float) -> Generator:
        """Charge runtime-*service* work (routing, marshalling, hops).

        The prototype's runtime service threads are preemptive and short, so
        they add latency to the records they handle but do not queue behind
        multi-second box executions; we therefore model them as plain delays
        rather than CPU occupancy.
        """
        if seconds > 0:
            yield self.cluster.sim.timeout(seconds)

    def _emit(self, rec: Record, src_node: int, port: _Port) -> Generator:
        """Move a record from ``src_node`` to the consumer behind ``port``.

        Local hops cost only the per-record runtime constant (field data is
        passed by reference within a node); a node-boundary crossing
        additionally serialises the payload and occupies the simulated
        network.
        """
        nbytes = rec.payload_size()
        yield from self._service_delay(src_node, self.config.hop_cost(nbytes))
        if src_node != port.node:
            yield from self._service_delay(src_node, self.config.marshal_time(nbytes))
            yield from self.cluster.send(src_node, port.node, nbytes)
            self.records_transferred += 1
        yield port.writer.put(rec)

    # -- compilation ------------------------------------------------------------
    def compile(self, entity: Entity, in_stream: _SimStream, out_port: _Port, node: int) -> None:
        if isinstance(entity, PrimitiveEntity):
            self._compile_primitive(entity, in_stream, out_port, node)
        elif isinstance(entity, Serial):
            mid = _SimStream(self.cluster, f"{entity.name}-mid")
            right_node = self._placement_node(entity.right, node)
            self.compile(entity.left, in_stream, _Port(mid.open_writer(), right_node), node)
            self.compile(entity.right, mid, out_port, right_node)
        elif isinstance(entity, Parallel):
            self._compile_parallel(entity, in_stream, out_port, node)
        elif isinstance(entity, Star):
            self._compile_star(entity, in_stream, out_port, node)
        elif isinstance(entity, IndexSplit):
            self._compile_split(entity, in_stream, out_port, node)
        elif isinstance(entity, Network):
            self.compile(entity.body, in_stream, out_port, node)
        elif isinstance(entity, StaticPlacement):
            target = self._node_of(entity.node)
            self.compile(entity.operand, in_stream, out_port, target)
        else:
            raise RuntimeError_(f"cannot compile entity {entity!r} for simulation")

    def _placement_node(self, entity: Entity, default: int) -> int:
        """The node an entity will run on (used to cost upstream transfers)."""
        if isinstance(entity, StaticPlacement):
            return self._node_of(entity.node)
        if isinstance(entity, Network):
            return self._placement_node(entity.body, default)
        if isinstance(entity, Serial):
            return self._placement_node(entity.left, default)
        return default

    def _compile_primitive(
        self, entity: PrimitiveEntity, in_stream: _SimStream, out_port: _Port, node: int
    ) -> None:
        config = self.config

        def worker() -> Generator:
            try:
                while True:
                    rec = yield in_stream.get()
                    if rec is _EOS:
                        break
                    if isinstance(entity, Box):
                        self.box_invocations += 1
                        yield from self._runtime_work(
                            node, config.box_overhead + entity.estimated_cost(rec)
                        )
                    else:
                        yield from self._service_delay(node, config.routing_overhead)
                    for produced in entity.process(rec):
                        yield from self._emit(produced, node, out_port)
                for produced in entity.flush():
                    yield from self._emit(produced, node, out_port)
            finally:
                out_port.writer.close()

        self.cluster.sim.process(worker(), name=f"sim-{entity.name}-{entity.entity_id}")

    def _compile_parallel(
        self, entity: Parallel, in_stream: _SimStream, out_port: _Port, node: int
    ) -> None:
        branch_ports: List[_Port] = []
        branch_streams: List[_SimStream] = []
        for branch in entity.branches:
            branch_node = self._placement_node(branch, node)
            branch_in = _SimStream(self.cluster, f"{entity.name}-{branch.name}-in")
            branch_streams.append(branch_in)
            branch_ports.append(_Port(branch_in.open_writer(), branch_node))
            self.compile(branch, branch_in, out_port.dup(), branch_node)

        # resolve route()'s branch to its port by identity, not a list search
        port_of = {id(b): p for b, p in zip(entity.branches, branch_ports)}

        def dispatcher() -> Generator:
            try:
                while True:
                    rec = yield in_stream.get()
                    if rec is _EOS:
                        break
                    yield from self._service_delay(node, self.config.routing_overhead)
                    branch = entity.route(rec)
                    yield from self._emit(rec, node, port_of[id(branch)])
            finally:
                for port in branch_ports:
                    port.writer.close()
                out_port.writer.close()

        self.cluster.sim.process(dispatcher(), name=f"sim-par-{entity.entity_id}")

    def _compile_star(
        self, entity: Star, in_stream: _SimStream, out_port: _Port, node: int
    ) -> None:
        runtime = self

        def make_router(level: int, level_in: _SimStream, port: _Port):
            def router() -> Generator:
                instance_port: Optional[_Port] = None
                try:
                    while True:
                        rec = yield level_in.get()
                        if rec is _EOS:
                            break
                        yield from runtime._service_delay(node, runtime.config.routing_overhead)
                        if entity.exit_pattern.matches(rec):
                            yield from runtime._emit(rec, node, port)
                            continue
                        if instance_port is None:
                            if level >= entity.max_depth:
                                raise RuntimeError_(
                                    f"star {entity.name} exceeded max depth {entity.max_depth}"
                                )
                            yield from runtime._service_delay(
                                node, runtime.config.instantiation_overhead
                            )
                            inst_in = _SimStream(runtime.cluster, f"{entity.name}-L{level}-in")
                            inst_out = _SimStream(runtime.cluster, f"{entity.name}-L{level}-out")
                            operand = entity.operand.copy()
                            operand_node = runtime._placement_node(operand, node)
                            instance_port = _Port(inst_in.open_writer(), operand_node)
                            runtime.compile(
                                operand, inst_in, _Port(inst_out.open_writer(), node), operand_node
                            )
                            runtime.cluster.sim.process(
                                make_router(level + 1, inst_out, port.dup())(),
                                name=f"sim-star-{entity.entity_id}-L{level + 1}",
                            )
                        yield from runtime._emit(rec, node, instance_port)
                finally:
                    if instance_port is not None:
                        instance_port.writer.close()
                    port.writer.close()

            return router

        self.cluster.sim.process(
            make_router(0, in_stream, out_port)(), name=f"sim-star-{entity.entity_id}-L0"
        )

    def _compile_split(
        self, entity: IndexSplit, in_stream: _SimStream, out_port: _Port, node: int
    ) -> None:
        runtime = self

        def dispatcher() -> Generator:
            instance_ports: Dict[int, _Port] = {}
            try:
                while True:
                    rec = yield in_stream.get()
                    if rec is _EOS:
                        break
                    if not rec.has_tag(entity.tag):
                        raise RuntimeError_(
                            f"index split {entity.name} requires tag <{entity.tag}>, got {rec!r}"
                        )
                    yield from runtime._service_delay(node, runtime.config.routing_overhead)
                    value = rec.tag(entity.tag)
                    if value not in instance_ports:
                        yield from runtime._service_delay(
                            node, runtime.config.instantiation_overhead
                        )
                        # indexed placement: replica for value v runs on node v;
                        # a plain (non-placed) index split keeps its parent node
                        instance_node = runtime._node_of(value) if entity.placed else node
                        inst_in = _SimStream(runtime.cluster, f"{entity.name}-{value}-in")
                        instance_ports[value] = _Port(inst_in.open_writer(), instance_node)
                        runtime.compile(
                            entity.operand.copy(), inst_in, out_port.dup(), instance_node
                        )
                    yield from runtime._emit(rec, node, instance_ports[value])
            finally:
                for port in instance_ports.values():
                    port.writer.close()
                out_port.writer.close()

        self.cluster.sim.process(dispatcher(), name=f"sim-split-{entity.entity_id}")

    # -- running -------------------------------------------------------------
    def run(
        self,
        network: Entity,
        inputs: Sequence[Record],
        fresh: bool = True,
    ) -> SimRunResult:
        """Simulate the network on a finite input stream; returns the result.

        The network's static analysis is the executing runtimes' own: read
        from its cached plan (:func:`~repro.snet.runtime.plan.plan_of`).
        """
        if self.check != "off":
            plan_of(network, self.cluster.num_nodes, self.check)
        target = network.copy() if fresh else network
        master = self._node_of(self.master_node)
        in_stream = _SimStream(self.cluster, "network-in")
        out_stream = _SimStream(self.cluster, "network-out")
        self.compile(target, in_stream, _Port(out_stream.open_writer(), master), master)

        input_writer = in_stream.open_writer()
        outputs: List[Record] = []
        start_time = self.cluster.sim.now

        def feeder() -> Generator:
            try:
                yield from self._runtime_work(master, self.config.startup_cost)
                for rec in inputs:
                    yield from self._emit(rec, master, _Port(input_writer, master))
            finally:
                input_writer.close()

        def collector() -> Generator:
            while True:
                rec = yield out_stream.get()
                if rec is _EOS:
                    return
                outputs.append(rec)

        self.cluster.sim.process(feeder(), name="sim-feeder")
        collector_proc = self.cluster.sim.process(collector(), name="sim-collector")
        self.cluster.sim.run()
        if not collector_proc.triggered:
            raise SimulationError("distributed S-Net simulation deadlocked")
        self.cluster.collect_node_metrics()
        return SimRunResult(
            outputs=outputs,
            makespan=self.cluster.sim.now - start_time,
            cluster=self.cluster,
            box_invocations=self.box_invocations,
            records_transferred=self.records_transferred,
        )
