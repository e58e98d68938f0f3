"""S-Net runtime backends: one entity graph, four execution strategies.

Networks are *built* once (combinators over boxes, filters and synchrocells)
and *executed* by interchangeable backends selected by name through
:func:`get_runtime` / :func:`run_on`.  Everything that executes shares one
engine — :class:`~repro.snet.runtime.core.EngineCore` — behind a
:class:`~repro.snet.runtime.core.Transport` seam; the backends differ only
in where records go:

``threaded`` — the correctness backend
    :class:`ThreadedRuntime` = the core + the inline transport: the network
    compiles to a graph of ports (one per entity instance; star levels and
    split replicas created on demand) that one run-to-completion scheduler
    drives on the calling thread.  Boxes execute for real, in process,
    which makes it the reference for observable semantics — but CPU-bound
    box code runs on one thread, so it cannot demonstrate wall-clock
    speedup.

``process`` — the wall-clock parallel backend
    :class:`ProcessRuntime` = the core + the pool transport: invocations of
    ``parallel_safe`` boxes are offloaded to a forked ``multiprocessing``
    pool in chunked record batches.  CPU-bound boxes (the ray-tracing
    solver) run outside the GIL, so a multi-core host shows the real
    speedup the paper measures.  Semantics are pinned to the threaded
    backend by the cross-backend conformance suite
    (``tests/snet/test_runtime_conformance.py``).

``distributed`` — the scale-out backend
    :class:`DistributedRuntime` = the core + the partition transport: the
    placement combinators of Distributed S-Net (``A @ num``, ``A !@ <tag>``)
    are honoured for real — each placement partition executes in a worker
    process ("compute node") and records cross partitions over a pipe
    transport with the protocol-5 out-of-band data plane.

``simulated`` (alias ``dsnet``) — the performance-model backend
    :class:`~repro.dsnet.simruntime.SimulatedDSNetRuntime` executes the graph
    as discrete-event processes on a modelled cluster (CPUs, Ethernet, shared
    file system) and reports virtual-time makespans; it reproduces the
    paper's figures without needing the original 8-node testbed.

Modules:

* :mod:`repro.snet.runtime.stream` — bounded thread-safe streams with
  multi-writer reference counting (the render service's job queue),
* :mod:`repro.snet.runtime.core` — :class:`EngineCore`, its port graph
  and scheduler, and the :class:`Transport` seam,
* :mod:`repro.snet.runtime.link` — the pipe link to a forked worker, its
  frame protocol and the one fork transport both fork-based runtimes use,
* :mod:`repro.snet.runtime.data_plane` — protocol-5 out-of-band
  serialization and the fork-shared payload broadcast registry,
* :mod:`repro.snet.runtime.engine` — :class:`ThreadedRuntime`,
* :mod:`repro.snet.runtime.process_engine` — :class:`ProcessRuntime` and
  its box-pool claim policy,
* :mod:`repro.snet.runtime.distributed_engine` — :class:`DistributedRuntime`
  and its placement-partition claim policy,
* :mod:`repro.snet.runtime.registry` — backend registration/selection,
* :mod:`repro.snet.runtime.tracing` — event tracing for tests and benchmarks.
"""

from repro.snet.runtime.stream import Stream, StreamClosed, StreamWriter
from repro.snet.runtime.core import (
    EngineCore,
    InlineTransport,
    Transport,
)
from repro.snet.runtime.data_plane import SharedObjectRef, dumps_records, loads_records
from repro.snet.runtime.linearize import FusedChain, linearize
from repro.snet.runtime.engine import ThreadedRuntime, run_threaded
from repro.snet.runtime.process_engine import (
    BatchAutotuner,
    BoxWorkerError,
    PoolTransport,
    ProcessRuntime,
)
from repro.snet.runtime.distributed_engine import (
    DistributedRuntime,
    DistributedWorkerError,
    PartitionTransport,
    run_distributed,
)
from repro.snet.runtime.registry import (
    available_backends,
    get_runtime,
    register_backend,
    run_on,
)
from repro.snet.runtime.tracing import TraceEvent, Tracer

__all__ = [
    "Stream",
    "StreamWriter",
    "StreamClosed",
    "EngineCore",
    "Transport",
    "InlineTransport",
    "PoolTransport",
    "PartitionTransport",
    "ThreadedRuntime",
    "ProcessRuntime",
    "DistributedRuntime",
    "FusedChain",
    "linearize",
    "BatchAutotuner",
    "BoxWorkerError",
    "DistributedWorkerError",
    "SharedObjectRef",
    "run_threaded",
    "run_distributed",
    "dumps_records",
    "loads_records",
    "register_backend",
    "available_backends",
    "get_runtime",
    "run_on",
    "TraceEvent",
    "Tracer",
]
