"""Threaded execution engine.

:class:`ThreadedRuntime` is the :class:`~repro.snet.runtime.core.EngineCore`
paired with the :class:`~repro.snet.runtime.core.InlineTransport`: the
compilation scheme, scheduler, drain-on-error shutdown, wall-clock run
deadline and warm lifecycle all live in the shared core; the inline
transport claims nothing, so every entity instance is a port on the
scheduler and records travel by reference.

This makes the threaded engine the *correctness* backend: real box
execution, no extra processes, no serialization — but GIL-bound, so
CPU-bound boxes show no wall-clock speedup.  The process and distributed
engines run the very same core with transports that move box invocations
(respectively whole placement partitions) into real OS processes; the
cross-backend conformance suite pins their observable semantics to this
one.

:func:`drain_stream` and :func:`worker_scope` are re-exported from the core
for backward compatibility — they are the shutdown contract of transport
threads that read a :class:`~repro.snet.runtime.stream.Stream`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.snet.base import Entity
from repro.snet.records import Record
from repro.snet.runtime.core import (
    EngineCore,
    InlineTransport,
    drain_stream,
    worker_scope,
)
from repro.snet.runtime.tracing import Tracer

__all__ = ["ThreadedRuntime", "run_threaded", "drain_stream", "worker_scope"]


class ThreadedRuntime(EngineCore):
    """Execute an S-Net network in process, on one run-to-completion scheduler.

    Parameters
    ----------
    tracer:
        Optional :class:`Tracer` receiving runtime events.
    stream_capacity:
        Bound of every stream at a transport boundary (none inline; kept for
        a uniform constructor across backends).

    Runtime instances are **reusable** and expose the same warm lifecycle
    (:meth:`~repro.snet.runtime.core.EngineCore.setup` /
    :meth:`~repro.snet.runtime.core.EngineCore.teardown` /
    ``with runtime:``) as every executing backend; the inline transport has
    no expensive resources, so warming up only flips the flag::

        runtime = ThreadedRuntime()
        runtime.setup(network)            # no-op here, forks the pool there
        try:
            for job_inputs in jobs:
                outputs = runtime.run(network, job_inputs)
        finally:
            runtime.teardown()
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        stream_capacity: int = 256,
        check: str = "warn",
        fuse: str = "auto",
    ):
        super().__init__(
            tracer=tracer,
            stream_capacity=stream_capacity,
            transport=InlineTransport(),
            check=check,
            fuse=fuse,
        )


def run_threaded(
    network: Entity,
    inputs: Sequence[Record],
    tracer: Optional[Tracer] = None,
    stream_capacity: int = 256,
    timeout: Optional[float] = 60.0,
) -> List[Record]:
    """Convenience wrapper: run ``network`` on ``inputs`` with a fresh runtime."""
    runtime = ThreadedRuntime(tracer=tracer, stream_capacity=stream_capacity)
    return runtime.run(network, inputs, timeout=timeout)
