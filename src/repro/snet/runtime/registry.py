"""Named runtime backends and the selection API.

Everything that *executes* an S-Net entity graph sits behind a tiny registry
so applications, examples and benchmarks pick an execution strategy by name::

    from repro.snet.runtime import get_runtime, run_on

    runtime = get_runtime("process", workers=4)
    outputs = runtime.run(network, inputs)

    # or, for the common run-to-completion case:
    outputs = run_on("threaded", network, inputs)

Four backends ship with the repository:

``threaded``
    :class:`~repro.snet.runtime.engine.ThreadedRuntime` — every entity
    instance a port on one run-to-completion scheduler.  The *correctness*
    backend: real box execution, no extra processes, but one thread (no
    wall-clock speedup for CPU-bound boxes).
``process``
    :class:`~repro.snet.runtime.process_engine.ProcessRuntime` — same
    port graph, ``parallel_safe`` box invocations offloaded to a forked
    worker pool.  The *wall-clock parallel* backend.
``distributed``
    :class:`~repro.snet.runtime.distributed_engine.DistributedRuntime` —
    placement combinators (``A @ num``, ``A !@ <tag>``) executed for real:
    each placement partition runs in a worker process ("compute node") and
    records cross partitions over a pipe transport.  The *scale-out*
    backend.
``simulated`` (alias ``dsnet``)
    :class:`~repro.dsnet.simruntime.SimulatedDSNetRuntime` — discrete-event
    simulation of Distributed S-Net on a modelled cluster.  The *performance
    model* backend used for the paper's figure reproductions; its ``run``
    returns a :class:`~repro.dsnet.simruntime.SimRunResult` (``run_on``
    normalises that to the output records).
"""

from __future__ import annotations

import difflib
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.snet.base import Entity
from repro.snet.errors import RuntimeError_
from repro.snet.records import Record

__all__ = ["register_backend", "available_backends", "get_runtime", "run_on"]

_FACTORIES: Dict[str, Callable[..., Any]] = {}


def register_backend(
    name: str, factory: Callable[..., Any], replace: bool = False
) -> None:
    """Register ``factory`` (kwargs -> runtime instance) under ``name``."""
    key = name.strip().lower()
    if not key:
        raise RuntimeError_("runtime backend names must be non-empty")
    if key in _FACTORIES and not replace:
        raise RuntimeError_(f"runtime backend {key!r} is already registered")
    _FACTORIES[key] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of all registered runtime backends, sorted.

    >>> available_backends()
    ('distributed', 'dsnet', 'process', 'simulated', 'threaded')
    """
    return tuple(sorted(_FACTORIES))


def _unknown_backend_error(name: str) -> RuntimeError_:
    """A helpful error for a backend name that resolves to nothing.

    Lists every registered backend and, for near-misses (``"threded"``,
    ``"Distributed "``), suggests the closest registered name.
    """
    choices = available_backends()
    message = (
        f"unknown runtime backend {name!r}; available: " + ", ".join(choices)
    )
    close = difflib.get_close_matches(str(name).strip().lower(), choices, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return RuntimeError_(message)


def get_runtime(name: str, **options: Any) -> Any:
    """Instantiate the runtime backend registered under ``name``.

    ``options`` are passed to the backend factory (e.g. ``workers=4`` for the
    process backend, ``nodes=3`` for the distributed one,
    ``stream_capacity=...`` for every executing backend, or ``cluster=...``
    for the simulated one).  Unknown names raise
    :class:`~repro.snet.errors.RuntimeError_` listing every registered
    backend (with a did-you-mean suggestion for near-misses).

    >>> type(get_runtime("threaded")).__name__
    'ThreadedRuntime'
    >>> get_runtime("threaded", stream_capacity=8).stream_capacity
    8
    >>> get_runtime("distributed", nodes=3).nodes
    3
    >>> try:
    ...     get_runtime("threded")
    ... except Exception as exc:
    ...     print(exc)
    unknown runtime backend 'threded'; available: distributed, dsnet, process, simulated, threaded (did you mean 'threaded'?)
    """
    if not isinstance(name, str):
        raise RuntimeError_(
            f"runtime backend names must be strings, got {name!r}; to run on "
            "an already-constructed runtime instance use run_on(runtime, ...)"
        )
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise _unknown_backend_error(name)
    return _FACTORIES[key](**options)


def run_on(
    name: Any,
    network: Entity,
    inputs: Sequence[Record],
    timeout: Optional[float] = 60.0,
    **options: Any,
) -> List[Record]:
    """Run ``network`` to completion on a backend; return the outputs.

    ``name`` is either a registered backend name (a runtime is instantiated
    with ``options``) or an already-constructed runtime instance — callers
    that need to read post-run instrumentation (e.g. the process backend's
    ``bytes_pickled``), or that keep a *warm* runtime alive across jobs
    (``runtime.setup(...)``, see the render service), construct the runtime
    themselves and pass it in.  Normalises over backend result types: the
    simulated backend's ``SimRunResult`` is unwrapped to its output records.

    >>> from repro.snet import Record, box
    >>> @box("(x) -> (y)")
    ... def double(x):
    ...     return {"y": 2 * x}
    >>> outputs = run_on("threaded", double, [Record({"x": 21})])
    >>> outputs[0].field("y")
    42
    """
    if isinstance(name, str):
        runtime = get_runtime(name, **options)
    else:
        if options:
            raise RuntimeError_(
                "backend options are only accepted together with a backend "
                "name; configure the runtime instance directly instead"
            )
        runtime = name
        if not callable(getattr(runtime, "run", None)):
            raise RuntimeError_(
                f"run_on() needs a backend name or a runtime instance with a "
                f".run() method, got {runtime!r}; available backends: "
                + ", ".join(available_backends())
            )
    if "timeout" in inspect.signature(runtime.run).parameters:
        result = runtime.run(network, inputs, timeout=timeout)
    else:
        # the simulated runtime advances virtual time; no wall-clock timeout
        result = runtime.run(network, inputs)
    outputs = getattr(result, "outputs", result)
    return list(outputs)


# -- built-in backends --------------------------------------------------------
def _threaded_factory(**options: Any):
    from repro.snet.runtime.engine import ThreadedRuntime

    return ThreadedRuntime(**options)


def _process_factory(**options: Any):
    from repro.snet.runtime.process_engine import ProcessRuntime

    return ProcessRuntime(**options)


def _distributed_factory(**options: Any):
    from repro.snet.runtime.distributed_engine import DistributedRuntime

    return DistributedRuntime(**options)


def _simulated_factory(cluster: Any = None, **options: Any):
    # imported lazily: repro.dsnet itself depends on repro.snet
    from repro.cluster.topology import paper_cluster
    from repro.dsnet.simruntime import SimulatedDSNetRuntime

    if cluster is None:
        cluster = paper_cluster()
    return SimulatedDSNetRuntime(cluster, **options)


register_backend("threaded", _threaded_factory)
register_backend("process", _process_factory)
register_backend("distributed", _distributed_factory)
register_backend("simulated", _simulated_factory)
register_backend("dsnet", _simulated_factory, replace=False)
