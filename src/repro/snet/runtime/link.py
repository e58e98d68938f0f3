"""The pipe link and the one fork transport built on it.

Both fork-based runtimes run their claimed work on forked workers through
:class:`LinkTransport`; they differ only in its claim policy.
:class:`~repro.snet.runtime.process_engine.PoolTransport` claims
``parallel_safe`` boxes and sends each batch to whichever worker owes
nothing; :class:`~repro.snet.runtime.distributed_engine.PartitionTransport`
claims placement partitions and sends each to its node.

The protocol
------------

Every worker talks to the parent over a duplex ``multiprocessing`` pipe (a
Unix socket pair) with one small protocol:

====================  ====================================================
``OPEN key``          instantiate a fresh copy of template ``key`` for a
                      new channel (no reply)
``DATA payload``      a record batch (protocol 5, buffers out-of-band,
                      broadcast payloads as
                      :class:`~repro.snet.runtime.data_plane.SharedObjectRef`)
                      for an opened channel, or, on a channel never
                      opened, for the stateless box template whose key
                      the channel is
``EOS``               channel input finished → the worker flushes the
                      channel and answers ``EOS_ACK``
``RESULT payload``    the records a ``DATA`` batch produced, possibly none,
                      and the measured box time (worker → parent)
``EOS_ACK payload``   the records the channel's flush produced, possibly
                      none (worker → parent)
``ERROR message``     the template raised; the message embeds the remote
                      traceback (worker → parent)
``SHUTDOWN``          the run/runtime is over; the worker exits
====================  ====================================================

**One reply per frame.**  A worker answers every ``DATA`` and ``EOS`` with
exactly one frame — ``RESULT``, ``EOS_ACK`` or ``ERROR`` — in the order it
read them, also on a channel that has already failed.  So the parent
knows what each worker owes (:attr:`PipeLink.pending`), sends only to a
worker that owes nothing (:meth:`PipeLink.send`), and reads and sleeps on
all its links from the scheduler's thread (:func:`ready_links`,
:func:`wait_replies`); no transport starts a thread.  A frame is
multipart: a tiny pickled header, then the payload and each out-of-band
buffer as separate pipe messages, so serialized bytes are never copied
into an envelope pickle.

The warm lifecycle
------------------

Templates are registered in the fork-shared, refcounted :data:`_TEMPLATES`
and large payloads in the broadcast registry
(:mod:`repro.snet.runtime.data_plane`) *before* the workers fork, so
unpicklable box closures and the scene never cross the pipe.  ``setup()``
registers and forks once and ``teardown()`` stops, reaps and unregisters;
a cold run does both around itself.  Before each warm run a worker that
died is replaced by a fresh fork (a *revival*, counted in
:attr:`LinkTransport.recoveries`), which inherits the registries like the
first; after a run, a worker still owing replies of that (failed) run is
replaced at once, so it cannot hand them to the next.  A worker found
dead mid-run goes to the claim policy: the pool fails the run, the
partitions fail over and replay.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
import warnings
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Hashable, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

from repro.snet.base import Entity
from repro.snet.combinators import _end, _feed
from repro.snet.errors import RuntimeError_
from repro.snet.records import Record
from repro.snet.runtime.core import Port, Transport
from repro.snet.runtime.data_plane import (
    dumps_records,
    loads_records,
    register_shared_value,
    resolve_shared_in,
    swap_shared_out,
    unregister_shared,
)

__all__ = [
    "OPEN", "DATA", "EOS", "SHUTDOWN", "RESULT", "EOS_ACK", "ERROR",
    "encode_frame", "send_frame", "recv_frame", "PipeLink", "close_links",
    "ready_links", "wait_replies", "worker_main", "LinkTransport",
]

def warn_fork_degraded(runtime_name: str, consequence: str) -> None:
    """Announce that a fork-based transport degrades to threaded execution.

    Shared by every transport that needs real OS processes: the message
    wording ("degrading to threaded") is part of the degradation contract
    tests pin on both the process and distributed engines.
    """
    warnings.warn(
        f"{runtime_name}: the 'fork' start method is unavailable on this "
        "platform; degrading to threaded in-process execution "
        f"({consequence})",
        RuntimeWarning,
        stacklevel=5,
    )


# frame kinds (parent -> worker: OPEN/DATA/EOS/SHUTDOWN; worker -> parent:
# RESULT/EOS_ACK/ERROR)
OPEN, DATA, EOS, SHUTDOWN, RESULT, EOS_ACK, ERROR = range(7)


def encode_frame(
    kind: int,
    channel: int,
    meta: Any = None,
    payload: Optional[bytes] = None,
    buffers: Sequence[bytes] = (),
) -> List[bytes]:
    """Encode one frame as its parts; ``meta`` carries small control values
    (a template key, a remote traceback, a measured box time)."""
    header = pickle.dumps(
        (kind, channel, meta, payload is not None, len(buffers)), protocol=5
    )
    parts = [header]
    if payload is not None:
        parts.append(payload)
    parts.extend(buffers)
    return parts


def send_frame(conn, parts: Sequence[bytes]) -> None:
    for part in parts:
        conn.send_bytes(part)


#: ``SHUTDOWN``, the one frame that is a header alone, encoded once
(_SHUTDOWN,) = encode_frame(SHUTDOWN, 0)


def recv_frame(conn) -> Tuple[int, int, Any, Optional[bytes], List[bytes], int]:
    """Receive one multipart frame; returns (..., payload plus buffer bytes).

    The peer writes all parts of a frame back-to-back from a single
    thread, so reading header-then-parts never interleaves.  A frame is
    received atomically or not at all: a pipe dying mid-frame raises
    before any part is acted on, which is what makes replay-after-death
    exact — a partially received batch was never counted as delivered.
    """
    kind, channel, meta, has_payload, n_buffers = pickle.loads(conn.recv_bytes())
    payload = conn.recv_bytes() if has_payload else None
    buffers = [conn.recv_bytes() for _ in range(n_buffers)]
    nbytes = (len(payload) if payload is not None else 0) + sum(map(len, buffers))
    return kind, channel, meta, payload, buffers, nbytes


def _drop_inherited_sockets(keep: int) -> None:
    """Release every socket a forked child inherited, except fd ``keep``.

    A worker forked while the parent holds sockets — a gateway client's
    connection, other workers' link ends — would keep each open until it
    exits, so the peer sees no EOF when the parent closes its copy.  Each
    such fd is pointed at ``/dev/null`` rather than closed: the parent's
    objects that own those numbers live on in the child's memory, and a
    closed number could be reused and then closed under a new owner.
    The sweep allocates little, since every page it writes in the child
    is a copy-on-write copy (about 100 kB per worker).  Pipes and files
    stay open (``multiprocessing``'s sentinel pipe, which
    the parent watches for the child's death, and the resource tracker's
    pipe among them).  A no-op where ``/proc/self/fd`` does not exist.
    """
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return
    devnull = -1
    for name in names:
        try:
            if int(name) == keep or not os.readlink("/proc/self/fd/" + name).startswith("socket:"):
                continue
        except OSError:  # the listing's own fd, closed by now
            continue
        if devnull < 0:
            devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, int(name))
    if devnull >= 0:
        os.close(devnull)


def _child_main(target: Callable[[Any], None], conn) -> None:
    _drop_inherited_sockets(keep=conn.fileno())
    target(conn)


class PipeLink:
    """Parent-side end of one forked worker: process, duplex pipe, sentinel.

    ``target(conn)`` runs in the child, which first lets go of every socket
    it inherited but ``conn`` (:func:`_drop_inherited_sockets`).
    :attr:`pending` lists what the worker owes the parent in send order; a
    worker answers frames in the order it read them, so a reply always
    settles ``pending[0]``.  :attr:`outbox` holds the frames waiting for
    the worker to owe nothing.  ``index`` is the worker's slot.
    """

    def __init__(self, target: Callable[[Any], None], name: str, index: int = 0):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_child_main, args=(target, child_conn), name=name, daemon=True
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self.index = index
        self.pid = self.process.pid
        self.sentinel = self.process.sentinel
        self.pending: Deque[Any] = deque()
        self.outbox: Deque[Tuple[Sequence[bytes], Any]] = deque()
        self.dead = False
        #: the worker's exit code, once :meth:`reap` has waited for it
        self.exitcode: Optional[int] = None

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.exitcode is None

    def send(self, parts: Sequence[bytes], owed: Any = None) -> None:
        """Send one frame as soon as the worker owes nothing; queue it till then.

        ``owed`` is what the frame's reply settles (``None`` for a frame
        with no reply, ``OPEN``).  A worker that owes nothing is reading,
        so a send of any size completes while the worker never blocks on
        an unread reply.  Raises :class:`OSError` if the pipe is gone.
        """
        self.outbox.append((parts, owed))
        self.flush()

    def flush(self) -> None:
        """Send queued frames while the worker owes nothing."""
        outbox, pending = self.outbox, self.pending
        while outbox and not pending:
            parts, owed = outbox.popleft()
            if owed is not None:
                pending.append(owed)
            send_frame(self.conn, parts)

    def stop(self) -> None:
        """Ask the worker to exit: ``SHUTDOWN`` if it owes nothing, else kill."""
        if self.conn.closed:
            return
        try:
            if self.dead or self.pending or self.process.exitcode is not None:
                self.process.kill()
            else:
                self.conn.send_bytes(_SHUTDOWN)
        except OSError:
            self.process.kill()
        self.dead = True
        self.conn.close()

    def __del__(self) -> None:
        conn = getattr(self, "conn", None)  # None: no pipe was made
        if conn is not None and not conn.closed:
            warnings.warn(
                f"pipe link to worker {self.pid} was never stopped",
                ResourceWarning,
                source=self,
            )

    def reap(self) -> None:
        """Wait for the stopped worker to exit and release its handles."""
        self.process.join(5.0)
        if self.process.exitcode is None:  # pragma: no cover - defensive
            self.process.kill()
            self.process.join()
        self.exitcode = self.process.exitcode
        self.process.close()


def close_links(links: Sequence[PipeLink]) -> None:
    """Stop every link, then reap them (their exits overlap)."""
    for link in links:
        link.stop()
    for link in links:
        link.reap()


def ready_links(links: Iterable[PipeLink]) -> Iterator[PipeLink]:
    """Yield a busy link each time a reply (or EOF) waits on its pipe.

    Never blocks.  Per yield the caller reads one frame with
    :func:`recv_frame` and pops ``link.pending[0]``, the entry it settles,
    or marks the link dead when the read meets EOF.  Links go in order,
    each as long as it has replies waiting; a link listed twice is read
    once.
    """
    for link in dict.fromkeys(links):
        while link.pending and not link.dead and link.conn.poll():
            yield link


def wait_replies(
    links: Iterable[PipeLink], timeout: Optional[float]
) -> Optional[List[PipeLink]]:
    """Sleep, at most ``timeout`` seconds, until a busy link has a reply.

    One ``multiprocessing.connection.wait`` over the busy links' pipes and
    sentinels, so a worker's death wakes it too.  Returns the busy links
    whose worker has died, or ``None`` at once when no link owes anything.
    """
    busy = [link for link in dict.fromkeys(links) if link.pending and not link.dead]
    if not busy:
        return None
    ready = multiprocessing.connection.wait(
        [link.conn for link in busy] + [link.sentinel for link in busy], timeout
    )
    return [link for link in busy if link.sentinel in ready]


# -- the worker ----------------------------------------------------------------

#: templates visible to forked workers: registry key -> (registrations,
#: entity).  Keys are a pool's box ids or a partition's structural content
#: hash; the count lets two warm runtimes share one template.
_TEMPLATES: Dict[Hashable, Tuple[int, Entity]] = {}


def _register_template(key: Hashable, template: Entity) -> None:
    count, existing = _TEMPLATES.get(key, (0, template))
    _TEMPLATES[key] = (count + 1, existing)


def _release_template(key: Hashable) -> None:
    count, template = _TEMPLATES.get(key, (0, None))
    if count > 1:
        _TEMPLATES[key] = (count - 1, template)
    else:
        _TEMPLATES.pop(key, None)


def _template(key: Hashable, index: int) -> Entity:
    entry = _TEMPLATES.get(key)
    if entry is None:
        raise RuntimeError_(
            f"template {key!r} missing on worker {index}; the fork transports "
            "require the 'fork' start method"
        )
    return entry[1]


def _error_frame(channel: int, name: str, index: int, exc: BaseException) -> List[bytes]:
    # user exceptions are not guaranteed to pickle: ship the remote traceback
    return encode_frame(
        ERROR,
        channel,
        f"{name!r} failed in worker {index}: {type(exc).__name__}: {exc}\n"
        f"{traceback.format_exc()}",
    )


def _records_frame(
    kind: int, channel: int, produced: Sequence[Record], elapsed: Optional[float] = None
) -> List[bytes]:
    if not produced:
        return encode_frame(kind, channel, elapsed)
    payload, buffers, _ = dumps_records([swap_shared_out(r) for r in produced])
    return encode_frame(kind, channel, elapsed, payload, buffers)


def worker_main(conn, index: int = 0) -> None:
    """Entry point of every forked worker: answer frames until ``SHUTDOWN``.

    An opened channel owns a fresh copy of its partition template and runs
    it with the sequential reference semantics; a batch on any other
    channel runs the stateless box template the channel names, uncopied.
    Because a channel starts from a fresh copy and consumes its input in
    order, a replacement replaying a dead worker's journal reproduces the
    original result stream exactly (deterministic partitions).

    Every ``DATA`` and ``EOS`` gets exactly one reply.  A channel that
    raises answers that frame with ``ERROR`` (an ``OPEN`` that fails, the
    next frame), and every later frame of its channel with an empty
    ``RESULT`` or ``EOS_ACK``.
    """
    channels: Dict[int, Entity] = {}
    #: failed channel -> its ERROR frame while unsent (a failed OPEN), else None
    failed: Dict[int, Optional[List[bytes]]] = {}
    try:
        while True:
            try:
                kind, channel, meta, payload, buffers, _ = recv_frame(conn)
            except (EOFError, OSError):
                break
            if kind == SHUTDOWN:
                break
            if kind == OPEN:
                try:
                    channels[channel] = _template(meta, index).copy()
                except Exception as exc:  # noqa: BLE001 - answered at the next frame
                    failed[channel] = _error_frame(channel, meta, index, exc)
                continue
            entity = channels.get(channel)
            try:
                if channel in failed:
                    frame = failed[channel] or encode_frame(
                        RESULT if kind == DATA else EOS_ACK, channel
                    )
                    failed[channel] = None
                elif kind == EOS:
                    frame = _records_frame(EOS_ACK, channel, _end(channels.pop(channel)))
                else:
                    if entity is None:  # a box batch: the stateless template
                        entity = _template(channel, index)
                    records = [resolve_shared_in(r) for r in loads_records(payload, buffers)]
                    start = time.perf_counter()
                    produced = [out for rec in records for out in _feed(entity, rec)]
                    elapsed = time.perf_counter() - start
                    frame = _records_frame(RESULT, channel, produced, elapsed)
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                if channels.pop(channel, None) is not None:
                    failed[channel] = None
                frame = _error_frame(channel, getattr(entity, "name", channel), index, exc)
            if kind == EOS:
                failed.pop(channel, None)
            try:
                send_frame(conn, frame)
            except (OSError, ValueError):
                break
    finally:
        conn.close()


# -- the transport -------------------------------------------------------------
class LinkTransport(Transport):
    """Run claimed work on forked workers, one :class:`PipeLink` per slot.

    Owns the links and their warm lifecycle, the template and broadcast
    registrations made on behalf of its runtime, the byte accounting
    (every payload and out-of-band buffer sent or received) and the
    ``poll``/``wait`` loop; everything runs on the scheduler's thread.  A
    claim policy subclass says what it claims (:meth:`_claim`,
    :meth:`compile_entity`), how many slots it runs (:meth:`_slots`), what
    a reply settles (:meth:`_settle`) and what a dead worker means
    (:meth:`_fail_over`).  ``zero_copy`` is read from the owning runtime.
    """

    #: process name prefix of the workers
    worker_name = "snet-worker"
    #: what a runtime without ``fork`` gives up (for its warning)
    degraded = ""

    def __init__(self) -> None:
        super().__init__()
        self._links: List[PipeLink] = []
        #: claim identity -> registry key of the templates registered
        self._keys: Dict[Hashable, Hashable] = {}
        self._shared: List[int] = []
        self._bytes = 0
        #: dead workers replaced, between jobs or mid-run (cumulative)
        self.recoveries = 0

    @property
    def bytes_pickled(self) -> int:
        return self._bytes

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the live workers (empty before fork/after teardown)."""
        return [link.pid for link in self._links if link.alive]

    # -- policy hooks ----------------------------------------------------------
    def _slots(self) -> int:
        """How many workers to fork."""
        raise NotImplementedError

    def _claim(self, network: Entity, cold: bool) -> None:
        """Register the templates ``network`` needs (:meth:`_register`)."""
        raise NotImplementedError

    def _settle(self, owed: Any, kind: int, meta: Any, records: List[Record]):
        """Book one reply on what it settles; the ``(port, fn, arg)`` step
        that delivers it, or ``None``."""
        raise NotImplementedError

    def _fail_over(self, link: PipeLink, reason: str) -> None:
        """The worker behind ``link`` is gone: recover, or raise to fail the run."""
        raise NotImplementedError

    # -- registration and links ------------------------------------------------
    def _register(self, ident: Hashable, key: Hashable, template: Entity) -> None:
        _register_template(key, template)
        self._keys[ident] = key

    def _fork_link(self, index: int) -> PipeLink:
        # forks after registration, so the child inherits the registries
        return PipeLink(
            functools.partial(worker_main, index=index),
            name=f"{self.worker_name}-{index}",
            index=index,
        )

    def _acquire(self, network: Entity, payloads: Iterable[Any], cold: bool) -> None:
        """Register the templates and broadcast ``payloads``, then fork."""
        runtime = self.runtime
        if not runtime.fork_available():
            warn_fork_degraded(type(runtime).__name__, self.degraded)
            return
        self._claim(network, cold)
        if self._keys:
            if runtime.zero_copy:
                for value in payloads:
                    register_shared_value(value, self._shared)
            # append one by one: a fork failing halfway leaves the earlier
            # links for teardown to reap
            for index in range(self._slots()):
                self._links.append(self._fork_link(index))

    def _send(self, link: PipeLink, parts: List[bytes], owed: Any) -> None:
        self._bytes += sum(map(len, parts[1:]))
        try:
            link.send(parts, owed)
        except OSError as exc:
            self._fail_over(link, f"worker pipe closed while sending ({exc!r})")

    def _flush(self, link: PipeLink) -> None:
        """``link`` owes nothing now: send what waits for it."""
        try:
            link.flush()
        except OSError as exc:
            self._fail_over(link, f"worker pipe closed while sending ({exc!r})")

    # -- warm lifecycle --------------------------------------------------------
    def setup(self, network: Optional[Entity], broadcast: Sequence[Any] = ()) -> None:
        if self.runtime.is_warm:
            raise RuntimeError_(
                f"setup() called on an already-warm {type(self.runtime).__name__}; "
                "call teardown() first to rebuild its workers"
            )
        # a failure halfway is torn down by EngineCore.setup: no template,
        # broadcast payload or half-forked worker leaks
        self._acquire(network, broadcast, cold=False)

    def teardown(self) -> None:
        links, self._links = self._links, []
        close_links(list(dict.fromkeys(links)))  # an aliased slot after a re-map
        for key in self._keys.values():
            _release_template(key)
        self._keys.clear()
        unregister_shared(self._shared)

    def begin_run(
        self, network: Entity, inputs: Sequence[Record], timeout: Optional[float]
    ) -> None:
        self._bytes = 0
        if not self.runtime.is_warm:
            fields = (rec[label] for rec in inputs for label in rec.fields())
            self._acquire(network, fields, cold=True)
            return
        # a worker that died since the last run, or a slot re-mapped onto a
        # survivor by a failover, gets a fresh fork
        links = self._links
        stale = [i for i, link in enumerate(links) if not link.alive or link in links[:i]]
        if stale:
            old = list(links)
            for i in stale:
                links[i] = self._fork_link(i)
                self.recoveries += 1
                self.runtime.tracer.record(self.name, "worker-revived", slot=i)
            close_links([link for link in dict.fromkeys(old) if link not in links])

    def end_run(self) -> None:
        if not self.runtime.is_warm:
            self.teardown()
            return
        # a live worker still owing replies of this (failed) run would hand
        # them to the next one: replace it now (not a recovery, no death)
        stale = [
            link for link in dict.fromkeys(self._links)
            if (link.pending or link.outbox) and link.alive
        ]
        for i, link in enumerate(self._links):
            if link in stale:
                self._links[i] = self._fork_link(i)
        close_links(stale)

    # -- the links, driven from the scheduler -----------------------------------
    def poll(self) -> List[Tuple[Port, Any, Any]]:
        steps, freed = [], []
        for link in ready_links(self._links):
            try:
                kind, _, meta, payload, buffers, nbytes = recv_frame(link.conn)
            except (EOFError, OSError):
                self._fail_over(link, "worker process exited")
                continue
            self._bytes += nbytes
            records = [] if payload is None else loads_records(payload, buffers)
            step = self._settle(link.pending.popleft(), kind, meta, records)
            if step is not None:
                steps.append(step)
            freed.append(link)
        for link in freed:  # after the reads, so no link is polled twice
            self._flush(link)
        return steps

    def wait(self, timeout: Optional[float]) -> bool:
        """Sleep until a worker answers or dies; a death goes to the policy."""
        dead = wait_replies(self._links, timeout)
        for link in dead or ():
            self._fail_over(link, "worker process exited")
        return dead is not None
