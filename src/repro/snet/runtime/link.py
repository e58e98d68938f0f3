"""The pipe link: framed record batches to and from one forked worker.

Both fork-based transports talk to their workers over a duplex
``multiprocessing`` pipe (a Unix socket pair) with one small protocol:

====================  ====================================================
``OPEN key``          instantiate a fresh copy of partition template
                      ``key`` for a new channel
``DATA payload``      a record batch for the channel (protocol 5, buffers
                      out-of-band, broadcast payloads as
                      :class:`~repro.snet.runtime.data_plane.SharedObjectRef`)
``EOS``               channel input finished → worker flushes the
                      partition and answers ``EOS_ACK``
``RESULT payload``    records produced by a partition (worker → parent)
``ERROR message``     a partition raised; the message embeds the remote
                      traceback (worker → parent)
``SHUTDOWN``          the run/runtime is over; the worker exits
====================  ====================================================

A frame is multipart: a tiny pickled header, then the payload and each
out-of-band buffer as separate pipe messages, so serialized bytes are never
copied into an envelope pickle.  The pool transport uses ``DATA`` →
``RESULT``/``ERROR`` and ``SHUTDOWN`` only, with a box's registry key as
the channel.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

__all__ = [
    "OPEN", "DATA", "EOS", "SHUTDOWN", "RESULT", "EOS_ACK", "ERROR",
    "encode_frame", "send_frame", "recv_frame", "PipeLink", "close_links",
]

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


def recv_frame(conn) -> Tuple[int, int, Any, Optional[bytes], List[bytes], int]:
    """Receive one multipart frame; returns (..., total wire bytes).

    The peer writes all parts of a frame back-to-back from a single
    thread, so reading header-then-parts never interleaves.  A frame is
    received atomically or not at all: a pipe dying mid-frame raises
    before any part is acted on, which is what makes replay-after-death
    exact — a partially received batch was never counted as delivered.
    """
    header = conn.recv_bytes()
    kind, channel, meta, has_payload, n_buffers = pickle.loads(header)
    nbytes = len(header)
    payload: Optional[bytes] = None
    if has_payload:
        payload = conn.recv_bytes()
        nbytes += len(payload)
    buffers: List[bytes] = []
    for _ in range(n_buffers):
        buf = conn.recv_bytes()
        buffers.append(buf)
        nbytes += len(buf)
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
    settles ``pending[0]``.
    """

    def __init__(self, target: Callable[[Any], None], name: str):
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
        self.pid = self.process.pid
        self.sentinel = self.process.sentinel
        self.pending: Deque[Any] = deque()
        self.dead = False

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.exitcode is None

    def stop(self) -> None:
        """Ask the worker to exit: ``SHUTDOWN`` if it owes nothing, else kill."""
        if self.conn.closed:
            return
        try:
            if self.dead or self.pending or self.process.exitcode is not None:
                self.process.kill()
            else:
                send_frame(self.conn, encode_frame(SHUTDOWN, 0))
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
        self.process.close()


def close_links(links: Sequence[PipeLink]) -> None:
    """Stop every link, then reap them (their exits overlap)."""
    for link in links:
        link.stop()
    for link in links:
        link.reap()
