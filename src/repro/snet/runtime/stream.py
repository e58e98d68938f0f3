"""Bounded thread-safe streams for records crossing a thread boundary.

Inside one run the engine's ports hand records to each other on the
scheduler's thread; a :class:`Stream` carries records between threads —
to a transport's own threads (the distributed engine's channel forwarders
read their partition's input from one, behind a
:class:`~repro.snet.runtime.core.StreamBridge`) and from clients to the
render service's job loop.  It is a bounded FIFO with
*writer reference counting*: several writers may share one stream and it
only signals end-of-stream to its readers once every registered writer has
been closed.

Readers obtain records with :meth:`Stream.get`, which returns ``None`` once
the stream is exhausted (empty *and* all writers closed).  The two read
methods give ``None`` two different meanings — this contract matters to
every consumer that must distinguish "idle" from "finished" (a forwarder
topping up a batch, the render service's job queue):

>>> from repro.snet.records import Record
>>> stream = Stream(name="demo", capacity=4)
>>> writer = stream.open_writer()
>>> stream.try_get() is None   # "empty right now" -- NOT end-of-stream
True
>>> writer.put(Record({"x": 1}))
>>> stream.try_get().field("x")
1
>>> writer.close()
>>> stream.get() is None       # definitive end-of-stream (drained + closed)
True
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional

from repro.snet.errors import RuntimeError_
from repro.snet.records import Record

__all__ = ["Stream", "StreamWriter", "StreamClosed"]


class StreamClosed(RuntimeError_):
    """Raised when writing to a stream whose writer has been closed."""


class StreamWriter:
    """A writer handle on a stream.

    Writers are obtained with :meth:`Stream.open_writer` and must be closed
    exactly once; closing the last writer closes the stream.
    """

    __slots__ = ("_stream", "_closed")

    def __init__(self, stream: "Stream"):
        self._stream = stream
        self._closed = False

    @property
    def stream(self) -> "Stream":
        return self._stream

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, rec: Record) -> None:
        if self._closed:
            raise StreamClosed(f"write on closed writer of {self._stream.name}")
        self._stream._put(rec)

    def dup(self) -> "StreamWriter":
        """Open an additional writer on the same stream."""
        return self._stream.open_writer()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stream._writer_closed()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Stream:
    """A bounded multi-writer single/multi-reader FIFO of records."""

    def __init__(self, name: str = "stream", capacity: int = 1024):
        if capacity < 1:
            raise RuntimeError_("stream capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Record] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._writers = 0
        self._ever_opened = False
        self._total_in = 0
        self._total_out = 0

    # -- writer management ---------------------------------------------------
    def open_writer(self) -> StreamWriter:
        with self._lock:
            self._writers += 1
            self._ever_opened = True
        return StreamWriter(self)

    def _writer_closed(self) -> None:
        with self._lock:
            self._writers -= 1
            if self._writers < 0:  # pragma: no cover - defensive
                raise RuntimeError_(f"writer underflow on stream {self.name}")
            if self._writers == 0:
                self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        """True when no writers remain (and at least one was ever opened)."""
        with self._lock:
            return self._ever_opened and self._writers == 0

    # -- data ----------------------------------------------------------------
    def _put(self, rec: Record) -> None:
        with self._not_full:
            while len(self._queue) >= self.capacity:
                self._not_full.wait()
            self._queue.append(rec)
            self._total_in += 1
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Record]:
        """Blocking read; returns ``None`` at end-of-stream.

        With a ``timeout`` the call raises :class:`RuntimeError_` if nothing
        arrives in time (used to surface deadlocks in tests).
        """
        with self._not_empty:
            while not self._queue:
                if self._ever_opened and self._writers == 0:
                    return None
                if not self._not_empty.wait(timeout):
                    raise RuntimeError_(
                        f"timed out waiting for records on stream {self.name}"
                    )
            rec = self._queue.popleft()
            self._total_out += 1
            self._not_full.notify()
            return rec

    def try_get(self) -> Optional[Record]:
        """Non-blocking read; ``None`` strictly means "empty *right now*".

        Unlike :meth:`get`, a ``None`` from ``try_get`` is **not** the
        end-of-stream signal: the stream may simply be momentarily idle while
        writers are still open, and more records can arrive later.
        ``try_get`` cannot distinguish that case from an exhausted stream —
        callers that need to observe EOS (queue drained *and* every writer
        closed) must use :meth:`get`, whose ``None`` is definitive.  The
        distributed engine's channel forwarders rely on exactly this: they
        top up a batch with ``try_get`` and fall back to a blocking ``get``
        to learn about end-of-stream.
        """
        with self._lock:
            if self._queue:
                rec = self._queue.popleft()
                self._total_out += 1
                self._not_full.notify()
                return rec
            return None

    def drain(self) -> List[Record]:
        """Blocking read of everything until end-of-stream."""
        records: List[Record] = []
        while True:
            rec = self.get()
            if rec is None:
                return records
            records.append(rec)

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def total_records(self) -> int:
        """Number of records ever written to this stream."""
        with self._lock:
            return self._total_in

    def __repr__(self) -> str:
        return f"<Stream {self.name} len={len(self)} writers={self._writers}>"
