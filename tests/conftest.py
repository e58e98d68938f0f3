"""Shared fixtures: the leak guard of the process-runtime test modules."""

import contextlib
import gc
import glob
import os
import threading
from multiprocessing import shared_memory

import pytest


def child_pids():
    """Pids of this process's live (or unreaped) children, from /proc."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:  # the thread exited while we looked
            continue
    from multiprocessing import resource_tracker

    # SharedMemory starts one tracker process per interpreter, for good
    pids.discard(getattr(resource_tracker._resource_tracker, "_pid", None))
    return pids


@contextlib.contextmanager
def segments_created():
    """Record the segments ``SharedMemory`` creates in this process.

    Yields a callable returning the recorded names still present in
    ``/dev/shm``.  Segments of other processes on the host are never
    recorded, so they cannot read as this process's leak.  (Frame segments
    are created by the coordinating process, before its workers fork.)
    """
    created = []
    original = shared_memory.SharedMemory.__init__

    def recording_init(self, name=None, create=False, size=0, *args, **kwargs):
        original(self, name, create, size, *args, **kwargs)
        if create:
            created.append(self.name)

    shared_memory.SharedMemory.__init__ = recording_init
    try:
        yield lambda: {name for name in created if os.path.exists(f"/dev/shm/{name}")}
    finally:
        shared_memory.SharedMemory.__init__ = original


@contextlib.contextmanager
def process_leak_guard():
    """Fail the block if it leaves a child process, a thread or a segment."""
    children, threads = child_pids(), set(threading.enumerate())
    with segments_created() as live_segments:
        yield
        gc.collect()
        leaked = live_segments()
    assert child_pids() <= children, "test left child processes running"
    assert set(threading.enumerate()) <= threads, "test left threads running"
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def live_children():
    """The :func:`child_pids` probe, for tests that check it mid-way."""
    return child_pids


@pytest.fixture
def live_segments():
    """The segments this test created that still exist (see :func:`segments_created`)."""
    with segments_created() as live:
        yield live


@pytest.fixture
def leak_guard():
    """The :func:`process_leak_guard` context manager, for tests of the guard."""
    return process_leak_guard


@pytest.fixture
def no_process_leaks():
    """Fail a test that leaves a child process, a thread or a shm segment.

    Worker processes must be reaped and their pipes closed by teardown or
    by the end of a cold run; a ``SharedMemory`` segment left in
    ``/dev/shm`` outlives the process until the host reboots.
    """
    with process_leak_guard():
        yield
