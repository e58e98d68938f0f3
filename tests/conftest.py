"""Shared fixtures: the leak guard of the process-runtime test modules."""

import gc
import glob
import os
import threading

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


def shm_segments():
    """Names of live POSIX shared-memory segments made by ``SharedMemory``."""
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture
def live_children():
    """The :func:`child_pids` probe, for tests that check it mid-way."""
    return child_pids


@pytest.fixture
def no_process_leaks():
    """Fail a test that leaves a child process, a thread or a shm segment.

    Worker processes must be reaped and their pipes closed by teardown or
    by the end of a cold run; a ``SharedMemory`` segment left in
    ``/dev/shm`` outlives the process until the host reboots.
    """
    children, threads, segments = child_pids(), set(threading.enumerate()), shm_segments()
    yield
    gc.collect()
    assert child_pids() <= children, "test left child processes running"
    assert set(threading.enumerate()) <= threads, "test left threads running"
    leaked = shm_segments() - segments
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"
