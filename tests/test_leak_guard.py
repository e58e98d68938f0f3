"""The leak guard of ``tests/conftest.py`` sees this process's segments only.

Its shared-memory check records the names ``SharedMemory`` hands out in
this process while the test runs, instead of diffing the host's
``/dev/shm``: a segment another process creates in the same window is not
this test's leak, and must not fail it.
"""

import subprocess
import sys
from multiprocessing import shared_memory

import pytest

#: creates a segment, hands it over (no unlink at exit) and prints its name
_CHILD = """
from multiprocessing import resource_tracker, shared_memory
segment = shared_memory.SharedMemory(create=True, size=64)
resource_tracker.unregister(segment._name, "shared_memory")
segment.close()
print(segment.name)
"""


def test_another_processs_segment_is_not_a_leak(leak_guard):
    with leak_guard():
        name = subprocess.run(
            [sys.executable, "-c", _CHILD], check=True, capture_output=True, text=True
        ).stdout.strip()
    # the segment outlived the window, and the guard let it pass
    segment = shared_memory.SharedMemory(name=name)
    segment.close()
    segment.unlink()


def test_own_leaked_segment_still_fails(leak_guard):
    segment = None
    try:
        with pytest.raises(AssertionError, match="leaked shared-memory segments"):
            with leak_guard():
                segment = shared_memory.SharedMemory(create=True, size=64)
    finally:
        segment.close()
        segment.unlink()
