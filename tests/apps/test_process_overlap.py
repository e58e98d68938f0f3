"""The process backend runs independent solver calls at the same time.

Fig. 6 of the paper measures real wall-clock speedup of the S-Net farm on a
cluster.  What makes that possible on the ``process`` backend is that solver
boxes run on several forked pool workers at once, out of reach of the GIL.
This pins the property itself rather than a speedup ratio, so it holds on a
loaded or one-CPU host: each solver call is padded with a fixed sleep (the
stand-in for the reference CPU's per-section render time), logs its worker
pid and its interval on the monotonic clock, and at least two distinct
workers must have run calls whose intervals overlap.  The padded render
still produces the exact serial image.
"""

import os
import time

import pytest

from repro.apps import (
    RealRenderBackend,
    build_static_network,
    extract_image,
    initial_record,
)
from repro.raytracer import Camera, random_scene, render
from repro.raytracer.image import image_rms_difference
from repro.snet.runtime import ProcessRuntime, get_runtime

pytestmark = pytest.mark.usefixtures("no_process_leaks")

#: stand-in for the reference CPU's per-section render cost (seconds)
SECTION_COST = 0.2
WORKERS = 4
TASKS = 8


class LoggedRenderBackend(RealRenderBackend):
    """Real pixels, a modelled per-section latency, and a call log per pid."""

    def __init__(self, scene, camera, log_path):
        super().__init__(scene, camera)
        self.log_path = str(log_path)

    def render_section(self, section):
        start = time.monotonic()
        time.sleep(SECTION_COST)
        chunk = super().render_section(section)
        with open(self.log_path, "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()} {start!r} {time.monotonic()!r}\n")
        return chunk


@pytest.mark.skipif(
    not ProcessRuntime.fork_available(),
    reason="process backend needs the fork start method",
)
def test_solver_calls_overlap_on_distinct_workers(tmp_path):
    scene = random_scene(num_spheres=8, clustering=0.5, seed=7)
    camera = Camera(width=32, height=32)
    log_path = tmp_path / "calls.log"
    backend = LoggedRenderBackend(scene, camera, log_path)
    runtime = get_runtime("process", workers=WORKERS, chunk_size=1)
    assert isinstance(runtime, ProcessRuntime)
    runtime.run(
        build_static_network(backend),
        [initial_record(scene, nodes=WORKERS, tasks=TASKS)],
        timeout=120.0,
    )

    calls = [
        (int(pid), float(start), float(end))
        for pid, start, end in (line.split() for line in log_path.read_text().splitlines())
    ]
    assert len(calls) == TASKS
    pids = {pid for pid, _, _ in calls}
    assert len(pids) >= 2 and os.getpid() not in pids
    overlapping = [
        (a, b)
        for a in calls
        for b in calls
        if a[0] < b[0] and a[1] < b[2] and b[1] < a[2]
    ]
    assert overlapping, f"no two workers rendered at the same time: {sorted(calls)}"

    # coordination does not change the computed image
    assert image_rms_difference(extract_image(backend), render(scene, camera)) == 0.0
