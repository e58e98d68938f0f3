"""The paper's static fork-join ray tracer (Fig. 2), rendering a real image.

Builds the ``splitter .. solver!@<node> .. merger .. genImg`` network over
the real render backend, runs it on a selectable runtime backend, verifies
the result against a sequential render and writes the picture to
``raytraced.ppm``.

Run with:  python examples/raytracing_static.py [width] [height] [runtime] [mode]

where ``runtime`` is ``threaded`` (default), ``process`` or
``distributed``; the process backend executes the solver boxes on a forked
worker pool and is the one that shows real wall-clock speedup on a
multi-core host, while the distributed backend honours the network's
``solver !@ <node>`` placement for real — each ``<node>`` tag value's
solver replica runs on its own forked compute-node process.  ``mode`` is
``fused`` (default, NumPy ray packets over the flat BVH) or ``scalar``
(the per-pixel oracle, one ray at a time).
"""

import sys
import time

from repro.apps import run_raytracing_farm
from repro.raytracer import Camera, random_scene, render, to_ppm
from repro.raytracer.image import image_rms_difference
from repro.raytracer.tracer import DEFAULT_RENDER_MODE
from repro.snet.runtime import ProcessRuntime, Tracer


def main(
    width: int = 96,
    height: int = 96,
    runtime: str = "threaded",
    mode: str = DEFAULT_RENDER_MODE,
) -> None:
    scene = random_scene(num_spheres=40, clustering=0.5, seed=7)
    camera = Camera(width=width, height=height)

    # sequential reference (Algorithm 1 of the paper), same render mode
    t0 = time.perf_counter()
    reference = render(scene, camera, mode=mode)
    sequential_time = time.perf_counter() - t0

    # the S-Net coordinated version: 4 abstract nodes, 8 sections
    tracer = Tracer()
    run = run_raytracing_farm(
        "static",
        runtime=runtime,
        width=width,
        height=height,
        nodes=4,
        tasks=8,
        scene=scene,
        runtime_options={"tracer": tracer},
        timeout=300.0,
        render_mode=mode,
    )

    difference = image_rms_difference(run.image, reference)
    if runtime == "process" and not ProcessRuntime.fork_available():
        process_note = "process runtime WITHOUT fork support: degraded to threads"
    else:
        process_note = "process runtime; solver boxes run on a forked worker pool"
    note = {
        "threaded": "threaded runtime; the GIL prevents real speed-ups in pure Python",
        "process": process_note,
        "distributed": "distributed runtime; solver partitions run on forked "
        "compute-node processes, one per <node> tag value",
    }.get(runtime, runtime)
    print(f"sequential render : {sequential_time:6.2f} s ({mode} mode)")
    print(f"S-Net coordinated : {run.seconds:6.2f} s ({note})")
    print(f"pixel difference  : {difference:.2e} (must be 0: same algorithm, same image)")
    print(f"rays cast         : {run.rays_cast}")
    print(f"records traced    : {tracer.count('consume')} consumed, "
          f"{tracer.count('produce')} produced")

    with open("raytraced.ppm", "wb") as handle:
        handle.write(to_ppm(run.image))
    print("wrote raytraced.ppm")


if __name__ == "__main__":
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    height = int(sys.argv[2]) if len(sys.argv) > 2 else 96
    runtime = sys.argv[3] if len(sys.argv) > 3 else "threaded"
    mode = sys.argv[4] if len(sys.argv) > 4 else DEFAULT_RENDER_MODE
    main(width, height, runtime, mode)
