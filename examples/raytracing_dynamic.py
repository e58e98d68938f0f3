"""Dynamic load balancing with node tokens (Fig. 4), end to end.

Shows the paper's headline methodology claim: switching from static to
dynamic scheduling changes *only* the coordination layer — the solver segment
of Fig. 4 replaces ``solver!@<node>`` — while the box code and the rest of
the network stay untouched, and the rendered image is identical.  Both
variants run on the same runtime backend, selectable by name, so the
comparison also demonstrates that the choice of execution strategy is
orthogonal to the coordination structure.

Run with:  python examples/raytracing_dynamic.py [runtime] [width] [height]

where ``runtime`` is ``threaded`` (default) or ``process``.
"""

import sys

from repro.apps import run_raytracing_farm
from repro.raytracer import Camera, random_scene, render
from repro.raytracer.image import image_rms_difference
from repro.scheduling import FactoringScheduler


def main(runtime: str = "threaded", width: int = 64, height: int = 64) -> None:
    scene = random_scene(num_spheres=30, clustering=0.7, seed=13)
    camera = Camera(width=width, height=height)
    # the scalar oracle (Algorithm 1 verbatim); the farms below run the
    # default vectorized solver, which matches it to within 1e-9
    reference = render(scene, camera, mode="scalar")

    # static variant: every section is pre-assigned to a node
    static = run_raytracing_farm(
        "static", runtime=runtime, width=width, height=height, nodes=4, tasks=8, scene=scene
    )

    # dynamic variant: 8 sections, only 4 initial tokens; sections queue for
    # a node token released by each finished section (Fig. 4)
    dynamic = run_raytracing_farm(
        "dynamic",
        runtime=runtime,
        width=width,
        height=height,
        nodes=4,
        tasks=8,
        tokens=4,
        scene=scene,
        scheduler=FactoringScheduler(num_tasks=8),
    )

    print(f"runtime backend       : {runtime}")
    print("static  vs scalar     :", image_rms_difference(static.image, reference))
    print("dynamic vs scalar     :", image_rms_difference(dynamic.image, reference))
    print("static  vs dynamic    :", image_rms_difference(static.image, dynamic.image))
    print("-> the coordination change did not alter the computed image")


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "threaded",
        int(sys.argv[2]) if len(sys.argv) > 2 else 64,
        int(sys.argv[3]) if len(sys.argv) > 3 else 64,
    )
