"""A persistent render farm serving an animation from warm runtimes.

One-shot farm runs (`run_raytracing_farm`) pay the full setup — BVH build,
process-pool fork, scene broadcast, shared-frame registration — before every
frame.  The `RenderService` pays it once per *scene* and serves every later
job on that scene from a warm slot: same pool, same broadcast handle, same
shared frame buffer.

This demo streams a looping animation (`animation_scenes`: a mirror sphere
orbiting the paper-style sphere cloud) through the service twice.  The first
pass builds one warm slot per keyframe (cold); the second pass replays
content-identical frames and is served entirely from the scene cache — watch
the per-frame wall-clock drop and the warm-hit metrics climb.

Run with:  python examples/render_service.py [width] [height] [runtime] [frames] [loops]

where ``runtime`` is ``threaded`` (default) or ``process``.
"""

import sys

from repro.apps import RenderJob, RenderService, animation_scenes


def main(
    width: int = 64,
    height: int = 64,
    runtime: str = "threaded",
    frames: int = 3,
    loops: int = 2,
) -> None:
    service = RenderService(
        runtime,
        width=width,
        height=height,
        max_scenes=frames,
        runtime_options={"workers": 2} if runtime == "process" else None,
    )
    print(f"render service up: {runtime} runtime, {width}x{height}, "
          f"cache for {frames} scenes")
    with service:
        for loop in range(loops):
            # submit the whole pass up front: the bounded queue applies
            # backpressure, the scheduler serves FIFO within priority
            futures = [
                service.submit(RenderJob(frame, nodes=2, tasks=4,
                                         label=f"loop{loop}/frame{i}"))
                # rebuild=True: independent keyframe scenes, so all frames
                # can be submitted up front (the in-place AnimationSequence
                # mutates one scene and must be rendered frame by frame)
                for i, frame in enumerate(animation_scenes(frames, rebuild=True))
            ]
            for future in futures:
                result = future.result(timeout=300.0)
                kind = "warm" if result.warm else "cold"
                print(f"  {result.job.label}: {kind:4s}  "
                      f"render {result.seconds:6.3f}s  "
                      f"(queued {result.queued_seconds:.3f}s, "
                      f"{result.rays_cast} rays)")
        metrics = service.metrics()
        print(f"served {metrics.jobs_served} jobs: "
              f"{metrics.warm_hits} warm / {metrics.cold_builds} cold "
              f"(hit rate {metrics.warm_hit_rate:.0%}), "
              f"setup seconds saved {metrics.setup_seconds_saved:.2f}")
    print(f"service state after close: {service.state}")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(
        int(args[0]) if len(args) > 0 else 64,
        int(args[1]) if len(args) > 1 else 64,
        args[2] if len(args) > 2 else "threaded",
        int(args[3]) if len(args) > 3 else 3,
        int(args[4]) if len(args) > 4 else 2,
    )
