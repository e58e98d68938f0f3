"""Ablation A3 — BVH versus brute-force intersection.

The paper's solver uses a BVH "to enable efficient ray tracing" (built by
Goldsmith–Salmon insertion there; top-down under the same surface-area cost
model here, see ``repro.raytracer.bvh``).  This benchmark measures the real
(wall-clock) effect of the BVH on the Python tracer for a small render, and
checks that the acceleration structure does not change the image.
"""

import numpy as np

from repro.raytracer import Camera, random_scene, render
from repro.raytracer.bvh import BruteForceIndex
from repro.raytracer.flatbvh import FlatBVH
from repro.raytracer.image import image_rms_difference
from repro.raytracer.ray import Ray
from repro.raytracer.vec import vec3


def _intersection_workload(index, rays):
    hits = 0
    for ray in rays:
        primitive, _ = index.intersect(ray)
        if primitive is not None:
            hits += 1
    return hits


def test_bvh_versus_brute_force(benchmark):
    scene = random_scene(num_spheres=120, clustering=0.4, seed=3)
    primitives = scene.bounded_objects
    bvh = FlatBVH.build(primitives)
    brute = BruteForceIndex(primitives)

    rng = np.random.default_rng(1)
    rays = [
        Ray(vec3(0, 1, 5), vec3(*(rng.random(3) * 2 - 1))) for _ in range(400)
    ]

    bvh_hits = benchmark.pedantic(
        _intersection_workload, args=(bvh, rays), rounds=3, iterations=1
    )
    brute_hits = _intersection_workload(brute, rays)

    # identical results...
    assert bvh_hits == brute_hits
    # ...with far fewer primitive intersection tests
    assert bvh.stats.primitive_tests < brute.stats.primitive_tests * 0.5


def test_bvh_renders_identical_image():
    camera = Camera(position=vec3(0, 0.5, 4), look_at=vec3(0, 0, -2), width=16, height=16)
    with_bvh = render(random_scene(num_spheres=30, seed=11, use_bvh=True), camera)
    without_bvh = render(random_scene(num_spheres=30, seed=11, use_bvh=False), camera)
    assert image_rms_difference(with_bvh, without_bvh) < 1e-12


def test_flat_versus_brute_packet_traversal(benchmark, bench_json):
    """Ablation A3b — packet traversal with and without the flat BVH.

    Same scene, same ray packet, two traversals: the brute-force linear
    scan and the flat SoA traversal of the fused render path.
    Both must agree exactly (hit parameters bit-identical, hit primitives
    identical); the flat traversal must beat the linear scan.
    """
    import time

    from repro.raytracer.vec import normalize_rows

    scene = random_scene(num_spheres=800, clustering=0.4, seed=3)
    primitives = scene.bounded_objects
    flat = FlatBVH.build(primitives)
    brute = BruteForceIndex(primitives)

    rng = np.random.default_rng(2)
    n_rays = 4096
    origins = np.tile(np.array([0.0, 1.0, 5.0]), (n_rays, 1))
    directions = normalize_rows(
        np.array([0.0, -0.2, -1.0]) + rng.uniform(-0.6, 0.6, (n_rays, 3))
    )

    def timed(index):
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            result = index.intersect_packet(origins, directions)
            best = min(best, time.perf_counter() - t0)
        return best, result

    brute_s, (bi, bt) = timed(brute)
    flat_s, (fi, ft) = benchmark.pedantic(timed, args=(flat,), rounds=1, iterations=1)

    # identical hits: brute enumerates scene order, flat its leaf-slot
    # order, so compare hit parameters exactly and primitives by identity
    assert np.array_equal(bt, ft)
    hits = (bi >= 0).nonzero()[0]
    assert all(
        flat.packet_primitives[fi[r]] is brute.primitives[bi[r]] for r in hits
    )

    bench_json(
        "flat_bvh_ablation",
        {
            "rays": n_rays,
            "spheres": len(primitives),
            "brute_seconds": brute_s,
            "flat_seconds": flat_s,
            "flat_vs_brute_speedup": brute_s / flat_s,
        },
    )
    print(
        f"\npacket traversal: brute {brute_s:.4f}s, flat {flat_s:.4f}s "
        f"({brute_s / flat_s:.2f}x vs brute)"
    )
    assert flat_s <= brute_s
