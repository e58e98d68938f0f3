"""Chaos through the front door: node death under multi-tenant load.

``tests/apps/test_service_chaos.py`` pins node-death survival at the service
boundary; this file pins it end to end through the gateway.  Two tenants
stream frames over the wire while a chaos thread SIGKILLs a distributed
node worker mid-frame.  The farm must not lose a single request: every
frame comes back pixel-identical to the one-shot oracle (atol 1e-9), the
recovery is visible in the gateway's metrics document, and the tenant whose
scene was *not* under chaos keeps a bounded queue-wait p95 — a node death
in one tenant's slot never turns into another tenant's outage.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps import (
    GatewayClient,
    RenderGateway,
    TenantPolicy,
    decode_image,
    run_raytracing_farm,
    scene_from_spec,
)
from repro.snet.runtime import DistributedRuntime

SIZE = 32
TASKS = 8
FRAMES_PER_TENANT = 3

# tenant "vfx" renders the scene whose node workers get killed;
# tenant "archviz" renders a different scene and must stay unharmed
VFX_SPEC = {"kind": "random", "num_spheres": 12, "clustering": 0.5, "seed": 21}
ARCHVIZ_SPEC = {"kind": "random", "num_spheres": 10, "clustering": 0.5, "seed": 22}

pytestmark = [
    pytest.mark.usefixtures("no_process_leaks"),
    pytest.mark.skipif(
        not DistributedRuntime.fork_available(), reason="needs the fork start method"
    ),
]


@pytest.fixture(scope="module")
def oracles():
    """One-shot reference frames: same farm, no gateway, no chaos."""
    frames = {}
    for tenant, spec in (("vfx", VFX_SPEC), ("archviz", ARCHVIZ_SPEC)):
        run = run_raytracing_farm(
            "static", width=SIZE, height=SIZE, nodes=2, tasks=TASKS,
            scene=scene_from_spec(spec), render_mode="fused",
        )
        frames[tenant] = run.image
    return frames


def test_node_death_mid_frame_is_invisible_to_both_tenants(oracles):
    gateway = RenderGateway(
        runtime="distributed",
        width=SIZE,
        height=SIZE,
        render_mode="fused",
        runtime_options={"nodes": 2},
        max_scenes=2,
        max_queue=16,
        tenants={
            "vfx": TenantPolicy(weight=1.0, max_pending=FRAMES_PER_TENANT),
            "archviz": TenantPolicy(weight=1.0, max_pending=FRAMES_PER_TENANT),
        },
    )
    with gateway:
        service = gateway.service
        stop = threading.Event()
        killed = []

        def killer():
            # kill the first node worker that appears — that is the slot of
            # whichever tenant's job forked first, mid-frame when the timing
            # lands there, between fork and run otherwise
            deadline = time.monotonic() + 60.0
            while not stop.is_set() and time.monotonic() < deadline:
                for slot in list(service._slots.values()):
                    pids = list(getattr(slot.runtime, "worker_pids", []))
                    if pids:
                        try:
                            os.kill(pids[0], signal.SIGKILL)
                        except ProcessLookupError:  # pragma: no cover
                            return
                        killed.append(pids[0])
                        return
                time.sleep(0.002)

        replies = {"vfx": [], "archviz": []}
        errors = []

        def tenant_stream(tenant, spec):
            try:
                with GatewayClient(gateway.host, gateway.port,
                                   timeout=300.0) as client:
                    for i in range(FRAMES_PER_TENANT):
                        replies[tenant].append(client.render(
                            spec, tenant=tenant, tasks=TASKS, nodes=2,
                            label=f"{tenant}/{i}", return_image=True,
                        ))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((tenant, exc))

        chaos = threading.Thread(target=killer, name="gateway-chaos-killer")
        streams = [
            threading.Thread(target=tenant_stream, args=(t, s), name=f"tenant-{t}")
            for t, s in (("vfx", VFX_SPEC), ("archviz", ARCHVIZ_SPEC))
        ]
        chaos.start()
        for thread in streams:
            thread.start()
        for thread in streams:
            thread.join(300.0)
        stop.set()
        chaos.join(10.0)

        assert not errors, f"tenant streams failed: {errors}"
        assert killed, "the chaos thread never saw a node worker to kill"

        # zero lost requests: every frame of both tenants came back ok and
        # pixel-identical to its oracle
        for tenant in ("vfx", "archviz"):
            assert len(replies[tenant]) == FRAMES_PER_TENANT
            for i, reply in enumerate(replies[tenant]):
                assert reply["status"] == "ok", (tenant, i, reply)
                np.testing.assert_allclose(
                    decode_image(reply), oracles[tenant], atol=1e-9,
                    err_msg=f"{tenant} frame {i} diverged after node death",
                )

        with GatewayClient(gateway.host, gateway.port) as client:
            doc = client.metrics()
        svc = doc["service"]
        # the survived death is visible at the front door
        assert svc["node_recoveries"] >= 1
        for tenant in ("vfx", "archviz"):
            assert doc["gateway"]["tenants"][tenant]["served"] == FRAMES_PER_TENANT
            assert svc["tenants"][tenant]["served"] == FRAMES_PER_TENANT
        # the tenant whose slot was not under chaos saw bounded queue waits:
        # recovery of the other tenant's node must not look like an outage
        # (its frames can queue behind the recovering frame, but never hang)
        archviz_p95 = svc["tenants"]["archviz"]["queue_wait"]["p95"]
        assert archviz_p95 < 45.0, (
            f"unaffected tenant queued {archviz_p95:.1f}s at p95 — the node "
            "death bled into an outage for the other tenant"
        )
