"""The serving process of one benchmark workload (a child of ``run.py``).

Runs the program under test in a process of its own, so that its memory and
CPU are the workload's alone and a cold start is a real one.  The parent
speaks JSON lines over stdin/stdout: one command in, one reply out.

``gateway`` mode starts the shipped front door
(``RenderGateway(runtime="process", render_mode="fused")``, everything else
default) and then only answers control commands — requests arrive over the
gateway's own socket.  ``animation`` mode holds an in-process
``RenderService`` and the edited scene, and runs blocks of edit+render frames
on command (the wire protocol cannot carry in-place edits).
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from e2e_trace import Recorder  # noqa: E402
from e2e_workloads import (  # noqa: E402
    Workload, animation_scene, camera_of, commit_mover_edit, mover_rng)
from repro.apps.gateway import RenderGateway  # noqa: E402
from repro.apps.service import RenderJob, RenderService  # noqa: E402
from repro.raytracer.tracer import render  # noqa: E402

JOB_TIMEOUT = 120.0


class GatewayServer:
    """The front door on the shipped configuration."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.gateway: Any = None

    def start(self, _cmd: Dict[str, Any]) -> Dict[str, Any]:
        self.gateway = RenderGateway(
            runtime="process", width=self.workload.width,
            height=self.workload.height, render_mode="fused",
        ).start()
        return {"host": self.gateway.host, "port": self.gateway.port}

    def close(self) -> None:
        if self.gateway is not None:
            time.sleep(0.05)  # let the event loop see the client's EOF first
            self.gateway.close()


class AnimationServer:
    """An in-process service rendering one scene that is edited between frames."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.service: Any = None
        self.snapshots: List[Any] = []

    def _job(self) -> RenderJob:
        w = self.workload
        return RenderJob(self.scene, nodes=w.nodes, tasks=w.tasks, variant=w.variant)

    def start(self, _cmd: Dict[str, Any]) -> Dict[str, Any]:
        w = self.workload
        self.scene, self.movers, self.homes = animation_scene(w, self.seed)
        self.rng = mover_rng(self.seed)
        self.service = RenderService(
            "process", width=w.width, height=w.height, render_mode="fused"
        )
        # the first commit switches the scene's journal (and with it tile
        # capture) on; the first frame is the cold build
        commit_mover_edit(self.scene, self.movers, self.homes, self.rng)
        self.service.render(self._job(), timeout=JOB_TIMEOUT)
        return {}

    def frames(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        """Run ``n`` frames: commit one mover edit, render, repeat."""
        columns = ("t0", "t_commit", "t1", "seconds", "queued_seconds", "warm",
                   "tiles_reused", "rays_saved", "rays_cast", "bytes_pickled")
        out: Dict[str, List[Any]] = {name: [] for name in columns}
        failed, result = 0, None
        for _ in range(int(cmd["n"])):
            t0 = time.perf_counter()
            try:
                commit_mover_edit(self.scene, self.movers, self.homes, self.rng)
                t_commit = time.perf_counter()
                result = self.service.render(self._job(), timeout=JOB_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                print(f"frame failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            row = (t0, t_commit, time.perf_counter(), result.seconds,
                   result.queued_seconds, result.warm, result.tiles_reused,
                   result.rays_saved, result.rays_cast, result.bytes_pickled)
            for name, value in zip(columns, row):
                out[name].append(value)
        if result is not None:  # the block's last frame, checked after the timed phase
            self.snapshots.append((pickle.dumps(self.scene), np.array(result.image)))
        return {"frames": out, "failed": failed}

    def verify(self, _cmd: Dict[str, Any]) -> Dict[str, Any]:
        """Kept frames against a one-shot serial render of their snapshot."""
        w = self.workload
        mismatched = 0
        for blob, image in self.snapshots:
            snapshot = pickle.loads(blob)
            reference = render(snapshot, camera_of(w, snapshot), mode="fused")
            if image.shape != reference.shape or not np.allclose(image, reference, atol=1e-9):
                mismatched += 1
        return {"checked": len(self.snapshots), "mismatched": mismatched}

    def metrics(self, _cmd: Dict[str, Any]) -> Dict[str, Any]:
        return {"service": self.service.observability()}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def main() -> int:
    mode, workload_json, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    workload = Workload(**json.loads(workload_json))
    server = (GatewayServer if mode == "gateway" else AnimationServer)(workload, seed)
    recorder = Recorder()

    def reply(payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    # Fork workers close ``sys.stdin`` on start; were it the pipe this loop is
    # blocked on, they would inherit its buffer lock mid-read and hang.
    commands = os.fdopen(os.dup(0))
    sys.stdin = open(os.devnull)
    reply({"ready": True})
    try:
        for line in commands:
            cmd = json.loads(line)
            name = cmd["cmd"]
            if name == "close":
                break
            if name == "trace":
                recorder.install() if cmd["on"] else recorder.uninstall()
                reply({})
            elif name == "spans":
                reply({"spans": recorder.drain()})
            else:
                reply(getattr(server, name)(cmd))
    finally:
        server.close()
    reply({"closed": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
