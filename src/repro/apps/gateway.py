"""The production front door: an asyncio gateway over :class:`RenderService`.

The paper's runtime was driven by a single benchmark loop; a farm serving
many tenants needs an *admission layer* in front of the service.  This
module adds one with stdlib asyncio only — no HTTP framework — speaking
newline-delimited JSON over TCP (one JSON object per line, responses
correlated by an echoed ``id``, pipelining allowed):

* **per-tenant token-bucket quotas** — each tenant is admitted at its
  configured rate/burst (:class:`TokenBucket`); over-rate requests are
  *rejected immediately* with a structured ``retry_after`` instead of
  queueing, so a flooding tenant cannot grow the queue for everyone else;
* **bounded per-tenant concurrency** — at most ``max_pending`` jobs of one
  tenant may be in flight through the gateway;
* **weighted-fair scheduling** — admitted jobs carry their tenant into
  :class:`~repro.apps.service.RenderService`, whose
  :class:`~repro.apps.service.WeightedFairQueue` dispatches across tenants
  by weight (``TenantPolicy.weight``), never starving a backlogged tenant;
* **admission control, never blocking** — the gateway requires the
  service's ``overflow="reject"`` policy: a full service queue surfaces as
  a structured rejection with ``retry_after``, not a blocked event loop;
* **observability** — the ``metrics`` op returns the gateway's admission
  counters plus the service's full
  :meth:`~repro.apps.service.RenderService.observability` payload
  (per-stage latency histograms, per-tenant queue depths, warm-pool,
  recovery and temporal-tile-cache counters — the ``incremental`` section's
  ``tiles_reused``/``rays_saved``) as one JSON document; render responses
  carry the same two counters per job.

Wire protocol (all examples are single lines)::

    -> {"op": "render", "id": 1, "tenant": "alice",
        "scene": {"kind": "random", "num_spheres": 8, "seed": 5},
        "tasks": 4, "nodes": 2, "priority": 0, "return_image": false}
    <- {"status": "ok", "id": 1, "tenant": "alice", "warm": true,
        "seconds": 0.04, "queued_seconds": 0.01, "scene_key": "...",
        "image_sha256": "...", "shape": [24, 24, 3]}

    -> {"op": "render", "id": 2, "tenant": "flood", ...}
    <- {"status": "rejected", "id": 2, "error": "rate_limited",
        "retry_after": 0.31}

    -> {"op": "metrics", "id": 3}
    <- {"status": "ok", "id": 3, "gateway": {...}, "service": {...}}

Scenes travel as :func:`repro.apps.workloads.scene_from_spec` dicts —
content-deterministic, so the same spec from any connection lands on the
same warm-pool slot.  ``return_image: true`` adds the frame itself
(``image_b64``: base64 of the float64 pixel buffer) for pixel-exactness
checks; by default only the SHA-256 of the pixels crosses the wire.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import math
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.apps.service import RenderJob, RenderService, ServiceOverloaded
from repro.apps.workloads import scene_from_spec

__all__ = [
    "TenantPolicy",
    "TokenBucket",
    "RenderGateway",
    "GatewayClient",
    "decode_image",
]


@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy of one tenant at the gateway.

    ``weight`` feeds the service's weighted-fair dispatch; ``rate``/``burst``
    parameterize the token bucket (``rate=None`` disables rate limiting);
    ``max_pending`` bounds the tenant's jobs in flight through the gateway.
    """

    weight: float = 1.0
    rate: Optional[float] = None
    burst: float = 8.0
    max_pending: int = 8

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None for unlimited)")
        if self.burst < 1:
            raise ValueError("burst must be at least 1 token")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")


class TokenBucket:
    """A token bucket: ``rate`` tokens/second up to a ``burst`` ceiling.

    ``try_acquire`` never blocks: it either consumes a token or returns the
    *finite* number of seconds after which the same request will succeed —
    the contract behind the gateway's structured ``retry_after`` rejections
    (``tests/apps/test_fairness.py`` pins it for random rates and request
    patterns).  The clock is injectable so quota behaviour is testable
    without sleeping.

    >>> clock = iter([0.0, 0.0, 0.0, 2.0]).__next__
    >>> bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
    >>> bucket.try_acquire()
    (True, 0.0)
    >>> granted, retry = bucket.try_acquire()  # bucket empty at t=0
    >>> granted, retry
    (False, 1.0)
    >>> bucket.try_acquire()  # t=2.0: refilled
    (True, 0.0)
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: float = 8.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for unlimited)")
        if burst < 1:
            raise ValueError("burst must be at least 1 token")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def try_acquire(self, tokens: float = 1.0) -> Tuple[bool, float]:
        """Consume ``tokens`` if available: ``(granted, retry_after_seconds)``."""
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        if self.rate is None:
            return True, 0.0
        if tokens > self.burst:
            raise ValueError(
                f"requested {tokens} tokens exceeds the burst ceiling "
                f"{self.burst}: this request could never be admitted"
            )
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now
        # grant within a nanotoken tolerance: clock/rate float rounding must
        # never turn an honored retry_after hint into a second denial
        if self._tokens + 1e-9 >= tokens:
            self._tokens = max(0.0, self._tokens - tokens)
            return True, 0.0
        deficit = tokens - self._tokens
        retry = deficit / self.rate
        # the hint must be *sufficient*: waiting exactly retry seconds has to
        # refill the deficit, so nudge up until the product survives rounding
        while retry * self.rate < deficit:
            retry = math.nextafter(retry, math.inf)
        return False, retry


#: longest request line the gateway reads (asyncio's default stream limit);
#: a longer line is refused with ``bad_request`` and skipped
_LINE_LIMIT = 2 ** 16


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard the stream up to and including the next newline."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


def decode_image(response: Dict[str, Any]) -> np.ndarray:
    """Decode the ``image_b64`` payload of a ``return_image`` response."""
    if "image_b64" not in response:
        raise ValueError("response carries no image; request return_image=true")
    raw = base64.b64decode(response["image_b64"])
    return np.frombuffer(raw, dtype=np.float64).reshape(response["shape"]).copy()


class RenderGateway:
    """Asyncio TCP front door translating JSON requests into service futures.

    The gateway owns (or wraps) a :class:`RenderService` whose ``overflow``
    policy must be ``"reject"`` — admission decisions must never block the
    event loop.  Constructed with ``service=None`` it builds its own service
    from ``service_kwargs``, deriving ``tenant_weights`` from the tenant
    policies.  The server runs on a dedicated thread; :meth:`start` returns
    once the socket is listening (``gateway.port`` is then bound, supporting
    ``port=0`` ephemeral ports), and :meth:`close` stops accepting, lets
    in-flight requests drain, and closes an owned service.  Use as a context
    manager::

        with RenderGateway(width=24, height=24,
                           tenants={"a": TenantPolicy(weight=3.0)}) as gw:
            reply = GatewayClient(gw.host, gw.port).render(
                {"kind": "random", "num_spheres": 4}, tenant="a")
    """

    def __init__(
        self,
        service: Optional[RenderService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = None,
        drain_timeout: float = 30.0,
        scene_cache_size: int = 32,
        **service_kwargs: Any,
    ):
        self._policies = dict(tenants or {})
        self._default_policy = default_policy or TenantPolicy()
        if service is None:
            service_kwargs.setdefault(
                "tenant_weights",
                {name: policy.weight for name, policy in self._policies.items()},
            )
            service_kwargs.setdefault("overflow", "reject")
            service = RenderService(**service_kwargs)
            self._owns_service = True
        else:
            if service_kwargs:
                raise ValueError(
                    "service_kwargs are only accepted when the gateway builds "
                    "its own service"
                )
            self._owns_service = False
        if service.overflow != "reject":
            raise ValueError(
                "the gateway requires a RenderService with overflow='reject': "
                "admission control must reject with retry-after, not block "
                "the event loop"
            )
        self.service = service
        self.host = host
        self.port = port  # rebound to the real port once listening
        self._drain_timeout = drain_timeout
        self._scene_cache: "OrderedDict[str, Any]" = OrderedDict()
        self._scene_cache_size = scene_cache_size

        # event-loop-confined state (handlers run on the loop thread only)
        self._buckets: Dict[str, TokenBucket] = {}
        self._pending: Dict[str, int] = {}
        self._tenant_counters: Dict[str, Dict[str, int]] = {}
        self._avg_seconds = 0.05  # EMA of served job seconds (retry hints)
        self._requests = 0
        self._rejected = 0
        self._errors = 0

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        # open connections (handler task -> its writer) and in-flight requests
        self._connections: "Dict[asyncio.Task, asyncio.StreamWriter]" = {}
        self._in_flight: "set[asyncio.Task]" = set()
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "RenderGateway":
        """Start serving; returns once the socket is listening."""
        if self._thread is not None:
            return self
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(started)),
            name="render-gateway",
            daemon=True,
        )
        self._thread.start()
        if not started.wait(30.0):
            raise RuntimeError("gateway failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join(5.0)
            raise RuntimeError("gateway failed to start") from self._startup_error
        return self

    def close(self, timeout: float = 60.0) -> None:
        """Stop accepting, drain in-flight requests, close an owned service."""
        if self._thread is not None and self._thread.is_alive():
            assert self._loop is not None and self._stop is not None
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout)
        if self._owns_service:
            self.service.close(timeout=timeout)

    def __enter__(self) -> "RenderGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    async def _main(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=_LINE_LIMIT
            )
        except BaseException as exc:
            self._startup_error = exc
            started.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        started.set()
        async with server:
            await self._stop.wait()
            server.close()  # stop accepting
            # graceful drain: in-flight requests finish their replies, then
            # every connection is closed from this end.  Waiting for the
            # client's EOF instead could take the whole timeout: a node
            # worker forked while a connection was open holds a copy of the
            # client's socket, so a client that closed it sends no EOF.
            if self._in_flight:
                await asyncio.wait(set(self._in_flight), timeout=self._drain_timeout)
            for writer in self._connections.values():
                writer.close()  # the reader sees EOF; buffered replies still go out
            if self._connections:
                await asyncio.wait(set(self._connections), timeout=self._drain_timeout)

    # -- connection handling ---------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
            task.add_done_callback(lambda done: self._connections.pop(done, None))
        write_lock = asyncio.Lock()
        request_tasks: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: a last unterminated line, or b""
                except asyncio.LimitOverrunError:
                    # a line longer than the stream buffer: refuse it, skip
                    # the rest of it and keep serving the connection
                    await self._reply(
                        writer, write_lock,
                        {"status": "error", "error": "bad_request",
                         "message": f"request line exceeds {_LINE_LIMIT} bytes"},
                    )
                    await _skip_line(reader)
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                # pipelining: each request is served concurrently; responses
                # are correlated by the echoed id, not by ordering
                sub = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                for tasks in (request_tasks, self._in_flight):
                    tasks.add(sub)
                    sub.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            if request_tasks:
                await asyncio.wait(request_tasks, timeout=self._drain_timeout)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except ValueError:
            await self._reply(
                writer, write_lock,
                {"status": "error", "error": "bad_request",
                 "message": "each line must be one JSON object"},
            )
            return
        response = await self._dispatch(payload)
        if payload.get("id") is not None:
            response.setdefault("id", payload["id"])
        await self._reply(writer, write_lock, response)

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Dict[str, Any],
    ) -> None:
        data = json.dumps(response, separators=(",", ":")).encode() + b"\n"
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- request dispatch -------------------------------------------------------
    async def _dispatch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op", "render")
        self._requests += 1
        if op == "ping":
            return {"status": "ok", "pong": True}
        if op == "metrics":
            return {
                "status": "ok",
                "gateway": self.gateway_metrics(),
                "service": self.service.observability(),
            }
        if op == "render":
            return await self._render(payload)
        self._errors += 1
        return {
            "status": "error",
            "error": "unknown_op",
            "message": f"unknown op {op!r}; supported: render, metrics, ping",
        }

    def _policy(self, tenant: str) -> TenantPolicy:
        return self._policies.get(tenant, self._default_policy)

    def _counters(self, tenant: str) -> Dict[str, int]:
        return self._tenant_counters.setdefault(
            tenant,
            {"requests": 0, "admitted": 0, "served": 0, "failed": 0,
             "rejected_rate": 0, "rejected_pending": 0, "rejected_overload": 0},
        )

    def _reject(
        self, tenant: str, error: str, retry_after: float, counter: str
    ) -> Dict[str, Any]:
        self._rejected += 1
        self._counters(tenant)[counter] += 1
        return {
            "status": "rejected",
            "tenant": tenant,
            "error": error,
            # a finite, positive hint: clients always know when to come back
            # (rounded *up* to the microsecond so honoring it is sufficient)
            "retry_after": math.ceil(max(0.001, retry_after) * 1e6) / 1e6,
        }

    async def _render(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant = str(payload.get("tenant", "default"))
        policy = self._policy(tenant)
        counters = self._counters(tenant)
        counters["requests"] += 1

        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(policy.rate, policy.burst)
        granted, retry_after = bucket.try_acquire()
        if not granted:
            return self._reject(tenant, "rate_limited", retry_after,
                                "rejected_rate")
        if self._pending.get(tenant, 0) >= policy.max_pending:
            return self._reject(
                tenant, "too_many_pending",
                self._avg_seconds * self._pending.get(tenant, 0),
                "rejected_pending",
            )

        try:
            scene = self._scene(payload.get("scene") or {})
            job = RenderJob(
                scene=scene,
                tenant=tenant,
                nodes=int(payload.get("nodes", 2)),
                tasks=int(payload.get("tasks", 4)),
                tokens=payload.get("tokens"),
                variant=str(payload.get("variant", "static")),
                priority=int(payload.get("priority", 0)),
                label=payload.get("label"),
            )
            future = self.service.submit(job)
        except ServiceOverloaded:
            backlog = self.service.metrics().queue_depth
            return self._reject(
                tenant, "service_overloaded",
                self._avg_seconds * max(1, backlog), "rejected_overload",
            )
        except (TypeError, ValueError) as exc:
            self._errors += 1
            return {"status": "error", "error": "bad_request",
                    "tenant": tenant, "message": str(exc)}

        counters["admitted"] += 1
        self._pending[tenant] = self._pending.get(tenant, 0) + 1
        try:
            result = await asyncio.wrap_future(future)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            counters["failed"] += 1
            self._errors += 1
            return {"status": "error", "error": "job_failed",
                    "tenant": tenant, "message": str(exc)}
        finally:
            remaining = self._pending.get(tenant, 1) - 1
            if remaining > 0:
                self._pending[tenant] = remaining
            else:
                self._pending.pop(tenant, None)

        counters["served"] += 1
        self._avg_seconds += 0.2 * (result.seconds - self._avg_seconds)
        pixels = np.ascontiguousarray(result.image)
        response: Dict[str, Any] = {
            "status": "ok",
            "tenant": tenant,
            "label": result.job.label,
            "warm": result.warm,
            "seconds": result.seconds,
            "queued_seconds": result.queued_seconds,
            "scene_key": result.scene_key,
            "rays_cast": result.rays_cast,
            "tiles_reused": result.tiles_reused,
            "rays_saved": result.rays_saved,
            "node_recoveries": result.node_recoveries,
            "shape": list(pixels.shape),
            "image_sha256": hashlib.sha256(pixels.tobytes()).hexdigest(),
        }
        if payload.get("return_image"):
            response["image_b64"] = base64.b64encode(pixels.tobytes()).decode()
        return response

    def _scene(self, spec: Dict[str, Any]) -> Any:
        """Build (or reuse) the scene for a spec.

        The cache only saves re-running the scene generator: warm-pool hits
        do not depend on it, because :func:`scene_content_key` hashes scene
        *content* and :func:`scene_from_spec` is content-deterministic.
        """
        cache_key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        scene = self._scene_cache.get(cache_key)
        if scene is None:
            scene = scene_from_spec(spec)
            self._scene_cache[cache_key] = scene
            while len(self._scene_cache) > self._scene_cache_size:
                self._scene_cache.popitem(last=False)
        else:
            self._scene_cache.move_to_end(cache_key)
        return scene

    # -- observability ----------------------------------------------------------
    def gateway_metrics(self) -> Dict[str, Any]:
        """The gateway-side admission counters (JSON-friendly).

        Note: mutated on the event-loop thread; calling from other threads
        yields a momentary view, which is what a metrics endpoint needs.
        """
        return {
            "requests": self._requests,
            "rejected": self._rejected,
            "errors": self._errors,
            "avg_render_seconds": self._avg_seconds,
            "pending": dict(self._pending),
            "tenants": {
                tenant: dict(counters)
                for tenant, counters in sorted(self._tenant_counters.items())
            },
        }


class GatewayClient:
    """A small synchronous client for the gateway's JSON-lines protocol.

    ``request`` is the simple call-response path; ``send``/``recv`` expose
    pipelining (fire many requests, then collect responses correlated by
    ``id``) for the load benchmarks.  One client per thread — the socket is
    not internally locked.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._ids = 0

    def send(self, payload: Dict[str, Any]) -> Any:
        """Fire one request without waiting; returns its correlation id."""
        if "id" not in payload:
            self._ids += 1
            payload = {**payload, "id": self._ids}
        self._sock.sendall(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        return payload["id"]

    def recv(self) -> Dict[str, Any]:
        """Read one response line (any outstanding id)."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Call-response convenience (no other requests may be outstanding)."""
        request_id = self.send(payload)
        response = self.recv()
        if response.get("id") not in (None, request_id):
            raise RuntimeError(
                f"out-of-band response {response.get('id')!r} while waiting "
                f"for {request_id!r}; use send()/recv() for pipelining"
            )
        return response

    def render(
        self, scene: Dict[str, Any], *, tenant: str = "default", **options: Any
    ) -> Dict[str, Any]:
        return self.request({"op": "render", "tenant": tenant,
                             "scene": scene, **options})

    def metrics(self) -> Dict[str, Any]:
        return self.request({"op": "metrics"})

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
