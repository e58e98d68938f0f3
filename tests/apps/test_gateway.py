"""Protocol, admission and observability tests for the render gateway.

Covers the JSON-lines wire contract (id correlation, pipelining, malformed
input), the admission ladder (token bucket → pending cap → service
backpressure, each rejecting with a finite structured ``retry_after``), and
the merged gateway/service metrics document.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.apps import (
    GatewayClient,
    RenderGateway,
    RenderJob,
    RenderService,
    TenantPolicy,
    TokenBucket,
    decode_image,
)

SCENE = {"kind": "random", "num_spheres": 4, "seed": 3}


def gate_first_execution(svc):
    """Hold the first executed job until the returned event is set."""
    gate = threading.Event()
    entered = threading.Event()
    original = svc._slot_for
    state = {"first": True}

    def gated(job):
        if state["first"]:
            state["first"] = False
            entered.set()
            assert gate.wait(30.0), "test gate never released"
        return original(job)

    svc._slot_for = gated
    return gate, entered


@pytest.fixture(scope="module")
def gateway():
    tenants = {
        "paid": TenantPolicy(weight=3.0),
        "throttled": TenantPolicy(weight=1.0, rate=0.001, burst=2),
        "narrow": TenantPolicy(weight=1.0, max_pending=1),
    }
    with RenderGateway(width=16, height=16, tenants=tenants,
                       max_scenes=4) as gw:
        yield gw


@pytest.fixture()
def client(gateway):
    with GatewayClient(gateway.host, gateway.port) as c:
        yield c


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True] * 3
        granted, retry = bucket.try_acquire()
        assert not granted and retry == pytest.approx(0.5)
        now[0] = retry  # exactly when the bucket said to come back
        assert bucket.try_acquire() == (True, 0.0)

    def test_tokens_cap_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2, clock=lambda: now[0])
        now[0] = 1000.0  # a long idle period must not bank > burst tokens
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True, True, False]

    def test_unlimited_rate(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_acquire() == (True, 0.0) for _ in range(1000))

    def test_impossible_request_is_an_error_not_a_wait(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        with pytest.raises(ValueError, match="never be admitted"):
            bucket.try_acquire(tokens=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestTenantPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [{"weight": 0.0}, {"rate": -1.0}, {"burst": 0}, {"max_pending": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantPolicy(**kwargs)


class TestWireProtocol:
    def test_ping(self, client):
        reply = client.ping()
        assert reply["status"] == "ok" and reply["pong"] is True

    def test_unknown_op(self, client):
        reply = client.request({"op": "dance"})
        assert reply["status"] == "error" and reply["error"] == "unknown_op"

    def test_malformed_line_gets_structured_error(self, gateway):
        with socket.create_connection((gateway.host, gateway.port)) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["status"] == "error" and reply["error"] == "bad_request"

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    def test_oversized_line_gets_structured_error(self, gateway, caplog, split):
        # a line past the 64 KiB stream limit used to escape the connection
        # handler as an unhandled ValueError: no reply, socket dropped.
        # "split" trips the limit before the line's newline has arrived.
        line = json.dumps({"op": "ping", "pad": "x" * 100_000}).encode() + b"\n"
        cut = 80_000 if split else len(line)
        with socket.create_connection((gateway.host, gateway.port)) as sock:
            sock.settimeout(30.0)
            replies = sock.makefile("rb")
            sock.sendall(line[:cut])
            reply = json.loads(replies.readline())
            assert reply["status"] == "error" and reply["error"] == "bad_request"
            assert "exceeds" in reply["message"]
            # the rest of the long line is skipped; the connection still serves
            sock.sendall(line[cut:] + b'{"op": "ping", "id": 7}\n')
            assert json.loads(replies.readline()) == {
                "status": "ok", "pong": True, "id": 7,
            }
        assert "Unhandled exception" not in caplog.text

    def test_bad_scene_spec(self, client):
        reply = client.render({"kind": "cubist"}, tenant="paid")
        assert reply["status"] == "error" and reply["error"] == "bad_request"
        assert "cubist" in reply["message"]

    def test_render_returns_metadata_and_digest(self, client):
        reply = client.render(SCENE, tenant="paid", label="frame-0")
        assert reply["status"] == "ok"
        assert reply["label"] == "frame-0"
        assert reply["shape"] == [16, 16, 3]
        assert len(reply["image_sha256"]) == 64
        assert "image_b64" not in reply  # pixels only on request
        assert reply["seconds"] > 0 and reply["queued_seconds"] >= 0

    def test_returned_image_matches_direct_service_render(self, client):
        reply = client.render(SCENE, tenant="paid", return_image=True)
        image = decode_image(reply)
        with RenderService("threaded", width=16, height=16) as svc:
            from repro.apps import scene_from_spec

            direct = svc.submit(RenderJob(scene_from_spec(SCENE))).result(60.0)
        np.testing.assert_allclose(image, direct.image, atol=1e-9)

    def test_decode_image_requires_image(self):
        with pytest.raises(ValueError, match="return_image"):
            decode_image({"status": "ok", "shape": [1, 1, 3]})

    def test_pipelined_responses_correlate_by_id(self, client):
        ids = [client.send({"op": "render", "tenant": "paid", "scene": SCENE,
                            "label": f"p{i}"})
               for i in range(4)]
        replies = {r["id"]: r for r in (client.recv() for _ in ids)}
        assert sorted(replies) == sorted(ids)
        for i, request_id in enumerate(ids):
            assert replies[request_id]["label"] == f"p{i}"

    def test_warm_sharing_across_connections_and_tenants(self, gateway):
        with GatewayClient(gateway.host, gateway.port) as first:
            a = first.render(SCENE, tenant="paid")
        with GatewayClient(gateway.host, gateway.port) as second:
            b = second.render(SCENE, tenant="narrow")
        assert b["warm"] is True
        assert b["scene_key"] == a["scene_key"]
        assert b["image_sha256"] == a["image_sha256"]


class TestAdmission:
    def test_rate_limited_tenant_gets_retry_after(self, client):
        replies = [client.render(SCENE, tenant="throttled") for _ in range(4)]
        statuses = [r["status"] for r in replies]
        assert statuses[:2] == ["ok", "ok"]  # burst of 2
        for rejected in replies[2:]:
            assert rejected["status"] == "rejected"
            assert rejected["error"] == "rate_limited"
            assert 0 < rejected["retry_after"] < 1001.0

    def test_pending_cap_rejects_not_queues(self, gateway):
        gate, entered = gate_first_execution(gateway.service)
        try:
            with GatewayClient(gateway.host, gateway.port) as c:
                first = c.send({"op": "render", "tenant": "narrow",
                                "scene": SCENE})
                assert entered.wait(30.0)
                second = c.send({"op": "render", "tenant": "narrow",
                                 "scene": SCENE})
                reply = c.recv()
                assert reply["id"] == second
                assert reply["status"] == "rejected"
                assert reply["error"] == "too_many_pending"
                assert reply["retry_after"] > 0
                gate.set()
                assert c.recv()["id"] == first
        finally:
            gate.set()

    def test_admission_counters_in_metrics(self, client):
        client.render(SCENE, tenant="paid")
        doc = client.metrics()
        gw, svc = doc["gateway"], doc["service"]
        paid = gw["tenants"]["paid"]
        assert paid["served"] >= 1
        assert paid["admitted"] >= paid["served"]
        throttled = gw["tenants"]["throttled"]
        assert throttled["rejected_rate"] >= 1
        # the service document is the full observability payload
        assert svc["tenants"]["paid"]["weight"] == 3.0
        assert svc["latency"]["queue_wait"]["count"] >= 1
        assert 0.0 <= svc["warm_hit_rate"] <= 1.0
        assert svc["warm_pool"]["slots"] >= 1


class TestServiceBackpressure:
    def test_overloaded_service_rejects_with_retry_after(self):
        with RenderGateway(width=16, height=16, max_queue=1) as gw:
            gate, entered = gate_first_execution(gw.service)
            try:
                with GatewayClient(gw.host, gw.port) as c:
                    first = c.send({"op": "render", "scene": SCENE})
                    ids = [c.send({"op": "render", "scene": SCENE})
                           for _ in range(3)]
                    assert entered.wait(30.0)
                    # queue depth counts the executing job, so while job 1
                    # is gated every further submit overflows: the three
                    # rejections come back before the render finishes
                    replies = [c.recv() for _ in ids]
                    assert all(r["status"] == "rejected" for r in replies)
                    assert all(r["error"] == "service_overloaded"
                               for r in replies)
                    assert all(r["retry_after"] > 0 for r in replies)
                    assert sorted(r["id"] for r in replies) == sorted(ids)
                    gate.set()
                    done = c.recv()
                    assert done["id"] == first and done["status"] == "ok"
            finally:
                gate.set()

    def test_gateway_refuses_blocking_service(self):
        with RenderService("threaded", width=16, height=16,
                           overflow="block") as svc:
            with pytest.raises(ValueError, match="overflow='reject'"):
                RenderGateway(svc)

    def test_wrapping_a_service_forbids_service_kwargs(self):
        with RenderService("threaded", width=16, height=16,
                           overflow="reject") as svc:
            with pytest.raises(ValueError, match="service_kwargs"):
                RenderGateway(svc, width=32)


class TestClose:
    def test_close_drains_in_flight_but_not_idle_connections(self):
        """``close`` waits for the requests in flight, not for clients.

        The idle connection stands for a client whose EOF never arrives: a
        node worker forked while it was open holds a copy of its socket, so
        the client's ``close`` sends nothing.  Waiting for its EOF used to
        cost the whole ``drain_timeout``.
        """
        gateway = RenderGateway(width=16, height=16, drain_timeout=30.0).start()
        gate, entered = gate_first_execution(gateway.service)
        idle = GatewayClient(gateway.host, gateway.port)
        busy = GatewayClient(gateway.host, gateway.port)
        try:
            assert idle.ping()["pong"]
            busy.send({"op": "render", "scene": SCENE})
            assert entered.wait(30.0)
            start = time.monotonic()
            closer = threading.Thread(target=gateway.close)
            closer.start()
            while not gateway._stop.is_set():
                time.sleep(0.005)
            gate.set()  # the request in flight finishes after the stop
            closer.join(10.0)
            assert not closer.is_alive()
            assert time.monotonic() - start < 5.0
            assert busy.recv()["status"] == "ok"
            with pytest.raises(ConnectionError):
                idle.recv()
        finally:
            gate.set()
            idle.close()
            busy.close()
