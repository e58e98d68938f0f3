"""The pipe link's send rule and its read/wait loop, against a tiny echo worker.

Both fork-based transports drive their workers through :class:`PipeLink`
and the shared :func:`ready_links`/:func:`wait_replies` loop; these tests
pin that loop on its own: a frame goes out only while the worker owes
nothing, a reply settles ``pending[0]``, a dead worker wakes the wait, and
an idle worker leaves on ``SHUTDOWN``.
"""

import os
import time

import pytest

from repro.snet.runtime.link import (
    DATA,
    EOS,
    RESULT,
    SHUTDOWN,
    PipeLink,
    close_links,
    encode_frame,
    ready_links,
    recv_frame,
    send_frame,
    wait_replies,
)
from repro.snet.runtime.process_engine import ProcessRuntime

pytestmark = [
    pytest.mark.usefixtures("no_process_leaks"),
    pytest.mark.skipif(
        not ProcessRuntime.fork_available(), reason="needs the fork start method"
    ),
]


def echo_worker(conn):
    """Answer each ``DATA`` with one ``RESULT`` echoing its payload; an
    ``EOS`` makes the worker exit without a reply (a death mid-run)."""
    while True:
        kind, channel, _meta, payload, _buffers, _n = recv_frame(conn)
        if kind == SHUTDOWN:
            return
        if kind == EOS:
            os._exit(3)
        send_frame(conn, encode_frame(RESULT, channel, payload=payload))


def read_one(link):
    """Read the reply waiting on ``link`` and settle what it owed."""
    kind, _channel, _meta, payload, _buffers, _n = recv_frame(link.conn)
    assert kind == RESULT
    return link.pending.popleft(), payload


def wait_for_reply(link, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not link.conn.poll(0.01):
        assert time.monotonic() < deadline, "worker never replied"


@pytest.fixture
def links():
    made = []

    def make(n=1):
        for _ in range(n):
            made.append(PipeLink(echo_worker, name="echo", index=len(made)))
        return made[-n:]

    yield make
    close_links([link for link in made if link.exitcode is None])  # not reaped yet


class TestSendRule:
    def test_second_frame_waits_in_the_outbox_until_the_first_is_answered(self, links):
        (link,) = links()
        link.send(encode_frame(DATA, 1, payload=b"one"), owed="first")
        link.send(encode_frame(DATA, 1, payload=b"two"), owed="second")
        assert list(link.pending) == ["first"]
        assert len(link.outbox) == 1

        wait_for_reply(link)
        assert read_one(link) == ("first", b"one")
        link.flush()
        assert list(link.pending) == ["second"] and not link.outbox

        wait_for_reply(link)
        assert read_one(link) == ("second", b"two")
        link.flush()
        assert not link.pending and not link.outbox

    def test_an_idle_worker_exits_on_shutdown_and_a_busy_one_is_killed(self, links):
        idle, busy = links(2)
        busy.send(encode_frame(DATA, 1, payload=b"x"), owed="reply")
        close_links([idle, busy])
        assert idle.exitcode == 0
        assert busy.exitcode == -9


class TestReadWaitLoop:
    def test_ready_links_yields_only_links_with_a_reply_waiting(self, links):
        quiet, answering = links(2)
        assert list(ready_links([quiet, answering])) == []  # nothing owed

        answering.send(encode_frame(DATA, 7, payload=b"p"), owed=7)
        wait_for_reply(answering)
        seen = []
        for link in ready_links([quiet, answering, answering]):
            seen.append(read_one(link))
        assert seen == [(7, b"p")]  # a link listed twice is read once

    def test_wait_replies_sleeps_until_a_reply_and_none_when_nothing_is_owed(self, links):
        (link,) = links()
        assert wait_replies([link], timeout=5.0) is None

        link.send(encode_frame(DATA, 1, payload=b"z"), owed="z")
        assert wait_replies([link], timeout=5.0) == []  # woke on the reply
        assert [read_one(l) for l in ready_links([link])] == [("z", b"z")]

    def test_wait_replies_reports_a_worker_that_died_owing_a_reply(self, links):
        (link,) = links()
        link.send(encode_frame(EOS, 1), owed="flush")
        deadline = time.monotonic() + 5.0
        dead = []
        while not dead:
            assert time.monotonic() < deadline, "worker death never woke the wait"
            dead = wait_replies([link], timeout=1.0)
        assert dead == [link]
        link.process.join(5.0)
        assert link.process.exitcode == 3
