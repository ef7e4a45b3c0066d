"""The open-loop driver times requests from their due time."""

import socket
import threading
import time

import pytest

import loadgen

STALL_S = 0.3


class StallingServer:
    """Keep-alive HTTP stub: answers every request, the first after a stall."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.served = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn:
            buf = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buf += chunk
                while b"\r\n\r\n" in buf:
                    head, _, rest = buf.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    if len(rest) < length:
                        break
                    buf = rest[length:]
                    if self.served == 0:
                        time.sleep(STALL_S)
                    self.served += 1
                    body = b'{"ok": true}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                    )

    def close(self):
        self.sock.close()
        self.thread.join(timeout=5)


@pytest.fixture
def server():
    srv = StallingServer()
    yield srv
    srv.close()


def test_latency_counts_the_wait_behind_a_stall(server):
    req = loadgen.encode_request("POST", "/x", {"a": 1})
    due = [0.0, 0.05, 0.10]
    outs, wall = loadgen.run_schedule(
        "127.0.0.1", server.port, [req] * 3, due, connections=1, timeout_s=5.0
    )
    assert [o.status for o in outs] == [200, 200, 200]
    # The first request stalls; the next two were due while it was held,
    # so their latency from due time includes the stall ...
    assert outs[0].latency_s >= STALL_S
    assert outs[1].latency_s >= STALL_S - 0.05 - 0.01
    assert outs[2].latency_s >= STALL_S - 0.10 - 0.01
    # ... which shows as connection wait, while the server itself was fast.
    assert outs[1].conn_wait_s >= STALL_S - 0.05 - 0.01
    assert outs[1].service_s < 0.1
    assert wall >= STALL_S
    assert all(o.lag_s < 0.05 for o in outs)


def test_closed_batch_and_kept_bodies(server):
    req = loadgen.encode_request("GET", "/y")
    outs, _ = loadgen.run_schedule(
        "127.0.0.1", server.port, [req] * 4, [0.0] * 4, connections=1, keep_bodies={2}
    )
    assert [o.body for o in outs] == [None, None, b'{"ok": true}', None]


def test_pipelined_batch_answers_in_order(server):
    reqs = [loadgen.encode_request("POST", "/z", {"i": i}) for i in range(40)]
    outs, wall = loadgen.run_pipelined(
        "127.0.0.1", server.port, reqs, connections=1, depth=8, keep_bodies={39}
    )
    assert [o.status for o in outs] == [200] * 40
    assert server.served == 40
    # The stall holds the whole pipeline; latencies run from the start.
    assert wall >= STALL_S
    assert all(o.latency_s >= STALL_S for o in outs)
    assert sorted(o.latency_s for o in outs) == [o.latency_s for o in outs]
    assert outs[39].body == b'{"ok": true}' and outs[0].body is None


def test_pipelined_batch_smaller_than_its_connections_does_not_wait(server):
    req = loadgen.encode_request("GET", "/y")
    start = time.perf_counter()
    outs, _ = loadgen.run_pipelined(
        "127.0.0.1", server.port, [req], connections=2, depth=4, timeout_s=5.0
    )
    assert [o.status for o in outs] == [200]
    assert time.perf_counter() - start < STALL_S + 1.0


def test_pipelined_batch_times_out_a_silent_connection():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen()
    try:
        outs, _ = loadgen.run_pipelined(
            "127.0.0.1", sock.getsockname()[1], [b"x"] * 5, connections=1, depth=2, timeout_s=0.2
        )
    finally:
        sock.close()
    assert [o.ok for o in outs] == [False] * 5
    assert outs[0].error.startswith("timeout") and outs[4].error.startswith("not sent")


def test_refused_connection_is_a_failure_not_a_hang():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    with pytest.raises(OSError):
        loadgen.run_schedule("127.0.0.1", port, [b"x"], [0.0], connections=1)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile([5.0], 99) == 5.0
