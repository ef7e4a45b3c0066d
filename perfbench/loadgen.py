"""Open-loop HTTP/1.1 load driver, timed from each request's due time.

One thread drives up to ``connections`` keep-alive sockets through a
``select`` loop.  Request ``i`` falls due at ``start + due_s[i]``; it is
sent on the first connection that is free at or after that moment, and
its latency runs from the due time to the last byte of the response.
So a stalled server, or a request that waited for a free connection,
shows in the latency of every request behind it.  Two more numbers say
how far the driver itself can be trusted:

* ``conn_wait_s`` — how long a due request waited for a free connection
  (client-side queueing: the server was still busy with earlier work);
* ``lag_s`` — how late the driver sent a request once it was due and a
  connection was free (generator lateness; should stay tiny).

A closed batch is the same call with every ``due_s`` zero.

``select.select`` is used rather than epoll because its timeout has
microsecond resolution; epoll rounds up to whole milliseconds, which
would add up to 1 ms of lag to every sub-millisecond schedule gap.
"""

from __future__ import annotations

import json
import select
import socket
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence

__all__ = ["Outcome", "encode_request", "percentile", "run_pipelined", "run_schedule"]

#: Time from the call to the first due time (connections are open by then).
LEAD_S = 0.005

#: Poll instead of sleeping this close to the next send: waking a
#: descheduled virtual CPU can take milliseconds.  Polling only the last
#: 0.2 ms let the driver's own p99 lateness grow to 1.2-2.7 ms on a busy
#: host, as large as the server's median (measured in NOTES.md).
SPIN_S = 0.01


def encode_request(method: str, path: str, doc: Optional[dict] = None) -> bytes:
    """One keep-alive HTTP/1.1 request on the wire."""
    body = b"" if doc is None else json.dumps(doc).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Outcome:
    """One request as the client saw it (status 0: transport failure)."""

    status: int = 0
    #: Due time to last response byte.
    latency_s: float = 0.0
    #: Send to last response byte (what the server and network cost).
    service_s: float = 0.0
    conn_wait_s: float = 0.0
    lag_s: float = 0.0
    sent_at: float = 0.0
    body: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


class _Conn:
    """One keep-alive connection and its partial response buffer."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.sock: Optional[socket.socket] = None
        self.buf = b""
        self.free_since = 0.0
        self.index = -1
        self.sent_at = 0.0

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buf = b""

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = None
        self.buf = b""

    def take_response(self):
        """``(status, body)`` once a whole response is buffered, else None."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buf[:end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        total = end + 4 + length
        if len(self.buf) < total:
            return None
        status = int(head[0].split()[1])
        body = self.buf[end + 4:total]
        self.buf = self.buf[total:]
        return status, body


def run_schedule(
    host: str,
    port: int,
    requests: Sequence[bytes],
    due_s: Sequence[float],
    *,
    connections: int = 2,
    timeout_s: float = 10.0,
    keep_bodies: Optional[set] = None,
) -> tuple:
    """Send ``requests[i]`` at ``start + due_s[i]``; returns ``(outcomes, wall_s)``.

    ``due_s`` must be non-decreasing.  Bodies are kept only for indices
    in ``keep_bodies`` (``None``: keep all), so the timed loop does no
    JSON work.  A request unanswered after ``timeout_s`` fails with
    status 0 and its connection is replaced; ``wall_s`` runs from the
    first due time to the last completion.
    """
    n = len(requests)
    if len(due_s) != n:
        raise ValueError("one due time per request")
    outcomes: List[Outcome] = [Outcome() for _ in range(n)]
    conns = [_Conn(host, port) for _ in range(max(1, connections))]
    for conn in conns:
        conn.connect()
    start = perf_counter() + LEAD_S
    for conn in conns:
        conn.free_since = start
    free: List[_Conn] = list(reversed(conns))
    busy: Dict[socket.socket, _Conn] = {}
    nxt = 0
    last_done = start

    def release(conn: _Conn) -> None:
        conn.index = -1
        conn.free_since = perf_counter()
        free.append(conn)

    def finish(conn: _Conn, status: int, body: Optional[bytes], error: Optional[str]) -> None:
        nonlocal last_done
        now = perf_counter()
        i = conn.index
        out = outcomes[i]
        out.status = status
        out.latency_s = now - (start + due_s[i])
        out.service_s = now - conn.sent_at
        out.error = error
        if body is not None and (keep_bodies is None or i in keep_bodies):
            out.body = body
        last_done = max(last_done, now)
        del busy[conn.sock]
        release(conn)

    def reconnect(conn: _Conn) -> None:
        conn.close()
        try:
            conn.connect()
        except OSError:
            pass  # the next send on it fails and is counted

    def fail(conn: _Conn, error: str) -> None:
        finish(conn, 0, None, error)
        reconnect(conn)

    try:
        while nxt < n or busy:
            now = perf_counter()
            while nxt < n and free and start + due_s[nxt] <= now:
                conn = free.pop()
                due = start + due_s[nxt]
                out = outcomes[nxt]
                out.conn_wait_s = max(0.0, conn.free_since - due)
                conn.index = nxt
                nxt += 1
                conn.sent_at = perf_counter()
                out.lag_s = conn.sent_at - max(due, conn.free_since)
                try:
                    if conn.sock is None:
                        raise OSError("not connected")
                    conn.sock.sendall(requests[conn.index])
                except OSError as exc:
                    out.error = f"send: {exc}"
                    out.latency_s = perf_counter() - due
                    reconnect(conn)
                    release(conn)
                    continue
                busy[conn.sock] = conn
                now = perf_counter()
            wait = max(0.0, start + due_s[nxt] - now) if nxt < n and free else 0.05
            if busy:
                oldest = min(c.sent_at for c in busy.values())
                wait = min(wait, max(0.0, oldest + timeout_s - now))
            wait = 0.0 if wait < SPIN_S else wait - SPIN_S
            if busy:
                ready, _, _ = select.select(list(busy), [], [], wait)
            else:
                ready = []
                select.select([], [], [], wait)
            for sock in ready:
                conn = busy[sock]
                try:
                    chunk = sock.recv(65536)
                except OSError as exc:
                    fail(conn, f"recv: {exc}")
                    continue
                if not chunk:
                    fail(conn, "connection closed by server")
                    continue
                conn.buf += chunk
                got = conn.take_response()
                if got is not None:
                    finish(conn, got[0], got[1], None)
            now = perf_counter()
            for conn in [c for c in busy.values() if now - c.sent_at > timeout_s]:
                fail(conn, f"timeout after {timeout_s:g}s")
    finally:
        for conn in conns:
            conn.close()
    return outcomes, last_done - start


def run_pipelined(
    host: str,
    port: int,
    requests: Sequence[bytes],
    *,
    connections: int = 2,
    depth: int = 16,
    timeout_s: float = 10.0,
    keep_bodies: Optional[set] = None,
) -> tuple:
    """A closed batch with up to ``depth`` requests in flight per connection.

    HTTP/1.1 pipelining: the server always has the next request in its
    socket buffer, so it never waits for the driver and the batch is
    bound by the server's own work, not by how fast either side is
    woken.  Latencies run from the start of the batch.  A connection
    silent for ``timeout_s`` fails what it has in flight and is not
    used again.  Returns ``(outcomes, wall_s)``.
    """
    n = len(requests)
    outcomes: List[Outcome] = [Outcome() for _ in range(n)]
    conns = [_Conn(host, port) for _ in range(max(1, connections))]
    for conn in conns:
        conn.connect()
    inflight: Dict[socket.socket, deque] = {conn.sock: deque() for conn in conns}
    by_sock = {conn.sock: conn for conn in conns}
    heard = {conn.sock: 0.0 for conn in conns}
    nxt = 0
    start = perf_counter()
    last_done = start

    def send(conn: _Conn, count: int) -> None:
        nonlocal nxt
        first, nxt = nxt, min(n, nxt + count)
        if first == nxt:
            return
        now = perf_counter()
        for i in range(first, nxt):
            inflight[conn.sock].append(i)
            outcomes[i].sent_at = now
        conn.sock.sendall(b"".join(requests[first:nxt]))

    def drop(sock: socket.socket, error: str) -> None:
        now = perf_counter()
        for i in inflight.pop(sock):
            outcomes[i].error = error
            outcomes[i].latency_s = now - start
        by_sock.pop(sock).close()

    try:
        for conn in conns:
            heard[conn.sock] = start
            send(conn, depth)
            if not inflight[conn.sock]:  # fewer requests than connections
                inflight.pop(conn.sock)
                by_sock.pop(conn.sock).close()
        while inflight:
            ready, _, _ = select.select(list(inflight), [], [], 0.05)
            now = perf_counter()
            for sock in ready:
                conn = by_sock[sock]
                try:
                    chunk = sock.recv(65536)
                except OSError as exc:
                    drop(sock, f"recv: {exc}")
                    continue
                if not chunk:
                    drop(sock, "connection closed by server")
                    continue
                heard[sock] = now
                conn.buf += chunk
                done = 0
                while True:
                    got = conn.take_response()
                    if got is None:
                        break
                    i = inflight[sock].popleft()
                    out = outcomes[i]
                    out.status = got[0]
                    out.latency_s = now - start
                    out.service_s = now - out.sent_at
                    if keep_bodies is None or i in keep_bodies:
                        out.body = got[1]
                    done += 1
                if done:
                    last_done = now
                    try:
                        send(conn, done)
                    except OSError as exc:
                        drop(sock, f"send: {exc}")
                        continue
                if not inflight[sock] and nxt >= n:
                    inflight.pop(sock)
                    by_sock.pop(sock).close()
            for sock in [s for s in inflight if now - heard[s] > timeout_s]:
                drop(sock, f"timeout after {timeout_s:g}s")
        for out in outcomes[nxt:]:
            out.error = "not sent: every connection failed"
    finally:
        for conn in conns:
            conn.close()
    return outcomes, last_done - start


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]
