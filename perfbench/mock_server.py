"""Mock OpenAI-compatible chat-completions server for the endpoint_mock workload.

Run as its own process, so its JSON work stays off the client's interpreter
lock:

    python3 perfbench/mock_server.py --table TABLE.json --seed N

It prints its port on the first line of stdout and serves until its stdin
closes. TABLE.json maps each prompt text the workload will send to
``[oracle completion, wrappable]``; the benchmark builds it untimed from the
same suite.

Every answer is a function of the request body alone, never of arrival
order: the seeded hash of the canonical body picks the latency (lognormal),
whether the answer is truncated, whether a clean object answer is wrapped in
prose plus a ```json fence, and whether the first sighting of the body is
answered 503. An unknown prompt gets 404, so a wrong prompt shows up as a
failed record instead of a silent pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from statistics import NormalDist

P_UNAVAILABLE = 0.02  # share of bodies whose first sighting is answered 503
P_DEGRADE = 0.05  # share of answers truncated
P_WRAP = 0.25  # share of clean object answers wrapped in prose and a fence
LATENCY_MEDIAN_S = 0.008
LATENCY_SIGMA = 0.5

_NORMAL = NormalDist()


@dataclass(frozen=True)
class Draw:
    unavailable_first: bool
    degrade: bool
    wrap: bool
    latency_s: float


def body_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def draw(seed: int, body: dict) -> Draw:
    digest = hashlib.sha256(f"{seed}\0{body_key(body)}".encode("utf-8")).digest()
    u = [(int.from_bytes(digest[i:i + 8], "big") + 0.5) / 2.0 ** 64 for i in range(0, 32, 8)]
    z = _NORMAL.inv_cdf(u[3])
    return Draw(unavailable_first=u[0] < P_UNAVAILABLE, degrade=u[1] < P_DEGRADE,
                wrap=u[2] < P_WRAP,
                latency_s=LATENCY_MEDIAN_S * math.exp(LATENCY_SIGMA * z))


def truncate(text: str) -> str:
    """Drop the last third (at least one character), so the answer at the
    end of every completion is cut or changed."""
    return text[:len(text) - max(1, -(-len(text) // 3))]


def wrap(text: str) -> str:
    return f"Here is the requested object.\n```json\n{text}\n```\nTell me if you need more."


def served_answer(entry: list, d: Draw) -> tuple[str, str]:
    """(kind, text) served for a table entry under a draw; kind is clean,
    wrapped or degraded."""
    text, wrappable = entry
    if d.degrade:
        return "degraded", truncate(text)
    if wrappable and d.wrap:
        return "wrapped", wrap(text)
    return "clean", text


class MockState:
    """Table, seed and counters shared by the handler threads."""

    def __init__(self, table: dict, seed: int):
        self.table = table
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: set[bytes] = set()
            self.in_flight = 0
            self.stats = {
                "requests": 0, "unavailable": 0, "not_found": 0, "bad_request": 0,
                "models": 0, "connections": 0, "service_s": 0.0, "scheduled_s": 0.0,
                "peak_in_flight": 0,
            }

    def count(self, **deltas) -> None:
        with self.lock:
            for name, delta in deltas.items():
                self.stats[name] += delta

    def answer(self, raw: bytes) -> tuple[int, dict, float]:
        """(status, response document, latency to wait before answering) for
        one chat-completions request body; counts it."""
        try:
            body = json.loads(raw)
            prompt = body["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self.count(requests=1, bad_request=1)
            return 400, {"error": "malformed request body"}, 0.0
        d = draw(self.seed, body)
        key = hashlib.sha256(body_key(body).encode("utf-8")).digest()
        with self.lock:
            first = key not in self.seen
            self.seen.add(key)
            self.stats["requests"] += 1
            self.stats["scheduled_s"] += d.latency_s
        entry = self.table.get(prompt)
        if entry is None:
            self.count(not_found=1)
            return 404, {"error": "unknown prompt"}, d.latency_s
        if d.unavailable_first and first:
            self.count(unavailable=1)
            return 503, {"error": "temporarily unavailable"}, d.latency_s
        _, text = served_answer(entry, d)
        return 200, {
            "object": "chat.completion",
            "model": body.get("model"),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": len(prompt.split()),
                      "completion_tokens": len(text.split())},
        }, d.latency_s


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "MockServer"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._api_connection = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _api_request(self) -> None:
        """Count the connection once, on its first API request; control
        requests from the benchmark are not counted."""
        if self._api_connection:
            return
        self._api_connection = True
        self.server.state.count(connections=1)

    def _send(self, status: int, doc: dict) -> None:
        data = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        state = self.server.state
        if self.path == "/v1/models":
            self._api_request()
            state.count(models=1)
            self._send(200, {"object": "list", "data": [{"id": "mock", "object": "model"}]})
        elif self.path == "/_bench/stats":
            with state.lock:
                stats = dict(state.stats)
            self._send(200, stats)
        else:
            self._send(404, {"error": "unknown path"})

    def do_POST(self) -> None:
        state = self.server.state
        raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        if self.path == "/_bench/reset":
            state.reset()
            self._send(200, {})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "unknown path"})
            return
        started = time.perf_counter()
        self._api_request()
        with state.lock:
            state.in_flight += 1
            state.stats["peak_in_flight"] = max(state.stats["peak_in_flight"], state.in_flight)
        # A request stops being in flight once its answer is ready: the client
        # may send its next request as soon as the answer's bytes arrive.
        try:
            status, doc, latency_s = state.answer(raw)
            time.sleep(latency_s)
        finally:
            with state.lock:
                state.in_flight -= 1
                state.stats["service_s"] += time.perf_counter() - started
        self._send(status, doc)


class MockServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, state: MockState):
        super().__init__(("127.0.0.1", 0), Handler)
        self.state = state


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    table = json.loads(Path(args.table).read_text(encoding="utf-8"))
    server = MockServer(MockState(table, args.seed))

    def stop_on_stdin_eof() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_stdin_eof, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
