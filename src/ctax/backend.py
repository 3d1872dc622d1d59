"""Generation backends: live endpoint, perfect oracle, fault corruptor.

The endpoint backend speaks the chat-completions wire protocol, over
HTTP/1.1 on non-blocking sockets driven by one selector loop in the calling
thread, and places constraints into the request body through a configurable
field-path map, since inference servers disagree about where
guided-decoding parameters live. The two scripted backends exist to calibrate the harness itself:
the oracle proves the measurement pipeline has zero intrinsic tax, the
corruptor injects failures at known rates so measured rates can be checked
against the dial settings. The corruptor draws one fault per instance per
run, shared by every mode and stage; the oracle ignores `fault`.
"""

from __future__ import annotations

import datetime as dt
import errno
import json
import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import islice
from typing import Any, Callable, Collection, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import urlsplit

from .errors import ConfigError
from .modes import (
    CONSTRAINT_NONE,
    CONSTRAINT_REGEX,
    CONSTRAINT_SCHEMA,
    FREEFORM_MODES,
    PromptBundle,
)
from .records import timestamp
from .rng import SplitMix64, derive_seed
from .taskgen import (
    CALENDAR_FAMILY,
    CALENDAR_SEMANTIC_FIELDS,
    NAMES,
    TOPICS,
    GroundTruth,
    TaskInstance,
    TraceStep,
)
from .validation import canonical_serialize, normalize_answer

BACKEND_KINDS = ("endpoint", "oracle", "corruptor")

TOKEN_ENV_VAR = "CTAX_API_KEY"

# Where constraints land in the request body, as dot-paths. vLLM-style
# guided decoding by default; remap per server (e.g. SGLang's
# "response_format.json_schema").
DEFAULT_CONSTRAINT_TRANSPORT: Mapping[str, str] = {
    "schema": "guided_json",
    "regex": "guided_regex",
}

DEFAULT_MAX_TOKENS = 512
FREEFORM_MAX_TOKENS = 1024

# A response body longer than this fails its attempt unread, so a server
# cannot grow the client's memory without bound.
MAX_RESPONSE_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.0
    # None -> per-mode default: 512, or 1024 for unconstrained long-form stages
    max_tokens: int | None = None
    request_seed: int | None = None

    def __post_init__(self):
        if not self.temperature >= 0.0:  # NaN included
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class FaultProfile:
    """Corruptor dials. Draws are deterministic per (seed, instance id):
    with p_invalid_json the oracle output is truncated into unparsable
    text; otherwise with p_wrong_field one targeted field (or the answer)
    is replaced by a schema-valid wrong value; otherwise the oracle output
    passes through."""

    p_invalid_json: float = 0.0
    p_wrong_field: float = 0.0
    wrong_field_targets: tuple[str, ...] = ("duration_minutes",)
    seed: int = 0

    def __post_init__(self):
        for name in ("p_invalid_json", "p_wrong_field"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not self.wrong_field_targets or set(self.wrong_field_targets) - set(
                CALENDAR_SEMANTIC_FIELDS):
            raise ConfigError(f"wrong_field_targets must name one or more of "
                              f"{', '.join(CALENDAR_SEMANTIC_FIELDS)}, "
                              f"got {list(self.wrong_field_targets)}")


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "oracle"
    label: str = ""  # empty: the kind
    model_id: str = "scripted"
    base_url: str | None = None
    sampling: SamplingConfig = dc_field(default_factory=SamplingConfig)
    constraint_transport: Mapping[str, str] = dc_field(
        default_factory=lambda: dict(DEFAULT_CONSTRAINT_TRANSPORT))
    timeout_ms: int = 60000
    max_in_flight: int = 4
    max_retries: int = 2
    fault: FaultProfile | None = None

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.kind)
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind: {self.kind!r}")
        if self.kind == "endpoint" and not self.base_url:
            raise ConfigError("endpoint backend requires base_url")
        if self.base_url:
            url = urlsplit(self.base_url)
            if url.scheme not in ("http", "https"):
                raise ConfigError(f"base_url must start with http:// or https://, "
                                  f"got {self.base_url!r}")
            try:
                url.port  # raises ValueError when out of range or not a number
            except ValueError as exc:
                raise ConfigError(f"base_url {self.base_url!r}: {exc}") from None
            if not url.hostname:
                raise ConfigError(f"base_url has no host, got {self.base_url!r}")
        if not 1 <= self.timeout_ms <= 2**31 - 1:  # the most milliseconds epoll waits
            raise ConfigError(f"timeout_ms must be in [1, {2**31 - 1}]")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


class GenerationResult(NamedTuple):
    """One completion, or the failure of a call that ran out of attempts;
    the bundle it answers and the backend config own its instance, stage
    and backend label."""

    raw_text: str
    latency_ms: float
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    failed: bool = False
    failure_reason: str | None = None
    started_at: str | None = None


# ---------------------------------------------------------------------------
# Oracle: renders a perfect completion for any (instance, mode, stage)
# ---------------------------------------------------------------------------

def _render_completion(instance: TaskInstance, mode: str, stage: str,
                       truth: GroundTruth) -> str:
    answer, trace = truth.final_answer, truth.trace

    def object_payload() -> Any:
        return truth.exec_target if instance.family == CALENDAR_FAMILY else {"answer": answer}

    if mode == "delayed_constraint" and stage == "stage2":
        return canonical_serialize(object_payload())
    if mode in ("freeform", "delayed_constraint"):
        lines = [f"Step {i}: {s.op_name} -> {s.output}" for i, s in enumerate(trace, start=1)]
        lines.append(f"Final answer: {answer}")
        return "\n".join(lines)
    if mode == "freeform_direct":
        return answer
    if mode == "freeform_brief_reasoning":
        summary = ", then ".join(s.op_name for s in trace)
        return f"Short check: {summary}.\nFinal answer: {answer}"
    if mode == "final_only_regex":
        return answer
    if mode in ("prompt_json", "answer_only_schema"):
        return canonical_serialize(object_payload())
    if mode == "rationale_answer_schema":
        payload = dict(object_payload())
        payload["rationale"] = "applied the listed operations in order"
        return canonical_serialize(payload)
    if mode == "typed_trace_schema":
        payload = {
            "steps": [{"op": s.op_name, "output": s.output} for s in trace],
            "answer": answer,
        }
        return canonical_serialize(payload)
    raise ConfigError(f"unknown mode: {mode!r}")


def oracle_generate(instance: TaskInstance, mode: str, stage: str = "single") -> str:
    return _render_completion(instance, mode, stage, instance.ground_truth)


# ---------------------------------------------------------------------------
# Corruptor: oracle output with dialed-in faults
# ---------------------------------------------------------------------------

def _malform(text: str) -> str:
    """Truncate a completion so no JSON value survives extraction."""
    cut = text[: max(1, (2 * len(text)) // 3)]
    broken = cut.replace("}", "").replace('"answer"', '"answe')
    return broken if broken.strip() else "{"


_Renderer = Callable[[str, str], str]  # (mode, stage) -> completion

_WRONG_DURATION = 180  # deliberately plausible but wrong


def _tampered_truth(instance: TaskInstance, rng: SplitMix64,
                    targets: Sequence[str]) -> GroundTruth:
    """A wrong truth staying schema-valid and in-domain, with a trace
    consistent with it: the fault models a model that is wrong, not one that
    contradicts itself at the last line."""
    gt = instance.ground_truth
    family = instance.family
    if family == CALENDAR_FAMILY:
        target_field = rng.choice(targets)
        exec_target = {k: (dict(v) if isinstance(v, dict) else v)
                       for k, v in (gt.exec_target or {}).items()}
        args = exec_target["arguments"]
        if target_field == "duration_minutes":
            args["duration_minutes"] = _WRONG_DURATION
        elif target_field == "attendee":
            pool = [normalize_answer(n) for n in NAMES if normalize_answer(n) != args["attendee"]]
            args["attendee"] = rng.choice(pool)
        elif target_field == "topic":
            pool = [t for t in TOPICS if t != args["topic"]]
            args["topic"] = rng.choice(pool)
        elif target_field == "date":
            day = dt.date.fromisoformat(args["date"]) + dt.timedelta(days=1)
            args["date"] = day.isoformat()
        else:  # start_time; FaultProfile admits no other target
            hours, minutes = map(int, args["start_time"].split(":"))
            total = (hours * 60 + minutes + 15 - 8 * 60) % (10 * 60) + 8 * 60
            args["start_time"] = f"{total // 60:02d}:{total % 60:02d}"
        answer = canonical_serialize(exec_target)
        swap = {"resolve_date": args["date"], "resolve_time": args["start_time"],
                "build_arguments": answer}
        trace = tuple(TraceStep(s.op_name, s.inputs, swap.get(s.op_name, s.output))
                      for s in gt.trace)
        return GroundTruth(answer, trace, exec_target)
    if family == "arithmetic_two_step":
        answer = str(int(gt.final_answer) + 1)
    elif family == "boolean_logic":
        answer = "false" if gt.final_answer == "true" else "true"
    elif family == "symbolic_string":
        answer = ("z" if gt.final_answer[0] != "z" else "q") + gt.final_answer[1:]
    elif family == "object_tracking":
        participants = [normalize_answer(instance.slots[k]) for k in ("p1", "p2", "p3")]
        pool = [p for p in participants if p != gt.final_answer]
        answer = rng.choice(pool)
    else:
        raise ConfigError(f"unknown task family: {family!r}")
    return GroundTruth(answer, tuple(
        TraceStep(s.op_name, s.inputs, answer if s.output == gt.final_answer else s.output)
        for s in gt.trace))


def _draw_fault(instance: TaskInstance, fault: FaultProfile | None) -> _Renderer:
    """The instance's renderer, (mode, stage) -> completion, under the
    profile: one fault for every mode and stage, seeded by (fault seed,
    instance id) and drawn from its ground truth. No profile renders the
    oracle's text."""
    if fault is not None:
        rng = SplitMix64(derive_seed(fault.seed, instance.id))
        u_invalid = rng.random()
        u_wrong = rng.random()
        if u_invalid < fault.p_invalid_json:
            return lambda mode, stage: _malform(oracle_generate(instance, mode, stage))
        if u_wrong < fault.p_wrong_field:
            return partial(_render_completion, instance,
                           truth=_tampered_truth(instance, rng, fault.wrong_field_targets))
    return partial(oracle_generate, instance)


# ---------------------------------------------------------------------------
# Endpoint client
# ---------------------------------------------------------------------------

def _set_path(body: dict, path: str, value: Any) -> None:
    """Set value at the dot-path, creating objects on the way; a path with an
    empty part, or one that runs through or replaces a body field, is a
    configuration error."""
    parts = path.split(".")
    if "" in parts:
        raise ConfigError(f"constraint transport path {path!r} has an empty part")
    node = body
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"constraint transport path collides at {part!r} in {path!r}")
    if parts[-1] in node:
        raise ConfigError(f"constraint transport path collides at {parts[-1]!r} in {path!r}")
    node[parts[-1]] = value


def effective_max_tokens(bundle: PromptBundle, sampling: SamplingConfig) -> int:
    if sampling.max_tokens is not None:
        return sampling.max_tokens
    if bundle.mode in FREEFORM_MODES or bundle.stage == "stage1":
        return FREEFORM_MAX_TOKENS
    return DEFAULT_MAX_TOKENS


def build_request_body(config: BackendConfig, bundle: PromptBundle) -> dict:
    """Chat-completions request with the constraint mapped into place.

    A constrained bundle whose kind has no transport mapping, or whose path
    collides with the body, is a configuration error. harness.run builds
    one body per (endpoint backend, mode) before its health check, so the
    error comes before any network traffic or output.
    """
    body: dict[str, Any] = {
        "model": config.model_id,
        "messages": [{"role": "user", "content": bundle.user_text}],
        "temperature": config.sampling.temperature,
        "max_tokens": effective_max_tokens(bundle, config.sampling),
    }
    if config.sampling.request_seed is not None:
        body["seed"] = config.sampling.request_seed
    constraint = bundle.constraint
    if constraint.kind == CONSTRAINT_NONE:
        return body
    path = config.constraint_transport.get(constraint.kind)
    if not path:
        raise ConfigError(
            f"no constraint transport mapping for kind {constraint.kind!r}")
    if constraint.kind == CONSTRAINT_SCHEMA:
        _set_path(body, path, constraint.schema)
    elif constraint.kind == CONSTRAINT_REGEX:
        _set_path(body, path, constraint.pattern)
    return body


# Client errors a retry cannot fix; 408 and 429 ask the client to try again.
_RETRIED_CLIENT_ERRORS = frozenset({408, 429})

# A response head (status line and headers, 1xx responses included) longer
# than this fails its attempt.
MAX_HEAD_BYTES = 64 * 1024

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_CONNECTING = frozenset({errno.EINPROGRESS, errno.EALREADY, errno.EWOULDBLOCK})


class _ResponseError(OSError):
    """A response that is malformed, over a cap or cut short: a transport
    error, like the socket's own."""


def _incomplete(read: int, expected: int | None = None) -> _ResponseError:
    more = "" if expected is None else f", {expected} more expected"
    return _ResponseError(f"IncompleteRead({read} bytes read{more})")


class _ResponseReader:
    """One HTTP/1.x response, parsed as its bytes arrive. feed() returns
    (status, body) once the response is complete, and None while more is
    due; b"" is the server's close. 1xx responses are skipped. The body is
    framed by chunked transfer coding, else by Content-Length, else by the
    close. Raises _ResponseError on a response that is malformed, cut short,
    or over MAX_HEAD_BYTES or MAX_RESPONSE_BYTES."""

    def __init__(self):
        self.buffer = bytearray()  # head lines or chunk framing not yet parsed, or the body
        self.start = 0  # where the next unparsed line starts in buffer
        self.status = 0  # of the final response, once its status line is in
        self.headers: dict[bytes, bytes] = {}
        self.framing = ""  # "" in the head, then "chunked", "length" or "close"
        self.left = 0  # length: body bytes due; chunked: bytes left in the chunk
        self.trailers = False  # chunked: the last chunk is in
        self.body = bytearray()  # chunked: the chunks so far

    def feed(self, data: bytes) -> tuple[int, bytes] | None:
        if not data:
            return self._closed()
        self.buffer += data
        if not self.framing and not self._read_head():
            return None
        if self.framing == "length":
            if self.left > MAX_RESPONSE_BYTES:
                raise self._over_cap()
            if len(self.buffer) < self.left:
                return None
            return self.status, bytes(self.buffer[:self.left])
        if self.framing == "close":
            if len(self.buffer) > MAX_RESPONSE_BYTES:
                raise self._over_cap()
            return None
        return self._read_chunks()

    def _over_cap(self) -> _ResponseError:
        return _ResponseError(f"response body over the {MAX_RESPONSE_BYTES}-byte cap")

    def _line(self, what: str, end_by: int) -> bytes | None:
        """The next whole line, its line ending dropped, or None while it is
        not all in; one that does not end before end_by is over the cap."""
        end = self.buffer.find(b"\n", self.start, end_by)
        if end < 0:
            if len(self.buffer) >= end_by:
                raise _ResponseError(f"{what} over the {MAX_HEAD_BYTES}-byte cap")
            return None
        line, self.start = bytes(self.buffer[self.start:end]).rstrip(b"\r"), end + 1
        return line

    def _read_head(self) -> bool:
        while (line := self._line("response head", MAX_HEAD_BYTES)) is not None:
            if not self.status:
                parts = line.split(None, 2)
                if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                        or len(parts[1]) != 3 or not parts[1].isdigit()
                        or int(parts[1]) < 100):
                    raise _ResponseError(f"bad status line {line!r}")
                self.status = int(parts[1])
            elif line:
                name, _, value = line.partition(b":")
                self.headers.setdefault(name.strip().lower(), value.strip())
            elif self.status < 200:  # an interim response: the real one follows
                self.status, self.headers = 0, {}
            else:
                break
        else:
            return False
        del self.buffer[:self.start]
        self.start = 0
        try:  # as http.client reads it: a length that is not a number is no length
            length = int(self.headers.get(b"content-length", b""))
        except ValueError:
            length = -1
        if self.status in (204, 304):
            self.framing, self.left = "length", 0
        elif self.headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            self.framing = "chunked"
        elif length >= 0:
            self.framing, self.left = "length", length
        else:
            self.framing = "close"
        return True

    def _read_chunks(self) -> tuple[int, bytes] | None:
        while True:
            if self.left:  # chunk data, then its line ending
                if len(self.buffer) - self.start < self.left + 2:
                    break
                self.body += self.buffer[self.start:self.start + self.left]
                self.start += self.left + 2
                self.left = 0
                continue
            if (line := self._line("chunk line", self.start + MAX_HEAD_BYTES)) is None:
                break
            if self.trailers:
                if not line:
                    return self.status, bytes(self.body)
                continue
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise _incomplete(len(self.body))
            if len(self.body) + size > MAX_RESPONSE_BYTES:
                raise self._over_cap()
            self.left, self.trailers = size, not size
        del self.buffer[:self.start]
        self.start = 0
        return None

    def _closed(self) -> tuple[int, bytes]:
        if not self.framing:
            raise _ResponseError("connection closed before the response head ended")
        if self.framing == "length":
            raise _incomplete(len(self.buffer), self.left - len(self.buffer))
        if self.framing == "close":
            return self.status, bytes(self.buffer)
        if not self.trailers:
            raise _incomplete(len(self.body))
        return self.status, bytes(self.body)  # the server closed in the trailers


class _Target:
    """Where one call's requests go: the base_url's addresses, resolved
    once, the TLS context for https, and the header lines every request
    carries. Proxy variables are not read."""

    def __init__(self, config: BackendConfig):
        # written into every request head as given, where a line break would start
        # a header line; refused before any lookup, by a message without the key
        token = os.environ.get(TOKEN_ENV_VAR)
        if token and ("\r" in token or "\n" in token or max(token) > "\xff"):
            raise ConfigError(f"{TOKEN_ENV_VAR} must hold no line break and only latin-1 "
                              "characters")
        self.base_url = config.base_url.rstrip("/")
        url = urlsplit(self.base_url)
        self.timeout = config.timeout_ms / 1000.0
        self.hostname = url.hostname
        default_port = 443 if url.scheme == "https" else 80
        try:
            self.addresses = socket.getaddrinfo(self.hostname, url.port or default_port,
                                                type=socket.SOCK_STREAM)
            self.error = None if self.addresses else OSError(
                f"{self.hostname} resolves to no address")
        except OSError as exc:  # every attempt fails with it
            self.addresses, self.error = [], exc
        try:
            host = self.hostname.encode("ascii")
        except UnicodeEncodeError:
            host = self.hostname.encode("idna")
        if b":" in host:
            host = b"[" + host + b"]"
        if url.port not in (None, default_port):
            host += b":%d" % url.port
        self.headers = (b"Host: " + host + b"\r\nAccept-Encoding: identity\r\n"
                        b"Content-Type: application/json\r\nConnection: close\r\n")
        if token:
            self.headers += f"Authorization: Bearer {token}\r\n".encode("latin-1")
        self.tls = None
        self.wants: dict[type, int] = {}  # the events a TLS call that cannot go on waits for
        if url.scheme == "https":
            import ssl  # only here: plain-http runs never load it

            self.tls = ssl.create_default_context()
            self.tls.set_alpn_protocols(["http/1.1"])
            self.wants = {ssl.SSLWantReadError: _READ, ssl.SSLWantWriteError: _WRITE}

    def request(self, method: str, path: str, body: bytes | None = None) -> bytes:
        target = urlsplit(self.base_url + path).path or "/"
        head = f"{method} {target} HTTP/1.1\r\n".encode("ascii") + self.headers
        if body is None:
            return head + b"\r\n"
        return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


class _Reply(NamedTuple):
    """One attempt's outcome: the response's status and body, or the
    transport error that ended the attempt."""

    started_at: str
    latency_ms: float = 0.0
    status: int = 0
    data: bytes = b""
    error: str | None = None


class _Exchange:
    """One connection, carrying at most one request, on a non-blocking
    socket that moves to the next resolved address when a connect fails, as
    socket.create_connection does. It starts connecting on construction;
    step() takes it as far as its socket allows whenever the selector finds
    the socket ready. Started without a request, the connection is held:
    once it is up (TLS handshake included) it waits, watched for READ only,
    until send() puts the request on it. A held connection that fails to
    connect, that the peer closes or writes to first, is closed at once;
    that costs no attempt. The attempt starts at send(): timeout_ms from
    then is the deadline for the rest of it (connect and TLS handshake if
    still under way, send and response), and reply is set once it has
    ended."""

    def __init__(self, target: _Target, selector: selectors.BaseSelector,
                 request: bytes | None = None):
        self.target, self.selector = target, selector
        self.outgoing: memoryview | None = None  # the request's unsent part; None while held
        self.reader = _ResponseReader()
        self.addresses = iter(target.addresses)
        self.address = None
        self.first_error: OSError | None = None  # of the connects that failed
        self.sock: socket.socket | None = None
        self.events = 0  # what the selector watches the socket for; 0: not registered
        self.phase = "connect"  # then "handshake" (https), "send", "receive"
        self.reply: _Reply | None = None
        if request is not None:
            self.send(request)
        elif target.error is None:
            self.step()

    def send(self, request: bytes) -> None:
        """Start the attempt: the request goes out as soon as the connection
        is up."""
        self.started = time.perf_counter()
        self.deadline = self.started + self.target.timeout
        self.started_at = timestamp()
        self.outgoing = memoryview(request)
        if self.target.error is not None:
            self.end(str(self.target.error))
        else:
            self.step()

    def step(self) -> None:
        try:
            events = self._advance()
        except OSError as exc:  # a TLS call that must wait is one too
            if not (events := self.target.wants.get(type(exc), 0)):
                if self.outgoing is None:  # held: its call gets a fresh connection
                    self.close()
                else:
                    self.end(str(exc))
                return
        if events:
            self._watch(events)

    def end(self, error: str) -> None:
        self.reply = _Reply(self.started_at, error=error)

    def close(self) -> None:
        if self.sock is not None:
            self._watch(0)
            self.sock.close()
            self.sock = None

    def _watch(self, events: int) -> None:
        if events == self.events:
            return
        if not events:
            self.selector.unregister(self.sock)
        elif self.events:
            self.selector.modify(self.sock, events, self)
        else:
            self.selector.register(self.sock, events, self)
        self.events = events

    def _advance(self) -> int:
        """Go on until the socket would block: the events to wait for then,
        or 0 once the reply is in."""
        if self.phase == "connect":
            if not self._connected():
                return _WRITE
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.phase = "send"
            if self.target.tls is not None:
                self._watch(0)  # the TLS socket takes over the descriptor
                self.sock = self.target.tls.wrap_socket(
                    self.sock, server_hostname=self.target.hostname,
                    do_handshake_on_connect=False)
                self.phase = "handshake"
        if self.phase == "handshake":
            self.sock.do_handshake()
            self.phase = "send"
        if self.phase == "send":
            if self.outgoing is None:  # held: readable means the peer closed or spoke first
                try:
                    self.sock.recv(1)
                except BlockingIOError:
                    return _READ
                self.close()
                return 0
            while self.outgoing:
                try:
                    self.outgoing = self.outgoing[self.sock.send(self.outgoing):]
                except BlockingIOError:
                    return _WRITE
            self.phase = "receive"
        while True:  # to the end: that also drains what TLS holds decrypted (pending())
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:
                return _READ
            if (response := self.reader.feed(data)) is not None:
                latency_ms = (time.perf_counter() - self.started) * 1000.0
                self.reply = _Reply(self.started_at, latency_ms, *response)
                return 0

    def _connected(self) -> bool:
        """Start or check the connection; False while it is under way."""
        while True:
            if self.sock is None:
                try:
                    family, kind, proto, _, self.address = next(self.addresses)
                except StopIteration:
                    raise self.first_error from None
                try:  # an address family this host cannot use is one more failed address
                    self.sock = socket.socket(family, kind, proto)
                except OSError as exc:
                    self.first_error = self.first_error or exc
                    continue
                self.sock.setblocking(False)
                code = self.sock.connect_ex(self.address)
                if code in _CONNECTING:  # asking again shows whether it is up already
                    code = self.sock.connect_ex(self.address)
            else:
                code = self.sock.connect_ex(self.address)
            if code in (0, errno.EISCONN):
                return True
            if code in _CONNECTING:
                return False
            self.first_error = self.first_error or OSError(code, os.strerror(code))
            self.close()


def _wait_any(selector: selectors.BaseSelector, exchanges: Collection[_Exchange]) -> None:
    """Step the exchanges as their sockets come ready until one has ended,
    those past their deadline ending as timed out."""
    while True:
        now = time.perf_counter()
        for exchange in exchanges:
            if exchange.reply is None and now >= exchange.deadline:
                exchange.end("timed out")
        if any(exchange.reply is not None for exchange in exchanges):
            return
        timeout = min(exchange.deadline for exchange in exchanges) - now
        for key, _ in selector.select(timeout):
            key.data.step()


def _descriptors() -> tuple[float, int]:
    """(soft RLIMIT_NOFILE, descriptors open now); (inf, 0) where either
    cannot be read or there is no limit."""
    try:
        import resource  # only here: not on every platform

        limit, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        open_now = len(os.listdir("/dev/fd")) - 1  # less the one the listing opens
    except (ImportError, OSError):
        return float("inf"), 0
    return (float("inf") if limit == resource.RLIM_INFINITY else limit), open_now


def check_descriptors(config: BackendConfig) -> None:
    """Refuse a max_in_flight whose loop cannot have all its descriptors
    open beside those open already: 2 x max_in_flight sockets (in flight,
    and as many held, or ended but not yet closed), the selector and the
    records file."""
    limit, open_now = _descriptors()
    needed = 2 * config.max_in_flight + 2
    if needed > limit - open_now:
        raise ConfigError(
            f"max_in_flight {config.max_in_flight} needs {needed} descriptors (sockets "
            f"in flight and closing, the selector and the records file), but {open_now} "
            f"of the limit of {limit} are open; lower max_in_flight or raise the "
            f"limit with `ulimit -n`")


def check_health(config: BackendConfig) -> None:
    """Probe the models listing; unreachable or erroring servers are a
    configuration error before the run starts."""
    target = _Target(config)
    with selectors.DefaultSelector() as selector:
        exchange = _Exchange(target, selector, target.request("GET", "/v1/models"))
        try:
            _wait_any(selector, [exchange])
        finally:
            exchange.close()
    reply = exchange.reply
    if reply.error is not None:
        raise ConfigError(f"endpoint health check failed: {reply.error}")
    if reply.status >= 400:
        raise ConfigError(f"endpoint health check failed: HTTP {reply.status} from "
                          f"{target.base_url}/v1/models")


def generate(config: BackendConfig, replies: Sequence[_Reply]) -> GenerationResult | None:
    """An endpoint call's result after its attempts so far, one reply each,
    or None when another attempt is due; generate_all calls it once per
    attempt. Transport errors (timeouts and over-long bodies included), 5xx,
    408, 429 and malformed payloads are retried up to max_retries times; any
    other 4xx fails at once. A call out of attempts is a failed result
    naming its last error."""
    reply, attempts = replies[-1], config.max_retries + 1
    if reply.error is not None:
        error = f"transport error: {reply.error}"
    elif not 200 <= reply.status < 300:
        error = f"HTTP {reply.status}: {reply.data.decode('utf-8', 'replace')[:200]}"
        if 400 <= reply.status < 500 and reply.status not in _RETRIED_CLIENT_ERRORS:
            attempts = len(replies)  # resending the same body cannot fix it
    else:
        try:
            payload = json.loads(reply.data)
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            error = f"malformed completion payload: {exc}"
        else:
            usage = payload.get("usage")  # optional: a count that is not an int is dropped
            counts = ({name: count for name, count in usage.items() if type(count) is int}
                      if isinstance(usage, dict) else {})
            return GenerationResult(
                raw_text=content if isinstance(content, str) else "",
                latency_ms=reply.latency_ms,
                prompt_tokens=counts.get("prompt_tokens"),
                completion_tokens=counts.get("completion_tokens"),
                started_at=replies[0].started_at,
            )
    if len(replies) < attempts:
        return None
    return GenerationResult(
        raw_text="", latency_ms=0.0, failed=True, started_at=replies[0].started_at,
        failure_reason=f"{len(replies)} of {config.max_retries + 1} attempt(s) made; "
                       f"last error: {error}")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Scripted kinds generate this many bundles, then land them as one batch.
# Alternating generation and scoring bundle by bundle made the 9000-record
# corruptor run about 7% slower than runs of 64 or more (each stage's code
# and data leave the CPU caches in between).
_INLINE_RUN = 256

# Takes one landing batch of (bundle, result) pairs; returns the follow-up
# bundles to queue. The harness writes the batch's record lines and flushes
# them once.
OnResult = Callable[[list[tuple[PromptBundle, GenerationResult]]], Iterable[PromptBundle]]


def generate_all(config: BackendConfig, bundles: Iterable[PromptBundle],
                 on_result: OnResult) -> None:
    """Generate every bundle through one work queue.

    Hands the (bundle, result) pairs to on_result on the calling thread a
    landing batch at a time, in completion order, and queues the bundles
    on_result returns ahead of every bundle not yet handed out. Bundles are
    drawn from the iterable only as work is handed out, or, on an endpoint,
    up to max_in_flight ahead of it. Scripted kinds generate inline, in runs
    of up to _INLINE_RUN bundles, and land each run as one batch, in the
    order its bundles were drawn. Each bundle renders through its
    instance's renderer, drawn once per instance per call under the
    corruptor's fault profile (the oracle takes none).

    The endpoint kind runs one selector loop on the calling thread, with at
    most max_in_flight exchanges open, each request on its own connection.
    While they are busy it holds one more connection up for each call known
    to wait (a due retry, a follow-up or a bundle drawn ahead), one per open
    exchange at most, so a call that gets a slot is sent at once, on the
    oldest held connection. In-flight connections are therefore older than
    held ones, which a server that accepts one connection at a time needs.
    Held connections stay within the descriptors free when the loop starts,
    so at most 2 x max_in_flight sockets are open at once: in flight, and
    held or ended but not yet closed. After each wait the loop starts
    replacements for the exchanges that ended (a due retry first), then
    closes their sockets, then lands their results as one batch, so the
    slots are busy again while the caller scores; the loop waits again only
    once on_result has returned. Each attempt's reply goes to
    generate(config, replies), which says whether another attempt is due.
    generate_all is the only way to run an endpoint call, even for one
    bundle. An error raised by on_result or by a request body leaves this
    call with every socket closed.
    """
    source, follow_ups = iter(bundles), deque()

    def next_bundle() -> PromptBundle | None:
        return follow_ups.popleft() if follow_ups else next(source, None)

    if config.kind != "endpoint":
        fault = config.fault if config.kind == "corruptor" else None
        # one draw per instance, for this call, keyed by identity (TaskInstance's
        # hash is Python code); each renderer holds its instance, so no id is reused
        renderers: dict[int, _Renderer] = {}

        def render(bundle: PromptBundle) -> GenerationResult:
            started_at = timestamp()
            instance = bundle.instance
            if (draw := renderers.get(id(instance))) is None:
                draw = renderers[id(instance)] = _draw_fault(instance, fault)
            # scripted latency is pinned to zero so scripted runs stay byte-deterministic
            return GenerationResult(raw_text=draw(bundle.mode, bundle.stage), latency_ms=0.0,
                                    started_at=started_at)

        while batch := [(bundle, render(bundle))
                        for bundle in islice(iter(next_bundle, None), _INLINE_RUN)]:
            follow_ups.extend(on_result(batch))
        return

    target = _Target(config)
    # open exchange -> (bundle, request, replies of its earlier attempts)
    calls: dict[_Exchange, tuple[PromptBundle, bytes, list[_Reply]]] = {}
    retries: deque = deque()  # (bundle, request, replies) due another attempt
    drawn: deque = deque()  # (bundle, request, []) drawn from the source ahead of a slot
    held: deque[_Exchange] = deque()  # connections opened for waiting calls, oldest first
    ended: list[_Exchange] = []
    landed: list[tuple[PromptBundle, GenerationResult]] = []

    def new_call(bundle: PromptBundle) -> tuple[PromptBundle, bytes, list[_Reply]]:
        body = json.dumps(build_request_body(config, bundle)).encode()
        return bundle, target.request("POST", "/v1/chat/completions", body), []

    def next_call() -> tuple[PromptBundle, bytes, list[_Reply]] | None:
        if retries:
            return retries.popleft()
        if follow_ups:
            return new_call(follow_ups.popleft())
        if drawn:
            return drawn.popleft()
        return None if (bundle := next(source, None)) is None else new_call(bundle)

    with selectors.DefaultSelector() as selector:
        limit, open_now = _descriptors()
        try:
            while True:
                while len(calls) < config.max_in_flight and (call := next_call()):
                    while held:  # the oldest held connection still up
                        if (exchange := held.popleft()).sock is not None:
                            exchange.send(call[1])
                            break
                    else:
                        exchange = _Exchange(target, selector, call[1])
                    calls[exchange] = call
                for exchange in ended:
                    exchange.close()
                ended.clear()
                # a connection for each call known to wait, one per open exchange at most
                while len(held) < len(calls) and len(calls) + len(held) < limit - open_now:
                    if len(retries) + len(follow_ups) + len(drawn) <= len(held):
                        if (bundle := next(source, None)) is None:
                            break  # no call waits for another connection
                        drawn.append(new_call(bundle))
                    held.append(_Exchange(target, selector))
                if landed:  # their follow-ups may fill free slots at once
                    follow_ups.extend(on_result(landed))
                    landed = []
                    continue
                if not calls:
                    return
                _wait_any(selector, calls)
                for exchange in [e for e in calls if e.reply is not None]:
                    bundle, request, replies = call = calls.pop(exchange)
                    ended.append(exchange)
                    replies.append(exchange.reply)
                    if (result := generate(config, replies)) is None:
                        retries.append(call)
                    else:
                        landed.append((bundle, result))
        finally:
            for exchange in [*calls, *ended, *held]:
                exchange.close()
