"""Generation backends: live endpoint, perfect oracle, fault corruptor.

The endpoint backend speaks the chat-completions wire protocol and places
constraints into the request body through a configurable field-path map,
since inference servers disagree about where guided-decoding parameters
live. The two scripted backends exist to calibrate the harness itself:
the oracle proves the measurement pipeline has zero intrinsic tax, the
corruptor injects failures at known rates so measured rates can be checked
against the dial settings. The corruptor draws one fault per instance per
run, shared by every mode and stage; the oracle ignores `fault`.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import os
import queue
import time
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterable, Mapping, Sequence
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
        if self.timeout_ms < 1:
            raise ConfigError("timeout_ms must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


@dataclass(frozen=True)
class GenerationResult:
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
        return truth.exec_target if instance.family == "tool_call_argument" else {"answer": answer}

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
    if family == "tool_call_argument":
        target_field = targets[rng.randrange(len(targets))]
        exec_target = {k: (dict(v) if isinstance(v, dict) else v)
                       for k, v in (gt.exec_target or {}).items()}
        args = exec_target["arguments"]
        if target_field == "duration_minutes":
            args["duration_minutes"] = _WRONG_DURATION
        elif target_field == "attendee":
            pool = [normalize_answer(n) for n in NAMES if normalize_answer(n) != args["attendee"]]
            args["attendee"] = pool[rng.randrange(len(pool))]
        elif target_field == "topic":
            pool = [t for t in TOPICS if t != args["topic"]]
            args["topic"] = pool[rng.randrange(len(pool))]
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
        answer = pool[rng.randrange(len(pool))]
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


def corrupt_generate(instance: TaskInstance, mode: str, fault: FaultProfile,
                     stage: str = "single") -> str:
    return _draw_fault(instance, fault)(mode, stage)


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


def _headers() -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV_VAR)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


# Client errors a retry cannot fix; 408 and 429 ask the client to try again.
_RETRIED_CLIENT_ERRORS = frozenset({408, 429})


def _exchange(config: BackendConfig, method: str, path: str,
              body: bytes | None = None) -> tuple[int, bytes]:
    """(status, body) of one request on its own connection, closed once the
    body is read. Proxy variables are not read. timeout_ms bounds each
    socket read, and the body must also be read within timeout_ms of the
    call's start. Raises OSError (timeouts included) or
    http.client.HTTPException on transport failure, and HTTPException on a
    body over MAX_RESPONSE_BYTES."""
    timeout = config.timeout_ms / 1000.0
    deadline = time.monotonic() + timeout
    url = urlsplit(config.base_url.rstrip("/") + path)
    connection_type = (http.client.HTTPSConnection if url.scheme == "https"
                       else http.client.HTTPConnection)
    connection = connection_type(url.hostname, url.port, timeout=timeout)
    try:
        connection.connect()
        sock = connection.sock  # getresponse drops it when the server closes
        connection.request(method, url.path, body=body, headers=_headers())
        response = connection.getresponse()
        data = bytearray()
        while len(data) <= MAX_RESPONSE_BYTES:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("timed out")
            sock.settimeout(left)
            if not (chunk := response.read1(MAX_RESPONSE_BYTES + 1 - len(data))):
                break
            data += chunk
        if len(data) > MAX_RESPONSE_BYTES:
            raise http.client.HTTPException(
                f"response body over the {MAX_RESPONSE_BYTES}-byte cap")
        if response.length:  # closed short of its Content-Length; read1 does not raise
            raise http.client.IncompleteRead(bytes(data), response.length)
        return response.status, bytes(data)
    finally:
        connection.close()


def check_health(config: BackendConfig) -> None:
    """Probe the models listing; unreachable or erroring servers are a
    configuration error before the run starts."""
    try:
        status, _ = _exchange(config, "GET", "/v1/models")
    except (OSError, http.client.HTTPException) as exc:
        raise ConfigError(f"endpoint health check failed: {exc}") from exc
    if status >= 400:
        raise ConfigError(f"endpoint health check failed: HTTP {status} from "
                          f"{config.base_url.rstrip('/')}/v1/models")


def _endpoint_generate(config: BackendConfig, bundle: PromptBundle) -> GenerationResult:
    """One completion, retried up to max_retries times on transport errors,
    over-long bodies, 5xx, 408, 429 and malformed payloads; any other 4xx
    fails at once. A call out of attempts is a failed result naming its
    last error."""
    body = json.dumps(build_request_body(config, bundle)).encode()
    started_at = timestamp()
    attempts = config.max_retries + 1
    for attempt in range(1, attempts + 1):
        started = time.perf_counter()
        try:
            status, data = _exchange(config, "POST", "/v1/chat/completions", body)
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"transport error: {exc}"
            continue
        latency_ms = (time.perf_counter() - started) * 1000.0
        if not 200 <= status < 300:
            last_error = f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}"
            if 400 <= status < 500 and status not in _RETRIED_CLIENT_ERRORS:
                break
            continue
        try:
            payload = json.loads(data)
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            last_error = f"malformed completion payload: {exc}"
            continue
        usage = payload.get("usage")  # optional: a count that is not an int is dropped
        counts = ({name: count for name, count in usage.items() if type(count) is int}
                  if isinstance(usage, dict) else {})
        return GenerationResult(
            raw_text=content if isinstance(content, str) else "",
            latency_ms=latency_ms,
            prompt_tokens=counts.get("prompt_tokens"),
            completion_tokens=counts.get("completion_tokens"),
            started_at=started_at,
        )
    return GenerationResult(
        raw_text="", latency_ms=0.0, failed=True, started_at=started_at,
        failure_reason=f"{attempt} of {attempts} attempt(s) made; last error: {last_error}")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def generate(config: BackendConfig, bundle: PromptBundle,
             renderers: dict[TaskInstance, _Renderer] | None = None) -> GenerationResult:
    """One completion of the bundle. Scripted kinds render it through its
    instance's renderer, drawn once per renderers dict (every call draws
    when it is None) under the corruptor's fault profile; the oracle takes
    no profile."""
    if config.kind == "endpoint":
        return _endpoint_generate(config, bundle)
    started_at = timestamp()
    instance = bundle.instance
    renderers = {} if renderers is None else renderers
    if (render := renderers.get(instance)) is None:
        render = renderers[instance] = _draw_fault(
            instance, config.fault if config.kind == "corruptor" else None)
    # scripted latency is pinned to zero so scripted runs stay byte-deterministic
    return GenerationResult(raw_text=render(bundle.mode, bundle.stage), latency_ms=0.0,
                            started_at=started_at)


# Scripted kinds generate this many bundles, then land them. Alternating
# generation and scoring bundle by bundle made the 9000-record corruptor run
# about 7% slower than runs of 64 or more (each stage's code and data leave
# the CPU caches in between).
_INLINE_RUN = 256

OnResult = Callable[[PromptBundle, GenerationResult], Iterable[PromptBundle]]


def generate_all(config: BackendConfig, bundles: Iterable[PromptBundle],
                 on_result: OnResult) -> None:
    """Generate every bundle through one work queue.

    Hands each (bundle, result) to on_result on the calling thread as it
    lands, in completion order, and queues the bundles on_result returns
    ahead of the rest. Bundles are drawn from the iterable only as work is
    handed out. Scripted kinds generate inline, in runs of up to
    _INLINE_RUN bundles, and land in the order they are drawn.

    The endpoint kind generates on a standard thread pool of max_in_flight
    workers, so at most that many calls are in flight, and keeps up to
    max_in_flight more bundles handed out, so a worker never idles while
    the caller lands a result. An error raised by a worker or by on_result
    leaves this call once the unstarted bundles are cancelled and the calls
    in flight have finished.
    """
    source, follow_ups = iter(bundles), deque()

    def next_bundle() -> PromptBundle | None:
        return follow_ups.popleft() if follow_ups else next(source, None)

    if config.kind != "endpoint":
        renderers: dict[TaskInstance, _Renderer] = {}  # lives as long as this call
        while batch := [(bundle, generate(config, bundle, renderers))
                        for bundle in islice(iter(next_bundle, None), _INLINE_RUN)]:
            for bundle, result in batch:
                follow_ups.extend(on_result(bundle, result))
        return

    # Imported here, not at the top: concurrent.futures loads logging, about
    # 7 ms on a 2-vCPU machine that scripted runs and `import ctax.cli` need
    # not pay.
    from concurrent.futures import ThreadPoolExecutor

    landed: queue.SimpleQueue = queue.SimpleQueue()  # (bundle, future), as each finishes
    pool = ThreadPoolExecutor(config.max_in_flight, thread_name_prefix=f"ctax-{config.label}")
    handed_out = 0
    try:
        while True:
            while handed_out < 2 * config.max_in_flight and (
                    bundle := next_bundle()) is not None:
                pool.submit(generate, config, bundle).add_done_callback(
                    lambda future, bundle=bundle: landed.put((bundle, future)))
                handed_out += 1
            if not handed_out:
                return
            bundle, future = landed.get()
            handed_out -= 1
            follow_ups.extend(on_result(bundle, future.result()))
    finally:
        pool.shutdown(cancel_futures=True)
