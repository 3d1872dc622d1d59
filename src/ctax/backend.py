"""Generation backends: live endpoint, perfect oracle, fault corruptor.

The endpoint backend speaks the chat-completions wire protocol and places
constraints into the request body through a configurable field-path map,
since inference servers disagree about where guided-decoding parameters
live. The two scripted backends exist to calibrate the harness itself:
the oracle proves the measurement pipeline has zero intrinsic tax, the
corruptor injects failures at known rates so measured rates can be checked
against the dial settings.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Any, Callable, Iterable, Mapping, Sequence
from urllib.parse import urlsplit

from .errors import ConfigError, GenerationFailed
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


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.0
    # None -> per-mode default: 512, or 1024 for unconstrained long-form stages
    max_tokens: int | None = None
    request_seed: int | None = None


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
        if self.base_url and urlsplit(self.base_url).scheme not in ("http", "https"):
            raise ConfigError(f"base_url must start with http:// or https://, "
                              f"got {self.base_url!r}")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


@dataclass(frozen=True)
class GenerationResult:
    instance_id: str
    stage: str
    raw_text: str
    latency_ms: float
    backend_label: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    failed: bool = False
    failure_reason: str | None = None


# ---------------------------------------------------------------------------
# Oracle: renders a perfect completion for any (instance, mode, stage)
# ---------------------------------------------------------------------------

def _render_completion(instance: TaskInstance, mode: str, stage: str,
                       answer: str, exec_target: dict | None,
                       trace: Sequence[TraceStep]) -> str:
    family = instance.family
    is_tool = family == "tool_call_argument"

    def object_payload() -> Any:
        return exec_target if is_tool else {"answer": answer}

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
    gt = instance.ground_truth
    return _render_completion(instance, mode, stage, gt.final_answer,
                              gt.exec_target, gt.trace)


# ---------------------------------------------------------------------------
# Corruptor: oracle output with dialed-in faults
# ---------------------------------------------------------------------------

def _malform(text: str) -> str:
    """Truncate a completion so no JSON value survives extraction."""
    cut = text[: max(1, (2 * len(text)) // 3)]
    broken = cut.replace("}", "").replace('"answer"', '"answe')
    return broken if broken.strip() else "{"


_WRONG_DURATION = 180  # deliberately plausible but wrong


def _tampered_truth(instance: TaskInstance, rng: SplitMix64,
                    targets: Sequence[str]) -> tuple[str, dict | None]:
    """(wrong answer, wrong exec_target) staying schema-valid and in-domain."""
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
        return canonical_serialize(exec_target), exec_target
    if family == "arithmetic_two_step":
        return str(int(gt.final_answer) + 1), None
    if family == "boolean_logic":
        return ("false" if gt.final_answer == "true" else "true"), None
    if family == "symbolic_string":
        wrong_head = "z" if gt.final_answer[0] != "z" else "q"
        return wrong_head + gt.final_answer[1:], None
    if family == "object_tracking":
        participants = [normalize_answer(instance.slots[k]) for k in ("p1", "p2", "p3")]
        pool = [p for p in participants if p != gt.final_answer]
        return pool[rng.randrange(len(pool))], None
    raise ConfigError(f"unknown task family: {family!r}")


def _tampered_trace(instance: TaskInstance, answer: str,
                    exec_target: dict | None) -> tuple[TraceStep, ...]:
    """Trace consistent with a tampered truth: the fault models a model
    that is wrong, not one that contradicts itself at the last line."""
    gt = instance.ground_truth
    if instance.family == "tool_call_argument" and exec_target is not None:
        args = exec_target["arguments"]
        swap = {"resolve_date": args["date"], "resolve_time": args["start_time"],
                "build_arguments": answer}
        return tuple(TraceStep(s.op_name, s.inputs, swap.get(s.op_name, s.output))
                     for s in gt.trace)
    true_answer = gt.final_answer
    return tuple(TraceStep(s.op_name, s.inputs,
                           answer if s.output == true_answer else s.output)
                 for s in gt.trace)


def corrupt_generate(instance: TaskInstance, mode: str, fault: FaultProfile,
                     stage: str = "single") -> str:
    rng = SplitMix64(derive_seed(fault.seed, instance.id))
    u_invalid = rng.random()
    u_wrong = rng.random()
    if u_invalid < fault.p_invalid_json:
        return _malform(oracle_generate(instance, mode, stage))
    if u_wrong < fault.p_wrong_field:
        answer, exec_target = _tampered_truth(instance, rng, fault.wrong_field_targets)
        gt = instance.ground_truth
        trace = _tampered_trace(instance, answer, exec_target)
        return _render_completion(instance, mode, stage, answer,
                                  exec_target or gt.exec_target, trace)
    return oracle_generate(instance, mode, stage)


# ---------------------------------------------------------------------------
# Endpoint client
# ---------------------------------------------------------------------------

def _set_path(body: dict, path: str, value: Any) -> None:
    parts = path.split(".")
    node = body
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"constraint transport path collides at {part!r} in {path!r}")
    node[parts[-1]] = value


def effective_max_tokens(bundle: PromptBundle, sampling: SamplingConfig) -> int:
    if sampling.max_tokens is not None:
        return sampling.max_tokens
    if bundle.mode in FREEFORM_MODES or bundle.stage == "stage1":
        return FREEFORM_MAX_TOKENS
    return DEFAULT_MAX_TOKENS


def build_request_body(config: BackendConfig, bundle: PromptBundle) -> dict:
    """Chat-completions request with the constraint mapped into place.

    A constrained bundle whose kind has no transport mapping is a
    configuration error, caught before any network traffic.
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
    body is read. Proxy variables are not read. Raises OSError (timeouts
    included) or http.client.HTTPException on transport failure."""
    url = urlsplit(config.base_url.rstrip("/") + path)
    connection_type = (http.client.HTTPSConnection if url.scheme == "https"
                       else http.client.HTTPConnection)
    connection = connection_type(url.hostname, url.port,
                                 timeout=config.timeout_ms / 1000.0)
    try:
        connection.request(method, url.path, body=body, headers=_headers())
        response = connection.getresponse()
        return response.status, response.read()
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
    5xx, 408, 429 and malformed payloads; any other 4xx fails at once."""
    body = json.dumps(build_request_body(config, bundle)).encode()
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
            instance_id=bundle.instance_id,
            stage=bundle.stage,
            raw_text=content if isinstance(content, str) else "",
            latency_ms=latency_ms,
            backend_label=config.label,
            prompt_tokens=counts.get("prompt_tokens"),
            completion_tokens=counts.get("completion_tokens"),
        )
    raise GenerationFailed(f"{attempt} of {attempts} attempt(s) made; last error: {last_error}")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def generate(config: BackendConfig, bundle: PromptBundle,
             instance: TaskInstance | None = None) -> GenerationResult:
    """One completion. Scripted kinds require the instance (they render
    from ground truth); the endpoint kind ignores it."""
    if config.kind == "endpoint":
        return _endpoint_generate(config, bundle)
    if instance is None:
        raise ConfigError(f"{config.kind} backend needs the task instance")
    if config.kind == "oracle":
        text = oracle_generate(instance, bundle.mode, bundle.stage)
    elif config.kind == "corruptor":
        text = corrupt_generate(instance, bundle.mode, config.fault or FaultProfile(),
                                bundle.stage)
    else:  # pragma: no cover - guarded by BackendConfig
        raise ConfigError(f"unknown backend kind: {config.kind!r}")
    # scripted latency is pinned to zero so scripted runs stay byte-deterministic
    return GenerationResult(
        instance_id=bundle.instance_id,
        stage=bundle.stage,
        raw_text=text,
        latency_ms=0.0,
        backend_label=config.label,
    )


# Scripted kinds generate this many bundles, then land them. Alternating
# generation and scoring bundle by bundle made the 9000-record corruptor run
# about 7% slower than runs of 64 or more (each stage's code and data leave
# the CPU caches in between).
_INLINE_RUN = 256

OnResult = Callable[[PromptBundle, GenerationResult, str], Iterable[PromptBundle]]


def _attempt(config: BackendConfig, bundle: PromptBundle,
             instances_by_id: Mapping[str, TaskInstance] | None
             ) -> tuple[PromptBundle, GenerationResult, str]:
    """(bundle, result, start time of its generation); a failed generation
    becomes a failed result rather than an exception."""
    instance = instances_by_id.get(bundle.instance_id) if instances_by_id else None
    started_at = timestamp()
    try:
        result = generate(config, bundle, instance)
    except GenerationFailed as exc:
        result = GenerationResult(
            instance_id=bundle.instance_id,
            stage=bundle.stage,
            raw_text="",
            latency_ms=0.0,
            backend_label=config.label,
            failed=True,
            failure_reason=str(exc),
        )
    return bundle, result, started_at


def generate_all(config: BackendConfig, bundles: Iterable[PromptBundle],
                 instances_by_id: Mapping[str, TaskInstance] | None = None,
                 on_result: OnResult | None = None) -> list[GenerationResult]:
    """Generate every bundle through one work queue.

    Without on_result, returns the results in ascending (instance id, stage)
    order. With it, hands each (bundle, result, started_at) to on_result on
    the calling thread as it lands, in completion order, and queues the
    bundles on_result returns ahead of the rest; the list returned is
    empty. Bundles are drawn from the iterable only as work is handed out.
    The endpoint kind generates on max_in_flight worker threads, so at most
    that many calls are in flight; scripted kinds generate inline, in runs
    of up to _INLINE_RUN bundles.
    """
    source, follow_ups = iter(bundles), deque()
    results: list[GenerationResult] = []

    def next_bundle() -> PromptBundle | None:
        return follow_ups.popleft() if follow_ups else next(source, None)

    def land(bundle: PromptBundle, result: GenerationResult, started_at: str) -> None:
        if on_result is None:
            results.append(result)
        else:
            follow_ups.extend(on_result(bundle, result, started_at))

    if config.kind == "endpoint":
        _stream(config, instances_by_id, next_bundle, land)
    else:
        while batch := [_attempt(config, bundle, instances_by_id)
                        for bundle in islice(iter(next_bundle, None), _INLINE_RUN)]:
            for item in batch:
                land(*item)
    return sorted(results, key=lambda r: (r.instance_id, r.stage))


def _stream(config: BackendConfig, instances_by_id: Mapping[str, TaskInstance] | None,
            next_bundle: Callable[[], PromptBundle | None],
            land: Callable[[PromptBundle, GenerationResult, str], None]) -> None:
    """Run next_bundle's work on max_in_flight worker threads and land each
    result on the calling thread. Up to max_in_flight more bundles wait
    handed out, so a worker never idles while the caller scores. On an
    error the workers stop after the call they are in."""
    work: queue.SimpleQueue = queue.SimpleQueue()
    landed: queue.SimpleQueue = queue.SimpleQueue()
    stop = threading.Event()

    def worker() -> None:
        while not stop.is_set() and (bundle := work.get()) is not None:
            try:
                landed.put(_attempt(config, bundle, instances_by_id))
            except BaseException as exc:  # re-raised on the calling thread
                landed.put(exc)
                return

    workers = [threading.Thread(target=worker, name=f"ctax-{config.label}-{i}", daemon=True)
               for i in range(config.max_in_flight)]
    for thread in workers:
        thread.start()
    handed_out = 0
    try:
        while True:
            while handed_out < 2 * config.max_in_flight and (
                    bundle := next_bundle()) is not None:
                work.put(bundle)
                handed_out += 1
            if not handed_out:
                return
            item = landed.get()
            handed_out -= 1
            if isinstance(item, BaseException):
                raise item
            land(*item)
    finally:
        stop.set()
        for _ in workers:
            work.put(None)
        for thread in workers:
            thread.join()
