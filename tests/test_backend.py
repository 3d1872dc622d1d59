"""Oracle fidelity, corruptor dials, endpoint wire behavior."""

from __future__ import annotations

import datetime as dt
import http.client
import io
import ipaddress
import json
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from ctax import backend
from ctax.backend import (
    DEFAULT_CONSTRAINT_TRANSPORT,
    FREEFORM_MAX_TOKENS,
    TOKEN_ENV_VAR,
    BackendConfig,
    FaultProfile,
    SamplingConfig,
    build_request_body,
    check_health,
    effective_max_tokens,
    generate_all,
    oracle_generate,
)
from ctax.errors import ConfigError
from ctax.modes import MODE_NAMES, build_delayed_stage2, build_prompt, parse_for_mode
from ctax.checkers import score_completion
from ctax.taskgen import (CALENDAR_SEMANTIC_FIELDS, FAMILIES, generate_suite, read_suite,
                          write_suite)
from ctax.validation import canonical_serialize, extract_json
from verdict_cases import corrupt_generate


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_is_correct_under_every_mode_and_family():
    for family in FAMILIES:
        for inst in generate_suite(family, 3, seed=5):
            for mode in MODE_NAMES:
                if mode == "delayed_constraint":
                    continue  # two-stage; covered below
                raw = oracle_generate(inst, mode)
                parse = parse_for_mode(raw, mode, family)
                res = score_completion(inst, mode, parse, raw)
                assert res.error_class == "correct_valid", (family, mode, raw)
                assert res.schema_valid and res.answer_correct and res.exec_correct


def test_oracle_delayed_stages():
    from ctax.modes import build_delayed_stage2

    for family in FAMILIES:
        inst = generate_suite(family, 1, seed=5)[0]
        stage1 = oracle_generate(inst, "delayed_constraint", "stage1")
        assert "Final answer:" in stage1
        packaged = build_delayed_stage2(stage1, inst, "deterministic")
        assert not packaged.failed, family
        stage2 = oracle_generate(inst, "delayed_constraint", "stage2")
        assert packaged.packaged_text == stage2  # packaging equals the oracle object


def test_oracle_typed_trace_is_internally_consistent():
    inst = generate_suite("arithmetic_two_step", 1, seed=5)[0]
    doc = json.loads(oracle_generate(inst, "typed_trace_schema"))
    assert str(doc["steps"][-1]["output"]) == doc["answer"]


def test_oracle_unknown_mode():
    inst = generate_suite("boolean_logic", 1, seed=5)[0]
    with pytest.raises(ConfigError):
        oracle_generate(inst, "made_up_mode")


# ---------------------------------------------------------------------------
# corruptor
# ---------------------------------------------------------------------------

def test_corruptor_passthrough_with_zero_dials():
    fault = FaultProfile()
    for family in FAMILIES:
        inst = generate_suite(family, 1, seed=6)[0]
        for mode in ("freeform", "prompt_json", "typed_trace_schema"):
            assert corrupt_generate(inst, mode, fault) == oracle_generate(inst, mode)


def test_corruptor_forced_invalid_json():
    fault = FaultProfile(p_invalid_json=1.0)
    for inst in generate_suite("arithmetic_two_step", 20, seed=6):
        raw = corrupt_generate(inst, "answer_only_schema", fault)
        assert not extract_json(raw).ok
        parse = parse_for_mode(raw, "answer_only_schema", inst.family)
        res = score_completion(inst, "answer_only_schema", parse, raw)
        assert res.error_class == "invalid_json"


def test_corruptor_forced_wrong_field():
    fault = FaultProfile(p_wrong_field=1.0)
    for inst in generate_suite("symbolic_string", 20, seed=6):
        raw = corrupt_generate(inst, "answer_only_schema", fault)
        parse = parse_for_mode(raw, "answer_only_schema", inst.family)
        res = score_completion(inst, "answer_only_schema", parse, raw)
        assert res.error_class == "wrong_answer_valid_schema"
        assert res.schema_valid and not res.answer_correct


def test_corruptor_wrong_duration_target():
    fault = FaultProfile(p_wrong_field=1.0, wrong_field_targets=("duration_minutes",))
    inst = generate_suite("tool_call_argument", 1, seed=6)[0]
    raw = corrupt_generate(inst, "answer_only_schema", fault)
    obj = json.loads(raw)
    assert obj["arguments"]["duration_minutes"] == 180
    parse = parse_for_mode(raw, "answer_only_schema", inst.family)
    res = score_completion(inst, "answer_only_schema", parse, raw)
    assert res.calendar_failure_class == "wrong_duration"


def test_corruptor_deterministic_and_instance_pinned():
    fault = FaultProfile(p_invalid_json=0.3, p_wrong_field=0.4, seed=11)
    suite = generate_suite("boolean_logic", 30, seed=6)
    first = [corrupt_generate(i, "prompt_json", fault) for i in suite]
    second = [corrupt_generate(i, "prompt_json", fault) for i in suite]
    assert first == second
    moved = [corrupt_generate(i, "prompt_json", FaultProfile(
        p_invalid_json=0.3, p_wrong_field=0.4, seed=12)) for i in suite]
    assert first != moved


def test_corruptor_fault_is_mode_independent():
    """The same instance draws the same fault in every mode, so pairing
    across modes stays meaningful."""
    fault = FaultProfile(p_wrong_field=0.5, seed=3)
    for inst in generate_suite("arithmetic_two_step", 30, seed=6):
        answers = set()
        for mode in ("prompt_json", "answer_only_schema", "typed_trace_schema"):
            raw = corrupt_generate(inst, mode, fault)
            answers.add(str(json.loads(raw)["answer"]))
        assert len(answers) == 1, inst.id


def test_corruptor_tampered_trace_stays_consistent():
    fault = FaultProfile(p_wrong_field=1.0)
    for family in FAMILIES:
        inst = generate_suite(family, 3, seed=8)[0]
        raw = corrupt_generate(inst, "typed_trace_schema", fault)
        parse = parse_for_mode(raw, "typed_trace_schema", family)
        res = score_completion(inst, "typed_trace_schema", parse, raw)
        # wrong, but never self-contradictory
        assert res.error_class == "wrong_answer_valid_schema", (family, raw)


def test_corruptor_rates_track_dials():
    fault = FaultProfile(p_invalid_json=0.5, seed=21)
    suite = generate_suite("arithmetic_two_step", 400, seed=9)
    bad = sum(1 for i in suite
              if not extract_json(corrupt_generate(i, "prompt_json", fault)).ok)
    assert 160 <= bad <= 240  # 0.5 +/- 4 sigma at n=400


def test_malform_never_leaves_extractable_json():
    fault = FaultProfile(p_invalid_json=1.0)
    for family in FAMILIES:
        for inst in generate_suite(family, 10, seed=10):
            for mode in ("prompt_json", "answer_only_schema",
                         "rationale_answer_schema", "typed_trace_schema"):
                raw = corrupt_generate(inst, mode, fault)
                assert not extract_json(raw).ok, (family, mode, raw)


# ---------------------------------------------------------------------------
# request building
# ---------------------------------------------------------------------------

def _endpoint_config(base_url="http://127.0.0.1:9", **kw):
    return BackendConfig(kind="endpoint", label="ep", model_id="m-1b",
                         base_url=base_url, **kw)


def test_request_body_shape():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "freeform")
    body = build_request_body(_endpoint_config(), bundle)
    assert body["model"] == "m-1b"
    assert body["messages"] == [{"role": "user", "content": bundle.user_text}]
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == FREEFORM_MAX_TOKENS
    assert "guided_json" not in body and "guided_regex" not in body
    assert "seed" not in body


def test_request_body_carries_schema_constraint():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "answer_only_schema")
    body = build_request_body(_endpoint_config(), bundle)
    assert body["guided_json"] == bundle.constraint.schema
    assert body["max_tokens"] == 512


def test_request_body_carries_regex_constraint():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "final_only_regex")
    body = build_request_body(_endpoint_config(), bundle)
    assert body["guided_regex"] == bundle.constraint.pattern == "^(true|false)$"


def test_request_body_nested_transport_path():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "answer_only_schema")
    config = _endpoint_config(
        constraint_transport={"schema": "response_format.json_schema"})
    body = build_request_body(config, bundle)
    assert body["response_format"]["json_schema"] == bundle.constraint.schema


def test_request_body_seed_and_max_tokens_override():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "freeform")
    config = _endpoint_config(
        sampling=SamplingConfig(temperature=0.2, max_tokens=64, request_seed=7))
    body = build_request_body(config, bundle)
    assert body["seed"] == 7 and body["max_tokens"] == 64
    assert body["temperature"] == 0.2


def test_missing_transport_mapping_is_config_error():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "answer_only_schema")
    config = _endpoint_config(constraint_transport={})
    with pytest.raises(ConfigError, match="transport"):
        build_request_body(config, bundle)
    # surfaces from _generate_one() before any network traffic
    with pytest.raises(ConfigError):
        _generate_one(config, bundle)


def test_transport_path_collision_is_config_error():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    for mode, transport, sampling, message in [
        ("answer_only_schema", {"schema": "messages.guided"}, None, "collides at 'messages'"),
        ("answer_only_schema", {"schema": "model"}, None, "collides at 'model'"),
        ("answer_only_schema", {"schema": "messages"}, None, "collides at 'messages'"),
        ("final_only_regex", {"regex": "max_tokens"}, None, "collides at 'max_tokens'"),
        ("final_only_regex", {"regex": "seed"}, SamplingConfig(request_seed=7),
         "collides at 'seed'"),
        ("answer_only_schema", {"schema": "guided_json."}, None, "has an empty part"),
        ("answer_only_schema", {"schema": "response_format..json_schema"}, None,
         "has an empty part"),
    ]:
        config = _endpoint_config(constraint_transport=transport,
                                  sampling=sampling or SamplingConfig())
        with pytest.raises(ConfigError, match=message):
            build_request_body(config, build_prompt(inst, mode))


def test_effective_max_tokens_per_stage():
    inst = generate_suite("arithmetic_two_step", 1, seed=2)[0]
    sampling = SamplingConfig()
    stage1 = build_prompt(inst, "delayed_constraint")
    assert effective_max_tokens(stage1, sampling) == FREEFORM_MAX_TOKENS
    schema_bundle = build_prompt(inst, "answer_only_schema")
    assert effective_max_tokens(schema_bundle, sampling) == 512


def test_backend_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(kind="quantum", label="x")
    with pytest.raises(ConfigError):
        BackendConfig(kind="endpoint", label="x")  # no base_url
    with pytest.raises(ConfigError):
        BackendConfig(kind="oracle", label="x", max_in_flight=0)
    # no host, or a port urlsplit cannot read
    for url in ("http://127.0.0.1:99999", "http://", "http://h:abc"):
        with pytest.raises(ConfigError, match="base_url"):
            BackendConfig(kind="endpoint", label="x", base_url=url)


@pytest.mark.parametrize("kw, named", [
    ({"base_url": "localhost:8000"}, "base_url"),
    ({"base_url": "ftp://models.example"}, "base_url"),
    ({"base_url": "http://127.0.0.1:9", "max_retries": -1}, "max_retries"),
    ({"base_url": "http://127.0.0.1:9", "timeout_ms": 0}, "timeout_ms"),
    ({"base_url": "http://127.0.0.1:9", "timeout_ms": -5}, "timeout_ms"),
])
def test_backend_config_rejects_unusable_endpoint_settings(kw, named):
    with pytest.raises(ConfigError, match=named):
        BackendConfig(kind="endpoint", label="x", **kw)


@pytest.mark.parametrize("kw, named", [
    ({"max_tokens": -1}, "max_tokens"),
    ({"max_tokens": 0}, "max_tokens"),
    ({"temperature": -3.0}, "temperature"),
    ({"temperature": -0.5, "max_tokens": 64}, "temperature"),
    ({"temperature": float("nan")}, "temperature"),
])
def test_sampling_config_rejects_values_a_server_would_refuse(kw, named):
    with pytest.raises(ConfigError, match=named):
        SamplingConfig(**kw)
    SamplingConfig(temperature=0.0, max_tokens=1)  # the bounds themselves are fine
    SamplingConfig(max_tokens=None)  # unset: the per-mode default


@pytest.mark.parametrize("kw, named", [
    ({"p_invalid_json": -0.1}, "p_invalid_json"),
    ({"p_invalid_json": 1.5}, "p_invalid_json"),
    ({"p_wrong_field": -1.0}, "p_wrong_field"),
    ({"p_wrong_field": 2.0}, "p_wrong_field"),
    ({"p_wrong_field": float("nan")}, "p_wrong_field"),
])
def test_fault_profile_rejects_probabilities_outside_the_unit_interval(kw, named):
    with pytest.raises(ConfigError, match=named):
        FaultProfile(**kw)
    FaultProfile(p_invalid_json=0.0, p_wrong_field=1.0)  # the bounds themselves are fine


# ---------------------------------------------------------------------------
# stub endpoint server
# ---------------------------------------------------------------------------

_USAGE = {"prompt_tokens": 7, "completion_tokens": 3}


class _StubState:
    def __init__(self, fail_first=0, models_status=200, malformed_payload=False,
                 delay=0.0, content=None, fail_status=500, hang_after=None,
                 usage=_USAGE):
        self.lock = threading.Lock()
        self.usage = usage
        self.fail_first = fail_first
        self.fail_status = fail_status
        # posts after the first hang_after hang until release is set, then
        # get no answer
        self.hang_after = hang_after
        self.release = threading.Event()
        self.hung = 0
        self.models_status = models_status
        self.malformed_payload = malformed_payload
        self.delay = delay
        self.content = content
        self.posts: list[tuple[dict, dict]] = []  # (headers, body)
        self.post_count = 0
        self.connections = 0  # accepted
        self.idle: list[float] = []  # per post, seconds from its connection's accept
        self.active = 0
        self.peak = 0


class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep pytest output clean
        pass

    def setup(self):
        super().setup()
        self.accepted = time.monotonic()
        with self.server.state.lock:
            self.server.state.connections += 1

    def _respond(self, code: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        state = self.server.state
        if self.path == "/v1/models":
            self._respond(state.models_status, {"data": [{"id": "stub"}]})
        else:
            self._respond(404, {"error": "not found"})

    def do_POST(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with state.lock:
            state.post_count += 1
            count = state.post_count
            state.posts.append((dict(self.headers), body))
            state.idle.append(time.monotonic() - self.accepted)
            state.active += 1
            state.peak = max(state.peak, state.active)
        if state.delay:
            time.sleep(state.delay)
        hang = state.hang_after is not None and count > state.hang_after
        with state.lock:
            state.active -= 1
            state.hung += hang
        if hang:
            state.release.wait(timeout=60)
            return
        if count <= state.fail_first:
            self._respond(state.fail_status, {"error": "transient"})
            return
        if state.malformed_payload:
            self._respond(200, {"unexpected": True})
            return
        content = state.content
        if content is None:
            content = f"echo {body['messages'][0]['content'][:20]}"
        self._respond(200, {
            "choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": state.usage,
        })


@contextmanager
def stub_server(threaded=True, tls=None, **kw):
    """A stub endpoint: a thread per connection unless threaded is False,
    and HTTPS when tls is a server SSLContext."""
    state = _StubState(**kw)
    server = (ThreadingHTTPServer if threaded else HTTPServer)(("127.0.0.1", 0), _StubHandler)
    server.state = state
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield state, f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"
    finally:
        state.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _read_request(conn: socket.socket) -> bytes:
    """Read one request, headers and Content-Length body, off a raw socket
    server's connection, and return its head. Closing with request bytes
    unread makes the kernel reset the connection, and the client may see the
    reset before the reply."""
    data = b""
    while b"\r\n\r\n" not in data and (chunk := conn.recv(65536)):
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next((int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
                   if line.lower().startswith(b"content-length:")), 0)
    while len(body) < length and (chunk := conn.recv(65536)):
        body += chunk
    return head


# ---------------------------------------------------------------------------
# endpoint behavior
# ---------------------------------------------------------------------------

def test_endpoint_round_trip_with_constraint_and_usage():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "answer_only_schema")
    with stub_server(content='{"answer":"true"}') as (state, url):
        result = _generate_one(_endpoint_config(base_url=url), bundle)
    assert result.raw_text == '{"answer":"true"}'
    assert result.prompt_tokens == 7 and result.completion_tokens == 3
    assert result.latency_ms > 0
    assert not result.failed
    headers, body = state.posts[0]
    assert body["guided_json"] == bundle.constraint.schema
    assert body["model"] == "m-1b"


def test_endpoint_bearer_token_from_env(monkeypatch):
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
    with stub_server() as (state, url):
        _generate_one(_endpoint_config(base_url=url), bundle)
    headers, _ = state.posts[0]
    assert headers.get("Authorization") == "Bearer sekrit"

    monkeypatch.delenv(TOKEN_ENV_VAR)
    with stub_server() as (state2, url2):
        _generate_one(_endpoint_config(base_url=url2), bundle)
    headers2, _ = state2.posts[0]
    assert "Authorization" not in headers2


@pytest.mark.parametrize("key", ["abc\nX-Injected: 1", "abc\r\nX-Injected: 1", "k\u20acy"],
                         ids=["newline", "crlf", "not-latin-1"])
def test_an_api_key_that_cannot_go_into_a_request_head_is_refused(tmp_path, monkeypatch,
                                                                  capsys, key):
    """Written as given, a line break in the key would start a header line
    of its own in every request, and a character latin-1 lacks could not be
    written at all: the run is refused before any request, by an error that
    leaves the key out."""
    from ctax.cli import main

    monkeypatch.setenv(TOKEN_ENV_VAR, key)
    with stub_server(content="ok") as (state, url):
        doc = {"run_id": "key", "suite": {"families": ["boolean_logic"], "count": 2, "seed": 3},
               "modes": ["freeform"],
               "backends": [{"kind": "endpoint", "label": "ep", "model_id": "m",
                             "base_url": url}]}
        config_path, out = tmp_path / "config.json", tmp_path / "out"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[ERROR] {TOKEN_ENV_VAR} must hold no line break")
    assert "X-Injected" not in err and "\u20ac" not in err
    assert not out.exists() and state.connections == 0


def test_endpoint_retries_then_succeeds():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(fail_first=2, content="ok") as (state, url):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=2), bundle)
    assert result.raw_text == "ok"
    assert state.post_count == 3


def test_endpoint_persistent_failure_raises():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(fail_first=10**6) as (state, url):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=1), bundle)
    assert result.failed and "HTTP 500" in result.failure_reason
    assert state.post_count == 2  # retries + 1 attempts, then gave up


def test_endpoint_malformed_payload_raises():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(malformed_payload=True) as (_state, url):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=0), bundle)
    assert result.failed and "malformed completion payload" in result.failure_reason


@pytest.mark.parametrize("usage", ["n/a", ["7"], {"prompt_tokens": "7", "completion_tokens": 3.0},
                                   None])
def test_endpoint_drops_token_counts_that_are_not_integers(usage):
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    with stub_server(content="ok", usage=usage) as (_state, url):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=0),
                          build_prompt(inst, "freeform"))
    assert result.raw_text == "ok"
    assert (result.prompt_tokens, result.completion_tokens) == (None, None)


def test_endpoint_connection_refused_raises():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    url = f"http://127.0.0.1:{_free_port()}"
    result = _generate_one(_endpoint_config(base_url=url, max_retries=0), bundle)
    assert result.failed and "transport error" in result.failure_reason


def test_endpoint_moves_to_the_next_address_when_a_connect_fails(monkeypatch):
    """As socket.create_connection does: an address that refuses, or whose
    family cannot be used, gives way to the next one the host resolves to;
    when none connects, the first error is the attempt's."""
    bundle = build_prompt(generate_suite("boolean_logic", 1, seed=4)[0], "freeform")
    refused = ("127.0.0.1", _free_port())
    unusable = (socket.AF_UNIX, socket.SOCK_STREAM, 12345, "", "/nowhere")  # bad protocol
    with stub_server(content="ok") as (state, url):
        served = ("127.0.0.1", int(url.rsplit(":", 1)[1]))
        for addresses, ok in (([refused, served], True), ([refused, refused], False)):
            infos = [unusable] + [(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "",
                                   address) for address in addresses]
            monkeypatch.setattr(backend.socket, "getaddrinfo", lambda *a, **k: infos)
            result = _generate_one(_endpoint_config(base_url=url, max_retries=0), bundle)
            assert result.failed is not ok, result.failure_reason
        assert state.post_count == 1
    assert "Protocol not supported" in result.failure_reason


def test_a_host_that_resolves_to_no_address_is_a_transport_error(monkeypatch):
    """An empty address list is a resolution error: every attempt of every
    call ends with it, and the health check refuses the endpoint."""
    monkeypatch.setattr(backend.socket, "getaddrinfo", lambda *a, **k: [])
    config = _endpoint_config(base_url="http://example.invalid", max_retries=1)
    bundles = [build_prompt(i, "freeform") for i in generate_suite("boolean_logic", 3, seed=4)]
    landed = _collect(config, bundles)
    assert len(landed) == 3
    for _, result in landed:
        assert result.failed and result.failure_reason.startswith(
            "2 of 2 attempt(s) made; last error: transport error: "), result.failure_reason
    with pytest.raises(ConfigError, match="health check failed: .*no address"):
        check_health(config)


def _collect(config, bundles):
    """Every (bundle, result) generate_all lands, in landing order."""
    landed = []
    generate_all(config, bundles, lambda pairs: landed.extend(pairs) or [])
    return landed


def _generate_one(config, bundle):
    """The result generate_all lands for a lone bundle."""
    ((_, result),) = _collect(config, [bundle])
    return result


def test_scripted_generate_all_lands_runs_of_at_most_inline_run_pairs():
    suite = generate_suite("boolean_logic", 300, seed=4)
    batches = []

    def on_result(pairs):
        batches.append([(bundle.mode, bundle.instance_id) for bundle, _ in pairs])
        return [build_prompt(bundle.instance, "prompt_json")
                for bundle, _ in pairs if bundle.mode == "freeform"]

    generate_all(BackendConfig(kind="oracle"), [build_prompt(i, "freeform") for i in suite],
                 on_result)
    rest = 300 - backend._INLINE_RUN
    assert [len(batch) for batch in batches] == [backend._INLINE_RUN] * 2 + [rest] * 2
    assert [pair for batch in batches for pair in batch] == (
        [("freeform", i.id) for i in suite[:backend._INLINE_RUN]]
        + [("prompt_json", i.id) for i in suite[:backend._INLINE_RUN]]  # follow-ups first
        + [("freeform", i.id) for i in suite[backend._INLINE_RUN:]]
        + [("prompt_json", i.id) for i in suite[backend._INLINE_RUN:]])


def test_generate_all_bounds_concurrency():
    suite = generate_suite("boolean_logic", 6, seed=4)
    bundles = [build_prompt(i, "freeform") for i in suite]
    with stub_server(delay=0.05, content="ok") as (state, url):
        config = _endpoint_config(base_url=url, max_in_flight=2)
        landed = _collect(config, bundles)
    assert len(landed) == 6
    assert state.peak <= 2
    assert sorted(b.instance_id for b, _ in landed) == sorted(i.id for i in suite)


def test_endpoint_generate_all_starts_no_thread():
    """The endpoint runs on the calling thread alone: the thread count is
    the same at every landing as before the call (the stub serves from one
    thread)."""
    suite = generate_suite("boolean_logic", 6, seed=4)
    landed = []
    with stub_server(threaded=False, content="ok") as (_state, url):
        before = threading.active_count()
        generate_all(_endpoint_config(base_url=url, max_in_flight=3),
                     [build_prompt(i, "freeform") for i in suite],
                     lambda pairs: landed.extend(
                         (result, threading.active_count()) for _, result in pairs) or [])
    assert len(landed) == 6 and not any(result.failed for result, _ in landed)
    assert {count for _, count in landed} == {before}


def test_generate_all_turns_failures_into_failed_results():
    suite = generate_suite("boolean_logic", 3, seed=4)
    bundles = [build_prompt(i, "freeform") for i in suite]
    with stub_server(fail_first=10**6) as (_state, url):
        config = _endpoint_config(base_url=url, max_retries=0)
        results = [r for _, r in _collect(config, bundles)]
    assert all(r.failed for r in results)
    assert all(r.failure_reason and "HTTP 500" in r.failure_reason for r in results)
    assert all(r.raw_text == "" for r in results)


def test_generate_all_scripted_is_ordered_and_complete():
    suite = generate_suite("arithmetic_two_step", 5, seed=4)
    config = BackendConfig(kind="oracle", label="oracle")
    bundles = [build_prompt(i, "prompt_json") for i in reversed(suite)]
    landed = _collect(config, bundles)
    assert [b.instance_id for b, _ in landed] == [b.instance_id for b in bundles]  # inline
    assert all(r.latency_ms == 0.0 for _, r in landed)  # pinned for determinism


def _every_bundle(instances):
    """Every (instance, mode, stage) bundle a run can generate, the
    model-variant delayed stage 2 included."""
    bundles = []
    for inst in instances:
        for mode in MODE_NAMES:
            bundle = build_prompt(inst, mode)
            bundles.append(bundle)
            if mode == "delayed_constraint":
                stage1 = oracle_generate(inst, mode, bundle.stage)
                bundles.append(build_delayed_stage2(stage1, inst, "model").stage2_bundle)
    return bundles


def test_generate_all_corruptor_matches_an_uncached_draw(monkeypatch):
    """generate_all draws each instance's fault once; every completion still
    equals a fresh draw, under two fault profiles in one process."""
    draws = []
    draw = backend._draw_fault
    monkeypatch.setattr(backend, "_draw_fault",
                        lambda inst, fault: draws.append(inst) or draw(inst, fault))
    suite = [inst for family in FAMILIES for inst in generate_suite(family, 6, seed=5)]
    bundles = _every_bundle(suite)
    assert {b.stage for b in bundles} == {"single", "stage1", "stage2"}
    texts = {}
    for fault in (FaultProfile(p_invalid_json=0.3, p_wrong_field=0.4, seed=11,
                               wrong_field_targets=CALENDAR_SEMANTIC_FIELDS),
                  FaultProfile(p_invalid_json=0.2, p_wrong_field=0.6, seed=12,
                               wrong_field_targets=("date", "topic"))):
        config = BackendConfig(kind="corruptor", fault=fault)
        draws.clear()
        landed = _collect(config, bundles)
        assert list(map(id, draws)) == list(map(id, suite))  # once per instance
        assert [b for b, _ in landed] == bundles
        for bundle, result in landed:
            assert result.raw_text == corrupt_generate(bundle.instance, bundle.mode, fault,
                                                       bundle.stage), bundle
        texts[fault.seed] = [r.raw_text for _, r in landed]
    assert texts[11] != texts[12]


@pytest.mark.parametrize("kind, fault", [
    ("oracle", FaultProfile(p_invalid_json=1.0)),  # the oracle ignores fault
    ("corruptor", None),  # no profile, no fault
])
def test_generate_all_scripted_without_a_profile_renders_the_oracle_text(kind, fault):
    suite = [inst for family in FAMILIES for inst in generate_suite(family, 2, seed=5)]
    bundles = _every_bundle(suite)
    landed = _collect(BackendConfig(kind=kind, fault=fault), bundles)
    assert [b for b, _ in landed] == bundles
    for bundle, result in landed:
        assert result.raw_text == oracle_generate(bundle.instance, bundle.mode,
                                                  bundle.stage), bundle


def test_generate_all_corruptor_draws_for_the_instance_not_its_id(tmp_path):
    """An instance read back from a tasks file whose ground truth was edited
    under the same id draws from its own ground truth, even next to the
    original in one generate_all call."""
    original = generate_suite("arithmetic_two_step", 4, seed=5)
    path = tmp_path / "tasks.jsonl"
    write_suite(original, path)
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for doc in docs:
        gt = doc["ground_truth"]
        edited = str(int(gt["answer"]) + 10)
        for step in gt["trace"]:
            if step["output"] == gt["answer"]:
                step["output"] = edited
        gt["answer"] = edited
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    edited = read_suite(path)
    assert [i.id for i in edited] == [i.id for i in original]

    fault = FaultProfile(p_wrong_field=1.0, seed=3)
    config = BackendConfig(kind="corruptor", fault=fault)
    bundles = [build_prompt(inst, "answer_only_schema")
               for pair in zip(original, edited) for inst in pair]
    for bundle, result in _collect(config, bundles):
        inst = bundle.instance
        assert json.loads(result.raw_text)["answer"] == str(
            int(inst.ground_truth.final_answer) + 1), inst.id


def test_endpoint_timeout_is_a_transport_error():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(delay=0.5, content="ok") as (state, url):
        result = _generate_one(_endpoint_config(base_url=url, timeout_ms=100, max_retries=0), bundle)
    assert result.failed and "transport error" in result.failure_reason
    assert state.post_count == 1


@pytest.mark.parametrize("status, posts", [
    (400, 1), (404, 1), (422, 1), (408, 3), (429, 3), (500, 3), (503, 3),
])
def test_endpoint_retries_only_retryable_statuses(status, posts):
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(fail_first=10**6, fail_status=status) as (state, url):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=2), bundle)
    assert result.failed and f"HTTP {status}" in result.failure_reason
    assert state.post_count == posts


@pytest.mark.parametrize("kind", ["oracle", "endpoint"])
def test_generate_all_lands_each_result_on_the_calling_thread(kind):
    suite = generate_suite("boolean_logic", 4, seed=4)
    instances = {i.id: i for i in suite}
    landed = []

    def on_result(pairs):
        follow_ups = []
        for bundle, result in pairs:
            landed.append((bundle.mode, bundle.instance_id, threading.current_thread(),
                           result.started_at))
            if bundle.mode == "freeform":  # a follow-up, as a model-variant stage 2 is
                follow_ups.append(build_prompt(instances[bundle.instance_id], "prompt_json"))
        return follow_ups

    with stub_server(content="ok") as (_state, url):
        config = (_endpoint_config(base_url=url, max_in_flight=2) if kind == "endpoint"
                  else BackendConfig(kind="oracle"))
        bundles = (build_prompt(i, "freeform") for i in suite)
        generate_all(config, bundles, on_result)
    assert sorted((mode, iid) for mode, iid, _, _ in landed) == sorted(
        (mode, i.id) for mode in ("freeform", "prompt_json") for i in suite)
    assert all(thread is threading.current_thread() for _, _, thread, _ in landed)
    assert all(started_at.endswith("+00:00") for _, _, _, started_at in landed)


def test_generate_all_lands_every_bundle_once_with_follow_ups():
    suite = generate_suite("symbolic_string", 40, seed=4)
    instances = {i.id: i for i in suite}
    landed = []

    def on_result(pairs):
        landed.extend((bundle.mode, bundle.instance_id) for bundle, _ in pairs)
        return [build_prompt(instances[bundle.instance_id], "prompt_json")
                for bundle, _ in pairs if bundle.mode == "freeform"]

    with stub_server(content="ok") as (state, url):
        generate_all(_endpoint_config(base_url=url, max_in_flight=4),
                     [build_prompt(i, "freeform") for i in suite], on_result)
    assert sorted(landed) == sorted((mode, i.id) for mode in ("freeform", "prompt_json")
                                    for i in suite)
    assert state.post_count == 80 and state.peak <= 4


@pytest.mark.parametrize("failing", ["landing", "generating"])
def test_generate_all_stops_its_workers_on_an_error(failing):
    suite = generate_suite("boolean_logic", 20, seed=4)
    bundles = [build_prompt(i, "answer_only_schema") for i in suite]

    def on_result(pairs):
        raise RuntimeError("scoring crashed")

    with stub_server(delay=0.01, content="ok") as (state, url):
        if failing == "landing":
            config = _endpoint_config(base_url=url, max_in_flight=2)
            with pytest.raises(RuntimeError, match="scoring crashed"):
                generate_all(config, bundles, on_result)
        else:  # no transport for the schema: raised while the first request is built
            config = _endpoint_config(base_url=url, max_in_flight=2,
                                      constraint_transport={"regex": "guided_regex"})
            with pytest.raises(ConfigError, match="no constraint transport"):
                _collect(config, bundles)
    assert state.post_count <= 4  # max_in_flight sent, then replaced before the landing
    assert not [t for t in threading.enumerate() if t.name.startswith("ctax-")]


def test_endpoint_over_long_body_fails_its_attempt_and_is_retried(monkeypatch):
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    monkeypatch.setattr(backend, "MAX_RESPONSE_BYTES", 1000)
    with stub_server(content="x" * 1000) as (state, url):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=2), bundle)
        monkeypatch.setattr(backend, "MAX_RESPONSE_BYTES", 20)
        with pytest.raises(ConfigError, match="health check failed: response body over "
                                              "the 20-byte cap"):
            check_health(_endpoint_config(base_url=url))
    assert result.failed and "response body over the 1000-byte cap" in result.failure_reason
    assert state.post_count == 3  # retried like a malformed payload
    monkeypatch.setattr(backend, "MAX_RESPONSE_BYTES", 1000)
    with stub_server(content="x" * 800) as (state, url):  # the whole body is under the cap
        assert _generate_one(_endpoint_config(base_url=url), bundle).raw_text == "x" * 800


@contextmanager
def _deeply_nested_completions():
    """A raw-socket endpoint that lists its models, and answers each
    completion request 200 with 100,000 nested arrays: 200 kB, under the
    body cap, and deeper than json.loads can recurse."""
    payload = b"[" * 100_000 + b"]" * 100_000
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop, posts = threading.Event(), []

    def serve():
        while not stop.is_set():
            try:
                conn, _addr = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                head = _read_request(conn)
                posts.append(head.startswith(b"POST"))
                body = payload if posts[-1] else b'{"data": []}'
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(body), body))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", posts
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


def test_endpoint_deeply_nested_payload_is_malformed_and_retried():
    bundle = build_prompt(generate_suite("boolean_logic", 1, seed=4)[0], "freeform")
    with _deeply_nested_completions() as (url, posts):
        result = _generate_one(_endpoint_config(base_url=url, max_retries=1), bundle)
    assert result.failed and posts == [True, True]
    assert result.failure_reason.startswith(
        "2 of 2 attempt(s) made; last error: malformed completion payload: ")


def test_endpoint_run_against_deeply_nested_payloads_records_failures(tmp_path):
    from ctax.cli import main
    from ctax.records import read_records

    with _deeply_nested_completions() as (url, posts):
        doc = {"run_id": "deep", "suite": {"families": ["boolean_logic"], "count": 2, "seed": 3},
               "modes": ["freeform", "prompt_json"],
               "backends": [{"kind": "endpoint", "label": "ep", "model_id": "m",
                             "base_url": url, "max_retries": 0}]}
        config_path, out = tmp_path / "config.json", tmp_path / "out"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    records = read_records(out / "records.jsonl")
    assert len(records) == 4 and posts.count(True) == 4
    assert {r.error_class for r in records} == {"generation_failed"}
    assert all("malformed completion payload" in r.failure_reason for r in records)


def test_endpoint_body_shorter_than_its_content_length_is_a_transport_error():
    payload = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve(connections):
        for _ in range(connections):  # the whole payload, then close 10 bytes short
            conn, _addr = listener.accept()
            with conn:
                _read_request(conn)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(payload) + 10, payload))

    thread = threading.Thread(target=serve, args=(2,), daemon=True)
    thread.start()
    bundle = build_prompt(generate_suite("boolean_logic", 1, seed=4)[0], "freeform")
    url = f"http://127.0.0.1:{listener.getsockname()[1]}"
    with listener:
        result = _generate_one(_endpoint_config(base_url=url, max_retries=1), bundle)
        thread.join(timeout=5)
    assert result.failed and "transport error: IncompleteRead" in result.failure_reason
    assert result.failure_reason.startswith("2 of 2 attempt(s)")


def test_endpoint_timeout_bounds_a_trickling_body():
    """timeout_ms is a deadline for the attempt, not for each socket read: a
    body sent one byte every 0.1 s fails its attempt once the time is up."""
    payload = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    done = threading.Event()

    def serve():  # the headers at once, then the body byte by byte
        conn, _addr = listener.accept()
        with conn:
            _read_request(conn)
            try:
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(payload))
                for i in range(len(payload)):
                    if done.wait(0.1):
                        return
                    conn.sendall(payload[i:i + 1])
            except OSError:  # the client gave up and closed
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    bundle = build_prompt(generate_suite("boolean_logic", 1, seed=4)[0], "freeform")
    url = f"http://127.0.0.1:{listener.getsockname()[1]}"
    with listener:
        started = time.monotonic()
        result = _generate_one(_endpoint_config(base_url=url, timeout_ms=1000, max_retries=0),
                          bundle)
        elapsed = time.monotonic() - started
        done.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert result.failed and "transport error: timed out" in result.failure_reason
    assert elapsed < 1.5  # timeout_ms + 0.5 s


def test_endpoint_timeout_bounds_a_trickling_head():
    """The status line and headers count against the same timeout_ms
    deadline as the body: a head sent one byte every 0.1 s fails the attempt
    once the time is up."""
    payload = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n" % (
        len(payload))
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    done = threading.Event()

    def serve():
        conn, _addr = listener.accept()
        with conn:
            _read_request(conn)
            try:
                for i in range(len(head)):
                    if done.wait(0.1):
                        return
                    conn.sendall(head[i:i + 1])
                conn.sendall(payload)
            except OSError:  # the client gave up and closed
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    bundle = build_prompt(generate_suite("boolean_logic", 1, seed=4)[0], "freeform")
    url = f"http://127.0.0.1:{listener.getsockname()[1]}"
    with listener:
        started = time.monotonic()
        result = _generate_one(_endpoint_config(base_url=url, timeout_ms=1000, max_retries=0),
                          bundle)
        elapsed = time.monotonic() - started
        done.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert result.failed and "transport error: timed out" in result.failure_reason
    assert elapsed < 1.5  # timeout_ms + 0.5 s


def test_check_health_ok_and_failure():
    with stub_server() as (_state, url):
        check_health(_endpoint_config(base_url=url))  # no raise
    with stub_server(models_status=503) as (_state, url):
        with pytest.raises(ConfigError, match="health check failed"):
            check_health(_endpoint_config(base_url=url))
    refused = f"http://127.0.0.1:{_free_port()}"
    with pytest.raises(ConfigError, match="health check failed"):
        check_health(_endpoint_config(base_url=refused))


def test_default_transport_map_is_vllm_style():
    assert DEFAULT_CONSTRAINT_TRANSPORT == {"schema": "guided_json",
                                            "regex": "guided_regex"}


# ---------------------------------------------------------------------------
# the response reader, against http.client
# ---------------------------------------------------------------------------

_READER_CAP = 64  # MAX_RESPONSE_BYTES while the reader cases run

_RAW_RESPONSES = {
    "content-length": b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
    "content-length, bytes after it": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhello",
    "content-length, closed short": b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhello",
    "content-length over the cap": b"HTTP/1.1 200 OK\r\nContent-Length: 65\r\n\r\n" + b"x" * 65,
    "content-length not a number": b"HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\nhello",
    "error status": b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\ndown",
    "no content": b"HTTP/1.1 204 No Content\r\n\r\n",
    "bare line feeds": b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"),
    "chunked, extensions and trailers": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\n\r\n"
        b"5;name=value\r\nhello\r\na ; x=\"y\"\r\n0123456789\r\n0;last\r\n"
        b"Expires: never\r\nX-Trailer: 1\r\n\r\n"),
    "chunked over content-length": (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
                                    b"Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"),
    "chunked, closed in the trailers": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                                        b"2\r\nok\r\n0\r\nX-Trailer: 1\r\n"),
    "chunked, truncated chunk": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                                 b"5\r\nhello\r\n5\r\nwor"),
    "chunked, bad size": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n",
    "chunked over the cap": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                             + b"20\r\n" + b"y" * 32 + b"\r\n" + b"21\r\n" + b"z" * 33
                             + b"\r\n0\r\n\r\n"),
    "100 continue, then 200": (b"HTTP/1.1 100 Continue\r\n\r\n"
                               b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
    "no length, the server closes": b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nto the end",
    "no length, over the cap": b"HTTP/1.1 200 OK\r\n\r\n" + b"x" * 65,
    "http/1.0": b"HTTP/1.0 200 OK\r\nServer: old\r\n\r\nread to the close",
    "http/1.0 with a length": b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\nfour and more",
    "bad status line": b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\nok",
    "not http": b"ICY 200 OK\r\nContent-Length: 2\r\n\r\nok",
    "empty status line": b"\r\nContent-Length: 2\r\n\r\nok",
    "head over 64 KiB": (b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * (70 * 1024)
                         + b"\r\nContent-Length: 2\r\n\r\nok"),
}


def _read_by_http_client(raw: bytes) -> tuple[int, bytes] | None:
    """(status, body) as http.client reads raw, with the body cap applied;
    None where it fails."""
    class _Socket:
        def makefile(self, mode):
            return io.BytesIO(raw)

    response = http.client.HTTPResponse(_Socket(), method="POST")
    try:
        response.begin()
        body = response.read()
    except http.client.HTTPException:
        return None
    return None if len(body) > _READER_CAP else (response.status, body)


def _read_by_ctax(raw: bytes, piece: int) -> tuple[int, bytes] | None:
    """(status, body) as the endpoint's reader reads raw, fed piece bytes
    at a time and then the close; None where it fails."""
    reader = backend._ResponseReader()
    try:
        for i in range(0, len(raw), piece):
            if (response := reader.feed(raw[i:i + piece])) is not None:
                return response
        return reader.feed(b"")
    except backend._ResponseError:
        return None


@pytest.mark.parametrize("name", list(_RAW_RESPONSES))
def test_response_reader_agrees_with_http_client(name, monkeypatch):
    raw = _RAW_RESPONSES[name]
    monkeypatch.setattr(backend, "MAX_RESPONSE_BYTES", _READER_CAP)
    expected = _read_by_http_client(raw)
    for piece in (len(raw), 1 if len(raw) < 1024 else 997):
        assert _read_by_ctax(raw, piece) == expected, (name, piece)


def test_response_reader_names_what_failed(monkeypatch):
    monkeypatch.setattr(backend, "MAX_RESPONSE_BYTES", _READER_CAP)
    reader = backend._ResponseReader()
    assert reader.feed(_RAW_RESPONSES["content-length, closed short"]) is None
    with pytest.raises(backend._ResponseError,
                       match=r"^IncompleteRead\(5 bytes read, 4 more expected\)$"):
        reader.feed(b"")
    with pytest.raises(backend._ResponseError, match="response body over the 64-byte cap"):
        backend._ResponseReader().feed(_RAW_RESPONSES["chunked over the cap"])
    with pytest.raises(backend._ResponseError, match="response head over the 65536-byte cap"):
        backend._ResponseReader().feed(_RAW_RESPONSES["head over 64 KiB"])
    # stricter than http.client, which takes a close inside the head as its end
    reader = backend._ResponseReader()
    assert reader.feed(b"HTTP/1.1 200 OK\r\nContent-Le") is None
    with pytest.raises(backend._ResponseError, match="closed before the response head ended"):
        reader.feed(b"")


def test_endpoint_request_head_matches_what_http_client_sent(monkeypatch):
    """Request line and headers: Host with the port unless it is the
    scheme's default and IPv6 in brackets, identity encoding, the JSON type,
    the optional token, Connection: close and the body's length."""
    monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
    target = backend._Target(_endpoint_config(base_url="http://127.0.0.1:8000/api/"))
    head, _, body = target.request("POST", "/v1/chat/completions", b"{}").partition(
        b"\r\n\r\n")
    assert body == b"{}"
    assert head.split(b"\r\n") == [
        b"POST /api/v1/chat/completions HTTP/1.1", b"Host: 127.0.0.1:8000",
        b"Accept-Encoding: identity", b"Content-Type: application/json",
        b"Connection: close", b"Authorization: Bearer sekrit", b"Content-Length: 2"]
    monkeypatch.delenv(TOKEN_ENV_VAR)
    for url, host in (("http://[::1]:80", b"[::1]"), ("https://[::1]:8443", b"[::1]:8443"),
                      ("https://example.invalid", b"example.invalid")):
        config = _endpoint_config(base_url=url)
        monkeypatch.setattr(backend.socket, "getaddrinfo", lambda *a, **k: [])
        lines = backend._Target(config).request("GET", "/v1/models").split(b"\r\n")
        assert lines[0] == b"GET /v1/models HTTP/1.1" and lines[1] == b"Host: " + host
        assert not any(line.startswith((b"Content-Length", b"Authorization")) for line in lines)


# ---------------------------------------------------------------------------
# the endpoint loop: sockets, TLS
# ---------------------------------------------------------------------------

def test_an_endpoint_run_that_fails_in_on_result_leaves_no_socket_open(monkeypatch):
    opened = []
    real_socket = socket.socket

    def tracked(*args, **kwargs):
        opened.append(sock := real_socket(*args, **kwargs))
        return sock

    monkeypatch.setattr(backend, "socket", SimpleNamespace(**{**vars(socket), "socket": tracked}))

    def on_result(pairs):
        raise RuntimeError("scoring crashed")

    suite = generate_suite("boolean_logic", 8, seed=4)
    with stub_server(delay=0.02, content="ok") as (_state, url):
        with pytest.raises(RuntimeError, match="scoring crashed"):
            generate_all(_endpoint_config(base_url=url, max_in_flight=3),
                         [build_prompt(i, "freeform") for i in suite], on_result)
    assert len(opened) >= 3  # the one that landed and the ones still open
    assert all(sock.fileno() == -1 for sock in opened)


def _tls_files(tmp_path):
    """(CA certificate path, server certificate path, server key path): a
    throwaway CA and a certificate it signs for localhost and 127.0.0.1."""
    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

    now = dt.datetime.now(dt.timezone.utc)

    def certificate(subject, issuer, public_key, signing_key, *extensions):
        builder = (x509.CertificateBuilder().subject_name(subject).issuer_name(issuer)
                   .public_key(public_key).serial_number(x509.random_serial_number())
                   .not_valid_before(now - dt.timedelta(hours=1))
                   .not_valid_after(now + dt.timedelta(hours=1)))
        for extension, critical in extensions:
            builder = builder.add_extension(extension, critical=critical)
        return builder.sign(signing_key, hashes.SHA256())

    def usage(**allowed):
        flags = ("digital_signature", "content_commitment", "key_encipherment",
                 "data_encipherment", "key_agreement", "key_cert_sign", "crl_sign",
                 "encipher_only", "decipher_only")
        return x509.KeyUsage(**{flag: allowed.get(flag, False) for flag in flags})

    ca_key, key = ec.generate_private_key(ec.SECP256R1()), ec.generate_private_key(ec.SECP256R1())
    ca_name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "ctax test CA")])
    ca = certificate(ca_name, ca_name, ca_key.public_key(), ca_key,
                     (x509.BasicConstraints(ca=True, path_length=0), True),
                     (usage(key_cert_sign=True, crl_sign=True), True),
                     (x509.SubjectKeyIdentifier.from_public_key(ca_key.public_key()), False))
    server = certificate(
        x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "localhost")]), ca_name,
        key.public_key(), ca_key,
        (x509.BasicConstraints(ca=False, path_length=None), True),
        (usage(digital_signature=True), True),
        (x509.ExtendedKeyUsage([ExtendedKeyUsageOID.SERVER_AUTH]), False),
        (x509.SubjectAlternativeName([x509.DNSName("localhost"),
                                      x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
         False),
        (x509.AuthorityKeyIdentifier.from_issuer_public_key(ca_key.public_key()), False))
    paths = tmp_path / "ca.pem", tmp_path / "server.pem", tmp_path / "server.key"
    paths[0].write_bytes(ca.public_bytes(serialization.Encoding.PEM))
    paths[1].write_bytes(server.public_bytes(serialization.Encoding.PEM))
    paths[2].write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return paths


def _server_context(tmp_path):
    import ssl

    ca, cert, key = _tls_files(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return ca, context


def test_https_round_trip_with_a_trusted_ca(tmp_path, monkeypatch):
    ca, context = _server_context(tmp_path)
    monkeypatch.setenv("SSL_CERT_FILE", str(ca))
    bundle = build_prompt(generate_suite("boolean_logic", 1, seed=4)[0], "freeform")
    with stub_server(tls=context, content="over tls") as (state, url):
        check_health(_endpoint_config(base_url=url))  # no raise
        result = _generate_one(_endpoint_config(base_url=url, max_retries=0), bundle)
        landed = _collect(_endpoint_config(base_url=url, max_in_flight=2, max_retries=0),
                          [bundle] * 4)
    assert url.startswith("https://")
    assert not result.failed and result.raw_text == "over tls"
    assert [r.raw_text for _, r in landed] == ["over tls"] * 4
    assert state.post_count == 5


def test_https_with_an_untrusted_certificate_fails_the_health_check(tmp_path, monkeypatch,
                                                                     capsys):
    from ctax.cli import main

    _ca, context = _server_context(tmp_path)
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    with stub_server(tls=context) as (state, url):
        with pytest.raises(ConfigError, match="health check failed: .*CERTIFICATE_VERIFY_FAILED"):
            check_health(_endpoint_config(base_url=url))
        doc = {"run_id": "tls", "suite": {"families": ["boolean_logic"], "count": 2, "seed": 3},
               "modes": ["freeform"],
               "backends": [{"kind": "endpoint", "label": "ep", "model_id": "m",
                             "base_url": url}]}
        config_path, out = tmp_path / "config.json", tmp_path / "out"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert "CERTIFICATE_VERIFY_FAILED" in capsys.readouterr().err
    assert not out.exists() and state.post_count == 0


# ---------------------------------------------------------------------------
# held connections: opened while the slots are busy, one request each
# ---------------------------------------------------------------------------

@contextmanager
def _idle_dropping_server(tls=None):
    """A raw-socket endpoint with a thread per connection that drops a
    connection sending no request within 50 ms, and answers a request after
    150 ms; HTTPS when tls is a server SSLContext. Yields (url, requests,
    drops): the request heads it read, and the count of dropped
    connections."""
    payload = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop, requests, drops, handlers = threading.Event(), [], [], []

    def handle(conn):
        try:
            if tls is not None:
                conn.settimeout(5)
                conn = tls.wrap_socket(conn, server_side=True)
            conn.settimeout(0.05)
            try:
                head = _read_request(conn)
            except TimeoutError:
                drops.append(1)
                return
            requests.append(head)
            time.sleep(0.15)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(payload), payload))
        except OSError:  # a handshake the client gave up on
            pass
        finally:
            conn.close()

    def serve():
        while not stop.is_set():
            try:
                conn, _addr = listener.accept()
            except TimeoutError:
                continue
            handlers.append(thread := threading.Thread(target=handle, args=(conn,), daemon=True))
            thread.start()

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    scheme = "https" if tls else "http"
    try:
        yield f"{scheme}://127.0.0.1:{listener.getsockname()[1]}", requests, drops
    finally:
        stop.set()
        server.join(timeout=5)
        for thread in handlers:
            thread.join(timeout=5)
        listener.close()
    assert not server.is_alive() and not any(thread.is_alive() for thread in handlers)


@pytest.mark.parametrize("in_flight", [1, 2])
@pytest.mark.parametrize("scheme", ["http", "https"])
def test_a_held_connection_the_server_drops_costs_no_attempt(scheme, in_flight, tmp_path,
                                                             monkeypatch):
    """Servers drop connections that send no request in time; a held one
    that is dropped is closed, and its call is sent on a fresh connection,
    with no attempt lost."""
    tls = None
    if scheme == "https":
        ca, tls = _server_context(tmp_path)
        monkeypatch.setenv("SSL_CERT_FILE", str(ca))
    suite = generate_suite("boolean_logic", 2 * in_flight + 1, seed=4)
    with _idle_dropping_server(tls) as (url, requests, drops):
        landed = _collect(_endpoint_config(base_url=url, max_in_flight=in_flight, max_retries=0),
                          [build_prompt(i, "freeform") for i in suite])
    assert [r.failure_reason for _, r in landed] == [None] * len(suite)
    assert len(requests) == len(suite) and all(h.startswith(b"POST ") for h in requests)
    assert drops  # held connections were made, and dropped


def test_a_server_that_accepts_one_connection_at_a_time_serves_every_call():
    """Every in-flight request's connection is older than every held one, and
    no connection is held for a call that does not exist, so a server that
    serves its accepted connections one by one never waits on a held one."""
    suite = generate_suite("boolean_logic", 8, seed=4)
    with stub_server(threaded=False, delay=0.01, content="ok") as (state, url):
        started = time.monotonic()
        landed = _collect(_endpoint_config(base_url=url, max_in_flight=2, timeout_ms=5000,
                                           max_retries=0),
                          [build_prompt(i, "freeform") for i in suite])
        elapsed = time.monotonic() - started
    assert [r.failure_reason for _, r in landed] == [None] * len(suite)
    assert state.post_count == len(suite) and elapsed < 2.0  # far inside timeout_ms


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_the_deadline_counts_from_when_the_request_is_sent(scheme, tmp_path, monkeypatch):
    """A held connection idles while the request ahead takes 100 ms; its own
    request then has the whole 150 ms timeout_ms, not what is left of it."""
    tls = None
    if scheme == "https":
        ca, tls = _server_context(tmp_path)
        monkeypatch.setenv("SSL_CERT_FILE", str(ca))
    suite = generate_suite("boolean_logic", 3, seed=4)
    with stub_server(tls=tls, delay=0.1, content="ok") as (state, url):
        landed = _collect(_endpoint_config(base_url=url, max_in_flight=1, timeout_ms=150,
                                           max_retries=0),
                          [build_prompt(i, "freeform") for i in suite])
    assert [r.failure_reason for _, r in landed] == [None] * len(suite)
    assert all(100 <= r.latency_ms < 150 for _, r in landed)
    assert state.post_count == state.connections == len(suite)
    assert all(idle > 0.08 for idle in sorted(state.idle)[1:])  # the later two were held


def test_endpoint_sockets_stay_within_twice_max_in_flight_and_all_close(monkeypatch):
    """At most 2 x max_in_flight sockets are open at once (in flight, and
    held or closing); each connection carries one request; every socket,
    held ones included, is closed when on_result raises."""
    opened, peak = [], []
    real_socket = socket.socket

    def tracked(*args, **kwargs):
        opened.append(sock := real_socket(*args, **kwargs))
        peak.append(sum(s.fileno() != -1 for s in opened))
        return sock

    monkeypatch.setattr(backend, "socket", SimpleNamespace(**{**vars(socket), "socket": tracked}))
    suite = generate_suite("boolean_logic", 24, seed=4)
    bundles = [build_prompt(i, "freeform") for i in suite]
    with stub_server(delay=0.01, content="ok") as (state, url):
        landed = _collect(_endpoint_config(base_url=url, max_in_flight=3), bundles)
    assert [r.failure_reason for _, r in landed] == [None] * len(suite)
    assert 3 < max(peak) <= 2 * 3
    assert state.connections == state.post_count == len(suite)
    assert all(sock.fileno() == -1 for sock in opened)

    def on_result(pairs):
        raise RuntimeError("scoring crashed")

    opened.clear()
    with stub_server(delay=0.02, content="ok") as (state, url):
        with pytest.raises(RuntimeError, match="scoring crashed"):
            generate_all(_endpoint_config(base_url=url, max_in_flight=3), bundles, on_result)
    assert len(opened) > state.post_count  # held connections, not yet carrying a request
    assert all(sock.fileno() == -1 for sock in opened)
