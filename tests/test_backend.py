"""Oracle fidelity, corruptor dials, endpoint wire behavior."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ctax.backend import (
    DEFAULT_CONSTRAINT_TRANSPORT,
    FREEFORM_MAX_TOKENS,
    TOKEN_ENV_VAR,
    BackendConfig,
    FaultProfile,
    SamplingConfig,
    build_request_body,
    check_health,
    corrupt_generate,
    effective_max_tokens,
    generate,
    generate_all,
    oracle_generate,
)
from ctax.errors import ConfigError, GenerationFailed
from ctax.modes import MODE_NAMES, build_prompt, parse_for_mode
from ctax.checkers import score_completion
from ctax.taskgen import FAMILIES, generate_suite
from ctax.validation import canonical_serialize, extract_json


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
    # surfaces from generate() before any network traffic
    with pytest.raises(ConfigError):
        generate(config, bundle)


def test_transport_path_collision_is_config_error():
    inst = generate_suite("boolean_logic", 1, seed=2)[0]
    bundle = build_prompt(inst, "answer_only_schema")
    config = _endpoint_config(constraint_transport={"schema": "messages.guided"})
    with pytest.raises(ConfigError, match="collides"):
        build_request_body(config, bundle)


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
    with pytest.raises(ConfigError):
        generate(BackendConfig(kind="oracle", label="x"),
                 build_prompt(generate_suite("boolean_logic", 1, seed=2)[0],
                              "freeform"))  # scripted kinds need the instance


@pytest.mark.parametrize("kw, named", [
    ({"base_url": "localhost:8000"}, "base_url"),
    ({"base_url": "ftp://models.example"}, "base_url"),
    ({"base_url": "http://127.0.0.1:9", "max_retries": -1}, "max_retries"),
])
def test_backend_config_rejects_unusable_endpoint_settings(kw, named):
    with pytest.raises(ConfigError, match=named):
        BackendConfig(kind="endpoint", label="x", **kw)


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
        self.active = 0
        self.peak = 0


class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep pytest output clean
        pass

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
def stub_server(**kw):
    state = _StubState(**kw)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.state = state
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_port}"
    finally:
        state.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# ---------------------------------------------------------------------------
# endpoint behavior
# ---------------------------------------------------------------------------

def test_endpoint_round_trip_with_constraint_and_usage():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "answer_only_schema")
    with stub_server(content='{"answer":"true"}') as (state, url):
        result = generate(_endpoint_config(base_url=url), bundle)
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
        generate(_endpoint_config(base_url=url), bundle)
    headers, _ = state.posts[0]
    assert headers.get("Authorization") == "Bearer sekrit"

    monkeypatch.delenv(TOKEN_ENV_VAR)
    with stub_server() as (state2, url2):
        generate(_endpoint_config(base_url=url2), bundle)
    headers2, _ = state2.posts[0]
    assert "Authorization" not in headers2


def test_endpoint_retries_then_succeeds():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(fail_first=2, content="ok") as (state, url):
        result = generate(_endpoint_config(base_url=url, max_retries=2), bundle)
    assert result.raw_text == "ok"
    assert state.post_count == 3


def test_endpoint_persistent_failure_raises():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(fail_first=10**6) as (state, url):
        with pytest.raises(GenerationFailed, match="HTTP 500"):
            generate(_endpoint_config(base_url=url, max_retries=1), bundle)
    assert state.post_count == 2  # retries + 1 attempts, then gave up


def test_endpoint_malformed_payload_raises():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(malformed_payload=True) as (_state, url):
        with pytest.raises(GenerationFailed, match="malformed completion payload"):
            generate(_endpoint_config(base_url=url, max_retries=0), bundle)


@pytest.mark.parametrize("usage", ["n/a", ["7"], {"prompt_tokens": "7", "completion_tokens": 3.0},
                                   None])
def test_endpoint_drops_token_counts_that_are_not_integers(usage):
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    with stub_server(content="ok", usage=usage) as (_state, url):
        result = generate(_endpoint_config(base_url=url, max_retries=0),
                          build_prompt(inst, "freeform"))
    assert result.raw_text == "ok"
    assert (result.prompt_tokens, result.completion_tokens) == (None, None)


def test_endpoint_connection_refused_raises():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    url = f"http://127.0.0.1:{_free_port()}"
    with pytest.raises(GenerationFailed, match="transport error"):
        generate(_endpoint_config(base_url=url, max_retries=0), bundle)


def test_generate_all_bounds_concurrency():
    suite = generate_suite("boolean_logic", 6, seed=4)
    bundles = [build_prompt(i, "freeform") for i in suite]
    with stub_server(delay=0.05, content="ok") as (state, url):
        config = _endpoint_config(base_url=url, max_in_flight=2)
        results = generate_all(config, bundles)
    assert len(results) == 6
    assert state.peak <= 2
    assert [r.instance_id for r in results] == sorted(i.id for i in suite)


def test_generate_all_turns_failures_into_failed_results():
    suite = generate_suite("boolean_logic", 3, seed=4)
    bundles = [build_prompt(i, "freeform") for i in suite]
    with stub_server(fail_first=10**6) as (_state, url):
        config = _endpoint_config(base_url=url, max_retries=0)
        results = generate_all(config, bundles)
    assert all(r.failed for r in results)
    assert all(r.failure_reason and "HTTP 500" in r.failure_reason for r in results)
    assert all(r.raw_text == "" for r in results)


def test_generate_all_scripted_is_ordered_and_complete():
    suite = generate_suite("arithmetic_two_step", 5, seed=4)
    config = BackendConfig(kind="oracle", label="oracle")
    bundles = [build_prompt(i, "prompt_json") for i in reversed(suite)]
    results = generate_all(config, bundles, {i.id: i for i in suite})
    assert [r.instance_id for r in results] == sorted(i.id for i in suite)
    assert all(r.latency_ms == 0.0 for r in results)  # pinned for determinism


def test_endpoint_timeout_is_a_transport_error():
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(delay=0.5, content="ok") as (state, url):
        with pytest.raises(GenerationFailed, match="transport error"):
            generate(_endpoint_config(base_url=url, timeout_ms=100, max_retries=0), bundle)
    assert state.post_count == 1


@pytest.mark.parametrize("status, posts", [
    (400, 1), (404, 1), (422, 1), (408, 3), (429, 3), (500, 3), (503, 3),
])
def test_endpoint_retries_only_retryable_statuses(status, posts):
    inst = generate_suite("boolean_logic", 1, seed=4)[0]
    bundle = build_prompt(inst, "freeform")
    with stub_server(fail_first=10**6, fail_status=status) as (state, url):
        with pytest.raises(GenerationFailed, match=f"HTTP {status}"):
            generate(_endpoint_config(base_url=url, max_retries=2), bundle)
    assert state.post_count == posts


@pytest.mark.parametrize("kind", ["oracle", "endpoint"])
def test_generate_all_lands_each_result_on_the_calling_thread(kind):
    suite = generate_suite("boolean_logic", 4, seed=4)
    instances = {i.id: i for i in suite}
    landed = []

    def on_result(bundle, result, started_at):
        landed.append((bundle.mode, result.instance_id, threading.current_thread(),
                       started_at))
        if bundle.mode == "freeform":  # a follow-up, as a model-variant stage 2 is
            return [build_prompt(instances[bundle.instance_id], "prompt_json")]
        return []

    with stub_server(content="ok") as (_state, url):
        config = (_endpoint_config(base_url=url, max_in_flight=2) if kind == "endpoint"
                  else BackendConfig(kind="oracle"))
        bundles = (build_prompt(i, "freeform") for i in suite)
        assert generate_all(config, bundles, instances, on_result) == []
    assert sorted((mode, iid) for mode, iid, _, _ in landed) == sorted(
        (mode, i.id) for mode in ("freeform", "prompt_json") for i in suite)
    assert all(thread is threading.current_thread() for _, _, thread, _ in landed)
    assert all(started_at.endswith("+00:00") for _, _, _, started_at in landed)


def test_generate_all_lands_every_bundle_once_under_thread_churn():
    suite = generate_suite("symbolic_string", 40, seed=4)
    instances = {i.id: i for i in suite}
    landed = []

    def on_result(bundle, result, started_at):
        landed.append((bundle.mode, result.instance_id))
        return [build_prompt(instances[bundle.instance_id], "prompt_json")] * (
            bundle.mode == "freeform")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force thread switches inside the queue hand-offs
    try:
        with stub_server(content="ok") as (state, url):
            generate_all(_endpoint_config(base_url=url, max_in_flight=4),
                         [build_prompt(i, "freeform") for i in suite], instances, on_result)
    finally:
        sys.setswitchinterval(switch)
    assert sorted(landed) == sorted((mode, i.id) for mode in ("freeform", "prompt_json")
                                    for i in suite)
    assert state.post_count == 80 and state.peak <= 4


@pytest.mark.parametrize("failing", ["landing", "generating"])
def test_generate_all_stops_its_workers_on_an_error(failing):
    suite = generate_suite("boolean_logic", 20, seed=4)
    bundles = [build_prompt(i, "answer_only_schema") for i in suite]

    def on_result(bundle, result, started_at):
        raise RuntimeError("scoring crashed")

    with stub_server(delay=0.01, content="ok") as (state, url):
        if failing == "landing":
            config = _endpoint_config(base_url=url, max_in_flight=2)
            with pytest.raises(RuntimeError, match="scoring crashed"):
                generate_all(config, bundles, None, on_result)
        else:  # no transport for the schema: raised by generate on a worker
            config = _endpoint_config(base_url=url, max_in_flight=2,
                                      constraint_transport={"regex": "guided_regex"})
            with pytest.raises(ConfigError, match="no constraint transport"):
                generate_all(config, bundles)
    assert state.post_count <= 4  # at most 2 x max_in_flight were handed out
    assert not [t for t in threading.enumerate() if t.name.startswith("ctax-")]


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
