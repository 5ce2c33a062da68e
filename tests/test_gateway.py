import json
import re
from dataclasses import replace

import pytest

from lelma import gateway
from lelma.gateway import (
    CassetteError,
    CassetteParseError,
    ChatMessage,
    CompletionResult,
    DuplicateRequestKeyError,
    Gateway,
    ModelConfig,
    ProviderError,
    ReplayMissError,
    TransportError,
    Usage,
    canonical_request_key,
    load_cassette,
)
from lelma.orchestrator import LoopConfig, run_session


def exploding_transport(url, headers, payload, timeout):
    raise AssertionError("transport must not be touched")


MESSAGES = (
    ChatMessage("system", "You are playing a game."),
    ChatMessage("user", "Pick a move."),
)

RESPONSE = {"text": "a reply", "prompt_tokens": 3, "completion_tokens": 2, "latency": 0.0}


def cassette_line(key: str, response=RESPONSE) -> str:
    return json.dumps({"key": key, "request": {}, "response": response}) + "\n"


class TestMockProvider:
    def test_returns_script_in_order(self):
        gw = Gateway(ModelConfig(script=("first", "second")), transport=exploding_transport)
        assert gw.complete(MESSAGES).text == "first"
        assert gw.complete(MESSAGES).text == "second"

    def test_deterministic_usage_and_latency(self):
        gw = Gateway(ModelConfig(script=("one two three",)), transport=exploding_transport)
        result = gw.complete(MESSAGES)
        # prompt: 5 + 3 whitespace-split words, completion: 3
        assert result.usage == Usage(prompt_tokens=8, completion_tokens=3)
        assert result.latency == 0.0

    def test_exhausted_script_raises(self):
        gw = Gateway(ModelConfig(script=("only",)), transport=exploding_transport)
        gw.complete(MESSAGES)
        with pytest.raises(ProviderError, match="exhausted"):
            gw.complete(MESSAGES)

    def test_each_call_counts_and_carries_its_own_usage(self):
        gw = Gateway(ModelConfig(script=("a b", "c")), transport=exploding_transport)
        first = gw.complete(MESSAGES)
        second = gw.complete(MESSAGES)
        assert gw.calls == 2
        assert first.usage == Usage(prompt_tokens=8, completion_tokens=2)
        assert second.usage == Usage(prompt_tokens=8, completion_tokens=1)


class TestRequestKey:
    def test_stable(self):
        assert canonical_request_key("m", MESSAGES) == canonical_request_key("m", list(MESSAGES))

    def test_sensitive_to_content_role_and_model(self):
        base = canonical_request_key("m", MESSAGES)
        assert canonical_request_key("other", MESSAGES) != base
        changed = (MESSAGES[0], ChatMessage("user", "Pick a move!"))
        assert canonical_request_key("m", changed) != base
        reroled = (ChatMessage("user", MESSAGES[0].content), MESSAGES[1])
        assert canonical_request_key("m", reroled) != base


class TestCassette:
    def test_record_then_replay_is_identical(self, tmp_path):
        cassette = str(tmp_path / "session.jsonl")
        recorder = Gateway(
            ModelConfig(script=("hello there", "general"), record_to=cassette),
            transport=exploding_transport,
        )
        other = (ChatMessage("user", "different prompt"),)
        first = recorder.complete(MESSAGES)
        second = recorder.complete(other)

        player = Gateway(replace(recorder.cfg, provider="replay"), transport=exploding_transport)
        assert player.complete(MESSAGES) == first
        assert player.complete(other) == second

    def test_a_replayed_call_is_not_checked_again(self, tmp_path, monkeypatch):
        cassette = str(tmp_path / "session.jsonl")
        recorder = Gateway(ModelConfig(script=("hello there",), record_to=cassette))
        first = recorder.complete(MESSAGES)
        checks, check = [], gateway.check_types

        def counted(*args):
            checks.append(args)
            check(*args)

        monkeypatch.setattr(gateway, "check_types", counted)
        player = Gateway(replace(recorder.cfg, provider="replay"), transport=exploding_transport)
        assert player.complete(MESSAGES) == first
        loaded = len(checks)  # the record and its response, checked as the cassette loads
        assert loaded == 2
        assert player.complete(MESSAGES) == first and len(checks) == loaded

    def test_a_torn_last_line_is_skipped_and_replay_misses_it(self, tmp_path):
        cassette = tmp_path / "torn.jsonl"
        recorder = Gateway(ModelConfig(script=("hello", "lost"), record_to=str(cassette)))
        other = (ChatMessage("user", "different prompt"),)
        first = recorder.complete(MESSAGES)
        recorder.complete(other)
        torn = cassette.read_bytes()[:-40]  # a kill mid-append leaves no newline
        cassette.write_bytes(torn)
        assert list(load_cassette(str(cassette)).values()) == [first]
        player = Gateway(replace(recorder.cfg, provider="replay"), transport=exploding_transport)
        assert player.complete(MESSAGES) == first
        with pytest.raises(ReplayMissError) as excinfo:
            player.complete(other)
        assert excinfo.value.key == canonical_request_key("mock-model", other)
        assert cassette.read_bytes() == torn  # replay never writes
        # Only a last line with no newline is torn: a complete one stays an error.
        cassette.write_bytes(torn + b"\n")
        with pytest.raises(CassetteParseError, match="torn.jsonl:2: not valid JSON"):
            load_cassette(str(cassette))

    def test_first_wins_on_repeated_request(self, tmp_path):
        cassette = str(tmp_path / "dup.jsonl")
        recorder = Gateway(
            ModelConfig(script=("first answer", "second answer"), record_to=cassette),
            transport=exploding_transport,
        )
        first = recorder.complete(MESSAGES)
        # The same request again is answered from the cassette, as replay answers it.
        again = recorder.complete(MESSAGES)
        records = load_cassette(cassette)
        assert len(records) == 1
        (answer,) = records.values()
        assert answer.text == "first answer"
        player = Gateway(replace(recorder.cfg, provider="replay"), transport=exploding_transport)
        assert again == first == player.complete(MESSAGES)

    def test_replay_miss_names_the_key(self, tmp_path):
        cassette = tmp_path / "empty.jsonl"
        cassette.write_text("")
        gw = Gateway(
            ModelConfig(provider="replay", record_to=str(cassette)),
            transport=exploding_transport,
        )
        expected = canonical_request_key(gw.cfg.model_id, MESSAGES)
        with pytest.raises(ReplayMissError) as excinfo:
            gw.complete(MESSAGES)
        assert excinfo.value.key == expected
        assert cassette.read_text() == ""  # a miss is not recorded
        with pytest.raises(ProviderError, match="replay provider needs a cassette path"):
            Gateway(ModelConfig(provider="replay"), transport=exploding_transport).complete(MESSAGES)

    def test_malformed_line_raises_with_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(cassette_line("k") + "not json\n")
        with pytest.raises(CassetteParseError, match="bad.jsonl:2"):
            load_cassette(str(path))
        # An integer too long for `int`, which `json.loads` raises a ValueError on.
        path.write_text(cassette_line("k") + '{"key": "j", "n": ' + "9" * 5000 + "}\n")
        with pytest.raises(CassetteParseError, match="bad.jsonl:2: not valid JSON"):
            load_cassette(str(path))

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "fields.jsonl"
        path.write_text('{"key": "k"}\n')
        with pytest.raises(CassetteParseError, match="missing"):
            load_cassette(str(path))

    def test_duplicate_key_raises(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(cassette_line("k") + cassette_line("k"))
        with pytest.raises(DuplicateRequestKeyError):
            load_cassette(str(path))

    def test_unreadable_cassette_names_the_path(self, tmp_path):
        for path in (tmp_path / "absent.jsonl", tmp_path):  # missing, and a directory
            with pytest.raises(CassetteError, match=re.escape(f"cannot read cassette {path}: ")):
                load_cassette(str(path))
        gw = Gateway(
            ModelConfig(provider="replay", record_to=str(tmp_path / "absent.jsonl")),
            transport=exploding_transport,
        )
        with pytest.raises(CassetteError, match="absent.jsonl"):
            gw.complete(MESSAGES)

    def test_non_utf8_cassette_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\xff\n")
        with pytest.raises(CassetteParseError, match="latin1.jsonl: not UTF-8"):
            load_cassette(str(path))

    def test_a_record_that_is_not_an_object_is_a_parse_error(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1,2]\n")
        with pytest.raises(CassetteParseError, match="list.jsonl:1: not a JSON object"):
            load_cassette(str(path))

    @pytest.mark.parametrize(
        "response, message",
        [
            ({**RESPONSE, "prompt_tokens": 12.0}, "prompt_tokens must be int, not float"),
            ({**RESPONSE, "latency": "0"}, "latency must be float or int, not str"),
            ({k: v for k, v in RESPONSE.items() if k != "text"}, "response missing field 'text'"),
        ],
    )
    def test_a_response_field_replay_cannot_use_is_a_parse_error(
        self, tmp_path, pd, response, message
    ):
        path = tmp_path / "fields.jsonl"
        path.write_text(cassette_line("k") + cassette_line("k2", response))
        with pytest.raises(CassetteParseError, match=rf"fields\.jsonl:2: .*{re.escape(message)}"):
            load_cassette(str(path))
        # A replayed session records the error and makes no attempt.
        model = ModelConfig(provider="replay", record_to=str(path))
        transcript = run_session(pd, LoopConfig(reasoner=model, translator=model))
        assert transcript.aborted and transcript.attempts == ()
        assert transcript.error.startswith("CassetteParseError: ") and message in transcript.error

    def test_latency_may_be_an_int(self, tmp_path):
        path = tmp_path / "int.jsonl"
        path.write_text(cassette_line("k", {**RESPONSE, "latency": 0}))
        assert load_cassette(str(path))["k"].latency == 0

    def test_recording_survives_gateway_restart(self, tmp_path):
        cassette = str(tmp_path / "resume.jsonl")
        cfg = ModelConfig(script=("same reply",), record_to=cassette)
        Gateway(cfg, transport=exploding_transport).complete(MESSAGES)
        # a fresh gateway re-issuing the same request must not duplicate the key
        Gateway(cfg, transport=exploding_transport).complete(MESSAGES)
        assert len(load_cassette(cassette)) == 1


def respond(status, body):
    def transport(url, headers, payload, timeout):
        return status, body
    return transport


OPENAI_BODY = {
    "choices": [{"message": {"role": "assistant", "content": "the answer"}}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 7},
}

GEMINI_BODY = {
    "candidates": [{"content": {"parts": [{"text": "the "}, {"text": "answer"}]}}],
    "usageMetadata": {"promptTokenCount": 12, "candidatesTokenCount": 7},
}


class TestOpenAIStyle:
    def test_payload_shape_and_parse(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "sk-secret")
        seen = {}

        def transport(url, headers, payload, timeout):
            seen.update(url=url, headers=headers, payload=payload, timeout=timeout)
            return 200, OPENAI_BODY

        cfg = ModelConfig(
            provider="openai",
            model_id="gpt-test",
            endpoint="https://api.example/v1/chat/completions",
            temperature=1.0,
            max_output_tokens=1024,
            api_key_env="TEST_KEY",
        )
        result = Gateway(cfg, transport=transport).complete(MESSAGES)
        assert result.text == "the answer"
        assert result.usage == Usage(12, 7)
        assert seen["url"] == cfg.endpoint
        assert seen["headers"]["Authorization"] == "Bearer sk-secret"
        assert seen["payload"]["model"] == "gpt-test"
        assert seen["payload"]["temperature"] == 1.0
        assert seen["payload"]["max_tokens"] == 1024
        assert seen["payload"]["messages"][0] == {"role": "system", "content": MESSAGES[0].content}

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("TEST_KEY", raising=False)
        cfg = ModelConfig(provider="openai", endpoint="https://x", api_key_env="TEST_KEY")
        with pytest.raises(ProviderError, match="TEST_KEY"):
            Gateway(cfg, transport=respond(200, OPENAI_BODY)).complete(MESSAGES)

    def test_malformed_body(self):
        cfg = ModelConfig(provider="openai", endpoint="https://x")
        with pytest.raises(ProviderError, match="malformed"):
            Gateway(cfg, transport=respond(200, {"oops": True})).complete(MESSAGES)


class TestGeminiStyle:
    def test_payload_shape_and_parse(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "g-secret")
        seen = {}

        def transport(url, headers, payload, timeout):
            seen.update(headers=headers, payload=payload)
            return 200, GEMINI_BODY

        cfg = ModelConfig(
            provider="gemini",
            endpoint="https://gen.example/v1beta/models/x:generateContent",
            api_key_env="TEST_KEY",
        )
        convo = MESSAGES + (ChatMessage("assistant", "prior turn"),)
        result = Gateway(cfg, transport=transport).complete(convo)
        assert result.text == "the answer"
        assert result.usage == Usage(12, 7)
        assert seen["headers"]["x-goog-api-key"] == "g-secret"
        assert seen["payload"]["systemInstruction"] == {"parts": [{"text": MESSAGES[0].content}]}
        assert seen["payload"]["contents"] == [
            {"role": "user", "parts": [{"text": "Pick a move."}]},
            {"role": "model", "parts": [{"text": "prior turn"}]},
        ]
        assert seen["payload"]["generationConfig"] == {"temperature": 1.0, "maxOutputTokens": 1024}


@pytest.mark.parametrize(
    "provider, body",
    [
        ("openai", {**OPENAI_BODY, "choices": [{"message": {"content": None}}]}),
        ("openai", {**OPENAI_BODY, "usage": {"prompt_tokens": 1.5}}),
        ("openai", {**OPENAI_BODY, "usage": {"completion_tokens": True}}),
        ("gemini", {**GEMINI_BODY, "candidates": [{"content": {"parts": [{"text": None}]}}]}),
        ("gemini", {**GEMINI_BODY, "candidates": [{"content": {"parts": ["the answer"]}}]}),
        ("gemini", {**GEMINI_BODY, "usageMetadata": {"promptTokenCount": 1.5}}),
        ("gemini", {"oops": True}),
    ],
)
def test_a_reply_field_of_the_wrong_type_is_a_malformed_response(provider, body):
    cfg = ModelConfig(provider=provider, endpoint="https://x")
    with pytest.raises(ProviderError, match=f"malformed {provider}-style response"):
        Gateway(cfg, transport=respond(200, body)).complete(MESSAGES)


@pytest.mark.parametrize(
    "provider, body",
    [("openai", {**OPENAI_BODY, "usage": None}), ("gemini", {**GEMINI_BODY, "usageMetadata": None})],
)
def test_a_null_usage_reads_as_no_tokens(provider, body):
    cfg = ModelConfig(provider=provider, endpoint="https://x")
    result = Gateway(cfg, transport=respond(200, body)).complete(MESSAGES)
    assert (result.text, result.usage) == ("the answer", Usage(0, 0))


class TestRetries:
    def test_transient_statuses_retried_until_success(self):
        statuses = iter([503, 503, 200])
        calls = {"n": 0}

        def transport(url, headers, payload, timeout):
            calls["n"] += 1
            status = next(statuses)
            return status, OPENAI_BODY if status == 200 else {"error": "busy"}

        sleeps = []
        cfg = ModelConfig(provider="openai", endpoint="https://x", retries=3)
        gw = Gateway(cfg, transport=transport, sleep=sleeps.append)
        assert gw.complete(MESSAGES).text == "the answer"
        assert calls["n"] == 3
        # Each wait is jittered within its backoff step, a half to all of it.
        assert len(sleeps) == 2
        assert 0.25 <= sleeps[0] <= 0.5 and 0.5 <= sleeps[1] <= 1.0

    def test_backoff_waits_are_jittered(self):
        sleeps = []
        cfg = ModelConfig(provider="openai", endpoint="https://x", retries=4)
        for _ in range(20):
            gw = Gateway(cfg, transport=respond(503, {}), sleep=sleeps.append)
            with pytest.raises(ProviderError):
                gw.complete(MESSAGES)
        firsts, thirds = sleeps[0::3], sleeps[2::3]
        assert len(firsts) == len(thirds) == 20
        assert all(0.25 <= s <= 0.5 for s in firsts) and all(1.0 <= s <= 2.0 for s in thirds)
        assert len(set(firsts)) > 1  # not one fixed wait

    def test_budget_of_attempts_exhausted(self):
        cfg = ModelConfig(provider="openai", endpoint="https://x", retries=2)
        gw = Gateway(cfg, transport=respond(503, {}), sleep=lambda s: None)
        with pytest.raises(ProviderError) as excinfo:
            gw.complete(MESSAGES)
        assert excinfo.value.status == 503

    def test_transport_exceptions_retried(self):
        attempts = {"n": 0}

        def transport(url, headers, payload, timeout):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransportError("connection reset")
            return 200, OPENAI_BODY

        cfg = ModelConfig(provider="openai", endpoint="https://x", retries=3)
        gw = Gateway(cfg, transport=transport, sleep=lambda s: None)
        assert gw.complete(MESSAGES).text == "the answer"

    @pytest.mark.parametrize("provider", ["openai", "gemini"])
    @pytest.mark.parametrize("endpoint", ["", "http://", "localhost:8080/v1"])
    def test_a_request_that_cannot_be_sent_is_not_retried(self, provider, endpoint):
        # The real transport: requests rejects these URLs before it connects.
        sleeps = []
        gw = Gateway(ModelConfig(provider=provider, endpoint=endpoint), sleep=sleeps.append)
        with pytest.raises(ProviderError) as excinfo:
            gw.complete(MESSAGES)
        assert str(excinfo.value).startswith(f"cannot send a request to endpoint {endpoint!r}: ")
        assert excinfo.value.status is None
        assert sleeps == []

    def test_a_header_that_cannot_be_sent_is_not_retried_nor_quoted(self, monkeypatch):
        monkeypatch.setenv("LELMA_TEST_KEY", "sk-secret\n")  # a stray newline: no valid header
        sleeps = []
        endpoint, key = "http://127.0.0.1:9/", "LELMA_TEST_KEY"
        cfg = ModelConfig(provider="openai", endpoint=endpoint, api_key_env=key)
        with pytest.raises(ProviderError) as excinfo:
            Gateway(cfg, sleep=sleeps.append).complete(MESSAGES)
        assert str(excinfo.value) == (
            "cannot send a request to endpoint 'http://127.0.0.1:9/': a header value is not valid"
        )
        assert sleeps == []

    def test_a_refused_connection_is_retried(self):
        import socket

        with socket.socket() as closed:  # bound, never listening: connecting is refused
            closed.bind(("127.0.0.1", 0))
            endpoint = f"http://127.0.0.1:{closed.getsockname()[1]}/"
            sleeps = []
            cfg = ModelConfig(provider="openai", endpoint=endpoint, retries=2, timeout=5.0)
            with pytest.raises(TransportError):
                Gateway(cfg, sleep=sleeps.append).complete(MESSAGES)
        assert len(sleeps) == 1

    def test_non_transient_status_fails_immediately(self):
        calls = {"n": 0}

        def transport(url, headers, payload, timeout):
            calls["n"] += 1
            return 401, {"error": "bad key"}

        cfg = ModelConfig(provider="openai", endpoint="https://x", retries=5)
        with pytest.raises(ProviderError) as excinfo:
            Gateway(cfg, transport=transport, sleep=lambda s: None).complete(MESSAGES)
        assert excinfo.value.status == 401
        assert calls["n"] == 1


def test_unknown_provider_rejected():
    with pytest.raises(ValueError, match="provider: expected one of openai, gemini, mock, replay"):
        ModelConfig(provider="anthropic-style")


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"retries": 0}, "retries: expected at least 1, got 0"),
        ({"retries": -5}, "retries: expected at least 1, got -5"),
        ({"timeout": 0}, "timeout: expected a finite number above 0, got 0"),
        ({"timeout": -1.0}, "timeout: expected a finite number above 0, got -1.0"),
        ({"timeout": float("nan")}, "timeout: expected a finite number above 0, got nan"),
    ],
)
def test_a_setting_out_of_range_is_rejected(setting, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelConfig(**setting)


def test_cassette_records_are_compact_json(tmp_path):
    cassette = tmp_path / "c.jsonl"
    cfg = ModelConfig(script=("r",), record_to=str(cassette))
    Gateway(cfg, transport=exploding_transport).complete(MESSAGES)
    line = cassette.read_text().strip()
    record = json.loads(line)
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line
    assert record["request"]["model_id"] == "mock-model"
    assert record["response"]["latency"] == 0.0
