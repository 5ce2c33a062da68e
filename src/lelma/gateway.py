"""Provider-agnostic chat-completion gateway with record/replay.

Four providers: two HTTP wire formats (openai-style and gemini-style),
a deterministic scripted mock, and a cassette replayer. A cassette is
newline-delimited JSON, one record per request, keyed by a canonical
hash of (model_id, messages). A cassette answers each request it holds
without a provider call; the answer to any other is appended to it, and
under replay any other is a miss. So a rerun into a cassette resumes it.
A last line with no newline is a torn append, one a kill cut off: the
reader skips it and the next append first cuts it off the file.

Cassettes and session transcripts share one NDJSON record format:
`dumps` writes a line, `read_records` reads them, `check_types` checks.
`replace_text` writes a whole file, so a reader never sees part of one.

The mock performs no network activity whatsoever: its token counts are
a deterministic function of the message texts and its latency is zero,
so recorded mock sessions replay byte-identically.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from ._record import record


class GatewayError(Exception):
    """Base class for completion failures."""


class TransportError(GatewayError):
    pass


class ProviderError(GatewayError):
    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class CassetteError(GatewayError):
    pass


class CassetteParseError(CassetteError):
    pass


class DuplicateRequestKeyError(CassetteError):
    pass


class ReplayMissError(CassetteError):
    def __init__(self, key: str):
        super().__init__(f"no cassette record for request key {key}")
        self.key = key


@record
class ChatMessage:
    role: str  # system | user | assistant
    content: str


@record
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@record
class CompletionResult:
    text: str
    usage: Usage
    latency: float


TRANSIENT_STATUSES = {429, 500, 502, 503, 504}


@dataclass(frozen=True)
class ModelConfig:
    provider: str = "mock"
    model_id: str = "mock-model"
    endpoint: str = ""
    temperature: float = 1.0
    max_output_tokens: int = 1024
    timeout: float = 60.0
    retries: int = 3  # attempts per call; 1 means no retry
    api_key_env: Optional[str] = None  # env var NAME; secrets never live in config
    script: "tuple[str, ...]" = ()  # mock provider responses, one per call
    record_to: Optional[str] = None  # the cassette: answers what it holds, records the rest

    def __post_init__(self) -> None:
        # Each message starts with the field's name; the INI reader adds the section.
        if self.provider not in PROVIDERS:
            raise ValueError(f"provider: expected one of {', '.join(PROVIDERS)}, got {self.provider!r}")
        if not 0 <= self.temperature < math.inf:  # nan fails; requests cannot send nan or inf
            raise ValueError(f"temperature: expected a finite number at least 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens: expected at least 1, got {self.max_output_tokens}")
        if self.retries < 1:
            raise ValueError(f"retries: expected at least 1, got {self.retries}")
        if not 0 < self.timeout < math.inf:  # nan fails; requests overflows on inf
            raise ValueError(f"timeout: expected a finite number above 0, got {self.timeout}")
        if self.timeout > threading.TIMEOUT_MAX:  # a socket's timeout overflows past it
            raise ValueError(f"timeout: expected at most {threading.TIMEOUT_MAX:.0f}, got {self.timeout}")


def dumps(record: dict) -> str:
    """`record` as one canonical JSON line: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def read_records(path: str, error: "type[Exception]", torn_tail=False) -> "Iterator[tuple[str, dict]]":
    """`(f"{path}:{line}", record)` for each non-blank line of the NDJSON
    file at `path`; with `torn_tail`, a last line with no newline is
    skipped. Text that is not UTF-8, or a line that is not a JSON object,
    raises `error` naming the file or the line; an OSError passes."""
    data = Path(path).read_bytes()
    if torn_tail:
        data = data[: data.rfind(b"\n") + 1]
    for lineno, line in enumerate(utf8_text(data, path, error).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # or an int too long, or nested too deep
            raise error(f"{where}: not valid JSON ({exc})") from exc
        if type(record) is not dict:
            raise error(f"{where}: not a JSON object")
        yield where, record


def utf8_text(data: bytes, source: str, error: "type[Exception]") -> str:
    """`data` decoded as UTF-8; `error` naming `source` if it is not UTF-8.
    Decoded whole, so the error gives the bad byte's offset in `data`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{source}: not UTF-8 text ({exc})") from None


def replace_text(path: str, text: str) -> None:
    """Write `text` as UTF-8 to a temporary file beside `path`, then move it
    into place: a reader finds the old file or the new one, never part of
    one. The temporary name ends in `.tmp`, so no `*.jsonl` glob sees it;
    a failed write removes it and leaves `path` as it was."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def check_types(record: dict, fields: "dict[str, tuple[type, ...]]") -> None:
    """Each of `fields` in `record` must have exactly one of its types: a
    bool is no int here, and an int no float. Raises KeyError or TypeError."""
    for field, kinds in fields.items():
        if type(record[field]) not in kinds:
            wanted = " or ".join(kind.__name__ for kind in kinds)
            raise TypeError(f"{field} must be {wanted}, not {type(record[field]).__name__}")


# A completion as a cassette stores it, and the type each field may have.
_RESPONSE_FIELDS = {
    "text": (str,), "prompt_tokens": (int,), "completion_tokens": (int,), "latency": (float, int),
}


def _completion(response: dict) -> CompletionResult:
    """The completion a cassette response, or an HTTP reply read into that
    shape, describes. Raises KeyError or TypeError as `check_types` does."""
    check_types(response, _RESPONSE_FIELDS)
    usage = Usage(response["prompt_tokens"], response["completion_tokens"])
    return CompletionResult(response["text"], usage, response["latency"])


def canonical_request_key(model_id: str, messages: Sequence[ChatMessage]) -> str:
    import hashlib  # maps OpenSSL's libcrypto; only cassette record and replay hash requests

    payload = dumps({"model": model_id, "messages": [[m.role, m.content] for m in messages]})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_cassette(path: str) -> "dict[str, CompletionResult]":
    """The answers of the cassette at `path` by request key, checked once,
    here. A torn last line, one with no newline, is skipped; any other
    record that cannot be replayed raises CassetteParseError naming its line."""
    answers: dict[str, CompletionResult] = {}
    try:
        for where, record in read_records(path, CassetteParseError, torn_tail=True):
            key = record.get("key")
            if not isinstance(key, str) or "request" not in record or "response" not in record:
                raise CassetteParseError(f"{where}: missing key/request/response fields")
            try:
                check_types(record, {"response": (dict,)})
                answer = _completion(record["response"])
            except KeyError as exc:
                raise CassetteParseError(f"{where}: response missing field {exc}") from exc
            except TypeError as exc:
                raise CassetteParseError(f"{where}: response cannot be read ({exc})") from exc
            if key in answers:
                raise DuplicateRequestKeyError(f"{where}: duplicate request key {key}")
            answers[key] = answer
    except OSError as exc:  # missing, a directory, no permission, ...
        raise CassetteError(f"cannot read cassette {path}: {exc.strerror or exc}") from exc
    return answers


# transport(url, headers, payload, timeout) -> (status_code, response_body)
Transport = Callable[[str, dict, dict, float], "tuple[int, dict]"]


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float):
    import requests

    try:
        response = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        if not isinstance(exc, ValueError):  # a connection error or a timeout, say: retried
            raise TransportError(str(exc)) from exc
        # A bad URL or header, found before any connection: no retry can send it.
        reason = exc
        if isinstance(exc, requests.exceptions.InvalidHeader):  # its text quotes the API key, say
            reason = "a header value is not valid"
        raise ProviderError(f"cannot send a request to endpoint {url!r}: {reason}") from None
    try:
        body = response.json()
    except ValueError:
        body = {"raw": response.text}
    return response.status_code, body


@functools.lru_cache(maxsize=256)
def _word_count(text: str) -> int:
    # Cached because the translator's long system prompt repeats on every call.
    return len(text.split())


def _mock_usage(messages: Sequence[ChatMessage], text: str) -> Usage:
    prompt_tokens = 0
    for m in messages:
        prompt_tokens += _word_count(m.content)
    return Usage(prompt_tokens, _word_count(text))


class Gateway:
    """A stateful completion client for one ModelConfig.

    Owns the call count, which is the mock's place in its script, and the cassette.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        transport: Optional[Transport] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self._transport = transport or _requests_transport
        self._sleep = sleep
        # The cassette's answers by request key, read on the first call.
        self._tape: Optional[dict[str, CompletionResult]] = None
        # A plain function in an instance attribute: called as `(self, messages)`.
        self._serve = _SERVE[cfg.provider]
        self.calls = 0

    def complete(self, messages: Sequence[ChatMessage]) -> CompletionResult:
        messages = tuple(messages)
        path = self.cfg.record_to
        if not path:
            result = self._serve(self, messages)
        else:
            if self._tape is None:  # a missing cassette reads as empty, but not to replay
                missing = self.cfg.provider != "replay" and not Path(path).exists()
                self._tape = {} if missing else load_cassette(path)
            key = canonical_request_key(self.cfg.model_id, messages)
            result = self._tape.get(key)
            if result is None:
                result = self._serve(self, messages)
                self._record(key, messages, result)
                self._tape[key] = result
        self.calls += 1
        return result

    # --- providers ---------------------------------------------------------

    def _complete_mock(self, messages: "tuple[ChatMessage, ...]") -> CompletionResult:
        if self.calls >= len(self.cfg.script):
            raise ProviderError(f"mock script exhausted after {self.calls} response(s)")
        text = self.cfg.script[self.calls]
        return CompletionResult(text, _mock_usage(messages, text), latency=0.0)

    def _complete_replay(self, messages: "tuple[ChatMessage, ...]") -> CompletionResult:
        if not self.cfg.record_to:
            raise ProviderError("replay provider needs a cassette path")
        raise ReplayMissError(canonical_request_key(self.cfg.model_id, messages))

    def _post(self, payload: dict, key_header: str, key_prefix: str = "") -> "tuple[dict, float]":
        """POST `payload` to the endpoint, with the API key, if the config
        names its variable, in `key_header`, retrying transient failures with
        backoff. Each wait is a random share, a half to all, of its backoff step
        (0.5 s, 1 s, 2 s, ...), so callers that failed together do not retry in
        lockstep. Returns the reply body and the seconds it took, retries included."""
        cfg = self.cfg
        headers = {"Content-Type": "application/json"}
        if cfg.api_key_env:
            key = os.environ.get(cfg.api_key_env)
            if not key:
                raise ProviderError(f"api key environment variable {cfg.api_key_env} is not set")
            headers[key_header] = key_prefix + key
        started = time.monotonic()
        last_error: Optional[GatewayError] = None
        for attempt in range(cfg.retries):
            if attempt:
                step = 0.5 * 2 ** (attempt - 1)
                self._sleep(random.uniform(step / 2, step))
            try:
                status, body = self._transport(cfg.endpoint, headers, payload, cfg.timeout)
            except TransportError as exc:
                last_error = exc
                continue
            if status == 200:
                return body, time.monotonic() - started
            error = ProviderError(f"provider returned status {status}: {body}", status)
            if status not in TRANSIENT_STATUSES:
                raise error
            last_error = error
        raise last_error  # set by the last attempt, as ModelConfig keeps retries >= 1

    def _complete_openai(self, messages: "tuple[ChatMessage, ...]") -> CompletionResult:
        payload = {
            "model": self.cfg.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_output_tokens,
        }
        body, latency = self._post(payload, "Authorization", "Bearer ")
        try:
            usage = body.get("usage") or {}  # a null usage reads as an absent one
            return _completion({
                "text": body["choices"][0]["message"]["content"],
                "prompt_tokens": usage.get("prompt_tokens", 0),
                "completion_tokens": usage.get("completion_tokens", 0),
                "latency": latency,
            })
        except (LookupError, TypeError, AttributeError) as exc:
            raise ProviderError(f"malformed openai-style response: {body}") from exc

    def _complete_gemini(self, messages: "tuple[ChatMessage, ...]") -> CompletionResult:
        contents = []
        system_parts = []
        for m in messages:
            if m.role == "system":
                system_parts.append({"text": m.content})
            else:
                role = "model" if m.role == "assistant" else "user"
                contents.append({"role": role, "parts": [{"text": m.content}]})
        payload: dict = {
            "contents": contents,
            "generationConfig": {
                "temperature": self.cfg.temperature,
                "maxOutputTokens": self.cfg.max_output_tokens,
            },
        }
        if system_parts:
            payload["systemInstruction"] = {"parts": system_parts}
        body, latency = self._post(payload, "x-goog-api-key")
        try:
            usage = body.get("usageMetadata") or {}  # a null usage reads as an absent one
            parts = body["candidates"][0]["content"]["parts"]
            return _completion({
                "text": "".join(p.get("text", "") for p in parts),
                "prompt_tokens": usage.get("promptTokenCount", 0),
                "completion_tokens": usage.get("candidatesTokenCount", 0),
                "latency": latency,
            })
        except (LookupError, TypeError, AttributeError) as exc:
            raise ProviderError(f"malformed gemini-style response: {body}") from exc

    # --- recording -----------------------------------------------------------

    def _record(self, key: str, messages: Sequence[ChatMessage], result: CompletionResult) -> None:
        """Append `result`, the answer to `messages`, to the cassette, first
        cutting off a torn last line, which load_cassette skipped."""
        from datetime import datetime, timezone

        record = {
            "key": key,
            "recorded_at": datetime.now(timezone.utc).isoformat(),
            "request": {
                "model_id": self.cfg.model_id,
                "messages": [{"role": m.role, "content": m.content} for m in messages],
                "temperature": self.cfg.temperature,
                "max_output_tokens": self.cfg.max_output_tokens,
            },
            "response": {
                "text": result.text,
                "prompt_tokens": result.usage.prompt_tokens,
                "completion_tokens": result.usage.completion_tokens,
                "latency": result.latency,
            },
        }
        path = Path(self.cfg.record_to)  # type: ignore[arg-type]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
            handle.write(dumps(record).encode("utf-8") + b"\n")


# Each provider ModelConfig accepts, with the Gateway method that serves it.
_SERVE = {
    "openai": Gateway._complete_openai,
    "gemini": Gateway._complete_gemini,
    "mock": Gateway._complete_mock,
    "replay": Gateway._complete_replay,
}
PROVIDERS = tuple(_SERVE)
