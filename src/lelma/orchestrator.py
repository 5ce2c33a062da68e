"""The self-correction loop: reason, translate, verify, feed back.

One session plays one game with one reasoner model. Each attempt asks
the reasoner for step-by-step reasoning ending in a CHOICE line, has
the translator model turn that reasoning into formal queries, and
evaluates the queries against the game. If any query fails, the next
attempt's prompt embeds the corrections together with the previous
reasoning; the loop stops as soon as an attempt yields no queries or
no failures, or when the attempt budget runs out.

Transcripts are NDJSON with fully deterministic content (no ambient
timestamps; wall time is the sum of completion latencies), so a replay
against a recorded cassette reproduces the transcript byte for byte.
Each record type is declared once, as a table of its JSON fields that
writing and reading follow: a new field is one row (and, in version 2, a
version switch).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from types import NoneType
from typing import Optional

from ._record import record
from .games import PROMPT_LABELS, GameSpec
from .gateway import (ChatMessage, Gateway, ModelConfig, Usage, check_types, dumps, read_records,
                      replace_text)
from .translator import build_translation_prompt, parse_queries
from .verification import (Query, QueryKind, QueryResult, VerificationError, VerificationReport,
                           evaluate_all, render_feedback)

TRANSCRIPT_VERSION = 1

_CHOICE_INSTRUCTION = (
    "End your answer with a single line of the form\n"
    "CHOICE: B\n"
    "or\n"
    "CHOICE: R"
)


def payoff_rules_text(g: GameSpec) -> str:
    """The payoff table as sentences, one move pair per line."""
    return _payoff_rules_text(tuple(g.label_payoffs.items()))


@functools.lru_cache(maxsize=64)
def _payoff_rules_text(cells: "tuple[tuple[tuple[str, str], tuple[int, int]], ...]") -> str:
    # Keyed on the payoff view's cells, so each distinct table is built once.
    payoffs = dict(cells)
    lines = []
    for own in PROMPT_LABELS:  # R row first
        for other in PROMPT_LABELS:
            u1, u2 = payoffs[own, other]
            if own == other and u1 == u2:
                lines.append(f"If you both pick {own}, you each get ${u1}.")
            else:
                lines.append(
                    f"If you pick {own} and they pick {other}, "
                    f"you get ${u1} and they get ${u2}."
                )
    return "\n".join(lines)


def build_instruction_prompt(g: GameSpec) -> str:
    """First-attempt prompt: rules in label space, no game name anywhere."""
    return (
        "You are playing a game against another player. You each pick one of "
        "two moves, B or R, at the same time, and your payoffs depend on the "
        "pair of moves picked.\n"
        "\n"
        f"{payoff_rules_text(g)}\n"
        "\n"
        "Think about which move to pick and perform reasoning as a human player "
        "would. Explain your reasoning step by step.\n"
        "\n" + _CHOICE_INSTRUCTION
    )


def build_feedback_prompt(prev_reasoning: str, report: VerificationReport, g: GameSpec) -> str:
    """Follow-up prompt embedding corrections and the previous reasoning verbatim."""
    feedback = render_feedback(report)  # raises EmptyFailureSetError if nothing failed
    return (
        "Some statements in your reasoning about the game were wrong:\n"
        f"{feedback}\n"
        "\n"
        "As a reminder, the rules are:\n"
        f"{payoff_rules_text(g)}\n"
        "\n"
        "Your previous reasoning was:\n"
        f"{prev_reasoning}\n"
        "\n"
        "Reassess your reasoning in light of the corrections above and perform "
        "reasoning as a human player would. Explain your reasoning step by step.\n"
        "\n" + _CHOICE_INSTRUCTION
    )


_CHOICE_LINE_RE = re.compile(r"^\s*choice\s*:\s*['\"]?([BR])\b", re.IGNORECASE | re.MULTILINE)
_STANDALONE_RE = re.compile(r"\b([BR])\b", re.IGNORECASE)


def extract_choice(text: str) -> Optional[str]:
    """The declared move: last CHOICE line, else last standalone B/R token."""
    labeled = _CHOICE_LINE_RE.findall(text)
    if labeled:
        return labeled[-1].upper()
    bare = _STANDALONE_RE.findall(text)
    if bare:
        return bare[-1].upper()
    return None


class ExitReason(str, Enum):
    NONE = "none"  # attempt failed verification; loop continued
    NO_QUERIES = "no_queries"
    ALL_TRUE = "all_true"
    MAX_ATTEMPTS = "max_attempts"


@record
class AttemptRecord:
    index: int  # 1-based
    instruction: str
    reasoning: str
    translator_output: str
    report: VerificationReport
    extracted_choice: Optional[str]
    exit: ExitReason

    @property
    def queries(self) -> "tuple[Query, ...]":
        return tuple(r.query for r in self.report.results)


@record
class SessionTranscript:
    session_id: str
    game: str
    model: str
    attempts: "tuple[AttemptRecord, ...]"
    usage: Usage
    wall_time: float
    error: Optional[str] = None  # `Type: message` of the exception that aborted the session

    @property
    def aborted(self) -> bool:
        return self.error is not None

    @property
    def exit(self) -> ExitReason:
        return self.attempts[-1].exit if self.attempts else ExitReason.NONE

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def initial_choice(self) -> Optional[str]:
        return self.attempts[0].extracted_choice if self.attempts else None

    @property
    def final_choice(self) -> Optional[str]:
        return self.attempts[-1].extracted_choice if self.attempts else None


@dataclass(frozen=True)
class LoopConfig:
    reasoner: ModelConfig
    translator: ModelConfig
    max_attempts: int = 5

    def __post_init__(self) -> None:
        for role in ("reasoner", "translator"):
            model = getattr(self, role)
            if not isinstance(model, ModelConfig):
                raise TypeError(f"{role} must be a ModelConfig, not {type(model).__name__}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")


def run_session(g: GameSpec, cfg: LoopConfig, session_id: Optional[str] = None) -> SessionTranscript:
    """One full self-correction session. Any exception in it, a gateway
    failure or an unreadable cassette say, aborts the session instead of
    raising: the transcript records it as `Type: message`."""
    attempts: "list[AttemptRecord]" = []
    instruction = build_instruction_prompt(g)
    wall_time = 0.0
    prompt_tokens = completion_tokens = 0  # of every reply received, an aborted session's too
    error: Optional[str] = None
    # Building a gateway reads nothing and cannot fail: the config is checked.
    reasoner = Gateway(cfg.reasoner)
    translator = Gateway(cfg.translator)

    try:
        for index in range(1, cfg.max_attempts + 1):
            reply = reasoner.complete((ChatMessage("user", instruction),))
            wall_time += reply.latency
            prompt_tokens += reply.usage.prompt_tokens
            completion_tokens += reply.usage.completion_tokens
            translated = translator.complete(build_translation_prompt(reply.text, g))
            wall_time += translated.latency
            prompt_tokens += translated.usage.prompt_tokens
            completion_tokens += translated.usage.completion_tokens
            queries, _ = parse_queries(translated.text, g)
            report = evaluate_all(queries, g)

            if not queries:
                exit_reason = ExitReason.NO_QUERIES
            elif not report.failed:
                exit_reason = ExitReason.ALL_TRUE
            elif index == cfg.max_attempts:
                exit_reason = ExitReason.MAX_ATTEMPTS
            else:
                exit_reason = ExitReason.NONE

            attempts.append(
                AttemptRecord(
                    index=index,
                    instruction=instruction,
                    reasoning=reply.text,
                    translator_output=translated.text,
                    report=report,
                    extracted_choice=extract_choice(reply.text),
                    exit=exit_reason,
                )
            )
            if exit_reason is not ExitReason.NONE:
                break
            instruction = build_feedback_prompt(reply.text, report, g)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"

    return SessionTranscript(
        session_id=session_id or f"{g.name}-session",
        game=g.name,
        model=cfg.reasoner.model_id,
        attempts=tuple(attempts),
        usage=Usage(prompt_tokens, completion_tokens),
        wall_time=wall_time,
        error=error,
    )


# --- transcript serialization (NDJSON, deterministic) -------------------------

# One table per record, one row per JSON field: (name, types, write, read).
# `types` are what a value read back must be (none: the reader or a check
# decides); `write` takes the value from the record; `read` builds it
# back, and a record's `make` gets what the readers build by field name.
# A field with no `read`, a summary or a constant, is written, and read
# back only to be compared with what the rebuilt record writes. The rows
# are in the order the fields are checked. A new field is one row.


def _as_is(value):
    return value


def _field(name: str, *types: type, read=_as_is) -> tuple:
    """The row of the record's attribute `name`, written as it is."""
    return name, types, attrgetter(name), read


def _write(table: tuple, record) -> dict:
    return {name: write(record) for name, _, write, _ in table}


def _read(table: tuple, fields: dict, make, check=lambda fields: None):
    """`make(**built)`, `built` what the readers of `table` build from `fields`.
    The types are checked first, then `check(fields)` runs, then the summaries."""
    check_types(fields, {name: types for name, types, _, _ in table if types})
    check(fields)
    built = make(**{name: read(fields[name]) for name, _, _, read in table if read})
    for name, value in ((name, write(built)) for name, _, write, read in table if read is None):
        if type(fields[name]) is not type(value) or fields[name] != value:  # as JSON: true is not 1
            raise ValueError(f"summary says {name} {fields[name]!r}, but it is {value!r}")
    return built


def _attempt(results, **fields) -> AttemptRecord:
    return AttemptRecord(report=VerificationReport(results), **fields)


# Each correction role, with whether a value read back is one the judges make.
_CORRECTION_VALUES = {
    "payoff": lambda v: type(v) is int,
    "choice": lambda v: v in PROMPT_LABELS,
    "choices": lambda v: type(v) is list and len(v) == 2 and all(m in PROMPT_LABELS for m in v),
    "relation": lambda v: v in ("higher", "lower", "equal"),
}


def _correction(pair) -> "tuple[str, object]":
    """The correction written as the JSON `[role, value]` `pair`, a pair of
    labels as a tuple; ValueError if it is in no shape the judges make."""
    if type(pair) is list and len(pair) == 2 and type(pair[0]) is str:
        role, value = pair
        if role in _CORRECTION_VALUES and _CORRECTION_VALUES[role](value):
            return role, tuple(value) if type(value) is list else value
    raise ValueError(f"correction must be a [role, value] pair as a judge makes it, not {pair!r}")


_QUERY = (
    ("kind", (), lambda q: q.kind.value, QueryKind),
    ("args", (list,), lambda q: list(q.args), tuple),
    _field("source_text", str),
)
_RESULT = (
    ("query", (), lambda r: _write(_QUERY, r.query), lambda q: _read(_QUERY, q, Query)),
    _field("holds", bool),
    ("corrections", (list,), lambda r: [list(c) for c in r.corrections],
     lambda cs: tuple(map(_correction, cs))),
    _field("explanation", str),
    _field("error", str, NoneType),
)
_ATTEMPT = (
    ("type", (), lambda a: "attempt", None),
    _field("index", int),
    _field("instruction", str),
    _field("reasoning", str),
    _field("translator_output", str),
    ("results", (list,), lambda a: [_write(_RESULT, r) for r in a.report.results],
     lambda results: tuple(_read(_RESULT, r, QueryResult) for r in results)),
    _field("extracted_choice"),
    ("exit", (), lambda a: a.exit.value, ExitReason),
)
_SESSION = (
    ("type", (), lambda t: "session", None),
    ("version", (int,), lambda t: TRANSCRIPT_VERSION, None),
    _field("session_id", str),
    _field("game", str),
    _field("model", str),
    _field("attempt_count", read=None),
    ("exit", (), lambda t: t.exit.value, None),
    _field("initial_choice", read=None),
    _field("final_choice", read=None),
    _field("aborted", bool, read=None),
    ("prompt_tokens", (int,), lambda t: t.usage.prompt_tokens, _as_is),
    ("completion_tokens", (int,), lambda t: t.usage.completion_tokens, _as_is),
    _field("wall_time", float),
    _field("error", str, NoneType),
)


def write_transcript(path: str, transcript: SessionTranscript) -> None:
    records = [*(_write(_ATTEMPT, a) for a in transcript.attempts), _write(_SESSION, transcript)]
    replace_text(path, "\n".join(map(dumps, records)) + "\n")


class TranscriptFormatError(ValueError):
    pass


def _decoded(where: str, kind: str, *args):
    """`_read(*args)`, with a record it cannot read reported at `where`."""
    try:
        return _read(*args)
    except KeyError as exc:
        raise TranscriptFormatError(f"{where}: {kind} record missing field {exc}") from exc
    except (TypeError, ValueError, VerificationError) as exc:
        raise TranscriptFormatError(f"{where}: {kind} record cannot be read ({exc})") from exc


def _check_attempt(earlier: "list[AttemptRecord]", attempt: dict) -> None:
    """An attempt record must come next after `earlier`."""
    if attempt["index"] != len(earlier) + 1:
        raise ValueError(f"index must be {len(earlier) + 1}, its position, not {attempt['index']}")
    if earlier and earlier[-1].exit is not ExitReason.NONE:
        raise ValueError(f"attempt {len(earlier)} ended the session ({earlier[-1].exit.value})")
    choice = attempt["extracted_choice"]
    if choice not in (*PROMPT_LABELS, None):
        raise ValueError(f"extracted_choice must be B, R or null, not {choice!r}")


def _check_version(session: dict) -> None:
    if session["version"] != TRANSCRIPT_VERSION:
        raise ValueError(f"version must be {TRANSCRIPT_VERSION}, not {session['version']}")


def read_transcript(path: str) -> SessionTranscript:
    attempts: "list[AttemptRecord]" = []
    transcript: Optional[SessionTranscript] = None  # read from the session summary record

    def session(prompt_tokens, completion_tokens, **fields) -> SessionTranscript:
        usage = Usage(prompt_tokens, completion_tokens)
        return SessionTranscript(attempts=tuple(attempts), usage=usage, **fields)

    for where, record in read_records(path, TranscriptFormatError):
        kind = record.get("type")
        if kind == "attempt":
            if transcript is not None:
                raise TranscriptFormatError(f"{where}: attempt after session summary")
            check = functools.partial(_check_attempt, attempts)
            attempts.append(_decoded(where, kind, _ATTEMPT, record, _attempt, check))
        elif kind == "session":
            if transcript is not None:
                raise TranscriptFormatError(f"{where}: second session summary")
            transcript = _decoded(where, kind, _SESSION, record, session, _check_version)
            # As run_session writes it, a session is aborted exactly when no attempt ended it.
            ended = transcript.exit is not ExitReason.NONE
            if transcript.aborted == ended:
                must = "null" if ended else "a string"
                raise TranscriptFormatError(
                    f"{where}: {kind} record cannot be read (exit is {transcript.exit.value!r}, "
                    f"so error must be {must}, not {transcript.error!r})"
                )
        else:
            raise TranscriptFormatError(f"{where}: unknown record type")
    if transcript is None:
        raise TranscriptFormatError(f"{path}: no session summary record")
    return transcript
