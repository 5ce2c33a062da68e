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
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from ._record import record
from .games import PROMPT_LABELS, GameSpec
from .gateway import ChatMessage, Gateway, ModelConfig, Usage, check_types, dumps, read_records
from .translator import build_translation_prompt, parse_queries
from .verification import (
    Query,
    QueryKind,
    QueryResult,
    VerificationError,
    VerificationReport,
    check_query,
    evaluate_all,
    render_feedback,
)

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


def run_session(
    g: GameSpec,
    cfg: LoopConfig,
    session_id: Optional[str] = None,
    reasoner: Optional[Gateway] = None,
    translator: Optional[Gateway] = None,
) -> SessionTranscript:
    """One full self-correction session. Any exception in it, a gateway
    failure or an unreadable cassette say, aborts the session instead of
    raising: the transcript records it as `Type: message`."""
    attempts: "list[AttemptRecord]" = []
    instruction = build_instruction_prompt(g)
    wall_time = 0.0
    error: Optional[str] = None
    # Building a gateway reads nothing and cannot fail: the config is checked.
    reasoner = reasoner or Gateway(cfg.reasoner)
    translator = translator or Gateway(cfg.translator)

    try:
        for index in range(1, cfg.max_attempts + 1):
            reply = reasoner.complete((ChatMessage("user", instruction),))
            wall_time += reply.latency
            translated = translator.complete(build_translation_prompt(reply.text, g))
            wall_time += translated.latency
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
        usage=reasoner.totals + translator.totals,
        wall_time=wall_time,
        error=error,
    )


# --- transcript serialization (NDJSON, deterministic) -------------------------


def _query_to_json(q: Query) -> dict:
    return {"kind": q.kind.value, "args": list(q.args), "source_text": q.source_text}


def _query_from_json(d: dict) -> Query:
    check_types(d, {"args": (list,), "source_text": (str,)})
    q = Query(QueryKind(d["kind"]), tuple(d["args"]), source_text=d["source_text"])
    check_query(q)
    return q


def _result_to_json(r: QueryResult) -> dict:
    return {
        "query": _query_to_json(r.query),
        "holds": r.holds,
        "corrections": [[role, value] for role, value in r.corrections],
        "explanation": r.explanation,
        "error": r.error,
    }


def _result_from_json(d: dict) -> QueryResult:
    check_types(d, {"holds": (bool,), "corrections": (list,), "explanation": (str,),
                    "error": (str, type(None))})
    return QueryResult(
        query=_query_from_json(d["query"]),
        holds=d["holds"],
        # A correction value is an int, a label or a pair of labels.
        corrections=tuple((r, tuple(v) if type(v) is list else v) for r, v in d["corrections"]),
        explanation=d["explanation"],
        error=d["error"],
    )


def _session_to_json(transcript: SessionTranscript) -> dict:
    return {
        "type": "session",
        "version": TRANSCRIPT_VERSION,
        "session_id": transcript.session_id,
        "game": transcript.game,
        "model": transcript.model,
        "attempt_count": transcript.attempt_count,
        "initial_choice": transcript.initial_choice,
        "final_choice": transcript.final_choice,
        "prompt_tokens": transcript.usage.prompt_tokens,
        "completion_tokens": transcript.usage.completion_tokens,
        "wall_time": transcript.wall_time,
        "aborted": transcript.aborted,
        "error": transcript.error,
        "exit": transcript.exit.value,
    }


def _attempt_to_json(attempt: AttemptRecord) -> dict:
    return {
        "type": "attempt",
        "index": attempt.index,
        "instruction": attempt.instruction,
        "reasoning": attempt.reasoning,
        "translator_output": attempt.translator_output,
        "results": [_result_to_json(r) for r in attempt.report.results],
        "extracted_choice": attempt.extracted_choice,
        "exit": attempt.exit.value,
    }


def write_transcript(path: str, transcript: SessionTranscript) -> None:
    records = [*map(_attempt_to_json, transcript.attempts), _session_to_json(transcript)]
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(map(dumps, records)) + "\n", encoding="utf-8")


class TranscriptFormatError(ValueError):
    pass


def _attempt_from_json(record: dict, earlier: "list[AttemptRecord]") -> AttemptRecord:
    """The attempt `record` describes, which must come next after `earlier`."""
    check_types(record, {"index": (int,), "instruction": (str,), "reasoning": (str,),
                         "translator_output": (str,), "results": (list,)})
    if record["index"] != len(earlier) + 1:
        raise ValueError(f"index must be {len(earlier) + 1}, its position, not {record['index']}")
    if earlier and earlier[-1].exit is not ExitReason.NONE:
        raise ValueError(f"attempt {len(earlier)} ended the session ({earlier[-1].exit.value})")
    choice = record["extracted_choice"]
    if choice not in (*PROMPT_LABELS, None):
        raise ValueError(f"extracted_choice must be B, R or null, not {choice!r}")
    return AttemptRecord(
        index=record["index"],
        instruction=record["instruction"],
        reasoning=record["reasoning"],
        translator_output=record["translator_output"],
        report=VerificationReport(tuple(_result_from_json(r) for r in record["results"])),
        extracted_choice=choice,
        exit=ExitReason(record["exit"]),
    )


def _session_from_json(session: dict, attempts: "list[AttemptRecord]") -> SessionTranscript:
    """The transcript the attempts and the session record describe; the
    record's summary fields must agree with the attempts, and `aborted` with `error`."""
    check_types(session, {"version": (int,), "session_id": (str,), "game": (str,), "model": (str,),
                          "aborted": (bool,), "prompt_tokens": (int,), "completion_tokens": (int,),
                          "wall_time": (float,), "error": (str, type(None))})
    if session["version"] != TRANSCRIPT_VERSION:
        raise ValueError(f"version must be {TRANSCRIPT_VERSION}, not {session['version']}")
    transcript = SessionTranscript(
        session_id=session["session_id"],
        game=session["game"],
        model=session["model"],
        attempts=tuple(attempts),
        usage=Usage(session["prompt_tokens"], session["completion_tokens"]),
        wall_time=session["wall_time"],
        error=session["error"],
    )
    summary = _session_to_json(transcript)
    for field in ("attempt_count", "exit", "initial_choice", "final_choice", "aborted"):
        if dumps(session[field]) != dumps(summary[field]):  # as JSON text, where true is not 1
            raise ValueError(f"summary says {field} {session[field]!r}, but it is {summary[field]!r}")
    return transcript


def _decoded(where: str, kind: str, decode, *args):
    """`decode(*args)`, with a record it cannot read reported at `where`."""
    try:
        return decode(*args)
    except KeyError as exc:
        raise TranscriptFormatError(f"{where}: {kind} record missing field {exc}") from exc
    except (TypeError, ValueError, VerificationError) as exc:
        raise TranscriptFormatError(f"{where}: {kind} record cannot be read ({exc})") from exc


def read_transcript(path: str) -> SessionTranscript:
    attempts: "list[AttemptRecord]" = []
    transcript: Optional[SessionTranscript] = None  # read from the session summary record
    for where, record in read_records(path, TranscriptFormatError):
        kind = record.get("type")
        if kind == "attempt":
            if transcript is not None:
                raise TranscriptFormatError(f"{where}: attempt after session summary")
            attempts.append(_decoded(where, "attempt", _attempt_from_json, record, attempts))
        elif kind == "session":
            if transcript is not None:
                raise TranscriptFormatError(f"{where}: second session summary")
            transcript = _decoded(where, "session", _session_from_json, record, attempts)
        else:
            raise TranscriptFormatError(f"{where}: unknown record type")
    if transcript is None:
        raise TranscriptFormatError(f"{path}: no session summary record")
    return transcript
