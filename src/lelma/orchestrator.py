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

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .games import PROMPT_LABELS, GameSpec, load_game
from .gateway import ChatMessage, Gateway, GatewayError, ModelConfig, Usage
from .translator import build_translation_prompt, parse_queries
from .verification import (
    Query,
    QueryKind,
    QueryResult,
    VerificationReport,
    evaluate_all,
    reasoner_payoff,
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
    lines = []
    for own in PROMPT_LABELS:  # R row first
        for other in PROMPT_LABELS:
            u1 = reasoner_payoff(g, own, other)
            u2 = reasoner_payoff(g, other, own)
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
    feedback = render_feedback(report, g)  # raises EmptyFailureSetError if nothing failed
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


@dataclass(frozen=True)
class AttemptRecord:
    index: int  # 1-based
    instruction: str
    reasoning: str
    translator_output: str
    queries: "tuple[Query, ...]"
    report: VerificationReport
    extracted_choice: Optional[str]
    exit: ExitReason


@dataclass(frozen=True)
class SessionTranscript:
    session_id: str
    game: str
    model: str
    attempts: "tuple[AttemptRecord, ...]"
    initial_choice: Optional[str]
    final_choice: Optional[str]
    usage: Usage
    wall_time: float
    aborted: bool = False
    error: Optional[str] = None

    @property
    def exit(self) -> ExitReason:
        return self.attempts[-1].exit if self.attempts else ExitReason.NONE

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)


@dataclass(frozen=True)
class LoopConfig:
    reasoner: ModelConfig
    translator: ModelConfig
    max_attempts: int = 5


def run_session(
    g: GameSpec,
    cfg: LoopConfig,
    session_id: Optional[str] = None,
    reasoner: Optional[Gateway] = None,
    translator: Optional[Gateway] = None,
) -> SessionTranscript:
    """One full self-correction session. Gateway failures abort, not raise."""
    reasoner = reasoner or Gateway(cfg.reasoner)
    translator = translator or Gateway(cfg.translator)
    attempts: "list[AttemptRecord]" = []
    instruction = build_instruction_prompt(g)
    wall_time = 0.0
    aborted = False
    error: Optional[str] = None

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
                    queries=tuple(queries),
                    report=report,
                    extracted_choice=extract_choice(reply.text),
                    exit=exit_reason,
                )
            )
            if exit_reason is not ExitReason.NONE:
                break
            instruction = build_feedback_prompt(reply.text, report, g)
    except GatewayError as exc:
        aborted = True
        error = f"{type(exc).__name__}: {exc}"

    return SessionTranscript(
        session_id=session_id or f"{g.name}-session",
        game=g.name,
        model=cfg.reasoner.model_id,
        attempts=tuple(attempts),
        initial_choice=attempts[0].extracted_choice if attempts else None,
        final_choice=attempts[-1].extracted_choice if attempts else None,
        usage=reasoner.totals + translator.totals,
        wall_time=wall_time,
        aborted=aborted,
        error=error,
    )


# --- transcript serialization (NDJSON, deterministic) -------------------------


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _detuple(value):
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value


def _query_to_json(q: Query) -> dict:
    return {"kind": q.kind.value, "args": list(q.args), "source_text": q.source_text}


def _query_from_json(d: dict) -> Query:
    return Query(QueryKind(d["kind"]), _detuple(d["args"]), source_text=d["source_text"])


def _result_to_json(r: QueryResult) -> dict:
    return {
        "query": _query_to_json(r.query),
        "holds": r.holds,
        "corrections": [[role, value] for role, value in r.corrections],
        "explanation": r.explanation,
        "error": r.error,
    }


def _result_from_json(d: dict) -> QueryResult:
    return QueryResult(
        query=_query_from_json(d["query"]),
        holds=d["holds"],
        corrections=tuple((role, _detuple(value)) for role, value in d["corrections"]),
        explanation=d["explanation"],
        error=d["error"],
    )


def write_transcript(path: str, transcript: SessionTranscript) -> None:
    lines = []
    for attempt in transcript.attempts:
        lines.append(
            _dumps(
                {
                    "type": "attempt",
                    "index": attempt.index,
                    "instruction": attempt.instruction,
                    "reasoning": attempt.reasoning,
                    "translator_output": attempt.translator_output,
                    "results": [_result_to_json(r) for r in attempt.report.results],
                    "extracted_choice": attempt.extracted_choice,
                    "exit": attempt.exit.value,
                }
            )
        )
    lines.append(
        _dumps(
            {
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
        )
    )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines) + "\n")


class TranscriptFormatError(ValueError):
    pass


def read_transcript(path: str) -> SessionTranscript:
    attempts: "list[AttemptRecord]" = []
    session: Optional[dict] = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TranscriptFormatError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
        if record.get("type") == "attempt":
            if session is not None:
                raise TranscriptFormatError(f"{path}:{lineno}: attempt after session summary")
            try:
                results = tuple(_result_from_json(r) for r in record["results"])
                attempts.append(
                    AttemptRecord(
                        index=record["index"],
                        instruction=record["instruction"],
                        reasoning=record["reasoning"],
                        translator_output=record["translator_output"],
                        queries=tuple(r.query for r in results),
                        report=VerificationReport(results),
                        extracted_choice=record["extracted_choice"],
                        exit=ExitReason(record["exit"]),
                    )
                )
            except KeyError as exc:
                raise TranscriptFormatError(
                    f"{path}:{lineno}: attempt record missing field {exc}"
                ) from exc
        elif record.get("type") == "session":
            session = record
        else:
            raise TranscriptFormatError(f"{path}:{lineno}: unknown record type")
    if session is None:
        raise TranscriptFormatError(f"{path}: no session summary record")
    if session["attempt_count"] != len(attempts):
        raise TranscriptFormatError(
            f"{path}: summary says {session['attempt_count']} attempts, found {len(attempts)}"
        )
    return SessionTranscript(
        session_id=session["session_id"],
        game=session["game"],
        model=session["model"],
        attempts=tuple(attempts),
        initial_choice=session["initial_choice"],
        final_choice=session["final_choice"],
        usage=Usage(session["prompt_tokens"], session["completion_tokens"]),
        wall_time=session["wall_time"],
        aborted=session["aborted"],
        error=session["error"],
    )
