"""Turns free-form reasoning into formal queries via an LLM.

The prompt lists every query form the model may emit, each with a
worked example and the claim it expresses, rendered from
verification.QUERY_FORMS; the model is asked for bare query lines.
Downstream parsing is line-by-line and total: every non-empty output
line is either parsed into a Query or recorded as skipped with a
reason, so a chatty or partially off-format response degrades
gracefully instead of failing.
"""

from __future__ import annotations

import functools
from importlib import resources

from ._record import record
from .games import GameSpec
from .gateway import ChatMessage
from .verification import QUERY_FORMS, Query, VerificationError, parse_query_line


@record
class ParseDiagnostics:
    parsed_count: int
    skipped: "tuple[tuple[str, str], ...]"  # (line, reason) pairs

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


@functools.lru_cache(maxsize=1)
def _prompt_template() -> str:
    path = resources.files("lelma.resources").joinpath("translation_prompt.txt")
    return path.read_text(encoding="utf-8")


@functools.lru_cache(maxsize=64)
def _system_message(b_move: str, r_move: str) -> ChatMessage:
    # Keyed on the only two values the system prompt depends on.
    forms = "\n\n".join(f"{example}\n  {gloss}" for _, example, gloss in QUERY_FORMS)
    return ChatMessage(
        "system", _prompt_template().format(b_move=b_move, r_move=r_move, query_forms=forms)
    )


def build_translation_prompt(reasoning: str, g: GameSpec) -> "tuple[ChatMessage, ...]":
    """System prompt carrying the catalogue, user prompt carrying the reasoning verbatim."""
    system = _system_message(g.move_labels["B"], g.move_labels["R"])
    return (system, ChatMessage("user", reasoning))


def parse_queries(llm_output: str, g: GameSpec) -> "tuple[list[Query], ParseDiagnostics]":
    """Parse translator output line by line; never raises on bad lines."""
    queries: list[Query] = []
    skipped: list[tuple[str, str]] = []
    for raw in llm_output.splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            queries.append(parse_query_line(line, g))
        except VerificationError as exc:
            skipped.append((line, str(exc)))
    return queries, ParseDiagnostics(len(queries), tuple(skipped))
