"""Query catalogue, evaluation, corrections, and feedback rendering.

A Query is one formal claim about a game, in one of the catalogue
kinds. Outcome claims are decided by running the resolution engine
over the full game program, once per verdict, with no memo; every
other kind is decided on the payoff view (the 2x2 matrix seen from the
reasoner's side, in prompt-label space). The view is built once per
game, on first use, as the cached GameSpec properties label_payoffs and
labels_in_move_order; the helpers below only read it. Failed queries
carry corrections: (role, value) pairs that, substituted back via
apply_corrections, always produce a holding query. The wording of the
correction sentences lives in an editable resource file,
resources/feedback_templates.json.

Each kind is described once. A new kind needs a QueryKind member, its
argument schema in SCHEMAS, a branch in _judge (verdict, corrections
and sentence fields), a template in feedback_templates.json and its
form in the translator prompt, resources/translation_prompt.txt.

Comparisons are strict. A failed comparison between equal values is
corrected to an internal `equal` form that the translator never
produces; it exists only so corrections of ties substitute back into
something true.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib.resources import files
from typing import Optional, Sequence

from .engine import pos, solve
from .games import GameSpec
from .terms import Atom, Int, Struct, Var


class VerificationError(Exception):
    """Base class for query validation/parsing failures."""


class MalformedQueryError(VerificationError):
    pass


class UnknownMoveError(VerificationError):
    def __init__(self, move: str, valid: Sequence[str]):
        super().__init__(f"unknown move label {move!r} (valid: {', '.join(valid)})")
        self.move = move


class EmptyFailureSetError(VerificationError):
    pass


class QueryKind(str, Enum):
    OUTCOME = "outcome"
    HIGHER = "higher"
    LOWER = "lower"
    EQUAL = "equal"  # internal correction target, never parsed from LLM output
    HIGHEST_POSSIBLE = "highest_possible_individual_payoff"
    LOWEST_POSSIBLE = "lowest_possible_individual_payoff"
    HIGHEST_FOR_CHOICE = "highest_individual_payoff_for_choice"
    LOWEST_FOR_CHOICE = "lowest_individual_payoff_for_choice"
    HIGHEST_GUARANTEED_CHOICE = "highest_guaranteed_payoff_choice"
    HIGHER_GUARANTEED = "higher_guaranteed_payoff"
    LOWER_GUARANTEED = "lower_guaranteed_payoff"
    HIGHEST_MUTUAL = "highest_mutual_payoff"
    LOWEST_MUTUAL = "lowest_mutual_payoff"


@dataclass(frozen=True)
class Query:
    """One formal claim; args are in template argument order."""

    kind: QueryKind
    args: "tuple[object, ...]"
    source_text: str = field(default="", compare=False)


@dataclass(frozen=True)
class QueryResult:
    query: Query
    holds: bool
    corrections: "tuple[tuple[str, object], ...]" = ()
    explanation: str = ""
    error: Optional[str] = None


@dataclass(frozen=True)
class VerificationReport:
    results: "tuple[QueryResult, ...]"

    @property
    def queries(self) -> "tuple[Query, ...]":
        return tuple(r.query for r in self.results)

    @property
    def failed(self) -> "tuple[QueryResult, ...]":
        return tuple(r for r in self.results if r.error is None and not r.holds)

    @property
    def errors(self) -> "tuple[QueryResult, ...]":
        return tuple(r for r in self.results if r.error is not None)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results if r.error is None)


# Argument schema of every kind, in template argument order.
SCHEMAS: "dict[QueryKind, tuple[str, ...]]" = {
    QueryKind.OUTCOME: ("move", "int", "move"),
    QueryKind.HIGHER: ("int", "int"),
    QueryKind.LOWER: ("int", "int"),
    QueryKind.EQUAL: ("int", "int"),
    QueryKind.HIGHEST_POSSIBLE: ("int",),
    QueryKind.LOWEST_POSSIBLE: ("int",),
    QueryKind.HIGHEST_FOR_CHOICE: ("int", "move"),
    QueryKind.LOWEST_FOR_CHOICE: ("int", "move"),
    QueryKind.HIGHEST_GUARANTEED_CHOICE: ("move",),
    QueryKind.HIGHER_GUARANTEED: ("move", "move"),
    QueryKind.LOWER_GUARANTEED: ("move", "move"),
    QueryKind.HIGHEST_MUTUAL: ("move", "move"),
    QueryKind.LOWEST_MUTUAL: ("move", "move"),
}

# Kinds parsed by predicate name; outcome claims have their own regex.
_PARSED_KINDS = {k.value: k for k in SCHEMAS if k not in (QueryKind.OUTCOME, QueryKind.EQUAL)}

_OUTCOME_RE = re.compile(
    r"""finally\s*\(\s*outcome\s*\(\s*you\s*,\s*(?P<m>'?[A-Za-z][A-Za-z0-9_]*'?)\s*,
        \s*(?P<n>-?\d+)\s*,\s*them\s*,\s*(?P<o>'?[A-Za-z][A-Za-z0-9_]*'?)\s*,\s*_\s*\)
        \s*,\s*S\s*\)\s*""",
    re.IGNORECASE | re.VERBOSE,
)

_SIMPLE_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<args>[^()]*?)\s*\)\s*")

_INT_RE = re.compile(r"-?\d+")


def _parse_move_label(token: str, g: GameSpec) -> str:
    label = token.strip().strip("'\"").upper()
    if label not in g.move_labels:
        raise UnknownMoveError(token.strip(), sorted(g.move_labels))
    return label


def parse_query_line(line: str, g: GameSpec) -> Query:
    """Parse one line of translator output into a Query.

    Predicate names are case-insensitive and whitespace between tokens is
    ignored; a trailing period is allowed. Raises MalformedQueryError or
    UnknownMoveError on anything outside the catalogue.
    """
    text = line.strip()
    if text.endswith("."):
        text = text[:-1].rstrip()
    if not text:
        raise MalformedQueryError("empty line")

    m = _OUTCOME_RE.fullmatch(text)
    if m:
        return Query(
            QueryKind.OUTCOME,
            (_parse_move_label(m["m"], g), int(m["n"]), _parse_move_label(m["o"], g)),
            source_text=line.strip(),
        )

    m = _SIMPLE_RE.fullmatch(text)
    if not m:
        raise MalformedQueryError(f"not a recognized query template: {line.strip()!r}")
    name = m["name"].lower()
    if name not in _PARSED_KINDS:
        raise MalformedQueryError(f"unknown query predicate {m['name']!r}")
    kind = _PARSED_KINDS[name]
    schema = SCHEMAS[kind]
    raw_args = [a.strip() for a in m["args"].split(",")] if m["args"].strip() else []
    if len(raw_args) != len(schema):
        raise MalformedQueryError(
            f"{name} takes {len(schema)} argument(s), got {len(raw_args)}"
        )
    args: list[object] = []
    for raw, want in zip(raw_args, schema):
        if want == "int":
            if not _INT_RE.fullmatch(raw):
                raise MalformedQueryError(f"{name}: expected an integer, got {raw!r}")
            args.append(int(raw))
        else:
            args.append(_parse_move_label(raw, g))
    return Query(kind, tuple(args), source_text=line.strip())


def query_to_text(q: Query) -> str:
    """Canonical template text for a query; parse_query_line inverts it."""
    if q.kind is QueryKind.OUTCOME:
        m, n, o = q.args
        return f"finally(outcome(you,{m},{n},them,{o},_),S)"
    return f"{q.kind.value}({', '.join(str(a) for a in q.args)})"


# Payoff view helpers. All take and return prompt labels, reasoner = row.
# They read the view GameSpec caches (label_payoffs, labels_in_move_order).


def reasoner_payoff(g: GameSpec, own: str, other: str) -> int:
    return g.label_payoffs[own, other][0]


def guaranteed_payoff(g: GameSpec, own: str) -> int:
    """Worst-case (maximin component) payoff for committing to `own`."""
    cells = g.label_payoffs
    return min(cells[own, other][0] for other in g.labels_in_move_order)


def best_payoff_for_choice(g: GameSpec, own: str) -> int:
    cells = g.label_payoffs
    return max(cells[own, other][0] for other in g.labels_in_move_order)


def mutual_payoff(g: GameSpec, own: str, other: str) -> int:
    u1, u2 = g.label_payoffs[own, other]
    return u1 + u2


def all_reasoner_payoffs(g: GameSpec) -> "list[int]":
    return [u1 for u1, _ in g.label_payoffs.values()]


# What a claimed-value kind's number must equal, given the game and the other args.
_CORRECT_VALUE = {
    QueryKind.HIGHEST_POSSIBLE: lambda g: max(all_reasoner_payoffs(g)),
    QueryKind.LOWEST_POSSIBLE: lambda g: min(all_reasoner_payoffs(g)),
    QueryKind.HIGHEST_FOR_CHOICE: best_payoff_for_choice,
    QueryKind.LOWEST_FOR_CHOICE: guaranteed_payoff,
}


def _validate(q: Query, g: GameSpec) -> None:
    schema = SCHEMAS.get(q.kind)
    if schema is None or len(q.args) != len(schema):
        raise MalformedQueryError(f"bad arity for {q.kind.value}: {q.args}")
    for arg, want in zip(q.args, schema):
        if want == "int" and (not isinstance(arg, int) or isinstance(arg, bool)):
            raise MalformedQueryError(f"{q.kind.value}: expected int, got {arg!r}")
        if want == "move":
            if not isinstance(arg, str):
                raise MalformedQueryError(f"{q.kind.value}: expected move label, got {arg!r}")
            if arg not in g.move_labels:
                raise UnknownMoveError(arg, sorted(g.move_labels))


def _outcome_holds(g: GameSpec, own: str, n: int, other: str) -> bool:
    # Dispatched through the engine over the full game program, not the
    # payoff view: this is the route the published worked query takes.
    situation = Var("S")
    outcome = Struct(
        "outcome",
        (
            Atom(g.reasoner),
            Atom(g.move_for_label(own)),
            Int(n),
            Atom(g.opponent),
            Atom(g.move_for_label(other)),
            Var("U2"),
        ),
    )
    goal = (
        pos(Struct("game", (g.initial_situation, situation))),
        pos(Struct("finally", (outcome, situation))),
    )
    return next(solve(g.rulebase, goal), None) is not None


def _relation(a: int, b: int) -> str:
    return "higher" if a > b else ("lower" if a < b else "equal")


_HOLDS = ((), "", {})  # _judge's answer for a query that holds


def _judge(q: Query, g: GameSpec) -> "tuple[tuple[tuple[str, object], ...], str, dict]":
    """Decide a validated query: (corrections, template key, template fields).

    Corrections are () when the query holds. On failure the key names
    the feedback template and the fields fill it in.
    """
    kind, args = q.kind, q.args

    if kind is QueryKind.OUTCOME:
        own, n, other = args
        if _outcome_holds(g, own, n, other):
            return _HOLDS
        correct = reasoner_payoff(g, own, other)
        fields = {"reasoner_move": own, "opponent_move": other, "claimed": n, "correct": correct}
        return (("payoff", correct),), "outcome", fields

    if kind in (QueryKind.HIGHER, QueryKind.LOWER, QueryKind.EQUAL):
        a, b = args
        relation = _relation(a, b)
        if relation == kind.value:
            return _HOLDS
        return (("relation", relation),), f"{kind.value}.{relation}", {"a": a, "b": b}

    if kind in _CORRECT_VALUE:
        n, *rest = args
        correct = _CORRECT_VALUE[kind](g, *rest)
        if n == correct:
            return _HOLDS
        fields = {"claimed": n, "correct": correct, "move": rest[0] if rest else None}
        return (("payoff", correct),), kind.value, fields

    if kind is QueryKind.HIGHEST_GUARANTEED_CHOICE:
        (move,) = args
        guaranteed = {label: guaranteed_payoff(g, label) for label in g.labels_in_move_order}
        best = max(guaranteed.values())
        if guaranteed[move] == best:
            return _HOLDS
        winners = [label for label, value in guaranteed.items() if value == best]
        fields = {
            "claimed": move,
            "claimed_value": guaranteed[move],
            "correct": winners[0],
            "correct_value": best,
        }
        return tuple(("choice", w) for w in winners), kind.value, fields

    if kind in (QueryKind.HIGHER_GUARANTEED, QueryKind.LOWER_GUARANTEED):
        m1, m2 = args
        g1, g2 = guaranteed_payoff(g, m1), guaranteed_payoff(g, m2)
        relation = _relation(g1, g2)
        if relation == kind.value.partition("_")[0]:  # the claimed relation leads the name
            return _HOLDS
        corrections = (("relation", relation),)
        if relation == "equal":
            corrections += (("payoff", g1),)
        return corrections, f"{kind.value}.{relation}", {"m1": m1, "m2": m2, "g1": g1, "g2": g2}

    if kind in (QueryKind.HIGHEST_MUTUAL, QueryKind.LOWEST_MUTUAL):
        m1, m2 = args
        sums = {pair: u1 + u2 for pair, (u1, u2) in g.label_payoffs.items()}
        best = (max if kind is QueryKind.HIGHEST_MUTUAL else min)(sums.values())
        if sums[(m1, m2)] == best:
            return _HOLDS
        winners = [pair for pair, total in sums.items() if total == best]
        pairs = ", ".join(f"({a}, {b})" for a, b in winners)
        fields = {"m1": m1, "m2": m2, "got": sums[(m1, m2)], "best": best, "pairs": pairs}
        return tuple(("choices", pair) for pair in winners), kind.value, fields

    raise MalformedQueryError(f"unhandled query kind {kind!r}")


def evaluate_query(q: Query, g: GameSpec) -> QueryResult:
    """Decide one query against the game and build corrections on failure."""
    _validate(q, g)
    corrections, key, fields = _judge(q, g)
    if not corrections:
        return QueryResult(q, True, (), f"Confirmed: {query_to_text(q)}")
    return QueryResult(q, False, corrections, feedback_templates()[key].format(**fields))


def apply_corrections(q: Query, corrections: "tuple[tuple[str, object], ...]") -> Query:
    """Substitute a failed query's corrections back in, yielding a true claim."""
    role, value = corrections[0]
    if role == "payoff":  # replaces the claim's one integer argument
        i = SCHEMAS[q.kind].index("int")
        return Query(q.kind, (*q.args[:i], value, *q.args[i + 1 :]))
    if role == "choice":  # the first of the best moves
        return Query(q.kind, (value,))
    if role == "choices":  # the first of the best move pairs
        assert isinstance(value, tuple)
        return Query(q.kind, value)
    if role == "relation":
        roles = dict(corrections)
        if "payoff" in roles:  # both moves guarantee the same payoff
            return Query(QueryKind.EQUAL, (roles["payoff"], roles["payoff"]))
        # The claimed relation leads the kind's name; put the true one there.
        _, sep, rest = q.kind.value.partition("_")
        return Query(QueryKind(f"{value}{sep}{rest}"), q.args)
    raise ValueError(f"cannot apply a {role!r} correction")


@functools.cache
def feedback_templates() -> "dict[str, str]":
    raw = files("lelma").joinpath("resources", "feedback_templates.json").read_text()
    return json.loads(raw)


def evaluate_all(queries: Sequence[Query], g: GameSpec) -> VerificationReport:
    """Evaluate a batch; per-query errors are captured, never raised."""
    results = []
    for q in queries:
        try:
            results.append(evaluate_query(q, g))
        except VerificationError as exc:
            results.append(
                QueryResult(q, False, (), f"Could not verify: {exc}", error=str(exc))
            )
    return VerificationReport(tuple(results))


def render_feedback(report: VerificationReport, g: GameSpec) -> str:
    """The correction sentences for a report's failed queries, one per line."""
    if not report.failed:
        raise EmptyFailureSetError("no failed queries to render feedback for")
    return "\n".join(r.explanation for r in report.failed)
