"""Query catalogue, evaluation, corrections, and feedback rendering.

A Query is one formal claim about a game, in one of the catalogue
kinds. Outcome claims are decided by running the resolution engine
over the full game program, once per verdict, with no memo; every
other kind is decided on the payoff view (the 2x2 matrix the same
rules derive when the game loads, seen from the reasoner's side, in
prompt-label space), as is a failed outcome claim's correction. The
view, and what the judges derive from it (guaranteed and best payoffs
per label, the extremes, the mutual sums and theirs), are built once per
game, on first use, as the cached GameSpec properties label_payoffs and
payoff_summary; the judges below only read them, so no verdict scans
the matrix. Nothing is memoized per line or per query. Failed queries carry corrections:
(role, value) pairs that, substituted back via apply_corrections, always
produce a holding query. The wording of the correction sentences lives
in an editable resource file, resources/feedback_templates.json.

A Query runs check_query when it is built, by hand, by `replace`, by
the parser, the transcript reader or apply_corrections, so one that
exists is well-formed and evaluate_query checks nothing. A translator
line is parsed in one pass: it is stripped once, matched against the
one-level template before the outcome template (they cannot both
match), and its tokens, read by slot, build the Query.

Each kind is described once. A new kind needs a QueryKind member, one
_KINDS row and its templates in feedback_templates.json. The row holds
the kind's argument schema, its judge (which gives the verdict,
corrections and sentence fields) and its form: the example line and
gloss that the translator prompt lists for it. The prompt's catalogue
is rendered from the forms (QUERY_FORMS), and every kind with a form
but outcome is parsed by its predicate name.

Comparisons are strict. A failed comparison between equal values is
corrected to an internal `equal` form that the translator never
produces; it exists only so corrections of ties substitute back into
something true.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import field
from enum import Enum
from importlib.resources import files
from typing import Optional, Sequence

from ._record import record
from .engine import LogicError, solve
from .games import PROMPT_LABELS, GameSpec, outcome_goal
from .terms import Atom, Int, Var


class VerificationError(Exception):
    """A query line or query that is outside the catalogue, or a report
    with no failure to render."""


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


@record
class Query:
    """One formal claim; args are in template argument order. Building one
    runs check_query, which raises on arguments outside the kind's schema."""

    kind: QueryKind
    args: "tuple[object, ...]"
    source_text: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        check_query(self)


@record
class QueryResult:
    query: Query
    holds: bool
    corrections: "tuple[tuple[str, object], ...]" = ()
    explanation: str = ""
    error: Optional[str] = None


@record
class VerificationReport:
    results: "tuple[QueryResult, ...]"

    @property
    def failed(self) -> "tuple[QueryResult, ...]":
        return tuple(r for r in self.results if r.error is None and not r.holds)


# Each kind's name, read once here rather than through `Enum.value` per call.
_NAMES = {k: k.value for k in QueryKind}

_OUTCOME_RE = re.compile(
    r"""finally\s*\(\s*outcome\s*\(\s*you\s*,\s*(?P<m>(?P<mq>['"]?)[A-Za-z][A-Za-z0-9_]*(?P=mq))\s*,
        \s*(?P<n>-?\d+)\s*,\s*them\s*,\s*(?P<o>(?P<oq>['"]?)[A-Za-z][A-Za-z0-9_]*(?P=oq))\s*,\s*_\s*\)
        \s*,\s*S\s*\)\s*""",
    re.IGNORECASE | re.VERBOSE,
)

# Takes no nested parentheses, so it never matches an outcome line.
_SIMPLE_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<args>[^()]*?)\s*\)\s*")


def _read_token(token: str, slot: str) -> object:
    """`token` as an int in an int slot, or as the label it names, bare or
    in one pair of matching quotes, in a move slot; any other token as it
    is, for check_query to reject. An integer too long for `int` raises
    VerificationError."""
    if slot == "int":
        if token.isdecimal() or (token[:1] == "-" and token[1:].isdecimal()):  # -?\d+
            try:
                return int(token)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                digits = len(token.lstrip("-"))
                raise VerificationError(f"integer of {digits} digits is too long") from None
    elif token not in PROMPT_LABELS:  # an exact label is the usual case
        quoted = len(token) > 1 and token[0] == token[-1] and token[0] in "'\""
        label = (token[1:-1] if quoted else token).upper()
        if label in PROMPT_LABELS:
            return label
    return token


def parse_query_line(line: str, g: GameSpec) -> Query:
    """Parse one line of translator output into a Query; `g` is not read,
    as every game's move labels are the prompt labels.

    Predicate names are case-insensitive and whitespace between tokens is
    ignored; a trailing period is allowed. Raises VerificationError on
    anything outside the catalogue.
    """
    source = text = line.strip()
    if text.endswith("."):
        text = text[:-1].rstrip()
    if not text:
        raise VerificationError("empty line")

    m = _SIMPLE_RE.fullmatch(text)
    if m is not None:
        name, raw_args = m.group("name", "args")
        kind = _PARSED_KINDS.get(name.lower())
        if kind is None:
            raise VerificationError(f"unknown query predicate {name!r}")
        tokens = [a.strip() for a in raw_args.split(",")] if raw_args else []
    else:
        m = _OUTCOME_RE.fullmatch(text)
        if m is None:
            raise VerificationError(f"not a recognized query template: {source!r}")
        kind, tokens = QueryKind.OUTCOME, m.group("m", "n", "o")
    # Tokens past the schema are kept as they are, so check_query sees the arity.
    schema = SCHEMAS[kind]
    return Query(kind, (*map(_read_token, tokens, schema), *tokens[len(schema) :]), source)


def check_query(q: Query) -> None:
    """Check q's arguments against its kind's schema: VerificationError
    for a wrong arity, a non-integer payoff, a move that is no string or
    a string that names no prompt label."""
    schema, n = SCHEMAS[q.kind], len(q.args)
    if n != len(schema):
        raise VerificationError(f"{q.kind.value} takes {len(schema)} argument(s), got {n}")
    # The exact types are checked first, as they are the usual case.
    for arg, want in zip(q.args, schema):
        if want == "int":
            if type(arg) is not int and (not isinstance(arg, int) or isinstance(arg, bool)):
                raise VerificationError(f"{q.kind.value}: expected an integer, got {arg!r}")
        elif type(arg) is not str or arg not in PROMPT_LABELS:
            if not isinstance(arg, str):
                raise VerificationError(f"{q.kind.value}: expected move label, got {arg!r}")
            if arg not in PROMPT_LABELS:
                valid = ", ".join(sorted(PROMPT_LABELS))
                raise VerificationError(f"unknown move label {arg!r} (valid: {valid})")


def query_to_text(q: Query) -> str:
    """Canonical template text for a query; parse_query_line inverts it."""
    if q.kind is QueryKind.OUTCOME:
        m, n, o = q.args
        return f"finally(outcome(you,{m},{n},them,{o},_),S)"
    return f"{_NAMES[q.kind]}({', '.join(map(str, q.args))})"


def _relation(a: int, b: int) -> str:
    return "higher" if a > b else ("lower" if a < b else "equal")


# --- the judges -----------------------------------------------------------------
#
# A judge decides one validated query from the game, its kind and its args:
# it returns (corrections, template key, template fields), with corrections
# () when the query holds. On failure the key names the feedback template and
# the fields fill it in. Every kind but outcome reads the game's payoff
# summary, never the matrix.

_HOLDS = ((), "", {})  # a judge's answer for a query that holds


def _judge_outcome(g: GameSpec, kind: QueryKind, args: tuple):
    # Decided by the engine over the full game program, not the payoff
    # view: this is the route the published worked query takes. The view's
    # table comes from the same rules, so its payoff corrects the claim.
    own, n, other = args
    own_move, other_move = Atom(g.move_labels[own]), Atom(g.move_labels[other])
    outcome = (Atom(g.reasoner), own_move, Int(n), Atom(g.opponent), other_move, Var("U2"))
    if next(solve(g.rulebase, outcome_goal(g, outcome)), None) is not None:
        return _HOLDS
    correct = g.label_payoffs[own, other][0]
    fields = {"reasoner_move": own, "opponent_move": other, "claimed": n, "correct": correct}
    return (("payoff", correct),), "outcome", fields


def _judge_comparison(g: GameSpec, kind: QueryKind, args: tuple):
    a, b = args
    claimed, relation = _NAMES[kind], _relation(a, b)
    if relation == claimed:
        return _HOLDS
    return (("relation", relation),), f"{claimed}.{relation}", {"a": a, "b": b}


def _claimed_value(correct_value):
    """The judge of a kind whose number must equal `correct_value(summary,
    move)`, move being the kind's move argument (None for a kind without one)."""
    def judge(g: GameSpec, kind: QueryKind, args: tuple):
        n = args[0]
        move = args[1] if len(args) > 1 else None
        correct = correct_value(g.payoff_summary, move)
        if n == correct:
            return _HOLDS
        fields = {"claimed": n, "correct": correct, "move": move}
        return (("payoff", correct),), _NAMES[kind], fields

    return judge


def _judge_guaranteed_choice(g: GameSpec, kind: QueryKind, args: tuple):
    (move,) = args
    summary = g.payoff_summary
    claimed_value, best = summary.guaranteed[move], summary.best_guaranteed
    if claimed_value == best:
        return _HOLDS
    winners = summary.guaranteed_choices
    fields = {
        "claimed": move,
        "claimed_value": claimed_value,
        "correct": winners[0],
        "correct_value": best,
    }
    return tuple(("choice", w) for w in winners), _NAMES[kind], fields


def _judge_guaranteed_comparison(g: GameSpec, kind: QueryKind, args: tuple):
    m1, m2 = args
    guaranteed = g.payoff_summary.guaranteed
    g1, g2 = guaranteed[m1], guaranteed[m2]
    name, relation = _NAMES[kind], _relation(g1, g2)
    if relation == name.partition("_")[0]:  # the claimed relation leads the name
        return _HOLDS
    corrections = (("relation", relation),)
    if relation == "equal":
        corrections += (("payoff", g1),)
    return corrections, f"{name}.{relation}", {"m1": m1, "m2": m2, "g1": g1, "g2": g2}


def _judge_mutual(g: GameSpec, kind: QueryKind, args: tuple):
    m1, m2 = args
    summary = g.payoff_summary
    if kind is QueryKind.HIGHEST_MUTUAL:
        best, winners = summary.highest_mutual, summary.highest_mutual_pairs
    else:
        best, winners = summary.lowest_mutual, summary.lowest_mutual_pairs
    got = summary.mutual[m1, m2]
    if got == best:
        return _HOLDS
    pairs = ", ".join(f"({a}, {b})" for a, b in winners)
    fields = {"m1": m1, "m2": m2, "got": got, "best": best, "pairs": pairs}
    return tuple(("choices", pair) for pair in winners), _NAMES[kind], fields


# Each kind's argument schema, in template argument order, its judge, and the
# form the translator prompt lists for it: an example line and the claim it
# expresses. EQUAL has no form, as the translator never emits it.
_KINDS = {
    QueryKind.OUTCOME: (("move", "int", "move"), _judge_outcome, (
        "finally(outcome(you,B,1,them,R,_),S)",
        "If you play B and they play R, your payoff is 1.")),
    QueryKind.HIGHER: (("int", "int"), _judge_comparison, (
        "higher(1, 3)",
        "The payoff 1 is higher than the payoff 3.")),
    QueryKind.LOWER: (("int", "int"), _judge_comparison, (
        "lower(1, 3)",
        "The payoff 1 is lower than the payoff 3.")),
    QueryKind.EQUAL: (("int", "int"), _judge_comparison, None),
    QueryKind.HIGHEST_POSSIBLE: (("int",), _claimed_value(lambda s, m: s.highest), (
        "highest_possible_individual_payoff(1)",
        "1 is the largest payoff any one player can receive in this game.")),
    QueryKind.LOWEST_POSSIBLE: (("int",), _claimed_value(lambda s, m: s.lowest), (
        "lowest_possible_individual_payoff(1)",
        "1 is the smallest payoff any one player can receive in this game.")),
    QueryKind.HIGHEST_FOR_CHOICE: (("int", "move"), _claimed_value(lambda s, m: s.best[m]), (
        "highest_individual_payoff_for_choice(1,B)",
        "1 is the best payoff you can end up with after picking B.")),
    QueryKind.LOWEST_FOR_CHOICE: (("int", "move"), _claimed_value(lambda s, m: s.guaranteed[m]), (
        "lowest_individual_payoff_for_choice(1,B)",
        "1 is the worst payoff you can end up with after picking B.")),
    QueryKind.HIGHEST_GUARANTEED_CHOICE: (("move",), _judge_guaranteed_choice, (
        "highest_guaranteed_payoff_choice(B)",
        "Picking B maximizes the payoff you are guaranteed regardless of what they do.")),
    QueryKind.HIGHER_GUARANTEED: (("move", "move"), _judge_guaranteed_comparison, (
        "higher_guaranteed_payoff(B,R)",
        "B guarantees you a higher payoff than R guarantees you.")),
    QueryKind.LOWER_GUARANTEED: (("move", "move"), _judge_guaranteed_comparison, (
        "lower_guaranteed_payoff(B,R)",
        "B guarantees you a lower payoff than R guarantees you.")),
    QueryKind.HIGHEST_MUTUAL: (("move", "move"), _judge_mutual, (
        "highest_mutual_payoff(R,R)",
        "You picking R and them picking R maximizes the sum of both payoffs.")),
    QueryKind.LOWEST_MUTUAL: (("move", "move"), _judge_mutual, (
        "lowest_mutual_payoff(R,R)",
        "You picking R and them picking R minimizes the sum of both payoffs.")),
}

SCHEMAS: "dict[QueryKind, tuple[str, ...]]" = {k: row[0] for k, row in _KINDS.items()}

# The (kind, example, gloss) of each kind the translator may emit, in row order.
QUERY_FORMS: "tuple[tuple[QueryKind, str, str], ...]" = tuple(
    (k, *form) for k, (_, _, form) in _KINDS.items() if form is not None
)

# Kinds parsed by predicate name; outcome claims have their own regex.
_PARSED_KINDS = {k.value: k for k, _, _ in QUERY_FORMS if k is not QueryKind.OUTCOME}


def evaluate_query(q: Query, g: GameSpec) -> QueryResult:
    """Decide one query against the game and build corrections on failure.
    The query checked itself when it was built, so it is not checked again."""
    corrections, key, fields = _KINDS[q.kind][1](g, q.kind, q.args)
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
        return Query(q.kind, tuple(value))
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
    path = files("lelma").joinpath("resources", "feedback_templates.json")
    return json.loads(path.read_text(encoding="utf-8"))


def evaluate_all(queries: Sequence[Query], g: GameSpec) -> VerificationReport:
    """Evaluate a batch; per-query errors are captured, never raised.

    A query whose verdict raises a LogicError (a resolution limit, say)
    is recorded as an errored result. A malformed query never gets here:
    building it raised.
    """
    results = []
    for q in queries:
        try:
            results.append(evaluate_query(q, g))
        except LogicError as exc:
            results.append(
                QueryResult(q, False, (), f"Could not verify: {exc}", error=str(exc))
            )
    return VerificationReport(tuple(results))


def render_feedback(report: VerificationReport) -> str:
    """The correction sentences for a report's failed queries, one per line."""
    failed = report.failed
    if not failed:
        raise VerificationError("no failed queries to render feedback for")
    return "\n".join(r.explanation for r in failed)
