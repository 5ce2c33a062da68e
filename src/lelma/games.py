"""Game definitions: parsing, validation, and outcome enumeration.

A game file supplies the game-dependent clauses (initial facts, move
possibility/legality, effects, frame exceptions, terminal test, payoff
facts, outcome/goal views) plus a metadata header naming the game and
mapping the prompt labels R and B onto move atoms. The reasoner is the
row player the initial facts name. The game-independent successor-state
and game-tree rules are shared by every game and are kept verbatim in
this module. A game loads only if its rules derive a whole payoff table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from importlib.resources import files
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .engine import Clause, Literal, LogicError, RuleBase, solve
from .gdl import parse_program, read_name
from .terms import Atom, Int, Struct, Term, Var, is_ground

PROMPT_LABELS = ("R", "B")  # R = first table row's move, B = second row's
BUNDLED_GAMES = ("pd", "sh", "hd")

REQUIRED_PREDICATES = (
    ("initial", 1),
    ("initially", 2),
    ("possible", 2),
    ("legal", 2),
    ("effect", 3),
    ("abnormal", 3),
    ("final", 1),
    ("payoff", 4),
    ("finally", 2),
)

# Shared by every game: two clauses defining the game tree over legal
# moves, three defining fluent truth via initial facts, effects, and
# frame persistence with abnormality exceptions.
_GAME_INDEPENDENT_SOURCE = """
game(F,F):- final(F).
game(S,F):- \\+ final(S), legal(M,S), game(do(M,S),F).

holds(F, S):- initially(F, S).
holds(F, do(M, S)):- effect(F, M, S).
holds(F, do(M, S)):- holds(F, S), \\+ abnormal(F, M, S).
"""


@cache
def game_independent_rules() -> "tuple[Clause, ...]":
    clauses, _ = parse_program(_GAME_INDEPENDENT_SOURCE)
    return tuple(clauses)


class GameSpecError(Exception):
    """A game file that does not define a valid game."""


@dataclass(frozen=True)
class PayoffMatrix:
    """Row-player view of the payoff table the game's rules derive.

    `moves` is (label R's move, label B's move), the published tables'
    row order for the bundled games. `entries` maps (row_move, col_move)
    to (row_payoff, col_payoff).
    """

    moves: "tuple[str, ...]"
    entries: "dict[tuple[str, str], tuple[int, int]]"


@dataclass(frozen=True)
class Outcome:
    p1_move: str
    p2_move: str
    p1_payoff: int
    p2_payoff: int
    situation: Term


@dataclass(frozen=True)
class PayoffSummary:
    """What verification derives from a game's payoff view, once per game.

    Labels are prompt labels and payoffs are the reasoner's (the row
    player's) unless the field says otherwise; every tuple and mapping
    is in the order of GameSpec.label_payoffs.
    """

    guaranteed: "Mapping[str, int]"  # label -> worst payoff for committing to it
    best: "Mapping[str, int]"  # label -> best payoff for committing to it
    highest: int  # over every cell
    lowest: int
    best_guaranteed: int  # max of `guaranteed`
    guaranteed_choices: "tuple[str, ...]"  # the labels that guarantee it
    mutual: "Mapping[tuple[str, str], int]"  # label pair -> both players' payoffs summed
    highest_mutual: int
    highest_mutual_pairs: "tuple[tuple[str, str], ...]"
    lowest_mutual: int
    lowest_mutual_pairs: "tuple[tuple[str, str], ...]"


@dataclass(frozen=True)
class GameSpec:
    """One validated game, read-only once built. The reasoner is the
    row player its program names, and the opponent the col player.

    Everything derived from the game alone is built once and cached on
    the instance: the rule base, the payoff table its rules derive
    (built by parse_game), the payoff view (that table in prompt-label
    space) that verification and the prompts read, and the payoff
    summary that verification derives from that view. Mutating
    `move_labels` or `payoffs.entries` would leave those caches stale.
    """

    name: str
    clauses: "tuple[Clause, ...]"
    move_labels: "dict[str, str]"  # prompt label -> move atom
    reasoner: str
    opponent: str
    initial_situation: Term

    @cached_property
    def rulebase(self) -> RuleBase:
        return RuleBase(game_independent_rules() + self.clauses)

    @cached_property
    def payoffs(self) -> PayoffMatrix:
        """The payoff table the rules derive, from enumerate_outcomes.
        GameSpecError if a labelled move pair ends no play, a play ends in
        a move no label names, or the search stops at an engine limit."""
        moves = tuple(self.move_labels[label] for label in PROMPT_LABELS)
        try:
            outcomes = enumerate_outcomes(self)
        except LogicError as exc:
            raise GameSpecError(f"cannot derive the payoff table: {exc}") from None
        entries = {(o.p1_move, o.p2_move): (o.p1_payoff, o.p2_payoff) for o in outcomes}
        table = {}
        for own in moves:
            for other in moves:
                if (own, other) not in entries:
                    raise GameSpecError(f"no play ends in the labelled move pair ({own}, {other})")
                table[own, other] = entries[own, other]
        unlabelled = {m for pair in entries for m in pair} - set(moves)
        if unlabelled:
            raise GameSpecError(f"plays end in moves no label names: {sorted(unlabelled)}")
        return PayoffMatrix(moves, table)

    @cached_property
    def label_payoffs(self) -> "Mapping[tuple[str, str], tuple[int, int]]":
        """(reasoner label, opponent label) -> (reasoner payoff, opponent payoff),
        R before B; read-only, as every caller shares it."""
        entries, move = self.payoffs.entries, self.move_labels
        return MappingProxyType({
            (own, other): entries[move[own], move[other]]
            for own in PROMPT_LABELS for other in PROMPT_LABELS
        })

    @cached_property
    def payoff_summary(self) -> PayoffSummary:
        """The guaranteed, best, extreme and mutual payoffs of the payoff
        view, so no verdict scans the matrix."""
        cells = self.label_payoffs
        labels = PROMPT_LABELS
        guaranteed = {own: min(cells[own, other][0] for other in labels) for own in labels}
        best = {own: max(cells[own, other][0] for other in labels) for own in labels}
        own_payoffs = [u1 for u1, _ in cells.values()]
        mutual = {pair: u1 + u2 for pair, (u1, u2) in cells.items()}
        best_guaranteed = max(guaranteed.values())
        highest_mutual, lowest_mutual = max(mutual.values()), min(mutual.values())
        return PayoffSummary(
            guaranteed=MappingProxyType(guaranteed),
            best=MappingProxyType(best),
            highest=max(own_payoffs),
            lowest=min(own_payoffs),
            best_guaranteed=best_guaranteed,
            guaranteed_choices=tuple(l for l, v in guaranteed.items() if v == best_guaranteed),
            mutual=MappingProxyType(mutual),
            highest_mutual=highest_mutual,
            highest_mutual_pairs=tuple(p for p, v in mutual.items() if v == highest_mutual),
            lowest_mutual=lowest_mutual,
            lowest_mutual_pairs=tuple(p for p, v in mutual.items() if v == lowest_mutual),
        )


def _metadata_dict(lines: "list[tuple[int, str]]") -> "dict[str, str]":
    meta: dict[str, str] = {}
    for line, text in lines:
        key, colon, value = (part.strip() for part in text.partition(":"))
        if not colon or key not in ("name", "label R", "label B"):
            raise GameSpecError(
                f"metadata line {text!r} is not 'key: value' with key name, label R or label B")
        if key in meta:
            raise GameSpecError(f"metadata key {key!r} given again on line {line}")
        meta[key] = value
    return meta


def _extract_label_map(meta: "dict[str, str]") -> "dict[str, str]":
    labels: dict[str, str] = {}
    for label in PROMPT_LABELS:
        key = f"label {label}"
        if key not in meta:
            raise GameSpecError(f"metadata header is missing '{key}'")
        labels[label] = read_name(meta[key])
    if len(set(labels.values())) != len(labels):
        raise GameSpecError(f"labels must map to distinct moves, got {labels}")
    return labels


def parse_game(text: str) -> GameSpec:
    """Parse and validate a game file into a GameSpec."""
    clauses, meta_lines = parse_program(text)
    meta = _metadata_dict(meta_lines)
    if "name" not in meta:
        raise GameSpecError("metadata header is missing 'name'")
    name = meta["name"]  # the stem of the transcript and cassette files a run writes
    if name[:1] in ("", ".", "-") or not all(c.isascii() and (c.isalnum() or c in "_.-") for c in name):
        raise GameSpecError(f"game name {name!r} is not a file-name stem: [A-Za-z0-9_][A-Za-z0-9_.-]*")

    defined = {c.key() for c in clauses}
    for functor, arity in REQUIRED_PREDICATES:
        if (functor, arity) not in defined:
            raise GameSpecError(f"game does not define required predicate {functor}/{arity}")

    labels = _extract_label_map(meta)

    found = [c for c in clauses if c.key() == ("initial", 1)]  # one at least, as required
    if len(found) != 1 or found[0].body:
        raise GameSpecError(f"need one fact initial(S0), found {' '.join(map(str, found))}")
    init = found[0].head.args[0]
    if not is_ground(init):
        raise GameSpecError(f"initial situation must be ground, got {init}")
    players = []  # P of the program's one fact initially(role(P, row), S0), then col's
    for role in ("row", "col"):
        found = [c for c in clauses if c.key() == ("initially", 2) and c.head.args[1] == init
                 and isinstance(c.head.args[0], Struct) and c.head.args[0].functor == "role"
                 and c.head.args[0].args[1:] == (Atom(role),)]
        player = found[0].head.args[0].args[0] if len(found) == 1 and not found[0].body else None
        if not isinstance(player, Atom):
            facts = " ".join(map(str, found)) or "none"
            raise GameSpecError(f"need one fact initially(role(P, {role}), {init}), found {facts}")
        players.append(player.name)
    reasoner, opponent = players
    if reasoner == opponent:
        raise GameSpecError(f"{reasoner} cannot be both the row and the col player")

    game = GameSpec(
        name=name,
        clauses=tuple(clauses),
        move_labels=labels,
        reasoner=reasoner,
        opponent=opponent,
        initial_situation=init,
    )
    game.payoffs  # a game loads only if its rules derive a whole table
    return game


def load_game(name_or_path: str) -> GameSpec:
    """Load a bundled game by id (pd, sh, hd) or any game file by path.
    A file that is not UTF-8 raises GameSpecError naming it."""
    if name_or_path in BUNDLED_GAMES:
        resource = files("lelma").joinpath("resources", "games", f"{name_or_path}.gdl")
        text = resource.read_text(encoding="utf-8")
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise GameSpecError(
                f"unknown game {name_or_path!r}: not one of {BUNDLED_GAMES} and not a file"
            )
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise GameSpecError(f"{name_or_path}: not UTF-8 text ({exc})") from None
    return parse_game(text)


def outcome_goal(g: GameSpec, outcome: "tuple[Term, ...]") -> "tuple[Literal, ...]":
    """The goal `game(S0, S), finally(outcome(...), S)`: some play from
    g's initial situation S0 ends in a situation S with the outcome whose
    six arguments (p1, p1's move, p1's payoff, p2, p2's move, p2's payoff)
    are given."""
    situation = Var("S")
    return (
        Literal(Struct("game", (g.initial_situation, situation))),
        Literal(Struct("finally", (Struct("outcome", outcome), situation))),
    )


def enumerate_outcomes(g: GameSpec) -> "list[Outcome]":
    """All distinct move-pair outcomes of the goal an outcome verdict runs,
    with the moves and payoffs left open, via the solver, in derivation order.

    Each move pair is reachable through both play orders; the first
    derivation is kept, and a later one with other payoffs raises
    GameSpecError.
    """
    seen: dict[tuple[str, str], Outcome] = {}
    outcome = (Atom(g.reasoner), Var("M1"), Var("U1"), Atom(g.opponent), Var("M2"), Var("U2"))
    for answer in solve(g.rulebase, outcome_goal(g, outcome)):
        # An answer leaves an unbound variable out; it is read as itself.
        values = {v: answer.get(v, v) for v in (Var("S"), *outcome) if isinstance(v, Var)}
        p1_move, p2_move, u1, u2 = (values[Var(n)] for n in ("M1", "M2", "U1", "U2"))
        if not (isinstance(p1_move, Atom) and isinstance(p2_move, Atom)
                and isinstance(u1, Int) and isinstance(u2, Int)):
            shown = ", ".join(f"{v} = {t}" for v, t in values.items())
            raise GameSpecError(f"outcome moves must be atoms and payoffs integers: {shown}")
        key, payoffs = (p1_move.name, p2_move.name), (u1.value, u2.value)
        first = seen.setdefault(key, Outcome(*key, *payoffs, values[Var("S")]))
        if (first.p1_payoff, first.p2_payoff) != payoffs:
            raise GameSpecError(f"the rules give the move pair ({', '.join(key)}) two payoffs:"
                                f" {first.p1_payoff, first.p2_payoff} and {payoffs}")
    return list(seen.values())
