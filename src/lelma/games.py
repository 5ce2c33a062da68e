"""Game definitions: parsing, validation, and outcome enumeration.

A game file supplies the game-dependent clauses (initial facts, move
possibility/legality, effects, frame exceptions, terminal test, payoff
facts, outcome/goal views) plus a metadata header naming the game,
mapping the prompt labels R and B onto move atoms, and fixing the role
convention (the reasoner is p1, the row player). The game-independent
successor-state and game-tree rules are shared by every game and are
kept verbatim in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Optional

from .engine import Clause, Literal, ResolutionLimits, RuleBase, pos, solve
from .gdl import parse_program
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

_INDEPENDENT_CACHE: "tuple[Clause, ...] | None" = None


def game_independent_rules() -> "tuple[Clause, ...]":
    global _INDEPENDENT_CACHE
    if _INDEPENDENT_CACHE is None:
        clauses, _ = parse_program(_GAME_INDEPENDENT_SOURCE)
        _INDEPENDENT_CACHE = tuple(clauses)
    return _INDEPENDENT_CACHE


class GameSpecError(Exception):
    """Base class for game validation failures."""


class MissingPredicateError(GameSpecError):
    def __init__(self, functor: str, arity: int):
        super().__init__(f"game does not define required predicate {functor}/{arity}")
        self.functor = functor
        self.arity = arity


class IncompletePayoffsError(GameSpecError):
    def __init__(self, message: str, missing: "tuple[str, str] | None" = None):
        super().__init__(message)
        self.missing = missing


class InvalidLabelMapError(GameSpecError):
    pass


@dataclass(frozen=True)
class PayoffMatrix:
    """Row-player view of the payoff facts.

    `moves` is the move atoms in first-appearance order, which for the
    bundled games reproduces the published tables' row order. `entries`
    maps (row_move, col_move) to (row_payoff, col_payoff).
    """

    moves: "tuple[str, ...]"
    entries: "dict[tuple[str, str], tuple[int, int]]"

    def payoff(self, row_move: str, col_move: str) -> "tuple[int, int]":
        return self.entries[(row_move, col_move)]


@dataclass(frozen=True)
class Outcome:
    p1_move: str
    p2_move: str
    p1_payoff: int
    p2_payoff: int
    situation: Term

    def as_tuple(self) -> "tuple[str, str, int, int]":
        return (self.p1_move, self.p2_move, self.p1_payoff, self.p2_payoff)


@dataclass(frozen=True)
class GameSpec:
    name: str
    clauses: "tuple[Clause, ...]"
    move_labels: "dict[str, str]"  # prompt label -> move atom
    reasoner: str
    opponent: str
    payoffs: PayoffMatrix
    initial_situation: Term

    @cached_property
    def rulebase(self) -> RuleBase:
        return RuleBase(game_independent_rules() + self.clauses)

    def move_for_label(self, label: str) -> str:
        return self.move_labels[label]

    def label_for_move(self, move: str) -> str:
        for label, atom in self.move_labels.items():
            if atom == move:
                return label
        raise KeyError(move)

    @property
    def labels_in_move_order(self) -> "tuple[str, ...]":
        return tuple(self.label_for_move(m) for m in self.payoffs.moves)


def _metadata_dict(lines: "list[tuple[int, str]]") -> "dict[str, str]":
    meta: dict[str, str] = {}
    for _, text in lines:
        if ":" not in text:
            raise GameSpecError(f"malformed metadata line {text!r} (expected 'key: value')")
        key, value = text.split(":", 1)
        meta[key.strip()] = value.strip()
    return meta


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == "'" and value[-1] == "'":
        return value[1:-1]
    return value


def _extract_payoffs(clauses: Iterable[Clause]) -> PayoffMatrix:
    moves: list[str] = []
    entries: dict[tuple[str, str], tuple[int, int]] = {}
    for c in clauses:
        if c.key() != ("payoff", 4):
            continue
        if c.body or not isinstance(c.head, Struct) or not is_ground(c.head):
            raise IncompletePayoffsError(f"payoff clause must be a ground fact: {c}")
        m1, m2, u1, u2 = c.head.args
        if not (isinstance(m1, Atom) and isinstance(m2, Atom)
                and isinstance(u1, Int) and isinstance(u2, Int)):
            raise IncompletePayoffsError(f"payoff fact must be payoff(move, move, int, int): {c}")
        for m in (m1.name, m2.name):
            if m not in moves:
                moves.append(m)
        if (m1.name, m2.name) in entries:
            raise IncompletePayoffsError(f"duplicate payoff fact for ({m1.name}, {m2.name})")
        entries[(m1.name, m2.name)] = (u1.value, u2.value)
    for a in moves:
        for b in moves:
            if (a, b) not in entries:
                raise IncompletePayoffsError(
                    f"no payoff fact for move pair ({a}, {b})", missing=(a, b)
                )
    return PayoffMatrix(tuple(moves), entries)


def _extract_label_map(meta: "dict[str, str]", payoffs: PayoffMatrix) -> "dict[str, str]":
    labels: dict[str, str] = {}
    for label in PROMPT_LABELS:
        key = f"label {label}"
        if key not in meta:
            raise InvalidLabelMapError(f"metadata header is missing '{key}'")
        labels[label] = _unquote(meta[key])
    if len(set(labels.values())) != len(labels):
        raise InvalidLabelMapError(f"labels must map to distinct moves, got {labels}")
    unknown = set(labels.values()) - set(payoffs.moves)
    if unknown:
        raise InvalidLabelMapError(f"labels map to unknown moves {sorted(unknown)}")
    if len(payoffs.moves) != len(labels):
        raise InvalidLabelMapError(
            f"every move needs a label: moves {payoffs.moves}, labels {labels}"
        )
    return labels


def parse_game(text: str) -> GameSpec:
    """Parse and validate a game file into a GameSpec."""
    clauses, meta_lines = parse_program(text)
    meta = _metadata_dict(meta_lines)
    if "name" not in meta:
        raise GameSpecError("metadata header is missing 'name'")

    defined = {c.key() for c in clauses}
    for functor, arity in REQUIRED_PREDICATES:
        if (functor, arity) not in defined:
            raise MissingPredicateError(functor, arity)

    payoffs = _extract_payoffs(clauses)
    labels = _extract_label_map(meta, payoffs)

    initial_fact = next(c for c in clauses if c.key() == ("initial", 1) and not c.body)
    assert isinstance(initial_fact.head, Struct)
    init = initial_fact.head.args[0]
    if not is_ground(init):
        raise GameSpecError(f"initial situation must be ground, got {init}")

    return GameSpec(
        name=meta["name"],
        clauses=tuple(clauses),
        move_labels=labels,
        reasoner=meta.get("reasoner", "p1"),
        opponent=meta.get("opponent", "p2"),
        payoffs=payoffs,
        initial_situation=init,
    )


def load_game(name_or_path: str) -> GameSpec:
    """Load a bundled game by id (pd, sh, hd) or any game file by path."""
    if name_or_path in BUNDLED_GAMES:
        text = (
            files("lelma").joinpath("resources", "games", f"{name_or_path}.gdl").read_text()
        )
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise GameSpecError(
                f"unknown game {name_or_path!r}: not one of {BUNDLED_GAMES} and not a file"
            )
        text = path.read_text()
    return parse_game(text)


def game_to_text(g: GameSpec) -> str:
    """Render a GameSpec back to file syntax (metadata header plus clauses)."""
    lines = [f"%! name: {g.name}"]
    for label in PROMPT_LABELS:
        lines.append(f"%! label {label}: {Atom(g.move_labels[label])}")
    lines.append(f"%! reasoner: {g.reasoner}")
    lines.append(f"%! opponent: {g.opponent}")
    lines.append("")
    for c in g.clauses:
        lines.append(str(c))
    return "\n".join(lines) + "\n"


def _outcome_goal(g: GameSpec) -> "tuple[Literal, ...]":
    situation = Var("S")
    outcome = Struct(
        "outcome",
        (Var("P1"), Var("M1"), Var("U1"), Var("P2"), Var("M2"), Var("U2")),
    )
    return (
        pos(Struct("game", (g.initial_situation, situation))),
        pos(Struct("finally", (outcome, situation))),
    )


def enumerate_outcomes(
    g: GameSpec, limits: Optional[ResolutionLimits] = None
) -> "list[Outcome]":
    """All distinct move-pair outcomes, via the solver, in derivation order.

    Each move pair is reachable through both play orders; the first
    derivation wins and duplicates are dropped.
    """
    outcomes: list[Outcome] = []
    seen: set[tuple[str, str]] = set()
    for answer in solve(g.rulebase, _outcome_goal(g), limits):
        p1_move = answer[Var("M1")]
        p2_move = answer[Var("M2")]
        u1 = answer[Var("U1")]
        u2 = answer[Var("U2")]
        assert isinstance(p1_move, Atom) and isinstance(p2_move, Atom)
        assert isinstance(u1, Int) and isinstance(u2, Int)
        key = (p1_move.name, p2_move.name)
        if key in seen:
            continue
        seen.add(key)
        outcomes.append(
            Outcome(p1_move.name, p2_move.name, u1.value, u2.value, answer[Var("S")])
        )
    return outcomes


def enumerate_outcomes_direct(g: GameSpec) -> "list[Outcome]":
    """Brute-force enumerator over play orders and move pairs.

    Bypasses the solver entirely: builds each two-move situation by hand
    and reads payoffs straight from the matrix. Used as the oracle the
    solver's answers are checked against.
    """
    outcomes: list[Outcome] = []
    players = (g.reasoner, g.opponent)
    for first, second in (players, players[::-1]):
        for m_first in g.payoffs.moves:
            for m_second in g.payoffs.moves:
                situation: Term = g.initial_situation
                for player, move in ((first, m_first), (second, m_second)):
                    situation = Struct(
                        "do", (Struct("choice", (Atom(player), Atom(move))), situation)
                    )
                p1_move = m_first if first == g.reasoner else m_second
                p2_move = m_second if first == g.reasoner else m_first
                u1, u2 = g.payoffs.payoff(p1_move, p2_move)
                outcomes.append(Outcome(p1_move, p2_move, u1, u2, situation))
    return outcomes
