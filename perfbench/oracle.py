"""Engine-independent answers the benchmark checks the program against.

Everything here is computed straight from a game's payoff facts
(`GameSpec.payoffs`) and its label map. Nothing calls the resolution
engine or the verification module, so a wrong verdict from either
shows up as a mismatch instead of being compared with itself.
"""

from __future__ import annotations

import itertools

from lelma.terms import Atom, Struct, Term

LABELS = ("B", "R")

# Argument schema of every query kind the translator can produce.
SCHEMAS = {
    "outcome": ("move", "int", "move"),
    "higher": ("int", "int"),
    "lower": ("int", "int"),
    "highest_possible_individual_payoff": ("int",),
    "lowest_possible_individual_payoff": ("int",),
    "highest_individual_payoff_for_choice": ("int", "move"),
    "lowest_individual_payoff_for_choice": ("int", "move"),
    "highest_guaranteed_payoff_choice": ("move",),
    "higher_guaranteed_payoff": ("move", "move"),
    "lower_guaranteed_payoff": ("move", "move"),
    "highest_mutual_payoff": ("move", "move"),
    "lowest_mutual_payoff": ("move", "move"),
}
PAYOFF_VIEW_KINDS = tuple(k for k in SCHEMAS if k != "outcome")


def payoffs_by_label(g) -> "dict[tuple[str, str], tuple[int, int]]":
    """(own label, other label) -> (reasoner payoff, opponent payoff)."""
    atom = g.move_labels
    return {(a, b): g.payoffs.entries[(atom[a], atom[b])] for a in LABELS for b in LABELS}


def value_grid(g) -> "list[int]":
    """Every payoff value in the game plus one that is out of range."""
    values = sorted({u for pair in g.payoffs.entries.values() for u in pair})
    return values + [values[-1] + 2]


def instances(g, kind: str) -> "list[tuple]":
    """Every argument tuple of `kind` over the game's value grid and labels."""
    pools = [value_grid(g) if slot == "int" else LABELS for slot in SCHEMAS[kind]]
    return list(itertools.product(*pools))


def holds(g, kind: str, args: tuple) -> bool:
    """Truth of one claim, by enumeration over the four payoff cells."""
    cells = payoffs_by_label(g)
    own = {pair: u1 for pair, (u1, _) in cells.items()}

    def guaranteed(move: str) -> int:
        return min(own[(move, other)] for other in LABELS)

    if kind == "outcome":
        mine, n, theirs = args
        return own[(mine, theirs)] == n
    if kind == "higher":
        return args[0] > args[1]
    if kind == "lower":
        return args[0] < args[1]
    if kind == "equal":
        return args[0] == args[1]
    if kind == "highest_possible_individual_payoff":
        return args[0] == max(own.values())
    if kind == "lowest_possible_individual_payoff":
        return args[0] == min(own.values())
    if kind == "highest_individual_payoff_for_choice":
        return args[0] == max(own[(args[1], other)] for other in LABELS)
    if kind == "lowest_individual_payoff_for_choice":
        return args[0] == guaranteed(args[1])
    if kind == "highest_guaranteed_payoff_choice":
        return guaranteed(args[0]) == max(guaranteed(m) for m in LABELS)
    if kind == "higher_guaranteed_payoff":
        return guaranteed(args[0]) > guaranteed(args[1])
    if kind == "lower_guaranteed_payoff":
        return guaranteed(args[0]) < guaranteed(args[1])
    if kind in ("highest_mutual_payoff", "lowest_mutual_payoff"):
        sums = {pair: u1 + u2 for pair, (u1, u2) in cells.items()}
        best = max if kind == "highest_mutual_payoff" else min
        return sums[tuple(args)] == best(sums.values())
    raise ValueError(f"unknown query kind {kind!r}")


def goal_situations(g, player: str, utility: int) -> "list[Term]":
    """Answers to `game(s0,F), finally(goal(player,utility),F)`, built by hand.

    Both play orders of every move pair, as two nested do/2 terms over
    the initial situation; kept when `player`'s payoff in that cell is
    `utility`. The reasoner is the row player.
    """
    found = []
    roles = (g.reasoner, g.opponent)
    for first, second in (roles, roles[::-1]):
        for m_first in g.payoffs.moves:
            for m_second in g.payoffs.moves:
                row_move, col_move = (m_first, m_second) if first == g.reasoner else (m_second, m_first)
                u_row, u_col = g.payoffs.entries[(row_move, col_move)]
                if {g.reasoner: u_row, g.opponent: u_col}.get(player) != utility:
                    continue
                situation: Term = g.initial_situation
                for who, move in ((first, m_first), (second, m_second)):
                    situation = Struct("do", (Struct("choice", (Atom(who), Atom(move))), situation))
                found.append(situation)
    return found
