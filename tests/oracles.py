"""Independent brute-force oracles the implementation is checked against,
and the renamer, substitution, printer and compound builder the tests need.

Everything here is written directly from first principles over the raw
payoff entries, terms and clauses (or the bare agreement-statistic
formula) and must not import the modules under test beyond plain data
types. Kept deliberately naive: correctness over elegance.
"""

from __future__ import annotations

from fractions import Fraction

from lelma.engine import Clause, Literal
from lelma.games import Outcome
from lelma.terms import Atom, Struct, Term, Var


def struct(functor: str, *args: Term) -> Struct:
    """The compound `functor(args...)`: the tests' shorthand for building one."""
    return Struct(functor, tuple(args))


def rename_apart(clause: Clause, ordinal: int) -> Clause:
    """Standardize a clause apart by stamping `ordinal` on every variable.

    Distinct variables in a parsed clause always have distinct names, so a
    shared ordinal keeps them distinct while guaranteeing freshness against
    every other renaming step. The engine renames clauses while unifying
    their heads, into the same names and ordinals as this function; since
    it binds a clause's variable to the goal's, a variable whose first
    head occurrence meets a goal term just takes that term and is never
    printed under its renamed name.
    """

    def rename(term: Term) -> Term:
        if isinstance(term, Var):
            return Var(term.name, ordinal)
        if isinstance(term, Struct):
            return Struct(term.functor, tuple(rename(a) for a in term.args))
        return term

    body = tuple(Literal(rename(l.term), l.negated) for l in clause.body)
    return Clause(rename(clause.head), body)


def resolve(term: Term, subst: "dict[Var, Term]") -> Term:
    """Apply a substitution all the way down."""
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(resolve(a, subst) for a in term.args))
    return term


def game_to_text(g) -> str:
    """A game in file syntax (metadata header plus clauses)."""
    lines = [f"%! name: {g.name}"]
    for label in ("R", "B"):
        lines.append(f"%! label {label}: {Atom(g.move_labels[label])}")
    lines.append("")
    for c in g.clauses:
        lines.append(str(c))
    return "\n".join(lines) + "\n"


def enumerate_outcomes_direct(g) -> "list[Outcome]":
    """Brute-force enumerator over play orders and move pairs.

    Bypasses the solver entirely: builds each two-move situation by hand
    and reads payoffs straight from the matrix.
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
                u1, u2 = g.payoffs.entries[(p1_move, p2_move)]
                outcomes.append(Outcome(p1_move, p2_move, u1, u2, situation))
    return outcomes


def outcome_rows(g) -> "list[tuple[str, str, int, int]]":
    """The four (p1_move, p2_move, u1, u2) rows straight from the matrix."""
    rows = []
    for a in g.payoffs.moves:
        for b in g.payoffs.moves:
            u1, u2 = g.payoffs.entries[(a, b)]
            rows.append((a, b, u1, u2))
    return rows


def label_rows(g) -> "list[tuple[str, str, int, int]]":
    """Same rows, with moves replaced by their prompt labels."""
    atom_to_label = {atom: label for label, atom in g.move_labels.items()}
    return [(atom_to_label[a], atom_to_label[b], u1, u2) for a, b, u1, u2 in outcome_rows(g)]


def oracle_holds(kind: str, args: tuple, g) -> bool:
    """Truth of one query, by explicit enumeration over the four rows."""
    rows = label_rows(g)
    own_payoff = {(a, b): u1 for a, b, u1, _ in rows}
    labels = sorted({a for a, _, _, _ in rows})

    def guaranteed(move: str) -> int:
        return min(own_payoff[(move, b)] for b in labels)

    if kind == "outcome":
        own, n, other = args
        return any(a == own and b == other and u1 == n for a, b, u1, _ in rows)
    if kind == "higher":
        return args[0] > args[1]
    if kind == "lower":
        return args[0] < args[1]
    if kind == "equal":
        return args[0] == args[1]
    if kind == "highest_possible_individual_payoff":
        return args[0] == max(u1 for _, _, u1, _ in rows)
    if kind == "lowest_possible_individual_payoff":
        return args[0] == min(u1 for _, _, u1, _ in rows)
    if kind == "highest_individual_payoff_for_choice":
        n, move = args
        return n == max(own_payoff[(move, b)] for b in labels)
    if kind == "lowest_individual_payoff_for_choice":
        n, move = args
        return n == min(own_payoff[(move, b)] for b in labels)
    if kind == "highest_guaranteed_payoff_choice":
        (move,) = args
        return guaranteed(move) == max(guaranteed(l) for l in labels)
    if kind == "higher_guaranteed_payoff":
        return guaranteed(args[0]) > guaranteed(args[1])
    if kind == "lower_guaranteed_payoff":
        return guaranteed(args[0]) < guaranteed(args[1])
    if kind in ("highest_mutual_payoff", "lowest_mutual_payoff"):
        sums = {(a, b): u1 + u2 for a, b, u1, u2 in rows}
        target = max(sums.values()) if kind.startswith("highest") else min(sums.values())
        return sums[(args[0], args[1])] == target
    raise ValueError(kind)


def oracle_fleiss_kappa(rows: "list[list[int]]") -> float:
    """Multi-rater agreement statistic, computed with exact rationals."""
    n_samples = len(rows)
    n_raters = sum(rows[0])
    agreements = []
    for row in rows:
        s = sum(c * c for c in row)
        agreements.append(Fraction(s - n_raters, n_raters * (n_raters - 1)))
    p_bar = sum(agreements) / n_samples
    totals = [sum(row[j] for row in rows) for j in range(len(rows[0]))]
    p_j = [Fraction(t, n_samples * n_raters) for t in totals]
    p_e = sum(p * p for p in p_j)
    return float((p_bar - p_e) / (1 - p_e))


# Fixed worked matrix for the agreement statistic: 10 samples, 3 raters,
# two categories. The frozen value below was produced by running
# oracle_fleiss_kappa on it before the main implementation existed.
FIXED_RATINGS_10x3 = [
    [3, 0],
    [2, 1],
    [1, 2],
    [0, 3],
    [3, 0],
    [2, 1],
    [0, 3],
    [1, 2],
    [2, 1],
    [3, 0],
]
FIXED_RATINGS_10x3_KAPPA = 0.3212669683257919

# Classic published worked matrix: 10 subjects, 14 raters, 5 categories.
CLASSIC_RATINGS_10x14 = [
    [0, 0, 0, 0, 14],
    [0, 2, 6, 4, 2],
    [0, 0, 3, 5, 6],
    [0, 3, 9, 2, 0],
    [2, 2, 8, 1, 1],
    [7, 7, 0, 0, 0],
    [3, 2, 6, 3, 0],
    [2, 5, 3, 2, 2],
    [6, 5, 2, 1, 0],
    [0, 2, 2, 3, 7],
]
CLASSIC_RATINGS_10x14_KAPPA = 0.20993070442195524
