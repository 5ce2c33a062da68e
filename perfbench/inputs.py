"""Seeded inputs for the benchmark's workloads.

The same seed gives the same inputs. The shape of a pool (how many ops
of each type and size, how many true and false claims, how many
attempts a session takes and how it ends) is fixed by the op's index,
and the seed only picks the contents and the order. That keeps the mix
of cheap and expensive ops the same on every seed, so a seed changes
which claims are made, not how much work a run holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import LABELS, PAYOFF_VIEW_KINDS, holds, instances, payoffs_by_label, value_grid

GAME_NAMES = ("pd", "sh", "hd")

# Lines the translator may emit that are not queries. parse_queries must
# skip each one: prose, a wrong arity, an unknown predicate, an unknown
# move label and a non-integer payoff.
_OFF_FORMAT = (
    "Let me restate the reasoning as claims.",
    "Overall the safer move looks like {label}.",
    "higher({value})",
    "best_response({label})",
    "highest_guaranteed_payoff_choice(Q)",
    "lower({value}, x)",
)

# How a session ends, by attempt count k (index 0: k < 5, index 1: k == 5).
_FINAL_EXITS = (
    ("all_true", "all_true", "all_true", "no_queries"),
    ("max_attempts", "all_true", "max_attempts", "no_queries"),
)


@dataclass(frozen=True)
class Claim:
    kind: str
    args: tuple
    holds: bool
    text: str


@dataclass(frozen=True)
class BatchOp:
    """Translator output checked with parse_queries + evaluate_all."""

    game: str
    text: str
    claims: "tuple[Claim, ...]"


@dataclass(frozen=True)
class GoalOp:
    """A worked-query-form goal run with parse_goal + solve_all."""

    game: str
    text: str
    player: str
    utility: int


@dataclass(frozen=True)
class AttemptPlan:
    reasoning: str
    translator_output: str
    claims: "tuple[Claim, ...]"
    off_format: int
    choice: str


@dataclass(frozen=True)
class SessionPlan:
    game: str
    session_id: str
    attempts: "tuple[AttemptPlan, ...]"
    exit: str


class ClaimMaker:
    """Draws true or false claims of a kind, with their query text."""

    def __init__(self, games, rng: random.Random):
        self.rng = rng
        self._split = {}
        for name, g in games.items():
            for kind in PAYOFF_VIEW_KINDS + ("outcome",):
                cases = instances(g, kind)
                self._split[(name, kind, True)] = [a for a in cases if holds(g, kind, a)]
                self._split[(name, kind, False)] = [a for a in cases if not holds(g, kind, a)]

    def kinds_with(self, game: str, truth: bool) -> "list[str]":
        return [k for k in PAYOFF_VIEW_KINDS if self._split[(game, k, truth)]]

    def make(self, game: str, kind: str, truth: bool) -> Claim:
        args = self.rng.choice(self._split[(game, kind, truth)])
        return Claim(kind, args, truth, self._text(kind, args))

    def outcome(self, game: str, pair: "tuple[str, str]", truth: bool) -> Claim:
        """An outcome claim about one move pair."""
        cases = [a for a in self._split[(game, "outcome", truth)] if (a[0], a[2]) == pair]
        args = self.rng.choice(cases)
        return Claim("outcome", args, truth, self._text("outcome", args))

    def _text(self, kind: str, args: tuple) -> str:
        if kind == "outcome":
            mine, n, theirs = args
            return f"finally(outcome(you,{mine},{n},them,{theirs},_),S)"
        sep = self.rng.choice((", ", ","))
        end = self.rng.choice(("", "."))
        return f"{kind}({sep.join(str(a) for a in args)}){end}"


def off_format_line(g, rng: random.Random) -> str:
    return rng.choice(_OFF_FORMAT).format(
        label=rng.choice(LABELS), value=rng.choice(value_grid(g))
    )


def verify_engine_ops(games, seed: int, size: int) -> "list[BatchOp | GoalOp]":
    """`size` ops: half translator-output batches, half worked-form goals.

    Batches hold 1 to 4 lines, cycling; about five lines in six are
    outcome claims and the rest payoff-view claims. Claims alternate
    true and false, so every 4-line batch is two of each. Outcome
    claims cycle through the four move pairs, two lines (one true, one
    false) to a pair, in an order drawn anew every eight lines. Goals
    alternate between the two players and ask
    `game(s0,F), finally(goal(P,U),F)` with U from 0 to 6, so some have
    no answer. Ops are shuffled only within blocks of eight, so any
    stretch of the pool has the same mix.
    """
    rng = random.Random(f"verify-engine:{seed}")
    maker = ClaimMaker(games, rng)
    pairs = [(a, b) for a in LABELS for b in LABELS]
    ops: "list[BatchOp | GoalOp]" = []
    line = 0
    for i in range(size):
        name = GAME_NAMES[i % len(GAME_NAMES)]
        g = games[name]
        if i % 2:
            player = (g.reasoner, g.opponent)[(i // 2) % 2]
            utility = rng.randint(0, 6)
            text = f"game({g.initial_situation}, F), finally(goal({player}, {utility}), F)"
            ops.append(GoalOp(name, text, player, utility))
            continue
        claims = []
        for _ in range(1 + (i // 2) % 4):
            truth = line % 2 == 0
            if line % 8 == 0:  # a new order of the four pairs every 8 lines
                rng.shuffle(pairs)
            if line % 6 == 5:
                claims.append(maker.make(name, rng.choice(maker.kinds_with(name, truth)), truth))
            else:
                claims.append(maker.outcome(name, pairs[(line // 2) % 4], truth))
            line += 1
        ops.append(BatchOp(name, "\n".join(c.text for c in claims), tuple(claims)))
    blocks = [ops[i:i + 8] for i in range(0, len(ops), 8)]
    for block in blocks:
        rng.shuffle(block)
    return [op for block in blocks for op in block]


def session_plans(games, seed: int, slots: "list[tuple[str, str]]", stream: str) -> "list[SessionPlan]":
    """One session per (game, session id) slot, with no outcome claims.

    Slot i takes 1 + i % 5 attempts. Every attempt but the last has at
    least one false claim; the last ends the session as all_true,
    no_queries or (at five attempts) max_attempts. A translator output
    holds 1 to 6 payoff-view claims and 0 to 2 off-format lines, or
    only off-format lines when the session ends with no queries.
    """
    rng = random.Random(f"{stream}:{seed}")
    maker = ClaimMaker(games, rng)
    plans = []
    for i, (name, session_id) in enumerate(slots):
        g = games[name]
        count = 1 + i % 5
        final = _FINAL_EXITS[count == 5][(i // 5) % 4]
        attempts = []
        for index in range(1, count + 1):
            last = index == count
            if last and final == "no_queries":
                truths: "list[bool]" = []
                off = rng.randint(1, 3)
            else:
                n = rng.randint(1, 6)
                if last and final == "all_true":
                    truths = [True] * n
                else:
                    truths = [rng.random() < 0.5 for _ in range(n)]
                    truths[rng.randrange(n)] = False
                off = rng.randint(0, 2)
            lines = [maker.make(name, rng.choice(maker.kinds_with(name, t)), t) for t in truths]
            lines += [off_format_line(g, rng) for _ in range(off)]
            rng.shuffle(lines)
            claims = tuple(c for c in lines if isinstance(c, Claim))
            choice = rng.choice(LABELS)
            attempts.append(
                AttemptPlan(
                    reasoning=_reasoning(g, rng, f"[{session_id} attempt {index}]", choice),
                    translator_output="\n".join(getattr(l, "text", l) for l in lines),
                    claims=claims,
                    off_format=off,
                    choice=choice,
                )
            )
        plans.append(SessionPlan(name, session_id, tuple(attempts), final))
    return plans


def _reasoning(g, rng: random.Random, tag: str, choice: str) -> str:
    cells = payoffs_by_label(g)
    mine, theirs = rng.choice(sorted(cells))
    u1, u2 = cells[(mine, theirs)]
    return (
        f"{tag} If I pick {mine} and they pick {theirs}, I get ${u1} and they get ${u2}. "
        f"Weighing the risk against the reward, I settle on my move.\nCHOICE: {choice}"
    )
