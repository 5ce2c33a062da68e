from __future__ import annotations

import builtins
import random
import re
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from oracles import enumerate_outcomes_direct, rename_apart, struct
from lelma import engine, verification
from lelma.engine import (
    Clause,
    FlounderedNegation,
    LimitExceeded,
    Literal,
    LogicError,
    ResolutionLimits,
    RuleBase,
    UnknownPredicate,
    solve,
    solve_all,
)
from lelma.games import game_independent_rules
from lelma.gdl import parse_clause, parse_goal, parse_program
from lelma.terms import Atom, Int, Struct, Term, Var, is_ground, resolve, term_vars
from lelma.verification import Query, QueryKind


def rb(source: str) -> RuleBase:
    clauses, _ = parse_program(source)
    return RuleBase(clauses)


def answers(rulebase, goal_text, limits=None):
    return solve_all(rulebase, parse_goal(goal_text), limits)


def printed_answers(rulebase, goal_text) -> list:
    return [", ".join(f"{v} = {t}" for v, t in a.items()) for a in answers(rulebase, goal_text)]


# --- the published worked query -----------------------------------------


def test_worked_query_has_exactly_two_answers(pd):
    got = answers(pd.rulebase, "game(s0,F), finally(goal(p1,5),F)")
    rendered = {str(a[Var("F")]) for a in got}
    assert rendered == {
        "do(choice(p2,'C'),do(choice(p1,'D'),s0))",
        "do(choice(p1,'D'),do(choice(p2,'C'),s0))",
    }
    assert len(got) == 2


def test_worked_query_answer_order_is_derivation_order(pd):
    got = answers(pd.rulebase, "game(s0,F), finally(goal(p1,5),F)")
    assert str(got[0][Var("F")]) == "do(choice(p2,'C'),do(choice(p1,'D'),s0))"
    assert str(got[1][Var("F")]) == "do(choice(p1,'D'),do(choice(p2,'C'),s0))"


def test_full_game_enumeration_matches_direct_oracle(games):
    for g in games.values():
        got = answers(g.rulebase, "game(s0,F)")
        solver_situations = sorted(str(a[Var("F")]) for a in got)
        oracle_situations = sorted(str(o.situation) for o in enumerate_outcomes_direct(g))
        assert solver_situations == oracle_situations
        assert len(got) == 8


def test_answers_are_deterministic(pd):
    first = answers(pd.rulebase, "game(s0,F)")
    second = answers(pd.rulebase, "game(s0,F)")
    assert first == second


def test_answer_substitutions_are_idempotent_and_acyclic(pd):
    for a in answers(pd.rulebase, "game(s0,F), finally(goal(p1,5),F)"):
        for v, t in a.items():
            assert v not in term_vars(t)
            assert resolve(t, a) == t


def test_answers_restricted_to_goal_variables(pd):
    for a in answers(pd.rulebase, "legal(M, s0)"):
        assert set(a) == {Var("M")}


# --- builtins and negation ----------------------------------------------


def test_ground_builtin():
    base = rb("p(a).")
    assert answers(base, "ground(f(a,b))") == [{}]
    assert answers(base, "ground(f(a,X))") == []
    assert answers(base, "p(X), ground(X)") == [{Var("X"): Atom("a")}]


def test_eq_builtin_unifies():
    base = rb("p(a).")
    got = answers(base, "X = f(a), p(Y)")
    assert got == [{Var("X"): struct("f", Atom("a")), Var("Y"): Atom("a")}]
    assert answers(base, "a = b") == []


def test_negation_as_failure():
    base = rb("p(a). q(b).")
    assert answers(base, "\\+ p(b)") == [{}]
    assert answers(base, "\\+ p(a)") == []
    # NAF scoped inside a conjunction
    assert answers(base, "q(X), \\+ p(X)") == [{Var("X"): Atom("b")}]


def test_negation_flounders_on_nonground_goal():
    base = rb("p(a).")
    with pytest.raises(FlounderedNegation):
        answers(base, "\\+ p(X)")


def test_negated_goal_with_universal_fact():
    # A fact with variables defeats any ground negation that unifies with it.
    base = rb("abnormal(control(P), choice(P, M), S).")
    assert answers(base, "\\+ abnormal(control(p1), choice(p1, x), s0)") == []
    assert answers(base, "\\+ abnormal(control(p1), choice(p2, x), s0)") == [{}]


def test_unknown_predicate_raises():
    base = rb("p(a).")
    with pytest.raises(UnknownPredicate) as err:
        answers(base, "q(X)")
    assert err.value.functor == "q" and err.value.arity == 1


def test_unknown_predicate_inside_negation_propagates():
    base = rb("p(a).")
    with pytest.raises(UnknownPredicate):
        answers(base, "\\+ q(a)")


# --- limits ---------------------------------------------------------------


def test_depth_limit_reports_nontermination():
    base = rb("loop :- loop.")
    with pytest.raises(LimitExceeded) as err:
        answers(base, "loop")
    assert err.value.kind == "depth"


def test_step_limit(pd):
    with pytest.raises(LimitExceeded) as err:
        answers(pd.rulebase, "game(s0,F)", ResolutionLimits(max_steps=10, max_depth=512))
    assert err.value.kind == "step"


def test_worked_query_fits_in_a_small_step_budget(pd):
    # The bundled games resolve in well under a thousand steps.
    got = answers(
        pd.rulebase,
        "game(s0,F), finally(goal(p1,5),F)",
        ResolutionLimits(max_steps=1_000, max_depth=64),
    )
    assert len(got) == 2


def test_default_limits():
    limits = ResolutionLimits()
    assert limits.max_steps == 100_000
    assert limits.max_depth == 512


# --- clause mechanics -----------------------------------------------------


def test_rename_apart_stamps_shared_ordinal():
    clause = parse_clause("legal(choice(P,M),S) :- possible(choice(P,M),S), holds(control(P),S).")
    renamed = rename_apart(clause, 9)
    head_vars = term_vars(renamed.head)
    assert head_vars == [Var("P", 9), Var("M", 9), Var("S", 9)]
    assert all(v.ordinal == 9 for lit in renamed.body for v in term_vars(lit.term))


def test_clause_head_must_be_callable():
    with pytest.raises(ValueError):
        Clause(Var("X"), ())


def test_lazy_answer_generation(pd):
    gen = solve(pd.rulebase, parse_goal("game(s0,F)"))
    first = next(gen)
    assert is_ground(resolve(Var("F"), first))


def test_empty_goal_rejected(pd):
    with pytest.raises(ValueError):
        list(solve(pd.rulebase, ()))


def test_naf_equivalence_over_game_fluents(games):
    # \+ holds(F,S) succeeds exactly when holds(F,S) has no derivation.
    for g in games.values():
        situations = [str(o.situation) for o in enumerate_outcomes_direct(g)][:4]
        fluents = ["player(p1)", "control(p1)", "control(p2)", "role(p1,row)"]
        fluents += [f"did(p1,'{m}')" for m in g.payoffs.moves]
        for s_text in ["s0"] + situations:
            for f_text in fluents:
                positive = answers(g.rulebase, f"holds({f_text},{s_text})")
                negative = answers(g.rulebase, f"\\+ holds({f_text},{s_text})")
                assert (negative == [{}]) == (positive == [])


# --- invariants of the search itself ----------------------------------------
#
# The engine binds variables in place and undoes them on backtracking; these
# pin what that must not change: step counts, answers and their text, and the
# renaming ordinals that printed variables carry.

WORKED_QUERY = "game(s0,F), finally(goal(p1,5),F)"
GOLDEN_ANSWERS = Path(__file__).with_name("engine_answers.txt")
GOLDEN_GOALS = ("game(s0,F)", "legal(M,s0)", "game(s0,F), finally(goal(P,U),F)")


def completes(rulebase, goal, max_steps: int) -> bool:
    try:
        solve_all(rulebase, goal, ResolutionLimits(max_steps=max_steps))
    except LimitExceeded as err:
        assert err.kind == "step" and err.limit == max_steps
        return False
    return True


def steps_to_finish(rulebase, goal) -> int:
    """The least step budget under which every answer of `goal` is found."""
    lo, hi = 0, ResolutionLimits().max_steps
    while lo < hi:
        mid = (lo + hi) // 2
        if completes(rulebase, goal, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_worked_query_takes_exactly_990_steps(pd):
    goal = parse_goal(WORKED_QUERY)
    assert completes(pd.rulebase, goal, 990)
    with pytest.raises(LimitExceeded) as err:
        solve_all(pd.rulebase, goal, ResolutionLimits(max_steps=989))
    assert err.value.kind == "step"


def test_false_outcome_claim_takes_exactly_614_steps(pd, monkeypatch):
    calls = []

    def recording_solve(rulebase, goal, limits=None):
        calls.append((rulebase, tuple(goal)))
        return solve(rulebase, goal, limits)

    monkeypatch.setattr(verification, "solve", recording_solve)
    result = verification.evaluate_query(Query(QueryKind.OUTCOME, ("B", 5, "B")), pd)
    assert not result.holds
    ((rulebase, goal),) = calls
    assert steps_to_finish(rulebase, goal) == 614


def test_every_outcome_verdict_runs_the_engine(pd, monkeypatch):
    goals = []

    def recording_solve(rulebase, goal, limits=None):
        goals.append(", ".join(str(l) for l in goal))
        return solve(rulebase, goal, limits)

    monkeypatch.setattr(verification, "solve", recording_solve)
    for _ in range(2):
        for claim in (("B", 3, "B"), ("B", 5, "B")):
            verification.evaluate_query(Query(QueryKind.OUTCOME, claim), pd)
    assert len(goals) == 4
    assert goals[0] == goals[2] and goals[1] == goals[3]


def test_answers_match_the_recorded_text(games):
    rendered = []
    for name, g in games.items():
        for text in GOLDEN_GOALS:
            rendered.append(f"[{name}] {text}")
            for a in answers(g.rulebase, text):
                rendered.append(", ".join(f"{v} = {t}" for v, t in a.items()))
    recorded = [
        line for line in GOLDEN_ANSWERS.read_text().splitlines() if not line.startswith("#")
    ]
    assert rendered == recorded


def test_floundered_negation_prints_the_renamed_variable(pd):
    with pytest.raises(FlounderedNegation) as err:
        answers(pd.rulebase, "holds(F, do(M, s0))")
    assert str(err.value) == (
        "negated goal is not ground when selected: \\+ abnormal(player(p1),M_3,s0)"
    )


def test_step_limit_inside_negation_is_a_step_limit(pd):
    # The negated goal walks the whole game tree in its subproof.
    with pytest.raises(LimitExceeded) as err:
        answers(pd.rulebase, "\\+ game(s0, nowhere)", ResolutionLimits(max_steps=50))
    assert err.value.kind == "step" and err.value.limit == 50


def test_negation_spends_from_the_outer_step_budget(pd):
    # One step selects the negated goal; its subproof spends the rest.
    inner = steps_to_finish(pd.rulebase, parse_goal("game(s0, nowhere)"))
    outer = steps_to_finish(pd.rulebase, parse_goal("\\+ game(s0, nowhere)"))
    assert inner > 50
    assert outer == inner + 1


def test_subproofs_leave_no_bindings_behind(pd):
    base = rb(
        "p(a). p(b). q(X) :- p(X), X = b. r(f(Y, Z)) :- p(Y), p(Z). "
        "s(W) :- \\+ q(b), r(W). s(W) :- r(W)."
    )
    plain = answers(base, "r(W)")
    assert len(plain) == 4
    assert answers(base, "\\+ q(a), r(W)") == plain  # the subproof fails
    assert answers(base, "s(W)") == plain  # the first clause's subproof succeeds
    assert answers(pd.rulebase, "\\+ final(s0), game(s0, F)") == answers(
        pd.rulebase, "game(s0, F)"
    )


# --- the first-argument switch and `\+` barriers ----------------------------

SWITCHED = "p(f, V). p(f(X), V). p(1, V). p(Z, V). p('1', V)."


@pytest.mark.parametrize(
    "goal, printed",
    [
        ("p(f, A)", ["A = V_1", "A = V_4"]),
        ("p(f(b), A)", ["A = V_2", "A = V_4"]),
        ("p(1, A)", ["A = V_3", "A = V_4"]),
        ("p('1', A)", ["A = V_4", "A = V_5"]),
        ("p(f(b, c), A)", ["A = V_4"]),
        ("p(g, A)", ["A = V_4"]),
        (
            "p(B, A)",
            [
                "B = f, A = V_1",
                "B = f(X_2), A = V_2",
                "B = 1, A = V_3",
                "B = Z_4, A = V_4",
                "B = '1', A = V_5",
            ],
        ),
        ("p(a, A), p(1, C)", ["A = V_4, C = V_8", "A = V_4, C = V_9"]),
    ],
)
def test_switch_keeps_functors_and_constants_apart(goal, printed):
    # An answer names its clause's variables after the clause's source
    # position, whichever clauses the switch skipped.
    assert printed_answers(rb(SWITCHED), goal) == printed


# `h` differs only in argument 2, as the game rules' holds/2 does: it
# switches there. The `i` facts differ in argument 1 and share `s0` in
# argument 2: they switch on argument 1 and guard argument 2.
SELECTED = (
    "h(F, s0) :- i(F, s0). h(F, do(M, S)) :- e(F, M). h(F, do(M, S)) :- i(F, S). "
    "i(a, s0). i(b, s0). i(c(X), s0). e(m(M), M)."
)


@pytest.mark.parametrize(
    "goal, printed, steps",
    [
        ("h(F, s0)", ["F = a", "F = b", "F = c(X_6)"], 2),
        ("h(F, do(x, s0))", ["F = m(x)", "F = a", "F = b", "F = c(X_7)"], 3),
        ("h(F, do(x, y))", ["F = m(x)"], 3),
        (
            "h(F, S)",
            [
                "F = a, S = s0",
                "F = b, S = s0",
                "F = c(X_6), S = s0",
                "F = m(M_7), S = do(M_7,S_2)",
                "F = a, S = do(M_3,s0)",
                "F = b, S = do(M_3,s0)",
                "F = c(X_10), S = do(M_3,s0)",
            ],
            4,
        ),
        ("h(F, g)", [], 1),
        ("h(F, s0(x))", [], 1),
        ("i(F, s0)", ["F = a", "F = b", "F = c(X_3)"], 1),
        ("i(c(1), S)", ["S = s0"], 1),
        ("i(z, s0)", [], 1),
        ("i(F, do(x, s0))", [], 1),
        ("i(a, s0(b))", [], 1),
        ("i(F, S)", ["F = a, S = s0", "F = b, S = s0", "F = c(X_3), S = s0"], 1),
    ],
)
def test_selection_on_a_later_argument_keeps_answers_and_steps(goal, printed, steps):
    base = rb(SELECTED)
    assert (base._preds[("h", 2)].at, base._preds[("h", 2)].guard_at) == (2, 0)
    assert (base._preds[("i", 2)].at, base._preds[("i", 2)].guard_at) == (1, 2)
    assert printed_answers(base, goal) == printed
    assert steps_to_finish(base, parse_goal(goal)) == steps


def test_the_bundled_rules_select_on_the_argument_that_tells_clauses_apart(pd):
    entries = {
        key: (p.at, sorted(p.switch or ()), p.guard_at, p.guard)
        for key, p in pd.rulebase._preds.items()
        if p.at or p.guard_at
    }
    assert entries == {
        ("holds", 2): (2, ["do"], 0, None),
        ("initially", 2): (1, ["control", "player", "role"], 2, "s0"),
        ("possible", 2): (0, [], 1, "choice"),
        ("payoff", 4): (1, ["C", "D"], 0, None),
        ("finally", 2): (1, ["goal", "outcome"], 0, None),
    }


def test_no_argument_after_a_repeated_variable_selects_clauses():
    # Unifying argument 2 with argument 1 raises on these cyclic terms, so
    # argument 3 may not skip the clauses before that happens.
    base = rb("q(X, X, a). q(Y, Y, b).")
    assert (base._preds[("q", 3)].at, base._preds[("q", 3)].guard_at) == (0, 0)
    with pytest.raises(LogicError) as err:
        answers(base, "A = f(A), B = f(B), q(A, B, c)")
    assert str(err.value) == "cyclic term: unification would not terminate"
    assert answers(base, "A = f(a), B = f(a), q(A, B, c)") == []
    assert steps_to_finish(base, parse_goal("A = f(a), B = f(a), q(A, B, c)")) == 3


def test_no_argument_after_one_deeper_than_straight_line_code_selects_clauses():
    # Argument 1 nests past _MAX_NESTING, so `_unify` unifies it, and
    # argument 2 may not skip a clause.
    deep = nested(91, "z")
    base = rb(f"q({deep}, a). q({deep}, b).")
    assert (base._preds[("q", 2)].at, base._preds[("q", 2)].guard_at) == (0, 1)
    assert printed_answers(base, "q(T, b)") == [f"T = {deep}"]
    assert steps_to_finish(base, parse_goal("q(T, b)")) == 1


def random_argument(rng: random.Random, depth: int = 3) -> Term:
    """A head argument: a variable of three names, so some repeat, a
    constant, a compound, or now and then one nested about _MAX_NESTING deep."""
    roll = rng.random()
    if roll < 0.05:
        term = rng.choice([Atom("a"), Var("X")])
        for _ in range(rng.randint(89, 92)):
            term = Struct("s", (term,))
        return term
    if roll < 0.3 and depth:
        args = tuple(random_argument(rng, depth - 1) for _ in range(rng.randint(0, 2)))
        return Struct(rng.choice("fg"), args)
    if roll < 0.6:
        return Var(rng.choice("XYZ"))
    return Atom(rng.choice("ab")) if roll < 0.8 else Int(rng.randint(0, 2))


def test_the_switch_keys_end_at_the_first_argument_whose_code_calls_unify():
    seen = set()
    rng = random.Random(30)
    for _ in range(300):
        head = Struct("p", tuple(random_argument(rng) for _ in range(rng.randint(1, 4))))
        symbols = [
            a.functor if isinstance(a, Struct) else a.name if isinstance(a, Atom)
            else a.value if isinstance(a, Int) else None
            for a in head.args
        ]
        source = engine._ClauseCompiler(Clause(head), None).source()
        _, keys = engine._compile(Clause(head), None)
        lines = source.splitlines()
        calls = [i for i, line in enumerate(lines) if "_unify(" in line]
        last = len(head.args)
        if calls:  # the argument whose code holds the first call is the last keyed
            last = max(map(int, re.findall(r"goal\[(\d+)\]", "\n".join(lines[: calls[0] + 1]))))
        assert keys == symbols[:last], (str(head), source)
        seen.add((bool(calls), last < len(head.args)))
    assert seen == {(False, False), (True, False), (True, True)}


def test_nested_negation():
    # The clause language has no `\+ \+`; `np` puts one `\+` inside another.
    base = rb("p(a). p(b). np(X) :- \\+ p(X). nnp(X) :- \\+ np(X).")
    assert answers(base, "\\+ np(a)") == [{}]
    assert answers(base, "\\+ np(c)") == []
    assert answers(base, "p(X), \\+ np(X)") == answers(base, "p(X)")
    assert answers(base, "nnp(a), nnp(b), \\+ nnp(c)") == [{}]


def test_a_proved_subproof_discards_its_choice_points():
    # `s` is proved on p's first clause; the two left untried must not be
    # resumed once `\+ s` has failed.
    base = rb(
        "p(a). p(b). p(c). s :- p(X). r(a). r(b). "
        "t :- p(X), \\+ r(X). nt :- \\+ t."
    )
    assert answers(base, "p(Y), \\+ s") == []
    assert steps_to_finish(base, parse_goal("\\+ s")) == 3
    assert answers(base, "p(Y), \\+ r(Y)") == [{Var("Y"): Atom("c")}]
    assert answers(base, "\\+ t") == []
    assert answers(base, "p(Y), \\+ nt") == answers(base, "p(Y)")


def test_step_limit_inside_nested_negation(pd):
    program = game_independent_rules() + pd.clauses
    base = RuleBase(program + (parse_clause("ng :- \\+ game(s0, nowhere)."),))
    with pytest.raises(LimitExceeded) as err:
        answers(base, "\\+ ng", ResolutionLimits(max_steps=50))
    assert (err.value.kind, err.value.limit) == ("step", 50)
    inner = steps_to_finish(base, parse_goal("game(s0, nowhere)"))
    assert steps_to_finish(base, parse_goal("\\+ ng")) == inner + 3


@pytest.mark.parametrize("goal, printed, steps", [
    ("X = initial(S), X", ["X = initial(s0), S = s0"], 2),
    ("X = initial(s1), \\+ X", ["X = initial(s1)"], 3),
])
def test_a_variable_goal_calls_the_term_it_is_bound_to(pd, goal, printed, steps):
    assert printed_answers(pd.rulebase, goal) == printed
    assert steps_to_finish(pd.rulebase, parse_goal(goal)) == steps


@pytest.mark.parametrize("goal, error, message, steps", [
    ("X = 3, X", LogicError, "callable goal expected, got 3", 2),
    ("X", LogicError, "callable goal expected, got X", 1),
    ("\\+ X", FlounderedNegation, "negated goal is not ground when selected: \\+ X", 1),
])
def test_a_variable_goal_bound_to_no_callable_term_is_an_error(pd, goal, error, message, steps):
    # The error comes at the step that selects the goal, not before.
    with pytest.raises(LimitExceeded):
        answers(pd.rulebase, goal, ResolutionLimits(max_steps=steps - 1))
    with pytest.raises(LogicError) as err:
        answers(pd.rulebase, goal, ResolutionLimits(max_steps=steps))
    assert (type(err.value), str(err.value)) == (error, message)


# --- cyclic and deep terms ----------------------------------------------------


def test_cyclic_binding_is_a_logic_error():
    with pytest.raises(LogicError) as err:
        answers(rb("eq(X, X)."), "eq(A, f(A))")
    assert str(err.value) == "cyclic term: A occurs in its own binding"


# In the third goal the check meets the unbound Z only past the cycle
# check, which then walks the whole term and meets A inside itself.
@pytest.mark.parametrize(
    "goal", ["eq(A, f(A)), ground(A)", "eq(A, f(A)), \\+ p(A)", "eq(A, f(h(Z), A)), ground(A)"]
)
def test_ground_check_of_a_cyclic_binding_is_a_logic_error(goal):
    with pytest.raises(LogicError) as err:
        answers(rb("eq(X, X)."), goal)
    assert str(err.value) == "cyclic term: A occurs in its own binding"


def test_ground_check_of_a_large_shared_term():
    # A20 is f(A19, A19) and so on down to A0 = leaf: 2**20 - 1 compounds
    # unfolded, past the point where the ground check looks for cycles.
    doublings = ", ".join(f"d(A{i}, A{i + 1})" for i in range(20))
    base = rb(
        f"d(X, f(X, X)). p(leaf). t :- A0 = leaf, {doublings}, ground(A20), \\+ p(A20)."
    )
    assert answers(base, "t") == [{}]


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the body once it has run `seconds`, so a walk
    that takes exponential time fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"not done in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_answer_converts_each_shared_part_once(pd):
    # Xn is f(X(n-1), X(n-1)): 2**n - 1 compounds unfolded, n stored. The
    # small chain checks the sharing before the long one can take long.
    for n in (3, 200):
        equations = ", ".join(f"X{i} = f(X{i - 1}, X{i - 1})" for i in range(1, n + 1))
        with time_limit(5):
            (answer,) = answers(pd.rulebase, f"{equations}, X0 = a")
        for i in range(1, n + 1):
            value = answer[Var(f"X{i}")]
            assert value.args[0] is value.args[1] is answer[Var(f"X{i - 1}")]
        assert answer[Var("X0")] == Atom("a")


@pytest.mark.parametrize("last, count", [("X100", 1), ("f(h(Z), X100)", 0)])
def test_a_ground_check_walks_each_shared_part_once(last, count):
    # The clause shares the compound X is bound to, not X's cell: X100
    # unfolds to 2**100 - 1 compounds and is stored in 100. In the second
    # goal the unbound Z is met only past the cycle check.
    chain = ", ".join(f"p(X{i}, X{i + 1})" for i in range(100))
    with time_limit(5):
        got = answers(rb("p(X, Y) :- Y = g(X, X)."), f"X0 = a, {chain}, ground({last})")
    assert len(got) == count
    for answer in got:
        assert answer[Var("X100")].args[0] is answer[Var("X99")]


def test_deep_answers_run_into_the_depth_limit():
    # Each answer is one `s` deeper; none of them may overflow Python's stack.
    found = []
    with pytest.raises(LimitExceeded) as err:
        for answer in solve(rb("nat(z). nat(s(X)) :- nat(X)."), parse_goal("nat(N)")):
            found.append(answer[Var("N")])
    assert (err.value.kind, err.value.limit) == ("depth", 512)
    assert len(found) == 512
    term, depth = found[-1], 0
    while isinstance(term, Struct):
        term, depth = term.args[0], depth + 1
    assert (term, depth) == (Atom("z"), 511)


def test_a_deep_goal_term_is_converted_without_recursion():
    # The goal is turned into cell terms before the first step, where no
    # limit guards it.
    def deep(term):
        for _ in range(3_000):
            term = struct("s", term)
        return term

    base = rb("p(X).")
    assert solve_all(base, [Literal(struct("p", deep(Atom("z"))))]) == [{}]
    goal = [Literal(struct("p", deep(Var("Y")))), Literal(struct("=", Var("Y"), Atom("z")))]
    assert solve_all(base, goal) == [{Var("Y"): Atom("z")}]


def test_unifying_two_large_shared_terms():
    # A20 and B20 each unfold to 2**20 - 1 compounds; past the cycle check
    # each pair of shared compounds is unified once.
    doublings = ", ".join(f"d(A{i}, A{i + 1}), d(B{i}, B{i + 1})" for i in range(20))
    base = rb(f"d(X, f(X, X)). t(B0) :- A0 = leaf, {doublings}, A20 = B20.")
    assert answers(base, "t(B)") == [{Var("B"): Atom("leaf")}]


def test_unifying_two_cyclic_terms_is_a_logic_error():
    with pytest.raises(LogicError) as err:
        answers(rb("eq(X, X)."), "eq(A, f(A)), eq(B, f(B)), A = B")
    assert str(err.value) == "cyclic term: unification would not terminate"


def nested(depth: int, inner: str) -> str:
    return "s(" * depth + inner + ")" * depth


def test_two_deep_terms_unify_without_recursion():
    goal = parse_goal(f"X = {nested(5_000, 'z')}, Y = {nested(5_000, 'W')}, X = Y")
    (answer,) = solve_all(RuleBase([]), goal)
    assert answer[Var("W")] == Atom("z")
    term, depth = answer[Var("Y")], 0
    while isinstance(term, Struct):
        term, depth = term.args[0], depth + 1
    assert (term, depth) == (Atom("z"), 5_000)


def test_a_wide_unification_past_the_cycle_check_binds_as_before():
    # 12,000 pairs of compounds: the walk checks for cycles after 10,000.
    n = 12_000
    a = struct("f", *(struct("g", Var(f"A{i}")) for i in range(n)))
    b = struct("f", *(struct("g", Int(i)) for i in range(n)))
    (answer,) = solve_all(RuleBase([]), [Literal(struct("=", a, b))])
    assert answer == {Var(f"A{i}"): Int(i) for i in range(n)}


# The deepest a head argument or the right side of a compiled `=` literal is
# matched part by part, counting compounds: its code nests one indentation
# level per compound. A deeper one is built and unified by `_unify`.
MATCH_DEPTH_LIMIT = 90


@pytest.mark.parametrize(
    "clause, printed",
    [
        (
            f"deep({nested(91, 'z')}).",
            {
                f"deep({nested(91, 'z')})": [""],
                f"deep({nested(91, 'a')})": [],
                "deep(T)": [f"T = {nested(91, 'z')}"],
            },
        ),
        (
            f"deep(Y, {nested(399, 'f(X, Y)')}).",
            {
                f"deep(b, {nested(399, 'f(a, b)')})": [""],
                f"deep(b, {nested(399, 'f(a, c)')})": [],
                "deep(A, T)": [f"A = Y_1, T = {nested(399, 'f(X_1,Y_1)')}"],
                f"deep(A, {nested(399, 'f(a, B)')})": ["A = Y_1, B = Y_1"],
            },
        ),
        (
            f"deep(X, Y) :- X = {nested(91, 'Y')}.",
            {
                "deep(T, c)": [f"T = {nested(91, 'c')}"],
                "deep(T, U)": [f"T = {nested(91, 'Y_1')}, U = Y_1"],
                f"deep({nested(91, 'd')}, Y)": ["Y = d"],
                f"deep({nested(90, 'd')}, Y)": [],
            },
        ),
    ],
    ids=["ground-head", "non-ground-head", "body-equation"],
)
def test_a_clause_past_the_depth_limit_compiles(clause, printed):
    base = rb(f"q(a). {clause}")
    assert {goal: printed_answers(base, goal) for goal in printed} == printed


def test_a_very_deep_head_compiles_in_linear_time():
    clause = parse_clause(f"p(Y, {nested(20_000, 'f(X, Y)')}).")
    started = time.perf_counter()
    base = RuleBase([clause])
    assert time.perf_counter() - started < 1.0
    assert printed_answers(base, f"p(a, {nested(20_000, 'f(b, W)')})") == ["W = a"]


def test_a_clause_at_the_depth_limit_compiles():
    n = MATCH_DEPTH_LIMIT
    base = rb(
        f"deep({nested(n, 'z')}). open({nested(n, 'X')}, X). "
        f"eq(X, Y) :- X = {nested(n, 'Y')}."
    )
    assert answers(base, f"deep({nested(n, 'z')})") == [{}]
    assert answers(base, f"deep({nested(n, 'a')})") == []
    assert printed_answers(base, f"open({nested(n, 'a')}, Y)") == ["Y = a"]
    assert printed_answers(base, "open(T, b)") == [f"T = {nested(n, 'b')}"]
    assert printed_answers(base, "eq(T, c)") == [f"T = {nested(n, 'c')}"]
    assert printed_answers(base, f"eq({nested(n, 'd')}, Y)") == ["Y = d"]


def test_deep_body_goals_compile():
    # A body goal is built, not matched: a ground part is one constant, and
    # a part that holds a variable nests brackets, so past the depth limit
    # the goal is converted from its term when the body is built.
    ground, mixed = nested(5_000, "z"), f"f({nested(200, 'g(X,k)')},{nested(300, 'z')})"
    base = rb(f"id(T, T). g(Y) :- id({ground}, Y). m(X, Y) :- id({mixed}, Y).")
    assert printed_answers(base, "g(Y)") == [f"Y = {ground}"]
    assert printed_answers(base, "m(a, Y)") == [f"Y = {mixed.replace('X', 'a')}"]


def test_a_long_body_compiles():
    # The body's goal nodes are built one statement each, not nested.
    base = rb("q. p :- " + ", ".join(["q"] * 300) + ".")
    assert answers(base, "p") == [{}]


# --- `=/2` in clause bodies -------------------------------------------------------


def test_body_equation_names_its_own_variables():
    assert printed_answers(rb("p(X) :- X = f(Y)."), "p(A)") == ["A = f(Y_1)"]


def test_body_equation_with_a_repeated_variable():
    base = rb("p(X) :- X = g(Y, Y).")
    assert printed_answers(base, "p(A)") == ["A = g(Y_1,Y_1)"]
    assert printed_answers(base, "p(g(a, B))") == ["B = a"]
    assert printed_answers(base, "p(g(B, C))") == ["B = Y_1, C = Y_1"]
    assert answers(base, "p(g(a, b))") == []


def test_body_equation_with_a_bound_and_an_unbound_left_side():
    base = rb("q(X, Z) :- X = h(Z, c).")
    assert printed_answers(base, "q(A, B)") == ["A = h(Z_1,c), B = Z_1"]
    assert printed_answers(base, "q(h(a, W), V)") == ["W = c, V = a"]
    assert printed_answers(base, "q(h(a, W), b)") == []
    assert printed_answers(base, "q(k(a, W), V)") == []


def test_a_failing_body_equation_leaves_no_bindings_behind():
    # The first clause binds Z to Y_1 before c fails to match b.
    base = rb("q(X, Y) :- X = f(Y, b). q(X, Y).")
    assert printed_answers(base, "q(f(Z, c), W)") == ["W = Y_2"]


def test_body_equation_can_bind_a_cyclic_term():
    with pytest.raises(LogicError) as err:
        answers(rb("p(X) :- X = f(X)."), "p(A)")
    assert str(err.value) == "cyclic term: X_1 occurs in its own binding"


def test_negated_body_equation_flounders_as_before():
    x, y = Var("X"), Var("Y")
    base = RuleBase([Clause(struct("p", x), (Literal(struct("=", x, struct("f", y)), True),))])
    with pytest.raises(FlounderedNegation) as err:
        answers(base, "p(a)")
    assert str(err.value) == "negated goal is not ground when selected: \\+ '='(a,f(Y_1))"


# --- compiled clauses -----------------------------------------------------------

ODD_ATOMS = ('say "hi"', 'three """ quotes', "); import os")
BUILT_ATOMS = ("it's", "two\nlines")
ODD_FUNCTOR = "x'); import os; os.system('exit 1'); ('"
ODD_VARIABLE = 'V"""; import os; """'


def test_program_text_never_becomes_code(monkeypatch):
    sources = []
    real_compile = builtins.compile

    def recording_compile(source, *args, **kwargs):
        sources.append(source)
        return real_compile(source, *args, **kwargs)

    monkeypatch.setattr(engine, "_MAKERS", {}, raising=False)  # compile every shape anew
    monkeypatch.setattr(builtins, "compile", recording_compile)
    text = " ".join(f"tag('{name}', {n})." for n, name in enumerate(ODD_ATOMS, 1))
    clauses, _ = parse_program(text)
    clauses += [Clause(struct("tag", Atom(name), Int(n))) for n, name in enumerate(BUILT_ATOMS, 4)]
    clauses.append(
        Clause(
            struct(ODD_FUNCTOR, Var(ODD_VARIABLE), Var("T")),
            (Literal(struct("tag", Var("T"), Int(3))),),
        )
    )
    odd = struct(ODD_FUNCTOR, Atom(BUILT_ATOMS[0]), Atom(ODD_ATOMS[1]), Var(ODD_VARIABLE))
    clauses.append(Clause(struct("odd", Var("X")), (Literal(struct("=", Var("X"), odd)),)))
    base = RuleBase(clauses)

    assert printed_answers(base, "tag(T, N)") == [
        "T = 'say \"hi\"', N = 1",
        "T = 'three \"\"\" quotes', N = 2",
        "T = '); import os', N = 3",
        "T = 'it\\'s', N = 4",
        "T = 'two\\nlines', N = 5",
    ]
    goal = (Literal(struct(ODD_FUNCTOR, Var("A"), Var("B"))),)
    assert solve_all(base, goal) == [
        {Var("A"): Var(ODD_VARIABLE, 1), Var("B"): Atom("); import os")}
    ]
    renamed = struct(ODD_FUNCTOR, Atom(BUILT_ATOMS[0]), Atom(ODD_ATOMS[1]), Var(ODD_VARIABLE, 1))
    assert solve_all(base, (Literal(struct("odd", Var("A"))),)) == [{Var("A"): renamed}]
    bound = struct(ODD_FUNCTOR, Var("B"), Atom(ODD_ATOMS[1]), Var("C"))
    assert solve_all(base, (Literal(struct("odd", bound)),)) == [
        {Var("B"): Atom(BUILT_ATOMS[0]), Var("C"): Var(ODD_VARIABLE, 1)}
    ]
    assert solve_all(base, (Literal(struct("odd", struct(ODD_FUNCTOR, Var("B")))),)) == []
    for source in sources:
        for name in (*ODD_ATOMS, *BUILT_ATOMS, ODD_FUNCTOR, ODD_VARIABLE, "import"):
            assert name not in source


def clause_functions(rulebase, key) -> list:
    """The compiled clauses of a predicate's entry, in source order."""
    functions, node = [], rulebase._preds[key].clauses
    while node is not None:
        offset, function, node = node
        assert offset == len(functions)
        functions.append(function)
    return functions


def test_clauses_that_differ_only_in_constants_share_code(games):
    base = rb(
        "p(a, X, f(X)) :- q(X, 1). p(b, Y, f(Y)) :- q(Y, 2). p(Z, c, g). q(_, _). "
        "r(X) :- X = f(a, Y, _), q(Y, 1). r(Z) :- Z = g(2, W, _), q(W, b)."
    )
    first, second, third = clause_functions(base, ("p", 3))
    assert first.__code__ is second.__code__
    assert third.__code__ is not first.__code__
    first, second = clause_functions(base, ("r", 1))
    assert first.__code__ is second.__code__
    bundled = [
        f
        for g in games.values()
        for key in g.rulebase._preds
        for f in clause_functions(g.rulebase, key)
    ]
    assert len({f.__code__ for f in bundled}) * 2 < len(bundled)


def test_no_bundled_clause_is_converted_at_run_time(games):
    # Every term of the bundled games is shallow enough for straight-line code.
    for g in games.values():
        for c in game_independent_rules() + g.clauses:
            assert "_to_cells" not in engine._ClauseCompiler(c, g.rulebase._callee).source()
