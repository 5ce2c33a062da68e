"""The engine against a naive reference SLD interpreter.

The reference below resolves over plain dict substitutions with
`terms.unify` and renames each clause with `oracles.rename_apart`, the
textbook way. It runs `unify(head, goal)`, and `unify(rhs, lhs)` for
`lhs = rhs`: the textbook unifier binds its left variable, and the
engine binds a clause's variable to the goal's, and in `A = B` B's. It
follows the engine's documented contract: depth-first, clauses in
source order, one step per selected goal, `\\+` subproofs
spending from the same step budget at the same depth, one renaming
ordinal per clause of the selected predicate (counted from 1), builtins
before the clause index, and the depth check after it. The depth of a
goal is the number of clauses resolved on the way to it, the goals after
a resolved literal included. Hypothesis draws small programs and goals,
and the engine must give the same answers as text, in the same order,
and end with the same `LogicError` class and text.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import rename_apart
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
)
from lelma.terms import Atom, Int, Struct, Var, is_ground, resolve, term_vars, unify, walk

LIMITS = ResolutionLimits(max_steps=60, max_depth=8)
PREDICATES = (("p", 0), ("p", 1), ("q", 2), ("r", 1))
UNDEFINED = ("s", 1)
FACTS = ("e", 2)  # a predicate of facts only, in the programs of the second property
CLAUSE_VARS = ("X", "Y", "Z")
GOAL_VARS = ("A", "B", "X")


class Cyclic(Exception):
    """A binding made a term contain itself; the example is dropped."""


def cyclic(subst) -> bool:
    colour: dict = {}

    def visit(v) -> bool:
        colour[v] = 1
        for w in term_vars(subst[v]):
            if w in subst and (colour.get(w) == 1 or (w not in colour and visit(w))):
                return True
        colour[v] = 2
        return False

    return any(v not in colour and visit(v) for v in subst)


def unified(a, b, subst):
    out = unify(a, b, subst)
    if out is not None and cyclic(out):
        raise Cyclic
    return out


def reference_solve(rulebase: RuleBase, goal, limits: ResolutionLimits):
    state = {"steps": limits.max_steps, "ordinal": 1}

    def prove(goals, subst, depth):
        if not goals:
            yield subst
            return
        lit, rest = goals[0], goals[1:]
        if state["steps"] <= 0:
            raise LimitExceeded("step", limits.max_steps)
        state["steps"] -= 1
        term = walk(lit.term, subst)
        if lit.negated:
            term = resolve(term, subst)
            if not is_ground(term):
                raise FlounderedNegation(term)
            if next(prove((Literal(term),), subst, depth), None) is None:
                yield from prove(rest, subst, depth)
            return
        if isinstance(term, Struct):
            key = (term.functor, len(term.args))
        elif isinstance(term, Atom):
            key = (term.name, 0)
        else:
            raise LogicError(f"callable goal expected, got {resolve(term, subst)}")
        if key == ("=", 2):
            out = unified(term.args[1], term.args[0], subst)
            if out is not None:
                yield from prove(rest, out, depth)
            return
        if key == ("ground", 1):
            if is_ground(resolve(term.args[0], subst)):
                yield from prove(rest, subst, depth)
            return
        clauses = rulebase.matching(key)
        if not clauses:
            raise UnknownPredicate(*key)
        if depth >= limits.max_depth:
            raise LimitExceeded("depth", limits.max_depth)
        base = state["ordinal"]
        state["ordinal"] += len(clauses)
        for i, clause in enumerate(clauses):
            renamed = rename_apart(clause, base + i)
            out = unified(renamed.head, term, subst)
            if out is not None:
                yield from prove(renamed.body + rest, out, depth + 1)

    variables = list(dict.fromkeys(v for l in goal for v in term_vars(l.term)))
    for subst in prove(tuple(goal), {}, 0):
        answer = {}
        for v in variables:
            value = resolve(v, subst)
            if value != v:
                answer[v] = value
        yield answer


def transcript(answers) -> "list[str]":
    """Each answer as printed text, then the class and text of the error
    that ended the search, if one did."""
    lines = []
    try:
        for a in answers:
            lines.append(", ".join(f"{v} = {t}" for v, t in a.items()))
    except LogicError as err:
        lines.append(f"{type(err).__name__}: {err}")
    return lines


# --- strategies ---------------------------------------------------------------


@st.composite
def terms(draw, names, depth=2):
    """A variable, `a`, `b`, `0`, `1`, or `f/1` or `g/2` over smaller terms."""
    pick = draw(st.integers(0, 9 if depth else 6))
    if pick < 3:
        return Var(names[pick])
    if pick < 7:
        return (Atom("a"), Atom("b"), Int(0), Int(1))[pick - 3]
    if pick < 9:
        return Struct("f", (draw(terms(names, depth - 1)),))
    return Struct("g", (draw(terms(names, depth - 1)), draw(terms(names, depth - 1))))


@st.composite
def calls(draw, names, predicates=PREDICATES + PREDICATES + (UNDEFINED,)):
    functor, arity = draw(st.sampled_from(predicates))
    if arity == 0:
        # `p` and `p()` share an index key but never unify.
        return draw(st.sampled_from([Atom(functor), Struct(functor, ())]))
    return Struct(functor, tuple(draw(terms(names)) for _ in range(arity)))


@st.composite
def negated_facts(draw, names):
    """`\\+ e(...)`, its variables replaced by `b` three times in four, so
    that it is mostly ground when selected."""
    call = draw(calls(names, (FACTS,)))
    if draw(st.integers(0, 3)):
        call = resolve(call, {Var(name): Atom("b") for name in names})
    return Literal(call, negated=True)


@st.composite
def literals(draw, names, facts=False):
    """A literal; with `facts`, two in eight are `\\+ e(...)`."""
    kinds = ["call", "call", "call", "eq", "ground", "not"] + (["facts", "facts"] if facts else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "facts":
        return draw(negated_facts(names))
    if kind == "eq":
        return Literal(Struct("=", (draw(terms(names)), draw(terms(names)))))
    if kind == "ground":
        return Literal(Struct("ground", (draw(terms(names)),)))
    return Literal(draw(calls(names)), negated=kind == "not")


@st.composite
def programs(draw, facts=False):
    """One to three clauses for each predicate but `s/1`, in a drawn order;
    with `facts`, also one to three facts of `e/2`, which bodies negate."""
    program = []
    for predicate in PREDICATES:
        for _ in range(draw(st.integers(1, 3))):
            head = draw(calls(CLAUSE_VARS, (predicate,)))
            body = draw(st.lists(literals(CLAUSE_VARS, facts), max_size=2))
            program.append(Clause(head, tuple(body)))
    if facts:
        for _ in range(draw(st.integers(1, 3))):
            program.append(Clause(draw(calls(CLAUSE_VARS, (FACTS,)))))
    return draw(st.permutations(program))

goals = st.lists(literals(GOAL_VARS), min_size=1, max_size=2).map(tuple)


@st.composite
def goals_negating_facts(draw):
    """Up to two literals, with a `\\+ e(...)` put among them."""
    goal = draw(st.lists(literals(GOAL_VARS, facts=True), max_size=2))
    goal.insert(draw(st.integers(0, len(goal))), draw(negated_facts(GOAL_VARS)))
    return tuple(goal)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
)
@given(programs(), goals)
def test_engine_matches_the_reference_interpreter(program, goal):
    rulebase = RuleBase(program)
    try:
        expected = transcript(reference_solve(rulebase, goal, LIMITS))
    except (Cyclic, RecursionError):
        assume(False)
    assert transcript(solve(rulebase, goal, LIMITS)) == expected


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
)
@given(programs(facts=True), goals_negating_facts())
def test_engine_matches_the_reference_interpreter_on_negated_facts(program, goal):
    rulebase = RuleBase(program)
    try:
        expected = transcript(reference_solve(rulebase, goal, LIMITS))
    except (Cyclic, RecursionError):
        assume(False)
    assert transcript(solve(rulebase, goal, LIMITS)) == expected


def test_reference_interpreter_agrees_on_hand_written_cases():
    # Pins the reference itself on cases whose answers are known.
    program = [
        Clause(Struct("q", (Var("X"), Var("X")))),
        Clause(Struct("q", (Struct("f", (Var("Y"),)), Atom("b")))),
        Clause(Atom("p")),
        Clause(Struct("r", (Var("Z"),)), (Literal(Struct("q", (Var("Z"), Atom("a")))),)),
        Clause(Struct("t", (Var("A"), Var("A")))),
        Clause(Struct("t", (Var("A"), Struct("f", (Var("A"),))))),
    ]
    rulebase = RuleBase(program)
    cases = {
        # A clause's variable is bound to the goal's, never the reverse, so
        # a goal variable that a clause only aliases stays unbound.
        Literal(Struct("q", (Var("A"), Var("B")))): ["A = B", "A = f(Y_2), B = b"],
        Literal(Struct("t", (Var("X"), Var("Y")))): ["X = Y", "Y = f(X)"],
        Literal(Struct("=", (Var("X"), Var("Y")))): ["Y = X"],
        Literal(Struct("r", (Var("A"),))): ["A = a"],
        Literal(Atom("p")): [""],
        Literal(Struct("p", ())): [],
        Literal(Atom("p"), negated=True): [],
        Literal(Struct("p", ()), negated=True): [""],
        Literal(Struct("s", ())): ["UnknownPredicate: unknown predicate s/0"],
    }
    for lit, expected in cases.items():
        goal = (lit,)
        assert transcript(reference_solve(rulebase, goal, LIMITS)) == expected
        assert transcript(solve(rulebase, goal, LIMITS)) == expected
