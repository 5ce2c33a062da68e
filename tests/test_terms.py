from __future__ import annotations

import operator
import string

from hypothesis import given, strategies as st

import oracles
from oracles import struct
from lelma.engine import Literal, RuleBase, solve_all
from lelma.terms import (
    Atom,
    Int,
    Struct,
    Var,
    is_ground,
    rename_term,
    resolve,
    term_vars,
    unify,
    walk,
)


def test_unify_textbook_cases():
    x, y = Var("X"), Var("Y")
    s = unify(struct("f", x, Atom("b")), struct("f", Atom("a"), y), {})
    assert s == {x: Atom("a"), y: Atom("b")}

    assert unify(struct("f", x), struct("g", x), {}) is None
    assert unify(struct("f", x), struct("f", x, x), {}) is None
    assert unify(Atom("a"), Atom("b"), {}) is None
    assert unify(Int(1), Int(1), {}) == {}
    assert unify(Int(1), Int(2), {}) is None

    s = unify(x, y, {})
    assert s in ({x: y}, {y: x})


def test_unify_threads_existing_bindings():
    x, y = Var("X"), Var("Y")
    s0 = {x: Atom("a")}
    s = unify(struct("f", x), struct("f", y), s0)
    assert s is not None
    assert resolve(y, s) == Atom("a")
    assert s0 == {x: Atom("a")}  # input untouched


def test_unify_does_not_mutate_input():
    x = Var("X")
    original: dict = {}
    unify(x, Atom("a"), original)
    assert original == {}


def test_resolve_is_idempotent():
    x, y = Var("X"), Var("Y")
    s = {x: struct("f", y), y: Atom("a")}
    t = struct("g", x, y)
    once = resolve(t, s)
    assert once == struct("g", struct("f", Atom("a")), Atom("a"))
    assert resolve(once, s) == once


def test_walk_chases_single_level():
    x, y = Var("X"), Var("Y")
    s = {x: y, y: struct("f", Var("Z"))}
    assert walk(x, s) == struct("f", Var("Z"))


def test_term_vars_order_and_ground():
    t = struct("f", Var("B"), struct("g", Var("A"), Var("B")), Int(1))
    assert term_vars(t) == [Var("B"), Var("A")]
    assert not is_ground(t)
    assert is_ground(struct("f", Atom("a"), Int(0)))


def test_rename_term_stamps_ordinal():
    t = struct("legal", struct("choice", Var("P"), Var("M")), Var("S"))
    renamed = rename_term(t, 7)
    assert term_vars(renamed) == [Var("P", 7), Var("M", 7), Var("S", 7)]
    assert rename_term(Atom("a"), 3) == Atom("a")


def test_a_deep_term_is_walked_without_recursion():
    # 5,000 compounds deep, f(A99, f(A98, ... f(A0, f(A99, ... z)))).
    n = 5_000
    term = Atom("z")
    for i in range(n):
        term = struct("f", Var(f"A{i % 100}"), term)
    text = "".join(f"f(A{i % 100}," for i in reversed(range(n))) + "z" + ")" * n
    assert str(term) == text
    assert term_vars(term) == [Var(f"A{i}") for i in reversed(range(100))]
    assert not is_ground(term)
    renamed = rename_term(term, 7)
    assert str(renamed) == text.replace(",", "_7,")
    assert term_vars(renamed) == [Var(f"A{i}", 7) for i in reversed(range(100))]
    ground = Atom("z")
    for _ in range(n):
        ground = struct("s", ground)
    assert is_ground(ground)
    # Equal terms built apart compare and hash equal.
    twin = rename_term(renamed, 0)
    assert twin is not term and twin == term and hash(twin) == hash(term)
    assert renamed != term and ground != term and term != Atom("z")
    assert rename_term(ground, 1) == ground and hash(rename_term(ground, 1)) == hash(ground)


def test_var_printing_includes_ordinal():
    assert str(Var("P")) == "P"
    assert str(Var("P", 4)) == "P_4"
    assert str(Atom("D")) == "'D'"
    assert str(Atom("s0")) == "s0"


# Random linear terms over disjoint variable pools: each variable occurs
# exactly once per term (enforced by a renaming pass), so successful
# unification can never build a cyclic binding (there is no occurs check,
# by design, and resolve would not terminate on a cycle).


def _linearize(term, prefix: str):
    counter = 0

    def rename(t):
        nonlocal counter
        if isinstance(t, Var):
            counter += 1
            return Var(f"{prefix}{counter}")
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(rename(a) for a in t.args))
        return t

    return rename(term)


# The strings of the regex [a-z][a-z0-9_]{0,5}, built without a regex.
_names = st.builds(
    operator.add,
    st.text(string.ascii_lowercase, min_size=1, max_size=1),
    st.text(string.ascii_lowercase + string.digits + "_", max_size=5),
)


def linear_terms(prefix: str):
    leaves = st.one_of(
        st.just(Var("V")),  # placeholder, renamed apart by _linearize
        st.builds(Atom, _names),
        st.builds(Int, st.integers(-99, 99)),
    )
    trees = st.recursive(
        leaves,
        lambda inner: st.builds(
            lambda f, args: Struct(f, tuple(args)),
            _names,
            st.lists(inner, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )
    return trees.map(lambda t: _linearize(t, prefix))


# The unification properties hold of the unifier lelma runs: the engine's
# answer to the goal `t1 = t2`, applied with the oracle's `resolve`.


def engine_unify(t1, t2):
    """The engine's answer to `t1 = t2` on an empty program, or None."""
    answers = solve_all(RuleBase(()), (Literal(struct("=", t1, t2)),))
    return answers[0] if answers else None


@given(linear_terms("L"), linear_terms("R"))
def test_unify_symmetric_success(t1, t2):
    assert (engine_unify(t1, t2) is None) == (engine_unify(t2, t1) is None)


@given(linear_terms("L"), linear_terms("R"))
def test_unifier_makes_terms_equal(t1, t2):
    s = engine_unify(t1, t2)
    if s is not None:
        assert oracles.resolve(t1, s) == oracles.resolve(t2, s)


@given(linear_terms("L"), linear_terms("R"))
def test_unifier_application_is_idempotent(t1, t2):
    s = engine_unify(t1, t2)
    if s is not None:
        applied = oracles.resolve(t1, s)
        assert oracles.resolve(applied, s) == applied


@given(linear_terms("L"), linear_terms("R"))
def test_the_engine_unifies_as_the_dict_unifier_does(t1, t2):
    s, expected = engine_unify(t1, t2), unify(t2, t1, {})
    assert (s is None) == (expected is None)
    if s is not None:
        assert oracles.resolve(t1, s) == oracles.resolve(t1, expected)
