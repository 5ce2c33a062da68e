from __future__ import annotations

import operator
import string

import pytest
from hypothesis import given, strategies as st

from lelma.engine import Clause, Literal
from lelma.gdl import (
    ClauseSyntaxError,
    parse_clause,
    parse_goal,
    parse_program,
)
from lelma.terms import Atom, Int, Struct, Var


def test_parse_facts_and_rules():
    clauses, meta = parse_program("p(a).\nq(X) :- p(X), r(X, 1).")
    assert meta == []
    assert clauses[0] == Clause(Struct("p", (Atom("a"),)))
    rule = clauses[1]
    assert rule.head == Struct("q", (Var("X"),))
    assert [l.term for l in rule.body] == [
        Struct("p", (Var("X"),)),
        Struct("r", (Var("X"), Int(1))),
    ]


def test_parse_quoted_atoms_and_integers():
    clause = parse_clause("payoff('D', 'C', 5, 0).")
    assert clause.head == Struct(
        "payoff", (Atom("D"), Atom("C"), Int(5), Int(0))
    )


def test_parse_negation_and_infix_eq():
    clause = parse_clause("final(S) :- ground(S), S = do(M, I), initial(I).")
    assert clause.body[0] == Literal(Struct("ground", (Var("S"),)))
    eq = clause.body[1]
    assert not eq.negated
    assert eq.term == Struct("=", (Var("S"), Struct("do", (Var("M"), Var("I")))))

    neg = parse_clause("game(S,F) :- \\+ final(S), legal(M,S), game(do(M,S),F).")
    assert neg.body[0].negated and neg.body[0].term == Struct("final", (Var("S"),))


def test_anonymous_variables_are_distinct_and_normalized():
    clause = parse_clause("f(_, _, X).")
    assert isinstance(clause.head, Struct)
    first, second, third = clause.head.args
    assert first == Var("_1") and second == Var("_2") and third == Var("X")
    assert first != second


def test_anonymous_naming_avoids_user_variables():
    clause = parse_clause("f(_1, _).")
    assert isinstance(clause.head, Struct)
    named, anon = clause.head.args
    assert named == Var("_1")
    assert anon == Var("_2")


def test_comments_and_metadata():
    text = """
    %! name: demo
    % a plain comment
    p(a). % trailing comment
    %! label R: 'D'
    """
    clauses, meta = parse_program(text)
    assert len(clauses) == 1
    assert meta == [(2, "name: demo"), (5, "label R: 'D'")]


def test_syntax_error_position_and_expectation():
    with pytest.raises(ClauseSyntaxError) as err:
        parse_program("p(a)\nq(b).")
    assert err.value.line == 2  # the missing period shows up at the next token
    assert "expected" in str(err.value)

    with pytest.raises(ClauseSyntaxError) as err:
        parse_program("p(a, .")
    assert err.value.expected == "a term"

    with pytest.raises(ClauseSyntaxError):
        parse_program("p(a) :- .")

    with pytest.raises(ClauseSyntaxError) as err:
        parse_program("p(#).")
    assert "unexpected character" in str(err.value)


def test_clause_head_must_be_callable():
    with pytest.raises(ClauseSyntaxError):
        parse_clause("X :- p(a).")
    with pytest.raises(ClauseSyntaxError):
        parse_clause("1.")


def test_parse_clause_rejects_trailing_input():
    with pytest.raises(ClauseSyntaxError):
        parse_clause("p(a). q(b).")


def test_parse_goal():
    goal = parse_goal("game(s0,F), finally(goal(p1,5),F)")
    assert len(goal) == 2
    assert goal[0].term == Struct("game", (Atom("s0"), Var("F")))
    assert parse_goal("p(a).") == parse_goal("p(a)")
    with pytest.raises(ClauseSyntaxError):
        parse_goal("p(a) q(b)")


def test_printing_quotes_only_when_needed():
    clause = parse_clause("payoff('D','ok_atom',1,-2).")
    assert str(clause) == "payoff('D',ok_atom,1,-2)."


def test_negated_equation_parses_and_prints_back():
    text = "p(X) :- \\+ X = f(Y)."
    clause = parse_clause(text)
    x, y = Var("X"), Var("Y")
    assert clause.body == (Literal(Struct("=", (x, Struct("f", (y,)))), negated=True),)
    assert str(clause) == text
    assert parse_clause(str(clause)) == clause
    assert parse_goal("\\+ a = b, c = d") == (
        Literal(Struct("=", (Atom("a"), Atom("b"))), negated=True),
        Literal(Struct("=", (Atom("c"), Atom("d")))),
    )


@pytest.mark.parametrize(
    "term, text",
    [
        (Atom("it's"), "'it\\'s'"),
        (Atom("back\\slash"), "'back\\\\slash'"),
        (Atom("two\nlines"), "'two\\nlines'"),
        (Atom("\\'"), "'\\\\\\''"),
        (Atom(""), "''"),
        (Struct("a b", (Atom("c"),)), "'a b'(c)"),
        (Struct("it's", (Atom("("), Atom(","), Atom(")"))), "'it\\'s'('(',',',')')"),
    ],
)
def test_quoted_names_print_escaped_and_parse_back(term, text):
    assert str(term) == text
    (literal,) = parse_goal(f"p({text})")
    assert literal.term == Struct("p", (term,))


def test_a_deep_term_parses_and_prints_back():
    # 5,000 compounds deep; the parser keeps the compounds it is reading
    # on a stack of its own, not Python's.
    n = 5_000
    text = "p(" + "".join(f"f(A{i % 100}," for i in range(n)) + "z" + ")" * (n + 1)
    (literal,) = parse_goal(text)
    assert str(literal) == text
    (literal,) = parse_goal("p(" + "f(_," * n + "z" + ")" * (n + 1))  # n variables `_`
    assert str(literal) == "p(" + "".join(f"f(_{i + 1}," for i in range(n)) + "z" + ")" * (n + 1)


def test_quoted_punctuation_is_a_name_not_punctuation():
    for text in ("p(a ',' b)", "p(a ')'", "p(a) '.'"):
        with pytest.raises(ClauseSyntaxError):
            parse_clause(text)
    with pytest.raises(ClauseSyntaxError):
        parse_goal("p('a\\b')")  # \b is no escape


# --- round-trip property ---------------------------------------------------

_WORD = string.ascii_letters + string.digits + "_"


def _names(first: str, rest: str, max_rest: int):
    """The strings of the regex [first][rest]{0,max_rest}, built without a regex."""
    return st.builds(
        operator.add, st.text(first, min_size=1, max_size=1), st.text(rest, max_size=max_rest)
    )


_atom_names = _names(string.ascii_lowercase, _WORD, 6)
_quoted_names = _names(string.ascii_uppercase, _WORD + " '\\\n", 6)
_functors = st.one_of(_atom_names, _quoted_names)
_var_names = _names(string.ascii_uppercase, _WORD, 4)

_leaf_terms = st.one_of(
    st.builds(Atom, _atom_names),
    st.builds(Atom, _quoted_names),
    st.builds(Int, st.integers(-999, 999)),
    st.builds(Var, _var_names),
)

_terms = st.recursive(
    _leaf_terms,
    lambda inner: st.builds(
        lambda f, args: Struct(f, tuple(args)),
        _functors,
        st.lists(inner, min_size=1, max_size=3),
    ),
    max_leaves=6,
)

_callable_terms = st.one_of(
    st.builds(Atom, _atom_names),
    st.builds(
        lambda f, args: Struct(f, tuple(args)),
        _functors,
        st.lists(_terms, min_size=1, max_size=4),
    ),
)

_literals = st.one_of(
    st.builds(lambda t: Literal(t, False), _terms),
    st.builds(lambda t: Literal(t, True), _terms),
    st.builds(lambda a, b: Literal(Struct("=", (a, b)), False), _terms, _terms),
    st.builds(lambda a, b: Literal(Struct("=", (a, b)), True), _terms, _terms),
)

clauses_strategy = st.builds(
    lambda head, body: Clause(head, tuple(body)),
    _callable_terms,
    st.lists(_literals, min_size=0, max_size=4),
)


@given(clauses_strategy)
def test_clause_round_trip(clause):
    assert parse_clause(str(clause)) == clause


@given(st.lists(clauses_strategy, min_size=0, max_size=5))
def test_program_round_trip(clauses):
    reparsed, meta = parse_program("".join(f"{c}\n" for c in clauses))
    assert reparsed == clauses
    assert meta == []
