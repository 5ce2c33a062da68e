"""Parser and printer for the Prolog-style game description dialect.

Grammar (one clause per `.`-terminated statement):

    clause   := term ( ":-" body )? "."
    body     := literal ( "," literal )*
    literal  := "\\+" term | term "=" term | term
    term     := integer | variable | atom | atom "(" term ("," term)* ")"

Atoms are lowercase identifiers or single-quoted strings; variables
start with an uppercase letter or underscore; `_` alone is anonymous
(each occurrence a fresh variable, normalized to `_1`, `_2`, ... when
the clause is built). `%` starts a line comment; `%!` lines carry
`key: value` metadata and are collected separately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .engine import Clause, Literal
from .terms import Atom, Int, Struct, Term, Var, term_vars


class ClauseSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int, expected: str = ""):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


@dataclass(frozen=True)
class _Token:
    kind: str  # ATOM QUOTED VAR INT PUNCT END
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<meta>%![^\n]*)
  | (?P<comment>%[^\n]*)
  | (?P<neck>:-)
  | (?P<naf>\\\+)
  | (?P<int>-?\d+)
  | (?P<atom>[a-z][a-zA-Z0-9_]*)
  | (?P<var>[A-Z_][a-zA-Z0-9_]*)
  | (?P<quoted>'[^'\n]*')
  | (?P<punct>[().,=])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> "tuple[list[_Token], list[tuple[int, str]]]":
    tokens: list[_Token] = []
    metadata: list[tuple[int, str]] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ClauseSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        column = pos - line_start + 1
        if m.lastgroup == "ws":
            segment = m.group()
            newlines = segment.count("\n")
            if newlines:
                line += newlines
                line_start = pos + segment.rindex("\n") + 1
        elif m.lastgroup == "meta":
            metadata.append((line, m.group()[2:].strip()))
        elif m.lastgroup == "comment":
            pass
        elif m.lastgroup == "neck":
            tokens.append(_Token("PUNCT", ":-", line, column))
        elif m.lastgroup == "naf":
            tokens.append(_Token("PUNCT", "\\+", line, column))
        elif m.lastgroup == "int":
            tokens.append(_Token("INT", m.group(), line, column))
        elif m.lastgroup == "atom":
            tokens.append(_Token("ATOM", m.group(), line, column))
        elif m.lastgroup == "var":
            tokens.append(_Token("VAR", m.group(), line, column))
        elif m.lastgroup == "quoted":
            tokens.append(_Token("QUOTED", m.group()[1:-1], line, column))
        else:
            tokens.append(_Token("PUNCT", m.group(), line, column))
        pos = m.end()
    tokens.append(_Token("END", "", line, len(text) - line_start + 1))
    return tokens, metadata


_ANON = "\x00anon"  # internal marker name for `_` occurrences, fixed up per clause


class _Parser:
    def __init__(self, tokens: "list[_Token]"):
        self.tokens = tokens
        self.pos = 0
        self.anon_serial = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind == "END" or tok.text != text:
            got = "end of input" if tok.kind == "END" else repr(tok.text)
            raise ClauseSyntaxError(f"unexpected {got}", tok.line, tok.column, expected=repr(text))
        return tok

    def parse_program(self) -> "list[Clause]":
        clauses = []
        while self.peek().kind != "END":
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self) -> Clause:
        self.anon_serial = 0
        head_tok = self.peek()
        head = self.parse_term()
        if not isinstance(head, (Atom, Struct)):
            raise ClauseSyntaxError(
                "clause head must be an atom or compound",
                head_tok.line,
                head_tok.column,
                expected="atom or compound",
            )
        body: tuple[Literal, ...] = ()
        if self.peek().text == ":-":
            self.take()
            body = self.parse_body()
        self.expect(".")
        return _normalize_anonymous(Clause(head, body))

    def parse_body(self) -> "tuple[Literal, ...]":
        literals = [self.parse_literal()]
        while self.peek().text == ",":
            self.take()
            literals.append(self.parse_literal())
        return tuple(literals)

    def parse_literal(self) -> Literal:
        if self.peek().text == "\\+":
            self.take()
            return Literal(self.parse_term(), negated=True)
        left = self.parse_term()
        if self.peek().text == "=":
            self.take()
            right = self.parse_term()
            return Literal(Struct("=", (left, right)), negated=False)
        return Literal(left, negated=False)

    def parse_term(self) -> Term:
        tok = self.take()
        if tok.kind == "INT":
            return Int(int(tok.text))
        if tok.kind == "VAR":
            if tok.text == "_":
                self.anon_serial += 1
                return Var(_ANON, self.anon_serial)
            return Var(tok.text)
        if tok.kind == "QUOTED":
            return Atom(tok.text)
        if tok.kind == "ATOM":
            if self.peek().text == "(":
                self.take()
                args = [self.parse_term()]
                while self.peek().text == ",":
                    self.take()
                    args.append(self.parse_term())
                self.expect(")")
                return Struct(tok.text, tuple(args))
            return Atom(tok.text)
        got = "end of input" if tok.kind == "END" else repr(tok.text)
        raise ClauseSyntaxError(f"unexpected {got}", tok.line, tok.column, expected="a term")


def _normalize_anonymous(clause: Clause) -> Clause:
    """Rename `_` occurrences to `_1`, `_2`, ... skipping names already used."""
    taken = {
        v.name
        for lit_term in (clause.head, *(l.term for l in clause.body))
        for v in term_vars(lit_term)
        if v.name != _ANON
    }
    mapping: dict[Var, Var] = {}
    counter = 1

    def fresh() -> str:
        nonlocal counter
        while f"_{counter}" in taken:
            counter += 1
        name = f"_{counter}"
        counter += 1
        return name

    def rewrite(term: Term) -> Term:
        if isinstance(term, Var):
            if term.name != _ANON:
                return term
            if term not in mapping:
                mapping[term] = Var(fresh())
            return mapping[term]
        if isinstance(term, Struct):
            return Struct(term.functor, tuple(rewrite(a) for a in term.args))
        return term

    head = rewrite(clause.head)
    body = tuple(Literal(rewrite(l.term), l.negated) for l in clause.body)
    return Clause(head, body)


def parse_program(text: str) -> "tuple[list[Clause], list[tuple[int, str]]]":
    """Parse a program; returns (clauses, metadata lines as (line, text))."""
    tokens, metadata = _tokenize(text)
    return _Parser(tokens).parse_program(), metadata


def parse_clause(text: str) -> Clause:
    tokens, _ = _tokenize(text)
    parser = _Parser(tokens)
    clause = parser.parse_clause()
    tail = parser.peek()
    if tail.kind != "END":
        raise ClauseSyntaxError(
            f"trailing input {tail.text!r}", tail.line, tail.column, expected="end of input"
        )
    return clause


def parse_goal(text: str) -> "tuple[Literal, ...]":
    """Parse a comma-separated goal (query) with an optional trailing period."""
    tokens, _ = _tokenize(text)
    parser = _Parser(tokens)
    body = parser.parse_body()
    if parser.peek().text == ".":
        parser.take()
    tail = parser.peek()
    if tail.kind != "END":
        raise ClauseSyntaxError(
            f"trailing input {tail.text!r}", tail.line, tail.column, expected="end of input"
        )
    return _normalize_anonymous(Clause(Atom("goal"), body)).body


def program_to_text(clauses: "list[Clause]") -> str:
    return "\n".join(str(c) for c in clauses) + "\n"
