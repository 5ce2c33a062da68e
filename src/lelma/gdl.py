"""Parser for the Prolog-style game description dialect.

Grammar (one clause per `.`-terminated statement):

    clause   := term ( ":-" body )? "."
    body     := literal ( "," literal )*
    literal  := "\\+"? ( term "=" term | term )
    term     := integer | variable | name | name "(" term ("," term)* ")"

A name (an atom or a functor) is a lowercase identifier or a
single-quoted string, in which `\\'`, `\\\\` and `\\n` stand for a quote, a
backslash and a newline. `\\+ A = B` negates the equation, as in Prolog.
Variables start with an uppercase letter or underscore; `_` alone is
anonymous: each occurrence is named as it is read, by the next `_1`,
`_2`, ... that its clause or goal does not write. `%` starts a line comment;
`%!` lines carry `key: value` metadata and are collected separately.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .engine import Clause, Literal
from .terms import Atom, Int, Struct, Term, Var


class ClauseSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int, expected: str = ""):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class _Token(NamedTuple):
    kind: str  # ATOM QUOTED VAR INT PUNCT END
    text: str
    pos: int  # offset in the text read


# An upper-case group reads a token of the kind it is named after; the
# lower-case groups read whitespace, comments and metadata, which are not tokens.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<meta>%![^\n]*)
  | (?P<comment>%[^\n]*)
  | (?P<PUNCT>:-|\\\+|[().,=])
  | (?P<INT>-?\d+)
  | (?P<ATOM>[a-z][a-zA-Z0-9_]*)
  | (?P<VAR>[A-Z_][a-zA-Z0-9_]*)
  | (?P<QUOTED>'(?:[^'\\\n]|\\[\\'n])*')
    """,
    re.VERBOSE,
)


_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", "'": "'", "n": "\n"}  # what each escape in a quoted name stands for


def _unquote(quoted: str) -> str:
    """The name a quoted-name token stands for."""
    name = quoted[1:-1]
    if "\\" in name:
        name = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], name)
    return name


def read_name(text: str) -> str:
    """The name `text` stands for: a single-quoted name read as the
    tokenizer reads it, any other text as is."""
    m = _TOKEN_RE.fullmatch(text)
    return _unquote(text) if m and m.lastgroup == "QUOTED" else text


def _line_column(text: str, pos: int) -> "tuple[int, int]":
    """The line and the column, both from 1, of offset `pos` in `text`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> "tuple[list[_Token], list[tuple[int, str]]]":
    tokens: list[_Token] = []
    metadata: list[tuple[int, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            message = f"unexpected character {text[pos]!r}"
            raise ClauseSyntaxError(message, *_line_column(text, pos))
        kind = m.lastgroup
        if kind.isupper():
            token = _unquote(m.group()) if kind == "QUOTED" else m.group()
            tokens.append(_Token(kind, token, pos))
        elif kind == "meta":
            metadata.append((_line_column(text, pos)[0], m.group()[2:].strip()))
        pos = m.end()
    tokens.append(_Token("END", "", len(text)))
    return tokens, metadata


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.metadata = _tokenize(text)
        self.pos = 0
        self.taken: set[str] = set()  # variable names written in the clause being read
        self.anon_serial = 0  # the number in the name last given to a `_`

    def error(self, tok: _Token, message: str, expected: str) -> ClauseSyntaxError:
        return ClauseSyntaxError(message, *_line_column(self.text, tok.pos), expected)

    def unexpected(self, tok: _Token, expected: str) -> ClauseSyntaxError:
        got = "end of input" if tok.kind == "END" else repr(tok.text)
        return self.error(tok, f"unexpected {got}", expected)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        """Whether the next token is the punctuation `text`, not a quoted
        name that reads the same."""
        tok = self.tokens[self.pos]
        return tok.kind == "PUNCT" and tok.text == text

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind != "PUNCT" or tok.text != text:
            raise self.unexpected(tok, repr(text))
        return tok

    def end(self) -> None:
        """Check that the input ends at the next token."""
        tail = self.peek()
        if tail.kind != "END":
            raise self.error(tail, f"trailing input {tail.text!r}", "end of input")

    def start_clause(self) -> None:
        """Note the variable names written from the next token to the clause's
        `.` or the end of input: each `_` then takes the next `_<n>` not among them."""
        self.taken.clear()
        self.anon_serial = 0
        tokens, i = self.tokens, self.pos
        while True:
            kind, text, _ = tokens[i]
            if kind == "VAR":
                self.taken.add(text)
            elif kind == "END" or (kind == "PUNCT" and text == "."):
                return
            i += 1

    def parse_program(self) -> "list[Clause]":
        clauses = []
        while self.peek().kind != "END":
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self) -> Clause:
        self.start_clause()
        head_tok = self.peek()
        head = self.parse_term()
        if not isinstance(head, (Atom, Struct)):
            message = "clause head must be an atom or compound"
            raise self.error(head_tok, message, "atom or compound")
        body: tuple[Literal, ...] = ()
        if self.at(":-"):
            self.take()
            body = self.parse_body()
        self.expect(".")
        return Clause(head, body)

    def parse_body(self) -> "tuple[Literal, ...]":
        literals = [self.parse_literal()]
        while self.at(","):
            self.take()
            literals.append(self.parse_literal())
        return tuple(literals)

    def parse_literal(self) -> Literal:
        negated = self.at("\\+")
        if negated:
            self.take()
        left = self.parse_term()
        if self.at("="):
            self.take()
            right = self.parse_term()
            return Literal(Struct("=", (left, right)), negated)
        return Literal(left, negated)

    def parse_term(self) -> Term:
        """Read one term. Compounds being read wait on a stack, so a deep
        term cannot exhaust Python's stack."""
        open_compounds: list[tuple[str, list[Term]]] = []  # (functor, args read so far)
        while True:
            tok = self.take()
            if tok.kind == "INT":
                term: Term = Int(int(tok.text))
            elif tok.kind == "VAR" and tok.text == "_":
                self.anon_serial += 1
                while f"_{self.anon_serial}" in self.taken:
                    self.anon_serial += 1
                term = Var(f"_{self.anon_serial}")
            elif tok.kind == "VAR":
                term = Var(tok.text)
            elif tok.kind in ("ATOM", "QUOTED") and self.at("("):
                self.take()
                open_compounds.append((tok.text, []))
                continue
            elif tok.kind in ("ATOM", "QUOTED"):
                term = Atom(tok.text)
            else:
                raise self.unexpected(tok, "a term")
            # `term` ends an argument: close each compound it completes.
            while open_compounds:
                functor, args = open_compounds[-1]
                args.append(term)
                if self.at(","):
                    self.take()
                    break
                self.expect(")")
                open_compounds.pop()
                term = Struct(functor, tuple(args))
            else:
                return term


def parse_program(text: str) -> "tuple[list[Clause], list[tuple[int, str]]]":
    """Parse a program; returns (clauses, metadata lines as (line, text))."""
    parser = _Parser(text)
    return parser.parse_program(), parser.metadata


def parse_clause(text: str) -> Clause:
    parser = _Parser(text)
    clause = parser.parse_clause()
    parser.end()
    return clause


def parse_goal(text: str) -> "tuple[Literal, ...]":
    """Parse a comma-separated goal (query) with an optional trailing period."""
    parser = _Parser(text)
    parser.start_clause()
    body = parser.parse_body()
    if parser.at("."):
        parser.take()
    parser.end()
    return body
