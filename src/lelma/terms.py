"""First-order terms and substitutions.

Terms are immutable: variables carry a renaming ordinal so
standardization-apart never captures, atoms and integers are leaves,
and compounds hold a functor plus a tuple of argument terms.
Substitutions are plain dicts mapping Var to Term; unification never
mutates its input substitution. There is no occurs check (by design,
matching standard Prolog behaviour); the game programs this engine
runs never create cyclic bindings.

The engine takes goals and returns answers in these terms, but it
searches over mutable variable cells of its own (see `engine`). The dict
substitutions and `unify`, `resolve` and `rename_term` serve the public
API and the engine's callers, not its inner loop; the engine binds
variables in the same direction as `unify`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    ordinal: int = 0

    def __str__(self) -> str:
        if self.ordinal:
            return f"{self.name}_{self.ordinal}"
        return self.name


@dataclass(frozen=True, slots=True)
class Atom:
    name: str

    def __str__(self) -> str:
        return _name_text(self.name)


@dataclass(frozen=True, slots=True)
class Int:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Struct:
    functor: str
    args: "tuple[Term, ...]"

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{_name_text(self.functor)}({inner})"


Term = Union[Var, Atom, Int, Struct]
Substitution = "dict[Var, Term]"

_BARE_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*")


def _name_text(name: str) -> str:
    """An atom's name or a functor as the `gdl` parser reads it back: bare
    when it can be, else single-quoted with its quotes, backslashes and
    newlines escaped."""
    if _BARE_ATOM.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
    return f"'{escaped}'"


def struct(functor: str, *args: Term) -> Struct:
    return Struct(functor, tuple(args))


def walk(term: Term, subst: "dict[Var, Term]") -> Term:
    """Chase variable bindings one level deep (no recursion into args)."""
    while isinstance(term, Var):
        bound = subst.get(term)
        if bound is None:
            return term
        term = bound
    return term


def resolve(term: Term, subst: "dict[Var, Term]") -> Term:
    """Apply a substitution all the way down. Idempotent."""
    term = walk(term, subst)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(resolve(a, subst) for a in term.args))
    return term


def unify(t1: Term, t2: Term, subst: "dict[Var, Term]") -> Optional["dict[Var, Term]"]:
    """Most general unifier extending `subst`, or None. `subst` is not mutated."""
    out = dict(subst)
    if _unify_into(t1, t2, out):
        return out
    return None


def _unify_into(t1: Term, t2: Term, subst: "dict[Var, Term]") -> bool:
    t1 = walk(t1, subst)
    t2 = walk(t2, subst)
    if t1 == t2:
        return True
    if isinstance(t1, Var):
        subst[t1] = t2
        return True
    if isinstance(t2, Var):
        subst[t2] = t1
        return True
    if isinstance(t1, Struct) and isinstance(t2, Struct):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return False
        return all(_unify_into(a, b, subst) for a, b in zip(t1.args, t2.args))
    return False


def term_vars(term: Term) -> "list[Var]":
    """Variables in first-occurrence (left-to-right, depth-first) order."""
    out: list[Var] = []
    seen: set[Var] = set()
    _collect_vars(term, out, seen)
    return out


def _collect_vars(term: Term, out: "list[Var]", seen: "set[Var]") -> None:
    if isinstance(term, Var):
        if term not in seen:
            seen.add(term)
            out.append(term)
    elif isinstance(term, Struct):
        for a in term.args:
            _collect_vars(a, out, seen)


def is_ground(term: Term) -> bool:
    if isinstance(term, Var):
        return False
    if isinstance(term, Struct):
        return all(is_ground(a) for a in term.args)
    return True


def rename_term(term: Term, ordinal: int) -> Term:
    """Give every variable in `term` the renaming ordinal `ordinal`."""
    if isinstance(term, Var):
        return Var(term.name, ordinal)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(rename_term(a, ordinal) for a in term.args))
    return term
