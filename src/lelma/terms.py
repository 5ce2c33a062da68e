"""First-order terms and substitutions.

Terms are immutable: variables carry a renaming ordinal so
standardization-apart never captures, atoms and integers are leaves,
and compounds hold a functor plus a tuple of argument terms.
Substitutions are plain dicts mapping Var to Term; unification never
mutates its input substitution. There is no occurs check (by design,
matching standard Prolog behaviour); the game programs this engine
runs never create cyclic bindings.

The engine takes goals and returns answers in these terms, an answer
being a dict substitution, but it searches over mutable variable cells
of its own (see `engine`). No package code calls `unify`, `resolve` or
`rename_term`, and `lelma` does not export them: they are the reference
the tests check the engine against, and perfbench times them. The engine
binds variables as `unify(head, goal)` would, and as `unify(B, A)` for
`A = B`, and names a renamed variable as `rename_term` does.

`fold` walks a term's structure without recursion. Printing, hashing,
`term_vars`, `is_ground`, `rename_term`, the parser's renaming of `_`
and the engine's conversion of a goal into cells are folds, and `==`
compares with a stack of pairs, so a term of any depth prints and
compares; `resolve` and `_unify_into` still recurse.
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
        return fold(self, str, lambda functor, args: f"{_name_text(functor)}({','.join(args)})")

    def __eq__(self, other) -> bool:
        if type(other) is not Struct:
            return NotImplemented
        todo = [(self, other)]  # pairs of terms still to compare
        while todo:
            a, b = todo.pop()
            if type(a) is not Struct or type(b) is not Struct:
                if a != b:
                    return False
            elif a is not b:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                todo += zip(a.args, b.args)
        return True

    def __hash__(self) -> int:
        return fold(self, hash, lambda functor, args: hash((functor, args)))


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


def fold(term: Term, leaf, node):
    """Fold `term` bottom-up: `leaf(t)` maps each variable, atom and
    integer, left to right, and `node(functor, args)` maps each compound,
    `args` being the tuple of its arguments' results.

    Iterative, so a deep term cannot exhaust Python's stack.
    """
    open_compounds: list = []  # (functor, args, results of the args folded so far)
    while True:
        while isinstance(term, Struct) and term.args:
            open_compounds.append((term.functor, term.args, []))
            term = term.args[0]
        value = node(term.functor, ()) if isinstance(term, Struct) else leaf(term)
        # `value` ends an argument: fold each compound it completes.
        while open_compounds:
            functor, args, done = open_compounds[-1]
            done.append(value)
            if len(done) < len(args):
                term = args[len(done)]
                break
            open_compounds.pop()
            value = node(functor, tuple(done))
        else:
            return value


def term_vars(term: Term) -> "list[Var]":
    """Variables in first-occurrence (left-to-right, depth-first) order."""
    if not isinstance(term, Struct):
        return [term] if isinstance(term, Var) else []
    found: dict[Var, None] = {}  # keeps the order of first insertion
    fold(term, lambda t: found.setdefault(t) if isinstance(t, Var) else None, lambda f, a: None)
    return list(found)


def is_ground(term: Term) -> bool:
    return not term_vars(term)


def rename_term(term: Term, ordinal: int) -> Term:
    """Give every variable in `term` the renaming ordinal `ordinal`."""
    return fold(term, lambda t: Var(t.name, ordinal) if isinstance(t, Var) else t, Struct)
