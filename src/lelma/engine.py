"""SLD resolution with negation as failure.

Search is depth-first, literals resolve left to right, clauses are
tried in source order, so answer order is deterministic. Negated
literals must be ground when selected (floundering is an error, not a
silent failure) and succeed exactly when the subproof yields nothing.
Two builtins: ground/1 and =/2. Budgets turn accidental
non-termination into LimitExceeded instead of a hang; subproofs spend
from the same step budget as the outer proof. A step is one selected
goal; the depth of a goal is the number of clauses resolved on the
way to it.

Bindings are made in place and undone on backtracking, as in the WAM
(Ait-Kaci, Warren's Abstract Machine: A Tutorial Reconstruction, 1991).
`RuleBase` compiles each clause once into templates. During a search
every variable is a mutable cell; binding one sets the cell and pushes
it on a trail, and backtracking to a choice point clears the cells
pushed since. A clause is skipped without work when an argument of its
head clashes with the goal's (different atoms, integers or functors).
Otherwise its variables are renamed while its head unifies, and its
body is built only when the head unification succeeds. Each selected
goal draws one renaming ordinal per clause of its predicate, in source
order, skipped or not, so a variable that an answer or an error prints
is named as `rename_apart(clause, ordinal)` names it. When a goal
variable meets a clause variable the goal variable is bound, as
`terms.unify(goal, head)` would bind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .terms import Atom, Int, Struct, Substitution, Term, Var, rename_term


class LogicError(Exception):
    """Base class for resolution-time errors."""


class LimitExceeded(LogicError):
    def __init__(self, kind: str, limit: int):
        super().__init__(f"resolution {kind} limit exceeded ({limit})")
        self.kind = kind
        self.limit = limit


class FlounderedNegation(LogicError):
    def __init__(self, goal: Term):
        super().__init__(f"negated goal is not ground when selected: \\+ {goal}")
        self.goal = goal


class UnknownPredicate(LogicError):
    def __init__(self, functor: str, arity: int):
        super().__init__(f"unknown predicate {functor}/{arity}")
        self.functor = functor
        self.arity = arity


@dataclass(frozen=True, slots=True)
class Literal:
    term: Term
    negated: bool = False

    def __str__(self) -> str:
        if self.negated:
            return f"\\+ {self.term}"
        if isinstance(self.term, Struct) and self.term.functor == "=" and len(self.term.args) == 2:
            return f"{self.term.args[0]} = {self.term.args[1]}"
        return str(self.term)


def pos(term: Term) -> Literal:
    return Literal(term, False)


def neg(term: Term) -> Literal:
    return Literal(term, True)


@dataclass(frozen=True, slots=True)
class Clause:
    head: Term
    body: "tuple[Literal, ...]" = ()

    def __post_init__(self) -> None:
        if not isinstance(self.head, (Atom, Struct)):
            raise ValueError(f"clause head must be an atom or compound, got {self.head!r}")

    def key(self) -> "tuple[str, int]":
        if isinstance(self.head, Struct):
            return (self.head.functor, len(self.head.args))
        return (self.head.name, 0)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


def rename_apart(clause: Clause, ordinal: int) -> Clause:
    """Standardize a clause apart by stamping `ordinal` on every variable.

    Distinct variables in a parsed clause always have distinct names, so a
    shared ordinal keeps them distinct while guaranteeing freshness against
    every other renaming step. The search renames clauses while unifying
    their heads, into the same names and ordinals as this function.
    """
    head = rename_term(clause.head, ordinal)
    body = tuple(Literal(rename_term(l.term, ordinal), l.negated) for l in clause.body)
    return Clause(head, body)


class RuleBase:
    """An immutable, source-ordered program indexed by functor/arity,
    with each clause compiled once for the search."""

    def __init__(self, clauses: Iterable[Clause]):
        self._clauses: tuple[Clause, ...] = tuple(clauses)
        index: dict[tuple[str, int], list[Clause]] = {}
        for c in self._clauses:
            index.setdefault(c.key(), []).append(c)
        self._index = {k: tuple(v) for k, v in index.items()}
        self._compiled = {k: tuple(_compile(c) for c in v) for k, v in self._index.items()}

    @property
    def clauses(self) -> "tuple[Clause, ...]":
        return self._clauses

    def matching(self, key: "tuple[str, int]") -> "tuple[Clause, ...]":
        return self._index.get(key, ())

    def __len__(self) -> int:
        return len(self._clauses)


@dataclass(frozen=True, slots=True)
class ResolutionLimits:
    max_steps: int = 100_000
    max_depth: int = 512


BUILTINS = {("ground", 1), ("=", 2)}


# --- cell terms -------------------------------------------------------------
#
# Inside a search a term is a str (atom), an int (integer), a tuple
# (functor, arg, ...) (compound) or a _Ref (variable). A _Ref is bound by
# setting its value and unbound by clearing it; `Term` values are
# converted in once per goal and out once per answer or error message.


class _Ref:
    """A variable cell, unbound while `value` is None."""

    __slots__ = ("name", "ordinal", "value")

    def __init__(self, name: str, ordinal: int) -> None:
        self.name = name
        self.ordinal = ordinal
        self.value = None


class _Slot:
    """A clause variable, numbered within its clause."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name


class _Skel:
    """A clause compound with variables inside, rebuilt for each renaming.

    Ground compounds of a clause are plain cell terms and are shared.
    """

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple) -> None:
        self.functor = functor
        self.args = args


def _to_cells(term: Term, cells: "dict[Var, _Ref]"):
    if isinstance(term, Var):
        ref = cells.get(term)
        if ref is None:
            ref = cells[term] = _Ref(term.name, term.ordinal)
        return ref
    if isinstance(term, Struct):
        return (term.functor, *[_to_cells(a, cells) for a in term.args])
    if isinstance(term, Atom):
        return term.name
    return term.value


def _walk(t):
    while type(t) is _Ref and t.value is not None:
        t = t.value
    return t


def _undo(trail: "list[_Ref]", mark: int) -> None:
    """Unbind the cells bound since the trail was `mark` long."""
    while len(trail) > mark:
        trail.pop().value = None


def _to_term(t) -> Term:
    """The fully resolved `Term` of a cell term."""
    t = _walk(t)
    if type(t) is _Ref:
        return Var(t.name, t.ordinal)
    if type(t) is tuple:
        return Struct(t[0], tuple(_to_term(a) for a in t[1:]))
    if type(t) is str:
        return Atom(t)
    return Int(t)


def _is_ground(t) -> bool:
    t = _walk(t)
    if type(t) is _Ref:
        return False
    if type(t) is tuple:
        for a in t[1:]:
            if not _is_ground(a):
                return False
    return True


def _unify(a, b, trail: list) -> bool:
    """Unify two cell terms; when both are variables `a` is bound to `b`."""
    while type(a) is _Ref and a.value is not None:
        a = a.value
    while type(b) is _Ref and b.value is not None:
        b = b.value
    if a is b:
        return True
    if type(a) is _Ref:
        a.value = b
        trail.append(a)
        return True
    if type(b) is _Ref:
        b.value = a
        trail.append(b)
        return True
    if type(a) is tuple:
        if type(b) is not tuple or len(a) != len(b) or a[0] != b[0]:
            return False
        for i in range(1, len(a)):
            if not _unify(a[i], b[i], trail):
                return False
        return True
    return a == b


def _build(h, frame: list, ordinal: int):
    """The cell term of clause template `h` under renaming `ordinal`."""
    kind = type(h)
    if kind is _Slot:
        ref = frame[h.index]
        if ref is None:
            ref = frame[h.index] = _Ref(h.name, ordinal)
        return ref
    if kind is _Skel:
        return (h.functor, *[_build(a, frame, ordinal) for a in h.args])
    return h


def _unify_head(h, g, frame: list, ordinal: int, trail: list) -> bool:
    """Unify clause template `h` with goal cell term `g`, renaming as it goes.

    Binds as `_unify(g, renamed h)` would. A clause variable first met
    against a bound goal term just stands for that term; against an unbound
    goal variable it gets a cell, and the goal variable is bound to it.
    """
    while type(g) is _Ref and g.value is not None:
        g = g.value
    kind = type(h)
    if kind is _Slot:
        ref = frame[h.index]
        if ref is not None:
            return _unify(g, ref, trail)
        if type(g) is _Ref:
            g.value = frame[h.index] = _Ref(h.name, ordinal)
            trail.append(g)
        else:
            frame[h.index] = g
        return True
    if type(g) is _Ref:
        g.value = _build(h, frame, ordinal) if kind is _Skel else h
        trail.append(g)
        return True
    if kind is _Skel:
        args = h.args
        if type(g) is not tuple or g[0] != h.functor or len(g) != len(args) + 1:
            return False
        for i, a in enumerate(args, 1):
            if not _unify_head(a, g[i], frame, ordinal, trail):
                return False
        return True
    return _unify(g, h, trail)


def _signature(t):
    """What must agree for two arguments to unify: the atom, the integer,
    or a compound's (functor, length); None for an unbound variable."""
    if type(t) is tuple:
        return (t[0], len(t))
    if type(t) is _Skel:
        return (t.functor, len(t.args) + 1)
    if type(t) is _Ref:
        return None
    return t


def _compile(clause: Clause):
    """(prefilter checks, head templates, reversed body templates, slot count).

    A check (i, sig) says the goal's i-th argument must have signature
    sig unless it is an unbound variable. A head of arity 0 gets one
    check on index 0 that tells an atom head from a compound one.
    """
    slots: dict[str, _Slot] = {}

    def template(t: Term):
        if isinstance(t, Var):
            slot = slots.get(t.name)
            if slot is None:
                slot = slots[t.name] = _Slot(len(slots), t.name)
            return slot
        if isinstance(t, Struct):
            args = tuple(template(a) for a in t.args)
            if any(type(a) is _Slot or type(a) is _Skel for a in args):
                return _Skel(t.functor, args)
            return (t.functor, *args)
        return _to_cells(t, {})

    head = clause.head
    if isinstance(head, Struct):
        args = tuple(template(a) for a in head.args)
        checks = tuple((i, _signature(a)) for i, a in enumerate(args) if type(a) is not _Slot)
        if not args:
            checks = ((0, (head.functor, 1)),)
    else:
        args = ()
        checks = ((0, head.name),)
    body = tuple((template(l.term), l.negated) for l in reversed(clause.body))
    return checks, args, body, len(slots)


class _Search:
    """One proof search: the bindings trail, the step budget and the
    renaming ordinals, shared by the outer proof and its `\\+` subproofs."""

    def __init__(self, rulebase: RuleBase, limits: ResolutionLimits) -> None:
        self.index = rulebase._compiled
        self.trail: list[_Ref] = []
        self.max_steps = limits.max_steps
        self.steps_left = limits.max_steps
        self.max_depth = limits.max_depth
        self.ordinal = 1

    def run(self, goals, depth: int) -> Iterator[bool]:
        """Yield once per proof of `goals`, a linked list of (cell term,
        negated, rest) nodes ending in None, with the proof's bindings in
        place while suspended.

        A choice point, and `alt` for a goal just selected, is (trail mark,
        goal arguments, their signatures, clauses, next clause index, first
        clause's ordinal, goals after the selected one, depth of the body).
        """
        trail = self.trail
        choices: list[tuple] = []
        while True:
            alt = None
            if goals is None:
                yield True
            else:
                if self.steps_left <= 0:
                    raise LimitExceeded("step", self.max_steps)
                self.steps_left -= 1
                term, negated, goals = goals
                term = _walk(term)
                if negated:
                    if not _is_ground(term):
                        raise FlounderedNegation(_to_term(term))
                    mark = len(trail)
                    proved = next(self.run((term, False, None), depth), False)
                    _undo(trail, mark)
                    if not proved:
                        continue
                else:
                    if type(term) is tuple:
                        key = (term[0], len(term) - 1)
                    elif type(term) is str:
                        key = (term, 0)
                    else:
                        raise LogicError(f"callable goal expected, got {_to_term(term)}")
                    if key == ("=", 2):
                        if _unify(term[1], term[2], trail):
                            continue
                    elif key == ("ground", 1):
                        if _is_ground(term[1]):
                            continue
                    else:
                        clauses = self.index.get(key)
                        if clauses is None:
                            raise UnknownPredicate(*key)
                        if depth >= self.max_depth:
                            raise LimitExceeded("depth", self.max_depth)
                        args = term[1:] if type(term) is tuple else ()
                        sigs = [_signature(_walk(a)) for a in args] or [_signature(term)]
                        alt = (len(trail), args, sigs, clauses, 0, self.ordinal, goals, depth + 1)
                        self.ordinal += len(clauses)
            # Resume the clauses of `alt`, or of the newest choice point.
            while True:
                if alt is None:
                    if not choices:
                        return
                    alt = choices.pop()
                mark, args, sigs, clauses, first, ordinal, rest, depth = alt
                _undo(trail, mark)
                for i in range(first, len(clauses)):
                    checks, head, body, size = clauses[i]
                    for j, sig in checks:
                        if sigs[j] is not None and sigs[j] != sig:
                            break
                    else:
                        frame = [None] * size
                        for h, g in zip(head, args):
                            if not _unify_head(h, g, frame, ordinal + i, trail):
                                break
                        else:
                            break
                        _undo(trail, mark)
                else:
                    alt = None
                    continue
                if i + 1 < len(clauses):
                    choices.append((mark, args, sigs, clauses, i + 1, ordinal, rest, depth))
                goals = rest
                for t, negated in body:
                    goals = (_build(t, frame, ordinal + i), negated, goals)
                break


def solve(
    rulebase: RuleBase,
    goal: Sequence[Literal],
    limits: Optional[ResolutionLimits] = None,
) -> Iterator[Substitution]:
    """Yield answer substitutions for `goal`, restricted to its variables.

    Lazy: answers are produced on demand in derivation order. Unbound goal
    variables are left out of an answer. A goal variable is never the same
    variable as a renamed clause variable, whatever its ordinal.
    """
    goals = tuple(goal)
    if not goals:
        raise ValueError("empty goal")
    cells: dict[Var, _Ref] = {}
    chain = None
    for lit in [(_to_cells(l.term, cells), l.negated) for l in goals][::-1]:
        chain = (*lit, chain)
    search = _Search(rulebase, limits or ResolutionLimits())
    for _ in search.run(chain, 0):
        answer: Substitution = {}
        for v, ref in cells.items():
            value = _to_term(ref)
            if value != v:
                answer[v] = value
        yield answer


def solve_all(
    rulebase: RuleBase,
    goal: Sequence[Literal],
    limits: Optional[ResolutionLimits] = None,
) -> "list[Substitution]":
    return list(solve(rulebase, goal, limits))
