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
During a search every variable is a mutable cell; binding one sets the
cell and pushes it on a trail, and backtracking to a choice point clears
the cells pushed since. `RuleBase` compiles each clause once into a
Python function that unifies the clause's head with a goal in
straight-line code, renaming the clause's variables as it meets them,
and returns the clause's body only once the head has unified. The
generated source holds the clause's shape only: its atoms, integers,
functors and variable names are closure values, so program text never
becomes code and clauses of one shape share one code object. Each
selected goal draws one renaming ordinal per clause of its predicate, in
source order, so a variable that an answer or an error prints is named
as `rename_apart(clause, ordinal)` names it. When a goal variable meets
a clause variable the goal variable is bound, as
`terms.unify(goal, head)` would bind it. There is no occurs check; an
answer or error message that meets a variable bound to a term containing
it raises LogicError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .terms import Atom, Int, Struct, Substitution, Term, Var, is_ground, rename_term, term_vars


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
        # Builtins shadow clauses of the same name and arity.
        self._compiled = {
            k: tuple(_compile(c) for c in v) for k, v in self._index.items() if k not in BUILTINS
        }

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


_FAIL = object()  # what a clause function returns when its head does not unify


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


def _to_term(t) -> Term:
    """The fully resolved `Term` of a cell term.

    Iterative, so a deep term cannot exhaust Python's stack. A variable
    bound to a term that contains it raises LogicError.
    """
    inside: set = set()  # bound _Refs whose compounds are being converted
    out: list = []  # converted terms; a compound takes its args off the end
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is list:  # the arguments of a compound are converted
            functor, n, refs = t
            args = tuple(out[len(out) - n :])
            del out[len(out) - n :]
            out.append(Struct(functor, args))
            inside.difference_update(refs)
            continue
        refs = []
        while type(t) is _Ref and t.value is not None:
            if t in inside:
                name = Var(t.name, t.ordinal)
                raise LogicError(f"cyclic term: {name} occurs in its own binding")
            refs.append(t)
            t = t.value
        if type(t) is tuple:
            inside.update(refs)
            todo.append([t[0], len(t) - 1, refs])
            todo.extend(reversed(t[1:]))
        elif type(t) is _Ref:
            out.append(Var(t.name, t.ordinal))
        elif type(t) is str:
            out.append(Atom(t))
        else:
            out.append(Int(t))
    return out[0]


def _is_ground(t) -> bool:
    while type(t) is _Ref:
        t = t.value
        if t is None:
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


# --- clause compilation --------------------------------------------------------
#
# Each clause becomes a Python function (goal, trail, ordinal, rest) that
# unifies its head with the walked goal term in straight-line code, renaming
# its variables to `_Ref(name, ordinal)` cells as it meets them, and returns
# its body as a goal chain onto `rest`, or _FAIL. Generated source holds only
# the clause's shape: every atom, integer, functor, ground compound and
# variable name is a closure value `k<n>` of a `make(k0, k1, ...)` factory,
# so program text never becomes code, and clauses that differ only in those
# values share one code object. The factories are cached by source text.

# Generated source -> its `make` factory. A factory depends on its source
# alone, so every RuleBase and thread may share it; two threads that race
# on a new shape just compile it twice.
_MAKERS: "dict[str, object]" = {}


class _ClauseCompiler:
    """Writes the source of one clause's function and collects the values
    its `make` factory is called with."""

    def __init__(self, clause: Clause) -> None:
        terms = (clause.head, *(l.term for l in clause.body))
        names = dict.fromkeys(v.name for t in terms for v in term_vars(t))
        self.local = {name: f"v{i}" for i, name in enumerate(names)}
        self.met: set[str] = set()  # variables whose local holds their value
        self.name_of: dict[str, str] = {}  # variable -> constant holding its name
        self.consts: list = []
        self.lines: list[str] = []
        self.temps = 0
        head = clause.head
        if isinstance(head, Atom):
            self.emit(2, "if type(goal) is not str:")
            self.emit(3, "return _FAIL")
        elif not head.args:
            self.emit(2, "if type(goal) is not tuple:")
            self.emit(3, "return _FAIL")
        for i, a in enumerate(head.args if isinstance(head, Struct) else (), 1):
            self.unify(2, a, f"goal[{i}]")
        chain = "rest"
        for l in reversed(clause.body):
            self.fresh(2, l.term)
            chain = f"({self.build(l.term)}, {l.negated}, {chain})"
        self.emit(2, f"return {chain}")

    def source(self) -> str:
        params = ", ".join(f"k{i}" for i in range(len(self.consts)))
        head = [f"def make({params}):", "    def clause(goal, trail, ordinal, rest):"]
        return "\n".join(head + self.lines + ["    return clause", ""])

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def emit(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

    def fresh(self, indent: int, term: Term) -> None:
        """Give each variable of `term` not met yet a new cell."""
        for v in term_vars(term):
            if v.name not in self.met:
                self.met.add(v.name)
                if v.name not in self.name_of:
                    self.name_of[v.name] = self.const(v.name)
                self.emit(indent, f"{self.local[v.name]} = _Ref({self.name_of[v.name]}, ordinal)")

    def build(self, term: Term) -> str:
        """An expression for the cell term of `term`, whose variables are met."""
        if isinstance(term, Var):
            return self.local[term.name]
        if isinstance(term, Struct) and not is_ground(term):
            args = "".join(f", {self.build(a)}" for a in term.args)
            return f"({self.const(term.functor)}{args})"
        return self.const(_to_cells(term, {}))

    def unify(self, indent: int, h: Term, g: str) -> None:
        """Code that unifies clause term `h` with the goal cell term `g`,
        binding as `_unify(g, renamed h)` would, or returns _FAIL.

        A variable met before is unified in full. Otherwise the goal term
        is walked: an unbound goal variable is bound to `h` built with new
        cells; a bound goal term stands for a variable `h` met here for the
        first time, or is matched against an atom, integer or compound `h`
        part by part.
        """
        emit = self.emit
        if isinstance(h, Var) and h.name in self.met:
            v = self.local[h.name]
            emit(indent, f"if {g} is not {v} and not _unify({g}, {v}, trail):")
            emit(indent + 1, "return _FAIL")
            return
        t = f"t{self.temps}"
        self.temps += 1
        emit(indent, f"{t} = {g}")
        emit(indent, f"while type({t}) is _Ref:")
        emit(indent + 1, f"if {t}.value is None:")
        met = set(self.met)
        self.fresh(indent + 2, h)
        built = self.build(h)
        emit(indent + 2, f"{t}.value = {built}")
        emit(indent + 2, f"trail.append({t})")
        emit(indent + 2, "break")
        emit(indent + 1, f"{t} = {t}.value")
        emit(indent, "else:")
        self.met = met
        if isinstance(h, Var):
            self.met.add(h.name)
            emit(indent + 1, f"{built} = {t}")
        elif isinstance(h, Struct):
            n = len(h.args) + 1
            f = self.const(h.functor)
            emit(indent + 1, f"if type({t}) is not tuple or len({t}) != {n} or {t}[0] != {f}:")
            emit(indent + 2, "return _FAIL")
            for i, a in enumerate(h.args, 1):
                self.unify(indent + 1, a, f"{t}[{i}]")
        else:
            emit(indent + 1, f"if {t} != {built}:")
            emit(indent + 2, "return _FAIL")


def _compile(clause: Clause):
    """The clause's function (goal, trail, ordinal, rest) -> goal chain | _FAIL.

    `goal` is a walked goal term of the clause's predicate. The function
    renames the clause's variables with `ordinal` and returns the body
    literals as (cell term, negated, rest) nodes ahead of `rest`.
    """
    compiler = _ClauseCompiler(clause)
    source = compiler.source()
    make = _MAKERS.get(source)
    if make is None:
        namespace = {"_Ref": _Ref, "_unify": _unify, "_FAIL": _FAIL}
        exec(compile(source, "<lelma clause>", "exec"), namespace)
        make = _MAKERS[source] = namespace["make"]
    return make(*compiler.consts)


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
        goal term, clause functions, next clause index, first clause's
        ordinal, goals after the selected one, depth of the body).
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
                while type(term) is _Ref and term.value is not None:
                    term = term.value
                if negated:
                    if not _is_ground(term):
                        raise FlounderedNegation(_to_term(term))
                    mark = len(trail)
                    proved = next(self.run((term, False, None), depth), False)
                    for ref in trail[mark:]:
                        ref.value = None
                    del trail[mark:]
                    if not proved:
                        continue
                else:
                    if type(term) is tuple:
                        key = (term[0], len(term) - 1)
                    elif type(term) is str:
                        key = (term, 0)
                    else:
                        raise LogicError(f"callable goal expected, got {_to_term(term)}")
                    clauses = self.index.get(key)
                    if clauses is not None:
                        if depth >= self.max_depth:
                            raise LimitExceeded("depth", self.max_depth)
                        alt = (len(trail), term, clauses, 0, self.ordinal, goals, depth + 1)
                        self.ordinal += len(clauses)
                    elif key == ("=", 2):
                        if _unify(term[1], term[2], trail):
                            continue
                    elif key == ("ground", 1):
                        if _is_ground(term[1]):
                            continue
                    else:
                        raise UnknownPredicate(*key)
            # Resume the clauses of `alt`, or of the newest choice point.
            while True:
                if alt is None:
                    if not choices:
                        return
                    alt = choices.pop()
                mark, term, clauses, first, ordinal, rest, depth = alt
                for i in range(first, len(clauses)):
                    if len(trail) > mark:
                        for ref in trail[mark:]:
                            ref.value = None
                        del trail[mark:]
                    goals = clauses[i](term, trail, ordinal + i, rest)
                    if goals is not _FAIL:
                        break
                else:
                    alt = None
                    continue
                if i + 1 < len(clauses):
                    choices.append((mark, term, clauses, i + 1, ordinal, rest, depth))
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
