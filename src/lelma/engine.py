"""SLD resolution with negation as failure.

Search is depth-first, literals resolve left to right, clauses are
tried in source order, so answer order is deterministic. Negated
literals must be ground when selected (floundering is an error, not a
silent failure) and succeed exactly when the subproof yields nothing.
Two builtins: ground/1 and =/2. Budgets turn accidental
non-termination into LimitExceeded instead of a hang; subproofs spend
from the same step budget as the outer proof. A step is one selected
goal; the depth of a goal is the number of clauses resolved on the
way to it (see `ResolutionLimits`).

Bindings are made in place and undone on backtracking, as in the WAM
(Ait-Kaci, Warren's Abstract Machine: A Tutorial Reconstruction, 1991).
During a search every variable is a mutable cell, a plain list [value,
name, ordinal]; binding one sets the cell's value and pushes it on a
trail, and backtracking to a choice point clears the cells pushed
since. `RuleBase` compiles each clause once into a Python function that
unifies the clause's head with a goal in straight-line code, renaming
the clause's variables as it meets them, and returns the clause's body
only once the head has unified. A head variable's first occurrence
takes the goal's term in one assignment, with no cell, binding or trail
entry, as the WAM's `get_variable` does. A body literal `Var = NonVar`
is compiled the same way, into a function of its own, as the WAM
compiles a unification with `get_structure`: against a bound `Var` it
matches part by part, and the cells of the variables that occur in it
alone are made only when a binding needs them. It binds as the builtin
`=` would, unifying `Var` with `NonVar`. The generated source holds the
clause's shape only: its atoms, integers, functors and variable names
are closure values, so program text never becomes code and clauses of
one shape share one code object. Each selected goal draws one renaming
ordinal per clause of its predicate, in source order, and a clause
variable that gets a cell prints as `Var(name, ordinal)`: its name with
that ordinal, as `terms.rename_term` stamps it. When two unbound
variables meet, `_unify` binds the second it is given, so a clause's
variable is bound to the goal's, as `terms.unify(head, goal)` would
bind it, and an unbound goal variable prints with the caller's name.
There is no occurs check; an answer, an error message or a ground check
that meets a variable bound to a term containing it raises LogicError,
and so does a unification of cyclic terms that would never end.
Answers, error messages and ground checks past `_CYCLE_CHECK_AFTER`
compounds fold each shared part of a cell term once (`_fold_cells`), so
they take time linear in the term's stored size.

`RuleBase` also builds one entry per predicate. The entry switches on
the principal functor or constant of a goal's argument at the first
head position where the clauses' principal symbols differ, as the WAM's
`switch_on_term` does on the first argument (Warren, An Abstract Prolog
Instruction Set, SRI Tech. Note 309, 1983): the game rules'
`holds(F, s0)` tries only the clause whose second head argument is a
variable. A predicate of two or more clauses also guards the first
position where every head has the same principal symbol, so a goal
bound to another symbol there tries no clause: indexing on more than
the first argument (Santos Costa, Sagonas & Lopes, Demand-Driven
Indexing of Prolog Clauses, ICLP 2007), fixed once per RuleBase. A
skipped clause still keeps its ordinal. A compound keys by its functor
alone, since the clause functions check arity anyway. The compiler
notes each head argument's key as it writes that argument's code, and
stops after one whose code calls `_unify`, so skipping a clause never
skips a LogicError that unifying its head would raise. A clause whose
head or body arguments nest deeper than `_MAX_NESTING` compounds is
interpreted whole (`_interpreted`) and has no keys. Each body literal
is compiled into a goal node that carries its callee (the entry, a
builtin, a negation or the literal's own `=` function), so selecting a
goal looks nothing up, unless the goal is a variable or its predicate
is undefined. One loop runs a whole search. A `\\+` whose goal calls a
predicate of facts only, as the game rules' `\\+ abnormal(F, M, S)`
does, is decided in place: the loop tries the facts itself, in the
negated goal's step, and fails the `\\+` on the first that matches. Any
other `\\+` pushes a barrier choice point and runs its subproof in the
same loop, cutting back to the barrier and failing once the subproof is
proved. A choice point is pushed only while a later candidate clause is
left.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .terms import Atom, Int, Struct, Substitution, Term, Var, fold, term_vars


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
        super().__init__(f"unknown predicate {Atom(functor)}/{arity}")
        self.functor = functor
        self.arity = arity


@dataclass(frozen=True, slots=True)
class Literal:
    term: Term
    negated: bool = False

    def __str__(self) -> str:
        t = self.term
        if isinstance(t, Struct) and t.functor == "=" and len(t.args) == 2:
            text = f"{t.args[0]} = {t.args[1]}"
        else:
            text = str(t)
        return f"\\+ {text}" if self.negated else text


def _key(term: Term) -> "Optional[tuple[str, int]]":
    """The (name, arity) of the predicate `term` calls, if it is callable."""
    if isinstance(term, Struct):
        return (term.functor, len(term.args))
    if isinstance(term, Atom):
        return (term.name, 0)
    return None


@dataclass(frozen=True, slots=True)
class Clause:
    head: Term
    body: "tuple[Literal, ...]" = ()

    def __post_init__(self) -> None:
        if not isinstance(self.head, (Atom, Struct)):
            raise ValueError(f"clause head must be an atom or compound, got {self.head!r}")

    def key(self) -> "tuple[str, int]":
        return _key(self.head)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


class RuleBase:
    """An immutable, source-ordered program indexed by functor/arity,
    with each predicate compiled once into an entry for the search, in
    time linear in its size. A clause too deep for straight-line code is
    interpreted whole (see `_compile`)."""

    def __init__(self, clauses: Iterable[Clause]):
        index: dict[tuple[str, int], list[Clause]] = {}
        for c in clauses:
            index.setdefault(c.key(), []).append(c)
        self._index = {k: tuple(v) for k, v in index.items()}
        # Builtins shadow clauses of the same name and arity. Every entry
        # exists before any clause is compiled, because a clause's body
        # nodes hold the entries of the predicates they call.
        self._preds = {
            k: _Pred(all(not c.body for c in v)) for k, v in self._index.items() if k not in BUILTINS
        }
        for k, pred in self._preds.items():
            pred.fill([_compile(c, self._callee) for c in self._index[k]])

    def matching(self, key: "tuple[str, int]") -> "tuple[Clause, ...]":
        return self._index.get(key, ())

    def _callee(self, lit: Literal):
        """What the goal node of `lit` calls: its predicate's entry, a
        builtin, `_Not` of one of those, or None for a variable or an
        undefined predicate, which the search looks up when selected."""
        key = _key(lit.term)
        callee = self._preds.get(key) or BUILTINS.get(key)
        return _Not(callee) if lit.negated else callee


@dataclass(frozen=True, slots=True)
class ResolutionLimits:
    """The budgets of one search.

    `max_steps` bounds the goals selected, in `\\+` subproofs too.
    `max_depth` bounds the clauses resolved along a derivation, not the
    depth of the proof tree: the goals after a resolved literal inherit
    its depth + 1, so in a clause body of 600 calls to facts the last call
    runs 600 deep.
    """

    max_steps: int = 100_000
    max_depth: int = 512


# --- cell terms -------------------------------------------------------------
#
# Inside a search a term is a str (atom), an int (integer), a tuple
# (functor, arg, ...) (compound) or a list [value, name, ordinal] (variable),
# its cell. A cell is unbound while its value is None, bound by setting the
# value and unbound by clearing it; `Term` values are converted in once per
# goal and out once per answer or error message. A cell is a plain list
# because a search makes one per clause variable it renames, and a list is
# built in a fraction of the time an object's `__init__` takes.

_FAIL = object()  # what a clause function returns when its head does not unify


class _Mark(list):
    """An entry of a walk's to-do stack that is not a term: a list, so it
    unpacks as one, of its own type, so it is never taken for a cell."""

    __slots__ = ()


def _to_cells(term: Term, cells: "dict[Var, list]"):
    """The cell term of `term`; its variables are looked up in `cells`,
    and added to it in the order they occur."""

    def leaf(t):
        if isinstance(t, Var):
            cell = cells.get(t)
            if cell is None:
                cell = cells[t] = [None, t.name, t.ordinal]
            return cell
        return t.name if isinstance(t, Atom) else t.value

    return fold(term, leaf, lambda functor, args: (functor, *args))


def _fold_cells(t, leaf, node):
    """Fold the cell term `t` bottom-up, as `terms.fold` folds a `Term`:
    `leaf(c)` maps each atom, integer and unbound cell, left to right,
    `node(functor, args)` maps each compound, `args` being the tuple of
    its arguments' results, and a bound cell maps as its value does.

    Iterative, so a deep term cannot exhaust Python's stack. Each compound
    and each bound cell is folded once, however often it is shared: its
    result is kept by object identity, which is safe because every such
    object stays reachable from `t` during the fold. A variable met
    inside its own binding raises LogicError.
    """
    done: dict = {}  # the id of a folded bound cell or compound -> its result
    inside: set = set()  # ids of bound cells whose compounds are being folded
    out: list = []  # results; a compound takes its arguments' off the end
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is _Mark:  # the arguments of a compound are folded
            t, refs = t
            k = len(out) + 1 - len(t)
            value = done[id(t)] = node(t[0], tuple(out[k:]))
            del out[k:]
            inside.difference_update(refs)
        else:
            refs = []  # ids of the bound cells walked to reach t, not folded yet
            while type(t) is list and t[0] is not None and id(t) not in done:
                if id(t) in inside:
                    name = Var(t[1], t[2])
                    raise LogicError(f"cyclic term: {name} occurs in its own binding")
                refs.append(id(t))
                t = t[0]
            if type(t) is tuple:
                if id(t) not in done:
                    inside.update(refs)
                    todo.append(_Mark((t, refs)))
                    todo += t[:0:-1]
                    continue
                value = done[id(t)]
            elif type(t) is list and t[0] is not None:  # a folded one
                value = done[id(t)]
            else:
                value = leaf(t)
        for ref in refs:
            done[ref] = value
        out.append(value)
    return out[0]


def _term_leaf(c) -> Term:
    """The `Term` of an atom, integer or unbound cell."""
    if type(c) is str:
        return Atom(c)
    if type(c) is int:
        return Int(c)
    return Var(c[1], c[2])


def _to_term(t) -> Term:
    """The fully resolved `Term` of a cell term, in which a shared part is
    one shared `Term`. A variable bound to a term that contains it raises
    LogicError."""
    return _fold_cells(t, _term_leaf, Struct)


# Compounds `_is_ground` walks before it hands the term to `_fold_cells`, and
# pairs of compounds `_unify` walks before it checks for cycles.
_CYCLE_CHECK_AFTER = 10_000


def _is_ground(t) -> bool:
    """Whether a cell term has no unbound variable.

    Iterative, so a deep term cannot exhaust Python's stack. A walk that
    meets `_CYCLE_CHECK_AFTER` compounds, a shared one each time it is
    met, starts over as a `_fold_cells`, which checks each shared part
    once and raises LogicError for a cyclic binding instead of looping
    forever.
    """
    while type(t) is list:
        t = t[0]
        if t is None:
            return False
    if type(t) is not tuple:
        return True
    todo = [t]  # compounds whose arguments are still to be checked
    left = _CYCLE_CHECK_AFTER
    while todo:
        for a in todo.pop():  # the functor, a str, passes as ground
            while type(a) is list:
                a = a[0]
                if a is None:
                    return False
            if type(a) is tuple:
                todo.append(a)
        left -= 1
        if not left:
            return _fold_cells(t, lambda c: type(c) is not list, lambda f, args: all(args))
    return True


def _unify(a, b, trail: list) -> bool:
    """Unify two cell terms; when both are unbound variables `b` is bound
    to `a`. Compiled heads call `_unify(goal, clause)`, so a clause's
    variable is bound to the goal's, and the builtin `A = B` binds B's.

    Iterative, so deep terms cannot exhaust Python's stack. Pairs of
    arguments are unified left to right, depth first, as a recursive
    unification would. Once the walk has met `_CYCLE_CHECK_AFTER` pairs
    of compounds it also keeps the pairs it is inside and the pairs it
    has unified: a shared pair is then unified once, and meeting a pair
    again inside itself, which only cyclic terms can make happen, raises
    LogicError instead of looping forever.
    """
    while type(a) is list and a[0] is not None:
        a = a[0]
    while type(b) is list and b[0] is not None:
        b = b[0]
    if a is b:
        return True
    if type(b) is list:
        b[0] = a
        trail.append(b)
        return True
    if type(a) is list:
        a[0] = b
        trail.append(a)
        return True
    if type(a) is not tuple:
        return a == b
    if type(b) is not tuple or len(a) != len(b) or a[0] != b[0]:
        return False
    todo: list = list(zip(a[:0:-1], b[:0:-1]))  # pairs still to unify, the next one last
    left = _CYCLE_CHECK_AFTER
    # Once the walk checks for cycles: the ids of the pairs of compounds
    # whose arguments are being unified, and of those already unified.
    inside = done = None
    while todo:
        item = todo.pop()
        if type(item) is _Mark:  # the end of a checked pair's arguments
            inside.discard(item[0])
            done.add(item[0])
            continue
        a, b = item
        while type(a) is list and a[0] is not None:
            a = a[0]
        while type(b) is list and b[0] is not None:
            b = b[0]
        if a is b:
            continue
        if type(b) is list:
            b[0] = a
            trail.append(b)
        elif type(a) is list:
            a[0] = b
            trail.append(a)
        elif type(a) is not tuple:
            if a != b:
                return False
        elif type(b) is not tuple or len(a) != len(b) or a[0] != b[0]:
            return False
        else:
            if inside is not None:
                pair = id(a), id(b)
                if pair in done:
                    continue
                if pair in inside:
                    raise LogicError("cyclic term: unification would not terminate")
                inside.add(pair)
                todo.append(_Mark((pair,)))
            else:
                left -= 1
                if not left:
                    inside, done = set(), set()
            todo += zip(a[:0:-1], b[:0:-1])
    return True


# --- entries and goal nodes ----------------------------------------------------
#
# A goal chain is a linked list of (cell term, callee, rest) nodes ending in
# None. The callee is fixed when a clause body is built: the entry of the
# literal's predicate, `_Not` of a callee for a `\+` literal, a function
# (term, trail) -> bool that binds on the trail, or None for a variable
# literal or an undefined predicate, which the search looks up only when
# the goal is selected. The functions are the builtins and the compiled
# `Var = NonVar` literals of clause bodies; the term of a compiled
# literal's node is (ordinal, cells...), not a goal term (see
# `_ClauseCompiler.equation`).


class _Pred:
    """A predicate's entry, built once per RuleBase.

    `clauses` chains the predicate's compiled clauses in source order
    (see `_chain`) and `size` counts them. `at` is the first indexed head
    position (see `_compile`) where the clauses' principal symbols
    differ, a variable counting as a symbol of its own, and 0 if there is
    none. `switch` maps the principal functor or constant of a goal's
    argument there to the chain of the clauses that can match it: a
    compound keys as its functor, whatever its arity, an atom as its
    name, an integer as its value. So `f`, `f(a)` and `f(a, b)` share a
    bucket; the clause functions, which check the constant or the functor
    and arity, tell them apart. `default` serves a key the switch lacks.
    Clauses with a variable at `at` are in every bucket and in `default`.

    `guard_at` is the first indexed position where every head of a
    predicate of two or more clauses has the same principal symbol,
    `guard`, and 0 if there is none: a goal bound to another symbol there
    matches no clause. A goal unbound at `at` or `guard_at` tries the
    clauses that position would otherwise have skipped.

    `facts` is whether every clause is a fact, read from the program when
    the entry is made: a `\\+` of such a predicate is decided in place
    (see `_search`).
    """

    __slots__ = ("facts", "size", "clauses", "at", "switch", "default", "guard_at", "guard")

    def __init__(self, facts: bool) -> None:
        self.facts = facts

    def fill(self, compiled: "list[tuple[object, list]]") -> None:
        """Build the entry from its clauses' `_compile` results, in order."""
        pairs = [(offset, function) for offset, (function, _) in enumerate(compiled)]
        self.size = len(pairs)
        self.clauses = _chain(pairs)
        self.at = self.guard_at = 0
        self.switch = self.default = self.guard = None
        # zip stops at the last position every clause may be indexed on.
        for at, keys in enumerate(zip(*(keys for _, keys in compiled)), 1):
            if len(set(keys)) > 1:
                if not self.at:
                    self.at = at
                    self.default = _chain([p for p, k in zip(pairs, keys) if k is None])
                    self.switch = {
                        key: _chain([p for p, k in zip(pairs, keys) if k is None or k == key])
                        for key in dict.fromkeys(keys)
                        if key is not None
                    }
            elif keys[0] is not None and len(pairs) > 1 and not self.guard_at:
                self.guard_at = at
                self.guard = keys[0]


def _chain(pairs: "list[tuple[int, object]]"):
    """(offset, clause function) pairs as nested (offset, function, rest)
    nodes ending in None. The offset is the clause's position among its
    predicate's clauses, so its renaming ordinal is the predicate's first
    ordinal + offset. A search takes a chain's head off and, if a rest is
    left, keeps it as a choice point."""
    chain = None
    for offset, function in reversed(pairs):
        chain = (offset, function, chain)
    return chain


class _Not:
    """The callee of a `\\+` node; `callee` is the negated goal's."""

    __slots__ = ("callee",)

    def __init__(self, callee) -> None:
        self.callee = callee


def _eq(goal, trail: list) -> bool:
    """The callee of an =/2 goal that is not a compiled literal."""
    return _unify(goal[1], goal[2], trail)


def _ground(goal, trail: list) -> bool:
    """The callee of ground/1."""
    return _is_ground(goal[1])


BUILTINS = {("ground", 1): _ground, ("=", 2): _eq}


# --- clause compilation --------------------------------------------------------
#
# Each clause becomes a Python function (goal, trail, ordinal, rest) that
# unifies its head with the walked goal term in straight-line code, renaming
# its variables as it meets them: a variable takes the goal's term where the
# goal has one for it, else a new [None, name, ordinal] cell. It returns
# its body as a goal chain onto `rest`, or _FAIL. A positive body literal
# `Var = NonVar` becomes a function of its own, generated next to the clause's
# with the same `unify` code, as the WAM's `get_structure` compiles a
# unification: against a bound `Var` it matches part by part, allocating
# nothing. `Var = Var`, a negated `=` and a goal selected through a variable
# call the generic `_eq`. Generated source holds only the clause's shape:
# every atom, integer, functor, ground compound and variable name, and the
# callee of every other body node, is a closure value `k<n>` of a
# `make(k0, k1, ...)` factory, so program text never becomes code, and
# clauses that differ only in those values share one code object. The
# factories are cached by source text.

# Generated source -> its `make` factory. A factory depends on its source
# alone, so every RuleBase and thread may share it; two threads that race
# on a new shape just compile it twice.
_MAKERS: "dict[str, object]" = {}

# How many compounds deep a compiled clause's head and body arguments may nest:
# matching code nests one indentation level per compound, and Python reads at
# most 99; building code one bracket per compound that holds a variable, and
# Python reads fewer than 200.
_MAX_NESTING = 90


class _ClauseCompiler:
    """Writes one clause's `make` factory and collects its arguments (see `_compile`)."""

    def __init__(self, clause: Clause, callee_of) -> None:
        terms = (clause.head, *(l.term for l in clause.body))
        found = [v.name for t in terms for v in term_vars(t)]
        self.local = {name: f"v{i}" for i, name in enumerate(dict.fromkeys(found))}
        # variable -> how many of the head and body literals it occurs in
        self.uses = Counter(found)
        self.met: set[str] = set()  # variables whose local holds their value
        self.name_of: dict[str, str] = {}  # variable -> constant holding its name
        self.consts: list = []
        self.lines: list[str] = []  # the body of the function being written
        self.fail = "return _FAIL"  # how that function fails
        self.functions: list[list[str]] = []  # the compiled `=` literals' functions
        self.temps = 0  # walk variables t<n> of `unify`
        self.calls_unify = False  # whether the code written so far calls `_unify`
        self.keys: list = []  # the head arguments' switch keys (see `_compile`)
        head = clause.head
        if isinstance(head, Atom):
            self.emit(2, "if type(goal) is not str:")
            self.emit(3, "return _FAIL")
        elif not head.args:
            self.emit(2, "if type(goal) is not tuple:")
            self.emit(3, "return _FAIL")
        for i, a in enumerate(head.args if isinstance(head, Struct) else (), 1):
            if not self.calls_unify:
                key = a.value if isinstance(a, Int) else a.name if isinstance(a, Atom) else None
                self.keys.append(a.functor if isinstance(a, Struct) else key)
            self.unify(2, a, f"goal[{i}]")
        # The body's nodes are consed onto `rest` one statement each, last
        # first, so a long body nests no brackets.
        node = "rest"
        for l in reversed(clause.body):
            if node != "rest":
                self.emit(2, f"rest = {node}")
            t = l.term
            if (
                not l.negated
                and isinstance(t, Struct)
                and (t.functor, len(t.args)) == ("=", 2)
                and isinstance(t.args[0], Var)
                and not isinstance(t.args[1], Var)
            ):
                node = f"({self.equation(*t.args)}, rest)"
            else:
                self.fresh(2, t)
                node = f"({self.build(t)}, {self.const(callee_of(l))}, rest)"
        self.emit(2, f"return {node}")

    def source(self) -> str:
        params = ", ".join(f"k{i}" for i in range(len(self.consts)))
        lines = [f"def make({params}):", *(line for f in self.functions for line in f)]
        lines += ["    def clause(goal, trail, ordinal, rest):", *self.lines]
        return "\n".join(lines + ["    return clause", ""])

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
                self.emit(indent, f"{self.local[v.name]} = [None, {self.name_of[v.name]}, ordinal]")

    def equation(self, lhs: Var, rhs: Term) -> str:
        """Write the function of the body literal `lhs = rhs` and return the
        term and callee of its goal node.

        The node's term is (ordinal, cells...): the cells of `lhs` and of
        the variables `rhs` shares with the rest of the clause, made when
        the body is built. A variable only in `rhs` gets its cell inside the
        function, and only when a binding needs one. The function binds as
        `_unify(lhs, rhs)` would and returns whether it unified.
        """
        shared = [lhs]
        shared += [v for v in term_vars(rhs) if v.name != lhs.name and self.uses[v.name] > 1]
        for v in shared:
            self.fresh(2, v)
        cells = ", ".join(self.local[v.name] for v in shared)
        name = f"eq{len(self.functions)}"
        outer = self.lines, self.met, self.fail
        self.lines, self.met, self.fail = [], {v.name for v in shared}, "return False"
        self.emit(1, f"def {name}(node, trail):")
        self.emit(2, f"ordinal, {cells} = node")
        self.unify(2, rhs, self.local[lhs.name])
        self.emit(2, "return True")
        self.functions.append(self.lines)
        self.lines, self.met, self.fail = outer
        return f"(ordinal, {cells}), {name}"

    def build(self, term: Term) -> str:
        """An expression for the cell term of `term`, whose variables are met:
        a ground part is one constant, and a compound that holds a variable
        is a tuple of its functor's constant and its arguments' expressions."""

        # A part folds to (None, its cell term) if ground, else to (its expression, None).
        def leaf(t):
            if isinstance(t, Var):
                return self.local[t.name], None
            return None, t.name if isinstance(t, Atom) else t.value

        def node(functor, args):
            if all(text is None for text, _ in args):
                return None, (functor, *(cell for _, cell in args))
            f = self.const(functor)
            parts = "".join(f", {self.const(v) if text is None else text}" for text, v in args)
            return f"({f}{parts})", None

        text, value = fold(term, leaf, node)
        return self.const(value) if text is None else text

    def unify(self, indent: int, h: Term, g: str) -> None:
        """Code that unifies clause term `h` with the goal cell term `g`,
        binding as `_unify(g, renamed h)` would, or returns _FAIL.

        A variable met here for the first time is one assignment, `v = g`,
        with no cell, binding or trail entry: `_unify` binds its second
        variable, so the clause's variable takes the goal's term. A
        variable met before is unified in full. Otherwise the goal term is
        walked: an unbound goal variable is bound to `h` built with new
        cells, and a bound goal term is matched against an atom, integer or
        compound `h` part by part. `h` nests at most _MAX_NESTING compounds.
        """
        emit = self.emit
        if isinstance(h, Var):
            v = self.local[h.name]
            if h.name not in self.met:
                self.met.add(h.name)
                emit(indent, f"{v} = {g}")
                return
            self.calls_unify = True
            emit(indent, f"if {g} is not {v} and not _unify({g}, {v}, trail):")
            emit(indent + 1, self.fail)
            return
        t = f"t{self.temps}"
        self.temps += 1
        emit(indent, f"{t} = {g}")
        emit(indent, f"while type({t}) is list:")
        emit(indent + 1, f"if {t}[0] is None:")
        met = set(self.met)
        self.fresh(indent + 2, h)
        built = self.build(h)
        emit(indent + 2, f"{t}[0] = {built}")
        emit(indent + 2, f"trail.append({t})")
        emit(indent + 2, "break")
        emit(indent + 1, f"{t} = {t}[0]")
        emit(indent, "else:")
        self.met = met
        if isinstance(h, Struct):
            n = len(h.args) + 1
            f = self.const(h.functor)
            emit(indent + 1, f"if type({t}) is not tuple or len({t}) != {n} or {t}[0] != {f}:")
            emit(indent + 2, self.fail)
            for i, a in enumerate(h.args, 1):
                self.unify(indent + 1, a, f"{t}[{i}]")
        else:
            emit(indent + 1, f"if {t} != {built}:")
            emit(indent + 2, self.fail)


def _compile(clause: Clause, callee_of) -> "tuple[object, list]":
    """The clause's function (goal, trail, ordinal, rest) -> goal chain | _FAIL,
    and its head arguments' switch keys, None for a variable (see `_Pred`).

    `goal` is a walked goal term of the clause's predicate. The function
    renames the clause's variables with `ordinal` and returns the body
    literals as (cell term, callee, rest) nodes ahead of `rest`, each
    with the callee `callee_of(literal)` gives, or, for a compiled `=`
    literal, with its own function (see `_ClauseCompiler.equation`).

    The keys end at the first argument whose code calls `_unify`, one that
    holds a variable met earlier in the head: `_unify` can raise LogicError
    on cyclic goal terms, so skipping a clause on a later argument could
    lose that error; the argument that calls it checks its own principal
    symbol first. A clause with a head or body argument deeper than
    _MAX_NESTING compounds is `_interpreted` instead, with no keys.
    """
    terms = (clause.head, *(l.term for l in clause.body))
    for a in (a for t in terms for a in (t.args if isinstance(t, Struct) else (t,))):
        if fold(a, lambda t: 0, lambda f, depths: 1 + max(depths, default=0)) > _MAX_NESTING:
            return _interpreted(clause, terms, callee_of), []
    compiler = _ClauseCompiler(clause, callee_of)
    source = compiler.source()
    make = _MAKERS.get(source)
    if make is None:
        namespace = {"_unify": _unify, "_FAIL": _FAIL}
        exec(compile(source, "<lelma clause>", "exec"), namespace)
        make = _MAKERS[source] = namespace["make"]
    return make(*compiler.consts), compiler.keys


def _interpreted(clause: Clause, terms: "tuple[Term, ...]", callee_of):
    """The function of a clause too deep for straight-line code. Each call
    gives each variable name a new cell, as compiled code does, unifies the
    goal with the head built from them by `_unify`, which binds the clause's
    variables to the goal's, then builds the body from the same cells."""
    variables = {v: v.name for t in terms for v in term_vars(t)}
    body = [(l.term, callee_of(l)) for l in reversed(clause.body)]

    def interpreted(goal, trail: list, ordinal: int, rest):
        named = {name: [None, name, ordinal] for name in set(variables.values())}
        cells = {v: named[name] for v, name in variables.items()}
        if not _unify(goal, _to_cells(clause.head, cells), trail):
            return _FAIL
        for term, callee in body:
            rest = (_to_cells(term, cells), callee, rest)
        return rest

    return interpreted


def _search(
    preds: "dict[tuple[str, int], _Pred]", goals, limits: ResolutionLimits
) -> Iterator[None]:
    """Yield once per proof of the goal chain `goals`, with the proof's
    bindings in place while suspended.

    One loop runs the whole search, `\\+` subproofs included, with the
    step budget, the depth limit and the renaming ordinal in locals. A
    choice point is (trail mark, goal term, candidates left, the
    predicate's first ordinal, goals after the selected one, depth of the
    body).

    A `\\+` of a predicate of facts only pushes nothing: after the
    `\\+`'s ground check the negated goal takes its step, its depth check
    and its predicate's ordinals, as a selected goal does, and its facts
    are tried in turn with no goals after them, the bindings of each that
    fails undone at once. The goal is ground, so no clause is selected: a
    fact the guard or switch would skip just fails. The first that
    matches fails the `\\+`, and backtracking undoes its bindings; if
    none matches, the goals after it run at its depth. Any other `\\+`
    pushes a barrier, (trail mark, None, None, 0, goals after the `\\+`,
    its depth), notes the barrier's index in `barriers` and runs its
    subproof at its own depth. When the subproof is proved, the search
    drops the barrier and every choice point above it, and fails; when
    backtracking pops the barrier, the negation holds.
    """
    trail: list[list] = []  # the cells bound, in order
    choices: list[tuple] = []
    barriers: list[int] = []  # barriers of the running subproofs, innermost last
    max_steps = limits.max_steps
    steps_left = max(max_steps, 0)  # counts down to 0; a negative limit allows no step
    max_depth = limits.max_depth
    ordinal = 1
    depth = 0
    while True:
        if goals is not None:
            if not steps_left:
                raise LimitExceeded("step", max_steps)
            steps_left -= 1
            term, callee, goals = goals
            if callee is None:
                while type(term) is list and term[0] is not None:
                    term = term[0]
                if type(term) is tuple:
                    key = (term[0], len(term) - 1)
                elif type(term) is str:
                    key = (term, 0)
                else:
                    raise LogicError(f"callable goal expected, got {_to_term(term)}")
                callee = preds.get(key) or BUILTINS.get(key)
                if callee is None:
                    raise UnknownPredicate(*key)
            if type(callee) is _Pred:
                if depth >= max_depth:
                    raise LimitExceeded("depth", max_depth)
                first = ordinal
                ordinal += callee.size
                candidates = callee.clauses
                at = callee.guard_at
                if at:
                    a = term[at]
                    while type(a) is list:
                        a = a[0]
                        if a is None:
                            break
                    else:
                        if (a[0] if type(a) is tuple else a) != callee.guard:
                            candidates = None
                at = callee.at
                if at and candidates is not None:
                    a = term[at]
                    while type(a) is list:
                        a = a[0]
                        if a is None:
                            break
                    else:
                        candidates = callee.switch.get(
                            a[0] if type(a) is tuple else a, callee.default
                        )
                mark = len(trail)
                rest = goals
                depth += 1
            elif type(callee) is _Not:
                while type(term) is list and term[0] is not None:
                    term = term[0]
                if not _is_ground(term):
                    raise FlounderedNegation(_to_term(term))
                callee = callee.callee
                if type(callee) is not _Pred or not callee.facts:
                    barriers.append(len(choices))
                    choices.append((len(trail), None, None, 0, goals, depth))
                    goals = (term, callee, None)
                    continue
                # The negated goal calls facts only: decide it here, in its
                # own step, with no barrier and no choice point.
                if not steps_left:
                    raise LimitExceeded("step", max_steps)
                steps_left -= 1
                if depth >= max_depth:
                    raise LimitExceeded("depth", max_depth)
                first = ordinal
                ordinal += callee.size
                mark = len(trail)
                candidates = callee.clauses
                while candidates is not None:
                    offset, clause, candidates = candidates
                    if clause(term, trail, first + offset, None) is not _FAIL:
                        candidates = None  # a fact matches, so `\+` fails
                        break  # and backtracking undoes the match's bindings
                    while len(trail) > mark:
                        trail.pop()[0] = None
                else:
                    continue  # no fact matches, so `\+` holds
            elif callee(term, trail):  # a builtin or a compiled `=` literal
                continue
            else:
                candidates = None
        elif barriers:
            # The innermost subproof is proved: drop its choice points and
            # its barrier, and fail. The next choice point undoes the trail.
            del choices[barriers.pop() :]
            candidates = None
        else:
            yield
            candidates = None
        # Try the candidates in turn, else resume the newest choice point.
        while True:
            if candidates is not None:
                offset, clause, candidates = candidates
                goals = clause(term, trail, first + offset, rest)
                if goals is not _FAIL:
                    if candidates is not None:
                        choices.append((mark, term, candidates, first, rest, depth))
                    break
                while len(trail) > mark:
                    trail.pop()[0] = None
            elif choices:
                mark, term, candidates, first, rest, depth = choices.pop()
                while len(trail) > mark:
                    trail.pop()[0] = None
                if candidates is None:  # a barrier: the subproof failed, so `\+` holds
                    barriers.pop()
                    goals = rest
                    break
            else:
                return


def solve(
    rulebase: RuleBase,
    goal: Sequence[Literal],
    limits: Optional[ResolutionLimits] = None,
) -> Iterator[Substitution]:
    """Yield answer substitutions for `goal`, restricted to its variables.

    Lazy: answers are produced on demand in derivation order. Unbound goal
    variables are left out of an answer. A goal variable is never the same
    variable as a renamed clause variable, whatever its ordinal. When a
    goal variable meets a clause variable the clause's is bound, so an
    unbound variable prints with the caller's name: `X = Y` gives Y = X.
    """
    goals = tuple(goal)
    if not goals:
        raise ValueError("empty goal")
    cells: dict[Var, list] = {}
    chain = None
    for node in [(_to_cells(l.term, cells), rulebase._callee(l)) for l in goals][::-1]:
        chain = (*node, chain)
    # One fold converts every goal variable, so their values share parts.
    root = ("", *cells.values())
    for _ in _search(rulebase._preds, chain, limits or ResolutionLimits()):
        values = _to_term(root).args
        yield {v: value for v, value in zip(cells, values) if value != v}


def solve_all(
    rulebase: RuleBase,
    goal: Sequence[Literal],
    limits: Optional[ResolutionLimits] = None,
) -> "list[Substitution]":
    return list(solve(rulebase, goal, limits))
