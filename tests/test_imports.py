from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lelma

PACKAGE = Path(lelma.__file__).parent


def private_imports(path: Path) -> "list[str]":
    """`module.name` for each `_`-prefixed name imported from another lelma module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "lelma":
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def unused_imports(path: Path) -> "list[str]":
    """Names bound by a top-level import of `path` that the module never uses.

    A name counts as used when the module reads it, string annotations
    included.
    """
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def test_every_top_level_import_is_used():
    # __init__.py imports to re-export, so it is left out.
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert "engine.py" in {p.name for p in modules}
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_module_imports_a_private_name_from_another():
    found = {p.name: private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert "verification.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_no_module_holds_an_assert():
    # `python -O` drops an assert, so a check the package needs must raise.
    found = {}
    for p in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(p.read_text())
        found[p.relative_to(PACKAGE).as_posix()] = [
            n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)
        ]
    assert "games.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def private_attributes(path: Path) -> "tuple[set[str], set[str]]":
    """The `_`-prefixed names `path` binds (functions, classes, variables
    and attributes) and the `_`-prefixed attributes it reads. Dunder names
    are left out."""
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name, names = node.name, bound
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name, names = node.id, bound
        elif isinstance(node, ast.Attribute):
            name, names = node.attr, bound if isinstance(node.ctx, ast.Store) else read
        else:
            continue
        if name.startswith("_") and not name.startswith("__"):
            names.add(name)
    return bound, read


def test_no_module_reads_a_private_attribute_another_module_defines():
    found = {p.name: private_attributes(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {"_callee", "_preds"} <= found["engine.py"][1]  # the check sees attribute reads
    crossing = {}
    for name, (bound, read) in found.items():
        elsewhere = set().union(*(b for other, (b, _) in found.items() if other != name))
        if (read - bound) & elsewhere:
            crossing[name] = sorted((read - bound) & elsewhere)
    assert crossing == {}


# Public names that no package code reads and `lelma.__all__` does not
# export, and public methods and properties no package code reads, each
# kept on purpose.
KEPT_UNREAD = {
    "terms.unify": "the oracle criterion 7's engine unifier is checked against; perfbench reads it",
    "terms.resolve": "the engine's reference tests and perfbench's terms.* rows read it",
    "terms.rename_term": "perfbench's terms.rename row reads it; the engine names variables so",
    "verification.apply_corrections": "the perfbench sweep and the output checks read it",
    "engine.RuleBase.matching": "perfbench's terms rows read it to find a goal's clauses",
    "translator.ParseDiagnostics.skipped_count": "perfbench's translator.skipped_ratio row reads it",
}


def public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        yield from ((name, node) for name in targets if not name.startswith("_"))


def names_read(nodes) -> "set[str]":
    """The names the nodes read, `module.name` for an attribute of a bare
    name, string annotations included."""
    read = set()
    for node in (part for n in nodes for part in ast.walk(n)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add(f"{node.value.id}.{node.attr}")
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def unread_public_names(package: Path, exported) -> "list[str]":
    """`module.name` for each public top-level definition of a package module
    that is neither read by package code outside its own definition nor
    in `exported`. Another module reads a name through its import of it."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    trees.pop("__init__")
    # What each top-level statement reads, and the name each module binds
    # to each `from .module import name`.
    reads = {m: [(node, names_read([node])) for node in tree.body] for m, tree in trees.items()}
    binds = {
        m: {
            (node.module, alias.name): alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for m, tree in trees.items()
    }
    unread = []
    for module, tree in trees.items():
        for name, definition in public_definitions(tree):
            if name in exported:
                continue
            read = False
            for other in trees:
                wanted = {binds[other].get((module, name)), f"{module}.{name}"}
                if other == module:
                    wanted.add(name)
                read = read or any(
                    wanted & names for node, names in reads[other] if node is not definition
                )
            if not read:
                unread.append(f"{module}.{name}")
    return unread


def attributes_read(node: ast.AST) -> "Counter[str]":
    """How many times `node` reads each attribute name, as `value.name`."""
    return Counter(
        part.attr
        for part in ast.walk(node)
        if isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Load)
    )


def unread_public_members(package: Path) -> "list[str]":
    """`module.Class.name` for each public method or property of a top-level
    class in a package module that package code never reads as an attribute
    of anything outside the member's own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    read = sum((attributes_read(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                if read[member.name] == attributes_read(member)[member.name]:
                    unread.append(f"{module}.{cls.name}.{member.name}")
    return unread


def test_every_public_name_is_read_by_the_package_or_exported():
    unread = unread_public_names(PACKAGE, set(lelma.__all__)) + unread_public_members(PACKAGE)
    assert sorted(set(unread) - set(KEPT_UNREAD)) == []
    assert sorted(set(KEPT_UNREAD) - set(unread)) == []  # the allowlist holds no stale name


# Exception classes that are neither their module's base nor named in a
# package `except` clause, each kept on purpose.
KEPT_ERRORS = {
    **{f"engine.{name}": "exported in lelma.__all__"
       for name in ("LimitExceeded", "FlounderedNegation", "UnknownPredicate")},
    **{f"gateway.{name}": "its type name is written to an aborted session's transcript `error`"
       for name in ("ProviderError", "CassetteError", "CassetteParseError",
                    "DuplicateRequestKeyError", "ReplayMissError")},
}


def exception_classes() -> "dict[str, type]":
    """`module.Class` -> class for each exception class a package module defines."""
    found = {}
    for p in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"lelma.{p.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, BaseException):
                if value.__module__ == module.__name__:
                    found[f"{p.stem}.{name}"] = value
    return found


def caught_names(tree: ast.Module) -> "set[str]":
    """The names of the classes `tree`'s `except` clauses catch, an
    attribute by its last name."""
    caught = set()
    for handler in (n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)):
        for node in ast.walk(handler.type) if handler.type else ():
            if isinstance(node, ast.Name):
                caught.add(node.id)
            elif isinstance(node, ast.Attribute):
                caught.add(node.attr)
    return caught


def test_every_exception_class_is_a_base_caught_or_kept():
    classes = exception_classes()
    assert {"verification.VerificationError", "gateway.TransportError"} <= set(classes)
    # A module's base derives from no other package exception; a module has one at most.
    bases = {name for name, cls in classes.items()
             if not any(b.__module__.startswith("lelma.") for b in cls.__bases__)}
    assert max(Counter(name.split(".")[0] for name in bases).values()) == 1
    caught = set().union(*(caught_names(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")))
    assert {"TransportError", "InputError"} <= caught
    unexplained = {name for name in classes if name not in bases and name.split(".")[1] not in caught}
    assert sorted(unexplained - set(KEPT_ERRORS)) == []
    assert sorted(set(KEPT_ERRORS) - unexplained) == []  # the allowlist holds no stale name


# Functions that call themselves, each kept on purpose. Every other walk
# is a loop, so no input nests deep enough to exhaust Python's stack.
KEPT_RECURSIVE = {
    "terms.resolve": "the dict-substitution API; perfbench's terms.* rows time it as it is",
    "terms._unify_into": "the dict-substitution API; perfbench's terms.* rows time it as it is",
    "engine._ClauseCompiler.unify": (
        "recurses once per compound, at most _MAX_NESTING deep: `match` hands a deeper "
        "head argument or `=` side to `_unify`"
    ),
}


def calls_itself(function: ast.AST, method: bool) -> bool:
    """Whether `function` calls itself by name anywhere in its body, nested
    lambdas, generators and defs included: as `name(...)`, or, for a
    method, as `self.name(...)` or `cls.name(...)`."""
    for node in ast.walk(function):
        f = node.func if isinstance(node, ast.Call) else None
        if method and isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if f.attr == function.name and f.value.id in ("self", "cls"):
                return True
        elif not method and isinstance(f, ast.Name) and f.id == function.name:
            return True
    return False


def self_calling_functions(tree: ast.Module, module: str) -> "list[str]":
    """`module.qualified.name` of each function in `tree` that calls itself."""
    found = []
    todo = [(tree, module, False)]  # (node, qualified name of its scope, whether a class)
    while todo:
        node, scope, in_class = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                todo.append((child, f"{scope}.{child.name}", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if calls_itself(child, in_class):
                    found.append(f"{scope}.{child.name}")
                todo.append((child, f"{scope}.{child.name}", False))
            else:
                todo.append((child, scope, in_class))
    return found


def test_no_function_calls_itself_but_the_kept_ones():
    sample = ast.parse(
        "def f(x):\n    return lambda: f(x)\n"
        "def g(x):\n    return [g(y) for y in x]\n"
        "def h(x):\n    def inner():\n        return h(x)\n    def inner2():\n"
        "        return inner2()\n    return inner\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "    def n(self):\n        return n(self)\n"
        "def k(x):\n    return f(x)\n"
    )
    assert sorted(self_calling_functions(sample, "sample")) == [
        "sample.C.m", "sample.f", "sample.g", "sample.h", "sample.h.inner2",
    ]
    found = [
        name
        for p in sorted(PACKAGE.glob("*.py"))
        for name in self_calling_functions(ast.parse(p.read_text()), p.stem)
    ]
    assert sorted(found) == sorted(KEPT_RECURSIVE)


# Standard-library modules that only some paths need, each loaded by the
# one function that uses it: hashlib (with OpenSSL's libcrypto) keys
# cassette requests, datetime stamps cassette records, and the thread pool
# (which brings in logging) and the INI reader serve `lelma run`.
LOADED_ON_USE = ("hashlib", "_hashlib", "concurrent.futures", "configparser", "datetime")

ON_THE_VERDICT_PATH = """
import sys
from lelma import (
    LoopConfig, ModelConfig, evaluate_all, load_game, parse_goal, parse_queries, run_session, solve,
)
from lelma.cli import main

pd = load_game("pd")
queries, _ = parse_queries("finally(outcome(you,B,3,them,B,_),S)\\nhigher(1, 5)", pd)
assert [r.holds for r in evaluate_all(queries, pd).results] == [True, False]
assert len(list(solve(pd.rulebase, parse_goal("game(s0, F), finally(goal(p1, 5), F)")))) == 2

def loop(record_to=None):
    return LoopConfig(
        ModelConfig(script=("Payoff 3 beats 1. CHOICE: B",), record_to=record_to),
        ModelConfig(script=("higher(3, 1)",)),
    )
assert run_session(pd, loop()).exit.value == "all_true"
assert main(["verify", "pd", "--queries", sys.argv[1]]) == 0
print(*[name for name in {loaded} if name in sys.modules], sep=",")
run_session(pd, loop(record_to=sys.argv[2]))
print("hashlib" in sys.modules)
"""


def test_the_verdict_path_loads_no_module_only_runs_and_cassettes_use(tmp_path):
    # pytest's own process has hashlib loaded, so a fresh interpreter checks.
    queries = tmp_path / "q.txt"
    queries.write_text("finally(outcome(you,R,5,them,B,_),S)\n")
    script = ON_THE_VERDICT_PATH.format(loaded=LOADED_ON_USE)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    argv = [sys.executable, "-c", script, str(queries), str(tmp_path / "tape.jsonl")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-2:] == ["", "True"]  # none loaded, then hashlib for the tape


def test_the_package_version_is_the_one_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("lelma is installed apart from its source tree")
    with pyproject.open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == lelma.__version__
