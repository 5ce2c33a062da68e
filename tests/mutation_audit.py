"""Mutation audit: plant one fault at a time in the verdict path and check
that a focused test subset fails on it.

Each mutant makes one change, in one function of one module:

    <  <->  <=      >  <->  >=      ==  <->  !=      +  <->  -
    max <-> min     [0] <-> [1]     and <-> or

(`+=` and `-=` count as `+` and `-`). The tree is copied to a scratch
directory first, and every mutant is written there, never into the
checkout. A mutant is killed when its subset fails, or runs past the
hang limit, as a mutant that makes a search loop forever does (DeMillo,
Lipton & Sayward, "Hints on Test Data Selection", 1978; Jia & Harman,
TSE 2011). A survivor is a change no test in the subset notices: kill it
with a test that pins what the program does, or list it as equivalent
with the reason.

Run from the repository root, with one of the modules in `SUBSETS`:

    python tests/mutation_audit.py engine
    python tests/mutation_audit.py engine --only _unify _ClauseCompiler.unify \\
        --tests tests/test_engine.py tests/test_engine_reference.py tests/test_terms.py

`--only` narrows the functions mutated (a class name takes its methods,
`Class.method` one of them), and `--tests` replaces the subset. pytest
does not collect this file, and tier-1 does not run it. It prints one
line per mutant and the score, and exits 1 if a mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A mutant whose subset runs longer than this, or than twice the unmutated
# run, is hung.
HANG_AFTER = 40.0

# module -> (the functions and classes mutated, the tests that must kill them)
SUBSETS = {
    "verification": (
        (
            "_relation", "_judge_outcome", "_judge_comparison", "_claimed_value",
            "_judge_guaranteed_choice", "_judge_guaranteed_comparison", "_judge_mutual",
            "apply_corrections", "render_feedback", "check_query", "_read_token",
            "parse_query_line",
        ),
        (
            "tests/test_verification.py",
            "tests/test_acceptance.py::test_criterion_3_query_oracle_equivalence",
        ),
    ),
    "games": (
        (
            "GameSpec.payoffs", "GameSpec.label_payoffs", "GameSpec.payoff_summary",
            "_metadata_dict", "_extract_label_map", "parse_game", "load_game",
            "enumerate_outcomes",
        ),
        (
            "tests/test_games.py",
            "tests/test_verification.py",
            "tests/test_acceptance.py::test_criterion_2_payoff_fidelity",
            "tests/test_acceptance.py::test_criterion_3_query_oracle_equivalence",
        ),
    ),
    "engine": (
        ("_search", "_unify", "_is_ground", "_fold_cells", "_to_cells", "_Pred", "solve"),
        (
            "tests/test_engine.py",
            "tests/test_engine_reference.py",
            "tests/test_acceptance.py::test_criterion_1_worked_query",
        ),
    ),
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.And: ast.Or, ast.Or: ast.And,
}
CALLS = {"max": "min", "min": "max"}
INDEXES = {0: 1, 1: 0}


def scopes(tree: ast.Module, names) -> "list[tuple[str, ast.AST]]":
    """(name, definition) for each of `names` in a module: `f`, `Class` or
    `Class.method`."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    missing = [n for n in names if n not in found]
    if missing:
        raise SystemExit(f"not defined at the top of the module: {', '.join(missing)}")
    return [(n, found[n]) for n in names]


def mutants(node: ast.AST) -> "list[tuple[ast.AST, ast.AST]]":
    """(original node, mutated copy) for each single change in `node`."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Compare):
            for i, op in enumerate(n.ops):
                if type(op) in SWAPS:
                    m = copy.deepcopy(n)
                    m.ops[i] = SWAPS[type(op)]()
                    out.append((n, m))
        elif isinstance(n, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(n.op) in SWAPS:
            m = copy.deepcopy(n)
            m.op = SWAPS[type(n.op)]()
            out.append((n, m))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in CALLS:
            m = copy.deepcopy(n)
            m.func.id = CALLS[n.func.id]
            out.append((n, m))
        elif (
            isinstance(n, ast.Subscript)
            and isinstance(n.slice, ast.Constant)
            and type(n.slice.value) is int
            and n.slice.value in INDEXES
        ):
            m = copy.deepcopy(n)
            m.slice.value = INDEXES[n.slice.value]
            out.append((n, m))
    return sorted(out, key=lambda pair: (pair[0].lineno, pair[0].col_offset))


def replaced(source: bytes, node: ast.AST, text: str) -> bytes:
    """`source` with `node`'s text replaced; ast offsets count UTF-8 bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:begin] + text.encode() + source[end:]


def run(work: Path, tests, timeout) -> "tuple[str, float]":
    """'passed', 'failed' or 'hung', and the seconds the subset took."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    started = time.perf_counter()
    try:
        code = subprocess.run(
            command, cwd=work, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    except subprocess.TimeoutExpired:
        return "hung", time.perf_counter() - started
    return ("passed" if code == 0 else "failed"), time.perf_counter() - started


def audit(work: Path, module: str, names, tests) -> int:
    """Copy the tree to `work`, mutate `names` of `module` there one change
    at a time, and print each mutant's fate; 1 if one survived."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out")
    shutil.copytree(ROOT, work, ignore=ignore)
    target = work / "src" / "lelma" / f"{module}.py"
    source = target.read_bytes()
    tree = ast.parse(source)

    outcome, seconds = run(work, tests, None)
    if outcome != "passed":
        raise SystemExit(f"the subset fails on the unmutated tree: {' '.join(tests)}")
    # A mutant may slow the subset down without hanging it.
    timeout = max(HANG_AFTER, 2 * seconds)
    print(f"subset passes unmutated in {seconds:.1f} s; a mutant past {timeout:.0f} s is hung")

    killed = total = 0
    for name, scope in scopes(tree, names):
        for original, mutated in mutants(scope):
            before, after = ast.unparse(original), ast.unparse(mutated)
            target.write_bytes(replaced(source, original, after))
            outcome, _ = run(work, tests, timeout)
            total += 1
            killed += outcome != "passed"
            verdict = {"passed": "SURVIVED", "failed": "killed", "hung": "killed (hung)"}[outcome]
            shown = f"{before[:50]}  ->  {after[:50]}"
            print(f"{verdict:14} {target.name}:{original.lineno} {name}: {shown}", flush=True)
    print(f"{killed} of {total} mutants killed")
    return 0 if killed == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", choices=sorted(SUBSETS))
    parser.add_argument("--only", nargs="+", help="the functions or classes to mutate")
    parser.add_argument("--tests", nargs="+", help="the pytest arguments of the subset")
    parser.add_argument("--workdir", type=Path, help="scratch directory for the copy")
    args = parser.parse_args(argv)
    names, tests = SUBSETS[args.module]
    names, tests = args.only or names, args.tests or tests

    scratch = Path(tempfile.mkdtemp(prefix="mutation-", dir=args.workdir))
    try:
        return audit(scratch / "tree", args.module, names, tests)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    sys.exit(main())
