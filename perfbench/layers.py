"""Per-layer numbers for the traced run.

Three sources:
- spans recorded around each layer's public functions (see tracing.py);
- fixed-size rows that time one thing the same way on every workload
  (the terms micro-loop, the worked query, the criterion-3 sweep,
  game loading);
- exact counts: engine steps found by bisecting on
  `ResolutionLimits.max_steps`, and counts of the generated inputs.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

import lelma.experiments
import lelma.gateway
import lelma.orchestrator
import lelma.verification
from lelma.engine import LimitExceeded, ResolutionLimits, solve, solve_all
from lelma.games import load_game
from lelma.gdl import parse_goal
from lelma.terms import Struct, rename_term, resolve, unify
from lelma.verification import Query, QueryKind, apply_corrections, evaluate_query

import oracle
from inputs import GAME_NAMES
from tracing import Tracer, covered, self_times
from workloads import plain_calls

WORKED_QUERY = "game(s0, F), finally(goal(p1, 5), F)"
REPEATS = 5


class Goals:
    """Every distinct goal the engine was asked, keyed by game, mode and text.

    mode is "first" where the caller takes only the first answer
    (outcome claims) and "all" where it takes them all (solve_all).
    """

    def __init__(self, games):
        self._names = {id(g.rulebase): name for name, g in games.items()}
        self.seen: "dict[str, tuple]" = {}
        self.steps: "dict[str, int]" = {}

    def key(self, rulebase, goal, mode: str) -> str:
        name = self._names.get(id(rulebase), f"rulebase-{id(rulebase)}")
        key = f"{name}|{mode}|{', '.join(str(l) for l in goal)}"
        self.seen.setdefault(key, (rulebase, tuple(goal), mode))
        return key

    def count(self, key: str) -> int:
        """Bisect the step count of one goal seen, trying counts already
        found for goals of the same mode first."""
        if key not in self.steps:
            rulebase, goal, mode = self.seen[key]
            found = Counter(n for k, n in self.steps.items() if self.seen[k][2] == mode)
            guesses = [n for n, _ in found.most_common()]
            self.steps[key] = count_steps(rulebase, goal, mode, guesses)
        return self.steps[key]

    def count_all(self) -> None:
        for key in list(self.seen):
            self.count(key)


def count_steps(rulebase, goal, mode: str, guesses=()) -> int:
    """The least max_steps under which the goal completes, by bisection.

    A guess c is taken only when c steps suffice and c - 1 do not, so
    the count is exact either way.
    """

    def fits(max_steps: int) -> bool:
        limits = ResolutionLimits(max_steps=max_steps)
        try:
            if mode == "first":
                next(solve(rulebase, goal, limits), None)
            else:
                solve_all(rulebase, goal, limits)
        except LimitExceeded as exc:
            if exc.kind != "step":
                raise
            return False
        return True

    for c in guesses:
        if c > 0 and fits(c) and not fits(c - 1):
            return c
    lo, hi = 0, ResolutionLimits().max_steps
    if not fits(hi):
        raise LimitExceeded("step", hi)
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def instrument(tracer: Tracer, goals: Goals) -> SimpleNamespace:
    """Wrap the program's layer boundaries; returns the traced `calls`."""
    V, O, E, G = lelma.verification, lelma.orchestrator, lelma.experiments, lelma.gateway

    def parse_attrs(args, result):
        _, diagnostics = result
        return {"lines": diagnostics.parsed_count + diagnostics.skipped_count,
                "skipped": diagnostics.skipped_count}

    tracer.patch(V, "solve", "engine.solve", generator=True,
                 attrs=lambda args: {"goal": goals.key(args[0], args[1], "first")})
    tracer.patch(V, "evaluate_query", "verification.evaluate_query",
                 lambda args, r: {"kind": r.query.kind.value, "holds": r.holds})
    tracer.patch(O, "parse_queries", "translator.parse_queries", parse_attrs)
    tracer.patch(O, "evaluate_all", "verification.evaluate_all")
    tracer.patch(O, "render_feedback", "verification.render_feedback")
    tracer.patch(O, "build_translation_prompt", "translator.build_prompt")
    tracer.patch(G.Gateway, "complete", "gateway.complete",
                 lambda args, r: {"provider": args[0].cfg.provider,
                                  "record": bool(args[0].cfg.record_to)})
    tracer.patch(G, "load_cassette", "gateway.load_cassette")
    tracer.patch(E, "load_game", "games.load_game")
    tracer.patch(E, "run_session", "orchestrator.run_session")
    tracer.patch(E, "write_transcript", "orchestrator.write_transcript")
    tracer.patch(E, "summarize", "experiments.summarize")

    plain = plain_calls()
    return SimpleNamespace(
        parse_goal=tracer.wrap(plain.parse_goal, "gdl.parse_goal"),
        solve_all=tracer.wrap(plain.solve_all, "engine.solve_all",
                              lambda args, r: {"goal": goals.key(args[0], args[1], "all")}),
        parse_queries=tracer.wrap(plain.parse_queries, "translator.parse_queries", parse_attrs),
        evaluate_all=tracer.wrap(plain.evaluate_all, "verification.evaluate_all"),
        run_session=tracer.wrap(plain.run_session, "orchestrator.run_session"),
        write_transcript=tracer.wrap(plain.write_transcript, "orchestrator.write_transcript"),
        run_experiment=tracer.wrap(plain.run_experiment, "experiments.run_experiment"),
    )


# --- fixed-size rows -----------------------------------------------------------


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return statistics.median(times)


def terms_rows(games, goals: Goals) -> dict:
    """µs per rename/unify/resolve over bundled clause heads and goal literals."""
    pairs = []
    for rulebase, goal, _ in goals.seen.values():
        for literal in goal:
            term = literal.term
            if not isinstance(term, Struct):
                continue
            for clause in rulebase.matching((term.functor, len(term.args))):
                pairs.append((term, clause.head))
    pairs *= 10  # long enough passes for a per-call figure
    renamed = [(term, rename_term(head, 7)) for term, head in pairs]
    unified = [(term, s) for term, head in renamed if (s := unify(term, head, {})) is not None]

    def rename_pass():
        for _, head in pairs:
            rename_term(head, 7)

    def unify_pass():
        for term, head in renamed:
            unify(term, head, {})

    def resolve_pass():
        for term, subst in unified:
            resolve(term, subst)

    return {
        "terms.rename_us": _median_time(rename_pass) / len(pairs) * 1e6,
        "terms.unify_us": _median_time(unify_pass) / len(renamed) * 1e6,
        "terms.resolve_us": _median_time(resolve_pass) / len(unified) * 1e6,
    }


def worked_query_rows(games, goals: Goals) -> "tuple[dict, str | None]":
    """The paper's worked query on pd, and one false outcome claim on pd."""
    pd = games["pd"]
    goal = parse_goal(WORKED_QUERY)
    answers = solve_all(pd.rulebase, goal)
    want = oracle.goal_situations(pd, "p1", 5)
    problem = None
    if sorted(map(str, (a[next(iter(a))] for a in answers))) != sorted(map(str, want)):
        problem = f"worked query answered {answers}"
    ms = _median_time(lambda: solve_all(pd.rulebase, goal)) * 1e3
    worked_steps = goals.count(goals.key(pd.rulebase, goal, "all"))
    false_steps = goals.count(_false_outcome_goal(pd, goals))
    return (
        {
            "engine.worked_query_ms": ms,
            "engine.worked_query_steps": worked_steps,
            "engine.false_outcome_steps": false_steps,
        },
        problem,
    )


def _false_outcome_goal(pd, goals: Goals) -> str:
    """The engine goal `evaluate_query` builds for a false outcome claim."""
    tracer = Tracer()
    tracer.patch(lelma.verification, "solve", "engine.solve", generator=True,
                 attrs=lambda args: {"goal": goals.key(args[0], args[1], "first")})
    try:
        wrong = max(oracle.value_grid(pd))
        tracer.op("fixed", evaluate_query, Query(QueryKind.OUTCOME, ("B", wrong, "B")), pd)
    finally:
        tracer.restore()
    (span,) = [s for s in tracer.spans if s[3] == "engine.solve"]
    return span[6]["goal"]


def sweep_row(games) -> "tuple[float, str | None]":
    """The criterion-3 sweep: every query instantiation on every game,
    each verdict checked against the oracle, each correction re-evaluated."""
    queries = [
        (g, Query(QueryKind(kind), args))
        for g in games.values()
        for kind in oracle.SCHEMAS
        for args in oracle.instances(g, kind)
    ]
    problem = None
    started = perf_counter()
    for g, q in queries:
        result = evaluate_query(q, g)
        if result.holds != oracle.holds(g, q.kind.value, q.args):
            problem = problem or f"sweep: {g.name} {q} judged {result.holds}"
        if not result.holds and not evaluate_query(apply_corrections(q, result.corrections), g).holds:
            problem = problem or f"sweep: corrections of {g.name} {q} do not hold"
    elapsed = perf_counter() - started
    if len(queries) != 354:
        problem = problem or f"sweep has {len(queries)} queries, expected 354"
    return elapsed, problem


def games_load_ms() -> float:
    return _median_time(lambda: [load_game(n) for n in GAME_NAMES]) / len(GAME_NAMES) * 1e3


# --- metrics from spans ----------------------------------------------------------


class SpanView:
    """Spans of the ops with the given workload tags, grouped by name,
    with self times."""

    def __init__(self, tracer: Tracer, *tags: str):
        spans = [s for s in tracer.spans if tracer.ops.get(s[2]) in tags]
        own = self_times(spans)
        self.by_name: "dict[str, list[tuple]]" = {}
        for s in spans:
            self.by_name.setdefault(s[3], []).append((s[5] - s[4], own[s[0]], s[6] or {}, s))
        self.ops = len({s[2] for s in spans})

    def rows(self, name: str, where=lambda attrs: True):
        return [r for r in self.by_name.get(name, ()) if where(r[2])]

    def mean(self, name: str, scale: float, where=lambda attrs: True, own: bool = False) -> float:
        rows = self.rows(name, where)
        if not rows:
            return float("nan")
        return statistics.fmean(r[1] if own else r[0] for r in rows) * scale

    def layer_self(self) -> "dict[str, tuple[float, int]]":
        """layer -> (self seconds, span count)."""
        table: "dict[str, list]" = {}
        for name, rows in self.by_name.items():
            entry = table.setdefault(name.split(".", 1)[0], [0.0, 0])
            entry[0] += sum(r[1] for r in rows)
            entry[1] += len(rows)
        return {layer: (s, n) for layer, (s, n) in sorted(table.items())}


def engine_metrics(view: SpanView, goals: Goals) -> dict:
    engine = view.rows("engine.solve") + view.rows("engine.solve_all")
    busy = sum(r[0] for r in engine)
    steps = sum(goals.steps[r[2]["goal"]] for r in engine)
    is_outcome = lambda attrs: attrs.get("kind") == "outcome"
    return {
        "engine.solve_self_ms": statistics.fmean(r[1] for r in engine) * 1e3,
        "engine.steps_per_s": steps / busy,
        "gdl.parse_goal_us": view.mean("gdl.parse_goal", 1e6),
        "verification.outcome_hold_ms": view.mean(
            "verification.evaluate_query", 1e3, lambda a: is_outcome(a) and a["holds"]),
        "verification.outcome_fail_ms": view.mean(
            "verification.evaluate_query", 1e3, lambda a: is_outcome(a) and not a["holds"]),
    }


def steps_per_verdict(view: SpanView, goals: Goals) -> float:
    """Engine steps per engine verdict (outcome claim or goal), over spans
    that each ran one pool op once."""
    engine = view.rows("engine.solve") + view.rows("engine.solve_all")
    return sum(goals.steps[r[2]["goal"]] for r in engine) / len(engine)


def session_metrics(view: SpanView) -> dict:
    parse = view.rows("translator.parse_queries")
    out = {
        f"verification.eval_us.{kind}": view.mean(
            "verification.evaluate_query", 1e6, lambda a, k=kind: a.get("kind") == k)
        for kind in oracle.PAYOFF_VIEW_KINDS
    }
    out.update({
        "verification.render_feedback_us": view.mean("verification.render_feedback", 1e6),
        "translator.lines_per_s": sum(r[2]["lines"] for r in parse) / sum(r[0] for r in parse),
        "translator.build_prompt_us": view.mean("translator.build_prompt", 1e6),
        "gateway.mock_call_us": view.mean(
            "gateway.complete", 1e6, lambda a: a.get("provider") == "mock"),
        "orchestrator.session_self_ms": view.mean("orchestrator.run_session", 1e3, own=True),
    })
    return out


def replay_metrics(view: SpanView) -> dict:
    calls = view.rows("gateway.complete")
    runs = view.rows("experiments.run_experiment")
    sessions = view.rows("orchestrator.run_session")
    overhead = [
        (r[0] - covered(r[3], [s[3] for s in sessions if s[3][1] == r[3][0]])) * 1e3
        for r in runs
    ]
    return {
        "gateway.replay_call_us": view.mean(
            "gateway.complete", 1e6, lambda a: a.get("provider") == "replay", own=True),
        "gateway.cassette_load_ms": view.mean("gateway.load_cassette", 1e3),
        "gateway.calls": len(calls) / view.ops,
        "gateway.replay_misses": sum(r[2].get("error") == "ReplayMissError" for r in calls),
        "orchestrator.write_transcript_ms": view.mean("orchestrator.write_transcript", 1e3),
        "experiments.run_overhead_ms": statistics.fmean(overhead),
        "experiments.summarize_ms": view.mean("experiments.summarize", 1e3),
    }
