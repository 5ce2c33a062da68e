"""The three workloads: set-up, one op, and the check of one op's output.

A workload is built from a seed, a scratch directory and the loaded
games, and holds `ops`, the pool its loop cycles through. Each workload
is a closed loop with one caller. Its `run(calls, op)`
calls into the program only through `calls`, a namespace of the
program's public functions, so a traced run can hand in wrapped ones.
`check(op, output)` returns None for a right output or a sentence that
says what is wrong; a wrong output fails the run. Set-up checks its own
warm-up ops and recordings and keeps what it finds in `wrong`.
"""

from __future__ import annotations

import json
import random
import shutil
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from lelma import engine, experiments, gdl, orchestrator, translator, verification
from lelma.experiments import ExperimentConfig
from lelma.gateway import ModelConfig
from lelma.orchestrator import LoopConfig
from lelma.terms import Var

import oracle
from inputs import GAME_NAMES, BatchOp, GoalOp, session_plans, verify_engine_ops

VERIFY_POOL = 192  # ops in the verify-engine pool; the loop cycles through it
SESSION_POOL = 1000  # sessions in the session-loop pool
REPLAY_REPS = 20  # sessions per game in one replayed experiment
MAX_ATTEMPTS = 5


def plain_calls() -> SimpleNamespace:
    """The program functions the benchmark calls directly, unwrapped."""
    return SimpleNamespace(
        parse_goal=gdl.parse_goal,
        solve_all=engine.solve_all,
        parse_queries=translator.parse_queries,
        evaluate_all=verification.evaluate_all,
        run_session=orchestrator.run_session,
        write_transcript=orchestrator.write_transcript,
        run_experiment=experiments.run_experiment,
    )


class Checker:
    """Compares program outputs with the oracle in `oracle.py`."""

    def __init__(self, games):
        self.games = games
        self._reevaluated: "dict[tuple, bool]" = {}

    def results(self, name: str, claims, results) -> "str | None":
        """Verdicts and corrections of one evaluated batch of claims."""
        g = self.games[name]
        if len(results) != len(claims):
            return f"{len(results)} verdicts for {len(claims)} claims"
        for claim, r in zip(claims, results):
            if r.error is not None:
                return f"{claim.text}: verification error {r.error}"
            if (r.query.kind.value, tuple(r.query.args)) != (claim.kind, claim.args):
                return f"{claim.text}: parsed as {r.query}"
            if r.holds != claim.holds:
                return f"{name}: {claim.text} judged {r.holds}, the oracle says {claim.holds}"
            if r.holds:
                continue
            fixed = verification.apply_corrections(r.query, r.corrections)
            if not oracle.holds(g, fixed.kind.value, tuple(fixed.args)):
                return f"{name}: corrections {r.corrections} of {claim.text} give a false claim"
            key = (name, fixed.kind.value, tuple(fixed.args))
            if key not in self._reevaluated:
                self._reevaluated[key] = verification.evaluate_query(fixed, g).holds
            if not self._reevaluated[key]:
                return f"{name}: corrections of {claim.text} do not re-evaluate to true"
        return None

    def session(self, plan, t) -> "str | None":
        """A transcript against the scenario it was generated from."""
        where = f"session {plan.session_id}"
        if t.aborted or t.error is not None:
            return f"{where} aborted: {t.error}"
        if t.attempt_count != len(plan.attempts) or t.exit.value != plan.exit:
            return (
                f"{where}: {t.attempt_count} attempts ending {t.exit.value}, "
                f"planned {len(plan.attempts)} ending {plan.exit}"
            )
        for attempt, planned in zip(t.attempts, plan.attempts):
            if attempt.reasoning != planned.reasoning:
                return f"{where}: attempt {attempt.index} got another reasoning text"
            lines = [l for l in attempt.translator_output.splitlines() if l.strip()]
            if len(lines) - len(attempt.queries) != planned.off_format:
                return f"{where}: attempt {attempt.index} skipped the wrong lines"
            if attempt.extracted_choice != planned.choice:
                return f"{where}: attempt {attempt.index} read choice {attempt.extracted_choice}"
            problem = self.results(plan.game, planned.claims, attempt.report.results)
            if problem:
                return f"{where}, attempt {attempt.index}: {problem}"
        return None


class Workload:
    name = item = ""
    ops: list

    def __init__(self, games):
        self.games = games
        self.checker = Checker(games)
        self.wrong: "list[str]" = []

    def _expect(self, step) -> None:
        """Run one checked set-up step; keep what is wrong with it."""
        try:
            problem = step()
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.wrong.append(f"set-up: {problem}")


class VerifyEngine(Workload):
    """Translator-output batches and worked-form goals, straight to the engine."""

    name = "verify-engine"
    item = "verdicts"

    def __init__(self, seed: int, work_dir: Path, games, calls):
        super().__init__(games)
        self.ops = verify_engine_ops(games, seed, VERIFY_POOL)
        for name in GAME_NAMES:  # warm up on each game's first worked-form goal
            op = next(o for o in self.ops if o.game == name and isinstance(o, GoalOp))
            self._expect(lambda: self.check(op, self.run(calls, op)))

    def run(self, calls, op):
        g = self.games[op.game]
        if isinstance(op, GoalOp):
            return calls.solve_all(g.rulebase, calls.parse_goal(op.text))
        queries, _ = calls.parse_queries(op.text, g)
        return calls.evaluate_all(queries, g)

    def check(self, op, output) -> "str | None":
        g = self.games[op.game]
        if isinstance(op, BatchOp):
            return self.checker.results(op.game, op.claims, output.results)
        if any(set(answer) - {Var("F")} for answer in output):
            return f"{op.text}: answers bind more than F"
        got = Counter(answer[Var("F")] for answer in output)
        want = Counter(oracle.goal_situations(g, op.player, op.utility))
        if got != want:
            return f"{op.text}: {sum(got.values())} answers, {sum(want.values())} expected"
        return None

    def items(self, op) -> int:
        return len(op.claims) if isinstance(op, BatchOp) else 1


def _loop_config(plan, record_dir: "Path | None" = None) -> LoopConfig:
    """Mock models that play `plan`; with `record_dir`, they also record
    cassettes named the way run_experiment looks them up."""

    def model(role: str, script) -> ModelConfig:
        record_to = record_dir and str(record_dir / f"{plan.session_id}.{role}.jsonl")
        return ModelConfig(provider="mock", script=tuple(script), record_to=record_to)

    return LoopConfig(
        reasoner=model("reasoner", (a.reasoning for a in plan.attempts)),
        translator=model("translator", (a.translator_output for a in plan.attempts)),
        max_attempts=MAX_ATTEMPTS,
    )


class SessionLoop(Workload):
    """In-memory mock sessions: orchestrator, translator parsing, payoff view."""

    name = "session-loop"
    item = "sessions"

    def __init__(self, seed: int, work_dir: Path, games, calls):
        super().__init__(games)
        slots = [(GAME_NAMES[i % 3], f"s{i:04d}") for i in range(SESSION_POOL)]
        plans = session_plans(games, seed, slots, self.name)
        self.ops = [(plan, _loop_config(plan)) for plan in plans]
        random.Random(f"{self.name}-order:{seed}").shuffle(self.ops)
        for name in GAME_NAMES:
            op = next(o for o in self.ops if o[0].game == name)
            self._expect(lambda: self.check(op, self.run(calls, op)))

    def run(self, calls, op):
        plan, cfg = op
        return calls.run_session(self.games[plan.game], cfg, session_id=plan.session_id)

    def check(self, op, output) -> "str | None":
        return self.checker.session(op[0], output)

    def items(self, op) -> int:
        return 1


class ReplayExperiment(Workload):
    """`lelma run --provider replay` over cassettes recorded in set-up."""

    name = "replay-experiment"
    item = "sessions"

    def __init__(self, seed: int, work_dir: Path, games, calls):
        super().__init__(games)
        cassettes, self.references = work_dir / "cassettes", work_dir / "references"
        for stale in (cassettes, self.references):  # recording appends to a cassette
            shutil.rmtree(stale, ignore_errors=True)
        slots = [(n, f"{n}_{rep:03d}") for n in GAME_NAMES for rep in range(REPLAY_REPS)]
        self.plans = session_plans(games, seed, slots, self.name)
        for plan in self.plans:
            self._expect(lambda: self._record(calls, plan, _loop_config(plan, cassettes)))
        self.config = ExperimentConfig(
            games=GAME_NAMES,
            repetitions=REPLAY_REPS,
            parallelism=1,  # on two vCPUs a second worker made each run slower
            output_dir=str(work_dir / "runs"),
            cassette_dir=str(cassettes),
            max_attempts=MAX_ATTEMPTS,
        )
        self.ops = [self.config]
        self._expect(lambda: self.check(self.config, self.run(calls, self.config)))

    def _record(self, calls, plan, cfg) -> "str | None":
        transcript = calls.run_session(self.games[plan.game], cfg, session_id=plan.session_id)
        calls.write_transcript(str(self.references / f"{plan.session_id}.jsonl"), transcript)
        return self.checker.session(plan, transcript)

    def run(self, calls, op):
        return calls.run_experiment(op, provider="replay")

    def check(self, op, output) -> "str | None":
        transcripts, summary = output
        if len(transcripts) != len(self.plans) or summary["sessions"] != len(self.plans):
            return f"{len(transcripts)} sessions replayed, {len(self.plans)} recorded"
        if summary["aborted"] or any(t.aborted for t in transcripts):
            return f"{summary['aborted']} replayed sessions aborted"
        runs = Path(op.output_dir)
        if not (runs / "summary.json").is_file():
            return "summary.json was not written"
        on_disk = json.loads((runs / "summary.json").read_text())
        if on_disk != summary:
            return "summary.json differs from the returned summary"
        for plan in self.plans:
            name = f"{plan.session_id}.jsonl"
            if (runs / name).read_bytes() != (self.references / name).read_bytes():
                return f"replayed transcript {name} differs from the recorded one"
        return None

    def items(self, op) -> int:
        return len(self.plans)


WORKLOADS = {w.name: w for w in (VerifyEngine, SessionLoop, ReplayExperiment)}
