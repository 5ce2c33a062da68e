"""End-to-end acceptance checks, one per shipping criterion.

Run with -s to see the per-criterion pass/fail lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

import test_gdl
import test_terms
import test_translator
from oracles import (
    CLASSIC_RATINGS_10x14,
    FIXED_RATINGS_10x3,
    oracle_fleiss_kappa,
    oracle_holds,
)
from test_verification import all_instantiations
from lelma.engine import solve_all
from lelma.experiments import (
    ExperimentConfig,
    attempts_distribution,
    choice_distribution,
    confusion_matrix,
    fleiss_kappa,
    format_percent,
    mock_session_scripts,
    read_transcripts_dir,
    run_experiment,
)
from lelma.games import enumerate_outcomes, load_game
from lelma.gateway import ModelConfig, replay_config
from lelma.gdl import parse_goal
from lelma.orchestrator import ExitReason, LoopConfig, run_session, write_transcript
from lelma.verification import apply_corrections, evaluate_query, query_to_text


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number} pass: {description}")


def test_criterion_1_worked_query(pd):
    with criterion(1, "PD goal-5 query yields exactly the two published situations in < 100 ms"):
        goal = parse_goal("game(s0, F), finally(goal(p1, 5), F)")
        pd.rulebase  # warm the cached index; the criterion times the solving
        started = time.perf_counter()
        answers = solve_all(pd.rulebase, goal)
        elapsed = time.perf_counter() - started
        rendered = {str(a[next(iter(a))]) for a in answers}
        assert len(answers) == 2
        assert rendered == {
            "do(choice(p2,'C'),do(choice(p1,'D'),s0))",
            "do(choice(p1,'D'),do(choice(p2,'C'),s0))",
        }
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


EXPECTED_TABLES = {
    "pd": {
        ("D", "D"): (1, 1),
        ("C", "D"): (0, 5),
        ("D", "C"): (5, 0),
        ("C", "C"): (3, 3),
    },
    "sh": {
        ("Hare", "Hare"): (1, 1),
        ("Stag", "Hare"): (0, 3),
        ("Hare", "Stag"): (3, 0),
        ("Stag", "Stag"): (5, 5),
    },
    "hd": {
        ("Hawk", "Hawk"): (0, 0),
        ("Dove", "Hawk"): (1, 5),
        ("Hawk", "Dove"): (5, 1),
        ("Dove", "Dove"): (3, 3),
    },
}


def test_criterion_2_payoff_fidelity(games):
    with criterion(2, "enumerate_outcomes reproduces all 12 outcome tuples across pd/sh/hd"):
        total = 0
        for name, table in EXPECTED_TABLES.items():
            outcomes = enumerate_outcomes(games[name])
            got = {(o.p1_move, o.p2_move): (o.p1_payoff, o.p2_payoff) for o in outcomes}
            assert got == table, name
            assert len(outcomes) == 4
            total += len(outcomes)
        assert total == 12


def test_criterion_3_query_oracle_equivalence(games):
    with criterion(3, "exhaustive query sweep matches the oracle and corrections hold, < 1 s"):
        started = time.perf_counter()
        checked = 0
        for g in games.values():
            for q in all_instantiations(g):
                result = evaluate_query(q, g)
                assert result.holds == oracle_holds(q.kind.value, q.args, g), (
                    g.name,
                    query_to_text(q),
                )
                if not result.holds:
                    fixed = apply_corrections(q, result.corrections)
                    assert evaluate_query(fixed, g).holds, query_to_text(q)
                checked += 1
        elapsed = time.perf_counter() - started
        assert checked >= 300
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def _check_session_invariants(transcript, max_attempts):
    assert 1 <= transcript.attempt_count <= max_attempts
    for position, attempt in enumerate(transcript.attempts, start=1):
        assert attempt.index == position
        is_last = position == transcript.attempt_count
        if not is_last:
            assert attempt.exit is ExitReason.NONE
            assert attempt.report.failed
            next_instruction = transcript.attempts[position].instruction
            assert attempt.reasoning in next_instruction
            for failure in attempt.report.failed:
                assert failure.explanation in next_instruction
        elif attempt.exit is ExitReason.NO_QUERIES:
            assert attempt.queries == ()
        elif attempt.exit is ExitReason.ALL_TRUE:
            assert attempt.queries and not attempt.report.failed
        elif attempt.exit is ExitReason.MAX_ATTEMPTS:
            assert position == max_attempts and attempt.report.failed
        else:
            raise AssertionError(f"last attempt may not have exit {attempt.exit}")
    assert transcript.initial_choice == transcript.attempts[0].extracted_choice
    assert transcript.final_choice == transcript.attempts[-1].extracted_choice


def test_criterion_4_loop_conformance(games, tmp_path):
    with criterion(4, "all three loop exits occur, invariants hold, replay is byte-identical"):
        exits_seen = set()
        for g in games.values():
            for rep in range(4):
                r_script, t_script = mock_session_scripts(g, rep)
                tapes = (
                    str(tmp_path / f"{g.name}_{rep}.r.jsonl"),
                    str(tmp_path / f"{g.name}_{rep}.t.jsonl"),
                )
                cfg = LoopConfig(
                    reasoner=ModelConfig(script=r_script, record_to=tapes[0]),
                    translator=ModelConfig(script=t_script, record_to=tapes[1]),
                )
                live = run_session(g, cfg, session_id=f"{g.name}_{rep}")
                assert not live.aborted
                _check_session_invariants(live, cfg.max_attempts)
                exits_seen.add(live.exit)
                if live.exit is ExitReason.MAX_ATTEMPTS:
                    assert live.attempt_count == 5

                replay_cfg = LoopConfig(
                    reasoner=replay_config(cfg.reasoner, tapes[0]),
                    translator=replay_config(cfg.translator, tapes[1]),
                )
                replayed = run_session(g, replay_cfg, session_id=f"{g.name}_{rep}")
                live_path = tmp_path / f"{g.name}_{rep}.live.jsonl"
                replay_path = tmp_path / f"{g.name}_{rep}.replay.jsonl"
                write_transcript(str(live_path), live)
                write_transcript(str(replay_path), replayed)
                assert replay_path.read_bytes() == live_path.read_bytes()
        assert exits_seen == {
            ExitReason.ALL_TRUE,
            ExitReason.NO_QUERIES,
            ExitReason.MAX_ATTEMPTS,
        }


def test_criterion_5_statistics_fidelity():
    with criterion(5, "published confusion accuracies, oracle-exact kappa, hand-counted fixtures"):
        def counts_to_dicts(tt, tf, ft, ff):
            actual, predicted = {}, {}
            for i, (a, p) in enumerate(
                [(True, True)] * tt + [(True, False)] * tf
                + [(False, True)] * ft + [(False, False)] * ff
            ):
                actual[f"s{i}"], predicted[f"s{i}"] = a, p
            return actual, predicted

        assert confusion_matrix(*counts_to_dicts(15, 5, 9, 61)).accuracy_percent == 84
        assert confusion_matrix(*counts_to_dicts(15, 2, 11, 62)).accuracy_percent == 86

        for rows in (FIXED_RATINGS_10x3, CLASSIC_RATINGS_10x14):
            assert abs(fleiss_kappa(rows) - oracle_fleiss_kappa(rows)) < 1e-9
        assert fleiss_kappa([[4, 0], [0, 4], [4, 0]]) == 1.0

        from test_experiments import fake_transcript

        hist = [
            fake_transcript(n, session_id=f"s{n}_{i}")
            for n, total in zip(range(1, 6), [24, 46, 10, 6, 4])
            for i in range(total)
        ]
        assert attempts_distribution(hist) == {1: 24, 2: 46, 3: 10, 4: 6, 5: 4}

        chooser = [fake_transcript(1, session_id=f"c{i}") for i in range(29)]
        chooser.append(fake_transcript(1, session_id="c29", initial="R", final="R"))
        shares = choice_distribution(chooser)["pd"]
        assert format_percent(shares["final_b"]) == "96.67%"


def test_criterion_6_mock_experiment(tmp_path):
    with criterion(
        6,
        "full mock experiment (3 games x 5 reps) in < 10 s; live-model "
        "percentages are inherently not reproducible offline",
    ):
        out = tmp_path / "runs"
        started = time.perf_counter()
        transcripts, summary = run_experiment(
            ExperimentConfig(repetitions=5, output_dir=str(out)), provider="mock"
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"
        assert summary["sessions"] == 15 and summary["aborted"] == 0
        assert set(summary["exits"]) == {"all_true", "no_queries", "max_attempts"}
        for transcript in transcripts:
            _check_session_invariants(transcript, 5)
        reloaded = read_transcripts_dir(str(out))
        assert {t.session_id: t for t in reloaded} == {
            t.session_id: t for t in transcripts
        }


@pytest.mark.slow
def test_criterion_7_property_suites_at_1000_cases():
    with criterion(7, "unification, parser and translator round-trip properties at 1000 cases"):
        at_1000 = settings(
            max_examples=1000,
            deadline=None,
            suppress_health_check=(HealthCheck.too_slow,),
        )
        for prop in (
            test_terms.test_unify_symmetric_success,
            test_terms.test_unifier_makes_terms_equal,
            test_terms.test_unifier_application_is_idempotent,
            test_gdl.test_clause_round_trip,
            test_gdl.test_program_round_trip,
            test_translator.check_translator_round_trip,
        ):
            at_1000(prop)()
