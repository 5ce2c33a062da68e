from __future__ import annotations

import copy
import itertools
import json
import re
import string
from dataclasses import replace
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import oracle_holds
from lelma import verification
from lelma.games import PayoffMatrix, parse_game
from lelma.gateway import Usage
from lelma.orchestrator import (AttemptRecord, ExitReason, SessionTranscript, TranscriptFormatError,
                                payoff_rules_text, read_transcript, write_transcript)
from lelma.translator import parse_queries
from lelma.verification import (
    SCHEMAS,
    Query,
    QueryKind,
    QueryResult,
    VerificationError,
    VerificationReport,
    _KINDS,
    apply_corrections,
    evaluate_all,
    evaluate_query,
    feedback_templates,
    parse_query_line,
    query_to_text,
    render_feedback,
)

LABELS = ("B", "R")
GOLDEN_FEEDBACK = Path(__file__).with_name("verification_feedback.txt")


def payoff_values(g, extra_out_of_range=True):
    values = sorted({u for pair in g.payoffs.entries.values() for u in pair})
    if extra_out_of_range:
        values.append(max(values) + 2)
    return values


def all_instantiations(g):
    """Every syntactically valid query over the label/payoff grid."""
    values = payoff_values(g)
    for kind, schema in [
        (QueryKind.OUTCOME, ("move", "int", "move")),
        (QueryKind.HIGHER, ("int", "int")),
        (QueryKind.LOWER, ("int", "int")),
        (QueryKind.HIGHEST_POSSIBLE, ("int",)),
        (QueryKind.LOWEST_POSSIBLE, ("int",)),
        (QueryKind.HIGHEST_FOR_CHOICE, ("int", "move")),
        (QueryKind.LOWEST_FOR_CHOICE, ("int", "move")),
        (QueryKind.HIGHEST_GUARANTEED_CHOICE, ("move",)),
        (QueryKind.HIGHER_GUARANTEED, ("move", "move")),
        (QueryKind.LOWER_GUARANTEED, ("move", "move")),
        (QueryKind.HIGHEST_MUTUAL, ("move", "move")),
        (QueryKind.LOWEST_MUTUAL, ("move", "move")),
    ]:
        pools = [values if slot == "int" else LABELS for slot in schema]
        for args in itertools.product(*pools):
            yield Query(kind, args)


def test_exhaustive_sweep_agrees_with_oracle(games):
    checked = 0
    for g in games.values():
        for q in all_instantiations(g):
            result = evaluate_query(q, g)
            assert result.holds == oracle_holds(q.kind.value, q.args, g), (
                g.name,
                query_to_text(q),
            )
            checked += 1
    assert checked >= 100 * len(games)


def test_corrections_substitute_back_to_holding_queries(games):
    for g in games.values():
        for q in all_instantiations(g):
            result = evaluate_query(q, g)
            if result.holds:
                assert result.corrections == ()
                continue
            assert result.corrections, query_to_text(q)
            fixed = apply_corrections(q, result.corrections)
            assert evaluate_query(fixed, g).holds, (
                g.name,
                query_to_text(q),
                result.corrections,
            )
            assert result.explanation


# --- published examples -----------------------------------------------------


def test_outcome_examples(pd):
    # (D,C) pays the reasoner 5; in label space that is R against B.
    assert evaluate_query(Query(QueryKind.OUTCOME, ("R", 5, "B")), pd).holds
    assert evaluate_query(Query(QueryKind.OUTCOME, ("R", 1, "R")), pd).holds
    failed = evaluate_query(Query(QueryKind.OUTCOME, ("B", 1, "R")), pd)
    assert not failed.holds
    assert failed.corrections == (("payoff", 0),)


def test_the_row_player_the_program_names_is_the_reasoner():
    # A pd whose program makes p2 the row player, with (D,C) paying it 6.
    pd_text = files("lelma").joinpath("resources", "games", "pd.gdl").read_text()
    for old, new in [
        ("role(p1,row)", "role(p2,row)"),
        ("role(p2,col)", "role(p1,col)"),
        ("payoff('D', 'C', 5, 0)", "payoff('D', 'C', 6, 1)"),
    ]:
        assert pd_text.count(old) == 1
        pd_text = pd_text.replace(old, new)
    g = parse_game(pd_text)
    assert (g.reasoner, g.opponent) == ("p2", "p1")
    assert g.label_payoffs["R", "B"] == (6, 1)
    for own, other, n in itertools.product(LABELS, LABELS, range(8)):
        q = Query(QueryKind.OUTCOME, (own, n, other))
        result = evaluate_query(q, g)
        assert result.holds == (g.label_payoffs[own, other][0] == n), query_to_text(q)
        if not result.holds:
            assert evaluate_query(apply_corrections(q, result.corrections), g).holds


def test_higher_example(pd):
    result = evaluate_query(Query(QueryKind.HIGHER, (1, 3)), pd)
    assert not result.holds
    assert result.explanation == "1 is not higher than 3; 3 is higher than 1."


def test_comparison_duality(pd):
    for a in (0, 1, 3, 5):
        for b in (0, 1, 3, 5):
            higher = evaluate_query(Query(QueryKind.HIGHER, (a, b)), pd).holds
            lower = evaluate_query(Query(QueryKind.LOWER, (b, a)), pd).holds
            assert higher == lower
            if a == b:
                assert not higher and not lower


def test_equal_ties_get_equal_corrections(pd):
    result = evaluate_query(Query(QueryKind.HIGHER, (3, 3)), pd)
    assert not result.holds
    assert result.corrections == (("relation", "equal"),)
    fixed = apply_corrections(Query(QueryKind.HIGHER, (3, 3)), result.corrections)
    assert fixed.kind is QueryKind.EQUAL
    assert evaluate_query(fixed, pd).holds


def test_payoff_view_helpers(games):
    pd, sh, hd = (games[name].payoff_summary for name in ("pd", "sh", "hd"))
    assert pd.guaranteed == {"R": 1, "B": 0}
    assert sh.guaranteed == {"R": 1, "B": 0}
    assert hd.guaranteed == {"R": 0, "B": 1}
    assert pd.best["R"] == 5 and pd.best["B"] == 3
    assert pd.mutual["B", "B"] == 6 and pd.mutual["R", "R"] == 2
    assert hd.mutual["R", "B"] == 6  # tied with (B,R) and (B,B)


def test_guaranteed_payoff_choice_example(pd):
    result = evaluate_query(Query(QueryKind.HIGHEST_GUARANTEED_CHOICE, ("B",)), pd)
    assert not result.holds
    assert result.corrections == (("choice", "R"),)
    assert "R" in result.explanation and "1" in result.explanation and "0" in result.explanation


def test_mutual_tie_lists_all_maximizers(hd):
    result = evaluate_query(Query(QueryKind.HIGHEST_MUTUAL, ("R", "R")), hd)
    assert not result.holds
    assert result.corrections == (
        ("choices", ("R", "B")),
        ("choices", ("B", "R")),
        ("choices", ("B", "B")),
    )
    holds = evaluate_query(Query(QueryKind.HIGHEST_MUTUAL, ("R", "B")), hd)
    assert holds.holds


# --- parsing ----------------------------------------------------------------


def test_parse_all_catalogue_templates(pd):
    cases = {
        "finally(outcome(you,B,1,them,R,_),S)": (QueryKind.OUTCOME, ("B", 1, "R")),
        "higher(1, 3)": (QueryKind.HIGHER, (1, 3)),
        "lower(1, 3)": (QueryKind.LOWER, (1, 3)),
        "highest_possible_individual_payoff(1)": (QueryKind.HIGHEST_POSSIBLE, (1,)),
        "lowest_possible_individual_payoff(1)": (QueryKind.LOWEST_POSSIBLE, (1,)),
        "highest_individual_payoff_for_choice(1,B)": (
            QueryKind.HIGHEST_FOR_CHOICE,
            (1, "B"),
        ),
        "lowest_individual_payoff_for_choice(1,B)": (
            QueryKind.LOWEST_FOR_CHOICE,
            (1, "B"),
        ),
        "highest_guaranteed_payoff_choice(B).": (
            QueryKind.HIGHEST_GUARANTEED_CHOICE,
            ("B",),
        ),
        "higher_guaranteed_payoff(B,R)": (QueryKind.HIGHER_GUARANTEED, ("B", "R")),
        "lower_guaranteed_payoff(B,R)": (QueryKind.LOWER_GUARANTEED, ("B", "R")),
        "highest_mutual_payoff(R,R)": (QueryKind.HIGHEST_MUTUAL, ("R", "R")),
        "lowest_mutual_payoff(R,R)": (QueryKind.LOWEST_MUTUAL, ("R", "R")),
    }
    for text, (kind, args) in cases.items():
        q = parse_query_line(text, pd)
        assert (q.kind, q.args) == (kind, args), text


def test_parse_is_whitespace_and_case_tolerant(pd):
    q = parse_query_line("  Higher( 5 , 0 ) .", pd)
    assert (q.kind, q.args) == (QueryKind.HIGHER, (5, 0))
    q = parse_query_line("finally( outcome( you , b , 1 , them , r , _ ) , s )", pd)
    assert (q.kind, q.args) == (QueryKind.OUTCOME, ("B", 1, "R"))
    q = parse_query_line("highest_guaranteed_payoff_choice('B')", pd)
    assert q.args == ("B",)


@pytest.mark.parametrize("line, message", [
    ("highest_guaranteed_payoff_choice(Hawk)", "unknown move label 'Hawk' (valid: B, R)"),
    ("nash_equilibrium(B)", "unknown query predicate 'nash_equilibrium'"),
    ("higher(1)", "higher takes 2 argument(s), got 1"),
    ("higher(one, two)", "higher: expected an integer, got 'one'"),
    ("this is prose, not a query", "not a recognized query template: 'this is prose, not a query'"),
])
def test_parse_rejects_unknown_moves_and_predicates(pd, line, message):
    with pytest.raises(VerificationError) as err:
        parse_query_line(line, pd)
    assert str(err.value) == message


def test_bool_is_not_an_int_argument():
    # bool subclasses int, but True is no payoff
    with pytest.raises(VerificationError, match="^higher: expected an integer, got True$"):
        Query(QueryKind.HIGHER, (True, 0))
    message = "^highest_possible_individual_payoff: expected an integer, got False$"
    with pytest.raises(VerificationError, match=message):
        Query(QueryKind.HIGHEST_POSSIBLE, (False,))


def test_an_int_subclass_other_than_bool_is_an_int_argument(pd):
    class Payoff(int):
        pass

    q = Query(QueryKind.HIGHER, (Payoff(5), 0))
    assert q.args == (5, 0) and type(q.args[0]) is Payoff
    assert evaluate_query(q, pd).holds


def test_internal_equal_kind_is_not_parseable(pd):
    # whitelist closure: the correction-only comparison never parses
    with pytest.raises(VerificationError, match="^unknown query predicate 'equal'$"):
        parse_query_line("equal(1, 1)", pd)


def test_round_trip_canonical_text(pd):
    for q in all_instantiations(pd):
        assert parse_query_line(query_to_text(q), pd) == q


# --- batch evaluation and feedback -------------------------------------------


def test_a_malformed_query_raises_before_it_reaches_evaluate_all(pd):
    with pytest.raises(VerificationError, match="^higher: expected an integer, got 'B'$"):
        Query(QueryKind.HIGHER, ("B", 0))  # a move where an int is expected
    good, failing = Query(QueryKind.HIGHER, (5, 0)), Query(QueryKind.HIGHER, (0, 5))
    report = evaluate_all([good, failing], pd)
    assert [(r.holds, r.error) for r in report.results] == [(True, None), (False, None)]
    assert report.failed == (report.results[1],)


@pytest.fixture
def check_calls(monkeypatch):
    """The queries `check_query` is called with, the calls counted through
    the module global that building a Query calls."""
    calls = []
    check = verification.check_query

    def counted(q):
        calls.append(q)
        check(q)

    monkeypatch.setattr(verification, "check_query", counted)
    return calls


def test_a_parsed_query_is_checked_once(pd, check_calls):
    lines = [
        "higher(5, 3)",
        "lowest_possible_individual_payoff(7)",
        "highest_guaranteed_payoff_choice(R)",
        "finally(outcome(you,B,3,them,B,_),S)",
        "not a query",
    ]
    queries, diagnostics = parse_queries("\n".join(lines), pd)
    assert diagnostics.parsed_count == 4 and len(check_calls) == 4
    report = evaluate_all(queries, pd)
    assert check_calls == queries  # evaluate_all checked none of them again
    assert [(r.holds, r.error) for r in report.results] == [
        (True, None), (False, None), (True, None), (True, None)
    ]


def test_a_query_is_checked_once_where_it_is_built(pd, check_calls):
    parsed = parse_query_line("higher(5, 3)", pd)
    built = Query(QueryKind.HIGHER, (5, 3))
    replaced = replace(parsed, args=(3, 5))
    copied = copy.copy(parsed)  # a copy is no new build: it stays the checked query
    assert check_calls == [parsed, built, replaced]
    assert copied == parsed and copied.source_text == "higher(5, 3)"
    with pytest.raises(VerificationError, match=r"^higher takes 2 argument\(s\), got 1$"):
        Query(QueryKind.HIGHER, (5,))
    with pytest.raises(VerificationError, match="^higher: expected an integer, got 'B'$"):
        replace(parsed, args=("B", 3))
    del check_calls[:]
    report = evaluate_all([parsed, built, replaced, copied], pd)
    assert check_calls == []
    assert [r.holds for r in report.results] == [True, True, False, True]


def test_evaluate_all_captures_engine_errors():
    # A `finally` clause that never ends once the row player's payoff is
    # bound, ahead of the game's own: the table, searched with that payoff
    # open, derives, and an outcome verdict loops.
    pd_text = files("lelma").joinpath("resources", "games", "pd.gdl").read_text()
    looping = (
        "finally(outcome(P1,M1,U1,P2,M2,U2), S) :- ground(U1), loop(S).\n"
        "loop(S) :- loop(S).\n"
    )
    at = pd_text.index("finally(outcome(")
    g = parse_game(pd_text[:at] + looping + pd_text[at:])
    q = parse_query_line("finally(outcome(you,B,3,them,B,_),S)", g)
    good = Query(QueryKind.HIGHER, (5, 0))
    report = evaluate_all([q, good], g)
    looped, held = report.results
    assert looped.error == "resolution depth limit exceeded (512)"
    assert looped.explanation == "Could not verify: resolution depth limit exceeded (512)"
    assert not looped.holds and looped.corrections == ()
    assert held.holds


def test_every_verdict_reads_the_payoff_table_the_rules_derive():
    # pd whose outcome rule, not its payoff facts, swaps each pair's payoffs:
    # (D, C) pays the reasoner 0 and (C, D) pays it 5.
    pd_text = files("lelma").joinpath("resources", "games", "pd.gdl").read_text()
    g = parse_game(pd_text.replace("payoff(M1, M2, U1, U2).", "payoff(M1, M2, U2, U1)."))
    rules_table = {("D", "D"): (1, 1), ("D", "C"): (0, 5), ("C", "D"): (5, 0), ("C", "C"): (3, 3)}
    assert g.payoffs.entries == rules_table
    # The oracle reads the table from a stand-in that holds it, written out above.
    oracle_game = SimpleNamespace(payoffs=PayoffMatrix(("D", "C"), rules_table),
                                  move_labels=g.move_labels)
    checked = 0
    for q in all_instantiations(g):
        result = evaluate_query(q, g)
        assert result.holds == oracle_holds(q.kind.value, q.args, oracle_game), query_to_text(q)
        if not result.holds:
            fixed = apply_corrections(q, result.corrections)
            assert evaluate_query(fixed, g).holds, (query_to_text(q), result.corrections)
        checked += 1
    assert checked >= 100


def test_render_feedback_joins_failed_explanations(pd):
    report = evaluate_all(
        [Query(QueryKind.HIGHER, (1, 3)), Query(QueryKind.HIGHEST_POSSIBLE, (9,))], pd
    )
    text = render_feedback(report)
    assert text.splitlines() == [
        "1 is not higher than 3; 3 is higher than 1.",
        "The highest individual payoff you can get is 5, not 9.",
    ]


def test_render_feedback_requires_failures(pd):
    report = evaluate_all([Query(QueryKind.HIGHER, (5, 0))], pd)
    with pytest.raises(VerificationError, match="^no failed queries to render feedback for$"):
        render_feedback(report)


def test_feedback_templates_resource_is_complete():
    templates = feedback_templates()
    for kind in QueryKind:
        if kind is QueryKind.EQUAL:
            continue
        assert any(key == kind.value or key.startswith(f"{kind.value}.") for key in templates), (
            kind
        )


# --- golden feedback ---------------------------------------------------------


def golden_queries(g):
    """The sweep grid plus the internal EQUAL kind over the same values."""
    yield from all_instantiations(g)
    values = payoff_values(g)
    for a, b in itertools.product(values, values):
        yield Query(QueryKind.EQUAL, (a, b))


def feedback_records(games):
    """One line per query: verdict, corrections, explanation, corrected query."""
    for name, g in games.items():
        for q in golden_queries(g):
            r = evaluate_query(q, g)
            fixed = query_to_text(apply_corrections(q, r.corrections)) if r.corrections else "-"
            yield (
                f"[{name}] {query_to_text(q)} | {r.holds} | {r.corrections} "
                f"| {r.explanation} | {fixed}"
            )


def template_pattern(text):
    """A regex matching every sentence the template can format to."""
    parts = []
    for literal, field_name, _, _ in string.Formatter().parse(text):
        parts.append(re.escape(literal))
        if field_name is not None:
            parts.append(".+")
    return re.compile("".join(parts))


def test_feedback_matches_golden_file(games):
    recorded = [
        line for line in GOLDEN_FEEDBACK.read_text().splitlines() if not line.startswith("#")
    ]
    assert list(feedback_records(games)) == recorded


def test_golden_feedback_uses_every_template(games):
    patterns = {key: template_pattern(text) for key, text in feedback_templates().items()}
    used = set()
    for g in games.values():
        for q in golden_queries(g):
            r = evaluate_query(q, g)
            if r.holds:
                continue
            keys = [key for key, p in patterns.items() if p.fullmatch(r.explanation)]
            assert len(keys) == 1, (g.name, query_to_text(q), keys)
            used.update(keys)
    assert used == set(patterns)


# --- a game whose payoff facts list label B's move first ----------------------

SWAPPED_FEEDBACK = Path(__file__).with_name("swapped_labels_feedback.txt")

# Asymmetric payoffs listed with 'C' (label B) first; the payoff view still
# lists R first, as in pd, sh and hd. The highest mutual payoff ties between
# (R, R) and (R, B).
_SWAPPED_PAYOFFS = """\
payoff('C', 'C', 4, 2).
payoff('C', 'D', 0, 3).
payoff('D', 'C', 6, 1).
payoff('D', 'D', 2, 5).
"""


@pytest.fixture(scope="module")
def swapped():
    pd_text = files("lelma").joinpath("resources", "games", "pd.gdl").read_text()
    rules = [
        line for line in pd_text.splitlines() if not line.startswith(("%! name", "payoff("))
    ]
    g = parse_game("%! name: swapped\n" + _SWAPPED_PAYOFFS + "\n".join(rules) + "\n")
    assert tuple(g.label_payoffs) == (("R", "R"), ("R", "B"), ("B", "R"), ("B", "B"))
    return g


def test_swapped_labels_verdicts_agree_with_oracle(swapped):
    checked = 0
    for q in golden_queries(swapped):
        assert evaluate_query(q, swapped).holds == oracle_holds(q.kind.value, q.args, swapped), (
            query_to_text(q)
        )
        checked += 1
    assert checked > 100


def test_swapped_labels_rules_text_gives_each_players_payoff(swapped):
    assert payoff_rules_text(swapped).splitlines() == [
        "If you pick R and they pick R, you get $2 and they get $5.",
        "If you pick R and they pick B, you get $6 and they get $1.",
        "If you pick B and they pick R, you get $0 and they get $3.",
        "If you pick B and they pick B, you get $4 and they get $2.",
    ]


def test_swapped_labels_feedback_matches_recorded_file(swapped):
    recorded = [
        line for line in SWAPPED_FEEDBACK.read_text().splitlines() if not line.startswith("#")
    ]
    assert list(feedback_records({"swapped": swapped})) == recorded


# --- the parsing and validation table ------------------------------------------

PARSED = [  # (line, kind, args) on pd, whose labels are B and R
    ("higher(5, 0)", QueryKind.HIGHER, (5, 0)),
    ("HIGHER(5,0)", QueryKind.HIGHER, (5, 0)),
    ("  Higher ( 5 ,\t0 )  ", QueryKind.HIGHER, (5, 0)),
    ("lower(0, 5).", QueryKind.LOWER, (0, 5)),
    ("lower( 0 , 5 ) . ", QueryKind.LOWER, (0, 5)),
    ("higher(007, -0)", QueryKind.HIGHER, (7, 0)),
    ("highest_individual_payoff_for_choice(-3, R)", QueryKind.HIGHEST_FOR_CHOICE, (-3, "R")),
    ("highest_possible_individual_payoff(٣)", QueryKind.HIGHEST_POSSIBLE, (3,)),
    ("lowest_possible_individual_payoff(-١٢)", QueryKind.LOWEST_POSSIBLE, (-12,)),
    ("highest_guaranteed_payoff_choice('B')", QueryKind.HIGHEST_GUARANTEED_CHOICE, ("B",)),
    ("highest_guaranteed_payoff_choice(b)", QueryKind.HIGHEST_GUARANTEED_CHOICE, ("B",)),
    ('highest_guaranteed_payoff_choice( "r" )', QueryKind.HIGHEST_GUARANTEED_CHOICE, ("R",)),
    ("lowest_mutual_payoff(R,'b')", QueryKind.LOWEST_MUTUAL, ("R", "B")),
    ("finally(outcome(you,'b',-1,them,R,_),S).", QueryKind.OUTCOME, ("B", -1, "R")),
    ("FINALLY( OUTCOME( YOU , R , 3 , THEM , B , _ ) , s )", QueryKind.OUTCOME, ("R", 3, "B")),
    ('finally(outcome(you,"R",1,them,R,_),S)', QueryKind.OUTCOME, ("R", 1, "R")),
]

REJECTED = [  # (line, message) on pd
    ("", "empty line"),
    ("  .  ", "empty line"),
    ("higher(5,)", "higher: expected an integer, got ''"),
    ("higher(5, 0) x", "not a recognized query template: 'higher(5, 0) x'"),
    ("higher(1, 2))", "not a recognized query template: 'higher(1, 2))'"),
    ("Nash(B)", "unknown query predicate 'Nash'"),
    ("equal(1, 1)", "unknown query predicate 'equal'"),
    ("higher(1)", "higher takes 2 argument(s), got 1"),
    ("HIGHER(1, 2, 3)", "higher takes 2 argument(s), got 3"),
    ("higher()", "higher takes 2 argument(s), got 0"),
    ("higher(one, 2)", "higher: expected an integer, got 'one'"),
    ("higher(1.5, 2)", "higher: expected an integer, got '1.5'"),
    ("higher(+1, 2)", "higher: expected an integer, got '+1'"),
    ("higher(- 1, 2)", "higher: expected an integer, got '- 1'"),
    ("highest_guaranteed_payoff_choice(Hawk)", "unknown move label 'Hawk' (valid: B, R)"),
    ("highest_guaranteed_payoff_choice( 'Q' )", "unknown move label \"'Q'\" (valid: B, R)"),
    ("finally(outcome(you,X,1,them,B,_),S)", "unknown move label 'X' (valid: B, R)"),
    (
        "finally(outcome(you,B,x,them,B,_),S)",
        "not a recognized query template: 'finally(outcome(you,B,x,them,B,_),S)'",
    ),
    # A move's quotes must pair.
    (
        "finally(outcome(you,'R\",1,them,R,_),S)",
        "not a recognized query template: 'finally(outcome(you,\\'R\",1,them,R,_),S)'",
    ),
    (
        "finally(outcome(you,R,1,them,'R,_),S)",
        "not a recognized query template: \"finally(outcome(you,R,1,them,'R,_),S)\"",
    ),
    ("highest_guaranteed_payoff_choice('R\")", "unknown move label '\\'R\"' (valid: B, R)"),
    ("highest_guaranteed_payoff_choice(R')", "unknown move label \"R'\" (valid: B, R)"),
]

INVALID = [  # hand-built queries: (kind, args, message) on pd
    (QueryKind.HIGHER, (True, 0), "higher: expected an integer, got True"),
    (QueryKind.HIGHEST_POSSIBLE, (False,),
     "highest_possible_individual_payoff: expected an integer, got False"),
    (QueryKind.HIGHER, (1.0, 0), "higher: expected an integer, got 1.0"),
    (QueryKind.OUTCOME, ("B", "3", "R"), "outcome: expected an integer, got '3'"),
    (QueryKind.HIGHEST_GUARANTEED_CHOICE, (1,),
     "highest_guaranteed_payoff_choice: expected move label, got 1"),
    (QueryKind.HIGHER_GUARANTEED, ("B", "X"), "unknown move label 'X' (valid: B, R)"),
    (QueryKind.HIGHER_GUARANTEED, ("b", "R"), "unknown move label 'b' (valid: B, R)"),
    (QueryKind.HIGHER, (1,), "higher takes 2 argument(s), got 1"),
]


@pytest.mark.parametrize("line, kind, args", PARSED)
def test_parse_table(pd, line, kind, args):
    q = parse_query_line(line, pd)
    assert (q.kind, q.args, q.source_text) == (kind, args, line.strip())
    assert all(type(a) is (int if s == "int" else str) for a, s in zip(q.args, SCHEMAS[kind]))
    assert evaluate_query(q, pd).error is None


@pytest.mark.parametrize("line, message", REJECTED)
def test_parse_rejection_table(pd, line, message):
    with pytest.raises(VerificationError) as err:
        parse_query_line(line, pd)
    assert (type(err.value), str(err.value)) == (VerificationError, message)


def build_errors(kind, args, tmp_path):
    """The errors, as (type, message), that building a query of `kind` over
    `args` raises: by hand, by `replace` on a well-formed query, and by
    reading it from a transcript, which names its check's error as cause."""
    good = Query(kind, tuple(1 if slot == "int" else "B" for slot in SCHEMAS[kind]))
    path = tmp_path / "t.jsonl"
    result = QueryResult(good, True, (), "Confirmed")
    attempt = AttemptRecord(1, "", "", "", VerificationReport((result,)), None, ExitReason.ALL_TRUE)
    write_transcript(str(path), SessionTranscript("s", "pd", "m", (attempt,), Usage(), 0.0))
    first, rest = path.read_text().split("\n", 1)
    record = json.loads(first)
    record["results"][0]["query"]["args"] = list(args)
    path.write_text(json.dumps(record) + "\n" + rest)
    errors = []
    for build, raised in [
        (lambda: Query(kind, args), VerificationError),
        (lambda: replace(good, args=args), VerificationError),
        (lambda: read_transcript(str(path)), TranscriptFormatError),
    ]:
        with pytest.raises(raised) as err:
            build()
        exc = err.value.__cause__ if raised is TranscriptFormatError else err.value
        errors.append((type(exc), str(exc)))
    return errors


@pytest.mark.parametrize("kind, args, message", INVALID)
def test_validation_table(tmp_path, kind, args, message):
    assert build_errors(kind, args, tmp_path) == [(VerificationError, message)] * 3



def malformed_queries():
    """(kind, args, message) for each parseable kind: a wrong arity, a
    non-integer payoff and an unknown label, where the kind has the slot
    and its text form reaches the argument check. An outcome line of
    another arity or with a non-integer payoff is no template at all."""
    for kind, schema in SCHEMAS.items():
        if kind is QueryKind.EQUAL:
            continue
        good = [1 if slot == "int" else "B" for slot in schema]
        outcome = kind is QueryKind.OUTCOME
        if not outcome:
            arity = f"{kind.value} takes {len(schema)} argument(s), got {len(schema) + 1}"
            yield pytest.param(kind, (*good, 1), arity, id=f"{kind.value}-arity")
        for slot, bad, message in [("int", "x", f"{kind.value}: expected an integer, got 'x'"),
                                   ("move", "X", "unknown move label 'X' (valid: B, R)")]:
            if slot in schema and not (outcome and slot == "int"):
                i = schema.index(slot)
                args = (*good[:i], bad, *good[i + 1 :])
                yield pytest.param(kind, args, message, id=f"{kind.value}-{slot}")


def query_line(kind, args):
    """The template line of a query of `kind` over `args`, well-formed or not."""
    if kind is QueryKind.OUTCOME:
        m, n, o = args
        return f"finally(outcome(you,{m},{n},them,{o},_),S)"
    return f"{kind.value}({', '.join(map(str, args))})"


@pytest.mark.parametrize("kind, args, message", malformed_queries())
def test_parsed_and_hand_built_queries_fail_alike(pd, tmp_path, kind, args, message):
    with pytest.raises(VerificationError) as parsed:
        parse_query_line(query_line(kind, args), pd)
    assert (type(parsed.value), str(parsed.value)) == (VerificationError, message)
    assert build_errors(kind, args, tmp_path) == [(VerificationError, message)] * 3


def test_one_kind_table_entry_per_kind():
    assert list(_KINDS) == list(QueryKind)
    assert {slot for schema, _, _ in _KINDS.values() for slot in schema} == {"int", "move"}


def test_the_judges_return_exactly_the_template_keys(games):
    keys = set()
    for g in games.values():
        values = payoff_values(g)
        ties = (Query(QueryKind.EQUAL, args) for args in itertools.product(values, values))
        for q in [*all_instantiations(g), *ties]:
            keys.add(_KINDS[q.kind][1](g, q.kind, q.args)[1])
    assert keys - {""} == set(feedback_templates())


def test_evaluation_table(pd):
    held = evaluate_query(Query(QueryKind.HIGHER, (5, 0)), pd)
    assert (held.holds, held.explanation) == (True, "Confirmed: higher(5, 0)")
    outcome = evaluate_query(Query(QueryKind.OUTCOME, ("B", 3, "B")), pd)
    assert (outcome.holds, outcome.explanation) == (
        True, "Confirmed: finally(outcome(you,B,3,them,B,_),S)"
    )
    failed = evaluate_query(Query(QueryKind.LOWEST_FOR_CHOICE, (3, "B")), pd)
    assert (failed.holds, failed.corrections) == (False, (("payoff", 0),))
