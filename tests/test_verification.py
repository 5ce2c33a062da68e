from __future__ import annotations

import itertools
import re
import string
from pathlib import Path

import pytest

from oracles import oracle_holds
from lelma.verification import (
    EmptyFailureSetError,
    MalformedQueryError,
    Query,
    QueryKind,
    UnknownMoveError,
    apply_corrections,
    best_payoff_for_choice,
    evaluate_all,
    evaluate_query,
    feedback_templates,
    guaranteed_payoff,
    mutual_payoff,
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
    pd, sh, hd = games["pd"], games["sh"], games["hd"]
    assert guaranteed_payoff(pd, "R") == 1 and guaranteed_payoff(pd, "B") == 0
    assert guaranteed_payoff(sh, "R") == 1 and guaranteed_payoff(sh, "B") == 0
    assert guaranteed_payoff(hd, "R") == 0 and guaranteed_payoff(hd, "B") == 1
    assert best_payoff_for_choice(pd, "R") == 5 and best_payoff_for_choice(pd, "B") == 3
    assert mutual_payoff(pd, "B", "B") == 6 and mutual_payoff(pd, "R", "R") == 2
    assert mutual_payoff(hd, "R", "B") == 6  # tied with (B,R) and (B,B)


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


def test_parse_rejects_unknown_moves_and_predicates(pd):
    with pytest.raises(UnknownMoveError):
        parse_query_line("highest_guaranteed_payoff_choice(Hawk)", pd)
    with pytest.raises(MalformedQueryError):
        parse_query_line("nash_equilibrium(B)", pd)
    with pytest.raises(MalformedQueryError):
        parse_query_line("higher(1)", pd)
    with pytest.raises(MalformedQueryError):
        parse_query_line("higher(one, two)", pd)
    with pytest.raises(MalformedQueryError):
        parse_query_line("this is prose, not a query", pd)


def test_internal_equal_kind_is_not_parseable(pd):
    # whitelist closure: the correction-only comparison never parses
    with pytest.raises(MalformedQueryError):
        parse_query_line("equal(1, 1)", pd)


def test_round_trip_canonical_text(pd):
    for q in all_instantiations(pd):
        assert parse_query_line(query_to_text(q), pd) == q


# --- batch evaluation and feedback -------------------------------------------


def test_evaluate_all_captures_errors_without_aborting(pd):
    good = Query(QueryKind.HIGHER, (5, 0))
    bad = Query(QueryKind.HIGHER, ("B", 0))  # malformed: move where int expected
    failing = Query(QueryKind.HIGHER, (0, 5))
    report = evaluate_all([good, bad, failing], pd)
    assert [r.holds for r in report.results] == [True, False, False]
    assert report.results[1].error is not None
    assert report.failed == (report.results[2],)
    assert not report.all_hold


def test_render_feedback_joins_failed_explanations(pd):
    report = evaluate_all(
        [Query(QueryKind.HIGHER, (1, 3)), Query(QueryKind.HIGHEST_POSSIBLE, (9,))], pd
    )
    text = render_feedback(report, pd)
    assert text.splitlines() == [
        "1 is not higher than 3; 3 is higher than 1.",
        "The highest individual payoff you can get is 5, not 9.",
    ]


def test_render_feedback_requires_failures(pd):
    report = evaluate_all([Query(QueryKind.HIGHER, (5, 0))], pd)
    with pytest.raises(EmptyFailureSetError):
        render_feedback(report, pd)


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
