import pytest
from hypothesis import given, strategies as st

from lelma.games import load_game
from lelma.translator import build_translation_prompt, parse_queries
from lelma.verification import Query, QueryKind, query_to_text

CATALOGUE_EXAMPLES = [
    "finally(outcome(you,B,1,them,R,_),S)",
    "higher(1, 3)",
    "lower(1, 3)",
    "highest_possible_individual_payoff(1)",
    "lowest_possible_individual_payoff(1)",
    "highest_individual_payoff_for_choice(1,B)",
    "lowest_individual_payoff_for_choice(1,B)",
    "highest_guaranteed_payoff_choice(B)",
    "higher_guaranteed_payoff(B,R)",
    "lower_guaranteed_payoff(B,R)",
    "highest_mutual_payoff(R,R)",
    "lowest_mutual_payoff(R,R)",
]


class TestPrompt:
    def test_catalogue_examples_each_appear_exactly_once(self, pd):
        system, _ = build_translation_prompt("some reasoning", pd)
        for example in CATALOGUE_EXAMPLES:
            assert system.content.count(example) == 1, example

    def test_every_example_is_itself_parseable(self, pd):
        for example in CATALOGUE_EXAMPLES:
            queries, diag = parse_queries(example, pd)
            assert len(queries) == 1 and not diag.skipped, example

    def test_roles_and_verbatim_reasoning(self, pd):
        reasoning = "I think cooperating nets us $3 each.\nSo C it is."
        system, user = build_translation_prompt(reasoning, pd)
        assert system.role == "system"
        assert user.role == "user"
        assert user.content == reasoning

    def test_prompt_names_the_concrete_moves(self, games):
        for g in games.values():
            system, _ = build_translation_prompt("x", g)
            assert f"B stands for the move '{g.move_labels['B']}'" in system.content
            assert f"R stands for the move '{g.move_labels['R']}'" in system.content


class TestParseQueries:
    def test_mixed_output(self, pd):
        output = "\n".join(
            [
                "Here are the queries:",
                "",
                "higher(5, 1)",
                "```",
                "lowest_possible_individual_payoff(0).",
                "nash_equilibrium(B)",
                "   ",
                "finally(outcome(you, R, 1, them, R, _), S)",
            ]
        )
        queries, diag = parse_queries(output, pd)
        assert [q.kind for q in queries] == [
            QueryKind.HIGHER,
            QueryKind.LOWEST_POSSIBLE,
            QueryKind.OUTCOME,
        ]
        assert diag.parsed_count == 3
        assert diag.skipped_count == 3
        skipped_lines = [line for line, _ in diag.skipped]
        assert "Here are the queries:" in skipped_lines
        assert "```" in skipped_lines
        assert "nash_equilibrium(B)" in skipped_lines
        for _, reason in diag.skipped:
            assert reason

    def test_every_nonempty_line_is_accounted_for(self, pd):
        output = "higher(1, 2)\ngarbage\n\nlower(1, 2)\nmore garbage\n"
        queries, diag = parse_queries(output, pd)
        nonempty = [l for l in output.splitlines() if l.strip()]
        assert diag.parsed_count + diag.skipped_count == len(nonempty)
        assert diag.parsed_count == len(queries) == 2

    def test_empty_output(self, pd):
        queries, diag = parse_queries("", pd)
        assert queries == [] and diag.parsed_count == 0 and diag.skipped == ()

    def test_unknown_move_reason_names_the_valid_labels(self, pd):
        _, diag = parse_queries("highest_guaranteed_payoff_choice(Hawk)", pd)
        ((_, reason),) = diag.skipped
        assert "B" in reason and "R" in reason

    def test_an_integer_too_long_for_int_skips_its_line(self, pd):
        # `int` reads at most sys.get_int_max_str_digits() digits, 4300 by default.
        long = "9" * 5000
        lines = [f"higher({long}, 1)", f"finally(outcome(you,B,-{long},them,B,_),S)"]
        queries, diag = parse_queries("\n".join([*lines, "higher(3, 1)"]), pd)
        assert queries == [Query(QueryKind.HIGHER, (3, 1))]
        reason = "integer of 5000 digits is too long"
        assert diag.skipped == ((lines[0], reason), (lines[1], reason))


_labels = st.sampled_from(("B", "R"))
_ints = st.integers(min_value=-999, max_value=999)

_queries = st.one_of(
    st.tuples(st.just(QueryKind.OUTCOME), st.tuples(_labels, _ints, _labels)),
    st.tuples(st.just(QueryKind.HIGHER), st.tuples(_ints, _ints)),
    st.tuples(st.just(QueryKind.LOWER), st.tuples(_ints, _ints)),
    st.tuples(st.just(QueryKind.HIGHEST_POSSIBLE), st.tuples(_ints)),
    st.tuples(st.just(QueryKind.LOWEST_POSSIBLE), st.tuples(_ints)),
    st.tuples(st.just(QueryKind.HIGHEST_FOR_CHOICE), st.tuples(_ints, _labels)),
    st.tuples(st.just(QueryKind.LOWEST_FOR_CHOICE), st.tuples(_ints, _labels)),
    st.tuples(st.just(QueryKind.HIGHEST_GUARANTEED_CHOICE), st.tuples(_labels)),
    st.tuples(st.just(QueryKind.HIGHER_GUARANTEED), st.tuples(_labels, _labels)),
    st.tuples(st.just(QueryKind.LOWER_GUARANTEED), st.tuples(_labels, _labels)),
    st.tuples(st.just(QueryKind.HIGHEST_MUTUAL), st.tuples(_labels, _labels)),
    st.tuples(st.just(QueryKind.LOWEST_MUTUAL), st.tuples(_labels, _labels)),
).map(lambda kv: Query(kv[0], kv[1]))

query_lists = st.lists(_queries, max_size=8)


_PD = load_game("pd")


@given(query_lists)
def check_translator_round_trip(batch):
    """Canonical text of any query batch parses back to the same batch."""
    text = "\n".join(query_to_text(q) for q in batch)
    parsed, diag = parse_queries(text, _PD)
    assert parsed == batch
    assert diag.skipped == ()
    assert diag.parsed_count == len(batch)


def test_round_trip_property():
    check_translator_round_trip()
