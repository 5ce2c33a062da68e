import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lelma.games import load_game
from lelma.translator import build_translation_prompt, parse_queries
from lelma.verification import (
    QUERY_FORMS,
    SCHEMAS,
    Query,
    QueryKind,
    VerificationError,
    parse_query_line,
    query_to_text,
)

README = Path(__file__).parents[1] / "README.md"


# Every cassette key hashes the system prompt, so any change to its bytes makes
# recorded cassettes miss under replay.
PROMPT_SHA256 = {
    "pd": "f973de2e03644142c7273ae7b7bded023fb01ad75124f22c3bae43beb5043d67",
    "sh": "e3a95e99817f5bdb131c8d7b2cf79881cd80ba90df976262e6bbe8f0f1461680",
    "hd": "94af8c28dd5ee4af0c8a567c7ad256151bac04be5ad3ce2d9094e3843846f31a",
}


class TestPrompt:
    @pytest.mark.parametrize("name", sorted(PROMPT_SHA256))
    def test_system_prompt_bytes_are_pinned(self, games, name):
        system, _ = build_translation_prompt("x", games[name])
        assert hashlib.sha256(system.content.encode("utf-8")).hexdigest() == PROMPT_SHA256[name]

    def test_each_query_form_is_listed_once_and_parses_to_its_own_kind(self, games):
        for g in games.values():
            system, _ = build_translation_prompt("x", g)
            for kind, example, gloss in QUERY_FORMS:
                assert system.content.count(example) == 1, example
                assert f"\n{example}\n  {gloss}\n" in system.content, example
                assert parse_query_line(example, g).kind is kind, example
        # Outcome claims have their own template. Every other kind with a form
        # is read by its name; one without a form is an unknown predicate.
        by_name = {kind for kind, _, _ in QUERY_FORMS} - {QueryKind.OUTCOME}
        assert QueryKind.EQUAL not in by_name
        for kind in QueryKind:
            good = (1 if slot == "int" else "B" for slot in SCHEMAS[kind])
            line = f"{kind.value}({', '.join(map(str, good))})"
            if kind in by_name:
                assert parse_query_line(line, games["pd"]).kind is kind
            else:
                with pytest.raises(VerificationError) as err:
                    parse_query_line(line, games["pd"])
                assert str(err.value) == f"unknown query predicate '{kind.value}'"

    def test_the_readme_catalogue_lists_the_forms_in_order(self):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"^## The query catalogue\n.*?^```\n(.*?)^```$", text, re.M | re.S)
        # An example ends at its first closing parenthesis followed by a space.
        listed = [re.match(r".*?\)(?= )", line).group() for line in block[1].splitlines()]
        assert listed == [example for _, example, _ in QUERY_FORMS]

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
