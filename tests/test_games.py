from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from oracles import enumerate_outcomes_direct, game_to_text
from lelma.engine import solve_all
from lelma.games import (
    GameSpecError,
    enumerate_outcomes,
    game_independent_rules,
    load_game,
    parse_game,
)
from lelma.gdl import parse_goal, parse_program
from lelma.terms import Atom

# Published payoff tables, reasoner = row player.
PD_TABLE = {
    ("D", "D"): (1, 1),
    ("C", "D"): (0, 5),
    ("D", "C"): (5, 0),
    ("C", "C"): (3, 3),
}
SH_TABLE = {
    ("Hare", "Hare"): (1, 1),
    ("Stag", "Hare"): (0, 3),
    ("Hare", "Stag"): (3, 0),
    ("Stag", "Stag"): (5, 5),
}
HD_TABLE = {
    ("Hawk", "Hawk"): (0, 0),
    ("Dove", "Hawk"): (1, 5),
    ("Hawk", "Dove"): (5, 1),
    ("Dove", "Dove"): (3, 3),
}


def test_bundled_payoff_tables(games):
    assert games["pd"].payoffs.entries == PD_TABLE
    assert games["sh"].payoffs.entries == SH_TABLE
    assert games["hd"].payoffs.entries == HD_TABLE


def test_bundled_metadata(games):
    assert games["pd"].move_labels == {"R": "D", "B": "C"}
    assert games["sh"].move_labels == {"R": "Hare", "B": "Stag"}
    assert games["hd"].move_labels == {"R": "Hawk", "B": "Dove"}
    for g in games.values():
        assert (g.reasoner, g.opponent) == ("p1", "p2")
        assert g.initial_situation == Atom("s0")
        assert g.payoffs.moves == (g.move_labels["R"], g.move_labels["B"])


def test_payoff_orderings(games):
    # temptation/reward/punishment/sucker orderings that type each dilemma
    def trps(g):
        defect, coop = g.move_labels["R"], g.move_labels["B"]
        t = g.payoffs.entries[defect, coop][0]
        r = g.payoffs.entries[coop, coop][0]
        p = g.payoffs.entries[defect, defect][0]
        s = g.payoffs.entries[coop, defect][0]
        return t, r, p, s

    t, r, p, s = trps(games["pd"])
    assert t > r > p > s and (t, r, p, s) == (5, 3, 1, 0)
    t, r, p, s = trps(games["sh"])
    assert r > t > p > s
    t, r, p, s = trps(games["hd"])
    assert t > r > s > p


def test_enumerate_outcomes_matches_tables(games):
    for name, table in (("pd", PD_TABLE), ("sh", SH_TABLE), ("hd", HD_TABLE)):
        outcomes = enumerate_outcomes(games[name])
        assert len(outcomes) == 4
        got = {(o.p1_move, o.p2_move): (o.p1_payoff, o.p2_payoff) for o in outcomes}
        assert got == table


def test_solver_outcomes_agree_with_direct_enumerator(games):
    def cell(o):
        return (o.p1_move, o.p2_move, o.p1_payoff, o.p2_payoff)

    for g in games.values():
        direct = enumerate_outcomes_direct(g)
        assert len(direct) == 8
        solver = enumerate_outcomes(g)
        assert Counter(map(cell, direct)) == Counter({cell(o): 2 for o in solver})
        assert {str(o.situation) for o in direct} == set(
            str(a[list(a.keys())[0]])
            for a in solve_all(g.rulebase, parse_goal("game(s0,F)"))
        )


def test_each_move_pair_reached_by_exactly_two_orders(games):
    for g in games.values():
        pairs = Counter((o.p1_move, o.p2_move) for o in enumerate_outcomes_direct(g))
        assert set(pairs.values()) == {2}


def test_game_independent_rules_shape():
    rules = game_independent_rules()
    assert len(rules) == 5
    keys = Counter(c.key() for c in rules)
    assert keys == {("game", 2): 2, ("holds", 2): 3}
    assert game_independent_rules() == rules  # stable across calls


def test_round_trip_through_text(games):
    for g in games.values():
        assert parse_game(game_to_text(g)) == g


def test_a_label_move_with_an_escaped_quote_loads_and_round_trips(pd):
    # 'D\'s' in the label line and in every clause names the move D's.
    text = game_to_text(pd).replace("'D'", "'D\\'s'")
    assert "%! label R: 'D\\'s'" in text
    g = parse_game(text)
    assert g.move_labels["R"] == "D's"
    assert g.payoffs.moves == ("D's", "C")
    assert parse_game(game_to_text(g)) == g


def test_load_game_by_path(tmp_path, pd):
    path = tmp_path / "copy.gdl"
    path.write_text(game_to_text(pd))
    assert load_game(str(path)) == pd


def test_load_game_unknown_name():
    with pytest.raises(GameSpecError):
        load_game("chess")


# --- validation ------------------------------------------------------------


def _game_text_without(g, predicate_line_fragment: str) -> str:
    lines = [
        line
        for line in game_to_text(g).splitlines()
        if predicate_line_fragment not in line
    ]
    return "\n".join(lines)


def test_missing_predicate_detected(pd):
    broken = _game_text_without(pd, "legal(")
    with pytest.raises(GameSpecError) as err:
        parse_game(broken)
    assert str(err.value) == "game does not define required predicate legal/2"


def test_a_labelled_move_pair_that_no_play_ends_in_is_rejected(pd):
    # The payoff facts leave (C, C) out, so no play of it ends in an outcome.
    broken = _game_text_without(pd, "payoff('C','C'")
    with pytest.raises(GameSpecError) as err:
        parse_game(broken)
    assert str(err.value) == "no play ends in the labelled move pair (C, C)"


@pytest.mark.parametrize("clauses, message", [
    ("payoff('D','D',1,1).\npayoff('D','D',9,9).",
     "the rules give the move pair (D, D) two payoffs: (1, 1) and (9, 9)"),
    ("payoff('D',M,1,1).", "the rules give the move pair (D, C) two payoffs: (1, 1) and (5, 0)"),
])
def test_a_move_pair_the_rules_give_two_payoffs_is_rejected(pd, clauses, message):
    text = game_to_text(pd)
    assert text.count("payoff('D','D',1,1).") == 1
    with pytest.raises(GameSpecError) as err:
        parse_game(text.replace("payoff('D','D',1,1).", clauses))
    assert str(err.value) == message


def test_a_payoff_rule_loads_as_the_fact_it_derives(pd):
    text = game_to_text(pd).replace("payoff('D','D',1,1).", "payoff('D','D',1,1) :- initial(s0).")
    assert "payoff('D','D',1,1) :- initial(s0)." in text
    assert parse_game(text).payoffs == pd.payoffs


@pytest.mark.parametrize("old, new, shown", [
    # The rules derive `high` as the row player's payoff.
    ("payoff(M1,M2,U1,U2).", "payoff(M1,M2,V1,U2), U1 = high.", "U1 = high"),
    # The rules never bind the row player's payoff, so the answer leaves U1 out.
    ("payoff(M1,M2,U1,U2).", "payoff(M1,M2,_,U2).", "U1 = U1"),
    ("payoff('D','D',1,1).", "payoff('D','D',high,1).", "U1 = high"),
], ids=["derived-atom", "unbound", "atom-fact"])
def test_an_outcome_payoff_that_is_no_integer_names_the_answer(pd, old, new, shown):
    text = game_to_text(pd)
    assert text.count(old) == 1
    with pytest.raises(GameSpecError) as err:
        parse_game(text.replace(old, new))
    assert str(err.value) == (
        "outcome moves must be atoms and payoffs integers: "
        f"S = do(choice(p2,'D'),do(choice(p1,'D'),s0)), M1 = 'D', {shown}, M2 = 'D', U2 = 1"
    )


def test_a_search_that_stops_at_a_limit_is_rejected_and_not_cached(pd):
    # A `finally` clause that never ends, ahead of the game's own.
    text = game_to_text(pd)
    at = text.index("finally(outcome(")
    looping = text[:at] + "finally(X,S) :- loop(X,S).\nloop(X,S) :- loop(X,S).\n" + text[at:]
    message = "cannot derive the payoff table: resolution depth limit exceeded (512)"
    with pytest.raises(GameSpecError) as err:
        parse_game(looping)
    assert str(err.value) == message
    g = replace(pd, clauses=tuple(parse_program(looping)[0]))
    for _ in range(2):  # nothing is cached, so the second read searches again
        with pytest.raises(GameSpecError) as err:
            g.payoffs
        assert str(err.value) == message
    assert "payoffs" not in vars(g)


def test_the_payoff_table_reads_only_the_plays_of_the_named_roles(pd):
    # An outcome view that names the col player first ends no play with the
    # reasoner as p1, so no verdict could correct an outcome claim from it.
    text = game_to_text(pd)
    for old, new in [("holds(role(P1,row),S)", "holds(role(P1,col),S)"),
                     ("holds(role(P2,col),S)", "holds(role(P2,row),S)")]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    with pytest.raises(GameSpecError) as err:
        parse_game(text)
    assert str(err.value) == "no play ends in the labelled move pair (D, D)"


# A third move, possible for both players and with every payoff fact it
# needs, that no label names.
THIRD_MOVE = "possible(choice(P,'X'),S) :- holds(player(P),S)." + "".join(
    f"\npayoff({a},{b},0,0)." for a, b in
    [("'X'", "'D'"), ("'X'", "'C'"), ("'X'", "'X'"), ("'D'", "'X'"), ("'C'", "'X'")])


@pytest.mark.parametrize("old, new, message", [
    ("%! label B: 'C'", "%! label B: 'Z'", "no play ends in the labelled move pair (D, Z)"),
    ("%! label B: 'C'", "", "metadata header is missing 'label B'"),
    ("%! label B: 'C'", "%! label B: 'D'",
     "labels must map to distinct moves, got {'R': 'D', 'B': 'D'}"),
    ("payoff('C','C',3,3).", "payoff('C','C',3,3).\n" + THIRD_MOVE,
     "plays end in moves no label names: ['X']"),
], ids=["unknown-move", "missing-label", "one-move-twice", "unlabelled-move"])
def test_invalid_label_map_detected(pd, old, new, message):
    text = game_to_text(pd)
    assert text.count(old) == 1
    with pytest.raises(GameSpecError) as err:
        parse_game(text.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("%! name: pd", "%! name: pd\n%! reasoner: p2", "metadata line 'reasoner: p2' is not"),
        ("%! name: pd", "%! name: pd\n%! opponent: p1", "metadata line 'opponent: p1' is not"),
        ("%! name: pd", "%! name pd", "metadata line 'name pd' is not 'key: value'"),
        ("%! name: pd", "%! name: pd\n%! name: other", "metadata key 'name' given again on line 2"),
        ("%! label R: 'D'", "%! label R: 'D'\n%! label R: 'C'", "metadata key 'label R' given again"),
        ("%! name: pd", "%! name: ../escaped/pd", r"game name '\.\./escaped/pd' is not a file-name"),
        ("%! name: pd", "%! name:", "game name '' is not a file-name stem"),
        ("%! name: pd", "%! name: .pd", r"game name '\.pd' is not a file-name stem"),
        ("%! name: pd", "%! name: p\u00e9", "game name 'p\u00e9' is not a file-name stem"),
        ("initially(role(p1,row),s0).", "", r"initially\(role\(P, row\), s0\), found none"),
        (
            "initially(role(p1,row),s0).",
            "initially(role(p1,row),s0).\ninitially(role(p2,row),s0).",
            r"role\(P, row\), s0\), found initially\(role\(p1,row\),s0\). initially",
        ),
        ("initially(role(p2,col),s0).", "initially(role(p1,col),s0).", "p1 cannot be both"),
        (
            "initially(role(p2,col),s0).",
            "initially(role(p2,col),s0) :- initial(s0).",
            r"role\(P, col\), s0\), found initially\(role\(p2,col\),s0\) :- initial",
        ),
        ("initial(s0).", "initial(S) :- S = s0.", r"one fact initial\(S0\), found initial\(S\) :- "),
        (
            "initial(s0).",
            "initial(s0).\ninitial(s1).",
            r"one fact initial\(S0\), found initial\(s0\). initial\(s1\).",
        ),
    ],
    ids=["reasoner-header", "opponent-header", "no-colon", "repeated-name", "repeated-label",
         "escaping-name", "empty-name",
         "dot-name", "non-ascii-name", "no-row-fact", "two-row-facts",
         "one-player-both-roles", "col-rule-not-fact", "initial-rule-not-fact", "two-initial-facts"],
)
def test_roles_come_from_one_fact_each_in_the_program(pd, old, new, message):
    text = game_to_text(pd)
    assert text.count(old) == 1
    with pytest.raises(GameSpecError, match=message):
        parse_game(text.replace(old, new))


def test_missing_name_detected(pd):
    text = game_to_text(pd).replace("%! name: pd", "")
    with pytest.raises(GameSpecError) as err:
        parse_game(text)
    assert str(err.value) == "metadata header is missing 'name'"


def test_a_name_may_hold_digits_underscores_dots_and_dashes(pd):
    text = game_to_text(pd).replace("%! name: pd", "%! name: _pd-2.v1")
    assert parse_game(text).name == "_pd-2.v1"
