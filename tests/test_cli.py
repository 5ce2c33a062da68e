import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import lelma
from lelma.cli import main
from lelma.experiments import (
    ExperimentConfig,
    export_evaluation_sheet,
    load_experiment_config,
    read_transcripts_dir,
)
from lelma.gateway import ModelConfig
from lelma.orchestrator import LoopConfig, run_session, write_transcript


PD_TEXT = files("lelma").joinpath("resources", "games", "pd.gdl").read_text()
README = Path(__file__).parents[1] / "README.md"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSolve:
    def test_worked_goal(self, capsys):
        code, out, _ = run_cli(
            "solve", "pd",
            "game(s0, S), finally(outcome(p1, 'D', 5, p2, 'C', 0), S)",
            capsys=capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "S = do(choice(p2,'C'),do(choice(p1,'D'),s0))",
            "S = do(choice(p1,'D'),do(choice(p2,'C'),s0))",
        ]

    def test_ground_goal_prints_true(self, capsys):
        code, out, _ = run_cli("solve", "pd", "initial(s0)", capsys=capsys)
        assert code == 0
        assert out.strip() == "true."

    def test_unprovable_goal_prints_false(self, capsys):
        code, out, _ = run_cli("solve", "pd", "payoff('D', 'D', 9, 9)", capsys=capsys)
        assert code == 0
        assert out.strip() == "false."

    def test_variables_whose_names_start_with_an_underscore_are_not_printed(self, capsys):
        situation = "do(choice(p2,'D'),do(choice(p1,'C'),s0))"
        goal = f"finally(goal(P, _), {situation})"
        assert run_cli("solve", "pd", goal, capsys=capsys) == (0, "P = p1\nP = p2\n", "")
        goal = f"finally(goal(_P, _Payoff), {situation})"
        assert run_cli("solve", "pd", goal, capsys=capsys) == (0, "true.\ntrue.\n", "")
        # A shown binding still names them.
        assert run_cli("solve", "pd", "X = f(_Y, _)", capsys=capsys) == (0, "X = f(_Y,_1)\n", "")

    def test_step_limit_reported(self, capsys):
        code, _, err = run_cli(
            "solve", "pd", "game(s0, S)", "--max-steps", "3", capsys=capsys
        )
        assert code == 2
        assert "step" in err

    def test_a_goal_given_in_process_is_text_already(self, capsys):
        assert run_cli("solve", "pd", "X = 'a€'", capsys=capsys) == (0, "X = 'a€'\n", "")

    def test_cyclic_answer_is_an_error(self, capsys):
        code, out, err = run_cli("solve", "pd", "X = f(X)", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "error: cyclic term: X occurs in its own binding\n"

    def test_a_deep_goal_reaches_the_engine(self, capsys):
        goal = "p(" * 2_000 + "a" + ")" * 2_000
        code, out, err = run_cli("solve", "pd", goal, capsys=capsys)
        assert (code, out, err) == (2, "", "error: unknown predicate p/1\n")

    @pytest.mark.parametrize("goal, name", [("'a/1'", "'a/1'/0"), ("'\\n'(a)", "'\\n'/1")])
    def test_an_unknown_predicate_prints_its_name_as_the_parser_reads_it(
        self, goal, name, capsys
    ):
        code, out, err = run_cli("solve", "pd", goal, capsys=capsys)
        assert (code, out, err) == (2, "", f"error: unknown predicate {name}\n")

    def test_deep_answers_print_until_the_depth_limit(self, tmp_path, capsys):
        # Answer k of app(X, X, Y) has k list cells in X and 2k in Y.
        game = tmp_path / "pd_app.gdl"
        game.write_text(PD_TEXT + "app(nil, L, L).\napp(c(H, T), L, c(H, R)) :- app(T, L, R).\n")
        code, out, err = run_cli("solve", str(game), "app(X, X, Y)", capsys=capsys)
        assert code == 2
        assert err == "error: resolution depth limit exceeded (512)\n"
        lines = out.splitlines()
        assert len(lines) == 512
        assert lines[0] == "X = nil, Y = nil"
        assert lines[-1].count("c(") == 3 * 511

    def test_a_deep_clause_compiles(self, tmp_path, capsys):
        game = tmp_path / "pd_deep.gdl"
        deep = "s(" * 100 + "z" + ")" * 100
        game.write_text(PD_TEXT + f"deep({deep}).\n")
        code, out, err = run_cli("solve", str(game), "deep(X)", capsys=capsys)
        assert (code, out, err) == (0, f"X = {deep}\n", "")
        queries = tmp_path / "q.txt"
        queries.write_text("finally(outcome(you,B,3,them,B,_),S)\n")
        code, out, err = run_cli("verify", str(game), "--queries", str(queries), capsys=capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "HOLDS: finally(outcome(you,B,3,them,B,_),S)",
            "1 held, 0 failed, 0 skipped, 0 errors.",
        ]

    def test_unknown_game(self, capsys):
        code, _, err = run_cli("solve", "nope", "initial(X)", capsys=capsys)
        assert code == 2
        assert "error:" in err

    def test_syntax_error(self, capsys):
        code, _, err = run_cli("solve", "pd", "initial(", capsys=capsys)
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_mixed_file(self, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text(
            "higher(5, 1)\n"
            "higher(1, 5)\n"
            "this is not a query\n"
        )
        code, out, _ = run_cli("verify", "pd", "--queries", str(queries), capsys=capsys)
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "HOLDS: higher(5, 1)"
        assert lines[1].startswith("FAILS: higher(1, 5) -> ")
        assert lines[2].startswith("SKIPPED: this is not a query")
        assert lines[3] == "1 held, 1 failed, 1 skipped, 0 errors."

    def test_all_holding_exits_zero(self, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text("highest_guaranteed_payoff_choice(R)\n")
        code, out, _ = run_cli("verify", "pd", "--queries", str(queries), capsys=capsys)
        assert code == 0
        assert "1 held, 0 failed" in out

    def test_an_outcome_the_rules_miss_but_the_payoff_facts_give_is_an_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        game = tmp_path / "pd_high.gdl"
        game.write_text(
            PD_TEXT.replace("payoff(M1, M2, U1, U2).", "payoff(M1, M2, V1, U2), U1 = high.")
        )
        monkeypatch.setattr("sys.stdin", io.StringIO("finally(outcome(you,R,1,them,R,_),S)\n"))
        code, out, err = run_cli("verify", str(game), "--queries", "-", capsys=capsys)
        assert (code, err) == (2, "")
        assert out.splitlines() == [
            "ERROR: finally(outcome(you,R,1,them,R,_),S) (the rules and the payoff facts"
            " disagree on (R, R): no play ends with your payoff 1, but the payoff facts give 1)",
            "0 held, 0 failed, 0 skipped, 1 errors.",
        ]

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("lower(0, 5)\n"))
        code, out, _ = run_cli("verify", "pd", "--queries", "-", capsys=capsys)
        assert code == 0
        assert "HOLDS: lower(0, 5)" in out


@pytest.fixture()
def experiment_dir(tmp_path):
    config = tmp_path / "exp.ini"
    out = tmp_path / "runs"
    config.write_text(
        "[experiment]\n"
        f"output_dir = {out}\n"
        "games = pd, sh\n"
        "repetitions = 4\n"
    )
    return config, out


class TestRunAndStats:
    def test_run_then_stats(self, experiment_dir, capsys):
        config, out = experiment_dir
        code, stdout, _ = run_cli("run", "--config", str(config), capsys=capsys)
        assert code == 0
        assert "sessions: 8 (aborted: 0)" in stdout
        assert "exit all_true: 4" in stdout

        code, stdout, _ = run_cli("stats", str(out), capsys=capsys)
        assert code == 0
        assert "attempts histogram: 1:4  2:2  3:0  4:0  5:2" in stdout
        assert "initial B 25.00%, final B 50.00%" in stdout
        assert "avg/attempt=" in stdout

    def test_stats_on_empty_dir(self, tmp_path, capsys):
        code, _, err = run_cli("stats", str(tmp_path), capsys=capsys)
        assert code == 2
        assert "no transcripts" in err

    def test_a_transcript_that_cannot_be_read_is_an_error(self, experiment_dir, capsys):
        config, out = experiment_dir
        assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0
        transcript = sorted(out.glob("*.jsonl"))[0]
        transcript.write_text(transcript.read_text().replace('"kind":"', '"kind":"bogus', 1))
        for argv in (("stats", str(out)), ("eval", "export", str(out), str(out / "s.csv"))):
            code, _, err = run_cli(*argv, capsys=capsys)
            assert code == 2
            assert err.startswith(f"error: {transcript}:1: attempt record cannot be read (")
            assert "Traceback" not in err

    def test_stats_histogram_stops_at_the_longest_session(self, tmp_path, capsys):
        config, out = tmp_path / "exp.ini", tmp_path / "runs"
        config.write_text(
            f"[experiment]\noutput_dir = {out}\ngames = pd\nrepetitions = 4\nmax_attempts = 3\n"
        )
        assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["attempts_distribution"] == {"1": 2, "2": 1, "3": 1}
        code, stdout, _ = run_cli("stats", str(out), capsys=capsys)
        assert code == 0
        assert "attempts histogram: 1:2  2:1  3:1\n" in stdout

    def test_an_attempt_field_of_the_wrong_type_is_an_error(self, experiment_dir, capsys):
        config, out = experiment_dir
        assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0
        transcript = out / "pd_000.jsonl"
        transcript.write_text(transcript.read_text().replace('"holds":true', '"holds":"yes"', 1))
        code, _, err = run_cli("stats", str(out), capsys=capsys)
        assert code == 2
        assert err == (
            f"error: {transcript}:1: attempt record cannot be read (holds must be bool, not str)\n"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("prompt_tokens", "x", "prompt_tokens must be int, not str"),
            ("game", 5, "game must be str, not int"),
            ("final_choice", "flipped", "summary says final_choice "),
        ],
        ids=["text-token-count", "numeric-game", "final-choice-not-the-attempts"],
    )
    def test_a_session_record_that_cannot_be_used_is_an_error(
        self, experiment_dir, capsys, field, value, message
    ):
        config, out = experiment_dir
        assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0
        transcript = sorted(out.glob("pd_*.jsonl"))[0]
        *attempts, summary = transcript.read_text().splitlines()
        record = json.loads(summary)
        if value == "flipped":
            value = "R" if record[field] == "B" else "B"
        record[field] = value
        lines = [*attempts, json.dumps(record, sort_keys=True, separators=(",", ":"))]
        transcript.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli("stats", str(out), capsys=capsys)
        assert code == 2
        where = f"{transcript}:{len(lines)}"
        assert err.startswith(f"error: {where}: session record cannot be read ({message}")
        assert "Traceback" not in err

    def test_run_missing_config(self, tmp_path, capsys):
        code, _, err = run_cli(
            "run", "--config", str(tmp_path / "nope.ini"), capsys=capsys
        )
        assert code == 2
        assert "error:" in err

    def test_replay_with_a_missing_cassette_finishes_the_run(self, tmp_path, capsys):
        config, out, tapes = tmp_path / "exp.ini", tmp_path / "runs", tmp_path / "tapes"
        config.write_text(
            "[experiment]\n"
            f"output_dir = {out}\n"
            f"cassette_dir = {tapes}\n"
            "games = pd\n"
            "repetitions = 2\n"
        )
        code, _, _ = run_cli("run", "--config", str(config), capsys=capsys)  # records
        assert code == 0
        missing = tapes / "pd_001.translator.jsonl"
        missing.unlink()

        code, stdout, err = run_cli(
            "run", "--config", str(config), "--provider", "replay", capsys=capsys
        )
        assert code == 1
        assert "sessions: 2 (aborted: 1)" in stdout
        assert err == f"aborted: pd_001: CassetteError: cannot read cassette {missing}: " \
            "No such file or directory\n"
        assert "Traceback" not in err
        assert (out / "summary.json").is_file()

    # `python` is the same value given to the row's dataclass, which must
    # reject it with the same message; None where a row has no such value:
    # the file's syntax, a section or key no dataclass has, or text that is
    # not a number.
    @pytest.mark.parametrize(
        "section, line, message, python",
        [
            ("experiment", "games =", "error: [experiment] games: no game given", {"games": ()}),
            (
                "experiment",
                "max_attempts = 0",
                "error: [experiment] max_attempts: expected at least 1, got 0\n",
                {"max_attempts": 0},
            ),
            (
                "experiment",
                "repetitions = 0",
                "error: [experiment] repetitions: expected at least 1, got 0\n",
                {"repetitions": 0},
            ),
            (
                "experiment",
                "parallelism = -1",
                "error: [experiment] parallelism: expected at least 0, got -1\n",
                {"parallelism": -1},
            ),
            (
                "experiment",
                "cassette_dir = ./runs",
                "error: [experiment] cassette_dir: expected a directory other than output_dir, "
                "got './runs'\n",
                {"cassette_dir": "./runs"},
            ),
            (
                "experiment",
                "repetitions = many",
                "error: [experiment] repetitions: expected an integer, got 'many'",
                None,
            ),
            (
                "reasoner",
                "retries = 0",
                "error: [reasoner] retries: expected at least 1, got 0\n",
                {"retries": 0},
            ),
            (
                "reasoner",
                "timeout = 0",
                "error: [reasoner] timeout: expected a finite number above 0, got 0.0\n",
                {"timeout": 0.0},
            ),
            (
                "translator",
                "timeout = -1",
                "error: [translator] timeout: expected a finite number above 0, got -1.0\n",
                {"timeout": -1.0},
            ),
            (
                "reasoner",
                "timeout = nan",
                "error: [reasoner] timeout: expected a finite number above 0, got nan\n",
                {"timeout": float("nan")},
            ),
            (
                "reasoner",
                "timeout = inf",
                "error: [reasoner] timeout: expected a finite number above 0, got inf\n",
                {"timeout": float("inf")},
            ),
            (
                "reasoner",
                "timeout = 1e12",
                "error: [reasoner] timeout: expected at most 9223372036, got 1000000000000.0\n",
                {"timeout": 1e12},
            ),
            (
                "reasoner",
                "temperature = hot",
                "error: [reasoner] temperature: expected a number, got 'hot'",
                None,
            ),
            (
                "reasoner",
                "temperature = nan",
                "error: [reasoner] temperature: expected a finite number at least 0, got nan\n",
                {"temperature": float("nan")},
            ),
            (
                "translator",
                "temperature = inf",
                "error: [translator] temperature: expected a finite number at least 0, got inf\n",
                {"temperature": float("inf")},
            ),
            (
                "reasoner",
                "temperature = -0.5",
                "error: [reasoner] temperature: expected a finite number at least 0, got -0.5\n",
                {"temperature": -0.5},
            ),
            (
                "translator",
                "max_output_tokens = 0",
                "error: [translator] max_output_tokens: expected at least 1, got 0\n",
                {"max_output_tokens": 0},
            ),
            (
                "translator",
                "provider = anthropic",
                "error: [translator] provider: expected one of openai, gemini, mock, replay, "
                "got 'anthropic'\n",
                {"provider": "anthropic"},
            ),
            ("experiment", "output_dir = elsewhere", "error: While reading from", None),
            ("reasoner", "model_id = 100%", "error: '%' must be followed by '%' or '('", None),
            ("experiment", "max_attempt = 2", "error: [experiment] max_attempt: unknown setting\n", None),
            ("reasoner", "temprature = 0.2", "error: [reasoner] temprature: unknown setting\n", None),
            ("translator", "max_calls = 3", "error: [translator] max_calls: unknown setting\n", None),
            ("reasonr", "provider = openai", "error: [reasonr]: unknown section\n", None),
            # [DEFAULT] is not copied into the other sections, so its keys would go unread.
            ("DEFAULT", "max_attempts = 2", "error: [DEFAULT]: unknown section\n", None),
        ],
        ids=["empty-games", "no-attempt", "no-repetition", "negative-parallelism",
             "cassettes-among-transcripts", "non-integer", "no-request-attempt", "zero-timeout",
             "negative-timeout", "nan-timeout", "infinite-timeout", "huge-timeout", "non-number",
             "nan-temperature", "infinite-temperature", "negative-temperature", "no-output-token", "unknown-provider", "repeated-key",
             "bad-interpolation", "misspelt-key", "misspelt-model-key", "api-only-key",
             "misspelt-section", "default-section"],
    )
    def test_an_unreadable_config_value_is_an_error(
        self, tmp_path, monkeypatch, capsys, section, line, message, python
    ):
        # Each config would run but for `line`, which is added to `section`
        # (a second `output_dir` repeats a key). From `tmp_path`, the
        # relative `runs` and `./runs` are `out` and ExperimentConfig's default.
        monkeypatch.chdir(tmp_path)
        config, out = tmp_path / "exp.ini", tmp_path / "runs"
        body = {"experiment": [f"output_dir = {out}"]}
        body.setdefault(section, []).append(line)
        config.write_text("".join(
            f"[{name}]\n" + "".join(f"{entry}\n" for entry in entries)
            for name, entries in body.items()
        ))
        code, _, err = run_cli("run", "--config", str(config), capsys=capsys)
        assert code == 2
        assert err.startswith(message)
        assert "Traceback" not in err
        assert not out.exists()
        if python is not None:
            with pytest.raises(ValueError) as excinfo:
                (ExperimentConfig if section == "experiment" else ModelConfig)(**python)
            assert err == f"error: [{section}] {excinfo.value}\n"


def readme_blocks(language):
    """The text of each README code block fenced as `language`, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


class TestReadmeQuickTour:
    # The README's rule: 0 when everything holds, 1 if anything failed.
    @pytest.mark.parametrize("program, code", [("lelma solve", 0), ("lelma verify", 1)])
    def test_a_shell_example_prints_what_the_readme_shows(
        self, monkeypatch, capsys, program, code
    ):
        [(command, *output)] = [
            block.splitlines(keepends=True) for block in readme_blocks("sh") if program in block
        ]
        feed, _, command = command.removeprefix("$ ").rpartition(" | ")
        if feed:  # printf's format, whose \n escapes the shell expands
            _, text = shlex.split(feed)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text.replace("\\n", "\n")))
        argv = shlex.split(command)
        assert argv[0] == "lelma"
        assert run_cli(*argv[1:], capsys=capsys) == (code, "".join(output), "")

    def test_the_python_example_runs(self, capsys):
        [block] = readme_blocks("python")
        exec(block, {})
        assert capsys.readouterr() == ("1 is not higher than 3; 3 is higher than 1.\n", "")

    def test_the_ini_example_loads(self, tmp_path):
        [block] = readme_blocks("ini")
        config = tmp_path / "experiment.ini"
        config.write_text(block)
        cfg = load_experiment_config(str(config))
        assert (cfg.games, cfg.repetitions, cfg.cassette_dir) == (("pd", "sh", "hd"), 30, "tapes")
        assert (cfg.reasoner.provider, cfg.reasoner.api_key_env) == ("openai", "OPENAI_API_KEY")
        assert (cfg.translator.provider, cfg.translator.model_id) == ("gemini", "gemini-1.5-pro")


class TestEvalAndKappa:
    def fill_sheet(self, sheet_path, verdict_for):
        with open(sheet_path, newline="") as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            verdict = verdict_for(row[0])
            row[5], row[6], row[7] = verdict, verdict, verdict
        with open(sheet_path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)

    def test_export_import_kappa(self, experiment_dir, tmp_path, capsys):
        config, out = experiment_dir
        assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0

        sheet = tmp_path / "sheet.csv"
        code, stdout, _ = run_cli("eval", "export", str(out), str(sheet), capsys=capsys)
        assert code == 0
        assert "wrote 18 samples" in stdout  # (1+2+1+5) attempts x 2 games

        # unanimous evaluators who agree with the verifier on first attempts
        self.fill_sheet(
            sheet,
            lambda sample: "correct"
            if int(sample.split("_")[1].split(":")[0]) % 4 in (0, 2) or not sample.endswith(":a1")
            else "incorrect",
        )
        code, stdout, _ = run_cli(
            "eval", "import", str(sheet), "--transcripts", str(out), capsys=capsys
        )
        assert code == 0
        assert "18 labeled samples from 3 evaluators" in stdout
        assert "accuracy: 100%" in stdout

        code, stdout, _ = run_cli("kappa", str(sheet), capsys=capsys)
        assert code == 0
        assert "fleiss kappa over 18 samples" in stdout
        assert "1.0000" in stdout

    def test_import_without_transcripts(self, experiment_dir, tmp_path, capsys):
        config, out = experiment_dir
        run_cli("run", "--config", str(config), capsys=capsys)
        sheet = tmp_path / "sheet.csv"
        run_cli("eval", "export", str(out), str(sheet), capsys=capsys)
        self.fill_sheet(sheet, lambda sample: "correct")
        code, stdout, _ = run_cli("eval", "import", str(sheet), capsys=capsys)
        assert code == 0
        assert "consensus: 18 correct, 0 incorrect" in stdout

    def test_import_with_no_labeled_first_attempt_is_an_error(
        self, experiment_dir, tmp_path, capsys
    ):
        config, out = experiment_dir
        assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0
        sheet = tmp_path / "sheet.csv"
        sheet.write_text(
            "sample_id,game,model,attempt_index,reasoning,e1,e2\n"
            "zzz:a1,pd,m,1,text,correct,correct\n"
        )
        code, _, err = run_cli(
            "eval", "import", str(sheet), "--transcripts", str(out), capsys=capsys
        )
        assert code == 2
        assert err == f"error: no labeled sample is a first attempt in {out}\n"

    def test_kappa_degenerate_is_an_error(self, tmp_path, capsys):
        sheet = tmp_path / "labels.csv"
        sheet.write_text(
            "sample_id,game,model,attempt_index,reasoning,e1,e2\n"
            "s1:a1,pd,m,1,text,correct,correct\n"
            "s2:a1,pd,m,1,text,correct,correct\n"
        )
        code, _, err = run_cli("kappa", str(sheet), capsys=capsys)
        assert code == 2
        assert "error:" in err


def test_an_integer_too_long_for_int_is_a_skipped_line_or_an_error(experiment_dir, capsys):
    # `int` reads at most sys.get_int_max_str_digits() digits, 4300 by default.
    long = "9" * 5000
    config, out = experiment_dir
    queries, game = config.parent / "q.txt", config.parent / "long.gdl"
    queries.write_text(f"higher({long}, 1)\nhigher(3, 1)\n")
    code, stdout, err = run_cli("verify", "pd", "--queries", str(queries), capsys=capsys)
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [
        f"SKIPPED: higher({long}, 1) (integer of 5000 digits is too long)",
        "HOLDS: higher(3, 1)",
        "1 held, 0 failed, 1 skipped, 0 errors.",
    ]
    game.write_text(PD_TEXT + f"big({long}).\n")
    for argv, message in [
        (("solve", "pd", f"X = {long}"), "line 1, column 5"),
        (("solve", str(game), "big(X)"), f"line {PD_TEXT.count(chr(10)) + 1}, column 5"),
    ]:
        assert run_cli(*argv, capsys=capsys) == (
            2, "", f"error: {message}: integer of 5000 digits is too long\n"
        )
    assert run_cli("run", "--config", str(config), capsys=capsys)[0] == 0
    transcript = sorted(out.glob("*.jsonl"))[0]
    text = re.sub(r'"prompt_tokens":\d+', f'"prompt_tokens":{long}', transcript.read_text())
    transcript.write_text(text)
    code, stdout, err = run_cli("stats", str(out), capsys=capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {transcript}:") and ": not valid JSON (" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("solve", "{bad}.gdl", "initial(X)"), "bad.gdl"),
        (("verify", "{bad}.gdl", "--queries", "-"), "bad.gdl"),
        (("verify", "pd", "--queries", "{bad}.txt"), "bad.txt"),
        (("run", "--config", "{bad}.ini"), "bad.ini"),
        (("stats", "{dir}"), "bad.jsonl"),
        (("eval", "import", "{bad}.csv"), "bad.csv"),
        (("kappa", "{bad}.csv"), "bad.csv"),
    ],
    ids=["solve", "verify-game", "verify-queries", "run", "stats", "eval-import", "kappa"],
)
def test_a_file_that_is_not_utf8_is_an_error(tmp_path, capsys, argv, named):
    for suffix in (".gdl", ".txt", ".ini", ".jsonl", ".csv"):
        (tmp_path / f"bad{suffix}").write_bytes(b"\xff\xfe" + "p.\n".encode("utf-16-le"))
    argv = [a.format(bad=tmp_path / "bad", dir=tmp_path) for a in argv]
    assert run_cli(*argv, capsys=capsys) == (
        2,
        "",
        f"error: {tmp_path / named}: not UTF-8 text "
        "('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)\n",
    )


def run_lelma(*argv, flags=(), env=None, stdin=""):
    """`lelma *argv` in a fresh interpreter started with `flags`, on an
    environment updated by `env`, where a None value unsets the variable,
    with `stdin` as UTF-8 on its standard input."""
    environ = {**os.environ, "PYTHONPATH": str(Path(lelma.__file__).parents[1])}
    for name, value in (env or {}).items():
        environ.pop(name, None)
        if value is not None:
            environ[name] = value
    argv = [sys.executable, *flags, "-m", "lelma.cli", *argv]
    return subprocess.run(argv, env=environ, input=stdin, capture_output=True,
                          encoding="utf-8", timeout=120)


# An ASCII locale, without the UTF-8 mode or the coercion that would mask it.
ASCII_LOCALE = {
    "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONIOENCODING": None,
}


@pytest.fixture()
def euro_sheet(pd, tmp_path):
    """A transcript directory whose reasoning holds `€`, its sheet with every
    label filled in, and the bytes of the blank sheet."""
    out, sheet = tmp_path / "runs", tmp_path / "sheet.csv"
    cfg = LoopConfig(
        ModelConfig(script=("Three euros, €3, beat €1. CHOICE: B",)),
        ModelConfig(script=("higher(3, 1)",)),
    )
    write_transcript(str(out / "pd_000.jsonl"), run_session(pd, cfg, session_id="pd_000"))
    export_evaluation_sheet(read_transcripts_dir(str(out)), str(sheet))
    blank = sheet.read_bytes()
    assert "€3".encode("utf-8") in blank
    sheet.write_bytes(blank.replace(b",,,\r\n", b",correct,correct,correct\r\n"))
    return out, sheet, blank


def test_a_sheet_is_utf8_whatever_the_locale(euro_sheet, tmp_path):
    out, sheet, blank = euro_sheet
    # Exported under an ASCII locale, the sheet has the bytes it has on a UTF-8 machine.
    done = run_lelma("eval", "export", str(out), str(tmp_path / "c.csv"), env=ASCII_LOCALE)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "c.csv").read_bytes() == blank
    # Labeled, the sheet exported on a UTF-8 machine imports under an ASCII locale.
    done = run_lelma("eval", "import", str(sheet), "--transcripts", str(out), env=ASCII_LOCALE)
    assert (done.returncode, done.stderr) == (0, "")
    assert "accuracy: 100%" in done.stdout


@pytest.mark.parametrize("argv, stdin, status, out, err", [
    # `€` in a query file and on stdin, each read as UTF-8.
    (("verify", "pd", "--queries", "{dir}/q.txt"), "", 0, "SKIPPED: {query}\n{tally}", ""),
    (("verify", "pd", "--queries", "-"), "higher(€3, 1)\n", 0, "SKIPPED: {query}\n{tally}", ""),
    # An answer holding `€`, and an error message quoting it.
    (("solve", "{dir}/euro.gdl", "euro(X)"), "", 0, "X = '\\u20ac3'\n", ""),
    # A path keeps the locale's decoding, so a non-ASCII one still opens.
    (("solve", "{dir}/€.gdl", "euro(X)"), "", 0, "X = '\\u20ac3'\n", ""),
    (("solve", "{dir}/bad.gdl", "euro(X)"), "", 2, "",
     "error: line {line}, column 6: unexpected character '\\u20ac'\n"),
    # A goal read as UTF-8, as files are, and one that is not UTF-8 ("\udcff" is byte 0xff).
    (("solve", "pd", "X = 'a€'"), "", 0, "X = 'a\\u20ac'\n", ""),
    (("solve", "pd", "p(€)"), "", 2, "", "error: line 1, column 3: unexpected character '\\u20ac'\n"),
    (("solve", "pd", "X = '\udcff'"), "", 2, "", "error: goal argument: not UTF-8 text "
     "('utf-8' codec can't decode byte 0xff in position 5: invalid start byte)\n"),
])
def test_text_an_ascii_locale_cannot_encode_prints_as_escapes(
    tmp_path, argv, stdin, status, out, err
):
    (tmp_path / "q.txt").write_text("higher(€3, 1)\n", encoding="utf-8")
    (tmp_path / "euro.gdl").write_text(PD_TEXT + "euro('€3').\n", encoding="utf-8")
    (tmp_path / "€.gdl").write_bytes((tmp_path / "euro.gdl").read_bytes())
    (tmp_path / "bad.gdl").write_text(PD_TEXT + "euro(€3).\n", encoding="utf-8")
    done = run_lelma(*(a.format(dir=tmp_path) for a in argv), env=ASCII_LOCALE, stdin=stdin)
    query = "higher(\\u20ac3, 1) (higher: expected an integer, got '\\u20ac3')"
    tally = "0 held, 0 failed, 1 skipped, 0 errors.\n"
    line = PD_TEXT.count("\n") + 1
    assert (done.returncode, done.stdout, done.stderr) == (
        status, out.format(query=query, tally=tally), err.format(line=line)
    )


def test_stdin_that_is_not_utf8_is_an_error(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"higher(3, 1)\n\xff\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli("verify", "pd", "--queries", "-", capsys=capsys) == (
        2, "", "error: standard input: not UTF-8 text "
        "('utf-8' codec can't decode byte 0xff in position 13: invalid start byte)\n"
    )

def test_no_command_opens_a_file_in_the_locale_encoding(euro_sheet, tmp_path):
    # EncodingWarning marks an open that leaves the encoding to the locale.
    out, sheet, _ = euro_sheet
    (tmp_path / "exp.ini").write_text(
        f"[experiment]\noutput_dir = {tmp_path / 'run'}\ncassette_dir = {tmp_path / 'tapes'}\n"
        "games = pd\nrepetitions = 2\n",
        encoding="utf-8",
    )
    (tmp_path / "q.txt").write_text("higher(3, 1)\nhigher(1, 3)\n", encoding="utf-8")
    (tmp_path / "pd.gdl").write_text(PD_TEXT, encoding="utf-8")
    commands = {  # each command, with the status it exits with
        "run": (("run", "--provider", "mock", "--config", str(tmp_path / "exp.ini")), 0),
        "stats": (("stats", str(out)), 0),
        "eval export": (("eval", "export", str(out), str(tmp_path / "export.csv")), 0),
        "eval import": (("eval", "import", str(sheet), "--transcripts", str(out)), 0),
        "verify": (("verify", "pd", "--queries", str(tmp_path / "q.txt")), 1),
        "solve": (("solve", str(tmp_path / "pd.gdl"), "initial(S)"), 0),
    }
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    failed = {}
    for name, (argv, status) in commands.items():
        done = run_lelma(*argv, flags=flags)
        if (done.returncode, done.stderr) != (status, ""):
            failed[name] = done.stderr.strip().splitlines()[-1:]
    assert failed == {}
