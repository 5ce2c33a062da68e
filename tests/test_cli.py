import csv

import pytest

from lelma.cli import main


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

    def test_step_limit_reported(self, capsys):
        code, _, err = run_cli(
            "solve", "pd", "game(s0, S)", "--max-steps", "3", capsys=capsys
        )
        assert code == 2
        assert "step" in err

    def test_cyclic_answer_is_an_error(self, capsys):
        code, out, err = run_cli("solve", "pd", "X = f(X)", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "error: cyclic term: X occurs in its own binding\n"

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
