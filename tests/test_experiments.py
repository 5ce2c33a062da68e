import csv
import hashlib
import itertools
import json
import math
import os
import threading
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lelma import gateway
from lelma.cli import main
from oracles import (
    CLASSIC_RATINGS_10x14,
    CLASSIC_RATINGS_10x14_KAPPA,
    FIXED_RATINGS_10x3,
    FIXED_RATINGS_10x3_KAPPA,
    game_to_text,
    oracle_fleiss_kappa,
)
from lelma.experiments import (
    DEFAULT_EVALUATORS,
    ConfusionMatrix,
    ExperimentConfig,
    ExperimentError,
    aggregate_labels,
    attempts_distribution,
    choice_distribution,
    confusion_matrix,
    export_evaluation_sheet,
    fleiss_kappa,
    format_percent,
    import_labels,
    labels_to_matrix,
    load_experiment_config,
    mock_session_scripts,
    predicted_correctness,
    read_transcripts_dir,
    run_experiment,
)
from lelma.games import GameSpecError
from lelma.gateway import Gateway, ModelConfig, Usage
from lelma.orchestrator import (
    AttemptRecord,
    ExitReason,
    SessionTranscript,
    read_transcript,
    write_transcript,
)
from lelma.verification import Query, QueryKind, QueryResult, VerificationReport


def fake_transcript(
    n_attempts,
    game="pd",
    session_id=None,
    initial="B",
    final="B",
    error=None,
):
    """A session whose first attempt chooses `initial` and every later one
    `final`; the session's choices are read from these attempts. As in a
    session run_session writes, each attempt but the last fails a query,
    and the last holds one."""
    assert n_attempts != 1 or initial == final, "one attempt makes one choice"
    failed = QueryResult(Query(QueryKind.HIGHER, (1, 3)), False, (("relation", "lower"),), "wrong")
    held = QueryResult(Query(QueryKind.HIGHER, (3, 1)), True, (), "Confirmed: higher(3, 1)")
    attempts = tuple(
        AttemptRecord(
            index=i,
            instruction="inst",
            reasoning=f"attempt {i}",
            translator_output="",
            report=VerificationReport((held if i == n_attempts else failed,)),
            extracted_choice=initial if i == 1 else final,
            exit=ExitReason.ALL_TRUE if i == n_attempts else ExitReason.NONE,
        )
        for i in range(1, n_attempts + 1)
    )
    return SessionTranscript(
        session_id=session_id or f"{game}-fake",
        game=game,
        model="mock-model",
        attempts=attempts,
        usage=Usage(10, 10),
        wall_time=0.0,
        error=error,
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = ExperimentConfig(repetitions=4, output_dir=str(out))
    transcripts, summary = run_experiment(cfg, provider="mock")
    return out, transcripts, summary


class TestMockExperiment:
    def test_all_sessions_complete(self, run):
        _, transcripts, summary = run
        assert len(transcripts) == 12  # 3 games x 4 repetitions
        assert summary["sessions"] == 12
        assert summary["aborted"] == 0
        assert not any(t.aborted for t in transcripts)

    def test_every_exit_reason_occurs(self, run):
        _, _, summary = run
        assert summary["exits"] == {"all_true": 6, "no_queries": 3, "max_attempts": 3}

    def test_attempt_buckets(self, run):
        _, transcripts, _ = run
        assert attempts_distribution(transcripts) == {1: 6, 2: 3, 3: 0, 4: 0, 5: 3}

    def test_transcripts_written_and_readable(self, run):
        out, transcripts, _ = run
        assert len(list(out.glob("*_0*.jsonl"))) == 12
        assert (out / "summary.json").exists()
        loaded = read_transcripts_dir(str(out))
        assert {t.session_id: t for t in loaded} == {t.session_id: t for t in transcripts}

    def test_summary_json_matches_returned_summary(self, run):
        out, _, summary = run
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_choice_fractions(self, run):
        _, transcripts, _ = run
        # scenario cycle per game: clean B/B, corrected R->B, untranslatable R, stubborn R
        for stats in choice_distribution(transcripts).values():
            assert stats["counted"] == 4 and stats["excluded"] == 0
            assert stats["initial_b"] == pytest.approx(1 / 4)
            assert stats["final_b"] == pytest.approx(2 / 4)

    def test_predicted_correctness_on_first_attempts(self, run):
        _, transcripts, _ = run
        predictions = predicted_correctness(transcripts)
        assert set(predictions) == {f"{t.session_id}:a1" for t in transcripts}
        by_session = {t.session_id: t for t in transcripts}
        for sample, verdict in predictions.items():
            session_id = sample.split(":")[0]
            rep = int(session_id.split("_")[1])
            scenario = ("clean", "corrected", "untranslatable", "stubborn")[rep % 4]
            assert verdict == (scenario in ("clean", "untranslatable")), sample
        assert len(by_session) == 12

    def test_mock_scripts_cover_all_scenarios(self, pd):
        lengths = set()
        for rep in range(4):
            reasoner, translator = mock_session_scripts(pd, rep)
            assert len(reasoner) == len(translator)
            lengths.add(len(reasoner))
        assert lengths == {1, 2, 5}  # clean and untranslatable both take one attempt

    def test_scripts_distinct_across_reps(self, pd):
        a, _ = mock_session_scripts(pd, 0)
        b, _ = mock_session_scripts(pd, 4)
        assert a != b  # same scenario, different repetition tag


MOCK_DIGESTS = Path(__file__).with_name("mock_experiment_sha256.txt")


def mock_experiment_digests(root):
    """sha256 of every file a recorded mock experiment writes, one
    `digest  path` line each; cassette records are hashed without their
    wall-clock `recorded_at`."""
    cfg = ExperimentConfig(
        repetitions=4, output_dir=str(root / "runs"), cassette_dir=str(root / "tapes")
    )
    run_experiment(cfg, provider="mock")
    lines = []
    for path in sorted((root / "runs").iterdir()):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  runs/{path.name}")
    for path in sorted((root / "tapes").iterdir()):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            del record["recorded_at"]
        text = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  tapes/{path.name}")
    return lines


def test_mock_experiment_bytes_match_recorded_digests(tmp_path):
    recorded = [
        line for line in MOCK_DIGESTS.read_text().splitlines() if not line.startswith("#")
    ]
    assert mock_experiment_digests(tmp_path) == recorded


def test_the_stubborn_mock_session_lasts_the_whole_attempt_budget(tmp_path):
    cfg = ExperimentConfig(
        games=("pd",), repetitions=4, output_dir=str(tmp_path), max_attempts=7
    )
    transcripts, summary = run_experiment(cfg, provider="mock")
    assert summary["aborted"] == 0
    stubborn = transcripts[3]  # the fourth scenario
    assert stubborn.attempt_count == 7
    assert stubborn.exit is ExitReason.MAX_ATTEMPTS
    assert summary["attempts_distribution"]["7"] == 1


def test_an_error_of_any_type_aborts_its_session_and_the_summary_is_written(tmp_path, monkeypatch):
    def failing_complete(self, messages):
        raise RuntimeError("model backend fell over")

    monkeypatch.setattr(Gateway, "complete", failing_complete)
    out = tmp_path / "out"
    cfg = ExperimentConfig(games=("pd",), repetitions=2, output_dir=str(out))
    transcripts, summary = run_experiment(cfg, provider="mock")
    assert [t.aborted for t in transcripts] == [True, True]
    assert transcripts[0].error == "RuntimeError: model backend fell over"
    assert summary["sessions"] == 2 and summary["aborted"] == 2
    assert json.loads((out / "summary.json").read_text()) == summary


# A live model whose calls go to a monkeypatched `gateway._requests_transport`.
LIVE = ModelConfig(provider="openai", model_id="gpt-test", endpoint="http://localhost:9", retries=1)


def openai_reply(text):
    return 200, {"choices": [{"message": {"content": text}}]}


def test_parallelism_sessions_run_at_once_whatever_the_number_of_games(tmp_path, monkeypatch):
    # Each call waits until four calls are in flight; with fewer, the barrier
    # times out and every session aborts. Every session makes two calls.
    barrier = threading.Barrier(4, timeout=10)

    def transport(url, headers, payload, timeout):
        barrier.wait()
        return openai_reply("CHOICE: B")

    monkeypatch.setattr(gateway, "_requests_transport", transport)
    cfg = ExperimentConfig(games=("pd", "sh"), reasoner=LIVE, translator=LIVE, repetitions=4,
                           parallelism=4, output_dir=str(tmp_path))
    transcripts, summary = run_experiment(cfg)
    assert [t.error for t in transcripts] == [None] * 8
    assert summary["exits"] == {"no_queries": 8}


def test_a_game_that_cannot_load_stops_the_run_before_any_file_is_written(tmp_path):
    cfg = ExperimentConfig(games=("pd", "nosuch"), repetitions=2, output_dir=str(tmp_path / "out"))
    with pytest.raises(GameSpecError, match="nosuch"):
        run_experiment(cfg, provider="mock")
    assert not (tmp_path / "out").exists()


def test_parallelism_does_not_change_what_is_written(tmp_path):
    written = []
    for parallelism in (1, 12):
        out = tmp_path / str(parallelism)
        cfg = ExperimentConfig(repetitions=4, parallelism=parallelism, output_dir=str(out))
        run_experiment(cfg, provider="mock")
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(written[0]) == 13  # 3 games x 4 repetitions, and summary.json
    assert written[0] == written[1]


@pytest.mark.parametrize("live_role", ["reasoner", "translator"])
def test_each_role_runs_on_its_own_provider(tmp_path, monkeypatch, live_role):
    requested = []

    def transport(url, headers, payload, timeout):
        requested.append(payload["model"])
        return openai_reply("CHOICE: B")

    monkeypatch.setattr(gateway, "_requests_transport", transport)
    models = {"reasoner": ModelConfig(), "translator": ModelConfig(), live_role: LIVE}
    cfg = ExperimentConfig(games=("pd",), repetitions=2, output_dir=str(tmp_path), **models)
    transcripts, _ = run_experiment(cfg)
    assert [t.error for t in transcripts] == [None, None]
    # The live role answers once per attempt, the mock role from its script.
    assert requested == [LIVE.model_id] * sum(t.attempt_count for t in transcripts)


@pytest.mark.parametrize("second", ["pd", "copy"])
def test_a_repeated_session_id_stops_the_run_before_any_file_is_written(tmp_path, pd, second):
    copy = tmp_path / "copy.gdl"  # another file whose game is also named pd
    copy.write_text(game_to_text(pd))
    cfg = ExperimentConfig(games=("pd", str(copy) if second == "copy" else "pd"), repetitions=2,
                           output_dir=str(tmp_path / "out"), cassette_dir=str(tmp_path / "tapes"))
    with pytest.raises(ExperimentError, match="session id pd_000 repeats"):
        run_experiment(cfg, provider="mock")
    assert not (tmp_path / "out").exists() and not (tmp_path / "tapes").exists()


def test_an_output_dir_holding_another_runs_transcripts_stops_the_run(tmp_path):
    # Four pd sessions, then one: `lelma stats` on the directory would read
    # all four where summary.json counts one.
    cfg = ExperimentConfig(games=("pd",), repetitions=4, output_dir=str(tmp_path))
    run_experiment(cfg, provider="mock")
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(ExperimentError, match=r"holds 3 transcript\(s\) of another run, such as "
                       r"pd_001\.jsonl, pd_002\.jsonl, pd_003\.jsonl; give each run its own"):
        run_experiment(replace(cfg, repetitions=1), provider="mock")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written
    run_experiment(cfg, provider="mock")  # the same run again may write there
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written



def test_a_summary_write_that_fails_leaves_the_old_summary_and_no_temporary_file(
    tmp_path, monkeypatch
):
    cfg = ExperimentConfig(games=("pd",), repetitions=4, output_dir=str(tmp_path))
    run_experiment(cfg, provider="mock")
    old = (tmp_path / "summary.json").read_bytes()
    rename = os.replace

    def rename_all_but_the_summary(source, target):
        # `lelma stats` and the check for another run's transcripts read *.jsonl.
        assert Path(source).parent == tmp_path and not Path(source).match("*.jsonl")
        if Path(target).name == "summary.json":
            raise OSError(28, "No space left on device")
        rename(source, target)

    monkeypatch.setattr(os, "replace", rename_all_but_the_summary)
    # With two attempts at most, the stubborn session (the fourth) stops sooner.
    with pytest.raises(OSError, match="No space left on device"):
        run_experiment(replace(cfg, max_attempts=2), provider="mock")
    assert (tmp_path / "summary.json").read_bytes() == old
    assert read_transcript(str(tmp_path / "pd_003.jsonl")).attempt_count == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "pd_000.jsonl", "pd_001.jsonl", "pd_002.jsonl", "pd_003.jsonl", "summary.json",
    ]

class TestDistributions:
    def test_attempt_histogram_fixture(self):
        counts = [24, 46, 10, 6, 4]
        transcripts = [
            fake_transcript(n, session_id=f"s{n}_{i}")
            for n, total in zip(range(1, 6), counts)
            for i in range(total)
        ]
        assert attempts_distribution(transcripts) == {1: 24, 2: 46, 3: 10, 4: 6, 5: 4}

    def test_aborted_sessions_excluded(self):
        transcripts = [fake_transcript(1), fake_transcript(1, error="RuntimeError: boom")]
        assert attempts_distribution(transcripts) == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}

    def test_29_of_30_choice_fixture(self):
        transcripts = [fake_transcript(1, session_id=f"s{i}") for i in range(29)]
        transcripts.append(fake_transcript(1, session_id="s29", initial="R", final="R"))
        stats = choice_distribution(transcripts)["pd"]
        assert stats["final_b"] == pytest.approx(29 / 30)
        assert format_percent(stats["final_b"]) == "96.67%"

    def test_unanimous_choice_formats_as_100(self):
        transcripts = [fake_transcript(1, session_id=f"s{i}") for i in range(30)]
        stats = choice_distribution(transcripts)["pd"]
        assert format_percent(stats["initial_b"]) == "100.00%"
        assert format_percent(stats["final_b"]) == "100.00%"

    def test_sessions_without_choice_are_excluded(self):
        silent = fake_transcript(1, session_id="s0", initial=None, final=None)
        assert silent.initial_choice is silent.final_choice is None
        stats = choice_distribution([silent, fake_transcript(1, session_id="s1")])["pd"]
        assert stats == {"initial_b": 1.0, "final_b": 1.0, "counted": 1, "excluded": 1}

    def test_a_changed_choice_is_read_from_the_attempts_and_round_trips(self, tmp_path):
        changed = fake_transcript(3, initial="R", final="B")
        assert (changed.initial_choice, changed.final_choice) == ("R", "B")
        stats = choice_distribution([changed])["pd"]
        assert (stats["initial_b"], stats["final_b"]) == (0.0, 1.0)
        path = str(tmp_path / "changed.jsonl")
        write_transcript(path, changed)
        assert read_transcript(path) == changed


class TestConfusionMatrix:
    @staticmethod
    def dicts(tt, tf, ft, ff):
        actual, predicted = {}, {}
        i = 0
        for count, (a, p) in zip(
            (tt, tf, ft, ff), ((True, True), (True, False), (False, True), (False, False))
        ):
            for _ in range(count):
                actual[f"s{i}"], predicted[f"s{i}"] = a, p
                i += 1
        return actual, predicted

    def test_84_percent_fixture(self):
        cm = confusion_matrix(*self.dicts(15, 5, 9, 61))
        assert (cm.tt, cm.tf, cm.ft, cm.ff) == (15, 5, 9, 61)
        assert cm.total == 90
        assert cm.accuracy_percent == 84

    def test_86_percent_fixture(self):
        cm = confusion_matrix(*self.dicts(15, 2, 11, 62))
        assert (cm.tt + cm.ff, cm.total) == (77, 90)
        assert cm.accuracy_percent == 86

    def test_rounding_is_half_up_not_floor(self):
        cm = ConfusionMatrix(tt=1, tf=1, ft=0, ff=0)  # 50.0%
        assert cm.accuracy_percent == 50
        cm = ConfusionMatrix(tt=171, tf=29, ft=0, ff=0)  # 85.5%
        assert cm.accuracy_percent == 86
        cm = ConfusionMatrix(tt=23, tf=17, ft=0, ff=0)  # 57.5%, which float error took down
        assert cm.accuracy_percent == 58
        wrong = [
            (correct, total)
            for total in range(1, 401)
            for correct in range(total + 1)
            if ConfusionMatrix(correct // 2, total - correct, 0, correct - correct // 2).accuracy_percent
            != math.floor(Fraction(100 * correct, total) + Fraction(1, 2))
        ]
        assert wrong == []

    def test_key_mismatch(self):
        with pytest.raises(ExperimentError) as excinfo:
            confusion_matrix({"a": True, "b": False}, {"a": True, "c": False})
        assert str(excinfo.value) == "label/prediction keys differ: 1 missing, 1 extra"
        with pytest.raises(ExperimentError) as excinfo:
            confusion_matrix({"a": True, "b": False, "d": True}, {"a": True})
        assert str(excinfo.value) == "label/prediction keys differ: 2 missing, 0 extra"

    def test_no_samples(self):
        with pytest.raises(ExperimentError) as excinfo:
            confusion_matrix({}, {})
        assert str(excinfo.value) == "no samples to compare"


class TestAggregation:
    def test_conservative_consensus(self):
        labels = {
            "s1": {"e1": "correct", "e2": "correct", "e3": "correct"},
            "s2": {"e1": "correct", "e2": "incorrect", "e3": "correct"},
            "s3": {"e1": "incorrect", "e2": "incorrect", "e3": "incorrect"},
        }
        assert aggregate_labels(labels) == {"s1": True, "s2": False, "s3": False}

    def test_single_evaluator_is_fine(self):
        assert aggregate_labels({"s1": {"e1": "correct"}}) == {"s1": True}

    def test_missing_labels_named(self):
        with pytest.raises(ExperimentError) as excinfo:
            aggregate_labels({"s1": {"e1": "correct"}, "s2": {}, "s0": {}})
        assert str(excinfo.value) == "2 sample(s) have no labels: s0, s2"

    def test_adding_an_incorrect_label_never_flips_to_correct(self):
        base = {"s": {"e1": "correct"}}
        extended = {"s": {"e1": "correct", "e2": "incorrect"}}
        assert aggregate_labels(base)["s"] is True
        assert aggregate_labels(extended)["s"] is False


class TestEvaluationSheets:
    @pytest.fixture()
    def sheet(self, tmp_path):
        out = tmp_path / "runs"
        cfg = ExperimentConfig(games=("pd",), repetitions=4, output_dir=str(out))
        transcripts, _ = run_experiment(cfg, provider="mock")
        path = tmp_path / "sheet.csv"
        rows = export_evaluation_sheet(transcripts, str(path))
        return transcripts, path, rows

    def test_export_one_row_per_attempt(self, sheet):
        transcripts, path, rows = sheet
        assert rows == sum(t.attempt_count for t in transcripts)
        with open(path, newline="") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == [
            "sample_id", "game", "model", "attempt_index", "reasoning",
            "evaluator_1", "evaluator_2", "evaluator_3",
        ]
        assert len(parsed) - 1 == rows
        assert parsed[1][0] == "pd_000:a1"

    # A sheet saved as "CSV UTF-8" by a spreadsheet tool starts with a byte order mark.
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_fill_and_import_round_trip(self, sheet, encoding):
        _, path, _ = sheet
        with open(path, newline="") as handle:
            parsed = list(csv.reader(handle))
        for i, row in enumerate(parsed[1:]):
            row[5] = "correct"
            row[6] = "Incorrect" if i % 2 else "correct"
            row[7] = ""  # third evaluator abstains
        with open(path, "w", encoding=encoding, newline="") as handle:
            csv.writer(handle).writerows(parsed)
        labels, evaluators = import_labels(str(path))
        assert evaluators == ("evaluator_1", "evaluator_2", "evaluator_3")
        assert len(labels) == len(parsed) - 1
        sample = parsed[1][0]
        assert labels[sample] == {"evaluator_1": "correct", "evaluator_2": "correct"}
        aggregated = aggregate_labels(labels)
        assert aggregated[sample] is True

    def test_reasoning_with_newlines_survives(self, sheet):
        transcripts, path, _ = sheet
        with open(path, newline="") as handle:
            rows = {row[0]: row[4] for row in list(csv.reader(handle))[1:]}
        for t in transcripts:
            for attempt in t.attempts:
                assert rows[f"{t.session_id}:a{attempt.index}"] == attempt.reasoning

    def test_import_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,game\nx,pd\n")
        with pytest.raises(ExperimentError) as err:
            import_labels(str(path))
        assert str(err.value) == (
            f"{path}: header must start with sample_id, game, model, attempt_index, reasoning"
        )

    def test_import_rejects_unknown_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sample_id,game,model,attempt_index,reasoning,evaluator_1\n"
            "s1:a1,pd,m,1,text,maybe\n"
        )
        with pytest.raises(ExperimentError) as err:
            import_labels(str(path))
        assert str(err.value) == (
            f"{path}: row 2, column evaluator_1: "
            "label must be one of ('correct', 'incorrect'), got 'maybe'"
        )

    def test_import_rejects_duplicate_label(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "sample_id,game,model,attempt_index,reasoning,evaluator_1\n"
            "s1:a1,pd,m,1,text,correct\n"
            "s1:a1,pd,m,1,text,incorrect\n"
        )
        with pytest.raises(ExperimentError) as err:
            import_labels(str(path))
        assert str(err.value) == f"{path}: row 3, column evaluator_1: duplicate label for sample s1:a1"

    # Both columns of one name would read as one evaluator, each filling the other's blanks.
    @pytest.mark.parametrize(
        "columns, message",
        [
            ("e1,e1", "header column 7 repeats evaluator 'e1'"),
            ("e1, e1", "header column 7 repeats evaluator ' e1'"),
            ("e1,", "header column 7 names no evaluator"),
            (" ,e1", "header column 6 names no evaluator"),
        ],
    )
    def test_import_rejects_an_evaluator_column_named_twice_or_not_at_all(
        self, tmp_path, columns, message
    ):
        path = tmp_path / "sheet.csv"
        path.write_text(
            f"sample_id,game,model,attempt_index,reasoning,{columns}\n"
            "s1:a1,pd,m,1,text,correct,\n"
            "s2:a1,pd,m,1,text,,incorrect\n"
        )
        with pytest.raises(ExperimentError) as err:
            import_labels(str(path))
        assert str(err.value) == f"{path}: {message}"

    def test_import_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ExperimentError) as err:
            import_labels(str(path))
        assert str(err.value) == f"{path}: empty file"

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "sample_id,game,model,attempt_index,reasoning,evaluator_1\n"
            "\n"
            "s1:a1,pd,m,1,text,correct\n"
        )
        labels, _ = import_labels(str(path))
        assert labels == {"s1:a1": {"evaluator_1": "correct"}}

    def test_a_reasoning_longer_than_the_csv_field_limit_reads_back(self, tmp_path):
        limit = csv.field_size_limit()
        session = fake_transcript(1, session_id="pd_000")
        attempt = replace(session.attempts[0], reasoning="x" * 200_010)  # csv's default limit: 131,072
        path = tmp_path / "sheet.csv"
        export_evaluation_sheet([replace(session, attempts=(attempt,))], str(path))
        assert import_labels(str(path)) == ({"pd_000:a1": {}}, DEFAULT_EVALUATORS)
        assert csv.field_size_limit() == limit  # the csv module's, for the whole process

    def test_a_row_csv_cannot_read_is_an_error_naming_it(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "sheet.csv"
        path.write_text(
            "sample_id,game,model,attempt_index,reasoning,evaluator_1\n"
            "s1:a1,pd,m,1,text,correct\n"
        )
        rows = csv.reader

        def reader(handle):  # the real reader, stopped by a csv.Error after two rows
            yield from itertools.islice(rows(handle), 2)
            raise csv.Error("bad row")

        monkeypatch.setattr(csv, "reader", reader)
        limit = csv.field_size_limit(16)  # reading raises it, then puts it back
        try:
            for argv in (["eval", "import", str(path)], ["kappa", str(path)]):
                assert main(argv) == 2
                assert capsys.readouterr().err == f"error: {path}: row 3: bad row\n"
                assert csv.field_size_limit() == 16
        finally:
            csv.field_size_limit(limit)


class TestFleissKappa:
    def test_fixed_panel_matches_oracle(self):
        assert fleiss_kappa(FIXED_RATINGS_10x3) == pytest.approx(
            FIXED_RATINGS_10x3_KAPPA, abs=1e-9
        )

    def test_classic_worked_matrix(self):
        assert fleiss_kappa(CLASSIC_RATINGS_10x14) == pytest.approx(
            CLASSIC_RATINGS_10x14_KAPPA, abs=1e-9
        )

    def test_perfect_agreement_over_multiple_categories(self):
        rows = [[3, 0], [0, 3], [3, 0], [0, 3]]
        assert fleiss_kappa(rows) == 1.0

    def test_degenerate_agreement(self):
        with pytest.raises(ExperimentError, match="^all ratings fall in a single category$"):
            fleiss_kappa([[3, 0], [3, 0], [3, 0]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "no subjects"),
            ([[3]], "rows must share one category axis of width >= 2"),
            ([[2, 1], [2, 1, 0]], "rows must share one category axis of width >= 2"),
            ([[2, 1], [2, 2]], "every subject needs the same number of ratings"),
            ([[1, 0], [0, 1]], "need at least 2 ratings per subject"),
            ([[2, -1], [1, 0]], "negative rating count"),
        ],
    )
    def test_ragged_inputs_rejected(self, rows, message):
        with pytest.raises(ExperimentError) as err:
            fleiss_kappa(rows)
        assert str(err.value) == message

    def test_labels_to_matrix(self):
        labels = {
            "b": {"e1": "correct", "e2": "incorrect"},
            "a": {"e1": "correct", "e2": "correct"},
        }
        rows, samples = labels_to_matrix(labels)
        assert samples == ["a", "b"]
        assert rows == [[2, 0], [1, 1]]


_ratings = st.integers(min_value=2, max_value=6).flatmap(
    lambda raters: st.integers(min_value=2, max_value=4).flatmap(
        lambda categories: st.lists(
            st.lists(
                st.integers(min_value=0, max_value=categories - 1),
                min_size=raters,
                max_size=raters,
            ).map(
                lambda picks: [picks.count(c) for c in range(categories)]
            ),
            min_size=2,
            max_size=8,
        )
    )
)


@given(_ratings)
def check_kappa_against_oracle(rows):
    """Float kappa agrees with the exact-rational computation on any panel."""
    try:
        expected = oracle_fleiss_kappa(rows)
    except ZeroDivisionError:
        with pytest.raises(ExperimentError, match="^all ratings fall in a single category$"):
            fleiss_kappa(rows)
        return
    got = fleiss_kappa(rows)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got <= 1.0 + 1e-12
    # subject order never matters
    assert fleiss_kappa(rows[::-1]) == pytest.approx(got, abs=1e-12)


def test_kappa_property():
    check_kappa_against_oracle()


class TestConfigLoading:
    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\n"
            "games = pd, hd\n"
            "repetitions = 7\n"
            "output_dir = out\n"
            "cassette_dir = tapes\n"
            "max_attempts = 4\n"
            "parallelism = 2\n"
            "\n"
            "[reasoner]\n"
            "provider = openai\n"
            "model_id = gpt-test\n"
            "endpoint = https://api.example/v1/chat/completions\n"
            "temperature = 0.7\n"
            "max_output_tokens = 512\n"
            "api_key_env = OPENAI_API_KEY\n"
            "\n"
            "[translator]\n"
            "provider = gemini\n"
            "model_id = gemini-test\n"
            "endpoint = https://gen.example/models/x:generateContent\n"
            "api_key_env = GEMINI_API_KEY\n"
        )
        cfg = load_experiment_config(str(path))
        assert cfg.games == ("pd", "hd")
        assert cfg.repetitions == 7
        assert cfg.max_attempts == 4
        assert cfg.parallelism == 2
        assert cfg.cassette_dir == "tapes"
        assert cfg.reasoner.provider == "openai"
        assert cfg.reasoner.model_id == "gpt-test"
        assert cfg.reasoner.temperature == 0.7
        assert cfg.reasoner.max_output_tokens == 512
        assert cfg.reasoner.api_key_env == "OPENAI_API_KEY"
        assert cfg.translator.provider == "gemini"

    def test_defaults_without_sections(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[experiment]\nrepetitions = 2\n")
        cfg = load_experiment_config(str(path))
        assert cfg.games == ("pd", "sh", "hd")
        assert cfg.repetitions == 2
        assert cfg.reasoner.provider == "mock"

    def test_unset_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\ngames = pd\n")
        assert load_experiment_config(str(path)) == ExperimentConfig(games=("pd",))
        path.write_text("[reasoner]\nmodel_id = m\n")
        cfg = load_experiment_config(str(path))
        assert (cfg.reasoner, cfg.translator) == (ModelConfig(model_id="m"), ModelConfig())

    def test_every_model_field_the_runner_does_not_set_is_an_ini_key(self, tmp_path):
        # The experiment runner sets script and record_to. A field
        # that neither it nor the INI can set keeps its default here.
        path = tmp_path / "exp.ini"
        path.write_text(
            "[reasoner]\n"
            "provider = openai\n"
            "model_id = gpt-test\n"
            "endpoint = https://api.example/v1/chat/completions\n"
            "temperature = 0.5\n"
            "max_output_tokens = 9\n"
            "timeout = 5\n"
            "retries = 1\n"
            "api_key_env = OPENAI_API_KEY\n"
        )
        model, default = load_experiment_config(str(path)).reasoner, ModelConfig()
        unset = {f.name for f in fields(ModelConfig) if getattr(model, f.name) == getattr(default, f.name)}
        assert unset == {"script", "record_to"}

    # Every key each section reads, written as its field's default. A field
    # that no file sets is set from Python: the runner sets script and record_to.
    SETTINGS = {
        "experiment": {
            "games": "pd, sh, hd",
            "repetitions": "30",
            "parallelism": "0",
            "output_dir": "runs",
            "cassette_dir": "",
            "max_attempts": "5",
        },
        **dict.fromkeys(("reasoner", "translator"), {
            "provider": "mock",
            "model_id": "mock-model",
            "endpoint": "",
            "temperature": "1.0",
            "max_output_tokens": "1024",
            "timeout": "60",
            "retries": "3",
            "api_key_env": "",
        }),
    }

    def test_each_section_reads_its_keys_and_no_more(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {text}\n" for key, text in values.items())
            for section, values in self.SETTINGS.items()
        ))
        assert load_experiment_config(str(path)) == ExperimentConfig()
        python_only = {ExperimentConfig: {"reasoner", "translator"}, ModelConfig: {"script", "record_to"}}
        for section, cls in [("experiment", ExperimentConfig), ("reasoner", ModelConfig),
                             ("translator", ModelConfig)]:
            assert set(self.SETTINGS[section]) == {f.name for f in fields(cls)} - python_only[cls]

    @pytest.mark.parametrize("section, key", [
        ("reasoner", "script"), ("reasoner", "record_to"), ("translator", "script"),
        ("translator", "record_to"), ("experiment", "reasoner"), ("experiment", "translator"),
    ])
    def test_a_field_set_from_python_is_not_a_setting(self, tmp_path, section, key):
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = x\n")
        with pytest.raises(ExperimentError, match=rf"^\[{section}\] {key}: unknown setting$"):
            load_experiment_config(str(path))

    def test_inline_credentials_rejected(self, tmp_path):
        path = tmp_path / "leaky.ini"
        path.write_text("[experiment]\n\n[reasoner]\napi_key = sk-oops\n")
        with pytest.raises(ExperimentError, match="environment"):
            load_experiment_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read"):
            load_experiment_config(str(tmp_path / "absent.ini"))

    def test_lines_may_end_in_crlf_or_cr(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_bytes(b"[experiment]\r\nrepetitions = 2\r[reasoner]\r\nmodel_id = m\r\n")
        cfg = load_experiment_config(str(path))
        assert (cfg.repetitions, cfg.reasoner.model_id) == (2, "m")


@pytest.mark.parametrize("read, suffix", [(load_experiment_config, ".ini"), (import_labels, ".csv")])
def test_a_byte_that_is_not_utf8_is_named_at_its_offset_in_the_file(tmp_path, read, suffix):
    # Past the first buffer a text-mode read decodes: the offset counts from the file's start.
    path = tmp_path / f"big{suffix}"
    path.write_bytes(b"\xef\xbb\xbf" + b"#" * 20_000 + b"\xff\n")
    with pytest.raises(ExperimentError) as err:
        read(str(path))
    assert str(err.value) == (
        f"{path}: not UTF-8 text "
        "('utf-8' codec can't decode byte 0xff in position 20003: invalid start byte)"
    )


class TestReplayMode:
    def test_record_then_replay_experiment(self, tmp_path):
        tapes = tmp_path / "tapes"
        live_out = tmp_path / "live"
        cfg = ExperimentConfig(
            games=("pd",),
            repetitions=4,
            output_dir=str(live_out),
            cassette_dir=str(tapes),
        )
        live, _ = run_experiment(cfg, provider="mock")
        assert len(list(tapes.glob("*.jsonl"))) == 8  # reasoner + translator per session

        replay_out = tmp_path / "replayed"
        replay_cfg = ExperimentConfig(
            games=("pd",),
            repetitions=4,
            output_dir=str(replay_out),
            cassette_dir=str(tapes),
        )
        replayed, _ = run_experiment(replay_cfg, provider="replay")
        assert replayed == live
        for path in live_out.glob("*.jsonl"):
            assert (replay_out / path.name).read_bytes() == path.read_bytes()

    def test_missing_cassette_aborts_only_its_session(self, tmp_path):
        cfg = ExperimentConfig(
            games=("pd",),
            repetitions=2,
            output_dir=str(tmp_path / "live"),
            cassette_dir=str(tmp_path / "tapes"),
        )
        run_experiment(cfg, provider="mock")
        missing = tmp_path / "tapes" / "pd_001.translator.jsonl"
        missing.unlink()

        out = tmp_path / "replayed"
        transcripts, summary = run_experiment(replace(cfg, output_dir=str(out)), provider="replay")
        assert [t.aborted for t in transcripts] == [False, True]
        assert transcripts[1].error.startswith(f"CassetteError: cannot read cassette {missing}")
        assert summary["sessions"] == 2 and summary["aborted"] == 1
        assert json.loads((out / "summary.json").read_text()) == summary
        assert read_transcripts_dir(str(out))[1].aborted

    def test_a_rerun_is_answered_from_its_cassettes_and_replays_byte_for_byte(
        self, tmp_path, monkeypatch
    ):
        # Each reply differs from the last, so a rerun that called the
        # provider again would write a transcript its cassettes do not hold.
        draws = itertools.count()
        monkeypatch.setattr(gateway, "_requests_transport",
                            lambda *args: openai_reply(f"draw {next(draws)}\nCHOICE: B"))
        cfg = ExperimentConfig(games=("pd",), reasoner=LIVE, translator=LIVE, repetitions=2,
                               output_dir=str(tmp_path / "live"), cassette_dir=str(tmp_path / "tapes"))
        first, _ = run_experiment(cfg)
        written = {path.name: path.read_bytes() for path in (tmp_path / "live").iterdir()}
        second, _ = run_experiment(cfg)
        assert next(draws) == 4  # two calls in each of the first run's two sessions
        assert second == first

        replayed, _ = run_experiment(replace(cfg, output_dir=str(tmp_path / "replayed")),
                                     provider="replay")
        assert replayed == second
        for name, data in written.items():
            assert (tmp_path / "live" / name).read_bytes() == data
            assert (tmp_path / "replayed" / name).read_bytes() == data

    def test_a_rerun_resumes_a_session_cut_off_by_a_provider_error(self, tmp_path, monkeypatch):
        # The translator's claim fails, so the session runs all three attempts:
        # six calls. The third call fails with status 400 on the first run.
        requests, fail_at = [], 2

        def transport(url, headers, payload, timeout):
            requests.append(payload["messages"])
            if len(requests) - 1 == fail_at:
                return 400, {"error": "bad request"}
            if payload["model"] == "translator":
                return openai_reply("higher(1, 3)")
            return openai_reply(f"draw {len(requests)}\nCHOICE: R")

        monkeypatch.setattr(gateway, "_requests_transport", transport)
        cfg = ExperimentConfig(
            games=("pd",), repetitions=1, max_attempts=3, output_dir=str(tmp_path / "live"),
            cassette_dir=str(tmp_path / "tapes"),
            reasoner=replace(LIVE, model_id="reasoner"), translator=replace(LIVE, model_id="translator"),
        )
        [cut], _ = run_experiment(cfg)
        assert cut.aborted and "status 400" in cut.error
        recorded = requests[:fail_at]

        [resumed], _ = run_experiment(cfg)
        assert not resumed.aborted and resumed.attempt_count == 3
        # The rerun asked the provider only for the calls the cassettes lacked.
        assert len(requests) == fail_at + 1 + (6 - fail_at)
        assert not any(messages in recorded for messages in requests[fail_at + 1:])

        replay_out = tmp_path / "replayed"
        [replayed], _ = run_experiment(replace(cfg, output_dir=str(replay_out)), provider="replay")
        assert replayed == resumed
        assert (replay_out / "pd_000.jsonl").read_bytes() == \
            (tmp_path / "live" / "pd_000.jsonl").read_bytes()

    def test_replay_without_cassette_dir_fails(self, tmp_path):
        cfg = ExperimentConfig(games=("pd",), repetitions=1, output_dir=str(tmp_path / "o"))
        with pytest.raises(ExperimentError, match="cassette_dir"):
            run_experiment(cfg, provider="replay")
