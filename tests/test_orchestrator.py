import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lelma.cli import main
from lelma.games import PROMPT_LABELS
from lelma.gateway import (
    CassetteParseError,
    ChatMessage,
    Gateway,
    ModelConfig,
    Usage,
    load_cassette,
)
from lelma.orchestrator import (
    AttemptRecord,
    ExitReason,
    LoopConfig,
    SessionTranscript,
    TranscriptFormatError,
    build_feedback_prompt,
    build_instruction_prompt,
    extract_choice,
    payoff_rules_text,
    read_transcript,
    run_session,
    write_transcript,
)
from lelma.translator import build_translation_prompt
from lelma.verification import SCHEMAS, Query, QueryKind, QueryResult, VerificationReport


def with_first_record_field(text, *path, value):
    """`text` with the field at `path` in its first JSON record set to `value`."""
    first, rest = text.split("\n", 1)
    record = json.loads(first)
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(record) + "\n" + rest


def loop(reasoner_script, translator_script, max_attempts=5, **kwargs):
    return LoopConfig(
        reasoner=ModelConfig(script=tuple(reasoner_script), **kwargs),
        translator=ModelConfig(script=tuple(translator_script)),
        max_attempts=max_attempts,
    )


class TestPrompts:
    def test_pd_rules_sentences_in_order(self, pd):
        assert payoff_rules_text(pd) == (
            "If you both pick R, you each get $1.\n"
            "If you pick R and they pick B, you get $5 and they get $0.\n"
            "If you pick B and they pick R, you get $0 and they get $5.\n"
            "If you both pick B, you each get $3."
        )

    def test_instruction_prompt_contents(self, games):
        for g in games.values():
            prompt = build_instruction_prompt(g)
            assert "perform reasoning as a human player" in prompt
            assert "CHOICE: B" in prompt and "CHOICE: R" in prompt
            assert payoff_rules_text(g) in prompt

    def test_instruction_prompt_never_names_the_game(self, games):
        import re

        banned_words = ["prisoner", "dilemma", "stag", "hunt", "hawk", "dove", "hare"]
        for g in games.values():
            prompt = build_instruction_prompt(g).lower()
            for word in banned_words:
                assert word not in prompt
            # moves appear only as the neutral labels, never as game atoms
            assert not re.search(r"\b[CD]\b", build_instruction_prompt(g))

    def test_feedback_prompt_embeds_corrections_rules_and_previous_reasoning(self, pd):
        from lelma.translator import parse_queries
        from lelma.verification import evaluate_all

        queries, _ = parse_queries("higher(1, 3)", pd)
        report = evaluate_all(queries, pd)
        prompt = build_feedback_prompt("The payoff 1 beats 3.", report, pd)
        assert "3 is higher than 1" in prompt
        assert payoff_rules_text(pd) in prompt
        assert "The payoff 1 beats 3." in prompt
        assert "CHOICE: B" in prompt

    def test_feedback_prompt_requires_failures(self, pd):
        from lelma.verification import VerificationError, evaluate_all

        with pytest.raises(VerificationError, match="^no failed queries to render feedback for$"):
            build_feedback_prompt("x", evaluate_all([], pd), pd)


class TestExtractChoice:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Reasoning...\nCHOICE: B", "B"),
            ("CHOICE: B\nmore\nCHOICE: R", "R"),
            ("  choice:  r  ", "R"),
            ("CHOICE: 'B'", "B"),
            ("I will pick B.", "B"),
            ("Either R or B... final answer: R", "R"),
            ("I pick 'b' today", "B"),
            ("CHOICE: Banana", None),
            ("no move stated", None),
            ("", None),
        ],
    )
    def test_cases(self, text, expected):
        assert extract_choice(text) == expected


REASONING_TRUE = "Mutual B pays $3 each, which is higher than $1.\nCHOICE: B"


def attempt_calls(a: AttemptRecord, g) -> list:
    """The (messages, reply) of both calls of attempt `a`, as its record holds them."""
    return [
        ((ChatMessage("user", a.instruction),), a.reasoning),
        (build_translation_prompt(a.reasoning, g), a.translator_output),
    ]


def replies_usage(calls) -> Usage:
    """The summed usage of fresh mock gateways that reply `text` to `messages`."""
    usages = [Gateway(ModelConfig(script=(text,))).complete(messages).usage for messages, text in calls]
    return Usage(sum(u.prompt_tokens for u in usages), sum(u.completion_tokens for u in usages))


class TestRunSession:
    def test_all_true_exit(self, pd):
        cfg = loop([REASONING_TRUE], ["higher(3, 1)"])
        t = run_session(pd, cfg, session_id="s1")
        assert t.attempt_count == 1
        assert t.exit is ExitReason.ALL_TRUE
        assert t.attempts[0].exit is ExitReason.ALL_TRUE
        assert t.initial_choice == t.final_choice == "B"
        assert not t.aborted and t.error is None
        assert t.usage.total_tokens > 0
        assert t.wall_time == 0.0

    def test_no_queries_exit(self, pd):
        cfg = loop(["Vibes only. CHOICE: R"], ["I could not find any formal claims."])
        t = run_session(pd, cfg)
        assert t.attempt_count == 1
        assert t.exit is ExitReason.NO_QUERIES
        assert t.attempts[0].queries == ()

    def test_corrected_after_one_round(self, pd):
        cfg = loop(
            ["Payoff 1 is higher than 3. CHOICE: R", "Corrected: 3 beats 1. CHOICE: B"],
            ["higher(1, 3)", "higher(3, 1)"],
        )
        t = run_session(pd, cfg, session_id="s2")
        assert [a.exit for a in t.attempts] == [ExitReason.NONE, ExitReason.ALL_TRUE]
        assert t.initial_choice == "R"
        assert t.final_choice == "B"
        second_instruction = t.attempts[1].instruction
        assert "3 is higher than 1" in second_instruction
        assert "Payoff 1 is higher than 3. CHOICE: R" in second_instruction

    def test_max_attempts_is_exactly_five(self, pd):
        reasonings = [f"Attempt {i}: still claiming 1 beats 3. CHOICE: R" for i in range(1, 6)]
        cfg = loop(reasonings, ["higher(1, 3)"] * 5)
        t = run_session(pd, cfg)
        assert t.attempt_count == 5
        assert [a.exit for a in t.attempts] == [ExitReason.NONE] * 4 + [ExitReason.MAX_ATTEMPTS]
        assert t.exit is ExitReason.MAX_ATTEMPTS
        assert [a.index for a in t.attempts] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_a_loop_without_an_attempt_is_rejected(self, max_attempts):
        with pytest.raises(ValueError) as err:
            loop([], [], max_attempts=max_attempts)
        assert str(err.value) == f"max_attempts must be at least 1, got {max_attempts}"

    @pytest.mark.parametrize("role", ["reasoner", "translator"])
    @pytest.mark.parametrize("model, name", [(None, "NoneType"), ("mock", "str"), ({}, "dict")])
    def test_a_role_that_is_not_a_model_config_is_rejected(self, role, model, name):
        roles = {"reasoner": ModelConfig(), "translator": ModelConfig(), role: model}
        with pytest.raises(TypeError) as err:
            LoopConfig(**roles)
        assert str(err.value) == f"{role} must be a ModelConfig, not {name}"

    def test_gateway_failure_aborts_with_partial_transcript(self, pd):
        cfg = loop(
            ["Payoff 1 is higher than 3. CHOICE: R"],  # script exhausted on attempt 2
            ["higher(1, 3)", "higher(1, 3)"],
        )
        t = run_session(pd, cfg)
        assert t.aborted
        assert "exhausted" in t.error
        assert t.attempt_count == 1
        assert t.exit is ExitReason.NONE

    def test_an_aborted_session_counts_every_reply_it_got(self, pd):
        wrong = "Payoff 1 is higher than 3. CHOICE: R"
        # The translator's script runs out on attempt 3, after the reasoner replied.
        cfg = loop([wrong, wrong, REASONING_TRUE], ["higher(1, 3)", "higher(1, 3)"])
        t = run_session(pd, cfg)
        assert t.aborted and "exhausted" in t.error
        assert t.attempt_count == 2
        last = t.attempts[-1]
        third = build_feedback_prompt(last.reasoning, last.report, pd)
        calls = [*attempt_calls(t.attempts[0], pd), *attempt_calls(last, pd)]
        calls.append(((ChatMessage("user", third),), REASONING_TRUE))
        assert t.usage == replies_usage(calls)
        assert t.usage != replies_usage(calls[:-1])

    def test_unreadable_record_cassette_aborts_the_session(self, pd, tmp_path):
        # The reasoner's first call reads the cassette at `record_to`, here a
        # directory.
        cfg = loop([REASONING_TRUE], ["higher(3, 1)"], record_to=str(tmp_path))
        t = run_session(pd, cfg, session_id="unreadable")
        assert t.aborted
        assert t.error.startswith("CassetteError: cannot read cassette")
        assert t.attempts == ()
        assert t.usage == Usage()

    def test_usage_sums_both_models(self, pd):
        cfg = loop([REASONING_TRUE], ["higher(3, 1)"])
        t = run_session(pd, cfg)
        reasoner_call, translator_call = attempt_calls(t.attempts[0], pd)
        assert t.usage == replies_usage([reasoner_call, translator_call])
        assert replies_usage([reasoner_call]).total_tokens > 0
        assert replies_usage([translator_call]).total_tokens > 0
        assert t.model == cfg.reasoner.model_id


class TestTranscripts:
    def make_transcript(self, pd, session_id="round-trip"):
        cfg = loop(
            ["Payoff 1 is higher than 3. CHOICE: R", "Fixed. CHOICE: B"],
            ["higher(1, 3)", "higher(3, 1)"],
        )
        return run_session(pd, cfg, session_id=session_id)

    def test_round_trip(self, pd, tmp_path):
        t = self.make_transcript(pd)
        path = str(tmp_path / "t.jsonl")
        write_transcript(path, t)
        assert read_transcript(path) == t

    def test_queries_survive_round_trip(self, pd, tmp_path):
        t = self.make_transcript(pd)
        path = str(tmp_path / "t.jsonl")
        write_transcript(path, t)
        back = read_transcript(path)
        assert back.attempts[0].queries[0].kind is QueryKind.HIGHER
        assert back.attempts[0].queries[0].args == (1, 3)
        assert back.attempts[0].report.failed[0].corrections == (("relation", "lower"),)

    def test_a_write_that_fails_leaves_the_old_transcript_and_no_temporary_file(
        self, pd, tmp_path, monkeypatch
    ):
        path = tmp_path / "t.jsonl"
        write_transcript(str(path), self.make_transcript(pd, "old"))
        old = path.read_bytes()
        seen = []

        def fail(source, target):
            seen.append((Path(source).read_text(), sorted(tmp_path.glob("*.jsonl"))))
            raise KeyboardInterrupt  # a Ctrl-C, say, between the write and the rename

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(KeyboardInterrupt):
            write_transcript(str(path), self.make_transcript(pd, "new"))
        # The new text was whole, and no *.jsonl glob saw it.
        [(text, jsonl)] = seen
        assert '"session_id":"new"' in text and text.endswith("}\n") and jsonl == [path]
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_malformed_transcript_errors(self, pd, tmp_path):
        path = tmp_path / "bad.jsonl"

        def error(text):
            """The full message reading `text` from `path` raises, less the path."""
            path.write_text(text)
            with pytest.raises(TranscriptFormatError) as err:
                read_transcript(str(path))
            assert str(err.value).startswith(f"{path}:")
            return str(err.value)[len(str(path)):]

        assert error("not json\n") == (
            ":1: not valid JSON (Expecting value: line 1 column 1 (char 0))"
        )
        assert error('{"type":"attempt","index":1}\n') == (
            ":1: attempt record missing field 'instruction'"
        )
        # The session record alone, of a session that made no attempt.
        write_transcript(str(path), replace(self.make_transcript(pd), attempts=()))
        unattempted = path.read_text()
        # Two attempts that fail, the budget of two spent.
        stubborn = loop(["CHOICE: R", "CHOICE: R"], ["higher(1, 3)", "higher(1, 3)"], max_attempts=2)
        write_transcript(str(path), run_session(pd, stubborn))
        spent = path.read_text()
        # One attempt that holds, then the session record.
        write_transcript(str(path), run_session(pd, loop(["CHOICE: B"], ["higher(3, 1)"])))
        held, held_summary = path.read_text().splitlines()
        # Two attempt records, then the session record.
        write_transcript(str(path), self.make_transcript(pd))
        good = path.read_text()
        cannot = "attempt record cannot be read"
        summary = "session record cannot be read"
        for bad, message in [
            (good.replace('"kind":"higher"', '"kind":"bogus"', 1),
             f":1: {cannot} ('bogus' is not a valid QueryKind)"),
            (good.replace('"exit":"none"', '"exit":"weird"', 1),
             f":1: {cannot} ('weird' is not a valid ExitReason)"),
            ("[1,2]\n" + good, ":1: not a JSON object"),
            (good.replace('"game":"pd",', ""), ":3: session record missing field 'game'"),
            (re.sub(r'"prompt_tokens":\d+', '"prompt_tokens":"x"', good),
             f":3: {summary} (prompt_tokens must be int, not str)"),
            (re.sub(r'"completion_tokens":\d+', '"completion_tokens":true', good),
             f":3: {summary} (completion_tokens must be int, not bool)"),
            # An integer too long for `int`, which `json.loads` raises a ValueError on.
            (re.sub(r'"prompt_tokens":\d+', '"prompt_tokens":' + "9" * 5000, good),
             ":3: not valid JSON (Exceeds the limit (4300 digits) for integer string conversion: "
             "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit)"),
            (good.replace('"game":"pd"', '"game":5'), f":3: {summary} (game must be str, not int)"),
            (good.replace('"model":"mock-model"', '"model":null'),
             f":3: {summary} (model must be str, not NoneType)"),
            (good.replace('"aborted":false', '"aborted":"no"'),
             f":3: {summary} (aborted must be bool, not str)"),
            # An `aborted` that disagrees with `error`.
            (good.replace('"aborted":false', '"aborted":true'),
             f":3: {summary} (summary says aborted True, but it is False)"),
            (good.replace('"error":null,"exit":"all', '"error":"E: x","exit":"all'),
             f":3: {summary} (summary says aborted False, but it is True)"),
            # Summary fields that disagree with the attempts.
            (good.replace('"final_choice":"B"', '"final_choice":"R"'),
             f":3: {summary} (summary says final_choice 'R', but it is 'B')"),
            (good.replace('"initial_choice":"R"', '"initial_choice":null'),
             f":3: {summary} (summary says initial_choice None, but it is 'R')"),
            (good.replace('"attempt_count":2', '"attempt_count":3'),
             f":3: {summary} (summary says attempt_count 3, but it is 2)"),
            (good.replace('"exit":"all_true","final', '"exit":"none","final'),
             f":3: {summary} (summary says exit 'none', but it is 'all_true')"),
            (good.replace('"error":null,"exit":"all', '"error":1,"exit":"all'),
             f":3: {summary} (error must be str or NoneType, not int)"),
            # A session is aborted exactly when no attempt ended it: one that
            # ended all_true records no error, and one that no attempt ended
            # (here none was made, or the last went on) records one.
            (good.replace('"aborted":false', '"aborted":true')
                 .replace('"error":null,"exit":"all', '"error":"E: x","exit":"all'),
             f":3: {summary} (exit is 'all_true', so error must be null, not 'E: x')"),
            (unattempted, f":1: {summary} (exit is 'none', so error must be a string, not None)"),
            (spent.replace('"exit":"max_attempts"', '"exit":"none"'),
             f":3: {summary} (exit is 'none', so error must be a string, not None)"),
            # A version this reader does not know, or none at all.
            (good.replace('"version":1,', '"version":99,'),
             f":3: {summary} (version must be 1, not 99)"),
            (good.replace('"version":1,', '"version":true,'),
             f":3: {summary} (version must be int, not bool)"),
            (good.replace('"version":1,', ""), ":3: session record missing field 'version'"),
            # A second session summary, here one naming another session.
            (
                good + re.sub(r'"session_id":"[^"]*"', '"session_id":"other"', good.splitlines()[-1]),
                ":4: second session summary",
            ),
            # An attempt after one whose exit ended the session.
            ("\n".join([held, held.replace('"index":1', '"index":2'), held_summary, ""]),
             f":2: {cannot} (attempt 1 ended the session (all_true))"),
            # Attempt indexes that are not the attempts' positions 1, 2, ...
            (good.replace('"index":2', '"index":1'),
             f":2: {cannot} (index must be 2, its position, not 1)"),
            (good.replace('"index":1', '"index":2'),
             f":1: {cannot} (index must be 1, its position, not 2)"),
            # Two faults in one record: the first checked is the one reported.
            (good.replace('"aborted":false', '"aborted":true')
                 .replace('"attempt_count":2', '"attempt_count":3'),
             f":3: {summary} (summary says attempt_count 3, but it is 2)"),
            (good.replace('"aborted":false', '"aborted":"no"')
                 .replace('"wall_time":0.0', '"wall_time":"0"'),
             f":3: {summary} (aborted must be bool, not str)"),
            # Attempt, result and query fields of the wrong type.
            *(
                (with_first_record_field(good, *path, value=value), f":1: {cannot} ({message})")
                for *path, value, message in [
                    ("index", True, "index must be int, not bool"),
                    ("instruction", None, "instruction must be str, not NoneType"),
                    ("reasoning", 7, "reasoning must be str, not int"),
                    ("translator_output", [], "translator_output must be str, not list"),
                    ("extracted_choice", 5, "extracted_choice must be B, R or null, not 5"),
                    ("extracted_choice", "b", "extracted_choice must be B, R or null, not 'b'"),
                    ("results", {}, "results must be list, not dict"),
                    ("results", 0, "holds", "yes", "holds must be bool, not str"),
                    ("results", 0, "corrections", "lower", "corrections must be list, not str"),
                    # Corrections in no shape a judge makes.
                    *(
                        ("results", 0, "corrections", [c], "correction must be a [role, value] "
                         f"pair as a judge makes it, not {c!r}")
                        for c in ([1, 2], ["nonsense", {"a": 1}], ["relation", None])
                    ),
                    ("results", 0, "explanation", 0, "explanation must be str, not int"),
                    ("results", 0, "error", 5, "error must be str or NoneType, not int"),
                    ("results", 0, "query", "source_text", False,
                     "source_text must be str, not bool"),
                    ("results", 0, "query", "args", [True, "x"],
                     "higher: expected an integer, got True"),
                    ("results", 0, "query", "args", [1], "higher takes 2 argument(s), got 1"),
                ]
            ),
        ]:
            assert bad != good
            assert error(bad) == message
        # One attempt, then the session record: its count is 1, and true is no count.
        one = run_session(pd, loop(["Payoff 3 beats 1. CHOICE: B"], ["higher(3, 1)"]), session_id="one")
        write_transcript(str(path), one)
        good = path.read_text()
        assert read_transcript(str(path)) == one
        assert error(good.replace('"attempt_count":1', '"attempt_count":true')) == (
            f":2: {summary} (summary says attempt_count True, but it is 1)"
        )

    # Result and attempt shapes run_session never writes, as (line, field
    # path, value, message), each set in the record on that line of the
    # round-trip transcript: attempt 1 fails higher(1, 3), attempt 2 holds.
    @pytest.mark.parametrize(
        "line, field, value, message",
        [
            (1, ("results", 0, "holds"), True, "a result that holds carries no correction or error"),
            (2, ("results", 0, "corrections"), [["relation", "higher"]],
             "a result that holds carries no correction or error"),
            (2, ("results", 0, "error"), "E: x", "a result that holds carries no correction or error"),
            (1, ("results", 0, "error"), "E: x", "an errored result carries no correction"),
            (1, ("results", 0, "corrections"), [], "a failed result carries a correction"),
            (1, ("exit",), "all_true",
             "exit must be 'none' or 'max_attempts' for its results, not 'all_true'"),
            (1, ("exit",), "no_queries",
             "exit must be 'none' or 'max_attempts' for its results, not 'no_queries'"),
            (2, ("exit",), "max_attempts",
             "exit must be 'all_true' for its results, not 'max_attempts'"),
            (2, ("results",), [], "exit must be 'no_queries' for its results, not 'all_true'"),
        ],
        ids=["failed-set-to-hold", "held-corrected", "held-errored", "errored-corrected",
             "failed-uncorrected", "failed-all-true", "failed-no-queries", "held-max-attempts",
             "no-results-all-true"],
    )
    def test_a_shape_run_session_never_writes_is_rejected(
        self, pd, tmp_path, capsys, line, field, value, message
    ):
        write_transcript(str(tmp_path / "t.jsonl"), self.make_transcript(pd))
        records = [json.loads(text) for text in (tmp_path / "t.jsonl").read_text().splitlines()]
        target = records[line - 1]
        for key in field[:-1]:
            target = target[key]
        assert target[field[-1]] != value
        target[field[-1]] = value
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        expected = f"{path}:{line}: attempt record cannot be read ({message})"
        with pytest.raises(TranscriptFormatError) as err:
            read_transcript(str(path))
        assert str(err.value) == expected
        assert main(["stats", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {expected}\n")

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b"", None),  # only the blank lines between the good records
            (b"\xff\n", "{path}: not UTF-8 text"),
            (b"not json\n", "{path}:{line}: not valid JSON"),
            (b"[" * 100_000 + b"\n", "{path}:{line}: not valid JSON"),
            (b"[1, 2]\n", "{path}:{line}: not a JSON object"),
            # A last line with no newline: a cassette skips it as a torn append.
            (b'{"key": "torn', "{path}:{line}: not valid JSON"),
        ],
    )
    @pytest.mark.parametrize(
        "read, error", [(load_cassette, CassetteParseError), (read_transcript, TranscriptFormatError)]
    )
    def test_cassettes_and_transcripts_share_one_line_reader(
        self, pd, tmp_path, read, error, bad_line, message
    ):
        # One session gives a cassette of two records and a transcript of three.
        tape, transcript = tmp_path / "tape.jsonl", tmp_path / "t.jsonl"
        cfg = loop(
            ["Payoff 1 is higher than 3. CHOICE: R", "Fixed. CHOICE: B"],
            ["higher(1, 3)", "higher(3, 1)"],
            record_to=str(tape),
        )
        write_transcript(str(transcript), run_session(pd, cfg))
        good = tape if read is load_cassette else transcript
        spaced = "\n\n \t\n".join(good.read_text().splitlines()) + "\n"
        path = tmp_path / "spaced.jsonl"
        path.write_bytes(spaced.encode() + bad_line)
        if message is None or (read is load_cassette and not bad_line.endswith(b"\n")):
            assert read(str(path)) == read(str(good))
            return
        line = len(spaced.splitlines()) + 1
        with pytest.raises(error, match=re.escape(message.format(path=path, line=line))):
            read(str(path))

    def test_replay_reproduces_transcript_byte_for_byte(self, pd, tmp_path):
        reasoner_cassette = str(tmp_path / "reasoner.jsonl")
        translator_cassette = str(tmp_path / "translator.jsonl")
        cfg = loop(
            ["Payoff 1 is higher than 3. CHOICE: R", "Fixed. CHOICE: B"],
            ["higher(1, 3)", "higher(3, 1)"],
        )
        recording = LoopConfig(
            reasoner=ModelConfig(
                script=cfg.reasoner.script, record_to=reasoner_cassette
            ),
            translator=ModelConfig(
                script=cfg.translator.script, record_to=translator_cassette
            ),
            max_attempts=cfg.max_attempts,
        )
        live = run_session(pd, recording, session_id="replayable")
        live_path = tmp_path / "live.jsonl"
        write_transcript(str(live_path), live)

        replaying = LoopConfig(
            reasoner=replace(recording.reasoner, provider="replay"),
            translator=replace(recording.translator, provider="replay"),
            max_attempts=cfg.max_attempts,
        )
        replayed = run_session(pd, replaying, session_id="replayable")
        replay_path = tmp_path / "replay.jsonl"
        write_transcript(str(replay_path), replayed)

        assert replay_path.read_bytes() == live_path.read_bytes()
        assert replayed == live

    @pytest.mark.parametrize("recorded, torn", [(1, ""), (2, ""), (3, ""), (5, ""), (6, "r"), (6, "t")])
    def test_a_rerun_resumes_a_session_cut_off_after_some_calls(self, pd, tmp_path, recorded, torn):
        # Three attempts, six calls: reasoner and translator in turn. With `torn`,
        # the last record of that role's cassette (".r" or ".t") is then cut at
        # each byte offset inside it, as a kill mid-append leaves it.
        reasoner = ["Payoff 1 is higher than 3. CHOICE: R", "Still 1 beats 3. CHOICE: R",
                    "Fixed. CHOICE: B"]
        translator = ["higher(1, 3)", "higher(1, 3)", "higher(3, 1)"]

        def session(tapes, cut=6, answered=0):
            # With `cut` calls scripted, the session stops after the `cut`-th.
            # The first `answered` calls must come from the cassettes: their
            # script slots hold a text no transcript may show.
            def script(texts, calls, stop):
                return ["CHOICE: R (from the script)"] * calls + texts[calls:stop]

            cfg = loop(script(reasoner, (answered + 1) // 2, (cut + 1) // 2),
                       script(translator, answered // 2, cut // 2), record_to=f"{tapes}.r")
            cfg = replace(cfg, translator=replace(cfg.translator, record_to=f"{tapes}.t"))
            return run_session(pd, cfg, session_id="resumed")

        def resumes(answered):
            resumed = session(tmp_path / "cut", answered=answered)
            write_transcript(str(tmp_path / "resumed.jsonl"), resumed)
            return (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()

        whole = session(tmp_path / "whole")
        assert not whole.aborted and whole.attempt_count == 3
        write_transcript(str(tmp_path / "whole.jsonl"), whole)
        cut = session(tmp_path / "cut", recorded)
        assert (cut.error is None) if recorded == 6 else ("exhausted" in cut.error)
        assert sum(len(load_cassette(str(tape))) for tape in tmp_path.glob("cut.*")) == recorded
        if not torn:
            assert resumes(answered=recorded)
            return
        tape, other = tmp_path / f"cut.{torn}", tmp_path / ("cut.t" if torn == "r" else "cut.r")
        recording, kept = tape.read_bytes(), other.read_bytes()
        start = recording.rindex(b"\n", 0, -1) + 1  # where the last record begins
        for end in range(start + 1, len(recording)):
            tape.write_bytes(recording[:end])
            # The torn call is the last one this role made: the fifth or the sixth.
            assert resumes(answered=5 if torn == "t" else 4), end
            # It was made again and recorded in place of the torn line; the other
            # role's cassette answered every call, so it gained no record.
            again = tape.read_bytes()
            assert (again[:start], again.count(b"\n")) == (recording[:start], 3), end
            assert other.read_bytes() == kept, end


# Any text, non-ASCII and JSON's escapes included; reasoning always holds some.
texts = st.text(max_size=12)
labels = st.sampled_from(PROMPT_LABELS)
queries = st.sampled_from(list(QueryKind)).flatmap(
    lambda kind: st.builds(
        Query,
        st.just(kind),
        st.tuples(*(st.integers() if slot == "int" else labels for slot in SCHEMAS[kind])),
        texts,
    )
)
# A correction in each shape the judges make.
corrections = (
    st.tuples(st.just("payoff"), st.integers())
    | st.tuples(st.just("choice"), labels)
    | st.tuples(st.just("choices"), st.tuples(labels, labels))
    | st.tuples(st.just("relation"), st.sampled_from(["higher", "lower", "equal"]))
)
# A result in each shape run_session writes: one that fails carries a
# correction, and one with an error, which could not be judged, none.
failed_results = st.builds(
    QueryResult, queries, st.just(False), st.lists(corrections, min_size=1, max_size=2).map(tuple),
    texts,
)
results = (
    st.builds(QueryResult, queries, st.just(True), st.just(()), texts)
    | failed_results
    | st.builds(QueryResult, queries, st.just(False), st.just(()), texts, texts)
)


@st.composite
def transcripts(draw):
    """A transcript as run_session writes it: an attempt the session went on
    from has a failed result, and the last attempt's exit follows from its
    results."""
    count = draw(st.integers(0, 3))
    attempts = []
    for index in range(1, count + 1):
        found = draw(st.lists(results, max_size=3))
        if index < count:
            found = draw(st.permutations([*found[:2], draw(failed_results)]))
        report = VerificationReport(tuple(found))
        if index < count:
            reason = ExitReason.NONE
        elif not found:
            reason = ExitReason.NO_QUERIES
        elif not report.failed:
            reason = ExitReason.ALL_TRUE
        else:
            reason = draw(st.sampled_from([ExitReason.NONE, ExitReason.MAX_ATTEMPTS]))
        attempts.append(AttemptRecord(
            index=index,
            instruction=draw(texts),
            reasoning="Zwölf € " + draw(texts),
            translator_output=draw(texts),
            report=report,
            extracted_choice=draw(st.none() | labels),
            exit=reason,
        ))
    ended = count and attempts[-1].exit is not ExitReason.NONE
    return SessionTranscript(
        session_id=draw(texts),
        game=draw(texts),
        model=draw(texts),
        attempts=tuple(attempts),
        usage=Usage(draw(st.integers(0, 10**9)), draw(st.integers(0, 10**9))),
        wall_time=draw(st.floats(allow_nan=False, allow_infinity=False)),
        # As run_session writes it, a session is aborted exactly when no attempt ended it.
        error=None if ended else "TransportError: " + draw(texts),
    )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(transcripts())
def test_any_transcript_reads_back_equal_and_writes_the_same_bytes(tmp_path, transcript):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_transcript(str(first), transcript)
    back = read_transcript(str(first))
    assert back == transcript
    write_transcript(str(second), back)
    assert second.read_bytes() == first.read_bytes()
