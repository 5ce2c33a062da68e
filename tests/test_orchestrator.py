import json
import re
from dataclasses import replace

import pytest

from lelma.gateway import (
    CassetteParseError,
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
from lelma.verification import QueryKind


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
        from lelma.verification import EmptyFailureSetError, evaluate_all

        with pytest.raises(EmptyFailureSetError):
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
        reasoner = Gateway(cfg.reasoner)
        translator = Gateway(cfg.translator)
        t = run_session(pd, cfg, reasoner=reasoner, translator=translator)
        assert t.usage == reasoner.totals + translator.totals
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

    def test_malformed_transcript_errors(self, pd, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TranscriptFormatError, match="bad.jsonl:1"):
            read_transcript(str(path))
        path.write_text('{"type":"attempt","index":1}\n')
        with pytest.raises(TranscriptFormatError):
            read_transcript(str(path))
        # Two attempt records, then the session record.
        write_transcript(str(path), self.make_transcript(pd))
        good = path.read_text()
        for bad, where in [
            (good.replace('"kind":"higher"', '"kind":"bogus"', 1), "bad.jsonl:1:"),
            (good.replace('"exit":"none"', '"exit":"weird"', 1), "bad.jsonl:1:"),
            ("[1,2]\n" + good, "bad.jsonl:1:"),
            (good.replace('"game":"pd",', ""), "bad.jsonl:3:"),
            (re.sub(r'"prompt_tokens":\d+', '"prompt_tokens":"x"', good), "bad.jsonl:3:"),
            (re.sub(r'"completion_tokens":\d+', '"completion_tokens":true', good), "bad.jsonl:3:"),
            (good.replace('"game":"pd"', '"game":5'), "bad.jsonl:3:"),
            (good.replace('"model":"mock-model"', '"model":null'), "bad.jsonl:3:"),
            (good.replace('"aborted":false', '"aborted":"no"'), "bad.jsonl:3:"),
            # An `aborted` that disagrees with `error`.
            (good.replace('"aborted":false', '"aborted":true'), "bad.jsonl:3:"),
            (good.replace('"error":null,"exit":"all', '"error":"E: x","exit":"all'), "bad.jsonl:3:"),
            # Summary fields that disagree with the attempts.
            (good.replace('"final_choice":"B"', '"final_choice":"R"'), "bad.jsonl:3:"),
            (good.replace('"initial_choice":"R"', '"initial_choice":null'), "bad.jsonl:3:"),
            (good.replace('"attempt_count":2', '"attempt_count":3'), "bad.jsonl:3:"),
            (good.replace('"exit":"all_true","final', '"exit":"none","final'), "bad.jsonl:3:"),
            (good.replace('"error":null,"exit":"all', '"error":1,"exit":"all'), "bad.jsonl:3:"),
            # A version this reader does not know, or none at all.
            (good.replace('"version":1,', '"version":99,'), "bad.jsonl:3:"),
            (good.replace('"version":1,', '"version":true,'), "bad.jsonl:3:"),
            (good.replace('"version":1,', ""), "bad.jsonl:3:"),
            # A second session summary, here one naming another session.
            (
                good + re.sub(r'"session_id":"[^"]*"', '"session_id":"other"', good.splitlines()[-1]),
                "bad.jsonl:4: second session summary",
            ),
            # An attempt after one whose exit ended the session.
            (good.replace('"exit":"none"', '"exit":"all_true"', 1), "bad.jsonl:2:"),
            # Attempt indexes that are not the attempts' positions 1, 2, ...
            (good.replace('"index":2', '"index":1'), "bad.jsonl:2:"),
            (good.replace('"index":1', '"index":2'), "bad.jsonl:1:"),
            # Attempt, result and query fields of the wrong type.
            *(
                (with_first_record_field(good, *path, value=value), "bad.jsonl:1:")
                for *path, value in [
                    ("index", True),
                    ("instruction", None),
                    ("reasoning", 7),
                    ("translator_output", []),
                    ("extracted_choice", 5),
                    ("extracted_choice", "b"),
                    ("results", {}),
                    ("results", 0, "holds", "yes"),
                    ("results", 0, "corrections", "lower"),
                    ("results", 0, "explanation", 0),
                    ("results", 0, "error", 5),
                    ("results", 0, "query", "source_text", False),
                    ("results", 0, "query", "args", [True, "x"]),
                    ("results", 0, "query", "args", [1]),
                ]
            ),
        ]:
            assert bad != good
            path.write_text(bad)
            with pytest.raises(TranscriptFormatError, match=where):
                read_transcript(str(path))
        # One attempt, then the session record: its count is 1, and true is no count.
        one = run_session(pd, loop(["Payoff 3 beats 1. CHOICE: B"], ["higher(3, 1)"]), session_id="one")
        write_transcript(str(path), one)
        good = path.read_text()
        assert read_transcript(str(path)) == one
        path.write_text(good.replace('"attempt_count":1', '"attempt_count":true'))
        with pytest.raises(TranscriptFormatError, match="bad.jsonl:2: .*attempt_count True"):
            read_transcript(str(path))

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b"", None),  # only the blank lines between the good records
            (b"\xff\n", "{path}: not UTF-8 text"),
            (b"not json\n", "{path}:{line}: not valid JSON"),
            (b"[" * 100_000 + b"\n", "{path}:{line}: not valid JSON"),
            (b"[1, 2]\n", "{path}:{line}: not a JSON object"),
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
        if message is None:
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

    @pytest.mark.parametrize("recorded", [1, 2, 3, 5])
    def test_a_rerun_resumes_a_session_cut_off_after_some_calls(self, pd, tmp_path, recorded):
        # Three attempts, six calls: reasoner and translator in turn.
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

        whole = session(tmp_path / "whole")
        assert not whole.aborted and whole.attempt_count == 3
        cut = session(tmp_path / "cut", recorded)
        assert cut.aborted and "exhausted" in cut.error
        assert sum(len(load_cassette(str(tape))) for tape in tmp_path.glob("cut.*")) == recorded
        resumed = session(tmp_path / "cut", answered=recorded)
        write_transcript(str(tmp_path / "whole.jsonl"), whole)
        write_transcript(str(tmp_path / "resumed.jsonl"), resumed)
        assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
