"""Batch running, descriptive stats, and human-evaluation plumbing.

An experiment is games x repetitions sessions. Games run on a thread
pool; the sessions of one game run serially so their transcripts land
in a stable order. Each session writes one NDJSON transcript named
{game}_{rep:03d}.jsonl; aborted sessions are kept on disk and counted
but excluded from every statistic.

The mock provider gets per-session scripts from mock_session_scripts,
which cycles four scenarios (clean, corrected, untranslatable,
stubborn) so a small offline run exercises every loop exit.

Human evaluation goes through CSV sheets: export blank ones, collect
labels, aggregate conservatively (a sample counts as correct only if
every evaluator says so), compare against the verifier's prediction
with a confusion matrix, and measure inter-rater agreement with
Fleiss' kappa.
"""

from __future__ import annotations

import configparser
import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .games import GameSpec, load_game
from .gateway import ModelConfig
from .orchestrator import (
    LoopConfig,
    SessionTranscript,
    read_transcript,
    run_session,
    write_transcript,
)
from .verification import (
    all_reasoner_payoffs,
    best_payoff_for_choice,
    guaranteed_payoff,
)


class ExperimentError(Exception):
    pass


class RaggedMatrixError(ExperimentError):
    pass


class DegenerateAgreementError(ExperimentError):
    pass


class KeyMismatchError(ExperimentError):
    def __init__(self, missing: Sequence[str], extra: Sequence[str]):
        super().__init__(
            f"label/prediction keys differ: {len(missing)} missing, {len(extra)} extra"
        )
        self.missing = tuple(missing)
        self.extra = tuple(extra)


class SheetFormatError(ExperimentError):
    pass


class MissingLabelsError(ExperimentError):
    def __init__(self, samples: Sequence[str]):
        super().__init__(f"{len(samples)} sample(s) have no labels: {', '.join(samples)}")
        self.samples = tuple(samples)


@dataclass(frozen=True)
class ExperimentConfig:
    games: "tuple[str, ...]" = ("pd", "sh", "hd")
    reasoner: ModelConfig = ModelConfig()
    translator: ModelConfig = ModelConfig()
    repetitions: int = 30
    parallelism: int = 0  # 0 means one worker per game
    output_dir: str = "runs"
    cassette_dir: Optional[str] = None
    max_attempts: int = 5


def load_experiment_config(path: str) -> ExperimentConfig:
    """INI config. Credentials are named by env var only, never inline."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ExperimentError(f"cannot read config file {path}")
    exp = parser["experiment"] if parser.has_section("experiment") else {}
    games = tuple(
        name.strip() for name in exp.get("games", "pd,sh,hd").split(",") if name.strip()
    )
    return ExperimentConfig(
        games=games,
        reasoner=_model_from_section(parser, "reasoner"),
        translator=_model_from_section(parser, "translator"),
        repetitions=int(exp.get("repetitions", 30)),
        parallelism=int(exp.get("parallelism", 0)),
        output_dir=exp.get("output_dir", "runs"),
        cassette_dir=exp.get("cassette_dir", None) or None,
        max_attempts=int(exp.get("max_attempts", 5)),
    )


def _model_from_section(parser: configparser.ConfigParser, section: str) -> ModelConfig:
    if not parser.has_section(section):
        return ModelConfig()
    sec = parser[section]
    for key in sec:
        if key in ("api_key", "apikey", "key", "token", "secret"):
            raise ExperimentError(
                f"[{section}] must not contain credentials; "
                "set api_key_env to the NAME of an environment variable instead"
            )
    return ModelConfig(
        provider=sec.get("provider", "mock"),
        model_id=sec.get("model_id", "mock-model"),
        endpoint=sec.get("endpoint", ""),
        temperature=sec.getfloat("temperature", 1.0),
        max_output_tokens=sec.getint("max_output_tokens", 1024),
        timeout=sec.getfloat("timeout", 60.0),
        retries=sec.getint("retries", 3),
        api_key_env=sec.get("api_key_env", None) or None,
    )


# --- scripted offline scenarios ------------------------------------------------

SCENARIOS = ("clean", "corrected", "untranslatable", "stubborn")


def mock_session_scripts(g: GameSpec, rep: int) -> "tuple[tuple[str, ...], tuple[str, ...]]":
    """Deterministic (reasoner_script, translator_script) for repetition rep.

    Cycles through four scenarios so exits all_true, no_queries and
    max_attempts all occur, and reasoner texts differ across attempts
    and repetitions (identical requests would collapse to one cassette
    record).
    """
    payoffs = all_reasoner_payoffs(g)
    top, bottom = max(payoffs), min(payoffs)
    scenario = SCENARIOS[rep % len(SCENARIOS)]
    tag = f"[{g.name} rep {rep}]"
    if scenario == "clean":
        best_b = best_payoff_for_choice(g, "B")
        reasoner = (
            f"{tag} The best case for B pays ${best_b} and the overall payoffs "
            f"range from ${bottom} to ${top}. I will cooperate with myself here.\n"
            "CHOICE: B",
        )
        translator = (f"higher({top}, {bottom})\nhighest_individual_payoff_for_choice({best_b},B)",)
    elif scenario == "corrected":
        reasoner = (
            f"{tag} I believe ${bottom} beats ${top}, so I grab the aggressive move.\nCHOICE: R",
            f"{tag} I stand corrected: ${top} beats ${bottom}. Switching.\nCHOICE: B",
        )
        translator = (f"higher({bottom}, {top})", f"higher({top}, {bottom})")
    elif scenario == "untranslatable":
        reasoner = (f"{tag} I simply have a gut feeling about this one.\nCHOICE: R",)
        translator = ("The reasoning makes no claims I can turn into queries.",)
    else:  # stubborn
        wrong = guaranteed_payoff(g, "R") + guaranteed_payoff(g, "B") + top + 1
        reasoner = tuple(
            f"{tag} attempt {k}: I still insist the guaranteed payoff for R is ${wrong}.\n"
            "CHOICE: R"
            for k in range(1, 6)
        )
        translator = (f"lowest_individual_payoff_for_choice({wrong},R)",) * 5
    return reasoner, translator


def _session_loop_config(
    cfg: ExperimentConfig, g: GameSpec, rep: int, provider: Optional[str]
) -> LoopConfig:
    session_id = f"{g.name}_{rep:03d}"
    reasoner, translator = cfg.reasoner, cfg.translator
    mode = provider or reasoner.provider
    if mode == "mock":
        r_script, t_script = mock_session_scripts(g, rep)
        reasoner = replace(reasoner, provider="mock", script=r_script)
        translator = replace(translator, provider="mock", script=t_script)
    elif mode == "replay":
        if not cfg.cassette_dir:
            raise ExperimentError("replay mode needs cassette_dir in the config")
        reasoner = replace(
            reasoner,
            provider="replay",
            cassette=str(Path(cfg.cassette_dir) / f"{session_id}.reasoner.jsonl"),
            record_to=None,
        )
        translator = replace(
            translator,
            provider="replay",
            cassette=str(Path(cfg.cassette_dir) / f"{session_id}.translator.jsonl"),
            record_to=None,
        )
    if mode != "replay" and cfg.cassette_dir:
        reasoner = replace(
            reasoner,
            record_to=str(Path(cfg.cassette_dir) / f"{session_id}.reasoner.jsonl"),
        )
        translator = replace(
            translator,
            record_to=str(Path(cfg.cassette_dir) / f"{session_id}.translator.jsonl"),
        )
    return LoopConfig(reasoner=reasoner, translator=translator, max_attempts=cfg.max_attempts)


def _run_game(cfg: ExperimentConfig, name: str, provider: Optional[str]):
    g = load_game(name)
    transcripts = []
    for rep in range(cfg.repetitions):
        session_id = f"{g.name}_{rep:03d}"
        loop_cfg = _session_loop_config(cfg, g, rep, provider)
        transcript = run_session(g, loop_cfg, session_id=session_id)
        write_transcript(str(Path(cfg.output_dir) / f"{session_id}.jsonl"), transcript)
        transcripts.append(transcript)
    return transcripts


def run_experiment(
    cfg: ExperimentConfig, provider: Optional[str] = None
) -> "tuple[list[SessionTranscript], dict]":
    """Run every session, write transcripts and summary.json, return both."""
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    workers = cfg.parallelism if cfg.parallelism > 0 else len(cfg.games)
    transcripts: "list[SessionTranscript]" = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for batch in pool.map(lambda n: _run_game(cfg, n, provider), cfg.games):
            transcripts.extend(batch)
    summary = summarize(transcripts, max_attempts=cfg.max_attempts)
    summary_path = Path(cfg.output_dir) / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return transcripts, summary


def read_transcripts_dir(path: str) -> "list[SessionTranscript]":
    files = sorted(Path(path).glob("*.jsonl"))
    if not files:
        raise ExperimentError(f"no transcripts (*.jsonl) found in {path}")
    return [read_transcript(str(f)) for f in files]


# --- descriptive statistics ----------------------------------------------------


def _usable(transcripts: Sequence[SessionTranscript]) -> "list[SessionTranscript]":
    return [t for t in transcripts if not t.aborted]


def attempts_distribution(
    transcripts: Sequence[SessionTranscript], max_attempts: int = 5
) -> "dict[int, int]":
    """How many (non-aborted) sessions finished after 1..max attempts."""
    buckets = {n: 0 for n in range(1, max_attempts + 1)}
    for t in _usable(transcripts):
        buckets[t.attempt_count] = buckets.get(t.attempt_count, 0) + 1
    return buckets


def choice_distribution(transcripts: Sequence[SessionTranscript]) -> "dict[str, dict]":
    """Per game: fraction of sessions choosing B, initially and finally."""
    per_game: "dict[str, dict]" = {}
    for t in transcripts:
        stats = per_game.setdefault(
            t.game,
            {"initial_b": 0, "final_b": 0, "counted": 0, "excluded": 0},
        )
        if t.aborted or t.initial_choice is None or t.final_choice is None:
            stats["excluded"] += 1
            continue
        stats["counted"] += 1
        stats["initial_b"] += t.initial_choice == "B"
        stats["final_b"] += t.final_choice == "B"
    for stats in per_game.values():
        n = stats["counted"]
        stats["initial_b"] = stats["initial_b"] / n if n else None
        stats["final_b"] = stats["final_b"] / n if n else None
    return per_game


def format_percent(fraction: float) -> str:
    return f"{fraction * 100:.2f}%"


def summarize(transcripts: Sequence[SessionTranscript], max_attempts: int = 5) -> dict:
    usable = _usable(transcripts)
    attempts_total = sum(t.attempt_count for t in usable)
    tokens_total = sum(t.usage.total_tokens for t in usable)
    exits: "dict[str, int]" = {}
    for t in usable:
        exits[t.exit.value] = exits.get(t.exit.value, 0) + 1
    return {
        "sessions": len(transcripts),
        "aborted": len(transcripts) - len(usable),
        "attempts_total": attempts_total,
        "attempts_distribution": {
            str(k): v for k, v in attempts_distribution(transcripts, max_attempts).items()
        },
        "exits": exits,
        "usage": {
            "prompt_tokens": sum(t.usage.prompt_tokens for t in usable),
            "completion_tokens": sum(t.usage.completion_tokens for t in usable),
        },
        "avg_tokens_per_attempt": tokens_total / attempts_total if attempts_total else 0.0,
        "choices": {
            game: {
                "initial_b": stats["initial_b"],
                "final_b": stats["final_b"],
                "counted": stats["counted"],
                "excluded": stats["excluded"],
            }
            for game, stats in sorted(choice_distribution(transcripts).items())
        },
    }


# --- human evaluation: sheets, aggregation, agreement ---------------------------

SHEET_FIXED_COLUMNS = ("sample_id", "game", "model", "attempt_index", "reasoning")
DEFAULT_EVALUATORS = ("evaluator_1", "evaluator_2", "evaluator_3")
LABEL_VALUES = ("correct", "incorrect")


def export_evaluation_sheet(
    transcripts: Sequence[SessionTranscript],
    path: str,
    evaluators: "tuple[str, ...]" = DEFAULT_EVALUATORS,
) -> int:
    """One row per attempt of each non-aborted session; label cells blank."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SHEET_FIXED_COLUMNS + evaluators)
        for t in _usable(transcripts):
            for attempt in t.attempts:
                writer.writerow(
                    [
                        f"{t.session_id}:a{attempt.index}",
                        t.game,
                        t.model,
                        attempt.index,
                        attempt.reasoning,
                    ]
                    + [""] * len(evaluators)
                )
                rows += 1
    return rows


def import_labels(path: str) -> "tuple[dict[str, dict[str, str]], tuple[str, ...]]":
    """Read a filled evaluation sheet: {sample_id: {evaluator: label}}.

    Blank cells are skipped. Unknown label values, duplicate labels and
    header mismatches raise SheetFormatError naming the offending cell.
    """
    labels: "dict[str, dict[str, str]]" = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SheetFormatError(f"{path}: empty file") from None
        if tuple(header[: len(SHEET_FIXED_COLUMNS)]) != SHEET_FIXED_COLUMNS:
            raise SheetFormatError(
                f"{path}: header must start with {', '.join(SHEET_FIXED_COLUMNS)}"
            )
        evaluators = tuple(header[len(SHEET_FIXED_COLUMNS):])
        if not evaluators:
            raise SheetFormatError(f"{path}: no evaluator columns after the fixed ones")
        for row_number, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SheetFormatError(
                    f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                )
            sample_id = row[0].strip()
            if not sample_id:
                raise SheetFormatError(f"{path}: row {row_number} has an empty sample_id")
            sample_labels = labels.setdefault(sample_id, {})
            for evaluator, cell in zip(evaluators, row[len(SHEET_FIXED_COLUMNS):]):
                value = cell.strip().lower()
                if not value:
                    continue
                if value not in LABEL_VALUES:
                    raise SheetFormatError(
                        f"{path}: row {row_number}, column {evaluator}: "
                        f"label must be one of {LABEL_VALUES}, got {cell!r}"
                    )
                if evaluator in sample_labels:
                    raise SheetFormatError(
                        f"{path}: row {row_number}, column {evaluator}: "
                        f"duplicate label for sample {sample_id}"
                    )
                sample_labels[evaluator] = value
    return labels, evaluators


def aggregate_labels(labels: Mapping[str, Mapping[str, str]]) -> "dict[str, bool]":
    """Conservative consensus: a sample is correct only if every label says so."""
    unlabeled = sorted(s for s, by_eval in labels.items() if not by_eval)
    if unlabeled:
        raise MissingLabelsError(unlabeled)
    return {
        sample: all(value == "correct" for value in by_eval.values())
        for sample, by_eval in labels.items()
    }


def predicted_correctness(transcripts: Sequence[SessionTranscript]) -> "dict[str, bool]":
    """The verifier's call on each first attempt: correct means nothing failed."""
    predictions = {}
    for t in _usable(transcripts):
        if t.attempts:
            first = t.attempts[0]
            predictions[f"{t.session_id}:a{first.index}"] = not first.report.failed
    return predictions


def _round_half_up(value: float) -> int:
    return int(value * 100 + 0.5)


@dataclass(frozen=True)
class ConfusionMatrix:
    tt: int  # actually correct, predicted correct
    tf: int  # actually correct, predicted incorrect
    ft: int  # actually incorrect, predicted correct
    ff: int  # actually incorrect, predicted incorrect

    @property
    def total(self) -> int:
        return self.tt + self.tf + self.ft + self.ff

    @property
    def accuracy(self) -> float:
        return (self.tt + self.ff) / self.total

    @property
    def accuracy_percent(self) -> int:
        return _round_half_up(self.accuracy)


def confusion_matrix(
    actual: Mapping[str, bool], predicted: Mapping[str, bool]
) -> ConfusionMatrix:
    missing = sorted(set(actual) - set(predicted))
    extra = sorted(set(predicted) - set(actual))
    if missing or extra:
        raise KeyMismatchError(missing, extra)
    if not actual:
        raise KeyMismatchError((), ())
    tt = tf = ft = ff = 0
    for key, truth in actual.items():
        guess = predicted[key]
        if truth and guess:
            tt += 1
        elif truth and not guess:
            tf += 1
        elif guess:
            ft += 1
        else:
            ff += 1
    return ConfusionMatrix(tt, tf, ft, ff)


def labels_to_matrix(
    labels: Mapping[str, Mapping[str, str]],
    categories: "tuple[str, ...]" = LABEL_VALUES,
) -> "tuple[list[list[int]], list[str]]":
    """Per-sample category counts (Fleiss input), samples sorted by id."""
    samples = sorted(labels)
    rows = []
    for sample in samples:
        counts = [0] * len(categories)
        for value in labels[sample].values():
            counts[categories.index(value)] += 1
        rows.append(counts)
    return rows, samples


def fleiss_kappa(rows: Sequence[Sequence[int]]) -> float:
    """Chance-corrected agreement for fixed-size rater panels.

    Rows are per-subject category counts; every subject needs the same
    number of ratings (>= 2). Raises RaggedMatrixError on malformed
    input and DegenerateAgreementError when every rating lands in one
    category (expected agreement is 1, kappa undefined).
    """
    if not rows:
        raise RaggedMatrixError("no subjects")
    width = len(rows[0])
    if width < 2 or any(len(row) != width for row in rows):
        raise RaggedMatrixError("rows must share one category axis of width >= 2")
    if any(count < 0 for row in rows for count in row):
        raise RaggedMatrixError("negative rating count")
    raters = sum(rows[0])
    if any(sum(row) != raters for row in rows):
        raise RaggedMatrixError("every subject needs the same number of ratings")
    if raters < 2:
        raise RaggedMatrixError("need at least 2 ratings per subject")

    subjects = len(rows)
    p_observed = sum(
        (sum(count * count for count in row) - raters) / (raters * (raters - 1))
        for row in rows
    ) / subjects
    shares = [sum(row[j] for row in rows) / (subjects * raters) for j in range(width)]
    p_expected = sum(share * share for share in shares)
    if p_expected == 1.0:
        raise DegenerateAgreementError("all ratings fall in a single category")
    return (p_observed - p_expected) / (1.0 - p_expected)
