"""Batch running, descriptive stats, and human-evaluation plumbing.

An experiment is games x repetitions sessions. Every game is loaded and
every session configured before the first model call, so a bad game or
config stops the run before anything is written. The sessions then run
on one thread pool; the returned list and summary.json keep (game,
repetition) order. Each session writes one NDJSON transcript named
{game}_{rep:03d}.jsonl; aborted sessions are kept on disk and counted
but excluded from every statistic. Transcripts and summary.json are
written to a temporary file and renamed into place, so a reader never
finds half of one. An output_dir holds one run: a
transcript there that this run would not write stops it before
anything is written.

The mock provider gets per-session scripts from mock_session_scripts,
which cycles four scenarios (clean, corrected, untranslatable,
stubborn) so a small offline run exercises every loop exit.

Its settings are an ExperimentConfig and two ModelConfigs, built in
Python or read from an INI file by load_experiment_config. Each
dataclass checks the range of its own fields, so both reject alike.

Human evaluation goes through CSV sheets: export blank ones, collect
labels, aggregate conservatively (a sample counts as correct only if
every filled label says so, a blank cell abstaining), compare against
the verifier's prediction with a confusion matrix, and measure
inter-rater agreement with Fleiss' kappa.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .games import GameSpec, load_game
from .gateway import ModelConfig, replace_text, utf8_text
from .orchestrator import (
    LoopConfig,
    SessionTranscript,
    read_transcript,
    run_session,
    write_transcript,
)


class ExperimentError(Exception):
    """A config, sheet or set of transcripts or labels an experiment cannot use."""


@dataclass(frozen=True)
class ExperimentConfig:
    games: "tuple[str, ...]" = ("pd", "sh", "hd")
    reasoner: ModelConfig = ModelConfig()
    translator: ModelConfig = ModelConfig()
    repetitions: int = 30
    parallelism: int = 0  # sessions run at once; 0 means one worker per game
    output_dir: str = "runs"
    cassette_dir: Optional[str] = None
    max_attempts: int = 5

    def __post_init__(self) -> None:
        # Each message starts with the field's name; the INI reader adds the section.
        if not self.games:
            raise ValueError("games: no game given")
        for name, least in (("repetitions", 1), ("parallelism", 0), ("max_attempts", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name}: expected at least {least}, got {getattr(self, name)}")
        # Cassettes among the transcripts would read as another run's transcripts.
        cassettes = self.cassette_dir
        if cassettes is not None and Path(cassettes).resolve() == Path(self.output_dir).resolve():
            raise ValueError(f"cassette_dir: expected a directory other than output_dir, got {cassettes!r}")


def load_experiment_config(path: str) -> ExperimentConfig:
    """INI config. Credentials are named by env var only, never inline.

    `[experiment]` sets an ExperimentConfig, `[reasoner]` and `[translator]`
    each a ModelConfig, through _read_section. A file configparser rejects,
    a section or key lelma does not read, or a value that cannot be read
    or that the dataclass rejects, such as `repetitions = many`,
    `max_attempts = 0` or an empty `games =`, raises ExperimentError naming
    the line or the section and key; a file that is not UTF-8 raises it
    naming the file. `[DEFAULT]` is not copied into the other sections: it
    is a section lelma does not read.
    """
    import configparser  # only `lelma run` reads an INI file

    try:
        text = utf8_text(Path(path).read_bytes(), path, ExperimentError)
    except OSError:
        raise ExperimentError(f"cannot read config file {path}") from None
    # No section header can name "", so `[DEFAULT]` is read as an ordinary section.
    parser = configparser.ConfigParser(default_section="")
    try:
        # Lines end as in a file opened in text mode, as `parser.read` opens one.
        parser.read_file(io.StringIO(text, newline=None), source=path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:  # a malformed line, a bad %-interpolation, ...
        raise ExperimentError(str(exc)) from None
    for section, values in sections.items():
        if section not in ("experiment", "reasoner", "translator"):
            raise ExperimentError(f"[{section}]: unknown section")
        if section != "experiment" and {"api_key", "apikey", "key", "token", "secret"} & set(values):
            raise ExperimentError(
                f"[{section}] must not contain credentials; "
                "set api_key_env to the NAME of an environment variable instead"
            )
    models = {role: _read_section(ModelConfig, role, sections.get(role, {}))
              for role in ("reasoner", "translator")}
    return _read_section(ExperimentConfig, "experiment", sections.get("experiment", {}), **models)


# Set from Python only: each model has a section of its own, and the
# experiment runner sets a model's script and cassette.
_NOT_IN_FILES = ("reasoner", "translator", "script", "record_to")


def _read_section(cls: type, section: str, values: "dict[str, str]", **given):
    """`cls(**given)`, with each of a section's `values` read as the type of its
    field's default: int, float, a comma-separated tuple, or else text, where an
    empty value leaves a field whose default is None unset. The section's own
    keys are passed on; `cls` supplies the rest and checks every range."""
    defaults = {f.name: f.default for f in fields(cls) if f.name not in _NOT_IN_FILES}
    for key, text in values.items():
        if key not in defaults:
            raise ExperimentError(f"[{section}] {key}: unknown setting")
        default = defaults[key]
        if isinstance(default, tuple):
            given[key] = tuple(item.strip() for item in text.split(",") if item.strip())
        elif isinstance(default, (int, float)):
            try:
                given[key] = type(default)(text)
            except ValueError:
                expected = "an integer" if isinstance(default, int) else "a number"
                raise ExperimentError(f"[{section}] {key}: expected {expected}, got {text!r}") from None
        elif text or default is not None:  # empty reads as unset where the default is None
            given[key] = text
    try:
        return cls(**given)
    except ValueError as exc:  # its message starts with the key
        raise ExperimentError(f"[{section}] {exc}") from None


# --- scripted offline scenarios ------------------------------------------------

SCENARIOS = ("clean", "corrected", "untranslatable", "stubborn")


def mock_session_scripts(
    g: GameSpec, rep: int, max_attempts: int = 5
) -> "tuple[tuple[str, ...], tuple[str, ...]]":
    """Deterministic (reasoner_script, translator_script) for repetition rep.

    Cycles through four scenarios so exits all_true, no_queries and
    max_attempts all occur, and reasoner texts differ across attempts
    and repetitions (identical requests would collapse to one cassette
    record). The stubborn scenario answers all `max_attempts` attempts.
    """
    summary = g.payoff_summary
    top, bottom = summary.highest, summary.lowest
    scenario = SCENARIOS[rep % len(SCENARIOS)]
    tag = f"[{g.name} rep {rep}]"
    if scenario == "clean":
        best_b = summary.best["B"]
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
        wrong = summary.guaranteed["R"] + summary.guaranteed["B"] + top + 1
        reasoner = tuple(
            f"{tag} attempt {k}: I still insist the guaranteed payoff for R is ${wrong}.\n"
            "CHOICE: R"
            for k in range(1, max_attempts + 1)
        )
        translator = (f"lowest_individual_payoff_for_choice({wrong},R)",) * max_attempts
    return reasoner, translator


def _session_loop_config(
    cfg: ExperimentConfig, g: GameSpec, rep: int, session_id: str, provider: Optional[str]
) -> LoopConfig:
    """Each role runs as `provider`, or else as its own configured provider."""
    models = {"reasoner": cfg.reasoner, "translator": cfg.translator}
    scripts = mock_session_scripts(g, rep, cfg.max_attempts)
    for (role, model), script in zip(models.items(), scripts):
        mode = provider or model.provider
        tape = cfg.cassette_dir and str(Path(cfg.cassette_dir) / f"{session_id}.{role}.jsonl")
        if mode == "replay" and not tape:
            raise ExperimentError("replay mode needs cassette_dir in the config")
        models[role] = replace(model, provider=mode, script=script, record_to=tape)
    return LoopConfig(**models, max_attempts=cfg.max_attempts)


def run_experiment(
    cfg: ExperimentConfig, provider: Optional[str] = None
) -> "tuple[list[SessionTranscript], dict]":
    """Run every session, write transcripts and summary.json, return both."""
    from concurrent.futures import ThreadPoolExecutor  # brings in logging; only runs use it

    sessions: "dict[str, tuple[GameSpec, LoopConfig]]" = {}  # by id, in (game, rep) order
    for g in [load_game(name) for name in cfg.games]:
        for rep in range(cfg.repetitions):
            session_id = f"{g.name}_{rep:03d}"
            if session_id in sessions:
                raise ExperimentError(f"session id {session_id} repeats: two games are named {g.name}")
            sessions[session_id] = g, _session_loop_config(cfg, g, rep, session_id, provider)
    out = Path(cfg.output_dir)
    strays = sorted(path.name for path in out.glob("*.jsonl") if path.stem not in sessions)
    if strays:  # `lelma stats` would read them as this run's
        raise ExperimentError(
            f"{out} holds {len(strays)} transcript(s) of another run, such as "
            f"{', '.join(strays[:3])}; give each run its own output_dir"
        )

    def run(session_id: str) -> SessionTranscript:
        g, loop_cfg = sessions[session_id]
        transcript = run_session(g, loop_cfg, session_id=session_id)
        write_transcript(str(out / f"{session_id}.jsonl"), transcript)
        return transcript

    out.mkdir(parents=True, exist_ok=True)
    workers = min(cfg.parallelism or len(cfg.games), len(sessions))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        transcripts = list(pool.map(run, sessions))
    summary = summarize(transcripts, max_attempts=cfg.max_attempts)
    replace_text(str(out / "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
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


def summarize(transcripts: Sequence[SessionTranscript], max_attempts: int) -> dict:
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
        "choices": dict(sorted(choice_distribution(transcripts).items())),
    }


# --- human evaluation: sheets, aggregation, agreement ---------------------------

SHEET_FIXED_COLUMNS = ("sample_id", "game", "model", "attempt_index", "reasoning")
DEFAULT_EVALUATORS = ("evaluator_1", "evaluator_2", "evaluator_3")
LABEL_VALUES = ("correct", "incorrect")


def export_evaluation_sheet(transcripts: Sequence[SessionTranscript], path: str) -> int:
    """One row per attempt of each non-aborted session; label cells blank."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SHEET_FIXED_COLUMNS + DEFAULT_EVALUATORS)
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
                    + [""] * len(DEFAULT_EVALUATORS)
                )
                rows += 1
    return rows


def import_labels(path: str) -> "tuple[dict[str, dict[str, str]], tuple[str, ...]]":
    """Read a filled evaluation sheet: {sample_id: {evaluator: label}}.

    Blank cells are skipped. Unknown label values, duplicate labels,
    header mismatches, an evaluator column with no name or the name of
    another, and rows csv cannot read raise ExperimentError
    naming the offending cell or row. A cell may be up to 2**31 - 1 characters long.
    The sheet is UTF-8, with or without the byte order mark spreadsheet
    tools write before "CSV UTF-8"; other text raises ExperimentError.
    """
    text = utf8_text(Path(path).read_bytes(), path, ExperimentError).removeprefix("\ufeff")
    labels: "dict[str, dict[str, str]]" = {}
    with io.StringIO(text, newline="") as handle:  # as csv reads a file opened with newline=""
        # 2**31 - 1 fits a C long everywhere; csv's limit is process-wide, so it is put back.
        limit = csv.field_size_limit(2**31 - 1)
        row_number = 0  # the last row read
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ExperimentError(f"{path}: empty file")
            row_number = 1
            if tuple(header[: len(SHEET_FIXED_COLUMNS)]) != SHEET_FIXED_COLUMNS:
                raise ExperimentError(
                    f"{path}: header must start with {', '.join(SHEET_FIXED_COLUMNS)}"
                )
            evaluators = tuple(header[len(SHEET_FIXED_COLUMNS):])
            if not evaluators:
                raise ExperimentError(f"{path}: no evaluator columns after the fixed ones")
            # Two columns of one name would read as one evaluator, each filling the other's blanks.
            named: "set[str]" = set()
            for column, evaluator in enumerate(evaluators, len(SHEET_FIXED_COLUMNS) + 1):
                name = evaluator.strip()
                if not name:
                    raise ExperimentError(f"{path}: header column {column} names no evaluator")
                if name in named:
                    raise ExperimentError(
                        f"{path}: header column {column} repeats evaluator {evaluator!r}"
                    )
                named.add(name)
            for row_number, row in enumerate(reader, start=2):
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ExperimentError(
                        f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                    )
                sample_id = row[0].strip()
                if not sample_id:
                    raise ExperimentError(f"{path}: row {row_number} has an empty sample_id")
                sample_labels = labels.setdefault(sample_id, {})
                for evaluator, cell in zip(evaluators, row[len(SHEET_FIXED_COLUMNS):]):
                    value = cell.strip().lower()
                    if not value:
                        continue
                    if value not in LABEL_VALUES:
                        raise ExperimentError(
                            f"{path}: row {row_number}, column {evaluator}: "
                            f"label must be one of {LABEL_VALUES}, got {cell!r}"
                        )
                    if evaluator in sample_labels:
                        raise ExperimentError(
                            f"{path}: row {row_number}, column {evaluator}: "
                            f"duplicate label for sample {sample_id}"
                        )
                    sample_labels[evaluator] = value
        except csv.Error as exc:
            raise ExperimentError(f"{path}: row {row_number + 1}: {exc}") from None
        finally:
            csv.field_size_limit(limit)
    return labels, evaluators


def aggregate_labels(labels: Mapping[str, Mapping[str, str]]) -> "dict[str, bool]":
    """Conservative consensus: a sample is correct only if every filled label says so."""
    unlabeled = sorted(s for s, by_eval in labels.items() if not by_eval)
    if unlabeled:
        raise ExperimentError(f"{len(unlabeled)} sample(s) have no labels: {', '.join(unlabeled)}")
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
    def accuracy_percent(self) -> int:
        """Accuracy in percent, rounded half up in integers: float error took some halves down."""
        return (200 * (self.tt + self.ff) + self.total) // (2 * self.total)


def confusion_matrix(
    actual: Mapping[str, bool], predicted: Mapping[str, bool]
) -> ConfusionMatrix:
    missing, extra = len(set(actual) - set(predicted)), len(set(predicted) - set(actual))
    if missing or extra:
        raise ExperimentError(f"label/prediction keys differ: {missing} missing, {extra} extra")
    if not actual:
        raise ExperimentError("no samples to compare")
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
    labels: Mapping[str, Mapping[str, str]]
) -> "tuple[list[list[int]], list[str]]":
    """Per-sample counts of each of LABEL_VALUES (Fleiss input), samples sorted by id."""
    samples = sorted(labels)
    rows = []
    for sample in samples:
        counts = [0] * len(LABEL_VALUES)
        for value in labels[sample].values():
            counts[LABEL_VALUES.index(value)] += 1
        rows.append(counts)
    return rows, samples


def fleiss_kappa(rows: Sequence[Sequence[int]]) -> float:
    """Chance-corrected agreement for fixed-size rater panels.

    Rows are per-subject category counts; every subject needs the same
    number of ratings (>= 2). Raises ExperimentError on malformed input
    and when every rating lands in one category (expected agreement is
    1, kappa undefined).
    """
    if not rows:
        raise ExperimentError("no subjects")
    width = len(rows[0])
    if width < 2 or any(len(row) != width for row in rows):
        raise ExperimentError("rows must share one category axis of width >= 2")
    if any(count < 0 for row in rows for count in row):
        raise ExperimentError("negative rating count")
    raters = sum(rows[0])
    if any(sum(row) != raters for row in rows):
        raise ExperimentError("every subject needs the same number of ratings")
    if raters < 2:
        raise ExperimentError("need at least 2 ratings per subject")

    subjects = len(rows)
    p_observed = sum(
        (sum(count * count for count in row) - raters) / (raters * (raters - 1))
        for row in rows
    ) / subjects
    shares = [sum(row[j] for row in rows) / (subjects * raters) for j in range(width)]
    p_expected = sum(share * share for share in shares)
    if p_expected == 1.0:
        raise ExperimentError("all ratings fall in a single category")
    return (p_observed - p_expected) / (1.0 - p_expected)
