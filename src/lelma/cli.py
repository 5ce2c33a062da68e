"""Command line front end.

Subcommands:
  solve   run a goal against a game program and print the answers
  verify  check query lines against a game, one status line per query
  run     execute a batch experiment from an INI config
  stats   summarize a directory of session transcripts
  eval    export blank evaluation sheets / import filled ones
  kappa   inter-rater agreement for a filled evaluation sheet
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from .engine import LogicError, ResolutionLimits, solve
from .games import GameSpecError, load_game
from .gateway import utf8_text
from .gdl import ClauseSyntaxError, parse_goal
from .experiments import (
    ExperimentError,
    aggregate_labels,
    confusion_matrix,
    export_evaluation_sheet,
    fleiss_kappa,
    format_percent,
    import_labels,
    labels_to_matrix,
    load_experiment_config,
    predicted_correctness,
    read_transcripts_dir,
    run_experiment,
    summarize,
)
from .orchestrator import TranscriptFormatError
from .verification import (
    VerificationError,
    evaluate_all,
    parse_query_line,
    query_to_text,
)


class InputError(ValueError):
    """A goal argument, standard input or query file that is not UTF-8 text."""


def cmd_solve(args) -> int:
    g = load_game(args.game)  # a path keeps the locale's decoding, so a non-ASCII one opens
    try:  # the goal is read as UTF-8, as files are, whatever the locale decoded it with
        text = utf8_text(os.fsencode(args.goal), "goal argument", InputError)
    except UnicodeEncodeError:  # text the locale cannot encode, given to `main` in-process
        text = args.goal
    goal = parse_goal(text)
    limits = ResolutionLimits(max_steps=args.max_steps, max_depth=args.max_depth)
    found = False
    for answer in solve(g.rulebase, goal, limits):
        found = True
        # As SWI-Prolog's toplevel, a variable named `_...` is not shown.
        shown = [f"{var} = {term}" for var, term in answer.items() if not var.name.startswith("_")]
        print(", ".join(shown) or "true.")
    if not found:
        print("false.")
    return 0


def cmd_verify(args) -> int:
    g = load_game(args.game)
    if args.queries == "-":
        # UTF-8 whatever the locale, as files are; a text-only stdin, a StringIO say, as it is.
        stdin = sys.stdin
        if hasattr(stdin, "buffer"):
            text = utf8_text(stdin.buffer.read(), "standard input", InputError)
        else:
            text = stdin.read()
    else:
        text = utf8_text(Path(args.queries).read_bytes(), args.queries, InputError)
    held = failed = skipped = errors = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            query = parse_query_line(line, g)
        except VerificationError as exc:
            print(f"SKIPPED: {line} ({exc})")
            skipped += 1
            continue
        result = evaluate_all([query], g).results[0]
        if result.error is not None:
            print(f"ERROR: {query_to_text(query)} ({result.error})")
            errors += 1
        elif result.holds:
            print(f"HOLDS: {query_to_text(query)}")
            held += 1
        else:
            print(f"FAILS: {query_to_text(query)} -> {result.explanation}")
            failed += 1
    print(f"{held} held, {failed} failed, {skipped} skipped, {errors} errors.")
    if errors:
        return 2
    return 1 if failed else 0


def cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    provider = None if args.provider == "live" else args.provider
    transcripts, summary = run_experiment(cfg, provider=provider)
    print(f"sessions: {summary['sessions']} (aborted: {summary['aborted']})")
    for reason, count in sorted(summary["exits"].items()):
        print(f"  exit {reason}: {count}")
    print(f"transcripts written to {cfg.output_dir}")
    if summary["aborted"]:
        for t in transcripts:
            if t.aborted:
                print(f"aborted: {t.session_id}: {t.error}", file=sys.stderr)
        return 1
    return 0


def cmd_stats(args) -> int:
    transcripts = read_transcripts_dir(args.transcripts)
    # The run's attempt budget is not recorded; the longest usable session bounds it.
    longest = max([1] + [t.attempt_count for t in transcripts if not t.aborted])
    summary = summarize(transcripts, max_attempts=longest)
    print(f"sessions: {summary['sessions']} (aborted: {summary['aborted']})")
    buckets = summary["attempts_distribution"]
    histogram = "  ".join(f"{k}:{buckets[k]}" for k in sorted(buckets, key=int))
    print(f"attempts histogram: {histogram}")
    for reason, count in sorted(summary["exits"].items()):
        print(f"  exit {reason}: {count}")
    for game, stats in summary["choices"].items():
        if stats["initial_b"] is None:
            print(f"{game}: no usable sessions ({stats['excluded']} excluded)")
            continue
        print(
            f"{game}: initial B {format_percent(stats['initial_b'])}, "
            f"final B {format_percent(stats['final_b'])} "
            f"(n={stats['counted']}, excluded={stats['excluded']})"
        )
    usage = summary["usage"]
    print(
        f"tokens: prompt={usage['prompt_tokens']} completion={usage['completion_tokens']} "
        f"avg/attempt={summary['avg_tokens_per_attempt']:.1f}"
    )
    return 0


def cmd_eval_export(args) -> int:
    transcripts = read_transcripts_dir(args.transcripts)
    rows = export_evaluation_sheet(transcripts, args.out)
    print(f"wrote {rows} samples to {args.out}")
    return 0


def cmd_eval_import(args) -> int:
    labels, evaluators = import_labels(args.labels)
    aggregated = aggregate_labels(labels)
    correct = sum(aggregated.values())
    print(f"{len(aggregated)} labeled samples from {len(evaluators)} evaluators")
    print(f"consensus: {correct} correct, {len(aggregated) - correct} incorrect")
    if not args.transcripts:
        return 0
    transcripts = read_transcripts_dir(args.transcripts)
    predicted = predicted_correctness(transcripts)
    actual = {k: v for k, v in aggregated.items() if k in predicted}
    if not actual:
        raise ExperimentError(f"no labeled sample is a first attempt in {args.transcripts}")
    cm = confusion_matrix(actual, {k: predicted[k] for k in actual})
    print("initial-attempt confusion (actual x predicted):")
    print(f"  correct/correct:     {cm.tt}")
    print(f"  correct/incorrect:   {cm.tf}")
    print(f"  incorrect/correct:   {cm.ft}")
    print(f"  incorrect/incorrect: {cm.ff}")
    print(f"accuracy: {cm.accuracy_percent}%")
    return 0


def cmd_kappa(args) -> int:
    labels, _ = import_labels(args.labels)
    rows, samples = labels_to_matrix(labels)
    kappa = fleiss_kappa(rows)
    print(f"fleiss kappa over {len(samples)} samples: {kappa:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lelma",
        description="Logic-checked strategic reasoning for 2x2 matrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a goal against a game program")
    p.add_argument("game", help="bundled game name (pd, sh, hd) or a .gdl file path")
    p.add_argument("goal", help="goal to prove, e.g. \"game(s0, S), finally(goal(p1, U), S)\"")
    p.add_argument("--max-steps", type=int, default=ResolutionLimits().max_steps)
    p.add_argument("--max-depth", type=int, default=ResolutionLimits().max_depth)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="evaluate query lines against a game")
    p.add_argument("game")
    p.add_argument("--queries", required=True, help="file of query lines, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run a batch experiment")
    p.add_argument("--config", required=True, help="INI experiment config")
    p.add_argument(
        "--provider",
        choices=("mock", "replay", "live"),
        default="mock",
        help="mock: scripted sessions; replay: from cassettes; live: as configured",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="summarize a transcript directory")
    p.add_argument("transcripts")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="human evaluation sheets")
    eval_sub = p.add_subparsers(dest="eval_command", required=True)
    pe = eval_sub.add_parser("export", help="write a blank labeling sheet")
    pe.add_argument("transcripts")
    pe.add_argument("out")
    pe.set_defaults(func=cmd_eval_export)
    pi = eval_sub.add_parser("import", help="aggregate a filled labeling sheet")
    pi.add_argument("labels")
    pi.add_argument("--transcripts", help="compare against verifier predictions")
    pi.set_defaults(func=cmd_eval_import)

    p = sub.add_parser("kappa", help="inter-rater agreement for a filled sheet")
    p.add_argument("labels")
    p.set_defaults(func=cmd_kappa)

    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        # Text the locale cannot encode, `€` under LC_ALL=C say, prints as escapes.
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ClauseSyntaxError,
        GameSpecError,
        LogicError,
        VerificationError,
        ExperimentError,
        TranscriptFormatError,
        OSError,
        UnicodeDecodeError,
        InputError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
