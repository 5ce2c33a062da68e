#!/usr/bin/env python3
"""lelma's benchmark: two seeded, offline, single-process workloads,
and a third that only the traced run measures.

    python3 perfbench/run.py --workload verify-engine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one table, untraced

With --trace 0 the run measures end-to-end metrics with no tracing,
with every time scaled to a reference speed of the machine (speed.py).
With --trace 1 it records spans around the program's layer boundaries
and reports per-layer metrics instead; the spans go to
perfbench/_out/spans-<workload>-seed<seed>.jsonl.gz. The last line of
standard output is one JSON object: correct, attempted, failed and
metrics. A wrong output makes the run exit 1; a program that cannot be
imported from ./src makes it exit 2 without a result.

See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import Scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# The workloads a run can be asked for. replay-experiment is only traced
# (its tour in every traced run): its time follows the file system more
# than the CPU, which the reference block does not track, so its
# end-to-end figures were not steady from one run to the next.
WORKLOADS = ("verify-engine", "session-loop")
SETUP_CHILDREN = 6  # extra cold set-ups, each in a fresh interpreter
SEGMENT_S = 0.25  # timed ops between two readings of the machine's speed
SETUP_BLOCKS = 10  # reference blocks in a reading between two set-ups
SESSION_TOUR = 200  # sessions traced once for the session-layer rows
REPLAY_TOUR = 3  # replayed experiments traced once for the replay rows
MAX_TRACED_OPS = 4000  # bounds the spans a traced run keeps in memory


def declared(section: str) -> "dict[str, str]":
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Import lelma from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "lelma" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import lelma

    if not Path(lelma.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"lelma was imported from {lelma.__file__}, not {src}")


def load_games():
    from inputs import GAME_NAMES
    from lelma.games import load_game

    return {name: load_game(name) for name in GAME_NAMES}


def set_up(name: str, seed: int, work_dir: Path):
    """Import the program, load the games, build the inputs, warm up.

    This is exactly the span `setup_s` times.
    """
    started = perf_counter()
    import_program()
    import workloads

    workload = workloads.WORKLOADS[name](seed, work_dir, load_games(), workloads.plain_calls())
    return workload, perf_counter() - started


@dataclass
class Sample:
    latencies: "list[float]" = field(default_factory=list)
    scaled: "list[float]" = field(default_factory=list)  # latencies at reference speed
    items: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: "list[str]" = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.items / sum(self.latencies)

    @property
    def scaled_rate(self) -> float:
        return self.items / sum(self.scaled)


def step(sample: Sample, workload, calls, op, tracer=None, tag=None) -> None:
    """Run one op, time it, check its output. The check is not timed."""
    sample.attempted += 1
    started = perf_counter()
    try:
        output = tracer.op(tag, workload.run, calls, op) if tracer else workload.run(calls, op)
    except Exception as exc:  # an op that raises is counted as failed, not timed
        sample.failed += 1
        sample.wrong.append(f"op raised {type(exc).__name__}: {exc}")
        return
    elapsed = perf_counter() - started
    problem = workload.check(op, output)
    if problem:
        sample.failed += 1
        sample.wrong.append(problem)
        return
    sample.latencies.append(elapsed)
    sample.items += workload.items(op)


def measure(workload, calls, seconds: float, tracer=None, tag=None, limit=None) -> Sample:
    """Closed loop, one caller: run ops from the pool until time (or
    `limit` ops) is up."""
    sample = Sample()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and (limit is None or sample.attempted < limit):
        step(sample, workload, calls, workload.ops[sample.attempted % len(workload.ops)], tracer, tag)
    return sample


def measure_scaled(workload, calls, seconds: float, scale: Scale) -> Sample:
    """`measure` in segments of SEGMENT_S, with a reading of the
    machine's speed between segments; every op time is also kept scaled
    to the reference speed by the readings around its segment."""
    sample = Sample()
    deadline = perf_counter() + seconds
    scale.read()
    segments = []  # (first reading, last reading, first op, end op)
    while perf_counter() < deadline:
        first = len(sample.latencies)
        segment_end = min(perf_counter() + SEGMENT_S, deadline)
        while perf_counter() < segment_end:
            step(sample, workload, calls, workload.ops[sample.attempted % len(workload.ops)])
        scale.read()
        segments.append((len(scale.readings) - 2, len(scale.readings) - 1, first, len(sample.latencies)))
    for before, after, first, end in segments:
        factor = scale.factor(before, after)
        sample.scaled += [t * factor for t in sample.latencies[first:end]]
    return sample


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def untraced_run(name: str, seed: int, seconds: float, work_dir: Path):
    scale = Scale()
    scale.read(SETUP_BLOCKS)
    workload, first = set_up(name, seed, work_dir)
    scale.read(SETUP_BLOCKS)
    setups = [first]
    for _ in range(SETUP_CHILDREN):
        setups.append(child_setup_seconds(name, seed))
        scale.read(SETUP_BLOCKS)
    # set-up i lies between readings i and i + 1
    setups = [s * scale.factor(i, i + 1) for i, s in enumerate(setups)]
    import workloads

    sample = measure_scaled(workload, workloads.plain_calls(), seconds, scale)
    sample.wrong[:0] = workload.wrong
    lat = sample.scaled
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    if len(lat) > 1:
        metrics.update({
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p95": statistics.quantiles(lat, n=20)[18] * 1e3,
            "items_per_s": sample.scaled_rate,
        })
    units = declared("end_to_end")
    print(f"{name} seed {seed}: {sample.attempted} ops, {sample.items} {workload.item}, "
          f"{sample.failed} failed; set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    if sample.latencies:
        print(f"  times are scaled to the reference speed; the machine ran at {scale.speed():.2f} "
              f"of it (unscaled: op p50 {statistics.median(sample.latencies) * 1e3:.4f} ms, "
              f"{sample.rate:.4f} {workload.item}/s)")
    for key, unit in units.items():
        if key in metrics:
            count = len(setups) if key == "setup_s" else len(lat)
            print(f"  {key:<14} {metrics[key]:>12.4f} {unit:<4} (n={count})")
    return sample, {k: (metrics[k], u) for k, u in units.items() if k in metrics}


def paired(workload, tracer, goals, seconds: float) -> "tuple[Sample, Sample]":
    """Each op twice, untraced and traced, in alternating order, so that
    the machine's drift falls on both sides and the gap in throughput is
    the tracing overhead. Stops after `seconds` or MAX_TRACED_OPS pairs."""
    import layers
    import workloads

    plain = workloads.plain_calls()
    untraced, traced = Sample(), Sample()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and traced.attempted < MAX_TRACED_OPS:
        op = workload.ops[traced.attempted % len(workload.ops)]
        for with_spans in (False, True) if traced.attempted % 2 else (True, False):
            if with_spans:
                calls = layers.instrument(tracer, goals)
                try:
                    step(traced, workload, calls, op, tracer, workload.name)
                finally:
                    tracer.restore()
            else:
                step(untraced, workload, plain, op)
    return untraced, traced


def traced_run(name: str, seed: int, seconds: float, work_dir: Path):
    import_program()
    import layers
    import workloads
    from tracing import Tracer

    games = load_games()
    tracer = Tracer()
    goals = layers.Goals(games)
    calls = layers.instrument(tracer, goals)
    built, wrong = {}, []
    try:
        for w in workloads.WORKLOADS:
            built[w] = tracer.op(f"{w}:setup", workloads.WORKLOADS[w], seed, work_dir / w, games, calls)
        tour_sizes = {"verify-engine": len(built["verify-engine"].ops),
                      "session-loop": SESSION_TOUR, "replay-experiment": REPLAY_TOUR}
        for w, size in tour_sizes.items():
            wrong += measure(built[w], calls, float("inf"), tracer, f"{w}:tour", limit=size).wrong
        tracer.restore()
        goals.count_all()  # steps of every goal in the verify-engine pool
        untraced, traced = paired(built[name], tracer, goals, seconds)
    finally:
        tracer.restore()
    wrong += [p for w in built.values() for p in w.wrong] + untraced.wrong + traced.wrong

    goals.count_all()  # any goal the loop saw and the pass did not
    metrics = layers.terms_rows(games, goals)
    rows, problem = layers.worked_query_rows(games, goals)
    metrics.update(rows)
    sweep_s, sweep_problem = layers.sweep_row(games)
    wrong += [p for p in (problem, sweep_problem) if p]
    if rows["engine.worked_query_steps"] != 990 or rows["engine.false_outcome_steps"] != 614:
        wrong.append(f"pd step counts {rows['engine.worked_query_steps']} and "
                     f"{rows['engine.false_outcome_steps']}, expected 990 and 614")

    view = lambda w: layers.SpanView(tracer, w, f"{w}:tour")
    sessions = [plan for plan, _ in built["session-loop"].ops]
    attempts = [a for plan in sessions for a in plan.attempts]
    references = built["replay-experiment"].references
    metrics.update(layers.engine_metrics(view("verify-engine"), goals))
    metrics.update(layers.session_metrics(view("session-loop")))
    metrics.update(layers.replay_metrics(view("replay-experiment")))
    setup_view = layers.SpanView(tracer, "replay-experiment:setup")
    metrics.update({
        "engine.steps_per_verdict": layers.steps_per_verdict(
            layers.SpanView(tracer, "verify-engine:tour"), goals),
        "games.load_ms": layers.games_load_ms(),
        "verification.sweep_s": sweep_s,
        "translator.skipped_ratio": sum(a.off_format for a in attempts)
        / sum(a.off_format + len(a.claims) for a in attempts),
        "gateway.record_call_us": setup_view.mean(
            "gateway.complete", 1e6, lambda a: a.get("record")),
        "orchestrator.attempts_per_session": len(attempts) / len(sessions),
        "orchestrator.transcript_bytes": statistics.fmean(
            p.stat().st_size for p in references.glob("*.jsonl")),
        "error_rate": (untraced.failed + traced.failed) / (untraced.attempted + traced.attempted),
        "trace.overhead_pct": (1 - traced.rate / untraced.rate) * 100,
    })

    table = layers.SpanView(tracer, name).layer_self()
    total = sum(s for s, _ in table.values())
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(str(spans_path), {
        "workload": name, "seed": seed, "seconds": seconds,
        "self_time_by_layer_s": {layer: s for layer, (s, _) in table.items()},
    })
    print(f"{name} seed {seed}: {traced.attempted} ops, each run untraced and traced; "
          f"spans in {spans_path.relative_to(ROOT)}")
    print(f"  {'layer':<14} {'self s':>9} {'share':>7} {'spans':>8}")
    for layer, (s, n) in table.items():
        print(f"  {layer:<14} {s:>9.4f} {s / total:>7.1%} {n:>8}")
    print(f"  tracing overhead {metrics['trace.overhead_pct']:.1f}% "
          f"({untraced.rate:.1f} untraced vs {traced.rate:.1f} traced {built[name].item}/s)")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    result = Sample(attempted=attempted, failed=failed, wrong=wrong)
    return result, {k: (metrics[k], unit) for k, unit in declared("per_layer").items()}


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            _, seconds = set_up(args.workload, args.seed, work_dir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        run = traced_run if args.trace else untraced_run
        sample, metrics = run(args.workload, args.seed, args.seconds, work_dir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in sample.wrong[:20]:
        print(f"WRONG: {problem}")
    correct = not sample.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and not sample.failed else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode == 2 or not lines:
            print(done.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"  error_rate     {result['failed'] / result['attempted']:>12.4f} "
              f"ratio ({result['failed']} of {result['attempted']} ops failed)")
        if done.returncode != 0:
            print(f"{name}: wrong output, exit {done.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
