"""The machine's current speed, read from a fixed reference block.

The development machine shares its CPUs with other tenants, and its
speed drifts by up to a factor of two over minutes while CPU time stays
equal to wall time, so a process is not descheduled but runs slower.
Runs made minutes apart then differ by more than any bound a regression
check could use.

So the untraced loop times a fixed block of lelma-like work between
its segments of ops, and scales each op's time by how long the block
took around it:
`scaled = measured * (REFERENCE_BLOCK_S / block time) ** SPEED_EXPONENT`.
A scaled time is the time the op would have taken at the reference
speed, the speed at which the block takes REFERENCE_BLOCK_S. A change
to lelma moves the op times and leaves the block alone, so it shows in
the scaled times in full; a slower spell of the machine moves both and
cancels out. The block uses nothing from lelma.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from time import perf_counter

# The block's median time on the development machine (2 vCPU, CPython
# 3.11.7). It only sets the scale: scaled times read in milliseconds
# of a machine as fast as that one on average.
REFERENCE_BLOCK_S = 0.0023
BLOCKS_PER_READING = 3
# How closely lelma's speed follows the block's: op times are scaled by
# (REFERENCE_BLOCK_S / block time) ** SPEED_EXPONENT. In the machine's
# fast spells the block ran 1.75-2 times as fast as usual, and the ops
# of both workloads 1.6-1.76 times, which is the 0.85th power of it.
SPEED_EXPONENT = 0.85


@dataclass(frozen=True, slots=True)
class _Var:
    name: str
    n: int = 0


@dataclass(frozen=True, slots=True)
class _Struct:
    functor: str
    args: tuple


_FACTS = [
    _Struct("move", (_Struct("s", (str(i % 7),)), "c" if i % 2 else "d",
                     _Struct("t", (str(i % 5), str(i % 3)))))
    for i in range(40)
]
_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*")


def _walk(t, s):
    while isinstance(t, _Var) and t in s:
        t = s[t]
    return t


def _unify(a, b, s):
    a, b = _walk(a, s), _walk(b, s)
    if a == b:
        return s
    if isinstance(a, _Var) or isinstance(b, _Var):
        var, value = (a, b) if isinstance(a, _Var) else (b, a)
        out = dict(s)
        out[var] = value
        return out
    if isinstance(a, _Struct) and isinstance(b, _Struct) and a.functor == b.functor \
            and len(a.args) == len(b.args):
        for x, y in zip(a.args, b.args):
            s = _unify(x, y, s)
            if s is None:
                return None
        return s
    return None


def _answers(goal, n):
    for fact in _FACTS:
        s = _unify(goal, fact, {})
        if s is not None:
            yield {v.name: _walk(v, s) for v in (_Var("X", n), _Var("Y", n), _Var("Z", n))}


def reference_block() -> int:
    """Work of a fixed size and of the kinds lelma does: unification of
    frozen dataclass terms over copied dict substitutions, generators,
    and the splitting, matching and formatting of query lines."""
    found = 0
    for n in range(1, 5):
        goal = _Struct("move", (_Var("X", n), _Var("Y", n), _Struct("t", (_Var("Z", n), str(n % 3)))))
        for answer in _answers(goal, n):
            found += len(answer)
    lines = []
    for i in range(60):
        line = f"higher_guaranteed_payoff(c{i % 4}, {i % 9}, d{i % 3})."
        head, _, rest = line.partition("(")
        args = [a.strip() for a in rest.rstrip(".)").split(",")]
        if _WORD.fullmatch(head) and all(args):
            lines.append(f"{head}/{len(args)}: " + " ".join(sorted(args)))
    return found + len("\n".join(lines))


def block_seconds(blocks: int = BLOCKS_PER_READING) -> float:
    """Median time of a few reference blocks, run now."""
    times = []
    for _ in range(blocks):
        started = perf_counter()
        reference_block()
        times.append(perf_counter() - started)
    return statistics.median(times)


class Scale:
    """Readings of the block taken between stretches of timed work.

    One reading is too short to be steady: it moves by tens of percent
    from one to the next. A stretch of work is therefore scaled by the
    median of the WINDOW readings nearest to it on either side, a few
    seconds of readings, which still follows spells that last minutes.
    """

    WINDOW = 5

    def __init__(self) -> None:
        self.readings: "list[float]" = []

    def read(self, blocks: int = BLOCKS_PER_READING) -> float:
        seconds = block_seconds(blocks)
        self.readings.append(seconds)
        return seconds

    def speed(self) -> float:
        """The machine's median speed over the readings, as a share of
        the reference speed."""
        return REFERENCE_BLOCK_S / statistics.median(self.readings)

    def factor(self, first: int, last: int) -> float:
        """Multiplier to the reference speed for work timed between
        readings `first` and `last` (indices into `readings`)."""
        lo = max(0, first - self.WINDOW + 1)
        window = self.readings[lo:last + self.WINDOW]
        return (REFERENCE_BLOCK_S / statistics.median(window)) ** SPEED_EXPONENT
