"""Operations, rounds and tallies shared by the three workloads."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


# BLAS and OpenMP pools pinned to one thread, in the benchmark and in the
# interpreters it starts; set before numpy is imported
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class ProgramFailure(RuntimeError):
    """The program itself reported a failed operation (e.g. a nonzero exit)."""


@dataclass
class Op:
    """One operation of a round.  ``steps`` are (key, call) pairs run in
    order and timed one by one; ``call(results)`` gets the results of the
    earlier steps and returns its own, stored under ``key``.  ``check``
    returns the problems the benchmark finds in the results (an empty list
    when they are correct).  ``span`` names a traced span around each step."""

    name: str
    steps: list
    check: Callable[[dict], list]
    span: str | None = None


def single(name: str, call: Callable[[], object], check: Callable[[object], list],
           span: str | None = None) -> Op:
    """An operation of one program call, whose output is checked alone."""
    return Op(name, [("out", lambda results: call())],
              lambda results: check(results["out"]), span)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: int = 0

    def note(self, text: str) -> None:
        """Print the first 20 notes of a run to standard error."""
        if self.notes < 20:
            self.notes += 1
            print(text, file=sys.stderr)


def run_round(ops, tally: Tally, tracer=None):
    """Run every operation once.  Returns (times, outputs): the seconds of
    each step inside the program, without the benchmark's checks (0.0 for
    the steps a failed operation did not reach), and each operation's
    results (None for a failed operation)."""
    times = []
    outputs = []
    for op in ops:
        tally.attempted += 1
        results = {}
        try:
            for key, call in op.steps:
                t0 = time.perf_counter()
                try:
                    if tracer is not None and op.span:
                        with tracer.span(op.span):
                            results[key] = call(results)
                    else:
                        results[key] = call(results)
                finally:
                    times.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed operation is counted, not fatal
            times.extend([0.0] * (len(op.steps) - len(results) - 1))
            tally.failed += 1
            tally.note(f"failed: {op.name}: {type(exc).__name__}: {exc}")
            outputs.append(None)
            continue
        try:
            problems = op.check(results)
        except Exception as exc:  # an output of the wrong shape is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            tally.wrong += 1
            tally.note(f"wrong output: {op.name}: {'; '.join(problems)}")
        outputs.append(results)
    return times, outputs
