"""Benchmark of parachern: three seeded workloads against its public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 35 --trace 0

The run imports parachern from ``src/`` of the checkout and repeats whole
rounds of the workload's operations for ``--seconds``.  The benchmark checks
every output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``wall_s`` (seconds of one round in
  program calls: each step's fastest time over the run's rounds, summed),
  ``peak_rss_mb`` (peak resident memory of this process) and ``setup_s``
  (median over fresh interpreters, spread over the run, of the time to
  import the workload's parachern modules);
* ``--trace 1``: the per-layer metrics, from spans recorded around the
  public calls of each layer (see README.md).

BLAS and OpenMP pools are pinned to one thread, in this process and in the
fresh interpreters, before numpy is imported.
"""

from __future__ import annotations

import os

from common import THREAD_ENV

os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = {"exact-algebra": "exact_algebra", "ma-grid": "ma_grid",
             "cli-suite": "cli_suite"}
SETUP_STARTS = 9   # timed fresh interpreters per run, after one warm-up start
IMPORT_STARTS = 5  # the same for the import layer metrics of a traced run

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("forms.qqi_muladd_us", "us/call"), ("forms.wedge_us", "us/call"),
    ("forms.wedge_calls", "count"), ("forms.chern_forms_s", "s"),
    ("forms.chern_forms_minors_s", "s"), ("forms.segre_forms_s", "s"),
    ("forms.schur_form_s", "s"), ("forms.coeff_terms", "count"),
    ("fiberint.symbolic_pushforward_s", "s"),
    ("fiberint.scalar_fiber_integral_s", "s"),
    ("fiberint.monte_carlo_oracle_s", "s"),
    ("fiberint.scalar_fiber_integral_peak_mb", "MB"),
    ("masolver.solve_s.M64", "s"), ("masolver.solve_s.M128", "s"),
    ("masolver.newton_iters", "count"), ("masolver.normalize_problem_s", "s"),
    ("masolver.verify_conclusion_s", "s"), ("masolver.chern_crosscheck_s", "s"),
    ("localmodel.descend_metric_s", "s"),
    ("localmodel.admissibility_check_s", "s"),
    ("parabolic.identity_sweep_s", "s"),
    ("cli.ops_s", "s"), ("cli.pardeg_s", "s"), ("cli.admissible_s", "s"),
    ("cli.pushforward_s", "s"), ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"), ("trace.overhead_pct", "%"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class FreshStarts:
    """Timed imports in fresh interpreters.  ``code`` prints one or more
    floats; the first start only fills the bytecode cache and is dropped."""

    def __init__(self, code: str):
        self.code = code
        self.rows: list = []
        self.start()
        self.rows.clear()

    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", self.code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"fresh interpreter failed: {proc.stderr.strip()}")
        self.rows.append([float(x) for x in proc.stdout.split()])

    def median(self, column: int = 0) -> float:
        return statistics.median(row[column] for row in self.rows)


def setup_code(modules) -> str:
    return ("import time; t = time.perf_counter(); import " + ", ".join(modules)
            + "; print(time.perf_counter() - t)")


# cli.import_s: import of parachern.cli with its numpy and scipy dependencies;
# cli.import_scipy_s: the scipy.sparse.linalg part of it
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import numpy; "
               "t1 = time.perf_counter(); import scipy.sparse.linalg; "
               "t2 = time.perf_counter(); import parachern.cli; "
               "t3 = time.perf_counter(); print(t3 - t0, t2 - t1)")


def rounds(workload, seconds: int, tally, starts: FreshStarts, count: int,
           tracer=None):
    """Repeat whole rounds while the next one, as long as the last, still
    ends within ``seconds`` (at least one round), and make ``count`` fresh
    starts.  The starts are spread evenly over the run, between rounds, so
    that they sample the same machine conditions as the rounds.
    With a tracer, untraced and traced rounds alternate.  Returns the step
    times of the untraced and of the traced rounds, one list per step, and
    the outputs of the last traced round."""
    from common import run_round
    steps = sum(len(op.steps) for op in workload.ops)
    plain = [[] for _ in range(steps)]
    traced = [[] for _ in range(steps)]
    outputs = None
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        times, _ = run_round(workload.ops, tally)
        for acc, t in zip(plain, times):
            acc.append(t)
        if tracer is not None:
            workload.trace_targets(tracer)
            try:
                times, outputs = run_round(workload.ops, tally, tracer)
            finally:
                tracer.unpatch()
            for acc, t in zip(traced, times):
                acc.append(t)
        last = time.perf_counter() - t_round
        share = min(1.0, (time.perf_counter() - t0) / seconds)
        while len(starts.rows) < math.ceil(count * share):
            starts.start()
        if time.perf_counter() - t0 + last > seconds:
            while len(starts.rows) < count:
                starts.start()
            return plain, traced, outputs


def fastest_round(per_step) -> float:
    """Seconds of one round: each step's fastest time in the run, summed."""
    return sum(min(ts) for ts in per_step)


def measure(workload, seconds: int, tally):
    starts = FreshStarts(setup_code(workload.modules))
    plain, _, _ = rounds(workload, seconds, tally, starts, SETUP_STARTS)
    print(f"perfbench: {len(plain[0])} rounds, round seconds "
          f"{[round(sum(ts), 4) for ts in zip(*plain)]}", file=sys.stderr)
    return {
        "wall_s": fastest_round(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": starts.median(),
    }


def trace(workload, seconds: int, tally, seed: int, trace_path: Path):
    """After one warm-up round, alternate untraced and traced rounds for
    ``seconds``.  Per-layer metrics are span self-times per traced round and
    deterministic counts.  The tracing overhead is the median, over the
    pairs of rounds, of the traced round's time over the untraced one's."""
    from common import run_round
    from exact_algebra import qqi_muladd_us
    from tracing import Tracer

    run_round(workload.ops, tally)  # warm-up: first-call costs stay out
    tracer = Tracer()
    imports = FreshStarts(IMPORT_CODE)
    plain, traced, outputs = rounds(workload, seconds, tally, imports,
                                    IMPORT_STARTS, tracer)
    tracer.write(trace_path)

    count = len(traced[0])
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name, total in tracer.self_time.items():
        if name.endswith("_us"):
            metrics[name] = total / tracer.calls[name] * 1e6
        else:
            metrics[name] = total / count
    metrics["forms.wedge_calls"] = tracer.calls.get("forms.wedge_us", 0) // count
    metrics.update(workload.round_counts(outputs))
    metrics.update(getattr(workload, "layer_probes", dict)())
    metrics["forms.qqi_muladd_us"] = qqi_muladd_us(seed)
    metrics["cli.import_s"] = imports.median(0)
    metrics["cli.import_scipy_s"] = imports.median(1)
    # each traced round against the untraced round just before it, so that
    # both see the same machine conditions
    metrics["trace.overhead_pct"] = statistics.median(
        sum(t) / sum(p) - 1 for p, t in zip(zip(*plain), zip(*traced))) * 100
    unknown = set(metrics) - {name for name, _ in PER_LAYER}
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics {sorted(unknown)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (SRC / "parachern" / "__init__.py").is_file():
        fail(f"no parachern sources under {SRC}; run from a checkout of the repository")

    sys.path[:0] = [str(SRC), str(HERE)]
    import parachern
    if not Path(parachern.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"parachern imported from {parachern.__file__}, not from {SRC}")
    from common import Tally

    module = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    try:
        workload = module.Workload(args.seed, workdir)
        if args.trace:
            values = trace(workload, args.seconds, tally, args.seed,
                           OUT / f"trace-{tag}.json")
            units = dict(PER_LAYER)
        else:
            values = measure(workload, args.seconds, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
