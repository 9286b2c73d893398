"""Workload ``cli-suite``: ``parachern.cli.main`` called in-process on input
files that the benchmark writes.

One round makes these calls:

* ``ops`` on ten seeded models, each with a randomized sweep of 150
  models;
* ``pardeg`` on three seeded models;
* ``admissible`` on three fixed branched-chart fixtures, N = 3, 4 and 6;
* ``pushforward`` with fixed c of length 2, 3 and 4, and the known-fault
  case c = [1, 20, 0.05].

Seeded models have rank 1-4, degree in [-6, 6] and 0-3 marked points, each
with rank weights k/N, N in 1..12.  The ``admissible`` and ``pushforward``
calls get fixed inputs and a fixed ``--seed``, because their verdicts come
from randomized tests, and a verdict that changed with the seed would change
``failed`` between runs: the CLI's Monte Carlo test |quad - mc| < 3 se fails
by chance on 3 of 360 seeds at c = [1, 2, 0.5].  (The N = 4 chart passed on
all 300 seeds tried.)  The fault case exits 1 on every run, because
``scalar_fiber_integral`` returns 0.99757 against the closed form 1 while
its error estimate is 3.6e-11; the runner counts it as one failed operation
per round, one in 20 operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import parachern.cli as cli

from common import ProgramFailure, single

MODULES = ("parachern.cli",)

# 1,500 sweep models per round, in calls short enough to time steadily
OPS_CALLS = 10
OPS_SAMPLES = 150
PARDEG_MODELS = 3
ADMISSIBLE_FIXTURES = (
    {"N": 3, "weights": ["1/3", "2/3"]},
    {"N": 4, "weights": ["0", "1/4", "3/4"]},
    {"N": 6, "weights": ["1/6", "1/2", "5/6"]},
)
ADMISSIBLE_SEED = 1
PUSHFORWARD_CS = ([1.3, 0.7], [1.0, 2.0, 0.5], [0.8, 1.5, 2.5, 1.2])
FAULT_C = [1.0, 20.0, 0.05]
PUSHFORWARD_SEED = 3
PUSHFORWARD_SAMPLES = 50
QUAD_REL_LIMIT = 1e-6
MC_SE_LIMIT = 5.0
ROUND_TRIP_LIMIT = 1e-10


def random_model(rng) -> dict:
    rank = int(rng.integers(1, 5))
    points = {}
    for p in range(int(rng.integers(0, 4))):
        N = int(rng.integers(1, 13))
        ws = sorted(Fraction(int(rng.integers(0, N)), N) for _ in range(rank))
        points[f"x{p}"] = [f"{w.numerator}/{w.denominator}" for w in ws]
    return {"rank": rank, "degree": int(rng.integers(-6, 7)), "points": points}


def run_cli(argv, outdir: Path, sub: str) -> dict:
    """Call ``cli.main`` in-process; raise ProgramFailure on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(outdir)])
    if code != 0:
        raise ProgramFailure(f"{sub} exited {code}: {(out.getvalue() + err.getvalue()).strip()}")
    return json.loads((outdir / f"{sub}_report.json").read_text())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_pardeg(model: dict, rep: dict) -> list:
    expected = Fraction(model["degree"]) + sum(
        (Fraction(w) for ws in model["points"].values() for w in ws), Fraction(0))
    problems = []
    if Fraction(rep["parDeg"]) != expected:
        problems.append(f"parDeg {rep['parDeg']} != degree + sum of weights {expected}")
    if Fraction(rep["slope"]) != expected / model["rank"]:
        problems.append(f"slope {rep['slope']} != {expected / model['rank']}")
    if not (Fraction(rep["sumForm"]) == Fraction(rep["integralForm"]) == expected):
        problems.append("sum and integral forms disagree")
    if rep["pass"] is not True:
        problems.append("pardeg reports failure")
    return problems


def check_ops(model: dict, rep: dict) -> list:
    problems = [f"identity {row['identity']!r}: {row['result']}"
                for row in rep["identities"] if row["result"] != "PASS"]
    if not any(f"({OPS_SAMPLES} models)" in row["identity"] for row in rep["identities"]):
        problems.append("randomized sweep row missing")
    if rep["model"]["rank"] != model["rank"] or rep["model"]["degree"] != model["degree"]:
        problems.append("report describes another model")
    if rep["pass"] is not True:
        problems.append("ops reports failure")
    return problems


def check_admissible(rep: dict) -> list:
    problems = []
    if rep["admissible"] is not True:
        problems.append(f"not admissible: {rep['reasons']}")
    if not rep["roundTripMaxDeviation"] < ROUND_TRIP_LIMIT:
        problems.append(f"round-trip deviation {rep['roundTripMaxDeviation']:.2e}")
    if rep["pass"] is not True:
        problems.append("admissible reports failure")
    return problems


def check_pushforward(c, rep: dict) -> list:
    closed = 1.0 / math.prod(c)
    quad = rep["quadrature"]["value"]
    mc, se = rep["monteCarlo"]["estimate"], rep["monteCarlo"]["stderr"]
    problems = []
    if not abs(quad - closed) <= QUAD_REL_LIMIT * closed:
        problems.append(f"quadrature {quad!r} vs closed form {closed!r}")
    if not (se > 0 and abs(mc - closed) <= MC_SE_LIMIT * se):
        problems.append(f"Monte Carlo {mc!r} +- {se!r} vs closed form {closed!r}")
    if rep["maxCoeffDeviation"] != 0:
        problems.append("symbolic push-forward differs from segre(chern)")
    if rep["pass"] is not True:
        problems.append("pushforward reports failure")
    return problems


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------


class Workload:
    name = "cli-suite"
    modules = MODULES

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.ops = []

        def add(label, sub, spec, args, check):
            d = workdir / f"op{len(self.ops)}"
            d.mkdir(parents=True)
            path = d / "input.json"
            path.write_text(json.dumps(spec))
            argv = [sub, "--input", str(path)] + args
            self.ops.append(single(label, lambda: run_cli(argv, d, sub), check,
                                   span=f"cli.{sub}_s"))

        for i in range(OPS_CALLS):
            model = random_model(rng)
            add(f"ops {i}", "ops", model,
                ["--samples", str(OPS_SAMPLES), "--seed", str(int(rng.integers(2**31)))],
                lambda rep, m=model: check_ops(m, rep))
        for i in range(PARDEG_MODELS):
            model = random_model(rng)
            add(f"pardeg {i}", "pardeg", model, [],
                lambda rep, m=model: check_pardeg(m, rep))
        for spec in ADMISSIBLE_FIXTURES:
            add(f"admissible N={spec['N']}", "admissible", spec,
                ["--seed", str(ADMISSIBLE_SEED)], check_admissible)
        for c in PUSHFORWARD_CS + (FAULT_C,):
            add(f"pushforward c={c}", "pushforward", {"c": c},
                ["--seed", str(PUSHFORWARD_SEED), "--samples", str(PUSHFORWARD_SAMPLES)],
                lambda rep, c=c: check_pushforward(c, rep))

    def trace_targets(self, tracer):
        import parachern.fiberint as fiberint
        import parachern.forms as forms
        import parachern.localmodel as localmodel
        import parachern.parabolic as parabolic
        for fn in ("par_degree", "slope", "my_filtration", "dual", "det",
                   "direct_sum", "tensor", "random_model"):
            tracer.wrap(parabolic, fn, "parabolic.identity_sweep_s")
        for fn in ("descend_metric", "admissibility_check"):
            tracer.wrap(localmodel, fn, f"localmodel.{fn}_s")
        for fn in ("scalar_fiber_integral", "monte_carlo_oracle", "symbolic_pushforward"):
            tracer.wrap(fiberint, fn, f"fiberint.{fn}_s")
        for fn in ("chern_forms", "segre_forms"):
            tracer.wrap(forms, fn, f"forms.{fn}_s")
        tracer.wrap(forms.FormValue, "wedge", "forms.wedge_us")

    def round_counts(self, outputs) -> dict:
        return {}

    def layer_probes(self) -> dict:
        """Peak traced memory of the rank-4 quadrature, called directly."""
        import tracemalloc

        from parachern.fiberint import scalar_fiber_integral
        tracemalloc.start()
        try:
            scalar_fiber_integral(PUSHFORWARD_CS[-1], tol=1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {"fiberint.scalar_fiber_integral_peak_mb": peak / 2**20}
