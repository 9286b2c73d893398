"""Command-line front end: run verification suites over the other modules
and emit machine-readable JSON reports plus CSV diagnostic series.

Subcommands: pardeg, ops, admissible, chern, pushforward, masolve, all.
Exit codes: 0 all checks pass, 1 a check failed, 2 invalid input, 3 any
other error (its traceback goes to the DEBUG log).  Each subcommand takes
only the flags that FLAGS gives it.  Reports embed the tool version, a hash
of the configuration (those flags and the input) and, where --seed is read,
the seed; they are byte-identical for identical configuration.
PARACHERN_LOG sets the logging level.  --seed seeds random.Random for exact
draws and numpy.random.default_rng for float draws.

At load this module imports the standard library, parabolic, forms and
fiberint, none of which loads numpy, so pardeg, ops, chern, --version, a
malformed command line and an input file that cannot be read or parsed run
on the standard library alone.  pushforward loads numpy in fiberint's float
functions; admissible and masolve import numpy, and localmodel or masolver,
inside the subcommand, and admissible checks every field of its spec first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import parachern

from .fiberint import monte_carlo_oracle, scalar_fiber_integral, symbolic_pushforward
from .forms import (
    QQi,
    chern_forms,
    chern_forms_minors,
    random_exact_curvature,
    segre_forms,
)
from .parabolic import (
    InvalidModelError,
    ParabolicModel,
    det,
    direct_sum,
    dual,
    integer_exponents,
    my_filtration,
    par_degree,
    random_model,
    tensor,
)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_RUNTIME = 0, 1, 2, 3
VERSION = parachern.__version__

log = logging.getLogger("parachern")


class InputError(ValueError):
    """Invalid user input (maps to exit code 2)."""


# Inclusive range of each spec field: of the value of a number, of the length
# of a list.  The upper bounds cap the time and memory one input can ask for.
LIMITS = {
    "admissible": {"N": (1, 64), "dim": (1, 4), "weights": (1, 8),
                   "rho": (0.01, 0.99), "radialNodes": (4, 32), "angularNodes": (2, 128)},
    "chern": {"rank": (1, 6), "dim": (1, 4)},
    # ops tensors the model with itself: rank^2 weights per point
    "ops": {"rank": (1, 64), "points": (0, 16)},
    "pardeg": {"rank": (1, 64), "points": (0, 16)},
    # five c need --tol >= 1e-9 for the quadrature; six never pass its 1e-6 check
    "pushforward": {"c": (1, 5), "c[i]": (1e-6, 1e6)},
    # the fixtures divide by the rank before MAProblem can check it
    "masolve": {"M": (8, 512), "rank": (1, 64), "eps": (-10.0, 10.0)},
}
# The flags each subcommand reads, beyond --input and --out: build_parser
# accepts these and no other, and _provenance records these and no other.
FLAGS = {"pardeg": (), "ops": ("samples", "seed"), "chern": ("samples", "seed"),
         "admissible": ("tol", "seed"), "masolve": ("tol",),
         "pushforward": ("tol", "samples", "seed"), "all": ("tol", "samples", "seed")}
# --samples wherever it is read; pushforward draws 1000 Monte Carlo rows per sample
SAMPLES_MAX = 5000
# pushforward's Monte Carlo test: |quad - mc| <= MC_GATE_SE standard errors
# plus the quadrature's own error estimate, which is the whole scale when the
# importance weight is constant (c = [a, a]) and the standard error is roundoff.
# Correct runs reach 4.0 se over seeds 0-999 of c = [1, 2, 0.5], [1, 2] and
# [1, 3, 0.5, 2] at --samples 50, and 3 se failed 21 of those 3,000 runs.
MC_GATE_SE = 5


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _provenance(args, input_text):
    cfg = {
        "subcommand": args.subcommand,
        **{flag: getattr(args, flag) for flag in FLAGS[args.subcommand]},
        "inputSha256": hashlib.sha256((input_text or "").encode()).hexdigest(),
    }
    return {
        "version": VERSION,
        **({"seed": cfg["seed"]} if "seed" in cfg else {}),
        "configHash": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "config": cfg,
    }


def _read_spec(args):
    """The input text (None without --input) and its JSON object ({})."""
    if not args.input:
        return None, {}
    try:
        text = Path(args.input).read_text()
        spec = json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input file {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed {args.subcommand} JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(spec, dict):
        raise InputError(f"{args.subcommand} input must be a JSON object")
    return text, spec


def _check(key, value, kind, lo=-math.inf, hi=math.inf):
    """value as a `kind` (an int passes as a float) whose value, or length
    for a list or str, lies in [lo, hi]."""
    if not (type(value) is kind or kind is float and type(value) is int):
        raise InputError(f"{key} must be a JSON {kind.__name__}, got {value!r:.40}")
    sized = kind in (list, str)
    size = len(value) if sized else value
    if not lo <= size <= hi:
        what = f"length of {key}" if sized else key
        raise InputError(f"{what} must lie in [{lo}, {hi}], got {size!r}")
    return float(value) if kind is float else value


def _field(spec, sub, key, kind, default):
    """spec[key], or default when absent, checked against LIMITS."""
    return _check(key, spec.get(key, default), kind, *LIMITS[sub].get(key, ()))


def _read_model(args, spec, default=None):
    """The model of the input spec; `default` when there is no --input."""
    if not args.input and default is None:
        raise InputError("this subcommand requires --input (model JSON)")
    try:
        model = ParabolicModel.from_json_dict(spec) if args.input else default
    except InvalidModelError as exc:
        raise InputError(f"invalid model: {exc}") from exc
    limits = LIMITS[args.subcommand]
    _check("rank", model.rank, int, *limits["rank"])
    _check("number of points", model.num_points, int, *limits["points"])
    return model


def _write(outdir: Path, name: str, content: str):
    """Write ``content`` to outdir/name as a new file: an old file of that
    name is unlinked first, since truncating it and writing it again can
    cost tens of milliseconds where a new file costs microseconds."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.unlink(missing_ok=True)
    path.write_text(content)
    log.info("wrote %s", path)


def _write_csv(outdir: Path, name: str, header: str, lines):
    _write(outdir, name, "\n".join([header, *lines]) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run(args, outdir: Path):
    """Run args.subcommand on the spec of its --input, attach provenance and
    write <sub>_report.json; returns the report."""
    text, spec = _read_spec(args)
    report = COMMANDS[args.subcommand](args, spec, outdir)
    report.update(_provenance(args, text))
    _write(outdir, f"{args.subcommand}_report.json", _canonical(report))
    return report


def cmd_pardeg(args, spec, outdir: Path):
    model = _read_model(args, spec)
    # par_degree raises ArithmeticError unless its sum form and its
    # integral form agree, so the value it returns is both
    pd = par_degree(model)
    return {
        "parDeg": str(pd),
        "slope": str(pd / model.rank),
        "sumForm": str(pd),
        "integralForm": str(pd),
        "formsAgree": True,
        "isParabolic": model.is_parabolic(),
        "filtrationJumps": [
            {"t": str(j.t), "rankDrop": j.rank_drop, "degreeAfter": j.degree_after}
            for j in my_filtration(model).jumps
        ],
        "pass": True,
    }


def _identity_rows(model: ParabolicModel):
    rows = []

    def check(name, ok):
        rows.append({"identity": name, "result": "PASS" if ok else "FAIL"})

    # each par_degree call checks its sum form against its integral form
    pd = par_degree(model)
    d = dual(model)
    check("dual negates par-deg", par_degree(d) == -pd)
    check("double dual round trip", dual(d) == model)
    dm = det(model)
    check("det preserves par-deg", par_degree(dm) == pd and dm.rank == 1)
    # binary identities need matching point sets: run them on (model, model)
    check("direct sum adds par-deg", par_degree(direct_sum(model, model)) == 2 * pd)
    check("tensor bilinear rule", par_degree(tensor(model, model)) == 2 * model.rank * pd)
    return rows


def cmd_ops(args, spec, outdir: Path):
    half = Fraction(1, 2)
    model = _read_model(args, spec, ParabolicModel(2, 1, {"p": (half, half)}))
    rows = _identity_rows(model)
    rng = random.Random(args.seed)
    sweep_ok = all(r["result"] == "PASS" for _ in range(args.samples)
                   for r in _identity_rows(random_model(rng)))
    sweep_name = f"randomized sweep ({args.samples} models)"
    rows.append({"identity": sweep_name, "result": "PASS" if sweep_ok else "FAIL"})
    ok = all(r["result"] == "PASS" for r in rows)
    report = {"model": model.to_json_dict(), "identities": rows, "pass": ok}
    _write_csv(outdir, "ops_identities.csv", "identity,result",
               (f"{r['identity']},{r['result']}" for r in rows))
    return report


def cmd_admissible(args, spec, outdir: Path):
    field = partial(_field, spec, "admissible")
    N = field("N", int, 3)
    grid = dict(dim=field("dim", int, 2), cover_degree=N, rho=field("rho", float, 0.8),
                annuli=field("radialNodes", int, 8), angular_nodes=field("angularNodes", int, 16))
    try:
        weights = [Fraction(str(w)) for w in field("weights", list, ["1/3", "2/3"])]
        integer_exponents(weights, N)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc

    import numpy as np

    from .localmodel import (LocalChart, admissibility_check, descend_metric,
                             random_invariant_metric)

    chart = LocalChart(**grid)
    rng = np.random.default_rng(args.seed)
    htilde = random_invariant_metric(rng, weights, chart)
    # --tol bounds the round trip; the seeded fixture is deck invariant to roundoff
    metric = descend_metric(htilde, weights, chart, tol=1e-12)
    cert = admissibility_check(metric)

    # the round trip: one lift of every sample point per branch
    points = chart.sample_points().reshape(-1, chart.dim)
    dev = max(float(np.abs(metric.lift(points, b) - htilde(chart.w_of_z(points, b))).max())
              for b in range(N))
    ok = bool(cert) and dev < args.tol
    report = {
        "grid": chart.to_json_dict(),
        "weights": [str(w) for w in weights],
        "admissible": bool(cert),
        "reasons": cert.reasons,
        "cutDefect": cert.cut_defect,
        "roundTripMaxDeviation": dev,
        "pass": ok,
    }
    _write(outdir, "admissible_annuli.csv", cert.csv_rows() + "\n")
    return report


def cmd_chern(args, spec, outdir: Path):
    r = _field(spec, "chern", "rank", int, 3)
    n = _field(spec, "chern", "dim", int, 2)
    rng = random.Random(args.seed)

    # per check, [terms compared, terms differing] summed over the samples
    minors, conj = [0, 0], [0, 0]
    for _ in range(args.samples):
        theta = random_exact_curvature(rng, r, n)
        c = chern_forms(theta)
        _compare_terms(c, chern_forms_minors(theta), minors)
        # diagonal exact conjugation: Gaussian-rational stand-ins for the
        # local-model factors z^{alpha}
        d = [QQi(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(r)]
        _compare_terms(c, chern_forms(theta.conjugated(d)), conj)
    rows = [
        {"check": check, "result": "FAIL" if differing else "PASS",
         "termsCompared": compared, "termsDiffering": differing}
        for check, (compared, differing) in (("Newton vs principal minors", minors),
                                             ("diagonal conjugation invariance", conj))
    ]
    ok = minors[1] == 0 and conj[1] == 0
    return {"rank": r, "dim": n, "checks": rows, "pass": ok}


def _compare_terms(a, b, counts):
    """Add to ``counts`` the coefficient terms of c_0 ... c_r that ``a`` and
    ``b`` store between them, and the number of those that differ."""
    for k in range(a.rank + 1):
        counts[0] += len(a[k].keys() | b[k].keys())
        counts[1] += len((a[k] - b[k]).keys())


def cmd_pushforward(args, spec, outdir: Path):
    c = [
        _check(f"c[{i}]", x, float, *LIMITS["pushforward"]["c[i]"])
        for i, x in enumerate(_field(spec, "pushforward", "c", list, [1.0, 2.0]))
    ]
    closed = 1.0 / math.prod(c)
    quad = scalar_fiber_integral(c, tol=args.tol)
    mc_samples = max(args.samples, 100) * 1000 if len(c) > 1 else 0
    mc, mc_se = monte_carlo_oracle(c, budget=mc_samples, seed=args.seed)

    rng = random.Random(args.seed)
    max_dev = 0.0
    series = []
    for i in range(max(1, args.samples // 10)):
        theta = random_exact_curvature(rng, 2, 2)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta), 2)
        dev = max(float((x - y).max_abs()) for x, y in zip(s, ref))
        series.append(dev)
        max_dev = max(max_dev, dev)

    ok = (
        abs(quad.value - closed) < 1e-6 * closed
        and abs(quad.value - mc) <= MC_GATE_SE * mc_se + quad.error
        and max_dev == 0.0
    )
    report = {
        "inputs": {"c": c},
        "closedForm": closed,
        "quadrature": {
            "value": quad.value, "errorEstimate": quad.error, "h": quad.step, "L": quad.window,
            "nodesPerAxis": list(quad.nodes), "halvingLevels": quad.halvings,
        },
        "monteCarlo": {"estimate": mc, "stderr": mc_se, "samples": mc_samples},
        "maxCoeffDeviation": max_dev,
        "pass": bool(ok),
    }
    _write_csv(outdir, "pushforward_deviations.csv", "case,maxCoeffDeviation",
               (f"{i},{d:.3e}" for i, d in enumerate(series)))
    return report


def _masolve_problem(spec):
    from .masolver import MAProblem, TorusField, fixture_problem

    field = partial(_field, spec, "masolve")
    r = field("rank", int, 2)
    if "c1Csv" in spec:
        try:
            c1, c2, eta = (
                TorusField.load_csv(field(key, str, None), kind)
                for key, kind in (("c1Csv", "(1,1)"), ("c2Csv", "(2,2)"), ("etaCsv", "(2,2)"))
            )
            problem = MAProblem(r, c1, c2, eta)
        except (OSError, ValueError) as exc:
            raise InputError(f"invalid masolve fields: {exc}") from exc
        _check("CSV grid size", problem.grid, int, *LIMITS["masolve"]["M"])
        return problem
    fixture = field("fixture", str, "constant")
    M = field("M", int, 64)
    eps = field("eps", float, 0.1)
    try:
        return fixture_problem(fixture, M, r, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_masolve(args, spec, outdir: Path):
    from .masolver import normalize_problem, solve, verify_conclusion

    raw = _masolve_problem(spec)
    prob = normalize_problem(raw)
    phi, diag = solve(prob, tol=args.tol)
    rep = verify_conclusion(phi, prob, tol=max(args.tol, 1e-8) * 100)
    ok = diag.converged and rep.c1_positive and rep.c2_positive and rep.schur_positive
    report = {
        "grid": prob.grid,
        "rank": prob.rank,
        "etaScale": prob.eta_scale,
        "iterations": diag.iterations,
        "gmresIterations": diag.gmres,
        "damping": diag.damping,
        "finalResidual": diag.residuals[-1],
        "maxConservationDefect": max(diag.conservation),
        "conclusion": rep.to_json_dict(),
        "pass": bool(ok),
    }
    # row 0 is the initial state, before any GMRES step
    rows = zip(diag.residuals, diag.min_eigs, diag.conservation, [0, *diag.gmres])
    _write_csv(outdir, "masolve_residuals.csv", "iteration,residual,minEig,conservation,gmres",
               (f"{i},{r:.6e},{e:.6e},{c:.3e},{k}" for i, (r, e, c, k) in enumerate(rows)))
    return report


def cmd_all(args, spec, outdir: Path):
    sub = {}
    for name in ("ops", "admissible", "chern", "pushforward", "masolve"):
        sub[name] = _run(argparse.Namespace(**dict(vars(args), subcommand=name)), outdir)["pass"]
    return {"suites": sub, "pass": all(sub.values())}


COMMANDS = {
    "pardeg": cmd_pardeg,
    "ops": cmd_ops,
    "admissible": cmd_admissible,
    "chern": cmd_chern,
    "pushforward": cmd_pushforward,
    "masolve": cmd_masolve,
    "all": cmd_all,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors take the one input-error path of main
        raise InputError(f"{self.prog}: {message}")


def _above(low, kind, high=math.inf):
    """argparse type: a finite `kind` greater than `low`, at most `high`."""

    def parse(text):
        value = kind(text)
        if not low < value < math.inf or value > high:
            bound = f" and at most {high}" if high < math.inf else ""
            raise argparse.ArgumentTypeError(f"must be greater than {low}{bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser():
    parser = _Parser(
        prog="parachern",
        description="verification suites for parabolic-bundle curvature computations",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # all runs every suite on its defaults, so it takes no --input
    parser.set_defaults(input=None)
    options = {
        "tol": {"type": _above(0, float), "default": 1e-10},
        "samples": {"type": _above(0, int, SAMPLES_MAX), "default": 50},
        "seed": {"type": _above(-1, int), "default": 0},
    }
    for name in COMMANDS:
        p = subs.add_parser(name)
        if name != "all":
            p.add_argument("--input", help="input JSON file (format per subcommand)")
        p.add_argument("--out", default=".", help="output directory for reports")
        for flag in FLAGS[name]:
            p.add_argument(f"--{flag}", **options[flag])
    return parser


# built once: a parser holds reference cycles that only the cyclic collector frees
_PARSER = build_parser()


def main(argv=None) -> int:
    level = os.environ.get("PARACHERN_LOG", "WARNING").upper()
    try:
        if not isinstance(logging.getLevelName(level), int):
            raise InputError(f"PARACHERN_LOG: unknown level {level!r}")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        args = _PARSER.parse_args(argv)
        report = _run(args, Path(args.out))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        log.debug("runtime error", exc_info=True)
        message = " ".join(str(exc).split())  # one line
        print(f"runtime error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{args.subcommand}: {'PASS' if report['pass'] else 'FAIL'}")
    return EXIT_PASS if report["pass"] else EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
