"""Command-line front end: run verification suites over the other modules
and emit machine-readable JSON reports plus CSV diagnostic series.

Subcommands: pardeg, ops, admissible, chern, pushforward, masolve, all.
Exit codes: 0 all checks pass, 1 a check failed, 2 invalid input,
3 runtime error inside a wrapped module.  Reports embed the tool version,
a hash of the resolved configuration, and the seed, and are byte-identical
for identical config + seed.  PARACHERN_LOG sets the logging level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("parachern")
except Exception:  # pragma: no cover - editable-install fallback
    VERSION = "0.1.0"

from .fiberint import (
    QuadratureError,
    householder_unitary,
    monte_carlo_oracle,
    scalar_fiber_integral,
    symbolic_pushforward,
)
from .forms import (
    CurvatureMatrix,
    FormValue,
    QQi,
    chern_forms,
    chern_forms_minors,
    hermitian_partner,
    segre_forms,
)
from .localmodel import (
    GridError,
    InvarianceError,
    LocalChart,
    admissibility_check,
    descend_metric,
    random_invariant_metric,
)
from .masolver import (
    ConvergenceError,
    HypothesisError,
    MAProblem,
    TorusField,
    ddc_potential,
    grid_coordinates,
    normalize_problem,
    solve,
    verify_conclusion,
    wedge_density,
)
from .parabolic import (
    InvalidModelError,
    ParabolicModel,
    det,
    direct_sum,
    dual,
    my_filtration,
    par_degree,
    random_model,
    slope,
    tensor,
)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_RUNTIME = 0, 1, 2, 3

log = logging.getLogger("parachern")


class InputError(ValueError):
    """Invalid user input (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config_dict(args, input_text):
    return {
        "subcommand": args.subcommand,
        "tol": args.tol,
        "samples": args.samples,
        "seed": args.seed,
        "workers": args.workers,
        "inputSha256": hashlib.sha256(
            (input_text or "").encode()
        ).hexdigest(),
    }


def _provenance(args, input_text):
    cfg = _config_dict(args, input_text)
    return {
        "version": VERSION,
        "seed": args.seed,
        "configHash": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "config": cfg,
    }


def _read_input(args):
    if not args.input:
        return None
    try:
        return Path(args.input).read_text()
    except OSError as exc:
        raise InputError(f"cannot read input file {args.input}: {exc}") from exc


def _parse_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed {what} JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_model(text) -> ParabolicModel:
    if text is None:
        raise InputError("this subcommand requires --input (model JSON)")
    data = _parse_json(text, "model")
    try:
        return ParabolicModel.from_json_dict(data)
    except (InvalidModelError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"invalid model: {exc}") from exc


def _write(outdir: Path, name: str, content: str):
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(content)
    log.info("wrote %s", path)


def _rand_qqi(rng: random.Random) -> QQi:
    return QQi(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )


def _rand_exact_curvature(rng: random.Random, r: int, n: int) -> CurvatureMatrix:
    E = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            f = FormValue.zero(n)
            for p in range(n):
                for q in range(n):
                    f = f + FormValue.monomial(n, (p,), (q,), _rand_qqi(rng))
            if i == j:
                f = f + hermitian_partner(f)
            E[i][j] = f
            if i != j:
                E[j][i] = hermitian_partner(f)
    return CurvatureMatrix(E)


def _pmap(fn, items, workers):
    """Order-preserving map; results independent of worker count."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pardeg(args, outdir: Path):
    text = _read_input(args)
    model = _load_model(text)
    filt = my_filtration(model)
    sum_form = Fraction(model.degree) + sum(
        (w for ws in model.points.values() for w in ws), Fraction(0)
    )
    integral_form = model.rank * model.num_points + filt.integral_degree()
    report = {
        "parDeg": str(par_degree(model)),
        "slope": str(slope(model)),
        "sumForm": str(sum_form),
        "integralForm": str(integral_form),
        "formsAgree": sum_form == integral_form,
        "isParabolic": model.is_parabolic(),
        "filtrationJumps": [
            {"t": str(j.t), "rankDrop": j.rank_drop, "degreeAfter": j.degree_after}
            for j in filt.jumps
        ],
        "pass": sum_form == integral_form,
    }
    report.update(_provenance(args, text))
    return report


def _identity_rows(model: ParabolicModel, other: ParabolicModel):
    rows = []

    def check(name, ok):
        rows.append({"identity": name, "result": "PASS" if ok else "FAIL"})

    check("dual negates par-deg", par_degree(dual(model)) == -par_degree(model))
    dd = dual(dual(model))
    check(
        "double dual round trip",
        (dd.rank, dd.degree, dict(dd.points))
        == (model.rank, model.degree, dict(model.points)),
    )
    dm = det(model)
    check("det preserves par-deg", par_degree(dm) == par_degree(model) and dm.rank == 1)
    check(
        "direct sum adds par-deg",
        par_degree(direct_sum(model, other))
        == par_degree(model) + par_degree(other),
    )
    check(
        "tensor bilinear rule",
        par_degree(tensor(model, other))
        == other.rank * par_degree(model) + model.rank * par_degree(other),
    )
    return rows


def cmd_ops(args, outdir: Path):
    text = _read_input(args)
    if text is not None:
        model = _load_model(text)
    else:
        model = ParabolicModel(
            rank=2,
            degree=1,
            points={"p": (Fraction(1, 2), Fraction(1, 2))},
        )
    rows = _identity_rows(model, model)

    def sweep(i):
        rng = np.random.default_rng((args.seed, i))
        a = random_model(rng)
        # binary identities need matching point sets: run them on (a, a)
        return all(r["result"] == "PASS" for r in _identity_rows(a, a))

    sweep_ok = all(_pmap(sweep, range(args.samples), args.workers))
    rows.append(
        {
            "identity": f"randomized sweep ({args.samples} models)",
            "result": "PASS" if sweep_ok else "FAIL",
        }
    )
    ok = all(r["result"] == "PASS" for r in rows)
    report = {"model": json.loads(model.to_json()), "identities": rows, "pass": ok}
    report.update(_provenance(args, text))
    _write(
        outdir,
        "ops_identities.csv",
        "identity,result\n"
        + "\n".join(f"{r['identity']},{r['result']}" for r in rows)
        + "\n",
    )
    return report


def cmd_admissible(args, outdir: Path):
    text = _read_input(args)
    spec = _parse_json(text, "admissibility fixture") if text else {}
    N = int(spec.get("N", 3))
    dim = int(spec.get("dim", 2))
    weights = [Fraction(w) for w in spec.get("weights", ["1/3", "2/3"])]
    if any(not (0 <= w < 1) for w in weights):
        raise InputError("weights must lie in [0, 1)")
    if any((w * N).denominator != 1 for w in weights):
        raise InputError("weight denominators must divide N")
    try:
        chart = LocalChart(
            dim=dim,
            cover_degree=N,
            rho=float(spec.get("rho", 0.8)),
            annuli=int(spec.get("radialNodes", 8)),
            angular_nodes=int(spec.get("angularNodes", 16)),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    htilde = random_invariant_metric(rng, weights, chart)
    field = descend_metric(htilde, weights, chart, tol=args.tol)
    cert = admissibility_check(field)

    dev = 0.0
    for layer in chart.sample_points():
        for z in layer:
            for branch in range(N):
                w = chart.w_of_z(z, branch)
                dev = max(
                    dev,
                    float(np.abs(field.lift(z, branch) - htilde(w)).max()),
                )
    ok = bool(cert) and dev < 1e-10
    report = {
        "grid": chart.to_json_dict(),
        "weights": [str(w) for w in weights],
        "admissible": bool(cert),
        "reasons": cert.reasons,
        "cutDefect": cert.cut_defect,
        "roundTripMaxDeviation": dev,
        "pass": ok,
    }
    report.update(_provenance(args, text))
    _write(outdir, "admissible_annuli.csv", cert.csv_rows() + "\n")
    return report


def cmd_chern(args, outdir: Path):
    text = _read_input(args)
    spec = _parse_json(text, "chern config") if text else {}
    r = int(spec.get("rank", 3))
    n = int(spec.get("dim", 2))
    rng = random.Random(args.seed)

    minors_ok = True
    conj_ok = True
    segre_ok = True
    for _ in range(args.samples):
        theta = _rand_exact_curvature(rng, r, n)
        c = chern_forms(theta)
        cm = chern_forms_minors(theta)
        minors_ok &= all((c[k] - cm[k]).is_zero() for k in range(r + 1))
        # diagonal exact conjugation: Gaussian-rational stand-ins for the
        # local-model factors z^{alpha}
        d = [QQi(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(r)]
        cc = chern_forms(theta.conjugated(d))
        conj_ok &= all((c[k] - cc[k]).is_zero() for k in range(r + 1))
        s = segre_forms(c, n)
        # convolution: sum_i c_i wedge s_{k-i} = 0 for k >= 1
        for k in range(1, n + 1):
            acc = FormValue.zero(n)
            for i in range(0, min(k, r) + 1):
                acc = acc + c[i].wedge(s[k - i])
            segre_ok &= acc.is_zero()
    rows = [
        {"check": "Newton vs principal minors", "result": "PASS" if minors_ok else "FAIL"},
        {"check": "diagonal conjugation invariance", "result": "PASS" if conj_ok else "FAIL"},
        {"check": "Segre convolution inverse", "result": "PASS" if segre_ok else "FAIL"},
    ]
    ok = minors_ok and conj_ok and segre_ok
    report = {"rank": r, "dim": n, "checks": rows, "pass": bool(ok)}
    report.update(_provenance(args, text))
    return report


def cmd_pushforward(args, outdir: Path):
    text = _read_input(args)
    spec = _parse_json(text, "pushforward config") if text else {}
    c = [float(x) for x in spec.get("c", [1.0, 2.0])]
    if any(x <= 0 for x in c):
        raise InputError("coefficients c must be positive")
    closed = 1.0 / float(np.prod(c))
    quad, quad_err = scalar_fiber_integral(c, tol=args.tol)
    mc, mc_se = monte_carlo_oracle(c, budget=max(args.samples, 100) * 1000, seed=args.seed)

    rng = random.Random(args.seed)
    max_dev = 0.0
    series = []
    for i in range(max(1, args.samples // 10)):
        theta = _rand_exact_curvature(rng, 2, 2)
        s = symbolic_pushforward(theta)
        ref = segre_forms(chern_forms(theta, normalization=QQi(1)), 2)
        dev = max(float((x - y).max_abs()) for x, y in zip(s, ref))
        series.append(dev)
        max_dev = max(max_dev, dev)

    ok = (
        abs(quad - closed) < 1e-6 * max(1.0, abs(closed))
        and abs(quad - mc) <= 3 * mc_se
        and max_dev == 0.0
    )
    report = {
        "inputs": {"c": c},
        "closedForm": closed,
        "quadrature": {"value": quad, "tailBound": quad_err},
        "monteCarlo": {"estimate": mc, "stderr": mc_se},
        "maxCoeffDeviation": max_dev,
        "pass": bool(ok),
    }
    report.update(_provenance(args, text))
    _write(
        outdir,
        "pushforward_deviations.csv",
        "case,maxCoeffDeviation\n"
        + "\n".join(f"{i},{d:.3e}" for i, d in enumerate(series))
        + "\n",
    )
    return report


def _masolve_problem(spec):
    if "c1Csv" in spec:
        r = int(spec.get("rank", 2))
        c1 = TorusField.load_csv(spec["c1Csv"], "(1,1)")
        c2 = TorusField.load_csv(spec["c2Csv"], "(2,2)")
        eta = TorusField.load_csv(spec["etaCsv"], "(2,2)")
        return MAProblem(r, c1, c2, eta)
    fixture = spec.get("fixture", "constant")
    M = int(spec.get("M", 64))
    r = int(spec.get("rank", 2))
    if fixture == "constant":
        c1 = np.broadcast_to(r * np.eye(2), (M, M, 2, 2)).copy()
        c2 = np.full((M, M), 1.5)
        eta = np.full((M, M), 1.0)
    elif fixture == "perturbed":
        eps = float(spec.get("eps", 0.1))
        x1, _ = grid_coordinates(M)
        c1 = np.broadcast_to(r * np.eye(2), (M, M, 2, 2)).copy()
        kl = np.full((M, M), 0.4)
        c2 = (2 * r * kl + (r - 1) * wedge_density(c1, c1)) / (2 * r)
        eta = 1 + eps * np.cos(2 * np.pi * x1)
    elif fixture == "hermite-einstein":
        x1, x2 = grid_coordinates(M)
        psi = 0.05 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
        c1 = r * (
            np.broadcast_to(np.eye(2), (M, M, 2, 2)).copy() + ddc_potential(psi)
        )
        c2 = (r - 1) / (2 * r) * wedge_density(c1, c1) + 0.3 * (
            1 + 0.2 * np.cos(2 * np.pi * x2)
        )
        eta = 1.0 + 0.1 * np.cos(2 * np.pi * x1)
    else:
        raise InputError(f"unknown fixture {fixture!r}")
    return MAProblem(
        r,
        TorusField("(1,1)", c1),
        TorusField("(2,2)", c2),
        TorusField("(2,2)", eta),
    )


def cmd_masolve(args, outdir: Path):
    text = _read_input(args)
    spec = _parse_json(text, "masolve config") if text else {}
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
        "finalResidual": diag.residuals[-1],
        "maxConservationDefect": max(diag.conservation),
        "conclusion": rep.to_json_dict(),
        "pass": bool(ok),
    }
    report.update(_provenance(args, text))
    _write(
        outdir,
        "masolve_residuals.csv",
        "iteration,residual,minEig,conservation\n"
        + "\n".join(
            f"{i},{r:.6e},{e:.6e},{c:.3e}"
            for i, (r, e, c) in enumerate(
                zip(diag.residuals, diag.min_eigs, diag.conservation)
            )
        )
        + "\n",
    )
    return report


def cmd_all(args, outdir: Path):
    sub = {}
    ok = True
    for name, fn in (
        ("ops", cmd_ops),
        ("admissible", cmd_admissible),
        ("chern", cmd_chern),
        ("pushforward", cmd_pushforward),
        ("masolve", cmd_masolve),
    ):
        sub_args = argparse.Namespace(**vars(args))
        sub_args.subcommand = name
        sub_args.input = None
        rep = fn(sub_args, outdir)
        _write(outdir, f"{name}_report.json", _canonical(rep))
        sub[name] = rep["pass"]
        ok &= rep["pass"]
    report = {"suites": sub, "pass": bool(ok)}
    report.update(_provenance(args, None))
    return report


COMMANDS = {
    "pardeg": cmd_pardeg,
    "ops": cmd_ops,
    "admissible": cmd_admissible,
    "chern": cmd_chern,
    "pushforward": cmd_pushforward,
    "masolve": cmd_masolve,
    "all": cmd_all,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parachern",
        description="verification suites for parabolic-bundle curvature computations",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = subs.add_parser(name)
        p.add_argument("--input", help="input JSON file (format per subcommand)")
        p.add_argument("--out", default=".", help="output directory for reports")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("PARACHERN_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    outdir = Path(args.out)
    try:
        report = COMMANDS[args.subcommand](args, outdir)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        InvarianceError,
        GridError,
        HypothesisError,
        ConvergenceError,
        QuadratureError,
        InvalidModelError,
        ArithmeticError,
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write(outdir, f"{args.subcommand}_report.json", _canonical(report))
    print(f"{args.subcommand}: {'PASS' if report['pass'] else 'FAIL'}")
    return EXIT_PASS if report["pass"] else EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
