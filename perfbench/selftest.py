"""Self-test of the benchmark's output checks.

Every check must accept the program's real output and reject a copy of it
with one deliberate fault: one wrong coefficient, a residual off by about
1e-6, a shifted quadrature value, and so on.  This shows that no check
passes vacuously.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It prints one line per case and exits 0 when every check behaves, 1 when
one does not.  It takes a few seconds and, like the benchmark, peaks near
1 GB in the rank-4 quadrature of ``pushforward``.
"""

from __future__ import annotations

import os

from common import THREAD_ENV

os.environ.update(THREAD_ENV)

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import cli_suite as cs  # noqa: E402
import exact_algebra as ea  # noqa: E402
import ma_grid as mg  # noqa: E402
from parachern import cli  # noqa: E402
from parachern.forms import FormValue, QQi  # noqa: E402

RESULTS: list = []


def expect(name: str, problems: list, needle: str | None) -> None:
    """``needle`` None: the check must find nothing.  Otherwise one of the
    problems it reports must contain ``needle``."""
    ok = not problems if needle is None else any(needle in p for p in problems)
    RESULTS.append(ok)
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {name}: {problems[:2] if problems else 'accepted'}")


def run_steps(steps) -> dict:
    results = {}
    for key, call in steps:
        results[key] = call(results)
    return results


def bumped(f: FormValue) -> FormValue:
    """``f`` with its first coefficient changed by 1/7."""
    coeffs = dict(f.coeffs)
    key = next(iter(coeffs))
    coeffs[key] = coeffs[key] + QQi(Fraction(1, 7))
    return FormValue(f.dim, coeffs)


def bump_chern(c, k: int):
    forms = list(c.forms)
    forms[k] = bumped(forms[k])
    return dataclasses.replace(c, forms=tuple(forms))


def exact_algebra_cases() -> None:
    rng = random.Random("selftest")
    theta = ea.random_hermitian_curvature(rng, 3, 2)
    d = [ea._rand_gauss(rng) for _ in range(3)]
    steps = ea.chern_steps(theta, d, ea.partitions_that_fit(3, 2))
    out = run_steps(steps)
    expect("chern, general: real output", ea.check_chern_case(out), None)
    expect("chern: one wrong coefficient of c_1",
           ea.check_chern_case(dict(out, c=bump_chern(out["c"], 1))), "principal minors")
    expect("chern: one wrong coefficient after conjugation",
           ea.check_chern_case(dict(out, conjugated=bump_chern(out["conjugated"], 2))),
           "diagonal conjugation")
    bad = dict(out, segre=[out["segre"][0], bumped(out["segre"][1])] + out["segre"][2:])
    bad["convolution"] = dict(steps)["convolution"](bad)
    expect("chern: one wrong Segre coefficient", ea.check_chern_case(bad),
           "Segre convolution")

    omega = ea._hermitian_scalar_matrix(rng, 2)
    A = ea._hermitian_scalar_matrix(rng, 3)
    theta = ea.omega_times_matrix(omega, A)
    out = run_steps(ea.chern_steps(theta, [(1, 0)] * 3, ea.partitions_that_fit(3, 2)))
    closed = (omega, A)
    expect("chern, omega*A: real output", ea.check_chern_case(out, closed), None)
    # the same wrong coefficient everywhere, so that only the closed form sees it
    same = {key: bump_chern(out[key], 1) for key in ("c", "minors", "conjugated")}
    expect("chern, omega*A: c_1 wrong in every output",
           ea.check_chern_case(dict(out, **same), closed), "c_1 != e_1(A)")
    lam = next(iter(out["schur"]))
    expect("chern, omega*A: one wrong Schur coefficient",
           ea.check_chern_case(dict(out, schur={**out["schur"], lam: bumped(out["schur"][lam])}),
                               closed), "S_")
    bad = dict(out, segre=[out["segre"][0], bumped(out["segre"][1])] + out["segre"][2:])
    expect("chern, omega*A: one wrong Segre coefficient",
           ea.check_chern_case(bad, closed), "s_1 != (-1)^1 h_1(A)")

    out = run_steps(ea.pushforward_steps(ea.random_hermitian_curvature(rng, 2, 2)))
    expect("push-forward: real output", ea.check_pushforward_case(out), None)
    expect("push-forward: one wrong coefficient",
           ea.check_pushforward_case(dict(out, pushforward=[out["pushforward"][0], bumped(out["pushforward"][1])] + out["pushforward"][2:])),
           "push-forward s_1")


def ma_grid_cases() -> None:
    rng = np.random.default_rng([0, 2])
    M, r = 64, 2
    theta, eta = mg.make_field(rng, M, r)
    out = run_steps(mg.solve_steps(theta, eta))
    expect("ma-grid: real output", mg.check_field(theta, eta, out), None)
    phi, diag = out["solved"]
    kappa = out["problem"].eta_scale
    x = np.arange(M) / M
    wave = np.cos(2 * np.pi * x)[:, None] * np.ones(M)[None, :]
    # (1/4) Hess of eps*wave is about pi^2 eps, and r(r+1) det scales it by ~r(r+1)
    eps = 1e-6 / (r * (r + 1) * np.pi ** 2)
    expect("ma-grid: residual off by about 1e-6",
           mg.check_solution(theta, eta, phi.data + eps * wave, kappa), "residual")
    expect("ma-grid: phi with mean 1e-9",
           mg.check_solution(theta, eta, phi.data + 1e-9, kappa), "mean")
    expect("ma-grid: eta rescaled by 1 + 1e-6",
           mg.check_solution(theta, eta, phi.data, kappa * (1 + 1e-6)), "differs from eta")
    expect("ma-grid: phi with a large concave wave",
           mg.check_solution(theta, eta, phi.data + wave, kappa), "c_1(G) not positive")
    strong = theta.copy()
    strong[:, :, 0, 1] *= 100
    strong[:, :, 1, 0] *= 100
    expect("ma-grid: off-diagonal curvature 100 times larger",
           mg.check_solution(strong, eta, phi.data, kappa), "c_2(G) not positive")
    expect("ma-grid: solver reports no convergence",
           mg.check_field(theta, eta, dict(out, solved=(phi, dataclasses.replace(diag, converged=False)))),
           "solver or verify_conclusion")
    expect("ma-grid: crosscheck deviation 1e-6",
           mg.check_field(theta, eta, dict(out, crosscheck=1e-6)), "chern_crosscheck")


def cli_suite_cases(workdir: Path) -> None:
    cs.OPS_SAMPLES = 20  # short sweeps; run and check read the same constant
    wl = cs.Workload(1, workdir)
    reports = {}
    for op in wl.ops:
        try:
            reports[op.name] = run_steps(op.steps)["out"]
        except cs.ProgramFailure:
            reports[op.name] = None
    for op in wl.ops:
        if reports[op.name] is not None:
            expect(f"cli {op.name}: real output", op.check({"out": reports[op.name]}), None)

    def check(name, report):
        op = next(o for o in wl.ops if o.name == name)
        return op.check({"out": report})

    rep = reports["pardeg 0"]
    expect("cli pardeg: parDeg off by 1/12",
           check("pardeg 0", dict(rep, parDeg=str(Fraction(rep["parDeg"]) + Fraction(1, 12)))),
           "parDeg")
    rep = reports["ops 0"]
    rows = [dict(rep["identities"][0], result="FAIL")] + rep["identities"][1:]
    expect("cli ops: one identity FAIL", check("ops 0", dict(rep, identities=rows)), "identity")
    rep = reports["admissible N=4"]
    expect("cli admissible: not admissible",
           check("admissible N=4", dict(rep, admissible=False)), "not admissible")
    expect("cli admissible: round-trip deviation 1e-9",
           check("admissible N=4", dict(rep, roundTripMaxDeviation=1e-9)), "round-trip")
    name = f"pushforward c={cs.PUSHFORWARD_CS[1]}"
    rep = reports[name]
    quad = dict(rep["quadrature"], value=rep["quadrature"]["value"] * (1 + 1e-5))
    expect("cli pushforward: quadrature shifted by 1e-5 relative",
           check(name, dict(rep, quadrature=quad)), "quadrature")
    mc = dict(rep["monteCarlo"], estimate=rep["monteCarlo"]["estimate"] + 10 * rep["monteCarlo"]["stderr"])
    expect("cli pushforward: Monte Carlo shifted by 10 standard errors",
           check(name, dict(rep, monteCarlo=mc)), "Monte Carlo")
    expect("cli pushforward: symbolic deviation",
           check(name, dict(rep, maxCoeffDeviation=1.0)), "symbolic")

    # the known fault: the program exits 1, and the benchmark's own check
    # rejects the quadrature in the report it writes
    fault = f"pushforward c={cs.FAULT_C}"
    expect("cli pushforward fault case: the program fails",
           [] if reports[fault] is None else ["exit 0"], None)
    outdir = workdir / "fault"
    outdir.mkdir()
    (outdir / "input.json").write_text(json.dumps({"c": cs.FAULT_C}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["pushforward", "--input", str(outdir / "input.json"), "--out", str(outdir),
                         "--seed", str(cs.PUSHFORWARD_SEED), "--samples", str(cs.PUSHFORWARD_SAMPLES)])
    rep = json.loads((outdir / "pushforward_report.json").read_text())
    expect(f"cli pushforward fault case (exit {code}): benchmark check",
           cs.check_pushforward(cs.FAULT_C, rep), "quadrature")


def main() -> int:
    exact_algebra_cases()
    ma_grid_cases()
    workdir = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cli_suite_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} cases behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
