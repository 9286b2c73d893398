"""Workload ``ma-grid``: the surface Monge-Ampere solve on the torus model.

Each field is a seeded smooth curvature coefficient field theta[x, y, a, b,
p, q] of rank 2 or 3 on an M x M grid:

* diagonal blocks  theta_aa = b_a Id + (1/4) Hess psi_a, with b_a uniform in
  [0.9, 1.1] and psi_a a random trigonometric polynomial with wavevectors
  |k_i| <= 2, scaled so that max |(1/4) Hess psi_a| = 0.1 (so c_1 is closed);
* off-diagonal blocks  theta_ab = theta_ba  symmetric, smooth, of size 0.05;
* eta = 1 + 0.3 u with u a random trigonometric polynomial, max |u| = 1.

Every field goes through ``MAProblem.from_theta``, ``normalize_problem``,
``solve(tol=1e-10)``, ``verify_conclusion`` and ``chern_crosscheck`` on the
nodes of stride M/8.  This is the FFT and GMRES Newton work; the crosscheck
runs ``forms`` in float mode.
"""

from __future__ import annotations

import numpy as np

from parachern.masolver import (
    MAProblem,
    TorusField,
    chern_crosscheck,
    normalize_problem,
    solve,
    verify_conclusion,
)

from common import Op

MODULES = ("parachern.masolver", "parachern.forms")

# (grid size M, rank r) of the fields of one round
FIELDS = ((64, 2), (64, 3), (128, 2), (128, 3))
SOLVE_TOL = 1e-10
RESIDUAL_LIMIT = 1e-9  # sup |r(r+1) det g - F| recomputed by the benchmark
SCHUR_LIMIT = 1e-8     # relative, for c_1(G)^2 - c_2(G) = eta
MEAN_LIMIT = 1e-12     # |mean phi|
CROSSCHECK_LIMIT = 1e-9


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _trig(rng, M, kmax=2):
    """Random real trigonometric polynomial on the unit torus, with its
    analytic Hessian."""
    x = np.arange(M) / M
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    val = np.zeros((M, M))
    hess = np.zeros((M, M, 2, 2))
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(0, kmax + 1):
            if k2 == 0 and k1 <= 0:
                continue
            a, b = rng.normal(size=2) / (k1 * k1 + k2 * k2)
            arg = 2 * np.pi * (k1 * X1 + k2 * X2)
            term = a * np.cos(arg) + b * np.sin(arg)
            val += term
            k = 2 * np.pi * np.array([k1, k2], dtype=float)
            hess -= term[..., None, None] * np.outer(k, k)
    return val, hess


def make_field(rng, M: int, r: int):
    """theta[x, y, a, b, p, q] and the raw eta density."""
    theta = np.zeros((M, M, r, r, 2, 2))
    for a in range(r):
        base = rng.uniform(0.9, 1.1)
        _, hess = _trig(rng, M)
        ddc = 0.25 * hess
        theta[:, :, a, a] = base * np.eye(2) + 0.1 * ddc / np.abs(ddc).max()
        for b in range(a + 1, r):
            block = np.empty((M, M, 2, 2))
            for p, q in ((0, 0), (1, 1), (0, 1)):
                u, _ = _trig(rng, M)
                block[..., p, q] = 0.05 * u / np.abs(u).max()
            block[..., 1, 0] = block[..., 0, 1]
            theta[:, :, a, b] = block
            theta[:, :, b, a] = block
    u, _ = _trig(rng, M)
    eta = 1.0 + 0.3 * u / np.abs(u).max()
    return theta, eta


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def fft_hessian(phi: np.ndarray) -> np.ndarray:
    """D_j D_k phi through the real FFT (the benchmark's own Hessian)."""
    M = phi.shape[0]
    k1 = 2 * np.pi * np.fft.fftfreq(M, 1.0 / M)[:, None]
    k2 = 2 * np.pi * np.fft.rfftfreq(M, 1.0 / M)[None, :]
    ph = np.fft.rfft2(phi)
    out = np.empty((M, M, 2, 2))
    for (j, k), sym in (((0, 0), k1 * k1), ((1, 1), k2 * k2), ((0, 1), k1 * k2)):
        out[..., j, k] = np.fft.irfft2(-sym * ph, s=(M, M))
    out[..., 1, 0] = out[..., 0, 1]
    return out


def wedge(a, b):
    """Density of the wedge of two (1,1) coefficient fields."""
    return (a[..., 0, 0] * b[..., 1, 1] + a[..., 1, 1] * b[..., 0, 0]
            - a[..., 0, 1] * b[..., 1, 0] - a[..., 1, 0] * b[..., 0, 1])


def chern_densities(theta):
    """c_1 coefficient field and c_2 density of a block curvature field."""
    r = theta.shape[2]
    c1 = sum(theta[:, :, a, a] for a in range(r))
    c2 = np.zeros(theta.shape[:2])
    for a in range(r):
        for b in range(a + 1, r):
            c2 += wedge(theta[:, :, a, a], theta[:, :, b, b])
            c2 -= wedge(theta[:, :, a, b], theta[:, :, b, a])
    return c1, c2


def check_solution(theta, eta_raw, phi, kappa) -> list:
    """Problems with the solution phi of the rescaled problem; empty when
    the residual, positivity, Schur identity and mean-zero checks hold."""
    problems = []
    r = theta.shape[2]
    c1, c2 = chern_densities(theta)
    eta = kappa * eta_raw
    F = eta + (2 * r * c2 - (r - 1) * wedge(c1, c1)) / (2 * r)
    det_c1 = c1[..., 0, 0] * c1[..., 1, 1] - c1[..., 0, 1] * c1[..., 1, 0]
    compat = abs(F.mean() - (r + 1) / r * det_c1.mean())
    if compat > 1e-10 * np.abs(F).max():
        problems.append(f"eta rescale not Calabi-compatible (defect {compat:.2e})")
    ddc = 0.25 * fft_hessian(phi)
    g = c1 / r + ddc
    res = np.abs(r * (r + 1) * (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2) - F).max()
    if not res <= RESIDUAL_LIMIT:
        problems.append(f"Monge-Ampere residual {res:.2e} > {RESIDUAL_LIMIT:.0e}")
    theta_G = theta.copy()
    for a in range(r):
        theta_G[:, :, a, a] += ddc
    c1G, c2G = chern_densities(theta_G)
    tr = c1G[..., 0, 0] + c1G[..., 1, 1]
    det = c1G[..., 0, 0] * c1G[..., 1, 1] - c1G[..., 0, 1] * c1G[..., 1, 0]
    if not (tr.min() > 0 and det.min() > 0):
        problems.append("c_1(G) not positive definite at every node")
    if not c2G.min() > 0:
        problems.append("c_2(G) not positive at every node")
    schur = wedge(c1G, c1G) - c2G
    dev = np.abs(schur - eta).max()
    if not dev <= SCHUR_LIMIT * max(1.0, np.abs(eta).max()):
        problems.append(f"c_1(G)^2 - c_2(G) differs from eta by {dev:.2e}")
    if not abs(phi.mean()) <= MEAN_LIMIT:
        problems.append(f"phi has mean {phi.mean():.2e}")
    return problems


# ---------------------------------------------------------------------------
# operation
# ---------------------------------------------------------------------------


def solve_steps(theta, eta_raw) -> list:
    """The steps of one field, each a separate timed program call."""
    M, r = theta.shape[0], theta.shape[2]
    return [
        ("problem", lambda res: normalize_problem(
            MAProblem.from_theta(r, theta, TorusField("(2,2)", eta_raw)))),
        ("solved", lambda res: solve(res["problem"], tol=SOLVE_TOL)),
        ("report", lambda res: verify_conclusion(res["solved"][0], res["problem"])),
        ("crosscheck", lambda res: chern_crosscheck(
            res["problem"], res["solved"][0].data, theta, stride=M // 8)),
    ]


def check_field(theta, eta_raw, out) -> list:
    problems = []
    phi, diag = out["solved"]
    rep = out["report"]
    if not (diag.converged and rep.c1_positive and rep.c2_positive
            and rep.schur_positive):
        problems.append("solver or verify_conclusion reports failure")
    if not out["crosscheck"] <= CROSSCHECK_LIMIT:
        problems.append(f"chern_crosscheck deviation {out['crosscheck']:.2e}")
    return problems + check_solution(theta, eta_raw, phi.data, out["problem"].eta_scale)


class Workload:
    name = "ma-grid"
    modules = MODULES

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for M, r in FIELDS:
            theta, eta = make_field(rng, M, r)
            self.ops.append(Op(
                f"masolve M={M} r={r}", solve_steps(theta, eta),
                lambda out, theta=theta, eta=eta: check_field(theta, eta, out),
            ))

    def trace_targets(self, tracer):
        import parachern.forms as forms
        import parachern.masolver as masolver
        tracer.wrap(masolver, "solve", "masolver.solve_s",
                    lambda args, kw: f"masolver.solve_s.M{args[0].grid}")
        for fn in ("normalize_problem", "verify_conclusion", "chern_crosscheck"):
            tracer.wrap(masolver, fn, f"masolver.{fn}_s")
        for fn in ("chern_forms", "segre_forms"):
            tracer.wrap(forms, fn, f"forms.{fn}_s")
        tracer.wrap(forms.FormValue, "wedge", "forms.wedge_us")

    def round_counts(self, outputs) -> dict:
        return {"masolver.newton_iters": sum(
            out["solved"][1].iterations for out in outputs if out is not None)}
