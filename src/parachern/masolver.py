"""Surface Monge-Ampere solver on a flat torus model.

Model reduction: the compact surface is replaced by a flat model with two
complex coordinates z_j = x_j + i y_j whose data depend on the two real
coordinates (x_1, x_2) only, both of period 1 (the real 4-torus reduced to
an M x M grid).  A real (1,1)-form is stored as its Hermitian 2x2
coefficient field g with respect to the normalized frame (i/2pi) dz_j dzbar_k,
so positivity is g > 0 and dd^c phi has coefficient field (1/4) Hess phi
(for x-only data, d/dz_j d/dzbar_k = (1/4) D_j D_k).  A (2,2)-form is stored
as its density against the normalized volume form; the wedge of two (1,1)
fields has density a_00 b_11 + a_11 b_00 - a_01 b_10 - a_10 b_01, so the
square of a (1,1) field g has density 2 det(g).

The equation solved, for a rank-r bundle with a conformal change
G = H e^{-phi}:

    (r(r+1)/2) (dd^c phi + c_1(H)/r)^2 = eta + (2r c_2(H) - (r-1) c_1(H)^2)/(2r)

which in density form reads  r(r+1) det(g) = F  with g = c_1(H)/r + dd^c phi.

Differentiation is spectral (FFT), so exactness of dd^c phi is exact up to
roundoff and the total mass of det(g) is conserved at every iterate; the
finite-difference Hessian is provided only for grid-refinement studies.

The solver is a damped inexact Newton-Krylov iteration on the rfft2
coefficients of phi, so that no rounded grid phi is ever differentiated
(Boyd, Chebyshev and Fourier Spectral Methods, ch. 9).  Each Newton step
solves J delta = -R only as far as an Eisenstat-Walker forcing term asks,
by restarted GMRES with right preconditioning: the preconditioner P is the
spectral inverse of J's constant-coefficient part at the mean metric, and
J P is applied in Fourier space with real FFTs.  J is not self-adjoint
when c_1 is not closed, so GMRES serves every input.  The outer test is the
sup-norm residual at the nodes; a tol below the roundoff floor, which does
not depend on M, is reported as such.

chern_crosscheck checks the closed formulas of conformal_fields through
forms.chern_forms, in one call whose coefficients are arrays over the nodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .forms import CurvatureMatrix, chern_forms


class HypothesisError(RuntimeError):
    """Solvability hypothesis (pointwise positive right side) fails."""


class ConvergenceError(RuntimeError):
    """Damped Newton failed to reach the requested residual."""


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------

_KINDS = ("scalar", "(1,1)", "(2,2)")


@dataclass
class TorusField:
    """Periodic field on the M x M grid x_i = n_i / M.

    kind 'scalar' and '(2,2)' hold an (M, M) array ('(2,2)' is a density
    against the normalized volume form); '(1,1)' holds an (M, M, 2, 2)
    Hermitian coefficient field."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        self.data = np.asarray(self.data, dtype=float)
        if not np.isfinite(self.data).all():
            raise ValueError("field data must be finite")
        want = 4 if self.kind == "(1,1)" else 2
        if self.data.ndim != want or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("field data has the wrong shape")
        if self.kind == "(1,1)":
            if self.data.shape[2:] != (2, 2):
                raise ValueError("(1,1) field needs 2x2 coefficient matrices")
            if not np.allclose(self.data, np.swapaxes(self.data, 2, 3)):
                raise ValueError("(1,1) coefficient field must be symmetric")

    @property
    def grid(self) -> int:
        return self.data.shape[0]

    def mean(self):
        return self.data.mean(axis=(0, 1))

    # -- I/O: row-major CSV ---------------------------------------------------

    @classmethod
    def load_csv(cls, path, kind) -> "TorusField":
        flat = np.loadtxt(path, delimiter=",", ndmin=2)
        M = flat.shape[0]
        shape = (M, M, 2, 2) if kind == "(1,1)" else (M, M)
        return cls(kind, flat.reshape(shape))


def grid_coordinates(M: int):
    x = np.arange(M) / M
    return np.meshgrid(x, x, indexing="ij")


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def _wavenumbers(M: int):
    return 2 * np.pi * np.fft.fftfreq(M, d=1.0 / M)


def spectral_hessian(phi: np.ndarray) -> np.ndarray:
    """H[..., j, k] = D_j D_k phi by FFT; exact for band-limited data."""
    M = phi.shape[0]
    k = _wavenumbers(M)
    k1 = k[:, None]
    k2 = k[None, :]
    ph = np.fft.fft2(phi)
    H = np.empty(phi.shape + (2, 2))
    H[..., 0, 0] = np.fft.ifft2(-(k1**2) * ph).real
    H[..., 1, 1] = np.fft.ifft2(-(k2**2) * ph).real
    H[..., 0, 1] = np.fft.ifft2(-(k1 * k2) * ph).real
    H[..., 1, 0] = H[..., 0, 1]
    return H


def fd_hessian(phi: np.ndarray) -> np.ndarray:
    """Second-order centered periodic Hessian (refinement studies only)."""
    M = phi.shape[0]
    h = 1.0 / M

    def d2(a, axis):
        return (np.roll(a, -1, axis) - 2 * a + np.roll(a, 1, axis)) / h**2

    def d1(a, axis):
        return (np.roll(a, -1, axis) - np.roll(a, 1, axis)) / (2 * h)

    H = np.empty(phi.shape + (2, 2))
    H[..., 0, 0] = d2(phi, 0)
    H[..., 1, 1] = d2(phi, 1)
    H[..., 0, 1] = d1(d1(phi, 0), 1)
    H[..., 1, 0] = H[..., 0, 1]
    return H


def ddc_potential(phi: np.ndarray) -> np.ndarray:
    """(1,1) coefficient field of dd^c phi = (i/2pi) del delbar phi for
    x-only data: one quarter of the real Hessian."""
    return 0.25 * spectral_hessian(phi)


def wedge_density(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Density of the wedge of two (1,1) coefficient fields."""
    return (
        a[..., 0, 0] * b[..., 1, 1]
        + a[..., 1, 1] * b[..., 0, 0]
        - a[..., 0, 1] * b[..., 1, 0]
        - a[..., 1, 0] * b[..., 0, 1]
    )


def det_field(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def min_eigenvalue(g: np.ndarray) -> np.ndarray:
    tr = g[..., 0, 0] + g[..., 1, 1]
    disc = np.sqrt(
        np.maximum((g[..., 0, 0] - g[..., 1, 1]) ** 2 + 4 * g[..., 0, 1] * g[..., 1, 0], 0.0)
    )
    return 0.5 * (tr - disc)


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------


@dataclass
class MAProblem:
    """rank r, background c_1(H) coefficient field, c_2(H) density,
    target eta density; F = eta + (2r c_2 - (r-1) c_1^2)/(2r)."""

    rank: int
    c1: TorusField
    c2: TorusField
    eta: TorusField
    eta_scale: float = 1.0
    normalized: bool = False

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if (self.c1.kind, self.c2.kind, self.eta.kind) != ("(1,1)", "(2,2)", "(2,2)"):
            raise ValueError("c1 must be (1,1); c2 and eta must be (2,2)")
        if not (self.c1.grid == self.c2.grid == self.eta.grid):
            raise ValueError("grids disagree")
        if min_eigenvalue(self.c1.mean()[None, None]) .min() <= 0:
            raise ValueError("c1 background must have positive mean")

    @property
    def grid(self) -> int:
        return self.c1.grid

    def kl_density(self) -> np.ndarray:
        """(2r c_2 - (r-1) c_1^2) / (2r) as a density field."""
        r = self.rank
        c1sq = wedge_density(self.c1.data, self.c1.data)
        return (2 * r * self.c2.data - (r - 1) * c1sq) / (2 * r)

    def rhs(self) -> np.ndarray:
        return self.eta.data + self.kl_density()

    def calabi_target(self) -> float:
        """r(r+1) mean det(c_1/r), the mean that F must have."""
        r = self.rank
        return (r + 1) / r * det_field(self.c1.data).mean()

    def compatibility_defect(self) -> float:
        """| mean F - r(r+1) mean det(c_1/r) | (zero iff Calabi-compatible)."""
        return abs(self.rhs().mean() - self.calabi_target())

    @classmethod
    def from_theta(cls, rank, theta: np.ndarray, eta: TorusField) -> "MAProblem":
        """Build c_1, c_2 fields from a full curvature coefficient field
        theta[x, y, a, b, p, q] (entry (a,b) of the normalized curvature,
        coefficient of dz_p dzbar_q)."""
        r = rank
        if theta.shape[2:] != (r, r, 2, 2):
            raise ValueError("theta field has the wrong shape")
        c1 = np.einsum("xyaapq->xypq", theta)
        c1 = 0.5 * (c1 + np.swapaxes(c1, 2, 3))
        c2 = np.zeros(theta.shape[:2])
        for a in range(r):
            for b in range(a + 1, r):
                c2 += wedge_density(theta[:, :, a, a], theta[:, :, b, b])
                c2 -= wedge_density(theta[:, :, a, b], theta[:, :, b, a])
        return cls(r, TorusField("(1,1)", c1), TorusField("(2,2)", c2), eta)


def normalize_problem(raw: MAProblem) -> MAProblem:
    """Rescale eta by the unique positive constant making the problem
    Calabi-compatible: mean(eta*kappa + KL) = r(r+1) mean det(c_1/r).
    Rejects if eta, the Schur form the conclusion asserts positive, the raw
    right side or the rescaled right side is not positive pointwise."""
    if (eta_min := raw.eta.data.min()) <= 0:
        raise HypothesisError(f"eta must be positive pointwise, got min {eta_min:.3e}")
    if raw.rhs().min() <= 0:
        raise HypothesisError("right side F must be positive pointwise")
    kappa = (raw.calabi_target() - raw.kl_density().mean()) / raw.eta.data.mean()
    if kappa <= 0:
        raise HypothesisError("no positive rescale achieves compatibility")
    scaled = replace(
        raw,
        eta=TorusField("(2,2)", kappa * raw.eta.data),
        eta_scale=kappa,
        normalized=True,
    )
    if scaled.rhs().min() <= 0:
        raise HypothesisError("rescaled right side lost positivity")
    return scaled


# The "constant" fixture's right side is F = 2.5 - r(r - 1), positive only
# up to this rank.
CONSTANT_FIXTURE_MAX_RANK = 2


def fixture_problem(fixture: str, M: int, r=2, eps=0.1) -> MAProblem:
    """The built-in raw problem of rank r on the M x M grid: "constant"
    (c_1 = r I, c_2 = 1.5, eta = 1; rank at most
    CONSTANT_FIXTURE_MAX_RANK), "perturbed" (c_1 = r I, eta = 1 + eps
    cos 2 pi x_1) or "hermite-einstein" (c_1 = r (I + dd^c psi), psi small).
    Raises ValueError for an unknown fixture or a rank it cannot serve."""
    if fixture == "constant":
        if r > CONSTANT_FIXTURE_MAX_RANK:
            raise ValueError(f"fixture 'constant' takes rank at most {CONSTANT_FIXTURE_MAX_RANK}"
                             f" (its right side 2.5 - r(r - 1) is not positive above it),"
                             f" got {r}")
        c1 = np.broadcast_to(r * np.eye(2), (M, M, 2, 2)).copy()
        c2 = np.full((M, M), 1.5)
        eta = np.full((M, M), 1.0)
    elif fixture == "perturbed":
        x1, _ = grid_coordinates(M)
        c1 = np.broadcast_to(r * np.eye(2), (M, M, 2, 2)).copy()
        kl = np.full((M, M), 0.4)
        c2 = (2 * r * kl + (r - 1) * wedge_density(c1, c1)) / (2 * r)
        eta = 1 + eps * np.cos(2 * np.pi * x1)
    elif fixture == "hermite-einstein":
        x1, x2 = grid_coordinates(M)
        psi = 0.05 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
        c1 = r * (np.broadcast_to(np.eye(2), (M, M, 2, 2)).copy() + ddc_potential(psi))
        c2 = (r - 1) / (2 * r) * wedge_density(c1, c1) + 0.3 * (1 + 0.2 * np.cos(2 * np.pi * x2))
        eta = 1.0 + 0.1 * np.cos(2 * np.pi * x1)
    else:
        raise ValueError(f"unknown fixture {fixture!r}")
    return MAProblem(r, TorusField("(1,1)", c1), TorusField("(2,2)", c2), TorusField("(2,2)", eta))


# ---------------------------------------------------------------------------
# damped inexact Newton solver
# ---------------------------------------------------------------------------

GMRES_RESTART = 20  # Arnoldi steps between GMRES restarts
GMRES_MAX_ITERATIONS = 200  # Arnoldi steps of one inner solve


@dataclass
class SolveDiagnostics:
    iterations: int
    residuals: list = field(default_factory=list)
    damping: list = field(default_factory=list)
    min_eigs: list = field(default_factory=list)
    conservation: list = field(default_factory=list)
    gmres: list = field(default_factory=list)  # GMRES steps of each Newton step
    converged: bool = False


def _residual(problem: MAProblem, g: np.ndarray, F: np.ndarray) -> np.ndarray:
    r = problem.rank
    return r * (r + 1) * det_field(g) - F


def _gmres(apply, b: np.ndarray, rtol: float):
    """Solve apply(x) = b for vectors b to ||b - apply(x)|| <= rtol ||b||
    by GMRES (Saad and Schultz 1986), restarted every GMRES_RESTART steps,
    with the Hessenberg least-squares problem kept triangular by Givens
    rotations.  Returns (x, number of Arnoldi steps)."""
    m = GMRES_RESTART
    target = rtol * np.linalg.norm(b)
    x = np.zeros_like(b)
    r, steps = b, 0
    while (beta := np.linalg.norm(r)) > target:
        V = np.empty((m + 1, b.size))
        H = np.zeros((m + 1, m))
        cs, sn, s = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        V[0], s[0] = r / beta, beta
        for j in range(m):
            w = apply(V[j])
            steps += 1
            for _ in range(2):  # classical Gram-Schmidt, done twice
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                H[: j + 1, j] += h
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] > 0:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                H[i, j], H[i + 1, j] = (
                    cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                    cs[i] * H[i + 1, j] - sn[i] * H[i, j],
                )
            rho = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            H[j, j], H[j + 1, j] = rho, 0.0
            s[j], s[j + 1] = cs[j] * s[j], -sn[j] * s[j]
            if abs(s[j + 1]) <= target or steps == GMRES_MAX_ITERATIONS:
                break
        k = j + 1
        x = x + np.linalg.solve(np.triu(H[:k, :k]), s[:k]) @ V[:k]
        if abs(s[k]) <= target:
            break
        if steps == GMRES_MAX_ITERATIONS:
            raise ConvergenceError(
                f"inner linear solve stalled after {steps} GMRES steps"
            )
        r = b - apply(x)
    return x, steps


def _hessian_symbols(M: int) -> np.ndarray:
    """rfft2 symbols of (D_0 D_0, D_0 D_1, D_1 D_1), shape (2, 3, M, M//2+1),
    at both signs of the Nyquist wavenumber (only an even M has one).  Their
    mean is how spectral_hessian acts on a real field."""
    k = _wavenumbers(M)
    k_flip = k.copy()
    if M % 2 == 0:
        k_flip[M // 2] *= -1
    return np.stack([
        -np.stack(np.broadcast_arrays(k1 * k1, k1 * k2, k2 * k2))
        for k1, k2 in ((q[:, None], q[None, : M // 2 + 1]) for q in (k, k_flip))
    ])


def _preconditioned_jacobian(problem: MAProblem, g: np.ndarray, symbols: np.ndarray):
    """(J P, P_hat) at the metric g, with
    J delta = (r(r+1)/4)(g11 D00 - 2 g01 D01 + g00 D11) delta and P the
    inverse of J's constant-coefficient part at the mean of g, onto
    mean-zero fields.  symbols = _hessian_symbols(M); P_hat is P's rfft2
    symbol, the mean over both signs of the Nyquist wavenumber of the
    inverse.  J P maps flattened M x M fields by one rfft2 of the field and
    one batched irfft2 of the three Hessian components of P."""
    r = problem.rank
    M = problem.grid
    c = r * (r + 1) / 4
    gbar = g.mean(axis=(0, 1))
    symbol = c * np.tensordot([gbar[1, 1], -2 * gbar[0, 1], gbar[0, 0]], symbols, axes=(0, 1))
    pre = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol != 0).mean(axis=0)
    hess = pre * symbols.mean(axis=0)
    coef = c * np.stack([g[..., 1, 1], -2 * g[..., 0, 1], g[..., 0, 0]])

    def apply_JP(vec):
        H = np.fft.irfft2(hess * np.fft.rfft2(vec.reshape(M, M)), s=(M, M))
        out = (coef * H).sum(axis=0)
        return (out - out.mean()).ravel()

    return apply_JP, pre


def _roundoff_floor(problem: MAProblem) -> float:
    """Estimated sup-norm residual below which roundoff stops the solve:
    64 eps max|F|, the same at every M, as no grid phi is differentiated.
    On the built-in fixtures (M = 16 to 512, ranks 1 to 64) and 761 random
    smooth fields (M = 16 to 256), the smallest residual reached was at
    most 51 eps max|F|, at M = 16, and at most 2.9 eps max|F| from M = 32."""
    return 64 * np.finfo(float).eps * np.abs(problem.rhs()).max()


def solve(problem: MAProblem, tol=1e-10, max_iter=50):
    """Damped inexact Newton iteration for r(r+1) det(g) = F with mean-zero
    phi, held as its rfft2 coefficients phi_hat.

    Each Newton step solves its linear system only to the relative residual
    of the Eisenstat-Walker forcing term (choice 2, SIAM J. Sci. Comput. 17,
    1996), but never past half of what the outer test still needs.  The
    update is delta_hat = P_hat rfft2(y), with y from GMRES, and the metric
    moves by t dd^c delta, one batched irfft2 per step.  Steps are accepted
    only if the sup-norm residual decreases and the metric g stays positive
    at every node; otherwise the step is halved.  A stall names the residual
    reached and _roundoff_floor(problem), and says so when tol is below it.
    The residuals are those of phi_hat at the nodes.
    Returns (phi = irfft2(phi_hat): TorusField('scalar'), SolveDiagnostics)."""
    if not problem.normalized and problem.compatibility_defect() > 1e-10:
        raise ValueError("problem must be normalized first")
    M = problem.grid
    symbols = _hessian_symbols(M)
    hess = symbols.mean(axis=0)
    phi_hat = np.zeros((M, M // 2 + 1), dtype=complex)
    g = problem.c1.data / problem.rank
    mass0 = det_field(g).mean()
    diag = SolveDiagnostics(iterations=0)

    F = problem.rhs()
    R = _residual(problem, g, F)
    res = np.abs(R).max()
    diag.residuals.append(float(res))
    diag.min_eigs.append(float(min_eigenvalue(g).min()))
    diag.conservation.append(0.0)

    def stalled(message):
        floor = _roundoff_floor(problem)
        if tol < floor:
            message = f"tol {tol:.1e} is below the roundoff floor of this problem"
        return ConvergenceError(f"{message} (residual reached {res:.3e}, roundoff floor {floor:.1e})")

    forcing = 0.5
    for it in range(max_iter):
        if res < tol:
            break
        if it > 0:
            previous = 0.9 * forcing**2
            forcing = 0.9 * (res / diag.residuals[-2]) ** 2
            if previous > 0.1:
                forcing = max(forcing, previous)
        apply_JP, pre = _preconditioned_jacobian(problem, g, symbols)
        try:
            y, steps = _gmres(apply_JP, (R.mean() - R).ravel(),
                              min(0.5, max(forcing, 0.5 * tol / res)))
        except ConvergenceError as exc:
            raise stalled(str(exc)) from None
        delta_hat = pre * np.fft.rfft2(y.reshape(M, M))
        d00, d01, d11 = 0.25 * np.fft.irfft2(hess * delta_hat, s=(M, M))
        dg = np.stack([d00, d01, d01, d11], axis=-1).reshape(M, M, 2, 2)
        t = 1.0
        while True:
            g_trial = g + t * dg
            min_eig = min_eigenvalue(g_trial).min()
            if min_eig > 0:
                R_trial = _residual(problem, g_trial, F)
                res_trial = np.abs(R_trial).max()
                if res_trial < res:
                    break
            t *= 0.5
            if t < 1e-8:
                raise stalled("step rejected below minimal damping")
        phi_hat += t * delta_hat
        g, R, res = g_trial, R_trial, res_trial
        diag.iterations = it + 1
        diag.damping.append(t)
        diag.gmres.append(steps)
        diag.residuals.append(float(res))
        diag.min_eigs.append(float(min_eig))
        diag.conservation.append(float(abs(det_field(g).mean() - mass0)))
    else:
        if res >= tol:
            raise stalled(f"no convergence after {max_iter} iterations")
    diag.converged = res < tol
    return TorusField("scalar", np.fft.irfft2(phi_hat, s=(M, M))), diag


# ---------------------------------------------------------------------------
# post-solve verification
# ---------------------------------------------------------------------------


@dataclass
class ConclusionReport:
    c1_min_eig: float
    c2_min: float
    schur_min: float
    eta_match: float
    c1_positive: bool
    c2_positive: bool
    schur_positive: bool

    def to_json_dict(self):
        return asdict(self)


def conformal_fields(problem: MAProblem, phi: np.ndarray):
    """Chern data of G = H e^{-phi}: c_1(G) = c_1 + r dd^c phi (coefficient
    field) and c_2(G) = c_2 + (r-1) c_1 ^ dd^c phi + (r(r-1)/2)(dd^c phi)^2
    (density)."""
    return _conformal_fields(problem, ddc_potential(phi))


def _conformal_fields(problem: MAProblem, d: np.ndarray):
    """conformal_fields from d = ddc_potential(phi)."""
    r = problem.rank
    c1G = problem.c1.data + r * d
    c2G = (
        problem.c2.data
        + (r - 1) * wedge_density(problem.c1.data, d)
        + (r * (r - 1) / 2) * wedge_density(d, d)
    )
    return c1G, c2G


def verify_conclusion(phi: TorusField, problem: MAProblem, tol=1e-8) -> ConclusionReport:
    """Pointwise positivity of c_1(G), c_2(G) and the Schur density
    c_1^2(G) - c_2(G), and the identity c_1^2(G) - c_2(G) = eta."""
    c1G, c2G = conformal_fields(problem, phi.data)
    schur = wedge_density(c1G, c1G) - c2G  # c1^2 density = 2 det(c1G)
    eta_match = float(np.abs(schur - problem.eta.data).max())
    c1_min = float(min_eigenvalue(c1G).min())
    c2_min = float(c2G.min())
    schur_min = float(schur.min())
    return ConclusionReport(
        c1_min_eig=c1_min,
        c2_min=c2_min,
        schur_min=schur_min,
        eta_match=eta_match,
        c1_positive=bool(c1_min > 0),
        c2_positive=bool(c2_min > 0),
        schur_positive=bool(
            schur_min > 0 and eta_match <= tol * max(1.0, float(np.abs(schur).max()))
        ),
    )


def _forms_chern_densities(theta: np.ndarray, d: np.ndarray):
    """c_1 coefficients and c_2 density of Theta_H + (dd^c phi) Id by one
    chern_forms call whose FormValue coefficients are arrays over the nodes
    of theta[..., a, b, p, q] and d[..., p, q]."""
    r = theta.shape[-3]
    T = theta.astype(complex)
    for a in range(r):
        T[..., a, a, :, :] += d
    c = chern_forms(CurvatureMatrix.from_tensor(T))
    c1 = CurvatureMatrix([[c[1]]]).tensor()[..., 0, 0, :, :]
    # pre-normalized coefficients carry no factors of i, so the
    # canonical-order top coefficient is minus the density
    return c1, -np.real(c[2].coefficient((0, 1), (0, 1)))


def chern_crosscheck(problem: MAProblem, phi: np.ndarray, theta: np.ndarray, stride=8):
    """Independent check through the exterior-forms machinery: on the nodes
    [::stride, ::stride], build the curvature of G = H e^{-phi} as the
    FormValue matrix Theta_H + (del delbar phi) Id, with array coefficients
    over those nodes, and compare its Chern densities with the field-level
    conformal_fields computation.  theta is the curvature coefficient field
    of H as in MAProblem.from_theta, of shape (M, M, r, r, 2, 2); stride is
    an integer >= 1.  Returns the max absolute deviation over (c1
    coefficients, c2 density) as a float."""
    r, M = problem.rank, problem.grid
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    if np.shape(theta) != (M, M, r, r, 2, 2):
        raise ValueError(f"theta must have shape {(M, M, r, r, 2, 2)}, got {np.shape(theta)}")
    nodes = (slice(None, None, stride),) * 2
    d = ddc_potential(phi)
    c1, c2 = _forms_chern_densities(np.asarray(theta)[nodes], d[nodes])
    c1G, c2G = _conformal_fields(problem, d)
    return float(max(np.abs(c1 - c1G[nodes]).max(), np.abs(c2 - c2G[nodes]).max()))


def interpolant_residual(phi_exact: np.ndarray, problem: MAProblem) -> float:
    """Sup-norm residual of a continuum solution sampled on the grid when the
    Hessian is discretized at second order; used for refinement studies."""
    g = problem.c1.data / problem.rank + 0.25 * fd_hessian(phi_exact)
    return float(np.abs(_residual(problem, g, problem.rhs())).max())
