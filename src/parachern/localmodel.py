"""Local branched-cover model w_1^N = z_1.

Metric descent and lift between the downstairs chart (coordinates z, divisor
{z_1 = 0}) and the upstairs chart (coordinates w, with w_1 a chosen N-th root
of z_1), admissibility certificates, curvature and form descent, cone
metrics, L^1 current decomposition for line bundles, and the line-bundle
Bott-Chern potential.

Conventions.  Weights are nondecreasing rationals a_1 <= ... <= a_r in [0,1)
with denominators dividing N; the integer exponents are k_i = N * a_{r+1-i}
(the reversed pairing), so that

    H_{ij}(z) = conj(z_1)^{a_{r+1-i}} Htilde_{ij}(w) z_1^{a_{r+1-j}}.

All fractional powers of z_1 are evaluated as integer powers of w_1, which
keeps every branch choice exact.  The principal branch puts the cut on the
negative real z_1-axis; sample grids avoid the cut.

Metric fields, the evaluate of a LocalMetricField and any Htilde, map
points of shape (P, dim) to matrices of shape (P, r, r).  Points of shape
(..., dim), a single point (dim,) too, are evaluated as one flat batch.
Form-valued fields are evaluated one point at a time.
"""

from __future__ import annotations

import cmath
import math
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .forms import CurvatureMatrix, FormValue, griffiths_pairing
from .parabolic import integer_exponents


class InvarianceError(ValueError):
    """Input field violates the required deck invariance."""


class GridError(ValueError):
    """Sample grid too coarse for the requested certificate."""


@dataclass(frozen=True)
class LocalChart:
    """Punctured polydisk chart with branched first coordinate."""

    dim: int
    cover_degree: int
    rho: float = 0.8
    annuli: int = 8
    angular_nodes: int = 16
    companions: tuple = ()  # fixed values of (z_2, ..., z_n) per sample sheet

    def __post_init__(self):
        if self.dim < 1 or self.cover_degree < 1:
            raise ValueError("dimension and cover degree must be positive")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho!r}")
        if self.angular_nodes < 1:
            raise ValueError(f"angular_nodes must be at least 1, got {self.angular_nodes!r}")
        if not self.companions:
            object.__setattr__(
                self,
                "companions",
                ((0.15 - 0.1j,) * (self.dim - 1),) if self.dim > 1 else ((),),
            )
        if any(len(tail) != self.dim - 1 for tail in self.companions):
            raise ValueError(f"each companion needs dim - 1 = {self.dim - 1} coordinates")

    # --- branch handling ---

    def w1_of_z1(self, z1, branch: int = 0):
        """N-th root of z_1, elementwise over an array, on the chosen branch
        (0 = principal, cut along the negative real axis)."""
        N = self.cover_degree
        return np.abs(z1) ** (1.0 / N) * np.exp(1j * (np.angle(z1) + 2 * math.pi * branch) / N)

    def w_of_z(self, z, branch: int = 0) -> np.ndarray:
        """The points over z, an array of shape (..., dim), on the branch."""
        w = np.array(z, dtype=complex)
        w[..., 0] = self.w1_of_z1(w[..., 0], branch)
        return w

    def z_of_w(self, w):
        w = tuple(w)
        return (w[0] ** self.cover_degree,) + w[1:]

    # --- sample grids ---

    def radii(self):
        return [self.rho * 2.0 ** (-k) for k in range(self.annuli)]

    def angles(self):
        A = self.angular_nodes
        return [-math.pi + (j + 0.5) * 2 * math.pi / A for j in range(A)]

    def sample_points(self) -> np.ndarray:
        """All grid points, one (annuli, angles * companions, dim) array with
        the points of an annulus angle-major and companion minor."""
        z1 = np.array(self.radii())[:, None] * np.exp(1j * np.array(self.angles()))
        points = np.empty((self.annuli, self.angular_nodes, len(self.companions), self.dim),
                          dtype=complex)
        points[..., 0] = z1[:, :, None]
        points[..., 1:] = np.reshape(self.companions, (len(self.companions), self.dim - 1))
        return points.reshape(self.annuli, -1, self.dim)

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "N": self.cover_degree,
            "rho": self.rho,
            "radialNodes": self.annuli,
            "angularNodes": self.angular_nodes,
        }


def _frame(d, X) -> np.ndarray:
    """conj(d)_i X_ij d_j: the matrices X (..., r, r) in the frames scaled
    by diag(d), d of shape (..., r).  The second product is taken in place:
    a fresh array of this size costs more than the product."""
    out = np.multiply(np.conj(d)[..., :, None], X)
    return np.multiply(out, d[..., None, :], out=out)


def _values(evaluate, points, rank) -> np.ndarray:
    """evaluate at points of shape (..., dim), called once on the flat
    (P, dim) batch and checked to return (P, r, r): an array (..., r, r)."""
    points = np.asarray(points, dtype=complex)
    flat = points.reshape(-1, points.shape[-1])
    H = np.asarray(evaluate(flat), dtype=complex)
    if H.shape != (len(flat), rank, rank):
        raise ValueError("metric value shape mismatch")
    return H.reshape(points.shape[:-1] + (rank, rank))


class LocalMetricField:
    """Hermitian r x r matrix function of z on the punctured chart, whose
    evaluate maps points (P, dim) to matrices (P, r, r)."""

    def __init__(self, chart: LocalChart, weights, evaluate):
        self.chart = chart
        self.weights = tuple(Fraction(w) for w in weights)
        self.exponents = integer_exponents(self.weights, chart.cover_degree)
        self.rank = len(self.weights)
        self._evaluate = evaluate

    def __call__(self, z) -> np.ndarray:
        """H at the points z (..., dim): (..., r, r)."""
        return _values(self._evaluate, z, self.rank)

    def lift(self, z, branch: int = 0) -> np.ndarray:
        """Htilde_{ij}(w) = conj(z_1)^{-a_i'} H_{ij}(z) z_1^{-a_j'} at the
        points z (..., dim), computed through integer powers of w_1 on the
        chosen branch."""
        w1 = self.chart.w1_of_z1(np.asarray(z)[..., :1], branch)
        return _frame(w1 ** -np.array(self.exponents), self(z))


def random_invariant_metric(rng, weights, chart: LocalChart):
    """Seeded smooth deck-invariant positive-definite matrix function:
    diag(c) + scal(z_1, |w'|^2) * D(w_1) A0 D(w_1)^*, D = diag(w_1^{k_i}),
    with A0 positive semidefinite; suitable as a descent/lift fixture."""
    N = chart.cover_degree
    ks = integer_exponents(weights, N)
    r = len(ks)
    c = 1.0 + rng.random(r)
    B = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    A0 = B.conj().T @ B / r
    u = 0.4 * (rng.normal() + 1j * rng.normal())

    def htilde(w):
        w = np.asarray(w, dtype=complex)
        z1 = w[..., 0] ** N
        tail = np.sum(np.abs(w[..., 1:]) ** 2, axis=-1)
        scal = 1.0 + 0.3 * (u * z1).real + 0.2 * tail
        return np.diag(c) + scal[..., None, None] * _frame(np.conj(w[..., :1] ** np.array(ks)), A0)

    return htilde


def deck_phases(exponents, cover_degree):
    """Phase matrix P_{ij} = exp(2 pi i (k_i - k_j)/N) of the deck rotation."""
    th = 2 * math.pi / cover_degree
    p = np.exp(1j * th * np.asarray(exponents, dtype=float))
    return p[:, None] / p[None, :]


def _deck_samples(chart):
    """The sample points of the deck checks and their images under the deck
    rotation w_1 -> e^{2 pi i / N} w_1: two (40, dim) arrays (w, rotated w)
    of seeded points with |w_1| in [0.05, 0.95] rho^{1/N}, inside the chart."""
    rot = cmath.exp(2j * math.pi / chart.cover_degree)
    rng = np.random.default_rng(0)
    w, rotated = np.empty((2, 40, chart.dim), dtype=complex)
    for row, rotated_row in zip(w, rotated):
        w1 = (0.05 + 0.9 * rng.random()) * chart.rho ** (1.0 / chart.cover_degree)
        w1 *= cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        row[0], rotated_row[0] = w1, rot * w1
        row[1:] = rotated_row[1:] = [0.3 * (rng.normal() + 1j * rng.normal())
                                     for _ in range(chart.dim - 1)]
    return w, rotated


def invariance_defect(htilde, weights, chart):
    """Max relative deviation of Htilde from the deck-rotation rule
    Htilde(e^{i theta} w_1, w') = P * Htilde(w) with theta = 2 pi / N,
    over the points of :func:`_deck_samples`, evaluated as one batch."""
    ks = integer_exponents(weights, chart.cover_degree)
    w, rotated = _deck_samples(chart)
    a, b = np.split(_values(htilde, np.concatenate([rotated, w]), len(ks)), 2)
    b = deck_phases(ks, chart.cover_degree) * b
    scale = np.maximum(1.0, np.abs(b).max(axis=(1, 2)))
    return float((np.abs(a - b).max(axis=(1, 2)) / scale).max())


def descend_metric(htilde, weights, chart: LocalChart, tol=1e-8) -> LocalMetricField:
    """Build H(z) = D(z)^* Htilde(w(z)) D(z), D = diag(z_1^{a_j'}), after
    checking the deck invariance of Htilde on random samples."""
    dev = invariance_defect(htilde, weights, chart)
    if dev > tol:
        raise InvarianceError(
            f"input violates deck invariance: defect {dev:.3e} > tol {tol:.1e}"
        )
    ks = integer_exponents(weights, chart.cover_degree)

    def evaluate(z):
        w = chart.w_of_z(z)
        return _frame(w[:, :1] ** np.array(ks), _values(htilde, w, len(ks)))

    return LocalMetricField(chart, weights, evaluate)


@dataclass
class AdmissibilityReport:
    admissible: bool
    reasons: list
    annulus_max: list
    annulus_deriv: list
    annulus_min_eig: list
    cut_defect: float
    cut_tolerance: float

    def __bool__(self):
        return self.admissible

    def csv_rows(self):
        rows = ["annulus,maxAbs,radialDiff,minEig"]
        for k, (m, d, e) in enumerate(
            zip(self.annulus_max, self.annulus_deriv + [float("nan")],
                self.annulus_min_eig)
        ):
            rows.append(f"{k},{m:.12g},{d:.12g},{e:.12g}")
        return "\n".join(rows)


def admissibility_check(field: LocalMetricField) -> AdmissibilityReport:
    """Finite certificate for 'the lift extends smoothly and positively
    across w_1 = 0': bounded values and radial finite differences in |w_1|
    over geometric annuli (each within 25 times its outermost annulus),
    least eigenvalue above 1e-10 and, on the two innermost annuli, above
    0.05 times the median, and angular continuity of the lift across the
    branch cut (after the deck phase) within 3 interior grid steps."""
    chart = field.chart
    if chart.annuli < 4:
        raise GridError("at least 4 annuli required for the certificate")
    # radii of the annuli in |w_1| = |z_1|^(1/N), the coordinate the lift is
    # smooth in; Python's ** per radius, whose bits numpy's ** does not keep
    radii = np.array([r ** (1.0 / chart.cover_degree) for r in chart.radii()])
    # lifts[annulus, point]: the points angle-major with companion minor
    lifts = field.lift(chart.sample_points())

    annulus_max = np.abs(lifts).max(axis=(1, 2, 3)).tolist()
    herm = (lifts + lifts.conj().swapaxes(-1, -2)) / 2
    annulus_min_eig = np.linalg.eigvalsh(herm).min(axis=(1, 2)).tolist()
    step = np.abs(lifts[:-1] - lifts[1:]).max(axis=(1, 2, 3))
    annulus_deriv = (step / (radii[:-1] - radii[1:])).tolist()

    reasons = []
    ref = max(annulus_max[0], 1e-12)
    if max(annulus_max) > 25.0 * ref:
        reasons.append(
            f"lift unbounded: inner/outer value ratio {max(annulus_max) / ref:.2e}"
        )
    dref = max(annulus_deriv[0], 1e-12 * ref / radii[0])
    if max(annulus_deriv) > 25.0 * dref:
        reasons.append(
            "lift derivative unbounded: difference-quotient growth "
            f"{max(annulus_deriv) / dref:.2e}"
        )
    median_eig = statistics.median(annulus_min_eig)
    inner_eig = min(annulus_min_eig[-2:])
    if min(annulus_min_eig) < 1e-10 or inner_eig < 0.05 * max(median_eig, 1e-10):
        reasons.append(
            f"lift not uniformly positive: inner least eigenvalue {inner_eig:.3e}"
        )

    # angular continuity across the cut: the jump between the two extreme
    # angles (deck phase applied) must look like one more interior grid step
    P = deck_phases(field.exponents, chart.cover_degree)
    rings = lifts.reshape(chart.annuli, chart.angular_nodes, len(chart.companions),
                          field.rank, field.rank)
    interior_jump = float(np.abs(rings[:, 1:] - rings[:, :-1]).max(initial=1e-300))
    cut_defect = float(np.abs(rings[:, -1] - P * rings[:, 0]).max())
    cut_tolerance = 3.0 * interior_jump + 1e-8
    if cut_defect > cut_tolerance:
        reasons.append(
            f"branch-cut mismatch {cut_defect:.3e} exceeds continuity "
            f"tolerance {cut_tolerance:.3e}"
        )

    return AdmissibilityReport(
        admissible=not reasons,
        reasons=reasons,
        annulus_max=annulus_max,
        annulus_deriv=annulus_deriv,
        annulus_min_eig=annulus_min_eig,
        cut_defect=cut_defect,
        cut_tolerance=cut_tolerance,
    )


def rebase_cover(field: LocalMetricField, u: int):
    """Re-run the admissibility certificate at cover degree u*N (same
    weights, integer exponents rescaled to k' = u k)."""
    if u < 1:
        raise ValueError("cover multiplier must be a positive integer")
    chart = replace(field.chart, cover_degree=u * field.chart.cover_degree)
    return admissibility_check(LocalMetricField(chart, field.weights, field._evaluate))


# ---------------------------------------------------------------------------
# form and curvature descent
# ---------------------------------------------------------------------------


def _transform_form(f: FormValue, factor_dz1: complex) -> FormValue:
    """Rewrite dw_1 = factor * dz_1 (and the conjugate) in a w-form; the
    remaining coordinates are shared between the charts."""
    out = {}
    for (I, J), c in f.coeffs.items():
        fac = 1.0 + 0j
        if 0 in I:
            fac *= factor_dz1
        if 0 in J:
            fac *= np.conj(factor_dz1)
        out[(I, J)] = out.get((I, J), 0j) + complex(c) * fac
    return FormValue(f.dim, out)


def _upstairs(chart: LocalChart, z, branch: int):
    """(w, w_1 / (N z_1)): the point over z on the branch, and the factor
    of dw_1 = (1/N) z_1^{1/N - 1} dz_1."""
    w = chart.w_of_z(z, branch)
    return w, w[0] / (chart.cover_degree * z[0])


def descend_form(eta_tilde, chart: LocalChart, check_invariance=True):
    """Descend an invariant w-form field to z-coordinates through
    dw_1 = (1/N) z_1^{1/N - 1} dz_1 = (w_1 / (N z_1)) dz_1; the invariance
    check rejects a relative defect above 1e-8."""
    if check_invariance:
        dev = _form_invariance_defect(eta_tilde, chart)
        if dev > 1e-8:
            raise InvarianceError(
                f"form violates deck invariance: defect {dev:.3e}"
            )

    def eta(z, branch: int = 0):
        w, factor = _upstairs(chart, z, branch)
        return _transform_form(eta_tilde(w), factor)

    return eta


def _form_invariance_defect(eta_tilde, chart):
    """Deck invariance of a form over the points of :func:`_deck_samples`:
    coefficients obey eta_{IJ}(e^{i t} w) = e^{-i t ([0 in I] - [0 in J])}
    eta_{IJ}(w), t = 2 pi / N."""
    rot = cmath.exp(2j * math.pi / chart.cover_degree)
    dev = 0.0
    for w, rotated in zip(*_deck_samples(chart)):
        a = eta_tilde(rotated)
        b = eta_tilde(w)
        keys = set(a.coeffs) | set(b.coeffs)
        for I, J in keys:
            phase = rot ** (-(0 in I) + (0 in J))
            va = complex(a.coefficient(I, J))
            vb = phase * complex(b.coefficient(I, J))
            dev = max(dev, abs(va - vb) / max(1.0, abs(vb)))
    return dev


def pullback_form(eta, chart: LocalChart):
    """Pull a z-form field back upstairs via z_1 = w_1^N,
    dz_1 = N w_1^{N-1} dw_1."""
    N = chart.cover_degree

    def eta_tilde(w):
        z = chart.z_of_w(w)
        factor = N * w[0] ** (N - 1)
        return _transform_form(eta(z), factor)

    return eta_tilde


def curvature_descend(theta_tilde, weights, chart: LocalChart):
    """(Theta_H)_{ij}(z) = z_1^{-a_i'} (Theta_tilde)_{ij}(w) z_1^{a_j'} with
    the dw_1 -> dz_1 rewrite applied entrywise."""
    ks = integer_exponents(weights, chart.cover_degree)

    def theta(z, branch: int = 0):
        w, factor = _upstairs(chart, z, branch)
        th = theta_tilde(w)
        d = [w[0] ** k for k in ks]
        entries = [
            [
                ((1.0 / d[i]) * d[j]) * _transform_form(th.entries[i][j], factor)
                for j in range(len(ks))
            ]
            for i in range(len(ks))
        ]
        return CurvatureMatrix(entries)

    return theta


# ---------------------------------------------------------------------------
# cone metrics
# ---------------------------------------------------------------------------


def cone_metric(alpha: float, chart: LocalChart):
    """|z_1|^{-alpha} dz_1 dzbar_1 + sum_{i >= 2} dz_i dzbar_i."""
    if not 0 <= alpha < 2:
        raise ValueError("cone angle parameter must lie in [0, 2)")
    n = chart.dim

    def omega(z):
        coeffs = {((0,), (0,)): abs(z[0]) ** (-alpha) + 0j}
        for i in range(1, n):
            coeffs[((i,), (i,))] = 1.0 + 0j
        return FormValue(n, coeffs)

    return omega


def ddbar_numeric(f, z, step=1e-4) -> FormValue:
    """Raw del-delbar of a scalar potential by centered differences: the
    coefficient of dz_p dzbar_q is d^2 f / dz_p dzbar_q =
    (f_{x_p x_q} + f_{y_p y_q} + i (f_{x_p y_q} - f_{y_p x_q})) / 4, z = x + i y.
    Each entry of the symmetric real Hessian in x_0..x_(n-1), y_0..y_(n-1)
    is taken once: a diagonal one from f at z and z +- 2 step, a mixed one
    from f at the four points +-step +-step.  So f is evaluated 8 n^2 + 1
    times."""
    z = [complex(v) for v in z]
    n = len(z)
    # offsets of one step along x_0 .. x_(n-1), then y_0 .. y_(n-1)
    dirs = [[u if i == p else 0j for i in range(n)] for u in (step, 1j * step) for p in range(n)]

    def ev(dx):
        return f(tuple(z[i] + dx[i] for i in range(n)))

    center, den = ev([0j] * n), 4 * step * step
    D = [[None] * (2 * n) for _ in range(2 * n)]
    for i, a in enumerate(dirs):
        D[i][i] = (ev([2 * x for x in a]) - 2 * center + ev([-2 * x for x in a])) / den
        for j in range(i + 1, 2 * n):
            D[i][j] = D[j][i] = (
                ev([x + y for x, y in zip(a, dirs[j])])
                - ev([x - y for x, y in zip(a, dirs[j])])
                - ev([-x + y for x, y in zip(a, dirs[j])])
                + ev([-x - y for x, y in zip(a, dirs[j])])
            ) / den
    return FormValue(n, {((p,), (q,)): 0.25 * (D[p][q] + D[n + p][n + q]
                                               + 1j * D[p][n + q] - 1j * D[n + p][q])
                         for p in range(n) for q in range(n)})


def make_admissible_kahler(omega, h_D, alpha, chart: LocalChart):
    """k * omega + del-delbar of (|z_1|^2 h_D(z))^{(2-alpha)/2}: returns the
    field for the minimal integer k <= 4096 positive-definite on the sample
    grid."""
    if not 0 <= alpha < 2:
        raise ValueError("cone angle parameter must lie in [0, 2)")
    s = (2 - alpha) / 2

    def potential(z):
        return (abs(z[0]) ** 2 * float(h_D(z))) ** s

    points = chart.sample_points().reshape(-1, chart.dim)
    corrections = [
        CurvatureMatrix([[ddbar_numeric(potential, z, step=min(1e-4, abs(z[0]) / 20))]])
        .tensor()[0, 0]
        for z in points
    ]
    base = [CurvatureMatrix([[omega(z)]]).tensor()[0, 0] for z in points]
    k_min = next((k for k in range(4096 + 1) if all(
        np.min(np.linalg.eigvalsh((k * B + C + (k * B + C).conj().T) / 2)) > 0
        for B, C in zip(base, corrections))), None)
    if k_min is None:
        raise RuntimeError("no k up to 4096 makes the form positive on the grid")

    def result(z):
        corr = ddbar_numeric(potential, z, step=min(1e-4, abs(z[0]) / 20))
        return k_min * omega(z) + corr

    return result, k_min


# ---------------------------------------------------------------------------
# line-bundle currents
# ---------------------------------------------------------------------------


def annulus_weight_quadrature(N: int):
    """integral over the unit disk of |z_1|^{2/N - 2} dA via geometric
    annuli with a 24-node Gauss-Legendre radial rule, stopping once the
    analytic tail is below 1e-8; closed form is pi * N."""
    x, wq = np.polynomial.legendre.leggauss(24)
    total = 0.0
    outer = 1.0
    p = 2.0 / N - 1.0
    while True:
        inner = outer / 2
        r = inner + (outer - inner) * (x + 1) / 2
        total += float(np.sum(wq * r ** p)) * (outer - inner) / 2 * 2 * math.pi
        # analytic tail over [0, inner]
        tail = 2 * math.pi * inner ** (p + 1) / (p + 1)
        if tail < 1e-8:
            return total + tail
        outer = inner


def line_current_decomposition(h_field: LocalMetricField, alpha):
    """Split c_1(h) of an admissible line metric h = htilde(w) |z_1|^{2 alpha}
    into the smooth descended part and the divisor mass alpha.

    Returns (smooth_part, alpha, l1_check) where smooth_part(z) is the
    descended (1,1)-form field -(i/2pi-free, raw) del-delbar ln htilde and
    l1_check compares the annulus quadrature of the singular weight
    |z_1|^{2/N-2} with its closed form pi*N."""
    chart = h_field.chart
    alpha = Fraction(alpha)
    report = admissibility_check(h_field)
    if not report:
        raise ValueError("line metric is not admissible: " + "; ".join(report.reasons))
    N = chart.cover_degree

    def htilde(w):
        z = chart.z_of_w(w)
        return float(np.real(h_field(z)[0, 0])) / abs(w[0]) ** (2 * N * float(alpha))

    def theta_tilde(w):
        return ddbar_numeric(lambda p: -math.log(htilde(p)), w,
                             step=min(1e-4, abs(w[0]) / 20))

    smooth_part = descend_form(theta_tilde, chart, check_invariance=False)
    quad = annulus_weight_quadrature(N)
    l1_check = {
        "quadrature": quad,
        "closedForm": math.pi * N,
        "error": abs(quad - math.pi * N),
    }
    return smooth_part, alpha, l1_check


def smooth_mass_descent(theta_tilde, chart: LocalChart):
    """Integrals of a (1,1) w-form upstairs over |w_1| < 0.6^{1/N} and of
    its descent downstairs over |z_1| < 0.6 (n = 1 slice); the descended
    mass must equal the upstairs mass divided by N.  Each disk is split into
    60 geometric panels, each with 48 Gauss-Legendre radii and 32 angles."""
    if chart.dim != 1:
        raise ValueError("mass descent check is a one-variable computation")
    N = chart.cover_degree
    eta = descend_form(theta_tilde, chart, check_invariance=False)

    # mass of f dz dzbar in the (i/2pi) normalization:
    # (i/2pi) * (-2i) * integral f dA = (1/pi) * integral f dA
    def mass(form_field, R):
        x, wq = np.polynomial.legendre.leggauss(48)
        total = 0j
        dtheta = 2 * math.pi / 32
        outer = R
        for _ in range(60):  # geometric panels absorb the r^{2/N-2} blocks
            inner = outer / 2
            r = inner + (outer - inner) * (x + 1) / 2
            wr = wq * (outer - inner) / 2
            for rr, ww in zip(r, wr):
                for j in range(32):
                    t = -math.pi + (j + 0.5) * dtheta
                    z = (rr * cmath.exp(1j * t),)
                    c = complex(form_field(z).coefficient((0,), (0,)))
                    total += c * rr * ww * dtheta
            outer = inner
        return total.real / math.pi

    up = mass(theta_tilde, 0.6 ** (1.0 / N))
    down = mass(eta, 0.6)
    return up, down


# ---------------------------------------------------------------------------
# Bott-Chern potential (line bundles)
# ---------------------------------------------------------------------------


def bott_chern_line(h1, h2):
    """phi = ln(h1/h2), the transgression potential with
    (i/2pi) del-delbar phi = c_1(h2) - c_1(h1)."""

    def phi(w):
        a, b = float(h1(w)), float(h2(w))
        if a <= 0 or b <= 0:
            raise ValueError("metrics must be positive")
        return math.log(a / b)

    return phi


def c1_numeric(h, w, step=1e-3) -> FormValue:
    """c_1(h) = -(i/2pi) del-delbar ln h by centered differences."""
    raw = ddbar_numeric(lambda p: math.log(float(h(p))), w, step=step)
    return (-1j / (2 * math.pi)) * raw


# ---------------------------------------------------------------------------
# Griffiths margin transfer and closedness residual
# ---------------------------------------------------------------------------


def griffiths_margin_transfer(
    theta_tilde, omega_tilde, htilde, weights, chart: LocalChart,
    samples=20, seed=0
):
    """Compare the Griffiths ratio <Theta v, v ; s, s>_H / (omega(v, v)
    |s|_H^2) upstairs and downstairs at matched directions; returns the max
    absolute deviation of the two ratios (zero in exact arithmetic, so the
    positivity margin constant C transfers unchanged)."""
    ks = integer_exponents(weights, chart.cover_degree)
    r = len(ks)
    n = chart.dim
    N = chart.cover_degree
    theta_z = curvature_descend(theta_tilde, weights, chart)
    omega_z = descend_form(omega_tilde, chart, check_invariance=False)
    rng = np.random.default_rng(seed)
    dev = 0.0
    ratios = []
    half_sector = math.pi / N
    for _ in range(samples):
        # stay inside the principal sector so the internally chosen branch
        # agrees with the sampled representative
        w1 = (0.2 + 0.6 * rng.random()) * cmath.exp(
            1j * rng.uniform(-0.95 * half_sector, 0.95 * half_sector)
        )
        tail = tuple(
            0.2 * (rng.normal() + 1j * rng.normal()) for _ in range(n - 1)
        )
        w = (w1,) + tail
        z = chart.z_of_w(w)
        vt = rng.normal(size=n) + 1j * rng.normal(size=n)
        st = rng.normal(size=r) + 1j * rng.normal(size=r)
        Ht = _values(htilde, w, r)

        up_num = griffiths_pairing(theta_tilde(w), Ht, vt, st)
        up_den = griffiths_pairing(
            CurvatureMatrix.scalar_times_identity(omega_tilde(w), r), Ht, vt, st
        )

        # matched downstairs directions: tangent pushforward and frame change
        v = np.concatenate(([N * w1 ** (N - 1) * vt[0]], vt[1:]))
        s = np.array([st[j] * w1 ** (-ks[j]) for j in range(r)])
        H = _frame(np.array([w1 ** k for k in ks]), Ht)
        down_num = griffiths_pairing(theta_z(z), H, v, s)
        down_den = griffiths_pairing(
            CurvatureMatrix.scalar_times_identity(omega_z(z), r), H, v, s
        )
        up = up_num / up_den
        down = down_num / down_den
        ratios.append((up, down))
        dev = max(dev, abs(up - down))
    return dev, ratios


def boundary_residual(eta, eps: float, z_tail):
    """Contour integrals, by the 96-node midpoint rule, over |z_1| = eps of
    the dz_1 / dzbar_1 components in the dzbar_2-slice of eta (the boundary
    pairing against the test form dz_2).  Returns (block_magnitude,
    signed_sum): the per-block magnitude decays like eps^{2/N} for descended
    singular blocks, while the signed sum is the residue itself -- zero for
    closed invariant forms."""
    a_sum = 0j
    b_sum = 0j
    dtheta = 2 * math.pi / 96
    for j in range(96):
        t = -math.pi + (j + 0.5) * dtheta
        z1 = eps * cmath.exp(1j * t)
        f = eta((z1,) + tuple(z_tail))
        a = complex(f.coefficient((0,), (1,)))   # dz1 ^ dzbar2 component
        b = complex(f.coefficient((), (0, 1)))   # dzbar1 ^ dzbar2 component
        dz1 = 1j * z1 * dtheta
        a_sum += a * dz1
        b_sum += b * np.conj(dz1)
    return abs(a_sum) + abs(b_sum), abs(a_sum + b_sum)


def closedness_decay_slope(eta, chart: LocalChart):
    """Log-log slope of the block boundary residual at z_2 = 0.1 over the
    radii rho 2^{-k}, k = 1..6, plus the largest signed residue encountered."""
    eps = [chart.rho * 2.0 ** (-k) for k in range(1, 7)]
    pairs = [boundary_residual(eta, e, (0.1,)) for e in eps]
    blocks = [p[0] for p in pairs]
    residues = [p[1] for p in pairs]
    logs = np.log([max(r, 1e-300) for r in blocks])
    slope = np.polyfit(np.log(eps), logs, 1)[0]
    return float(slope), max(residues), list(zip(eps, blocks))
