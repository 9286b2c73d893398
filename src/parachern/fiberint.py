"""Fiber integrals over P^{r-1} and the Segre push-forward identity.

Three independent routes to the same integrals:

* :func:`scalar_fiber_integral` -- tensorized Gauss-Legendre quadrature of the
  scalar specialization (r-1)! * integral over C^{r-1} of
  prod(dA_i/pi) / (c_0 + sum c_i |w_i|^2)^r, with an analytic tail bound;
  closed form 1/(c_0 c_1 ... c_{r-1}).
* :func:`monte_carlo_oracle` -- importance-sampled estimate with standard
  error, used to cross-check the quadrature and the moment backend.
* :func:`symbolic_pushforward` -- exact expansion of the Segre series of
  c_1(O(1)) in a nilpotent ring over the base form algebra, integrated with
  exact Fubini-Study moments; must reproduce segre_forms(chern_forms(Theta))
  coefficient-for-coefficient in exact mode.

Moment backend: integral over C^d of prod |w_i|^{2 m_i} / (1+|w|^2)^s
prod(dA_i/pi) = prod(m_i!) * Gamma(s - sum m - d) / Gamma(s), valid for
s - sum m - d >= 1 (checked).  The factor is exact in rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .forms import CurvatureMatrix, FormValue, QQi, _conj, _merge_sign


class QuadratureError(RuntimeError):
    """Requested tolerance not achievable with the given configuration."""


# ---------------------------------------------------------------------------
# scalar specialization
# ---------------------------------------------------------------------------


def _tail_bound(c, T):
    """Upper bound for the truncated mass: sum over i of the exact integral
    of the full integrand over {t_i > T}, each of which closes to
    1 / (c_i (c_0 + c_i T) * prod_{j != i, j != 0} c_j)."""
    c = list(c)
    r = len(c)
    total = 0.0
    for i in range(1, r):
        rest = 1.0
        for j in range(1, r):
            if j != i:
                rest *= c[j]
        total += 1.0 / (c[i] * (c[0] + c[i] * T) * rest)
    return total


def scalar_fiber_integral(c, tol=1e-8, nodes_per_panel=10):
    """(r-1)! * integral over [0,inf)^{r-1} of prod dt_i/(c_0 + sum c_i t_i)^r
    by geometric-panel Gauss-Legendre; compare with 1/prod(c_i).

    Returns (value, error_estimate)."""
    c = [float(x) for x in c]
    if any(x <= 0 for x in c):
        raise ValueError("coefficients must be positive")
    r = len(c)
    d = r - 1
    if d == 0:
        return 1.0 / c[0], 0.0

    # truncation: grow T until the analytic tail bound is small enough
    T, panels = 1.0, 1
    while _tail_bound(c, T) > tol / 2:
        T *= 2.0
        panels += 1
        if panels > 80:
            raise QuadratureError("tail bound does not reach tolerance")

    x, wq = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = [0.0] + [T * 2.0 ** (-k) for k in reversed(range(panels))]
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        nodes.append(lo + (hi - lo) * (x + 1) / 2)
        weights.append(wq * (hi - lo) / 2)
    t = np.concatenate(nodes)
    w = np.concatenate(weights)

    shape = [1] * d
    S = np.full([1] * d, c[0])
    W = np.ones([1] * d)
    for i in range(d):
        sh = list(shape)
        sh[i] = t.size
        S = S + c[i + 1] * t.reshape(sh)
        W = W * w.reshape(sh)
    value = math.factorial(d) * float(np.sum(W * S ** (-r)))
    return value, _tail_bound(c, T)


def monte_carlo_oracle(c, budget=100_000, seed=0):
    """Importance-sampled estimate of the same integral with the proposal
    t_i = u_i/(1-u_i), u uniform (density prod (1+t_i)^{-2}).

    Returns (estimate, stderr)."""
    c = [float(x) for x in c]
    r = len(c)
    d = r - 1
    if d == 0:
        return 1.0 / c[0], 0.0
    if budget < 100:
        raise ValueError("budget too small for a standard-error estimate")
    rng = np.random.default_rng(seed)
    u = rng.random(size=(budget, d))
    t = u / (1 - u)
    dens = np.prod((1 + t) ** 2, axis=1)  # 1/q(t)
    S = c[0] + t @ np.asarray(c[1:])
    vals = math.factorial(d) * dens * S ** (-r)
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(budget))
    return est, stderr


def monte_carlo_moment(m, s, budget=200_000, seed=0):
    """Monte-Carlo check of the exact moment
    integral over C^d of prod |w|^{2 m_i} (1+|w|^2)^{-s} prod dA_i/pi."""
    m = [int(x) for x in m]
    d = len(m)
    rng = np.random.default_rng(seed)
    u = rng.random(size=(budget, d))
    t = u / (1 - u)
    dens = np.prod((1 + t) ** 2, axis=1)
    vals = dens * np.prod(t ** np.asarray(m, dtype=float), axis=1) * (
        1 + np.sum(t, axis=1)
    ) ** (-s)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(budget))


def moment_exact(m, s) -> Fraction:
    """prod(m_i!) * Gamma(s - sum m - d)/Gamma(s) as an exact rational;
    requires s - sum(m) - d >= 1."""
    pole, finite = moment_regularized(m, s)
    if pole:
        raise ValueError("moment diverges: s - sum(m) - d < 1")
    return finite


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def moment_regularized(m, s):
    """Laurent data (pole, finite) at eps = 0 of the regularized moment
    prod(m_i!) * Gamma(s + eps - sum m - d) / Gamma(s + eps).

    Individual monomials of a fiber-integrable combination may diverge on
    their own; the uniform regulator (1+|w|^2)^{-eps} makes each term
    meromorphic in eps with a simple pole whose residues cancel across the
    combination.  Gamma(eps - k) = (-1)^k/k! * (1/eps + H_k - gamma) + O(eps)
    and Gamma(s + eps) = (s-1)!(1 + eps(H_{s-1} - gamma)) + ..., so the
    Euler-Mascheroni constant drops out of the ratio and both Laurent
    coefficients are rational."""
    m = [int(x) for x in m]
    d = len(m)
    s = int(s)
    num = 1
    for mi in m:
        num *= math.factorial(mi)
    if d == 0:
        # trivial fiber: |w|^2 = 0, the integrand is identically 1
        return Fraction(0), Fraction(1)
    conv = s - sum(m) - d
    if conv >= 1:
        return Fraction(0), Fraction(
            num * math.factorial(conv - 1), math.factorial(s - 1)
        )
    k = -conv
    pole = Fraction(num * (-1) ** k, math.factorial(k) * math.factorial(s - 1))
    finite = pole * (_harmonic(k) - _harmonic(s - 1))
    return pole, finite


# ---------------------------------------------------------------------------
# exact nilpotent push-forward
# ---------------------------------------------------------------------------


class FiberExpansion:
    """Element of the mixed ring: sum over keys
    (I, J, a, b, s) -> base FormValue, representing
    coeff * dw^I wedge dwbar^J * w^a wbar^b / (1+|w|^2)^s."""

    def __init__(self, fiber_dim, base_dim, terms=None):
        self.d = fiber_dim
        self.n = base_dim
        self.terms = {}
        if terms:
            for key, val in terms.items():
                if not val.is_zero():
                    self.terms[key] = val

    @classmethod
    def scalar_one(cls, fiber_dim, base_dim, exact=True):
        one = QQi(1) if exact else 1.0
        key = ((), (), (0,) * fiber_dim, (0,) * fiber_dim, 0)
        return cls(fiber_dim, base_dim, {key: FormValue.scalar(base_dim, one)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, FormValue.zero(self.n)) + val
        return FiberExpansion(self.d, self.n, out)

    def scaled(self, scalar):
        return FiberExpansion(
            self.d, self.n, {k: scalar * v for k, v in self.terms.items()}
        )

    def __mul__(self, other):
        out = {}
        for (I1, J1, a1, b1, s1), v1 in self.terms.items():
            for (I2, J2, a2, b2, s2), v2 in other.terms.items():
                I, si = _merge_sign(I1, I2)
                if si == 0:
                    continue
                J, sj = _merge_sign(J1, J2)
                if sj == 0:
                    continue
                sign = si * sj * (-1 if (len(J1) * len(I2)) % 2 else 1)
                key = (
                    I,
                    J,
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                    s1 + s2,
                )
                term = sign * v1.wedge(v2)
                out[key] = out.get(key, FormValue.zero(self.n)) + term
        return FiberExpansion(self.d, self.n, out)

    def integrate_fiber(self) -> FormValue:
        """Push forward over P^{d}: keep dw^full wedge dwbar^full terms with
        balanced exponents, weight by the regularized exact moment and the
        interleave sign (canonical order dw^I dwbar^J versus the product
        measure prod (i/2pi) dw_i dwbar_i).  The pole parts must cancel
        exactly across the combination; this is asserted."""
        full = tuple(range(self.d))
        sign = -1 if (self.d * (self.d - 1) // 2) % 2 else 1
        total = FormValue.zero(self.n)
        pole_total = FormValue.zero(self.n)
        for (I, J, a, b, s), val in self.terms.items():
            if I != full or J != full:
                continue
            if a != b:
                continue  # angular integration kills unbalanced monomials
            pole, finite = moment_regularized(a, s)
            total = total + QQi(finite * sign) * val
            if pole:
                pole_total = pole_total + QQi(pole * sign) * val
        if not pole_total.is_zero(tol=1e-9):
            raise ArithmeticError(
                "regularization poles did not cancel; integrand not integrable"
            )
        return total


def o1_curvature(theta: CurvatureMatrix) -> FiberExpansion:
    """c_1(O(1), induced metric) at the normal-frame center over the affine
    chart w_i = X_i / X_0 of the P^{r-1} fiber:
    Fubini-Study part + [sum Theta_{AB} x_A xbar_B] / (1+|w|^2) with
    x = (1, w_1, ..., w_{r-1}).  Theta is the pre-normalized base curvature
    (exact mode)."""
    r, n = theta.rank, theta.dim
    d = r - 1
    zero_exp = (0,) * d

    def e(i):
        return tuple(1 if j == i else 0 for j in range(d))

    terms = {}

    def add(key, val):
        terms[key] = terms.get(key, FormValue.zero(n)) + val

    one = QQi(1)
    # Fubini-Study over the common denominator (1+|w|^2)^2:
    # [delta_ij (1 + sum_k |w_k|^2) - wbar_i w_j] on dw_i wedge dwbar_j
    for i in range(d):
        add(((i,), (i,), zero_exp, zero_exp, 2), FormValue.scalar(n, one))
        for k in range(d):
            key = ((i,), (i,), e(k), e(k), 2)
            add(key, FormValue.scalar(n, one))
        for j in range(d):
            add(((i,), (j,), e(j), e(i), 2), FormValue.scalar(n, -1 * one))
    # base-curvature twist
    for A in range(r):
        for B in range(r):
            a = zero_exp if A == 0 else e(A - 1)
            b = zero_exp if B == 0 else e(B - 1)
            add(((), (), a, b, 1), theta.entries[A][B])
    return FiberExpansion(d, n, terms)


def symbolic_pushforward(theta: CurvatureMatrix, max_degree=None) -> list[FormValue]:
    """Exact fiber integral of the Segre series 1/(1 + c_1(O(1))) over
    P^{r-1}: returns [s_0, s_1, ..., s_maxDegree] as base forms."""
    r, n = theta.rank, theta.dim
    if max_degree is None:
        max_degree = n
    if max_degree > n:
        raise ValueError("truncation degree exceeds the base dimension")
    d = r - 1
    c1 = o1_curvature(theta)
    total = FormValue.zero(n)
    power = FiberExpansion.scalar_one(d, n)
    # terms of c1^j survive only for d <= j <= d + n
    for j in range(0, d + n + 1):
        if j >= d:
            total = total + ((-1) ** j) * power.integrate_fiber()
        power = power * c1
    # overall sign: the degree-k piece comes from c1^{d+k} with (-1)^{d+k},
    # and the Segre convention s_k = (-1)^k * that push-forward strips the
    # (-1)^k, leaving a global (-1)^d
    return [((-1) ** d) * total.component(k, k) for k in range(max_degree + 1)]


def unitary_invariance_probe(theta: CurvatureMatrix, U) -> float:
    """Max coefficient deviation of symbolic_pushforward under the frame
    change Theta -> U Theta U*; exactly zero for unitary U."""
    r, n = theta.rank, theta.dim
    conj = CurvatureMatrix(
        [
            [
                sum(
                    (
                        (U[i][a] * _conj(U[j][b])) * theta.entries[a][b]
                        for a in range(r)
                        for b in range(r)
                    ),
                    FormValue.zero(n),
                )
                for j in range(r)
            ]
            for i in range(r)
        ]
    )
    s1 = symbolic_pushforward(theta)
    s2 = symbolic_pushforward(conj)
    return max((x - y).max_abs() for x, y in zip(s1, s2))


def householder_unitary(v):
    """Exact unitary I - (2/|v|^2) v v* from a Gaussian-rational vector."""
    v = [x if isinstance(x, QQi) else QQi(x) for x in v]
    r = len(v)
    norm2 = QQi()
    for x in v:
        norm2 = norm2 + x * x.conjugate()
    if not norm2:
        raise ValueError("zero vector")
    two_over = QQi(2) / norm2
    U = [
        [
            (QQi(1) if i == j else QQi()) - two_over * v[i] * v[j].conjugate()
            for j in range(r)
        ]
        for i in range(r)
    ]
    return U
