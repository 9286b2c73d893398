"""Fiber integrals over P^{r-1} and the Segre push-forward identity.

Three independent routes to the same integrals:

* :func:`scalar_fiber_integral` -- tensorized Gauss-Legendre quadrature of the
  scalar specialization (r-1)! * integral over C^{r-1} of
  prod(dA_i/pi) / (c_0 + sum c_i |w_i|^2)^r, with an analytic tail bound;
  closed form 1/(c_0 c_1 ... c_{r-1}).  The grid of N^{r-1} points is
  evaluated in leaves of at most LEAF_POINTS points that follow numpy's
  pairwise summation tree, so memory is O(N^{r-2}) and the sum has the
  bits of one np.sum over the whole grid.
* :func:`monte_carlo_oracle` -- importance-sampled estimate with standard
  error, used to cross-check the quadrature and the moment backend.
* :func:`symbolic_pushforward` -- exact fiber integral of the Segre series
  of c_1(O(1)).  c_1(O(1)) splits as omega_FS + tau, with tau the base
  twist Theta(x, xbar)/(1+|w|^2); both are even forms, so they commute, and
  only omega_FS carries fiber differentials.  The fiber-top part of
  c_1^{d+k} is therefore C(d+k, d) omega_FS^d tau^k, integrated term by term
  with exact Fubini-Study moments.  The route never uses Newton's
  identities, so it independently checks segre_forms(chern_forms(Theta)),
  which it must reproduce coefficient-for-coefficient in exact mode.

Moment backend: integral over C^d of prod |w_i|^{2 m_i} / (1+|w|^2)^s
prod(dA_i/pi) = prod(m_i!) * Gamma(s - sum m - d) / Gamma(s), valid for
s - sum m - d >= 1 (checked).  The factor is exact in rational arithmetic.
Every moment the push-forward needs converges: it has s = d+1+k against
sum m <= k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

import numpy as np

from .forms import CurvatureMatrix, FormValue, QQi, _conj, exact_mode

GRID_BUDGET = 2**26  # most quadrature points in one call: bounds its time
LEAF_POINTS = 2**17  # most quadrature points evaluated at once


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


def _pairwise_sum(leaf, start, count):
    """numpy's pairwise summation of points [start, start+count): np.sum of
    a contiguous array halves it at a multiple of 8 until at most 128
    points remain, so every subtree of at most LEAF_POINTS points is summed
    by leaf(start, count) with the same bits."""
    if count <= LEAF_POINTS:
        return leaf(start, count)
    half = count // 2
    half -= half % 8
    return _pairwise_sum(leaf, start, half) + _pairwise_sum(leaf, start + half, count - half)


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

    if (nodes_per_panel * panels) ** d > GRID_BUDGET:
        raise QuadratureError(f"{nodes_per_panel * panels}^{d} points exceed the budget {GRID_BUDGET}")
    x, wq = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = [0.0] + [T * 2.0 ** (-k) for k in reversed(range(panels))]
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        nodes.append(lo + (hi - lo) * (x + 1) / 2)
        weights.append(wq * (hi - lo) / 2)
    t = np.concatenate(nodes)
    w = np.concatenate(weights)

    # sums c_0 + sum c_i t_i and weight products over the first d - 1 axes,
    # one row per grid row, with the operations in the order of a broadcast
    # over the whole grid (the bits depend on it); the last axis joins per leaf
    n = t.size
    S = np.full([1] * (d - 1), c[0])
    W = np.ones([1] * (d - 1))
    for i in range(d - 1):
        sh = [1] * (d - 1)
        sh[i] = n
        S = S + c[i + 1] * t.reshape(sh)
        W = W * w.reshape(sh)
    S, W = S.reshape(-1, 1), W.reshape(-1, 1)
    last = c[d] * t
    s_buf = np.empty((LEAF_POINTS // n + 2, n))
    w_buf = np.empty_like(s_buf)

    def leaf(start, count):
        """Sum of the integrand over flat grid points [start, start+count)."""
        lo, hi = start // n, (start + count - 1) // n + 1
        s, v = s_buf[: hi - lo], w_buf[: hi - lo]
        np.add(S[lo:hi], last, out=s)
        np.power(s, -r, out=s)
        np.multiply(W[lo:hi], w, out=v)
        np.multiply(v, s, out=v)
        first = start - lo * n
        return np.sum(v.reshape(-1)[first : first + count])

    value = math.factorial(d) * float(_pairwise_sum(leaf, 0, n**d))
    return value, _tail_bound(c, T)


def _proposal_draw(budget, d, seed):
    """budget seeded draws t_i = u_i/(1-u_i), u uniform on [0,1)^d, and
    their inverse proposal density prod (1+t_i)^2."""
    u = np.random.default_rng(seed).random(size=(budget, d))
    t = u / (1 - u)
    return t, np.prod((1 + t) ** 2, axis=1)


def _mean_stderr(vals):
    """Sample mean of vals and its standard error."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


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
    t, dens = _proposal_draw(budget, d, seed)
    S = c[0] + t @ np.asarray(c[1:])
    return _mean_stderr(math.factorial(d) * dens * S ** (-r))


def monte_carlo_moment(m, s, budget=200_000, seed=0):
    """Monte-Carlo check of the exact moment
    integral over C^d of prod |w|^{2 m_i} (1+|w|^2)^{-s} prod dA_i/pi."""
    m = [int(x) for x in m]
    d = len(m)
    t, dens = _proposal_draw(budget, d, seed)
    return _mean_stderr(
        dens * np.prod(t ** np.asarray(m, dtype=float), axis=1) * (1 + np.sum(t, axis=1)) ** (-s)
    )


def moment_exact(m, s) -> Fraction:
    """prod(m_i!) * Gamma(s - sum m - d)/Gamma(s) as an exact rational;
    requires s - sum(m) - d >= 1.  The trivial fiber (d = 0) gives 1."""
    m = [int(x) for x in m]
    d = len(m)
    if d == 0:
        return Fraction(1)
    s = int(s)
    conv = s - sum(m) - d
    if conv < 1:
        raise ValueError("moment diverges: s - sum(m) - d < 1")
    num = math.factorial(conv - 1)
    for mi in m:
        num *= math.factorial(mi)
    return Fraction(num, math.factorial(s - 1))


# ---------------------------------------------------------------------------
# exact push-forward by the binomial split of c_1(O(1))
# ---------------------------------------------------------------------------


def symbolic_pushforward(theta: CurvatureMatrix, max_degree=None) -> list[FormValue]:
    """Exact fiber integral of the Segre series 1/(1 + c_1(O(1))) over
    P^{r-1}: returns [s_0, s_1, ..., s_maxDegree] as base forms.

    On the affine chart w_i = X_i / X_0, c_1(O(1)) = omega_FS + tau with
    tau = [sum Theta_AB x_A xbar_B] / (1+|w|^2), x = (1, w_1, ..., w_d).
    The fiber-top part of c_1^{d+k} is C(d+k, d) omega_FS^d tau^k, and
    omega_FS^d = d! / (1+|w|^2)^{d+1} times the fiber volume form, so

        s_k = (-1)^k C(d+k, d) d! sum_a moment(a, d+1+k) N_k[a, a],

    where N_k = (sum Theta_AB x_A xbar_B)^k maps the exponent pair (a, b)
    of w^a wbar^b to a base (k,k)-form; unbalanced pairs integrate to
    zero over the angles."""
    r, n = theta.rank, theta.dim
    if max_degree is None:
        max_degree = n
    if max_degree > n:
        raise ValueError("truncation degree exceeds the base dimension")
    d = r - 1
    x = [tuple(int(A == i + 1) for i in range(d)) for A in range(r)]
    twist = [(x[A], x[B], theta.entries[A][B]) for A in range(r) for B in range(r)]
    one = QQi(1) if exact_mode(theta, QQi(1)) else 1.0  # all zero counts as exact
    power = {(x[0], x[0]): FormValue.scalar(n, one)}
    out = []
    for k in range(max_degree + 1):
        if k:
            nxt = {}
            for (a, b), val in power.items():
                for xa, xb, entry in twist:
                    key = (tuple(map(add, a, xa)), tuple(map(add, b, xb)))
                    nxt[key] = nxt.get(key, FormValue.zero(n)) + val.wedge(entry)
            power = nxt
        weight = (-1) ** k * math.comb(d + k, d) * math.factorial(d)
        s_k = FormValue.zero(n)
        for (a, b), val in power.items():
            if a == b:
                s_k = s_k + (weight * moment_exact(a, d + 1 + k)) * val
        out.append(s_k)
    return out


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
