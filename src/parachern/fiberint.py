"""Fiber integrals over P^{r-1} and the Segre push-forward identity.

Three independent routes to the same integrals:

* :func:`scalar_fiber_integral` -- trapezoid rule in s_i = log t_i for the
  scalar specialization (r-1)! * integral over C^{r-1} of
  prod(dA_i/pi) / (c_0 + sum c_i |w_i|^2)^r; closed form 1/(c_0 ... c_{r-1}).
  In s the integrand is analytic in a strip and decays exponentially, so the
  rule converges geometrically in 1/h (Trefethen and Weideman, SIAM Review
  56, 2014).  It estimates its relative error by halving h, with analytic
  window tails, and evaluates its grid in blocks of bounded size.
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

The exact route uses the standard library alone.  numpy is imported inside
the float functions that call it, at the first call: the quadrature
(:func:`scalar_fiber_integral`) and the Monte Carlo estimates
(:func:`monte_carlo_oracle` and :func:`monte_carlo_moment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from operator import add

from .forms import CurvatureMatrix, FormValue, unit_of

GRID_BUDGET = 2**26  # most quadrature points in one call: bounds its time
BLOCK_POINTS = 2**16  # most quadrature points evaluated at once: bounds its memory
FIRST_STEP = 0.6  # first step in log t; at tol 1e-10 most c of length 3 or 4 stop there
MC_BLOCK_ROWS = 2**14  # Monte Carlo draws evaluated at once


class QuadratureError(RuntimeError):
    """Requested tolerance not achievable with the given configuration."""


# ---------------------------------------------------------------------------
# scalar specialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberQuadrature:
    """Value and error estimate of :func:`scalar_fiber_integral`, with the
    final step h, the window half-width L, the nodes per axis and how often
    h was halved from FIRST_STEP."""

    value: float
    error: float
    step: float = 0.0
    window: float = 0.0
    nodes: tuple = ()
    halvings: int = 0


def _trapezoid_sums(c, h, ks):
    """Trapezoid sums of (r-1)! prod(t_i) / (c_0 + sum c_i t_i)^r over the
    nodes s_i = log t_i = k h, k in ks[i]: the step-h sum Q_h, and the step-2h
    sum over each of the 2^d parity classes of the indices (class 0, all
    even, is the plain Q_2h).  Rows over the first d - 1 axes go in blocks of
    at most BLOCK_POINTS points; math.fsum adds the row sums of each class,
    so the blocks leave the bits of the whole-grid evaluation."""
    import numpy as np
    r = len(c)
    d = r - 1
    t = [np.exp(h * k) for k in ks]
    S, W, P = np.full([1] * (d - 1), c[0]), np.ones([1] * (d - 1)), np.zeros([1] * (d - 1), int)
    for i in range(d - 1):
        sh = [1] * (d - 1)
        sh[i] = t[i].size
        S = S + c[i + 1] * t[i].reshape(sh)
        W = W * t[i].reshape(sh)
        P = P + (ks[i] % 2 << i).reshape(sh)
    S, W, P = S.reshape(-1, 1), W.reshape(-1, 1), P.reshape(-1)
    last_S, last_W, first = c[d] * t[-1], t[-1], int(ks[-1][0] % 2)
    rows, sums = max(1, BLOCK_POINTS // last_S.size), np.empty((2, S.shape[0]))
    for a in range(0, S.shape[0], rows):
        v = (S[a : a + rows] + last_S) ** -r
        v *= W[a : a + rows]
        v *= last_W
        for j in (0, 1):  # even, odd last index
            sums[j, a : a + rows] = v[:, (first + j) % 2 :: 2].sum(axis=1)
    classes = np.array([math.fsum(x[P == p].tolist()) for x in sums for p in range(2 ** (d - 1))])
    scale = math.factorial(d) * h**d
    return scale * math.fsum(classes), scale * 2**d * classes


def scalar_fiber_integral(c, tol=1e-8):
    """(r-1)! * integral over [0,inf)^{r-1} of prod dt_i/(c_0 + sum c_i t_i)^r
    by the trapezoid rule in s_i = log t_i; compare with 1/prod(c_i).

    Axis i is cut to log(c_0/c_i) +- L, L = h_0 + log(16 d/tol), with nodes at
    the multiples of h, so halving h nests the grids.  The relative error
    estimate, which h halves to meet tol, adds the mean over the parity
    classes of (Q_2h / Q_h - 1)^2 (geometric convergence squares the error
    when h halves; shifted classes see a 2h error that cancels by phase on
    the even one), the window tail and roundoff.  Returns a FiberQuadrature."""
    import numpy as np
    c = [float(x) for x in c]
    if any(x <= 0 for x in c):
        raise ValueError("coefficients must be positive")
    r = len(c)
    d = r - 1
    if d == 0:
        return FiberQuadrature(1.0 / c[0], 0.0)
    # relative roundoff of the evaluation, of the sums in a block, and of fsum
    roundoff = (2 * r + math.log2(BLOCK_POINTS) + 2) * math.ulp(1.0)
    if tol <= 2 * roundoff:
        raise QuadratureError(f"tol {tol:.1e} is below the roundoff floor {2 * roundoff:.1e}")
    L = FIRST_STEP + math.log(16 * d / min(tol, 1.0))  # a tol above 1 asks for no more
    centers = [math.log(c[0] / x) for x in c[1:]]
    # a single axis has one parity class, so a step-2h error that cancels
    # by phase would go unseen: start it one level finer, below roundoff
    halvings = 1 if d == 1 else 0
    h = FIRST_STEP / 2**halvings
    while True:
        ks = [np.arange(math.ceil((m - L) / h), math.floor((m + L) / h) + 1) for m in centers]
        nodes = tuple(k.size for k in ks)
        if math.prod(nodes) > GRID_BUDGET:
            raise QuadratureError(
                f"{' x '.join(map(str, nodes))} points at h = {h:g} exceed the budget {GRID_BUDGET}"
            )
        value, coarse = _trapezoid_sums(c, h, ks)
        # the mass beyond L on one side of an axis is 1/(1 + e^L) of the
        # integral for every c, and the nodes past the window sum to at most
        # the mass beyond L - h
        tail = 2 * d * math.exp(h - L)
        relative = float(np.mean((coarse / value - 1) ** 2)) + tail + roundoff
        if relative <= tol:
            return FiberQuadrature(value, value * relative, h, L, nodes, halvings)
        h, halvings = h / 2, halvings + 1


def _proposal_blocks(budget, d, seed):
    """budget seeded draws t_i = u_i/(1-u_i), u uniform on [0,1)^d, and
    their inverse proposal density prod (1+t_i)^2, in blocks of at most
    MC_BLOCK_ROWS rows taken in order from one random stream."""
    import numpy as np
    rng = np.random.default_rng(seed)
    for start in range(0, budget, MC_BLOCK_ROWS):
        u = rng.random(size=(min(MC_BLOCK_ROWS, budget - start), d))
        t = u / (1 - u)
        yield t, ((1 + t) ** 2).prod(axis=1)


def _mean_stderr(blocks):
    """Sample mean and standard error of the values in the blocks, merged
    block by block (Chan, Golub and LeVeque's pairwise update)."""
    n, mean, m2 = 0, 0.0, 0.0
    for vals in blocks:
        k, block_mean = vals.size, float(vals.mean())
        delta = block_mean - mean
        m2 += float(((vals - block_mean) ** 2).sum()) + delta**2 * n * k / (n + k)
        mean, n = mean + delta * k / (n + k), n + k
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def _check_budget(budget) -> None:
    """A standard error needs at least 100 draws: raise ValueError otherwise."""
    if budget < 100:
        raise ValueError(f"budget must be at least 100 for a standard-error estimate, "
                         f"got {budget!r}")


def monte_carlo_oracle(c, budget=100_000, seed=0):
    """Importance-sampled estimate of the same integral with the proposal
    t_i = u_i/(1-u_i), u uniform (density prod (1+t_i)^{-2}).

    Returns (estimate, stderr)."""
    import numpy as np
    c = [float(x) for x in c]
    r = len(c)
    d = r - 1
    if d == 0:
        return 1.0 / c[0], 0.0
    _check_budget(budget)
    return _mean_stderr(
        math.factorial(d) * dens * (c[0] + t @ np.asarray(c[1:])) ** (-r)
        for t, dens in _proposal_blocks(budget, d, seed)
    )


def _moment_exponents(m, s):
    """(m, s) as Python ints, for a moment that converges: s and every m_i
    integers and, unless d = 0, every m_i >= 0 and s - sum(m) - d >= 1.
    Anything else raises ValueError."""
    if not all(isinstance(x, Integral) for x in (s, *m)):
        raise ValueError(f"moment needs integer s and m, got s={s!r}, m={tuple(m)!r}")
    m, s = [int(x) for x in m], int(s)
    if m and (min(m) < 0 or s - sum(m) - len(m) < 1):
        raise ValueError("moment diverges: some m_i < 0 or s - sum(m) - d < 1")
    return m, s


def monte_carlo_moment(m, s, budget=200_000, seed=0):
    """Monte-Carlo check of the exact moment
    integral over C^d of prod |w|^{2 m_i} (1+|w|^2)^{-s} prod dA_i/pi;
    the exponents are checked as in :func:`moment_exact`, and ``budget``
    as in :func:`monte_carlo_oracle`."""
    import numpy as np
    m, s = _moment_exponents(m, s)
    _check_budget(budget)
    return _mean_stderr(
        dens * (t ** np.asarray(m, dtype=float)).prod(axis=1) * (1 + t.sum(axis=1)) ** (-s)
        for t, dens in _proposal_blocks(budget, len(m), seed)
    )


def moment_exact(m, s) -> Fraction:
    """prod(m_i!) * Gamma(s - sum m - d)/Gamma(s) as an exact rational;
    requires integers s and m_i >= 0 with s - sum(m) - d >= 1.  The trivial
    fiber (d = 0) gives 1."""
    m, s = _moment_exponents(m, s)
    if not m:
        return Fraction(1)
    num = math.factorial(s - sum(m) - len(m) - 1)
    for mi in m:
        num *= math.factorial(mi)
    return Fraction(num, math.factorial(s - 1))


# ---------------------------------------------------------------------------
# exact push-forward by the binomial split of c_1(O(1))
# ---------------------------------------------------------------------------


def symbolic_pushforward(theta: CurvatureMatrix) -> list[FormValue]:
    """Exact fiber integral of the Segre series 1/(1 + c_1(O(1))) over
    P^{r-1}: returns [s_0, s_1, ..., s_n] as base forms, n the base dimension.

    On the affine chart w_i = X_i / X_0, c_1(O(1)) = omega_FS + tau with
    tau = [sum Theta_AB x_A xbar_B] / (1+|w|^2), x = (1, w_1, ..., w_d).
    The fiber-top part of c_1^{d+k} is C(d+k, d) omega_FS^d tau^k, and
    omega_FS^d = d! / (1+|w|^2)^{d+1} times the fiber volume form, so

        s_k = (-1)^k C(d+k, d) d! sum_a moment(a, d+1+k) N_k[a, a],

    where N_k = (sum Theta_AB x_A xbar_B)^k maps the exponent pair (a, b)
    of w^a wbar^b to a base (k,k)-form; unbalanced pairs integrate to
    zero over the angles.  Theta is taken as given, the normalized
    curvature as :func:`~parachern.forms.chern_forms` reads it, and its
    store alone picks the arithmetic."""
    r, n = theta.rank, theta.dim
    d = r - 1
    x = [tuple(int(A == i + 1) for i in range(d)) for A in range(r)]
    twist = [(x[A], x[B], theta.entries[A][B]) for A in range(r) for B in range(r)]
    unit = FormValue.scalar(n, unit_of(theta))
    zero = 0 * unit
    power = {(x[0], x[0]): unit}
    out = []
    for k in range(n + 1):
        if k:
            nxt = {}
            for (a, b), val in power.items():
                for xa, xb, entry in twist:
                    key = (tuple(map(add, a, xa)), tuple(map(add, b, xb)))
                    nxt[key] = nxt.get(key, zero) + val.wedge(entry)
            power = nxt
        weight = (-1) ** k * math.comb(d + k, d) * math.factorial(d)
        s_k = zero
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
                        (U[i][a] * U[j][b].conjugate()) * theta.entries[a][b]
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
