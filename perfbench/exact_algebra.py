"""Workload ``exact-algebra``: Chern, Segre and Schur forms and the Segre
push-forward over Gaussian rationals.

All of the work is the exact ``QQi`` scalar and ``FormValue.wedge``; no
numpy or scipy runs.  Inputs are seeded random Hermitian curvature matrices
with entries p/q + (s/t) i, p and s in {-3, ..., 3} without 0 and q and t in
{1, ..., 4}, in every dz_p dzbar_q coefficient.  The ``omega*A`` cases have
Theta = omega * A, with omega a random Hermitian rational (1,1)-form and A a
random Hermitian Gaussian-rational matrix.  For these the benchmark knows
every coefficient in closed form and computes it in plain ``Fraction``
arithmetic.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction
from itertools import combinations, permutations

from parachern.fiberint import symbolic_pushforward
from parachern.forms import (
    CurvatureMatrix,
    FormValue,
    QQi,
    chern_forms,
    chern_forms_minors,
    hermitian_partner,
    schur_form,
    segre_forms,
)

from common import Op

MODULES = ("parachern.forms", "parachern.fiberint")

# (rank r, base dimension n) of each Chern case; "general" cases are random
# Hermitian curvature, "omega*A" cases have closed-form Chern data.
CHERN_CASES = (
    ("general", 2, 2), ("general", 3, 3), ("general", 4, 3), ("general", 3, 4),
    ("omega*A", 3, 2), ("omega*A", 3, 3), ("omega*A", 5, 3),
)
PUSHFORWARD_CASES = ((2, 2), (3, 2), (2, 3))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _rand_gauss(rng: random.Random) -> tuple:
    return (_rand_q(rng), _rand_q(rng))


def _hermitian_scalar_matrix(rng: random.Random, size: int) -> list:
    """Hermitian matrix of Gaussian rationals as (re, im) Fraction pairs."""
    A = [[None] * size for _ in range(size)]
    for i in range(size):
        A[i][i] = (_rand_q(rng), Fraction(0))
        for j in range(i + 1, size):
            A[i][j] = _rand_gauss(rng)
            A[j][i] = (A[i][j][0], -A[i][j][1])
    return A


def _one_one(n: int, coeff) -> FormValue:
    return FormValue(n, {((p,), (q,)): QQi(*coeff[p][q])
                         for p in range(n) for q in range(n)})


def random_hermitian_curvature(rng: random.Random, r: int, n: int) -> CurvatureMatrix:
    E = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            f = _one_one(n, [[_rand_gauss(rng) for _ in range(n)] for _ in range(n)])
            if i == j:
                f = f + hermitian_partner(f)
            E[i][j] = f
            if i != j:
                E[j][i] = hermitian_partner(f)
    return CurvatureMatrix(E)


def omega_times_matrix(omega: list, A: list) -> CurvatureMatrix:
    n, r = len(omega), len(A)
    w = _one_one(n, omega)
    return CurvatureMatrix([[QQi(*A[i][j]) * w for j in range(r)] for i in range(r)])


def partitions_that_fit(r: int, n: int) -> list:
    """Partitions of 1..n with at most r parts (Schur forms of degree <= n)."""
    def parts(k, largest):
        if k == 0:
            yield ()
            return
        for p in range(min(k, largest), 0, -1):
            for rest in parts(k - p, p):
                yield (p,) + rest
    return [lam for k in range(1, n + 1) for lam in parts(k, k) if len(lam) <= r]


# ---------------------------------------------------------------------------
# independent arithmetic: Gaussian rationals as (re, im) Fraction pairs
# ---------------------------------------------------------------------------


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gscale(k, a):
    return (k * a[0], k * a[1])


def gdet(m) -> tuple:
    """Leibniz determinant (sizes here are at most 5)."""
    size = len(m)
    total = (Fraction(0), Fraction(0))
    for perm in permutations(range(size)):
        inversions = sum(1 for i in range(size) for j in range(i + 1, size)
                         if perm[i] > perm[j])
        term = (Fraction(-1 if inversions % 2 else 1), Fraction(0))
        for i in range(size):
            term = gmul(term, m[i][perm[i]])
        total = gadd(total, term)
    return total


def elementary(A) -> list:
    """e_0..e_r of the eigenvalues of A: sums of principal minors."""
    r = len(A)
    return [(Fraction(1), Fraction(0))] + [
        _gsum(gdet([[A[i][j] for j in S] for i in S]) for S in combinations(range(r), k))
        for k in range(1, r + 1)
    ]


def complete(e, top: int) -> list:
    """h_0..h_top from h_k = sum_{i=1..k} (-1)^(i-1) e_i h_(k-i)."""
    h = [(Fraction(1), Fraction(0))]
    for k in range(1, top + 1):
        acc = (Fraction(0), Fraction(0))
        for i in range(1, k + 1):
            if i < len(e):
                acc = gadd(acc, gscale((-1) ** (i - 1), gmul(e[i], h[k - i])))
        h.append(acc)
    return h


def schur_polynomial(lam, h) -> tuple:
    """Jacobi-Trudi determinant det(h_{lam_i - i + j})."""
    ell = len(lam)
    zero = (Fraction(0), Fraction(0))
    return gdet([[h[lam[i] - i + j] if lam[i] - i + j >= 0 else zero
                  for j in range(ell)] for i in range(ell)])


def _gsum(items):
    total = (Fraction(0), Fraction(0))
    for x in items:
        total = gadd(total, x)
    return total


def omega_power(omega, k: int) -> dict:
    """Coefficients of omega^k in canonical order dz^I dzbar^J:
    (-1)^(k(k-1)/2) k! det(omega[I, J])."""
    n = len(omega)
    if k == 0:
        return {((), ()): (Fraction(1), Fraction(0))}
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    out = {}
    for I in combinations(range(n), k):
        for J in combinations(range(n), k):
            d = gdet([[omega[p][q] for q in J] for p in I])
            c = gscale(sign * math.factorial(k), d)
            if c != (0, 0):
                out[(I, J)] = c
    return out


def scaled(s, coeffs: dict) -> dict:
    out = {key: gmul(s, c) for key, c in coeffs.items()}
    return {key: c for key, c in out.items() if c != (0, 0)}


def table(f: FormValue) -> dict:
    """Nonzero coefficients of an exact form as (re, im) Fraction pairs."""
    out = {}
    for key, c in f.coeffs.items():
        pair = (Fraction(c.re), Fraction(c.im))
        if pair != (0, 0):
            out[key] = pair
    return out


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------


def chern_steps(theta, d, lams) -> list:
    """The steps of one Chern case, each a separate timed program call."""
    n = theta.dim

    def convolution(res):
        c, s = res["c"], res["segre"]
        out = []
        for k in range(1, n + 1):
            acc = FormValue.zero(n)
            for i in range(0, min(k, c.rank) + 1):
                acc = acc + c[i].wedge(s[k - i])
            out.append(acc)
        return out

    return [
        ("c", lambda res: chern_forms(theta)),
        ("minors", lambda res: chern_forms_minors(theta)),
        ("conjugated", lambda res: chern_forms(theta.conjugated([QQi(*x) for x in d]))),
        ("segre", lambda res: segre_forms(res["c"], n)),
        ("convolution", convolution),
        ("schur", lambda res: {lam: schur_form(lam, res["c"]) for lam in lams}),
    ]


def check_chern_case(out, closed_form=None) -> list:
    """Problems found in one Chern case; empty when every check holds.

    ``closed_form`` = (omega, A) for an omega*A case: then c_k = e_k(A)
    omega^k, s_k = (-1)^k h_k(A) omega^k and S_lam = s_lam(A) omega^|lam|."""
    problems = []
    c = out["c"]
    r, n = c.rank, c.dim
    for k in range(r + 1):
        if table(c[k]) != table(out["minors"][k]):
            problems.append(f"c_{k}: Newton identities disagree with principal minors")
        if table(c[k]) != table(out["conjugated"][k]):
            problems.append(f"c_{k}: not invariant under diagonal conjugation")
    for k, f in enumerate(out["convolution"], start=1):
        if table(f):
            problems.append(f"Segre convolution fails in degree {k}")
    if closed_form is not None:
        omega, A = closed_form
        e = elementary(A)
        h = complete(e, n)
        powers = [omega_power(omega, k) for k in range(n + 1)]
        for k in range(r + 1):
            want = scaled(e[k], powers[k]) if k <= n else {}
            if table(c[k]) != want:
                problems.append(f"c_{k} != e_{k}(A) omega^{k}")
        for k in range(n + 1):
            if table(out["segre"][k]) != scaled(gscale((-1) ** k, h[k]), powers[k]):
                problems.append(f"s_{k} != (-1)^{k} h_{k}(A) omega^{k}")
        for lam, f in out["schur"].items():
            if table(f) != scaled(schur_polynomial(lam, h), powers[sum(lam)]):
                problems.append(f"S_{lam} != s_lam(A) omega^{sum(lam)}")
    return problems


def pushforward_steps(theta) -> list:
    return [("pushforward", lambda res: symbolic_pushforward(theta)),
            ("segre_chern", lambda res: segre_forms(chern_forms(theta), theta.dim))]


def check_pushforward_case(out) -> list:
    return [f"push-forward s_{k} != segre(chern)_{k}"
            for k, (a, b) in enumerate(zip(out["pushforward"], out["segre_chern"]))
            if table(a) != table(b)]


def qqi_muladd_us(seed: int, count: int = 5000, repeats: int = 5) -> float:
    """Median time of one QQi multiply-add, in microseconds, on operands
    taken from the Chern forms of a seeded rank-3 curvature on a 3-fold."""
    rng = random.Random(f"qqi-probe:{seed}")
    values = [v for f in chern_forms(random_hermitian_curvature(rng, 3, 3)).forms
              for v in f.coeffs.values()]
    triples = [(rng.choice(values), rng.choice(values), rng.choice(values))
               for _ in range(count)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b, c in triples:
            a * b + c
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / count * 1e6


class Workload:
    name = "exact-algebra"
    modules = MODULES

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"exact-algebra:{seed}")
        self.ops = []
        for kind, r, n in CHERN_CASES:
            closed = None
            if kind == "general":
                theta = random_hermitian_curvature(rng, r, n)
            else:
                omega = _hermitian_scalar_matrix(rng, n)
                A = _hermitian_scalar_matrix(rng, r)
                theta = omega_times_matrix(omega, A)
                closed = (omega, A)
            d = [_rand_gauss(rng) for _ in range(r)]
            lams = partitions_that_fit(r, n)
            self.ops.append(Op(
                f"chern {kind} r={r} n={n}", chern_steps(theta, d, lams),
                lambda out, closed=closed: check_chern_case(out, closed),
            ))
        for r, n in PUSHFORWARD_CASES:
            theta = random_hermitian_curvature(rng, r, n)
            self.ops.append(Op(f"pushforward r={r} n={n}", pushforward_steps(theta),
                               check_pushforward_case))

    def trace_targets(self, tracer):
        import parachern.fiberint as fiberint
        import parachern.forms as forms
        for fn in ("chern_forms", "chern_forms_minors", "segre_forms", "schur_form"):
            tracer.wrap(forms, fn, f"forms.{fn}_s")
        tracer.wrap(forms.FormValue, "wedge", "forms.wedge_us")
        tracer.wrap(fiberint, "symbolic_pushforward", "fiberint.symbolic_pushforward_s")

    def round_counts(self, outputs) -> dict:
        """Deterministic work counts of one round, from its outputs."""
        terms = 0
        for out in outputs:
            if out is None or "c" not in out:
                continue
            forms = list(out["c"].forms) + list(out["minors"].forms) + \
                list(out["conjugated"].forms) + list(out["segre"]) + \
                list(out["schur"].values())
            terms += sum(len(f.coeffs) for f in forms)
        return {"forms.coeff_terms": terms}
