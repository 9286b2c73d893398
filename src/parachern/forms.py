"""Pointwise exterior algebra of (p,q)-forms and curvature invariants.

Coefficients come in two modes: exact Gaussian rationals (:class:`QQi`) for
identity checks, and complex floats for positivity sampling.  Which mode a
computation runs in is decided in one place, :func:`exact_mode`.  Exterior
monomials are stored in the canonical order dz factors ascending, then dzbar
factors ascending; all wedge signs are normalized to that order.

A :class:`QQi` holds Gaussian-integer numerators a, b over one integer
denominator d, as (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.  Its
arithmetic uses only int operations and one gcd per result, which is several
times cheaper than a pair of Fractions; ``re`` and ``im`` read back as
Fractions.

The Chern normalization i/(2*pi) is applied inside :func:`chern_forms` only
(float mode); raw curvature matrices carry no normalization.  In exact mode
the caller supplies curvature that is already normalized, so that every
coefficient stays in Q(i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd
from typing import Sequence

import numpy as np


class QQi:
    """Gaussian rational scalar (a + b*i)/d.

    The value is held as Gaussian-integer numerators ``a``, ``b`` over one
    denominator ``d``, always in canonical form: ``d > 0`` and
    ``gcd(a, b, d) == 1``.  Equal values therefore have equal fields, so
    ``==`` compares the fields directly.  ``re`` and ``im`` are read back
    as Fractions."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        # re and im are reduced, so gcd(a, b, d) == 1 already
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is QQi:
            d, f = self._d, other._d
            if d == f:
                return _reduced(self._a + other._a, self._b + other._b, d)
            return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)
        if isinstance(other, int):
            # gcd(a + k*d, b, d) == gcd(a, b, d) == 1
            return _raw(self._a + int(other) * self._d, self._b, self._d)
        if isinstance(other, Fraction):
            return self + _raw(other.numerator, 0, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QQi, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is QQi:
            c, e = other._a, other._b
            return _reduced(a * c - b * e, a * e + b * c, d * other._d)
        if isinstance(other, int):
            k = int(other)
            if gcd(k, d) == 1:
                # then gcd(k*a, k*b, d) == gcd(a, b, d) == 1
                return _raw(k * a, k * b, d)
            return _reduced(k * a, k * b, d)
        if isinstance(other, Fraction):
            return _reduced(a * other.numerator, b * other.numerator, d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QQi(other)
        elif not isinstance(other, QQi):
            return NotImplemented
        c, e, f = other._a, other._b, other._d
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero QQi")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b = self._a, self._b
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def conjugate(self):
        return _raw(self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is QQi:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a * other.denominator == other.numerator * self._d
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            # a real value hashes like the int or Fraction it equals
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _raw(a: int, b: int, d: int) -> QQi:
    """QQi from fields already in canonical form; skips ``__init__``."""
    z = _new_qqi(QQi)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> QQi:
    """QQi (a + b*i)/d for d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    return _raw(a // g, b // g, d // g)


_new_qqi = object.__new__
QQI_I = QQi(0, 1)
_QQI_ZERO = QQi()


def _conj(x):
    return x.conjugate() if hasattr(x, "conjugate") else complex(x).conjugate()


@lru_cache(maxsize=1 << 14)
def _merge_sign(a: tuple, b: tuple):
    """Merge two strictly increasing index tuples; return (merged, sign) or
    (None, 0) when they overlap.  A pure function of its arguments, so it is
    cached; the bound keeps the table at most 2^14 pairs."""
    if set(a) & set(b):
        return None, 0
    merged = tuple(sorted(a + b))
    inv = sum(1 for x in a for y in b if x > y)
    return merged, -1 if inv % 2 else 1


class FormValue:
    """Element of the exterior algebra at a point:
    sum over (I, J) of f_IJ dz^I wedge dzbar^J."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        self.coeffs = {}
        if coeffs:
            for (I, J), c in coeffs.items():
                if c:
                    self.coeffs[(tuple(I), tuple(J))] = c

    # -- constructors --

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def scalar(cls, dim, c):
        return cls(dim, {((), ()): c})

    @classmethod
    def monomial(cls, dim, I, J, c=1):
        I, J = tuple(I), tuple(J)
        if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
            raise ValueError("index tuples must be strictly increasing")
        if any(not 0 <= i < dim for i in I + J):
            raise ValueError("index out of range")
        return cls(dim, {(I, J): c})

    # -- ring operations --

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, _zero_like(c)) + c
        return FormValue(self.dim, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        return FormValue(
            self.dim, {k: scalar * c for k, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, FormValue):
            return self.wedge(other)
        return other * self

    def wedge(self, other: "FormValue") -> "FormValue":
        self._check(other)
        out = {}
        for (I1, J1), c1 in self.coeffs.items():
            for (I2, J2), c2 in other.coeffs.items():
                I, si = _merge_sign(I1, I2)
                if si == 0:
                    continue
                J, sj = _merge_sign(J1, J2)
                if sj == 0:
                    continue
                # move dzbar^J1 (len |J1|) across dz^I2 (len |I2|)
                sign = si * sj * (-1 if (len(J1) * len(I2)) % 2 else 1)
                key = (I, J)
                term = sign * (c1 * c2)
                out[key] = out.get(key, _zero_like(term)) + term
        return FormValue(self.dim, out)

    def conjugate(self) -> "FormValue":
        out = {}
        for (I, J), c in self.coeffs.items():
            sign = -1 if (len(I) * len(J)) % 2 else 1
            key = (J, I)
            out[key] = out.get(key, _zero_like(c)) + sign * _conj(c)
        return FormValue(self.dim, out)

    # -- queries --

    def _check(self, other):
        if not isinstance(other, FormValue) or other.dim != self.dim:
            raise ValueError("dimension mismatch")

    def is_zero(self, tol=0.0) -> bool:
        return all(abs(complex(c)) <= tol for c in self.coeffs.values())

    def coefficient(self, I, J):
        return self.coeffs.get((tuple(I), tuple(J)), 0)

    def bidegrees(self):
        return {(len(I), len(J)) for I, J in self.coeffs}

    def is_pure(self, p, q) -> bool:
        return all((len(I), len(J)) == (p, q) for I, J in self.coeffs)

    def component(self, p, q) -> "FormValue":
        return FormValue(
            self.dim,
            {k: c for k, c in self.coeffs.items() if (len(k[0]), len(k[1])) == (p, q)},
        )

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def approx_equal(self, other, tol=1e-12) -> bool:
        return (self - other).max_abs() <= tol

    def is_real(self, tol=0.0) -> bool:
        return (self - self.conjugate()).max_abs() <= tol

    def __eq__(self, other):
        if not isinstance(other, FormValue) or other.dim != self.dim:
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        terms = ", ".join(f"{I}|{J}: {c}" for (I, J), c in sorted(self.coeffs.items()))
        return f"FormValue(dim={self.dim}, {{{terms}}})"

    # -- serialization --

    def to_json_list(self):
        out = []
        for (I, J), c in sorted(self.coeffs.items()):
            if isinstance(c, QQi):
                out.append(
                    {"I": list(I), "J": list(J),
                     "re": str(c.re), "im": str(c.im)}
                )
            else:
                z = complex(c)
                out.append({"I": list(I), "J": list(J), "re": z.real, "im": z.imag})
        return out

    @classmethod
    def from_json_list(cls, dim, items, exact=False):
        coeffs = {}
        for item in items:
            I, J = tuple(item["I"]), tuple(item["J"])
            if exact:
                c = QQi(Fraction(item["re"]), Fraction(item["im"]))
            else:
                c = float(item["re"]) + 1j * float(item["im"])
            coeffs[(I, J)] = coeffs.get((I, J), 0) + c
        return cls(dim, coeffs)


def _zero_like(c):
    return _QQI_ZERO if isinstance(c, QQi) else 0j


def volume_normalizer(dim: int):
    """Coefficient of dz^{1..n} dzbar^{1..n} (canonical order) in the
    standard positive volume form prod_i (i dz_i dzbar_i)."""
    sign = -1 if (dim * (dim - 1) // 2) % 2 else 1
    return (1j ** dim) * sign


def volume_ratio(eta: FormValue):
    """eta / volume form, for a top-degree form; complex."""
    n = eta.dim
    full = tuple(range(n))
    c = complex(eta.coefficient(full, full))
    return c / volume_normalizer(n)


# ---------------------------------------------------------------------------
# curvature matrices and characteristic forms
# ---------------------------------------------------------------------------


def hermitian_partner(f: FormValue) -> FormValue:
    """Conjugate coefficients and swap each dz_p dzbar_q to dz_q dzbar_p
    without reordering signs; equals -conjugate(f) on (1,1)-forms."""
    return (-1) * f.conjugate()


class CurvatureMatrix:
    """r x r matrix of (1,1)-form values at a point (unnormalized)."""

    def __init__(self, entries: Sequence[Sequence[FormValue]]):
        self.entries = [list(row) for row in entries]
        self.rank = len(self.entries)
        if any(len(row) != self.rank for row in self.entries):
            raise ValueError("matrix must be square")
        self.dim = self.entries[0][0].dim

    def hermitian_defect(self) -> float:
        """Max deviation from Theta_ji == Hermitian partner of Theta_ij,
        i.e. coefficients conjugated with dz <-> dzbar swapped in place:
        T[j,i,q,p] = conj(T[i,j,p,q]).  At the form level the partner of a
        (1,1)-form is minus its conjugate (the reordering sign)."""
        dev = 0.0
        for i in range(self.rank):
            for j in range(self.rank):
                dev = max(
                    dev,
                    (self.entries[j][i] - hermitian_partner(self.entries[i][j])).max_abs(),
                )
        return dev

    def tensor(self) -> np.ndarray:
        """Coefficient tensor T[a,b,p,q] of dz_p wedge dzbar_q in entry (a,b)."""
        r, n = self.rank, self.dim
        T = np.zeros((r, r, n, n), dtype=complex)
        for a in range(r):
            for b in range(r):
                for (I, J), c in self.entries[a][b].coeffs.items():
                    if len(I) != 1 or len(J) != 1:
                        raise ValueError("curvature entries must be (1,1)-forms")
                    T[a, b, I[0], J[0]] = complex(c)
        return T

    @classmethod
    def from_tensor(cls, T: np.ndarray) -> "CurvatureMatrix":
        r, _, n, _ = T.shape
        entries = [
            [
                FormValue(
                    n,
                    {
                        ((p,), (q,)): T[a, b, p, q]
                        for p in range(n)
                        for q in range(n)
                        if T[a, b, p, q] != 0
                    },
                )
                for b in range(r)
            ]
            for a in range(r)
        ]
        return cls(entries)

    @classmethod
    def scalar_times_identity(cls, omega: FormValue, rank: int) -> "CurvatureMatrix":
        zero = FormValue.zero(omega.dim)
        return cls(
            [[omega if i == j else zero for j in range(rank)] for i in range(rank)]
        )

    def conjugated(self, d: Sequence) -> "CurvatureMatrix":
        """diag(d) . Theta . diag(d)^-1, entrywise d_i * Theta_ij / d_j."""
        r = self.rank
        exact = exact_mode(self, *d)
        return CurvatureMatrix(
            [
                [(d[i] * (QQi(1) / d[j] if exact else 1 / d[j]))
                 * self.entries[i][j] for j in range(r)]
                for i in range(r)
            ]
        )


def _mat_wedge(A, B, dim):
    r = len(A)
    return [
        [
            sum((A[i][k].wedge(B[k][j]) for k in range(r)), FormValue.zero(dim))
            for j in range(r)
        ]
        for i in range(r)
    ]


@dataclass(frozen=True)
class ChernData:
    """c_0 = 1, c_1, ..., c_r as (k,k) forms."""

    forms: tuple

    @property
    def rank(self):
        return len(self.forms) - 1

    @property
    def dim(self):
        return self.forms[0].dim

    def __getitem__(self, k):
        if k < 0:
            raise IndexError(k)
        if k >= len(self.forms):
            return FormValue.zero(self.dim)
        return self.forms[k]


def _scalars(item):
    if isinstance(item, CurvatureMatrix):
        for row in item.entries:
            for f in row:
                yield from f.coeffs.values()
    elif isinstance(item, ChernData):
        for f in item.forms:
            yield from f.coeffs.values()
    elif item is not None:
        yield item


def exact_mode(*items) -> bool:
    """True when a computation on ``items`` runs over Q(i), False when it
    runs over complex floats.  The first coefficient found decides, reading
    the given curvature matrices, Chern data and scalars in order.
    Callers pass the structure first, so a scalar such as a normalization
    decides only when the structure stores no coefficient (all zero).  Only
    QQi is exact: an int coefficient, such as the default of
    :meth:`FormValue.monomial`, means float mode."""
    for item in items:
        for x in _scalars(item):
            return isinstance(x, QQi)
    return False


def default_normalization(exact: bool):
    return QQi(1) if exact else 1j / (2 * math.pi)


def chern_forms(theta: CurvatureMatrix, normalization=None) -> ChernData:
    """Elementary symmetric functions of the normalized curvature via
    Newton's identities on the power traces."""
    exact = exact_mode(theta, normalization)
    if normalization is None:
        normalization = default_normalization(exact)
    r, n = theta.rank, theta.dim
    one = QQi(1) if exact else 1.0
    X = [[normalization * theta.entries[i][j] for j in range(r)] for i in range(r)]
    # power traces p_k, k = 1..r (entries even, so products commute)
    traces = []
    P = X
    for k in range(1, r + 1):
        traces.append(
            sum((P[i][i] for i in range(r)), FormValue.zero(n))
        )
        if k < r:
            P = _mat_wedge(P, X, n)
    e = [FormValue.scalar(n, one)]
    for k in range(1, r + 1):
        acc = FormValue.zero(n)
        for i in range(1, k + 1):
            term = e[k - i].wedge(traces[i - 1])
            acc = acc + ((-1) ** (i - 1)) * term
        inv_k = QQi(Fraction(1, k)) if exact else 1.0 / k
        e.append(inv_k * acc)
    return ChernData(tuple(e))


def chern_forms_minors(theta: CurvatureMatrix, normalization=None) -> ChernData:
    """Independent oracle: c_k as the sum of principal k x k minors of the
    normalized curvature, each expanded over permutations."""
    exact = exact_mode(theta, normalization)
    if normalization is None:
        normalization = default_normalization(exact)
    r, n = theta.rank, theta.dim
    one = QQi(1) if exact else 1.0
    X = [[normalization * theta.entries[i][j] for j in range(r)] for i in range(r)]
    forms = [FormValue.scalar(n, one)]
    for k in range(1, r + 1):
        acc = FormValue.zero(n)
        for S in combinations(range(r), k):
            for perm in permutations(range(k)):
                sign = _perm_sign(perm)
                term = FormValue.scalar(n, one)
                for i in range(k):
                    term = term.wedge(X[S[i]][S[perm[i]]])
                acc = acc + sign * term
        forms.append(acc)
    return ChernData(tuple(forms))


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def segre_forms(c: ChernData, max_degree: int) -> list[FormValue]:
    """Power-series inverse of the Chern polynomial:
    s_0 = 1 and s_k = -sum_{i=1..k} c_i wedge s_{k-i}."""
    n = c.dim
    s = [c[0]]
    for k in range(1, max_degree + 1):
        acc = FormValue.zero(n)
        for i in range(1, k + 1):
            acc = acc + c[i].wedge(s[k - i])
        s.append(-acc)
    return s


def schur_form(lam: Sequence[int], c: ChernData) -> FormValue:
    """Giambelli determinant det(h_{lam_i - i + j}) with h_k the signed
    Segre form (-1)^k s_k, so that S_(2) = c1^2 - c2 and S_(1,1) = c2."""
    lam = [int(x) for x in lam if int(x) > 0]
    if sorted(lam, reverse=True) != lam:
        raise ValueError("partition must be nonincreasing")
    if len(lam) > c.rank:
        raise ValueError("partition longer than the rank")
    n = c.dim
    if not lam:
        return c[0]
    ell = len(lam)
    top = lam[0] + ell - 1
    s = segre_forms(c, top)
    h = [((-1) ** k) * s[k] for k in range(top + 1)]

    def h_at(k):
        if k < 0:
            return FormValue.zero(n)
        return h[k]

    one = QQi(1) if exact_mode(c) else 1.0
    acc = FormValue.zero(n)
    for perm in permutations(range(ell)):
        sign = _perm_sign(perm)
        term = FormValue.scalar(n, one)
        for i in range(ell):
            term = term.wedge(h_at(lam[i] - (i + 1) + (perm[i] + 1)))
        acc = acc + sign * term
    return acc


def kobayashi_lubke_rhs(c: ChernData, r: int) -> FormValue:
    """(2r c2 - (r-1) c1^2) / (2r) on a surface."""
    if c.dim != 2:
        raise ValueError("defined for base dimension 2 only")
    c1, c2 = c[1], c[2]
    inv = QQi(Fraction(1, 2 * r)) if exact_mode(c) else 1.0 / (2 * r)
    return inv * ((2 * r) * c2 - (r - 1) * c1.wedge(c1))


# ---------------------------------------------------------------------------
# positivity testers (sampling; complex mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivityVerdict:
    verdict: str  # "positive" | "semipositive" | "indefinite"
    margin: float
    witness: tuple | None = None
    note: str = "sample-based verdict"

    def __bool__(self):
        return self.verdict == "positive"


def _assemble_bilinear(theta: CurvatureMatrix, H: np.ndarray) -> np.ndarray:
    """(n r) x (n r) Hermitian matrix M[(q,a),(p,c)] = sum_b H[a,b] T[b,c,p,q]
    whose quadratic form on u = v (x) s is
    sum conj(s_a) H[a,b] T[b,c,p,q] s_c v_p conj(v_q) = <s, Theta(v,vbar) s>_H
    (metric conjugate-linear in the first slot)."""
    T = theta.tensor()
    r, n = theta.rank, theta.dim
    H = np.asarray(H, dtype=complex)
    if H.shape != (r, r):
        raise ValueError("metric shape mismatch")
    if np.min(np.linalg.eigvalsh((H + H.conj().T) / 2)) <= 0 or np.max(
        np.abs(H - H.conj().T)
    ) > 1e-10 * max(1.0, float(np.max(np.abs(H)))):
        raise ValueError("metric must be Hermitian positive-definite")
    M = np.einsum("ab,bcpq->qapc", H, T).reshape(n * r, n * r)
    return M


def nakano_test(theta: CurvatureMatrix, H=None, tol=1e-10) -> PositivityVerdict:
    """Least eigenvalue of the assembled (nr) x (nr) Hermitian matrix."""
    r = theta.rank
    if H is None:
        H = np.eye(r)
    A = _assemble_bilinear(theta, H)
    if np.max(np.abs(A - A.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(A))):
        raise ValueError("assembled curvature pairing is not Hermitian")
    w, V = np.linalg.eigh((A + A.conj().T) / 2)
    margin = float(w[0])
    witness = tuple(V[:, 0])
    if margin > tol:
        return PositivityVerdict("positive", margin, witness)
    if margin >= -tol:
        return PositivityVerdict("semipositive", margin, witness)
    return PositivityVerdict("indefinite", margin, witness)


def nakano_margin_oracle(theta: CurvatureMatrix, H=None) -> float:
    """Dense eigenvalue solve of the assembled matrix (cross-check path)."""
    r = theta.rank
    if H is None:
        H = np.eye(r)
    A = _assemble_bilinear(theta, H)
    return float(np.min(np.linalg.eigvalsh((A + A.conj().T) / 2)))


def _unit_samples(rng, dim, count):
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def griffiths_test(
    theta: CurvatureMatrix, H=None, samples: int = 512, seed: int = 0, tol=1e-10
) -> PositivityVerdict:
    """Minimum of the curvature pairing over sampled decomposable directions
    v (x) s, both unit; H-unit for the section factor."""
    r, n = theta.rank, theta.dim
    if H is None:
        H = np.eye(r)
    A = _assemble_bilinear(theta, H)
    Hm = np.asarray(H, dtype=complex)
    rng = np.random.default_rng(seed)
    vs = _unit_samples(rng, n, samples)
    ss = _unit_samples(rng, r, samples)
    # H-normalize sections
    norms = np.sqrt(np.real(np.einsum("ka,ab,kb->k", ss, Hm, ss.conj())))
    ss = ss / norms[:, None]
    best = None
    best_pair = None
    for v, s in zip(vs, ss):
        u = np.kron(v, s)
        val = float(np.real(u.conj() @ A @ u))
        if best is None or val < best:
            best, best_pair = val, (tuple(v), tuple(s))
    if best > tol:
        return PositivityVerdict("positive", best, best_pair)
    if best >= -tol:
        return PositivityVerdict("semipositive", best, best_pair)
    return PositivityVerdict("indefinite", best, best_pair)


def griffiths_pairing(theta: CurvatureMatrix, H, v, s) -> float:
    """Value of the curvature form against the decomposable vector v (x) s."""
    A = _assemble_bilinear(theta, np.asarray(H, dtype=complex))
    u = np.kron(np.asarray(v, complex), np.asarray(s, complex))
    return float(np.real(u.conj() @ A @ u))


def weak_positivity_test(
    eta: FormValue, samples: int = 512, seed: int = 0, tol=1e-12
) -> PositivityVerdict:
    """Weak positivity of a (k,k)-form: test against wedges of n-k sampled
    simple positive (1,1)-forms i xi wedge xibar."""
    n = eta.dim
    ks = eta.bidegrees()
    if not ks:
        return PositivityVerdict("semipositive", 0.0)
    if len(ks) != 1:
        raise ValueError("mixed bidegree")
    (p, q) = ks.pop()
    if p != q:
        raise ValueError(f"not a (k,k)-form: bidegree {(p, q)}")
    k = p
    if k == n:
        val = volume_ratio(eta)
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            raise ValueError("top-degree coefficient is not real")
        margin = val.real
    else:
        rng = np.random.default_rng(seed)
        margin = None
        for _ in range(samples):
            prod = eta
            for _ in range(n - k):
                xi = rng.normal(size=n) + 1j * rng.normal(size=n)
                xi /= np.linalg.norm(xi)
                simple = FormValue(
                    n,
                    {
                        ((a,), (b,)): 1j * xi[a] * np.conj(xi[b])
                        for a in range(n)
                        for b in range(n)
                    },
                )
                prod = prod.wedge(simple)
            val = volume_ratio(prod).real
            margin = val if margin is None else min(margin, val)
    if margin > tol:
        return PositivityVerdict("positive", margin)
    if margin >= -tol:
        return PositivityVerdict("semipositive", margin)
    return PositivityVerdict("indefinite", margin)


# ---------------------------------------------------------------------------
# symbolic ddc stub for polynomial potentials
# ---------------------------------------------------------------------------


def ddc_polynomial(coeffs: dict, dim: int, point) -> FormValue:
    """(i/2pi) d dbar of a polynomial sum c_{ab} z^a zbar^b, evaluated at a
    point.  ``coeffs`` maps (a_tuple, b_tuple) exponent pairs to scalars.
    The grid version lives in the torus solver; this stub covers symbolic
    spot checks on polynomial inputs."""
    z = np.asarray(point, dtype=complex)
    if z.shape != (dim,):
        raise ValueError("point shape mismatch")
    out = {}
    for (a, b), c in coeffs.items():
        a, b = tuple(a), tuple(b)
        for p in range(dim):
            if a[p] == 0:
                continue
            for q in range(dim):
                if b[q] == 0:
                    continue
                mono = complex(c) * a[p] * b[q]
                for i in range(dim):
                    ea = a[i] - (1 if i == p else 0)
                    eb = b[i] - (1 if i == q else 0)
                    mono *= z[i] ** ea * np.conj(z[i]) ** eb
                key = ((p,), (q,))
                out[key] = out.get(key, 0j) + mono
    return (1j / (2 * math.pi)) * FormValue(dim, out)
