"""Pointwise exterior algebra of (p,q)-forms and curvature invariants.

Coefficients come in two modes: exact Gaussian rationals for identity
checks, and complex floats for positivity sampling.  The mode is decided in
one place, :func:`exact_mode`, from the store of the one form, curvature
matrix or Chern data computed on: an exact zero stays exact, a form built
with no QQi is float, and no scalar decides.  Every constant and zero that
depends on the mode is built from that structure, through one unit,
:func:`unit_of`, QQi(1) or 1.0, or as 0 times one of its forms; a sum of
two zeros is exact when either one is.  A float coefficient may be a numpy
array over a batch of points; it is dropped only when it is zero at every
point, and the queries reduce over its points as over the coefficients.
Exterior monomials are stored in the canonical order dz factors ascending,
then dzbar factors ascending; all wedge signs are normalized to that order.
The :class:`FormValue` constructor, the one way a coefficient enters a
form, rejects any other key with ValueError: each index tuple must be
strictly increasing, and every index must lie in [0, dim).

The exact scalar at the API is :class:`QQi`, Gaussian-integer numerators a,
b over one integer denominator d, as (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1; ``re`` and ``im`` read back as Fractions.  An exact
:class:`FormValue` does not store QQi values.  It stores Gaussian-integer
numerators ``{key: (a, b)}`` over one denominator d for the whole form, in
canonical form: d > 0 and gcd(d, every a and b) = 1, found with one gcd per
result form.  Sums, scalar products, wedges and conjugates work on those
integers; ``coeffs`` is a read-only view that makes a QQi per coefficient
on each read.  Berkowitz's recursion divides by nothing and Newton's
identities only by k, so reducing once per form keeps the integers small.

A wedge depends on its operands' keys only through one plan,
:func:`_wedge_plan`, cached per pair of key layouts: the output keys, and
for every pair of terms whose indices do not overlap, the output slot and
sign.  An exact :meth:`FormValue.wedge` runs the plan on the stored
numerators: it sums the Gaussian-integer products a1*a2 - b1*b2 and
a1*b2 + b1*a2 of each output coefficient over the one denominator d1*d2.
An exact operand whose one key is the 0-form runs no plan: it scales the
other's numerators, in the other's key order, which is the plan's.
A float wedge adds sign * (c1 * c2) in the plan's order, which is the order
of a loop over the terms, so float results keep that loop's bits.

Every Chern-Weil function reads the matrix it is given as the normalized
curvature X = (i/(2*pi)) Theta_h, in both modes, and multiplies by no
constant: c(E, h) = det(I + X).  The store picks only the arithmetic; a
caller that holds Theta_h normalizes it first, which keeps exact
coefficients in Q(i).  On an n-fold c_k is a (k,k)-form, so it
vanishes for k > n: :func:`chern_forms` and :func:`chern_forms_minors`
compute c_1 ... c_m, m = min(r, n), and return c_(m+1) ... c_r as zero forms.
Every sum starts from the zero form of the unit, so a zero keeps the mode.
The first uses Newton's identities on the power traces p_k = tr X^k.  At
m = 3 they come from the closed walks grouped by rotation,
:func:`_rotation_traces`, with no matrix power; otherwise p_k =
tr(X^(k - k//2) X^(k//2)), which forms X^j for j <= ceil(m/2) only.  The
oracle uses a division-free Berkowitz recursion, :func:`_elementary`, with
no power trace.  :func:`schur_form`, the dual Jacobi-Trudi determinant in
the Chern forms, sums the integer Chern-monomial expansion of that
determinant, cached per partition by :func:`_schur_table`.

Exact computations use the standard library alone.  numpy is imported inside
the float functions that call it, at the first call:
:meth:`CurvatureMatrix.tensor`, the positivity testers :func:`nakano_test`,
:func:`griffiths_test`, :func:`griffiths_pairing` and
:func:`weak_positivity_test`.  The sampling testers evaluate all samples as
one batch: :func:`griffiths_test` in one call of :func:`griffiths_pairing`,
and :func:`weak_positivity_test` by wedging forms with arrays of coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain
from math import gcd, lcm
from numbers import Integral
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def _exact_parts(c):
    """(a, b, d) with c = (a + b*i)/d in canonical form, for a QQi, int or
    Fraction; None for any other value."""
    if type(c) is QQi:
        return c._a, c._b, c._d
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    return None


def _exact_operand(op):
    """A binary QQi operator that takes its other operand as the (a, b, d)
    of :func:`_exact_parts`; any other operand gives NotImplemented."""
    @wraps(op)
    def method(self, other):
        parts = _exact_parts(other)
        return NotImplemented if parts is None else op(self, *parts)
    return method


class QQi:
    """Gaussian rational scalar (a + b*i)/d.

    The value is held as Gaussian-integer numerators ``a``, ``b`` over one
    denominator ``d``, always in canonical form: ``d > 0`` and
    ``gcd(a, b, d) == 1``.  Equal values therefore have equal fields, so
    ``==`` compares the fields directly.  ``re`` and ``im`` are read back
    as Fractions.  Each operator reads an int or Fraction operand as the
    QQi it equals."""

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

    @_exact_operand
    def __add__(self, c, e, f):
        d = self._d
        return _reduced(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    @_exact_operand
    def __sub__(self, c, e, f):
        d = self._d
        return _reduced(self._a * f - c * d, self._b * f - e * d, d * f)

    @_exact_operand
    def __rsub__(self, c, e, f):
        d = self._d
        return _reduced(c * d - self._a * f, e * d - self._b * f, d * f)

    @_exact_operand
    def __mul__(self, c, e, f):
        a, b = self._a, self._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    @_exact_operand
    def __truediv__(self, c, e, f):
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

    @_exact_operand
    def __eq__(self, c, e, f):
        return self._a == c and self._b == e and self._d == f

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
    z = object.__new__(QQi)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> QQi:
    """QQi (a + b*i)/d for d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    return _raw(a // g, b // g, d // g)


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


@lru_cache(maxsize=1 << 10)
def _wedge_plan(left: tuple, right: tuple):
    """The index work of a wedge of a form whose keys are ``left`` by one
    whose keys are ``right``: (keys, pairs).  pairs holds one
    (i, j, slot, negate) per term pair whose dz and dzbar indices do not
    overlap, in the order of a loop over left and, inside it, over right;
    keys[slot] is the pair's output key, and keys are in the order that loop
    first reaches them.  negate is True when merging the indices and moving
    dzbar^J1 across dz^I2 gives the sign -1.  No coefficient is read, so one
    plan serves both modes.  A plan holds at most 9^n pairs on an n-fold;
    the bound keeps 2^10 plans."""
    slots = {}
    pairs = []
    for i, (I1, J1) in enumerate(left):
        for j, (I2, J2) in enumerate(right):
            I, si = _merge_sign(I1, I2)
            if si == 0:
                continue
            J, sj = _merge_sign(J1, J2)
            if sj == 0:
                continue
            # move dzbar^J1 (len |J1|) across dz^I2 (len |I2|)
            sign = si * sj * (-1 if (len(J1) * len(I2)) % 2 else 1)
            pairs.append((i, j, slots.setdefault((I, J), len(slots)), sign < 0))
    return tuple(slots), tuple(pairs)


class FormValue:
    """Element of the exterior algebra at a point (or a batch of points):
    sum over (I, J) of f_IJ dz^I wedge dzbar^J.

    A form holds one of two stores.  An exact form holds Gaussian-integer
    numerators ``{key: (a, b)}`` over one denominator d, so f_IJ =
    (a + b*i)/d, in canonical form: d > 0 and gcd(d, every a and b) == 1.  A
    float form holds its coefficients as given (complex numbers or arrays
    over points) and has d None.  Zero coefficients are never stored."""

    __slots__ = ("dim", "_terms", "_d")
    __array_ufunc__ = None  # array * form runs __rmul__, not an object array of forms

    def __init__(self, dim: int, coeffs=None):
        """``coeffs`` maps keys (I, J) to scalars.  Each key must be
        canonical, I and J strictly increasing tuples of indices in
        [0, dim): any other key raises ValueError.  When one of the scalars
        is a QQi the form is exact, and every other must be an int or a
        Fraction: a float raises TypeError."""
        self.dim = dim
        items = [((tuple(I), tuple(J)), c) for (I, J), c in coeffs.items()] if coeffs else []
        for (I, J), _ in items:
            _check_key(I, J, dim)
        if not any(type(c) is QQi for _, c in items):
            self._terms, self._d = _nonzero(items), None
            return
        parts = {key: _exact_parts(c) for key, c in items}
        bad = [c for key, c in items if parts[key] is None]
        if bad:
            raise TypeError(f"not an exact coefficient: {bad[0]!r}")
        d = lcm(*(e for _, _, e in parts.values()))
        self._terms, self._d = _canonical({key: (a * (d // e), b * (d // e))
                                           for key, (a, b, e) in parts.items() if a or b}, d)

    @classmethod
    def _of(cls, dim: int, terms: dict, d=None) -> "FormValue":
        """A form that takes ``terms`` and ``d`` as they are: canonical keys,
        no zero coefficient and, for an exact form, canonical numerators.
        Skips ``__init__``."""
        f = object.__new__(cls)
        f.dim, f._terms, f._d = dim, terms, d
        return f

    @property
    def coeffs(self) -> MappingProxyType:
        """The coefficients by (I, J), read-only; an exact form makes one QQi
        per coefficient on each read."""
        if self._d is None:
            return MappingProxyType(self._terms)
        d = self._d
        return MappingProxyType({k: _reduced(a, b, d) for k, (a, b) in self._terms.items()})

    def keys(self):
        """The stored (I, J) keys, in order, without reading a coefficient."""
        return self._terms.keys()

    # -- constructors --

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def scalar(cls, dim, c):
        return cls(dim, {((), ()): c})

    @classmethod
    def monomial(cls, dim, I, J, c=1):
        return cls(dim, {(tuple(I), tuple(J)): c})

    # -- ring operations --

    def __add__(self, other):
        self._check(other)
        # a sum of two zeros is exact when either one is, in either order
        if not other._terms and (self._terms or other._d is None):
            return self
        if self._d is None and other._d is None:
            out = dict(self._terms)
            # only other's keys can change, so only they are tested for zero
            for key, c in other._terms.items():
                total = out.get(key, 0j) + c
                if _is_zero(total):
                    out.pop(key, None)
                else:
                    out[key] = total
            return FormValue._of(self.dim, out)
        if not self._terms:
            return other
        d = lcm(self._d, other._d)
        s, t = d // self._d, d // other._d
        out = dict(self._terms) if s == 1 else {
            k: (a * s, b * s) for k, (a, b) in self._terms.items()}
        for key, (a, b) in other._terms.items():
            old = out.get(key)
            a, b = a * t, b * t
            if old is not None:
                a, b = old[0] + a, old[1] + b
                if not (a or b):
                    del out[key]
                    continue
            out[key] = (a, b)
        return FormValue._of(self.dim, *_canonical(out, d))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if self._d is None:
            return FormValue._of(
                self.dim, _nonzero((k, scalar * c) for k, c in self._terms.items()))
        parts = _exact_parts(scalar)
        if parts is None:
            return NotImplemented
        p, q, e = parts
        if not (p or q):
            return FormValue._of(self.dim, {}, 1)
        # a nonzero Gaussian integer times a nonzero one is nonzero
        return FormValue._of(self.dim, *_canonical({k: (a * p - b * q, a * q + b * p)
                                                    for k, (a, b) in self._terms.items()},
                                                   self._d * e))

    def __mul__(self, other):
        if isinstance(other, FormValue):
            return self.wedge(other)
        return other * self

    def wedge(self, other: "FormValue") -> "FormValue":
        """self ^ other, on the term pairs of :func:`_wedge_plan`.  In float
        mode each output coefficient adds sign * (c1 * c2) over its pairs in
        the plan's order, the order of a loop over self's terms and then
        other's; two exact forms run :meth:`_exact_wedge`."""
        self._check(other)
        if self._d is not None and other._d is not None:
            return self._exact_wedge(other)
        keys, pairs = _wedge_plan(tuple(self._terms), tuple(other._terms))
        left, right = list(self._terms.values()), list(other._terms.values())
        out = [None] * len(keys)
        for i, j, slot, negate in pairs:
            term = (-1 if negate else 1) * (left[i] * right[j])
            acc = out[slot]
            out[slot] = (0j if acc is None else acc) + term
        return FormValue._of(self.dim, _nonzero(zip(keys, out)))

    def _exact_wedge(self, other: "FormValue") -> "FormValue":
        """The wedge over Q(i), on the term pairs of :func:`_wedge_plan`:
        every output coefficient is two sums of Gaussian-integer products
        of the stored numerators, over d1*d2, and the result is brought to
        canonical form once.  Keys come in the plan's order, which is the
        generic loop's.  An operand whose one key is the 0-form ((), ()) runs
        no plan: the other's numerators times its scalar, in the other's
        key order, which is the plan's."""
        for scalar, form in ((self, other), (other, self)):
            if len(scalar._terms) == 1 and ((), ()) in scalar._terms:
                p, q = scalar._terms[(), ()]
                # a nonzero Gaussian integer times a nonzero one is nonzero
                return FormValue._of(self.dim, *_canonical(
                    {k: (a * p - b * q, a * q + b * p) for k, (a, b) in form._terms.items()},
                    self._d * other._d))
        keys, pairs = _wedge_plan(tuple(self._terms), tuple(other._terms))
        left, right = list(self._terms.values()), list(other._terms.values())
        re, im = [0] * len(keys), [0] * len(keys)
        for i, j, slot, negate in pairs:
            x, y = left[i]
            u, v = right[j]
            if negate:
                x, y = -x, -y
            re[slot] += x * u - y * v
            im[slot] += x * v + y * u
        return FormValue._of(self.dim, *_canonical({key: (a, b) for key, a, b in zip(keys, re, im)
                                                    if a or b}, self._d * other._d))

    def conjugate(self) -> "FormValue":
        # (I, J) -> (J, I) is one to one, so no two terms meet; reordering
        # dz^J dzbar^I gives the sign -1 when |I| |J| is odd
        if self._d is not None:
            return FormValue._of(self.dim, {(J, I): (-a, b) if len(I) * len(J) % 2 else (a, -b)
                                            for (I, J), (a, b) in self._terms.items()}, self._d)
        return FormValue._of(self.dim, {(J, I): (-1 if len(I) * len(J) % 2 else 1) * c.conjugate()
                                        for (I, J), c in self._terms.items()})

    # -- queries --

    def _check(self, other):
        if not isinstance(other, FormValue) or other.dim != self.dim:
            raise ValueError("dimension mismatch")
        if (self._d is None) != (other._d is None) and self._terms and other._terms:
            raise TypeError("an exact form and a float form do not mix")

    def is_zero(self, tol=0.0) -> bool:
        return all(_abs_max(c) <= tol for c in self.coeffs.values())

    def coefficient(self, I, J):
        return self.coeffs.get((tuple(I), tuple(J)), 0)

    def bidegrees(self):
        return {(len(I), len(J)) for I, J in self._terms}

    def max_abs(self) -> float:
        return max((_abs_max(c) for c in self.coeffs.values()), default=0.0)

    def approx_equal(self, other, tol=1e-12) -> bool:
        return (self - other).max_abs() <= tol

    def is_real(self, tol=0.0) -> bool:
        return (self - self.conjugate()).max_abs() <= tol

    def __eq__(self, other):
        if not isinstance(other, FormValue) or other.dim != self.dim:
            return NotImplemented
        # both stores are canonical and hold no zero, so two equal forms
        # with one store hold equal items; across stores, coefficients
        # compare as scalars do
        if (self._d is None) == (other._d is None):
            return self._d == other._d and self._terms == other._terms
        return dict(self.coeffs) == dict(other.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{I}|{J}: {c}" for (I, J), c in sorted(self.coeffs.items()))
        return f"FormValue(dim={self.dim}, {{{terms}}})"


def _check_key(I: tuple, J: tuple, dim: int) -> None:
    """Raise ValueError unless I and J are strictly increasing tuples of
    indices in [0, dim)."""
    if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
        raise ValueError("index tuples must be strictly increasing")
    if any(not 0 <= i < dim for i in I + J):
        raise ValueError("index out of range")


def _canonical(terms: dict, d: int) -> tuple:
    """(terms, d) for nonzero numerators ``terms`` over d > 0, divided by
    gcd(d, every numerator), with one gcd."""
    g = gcd(d, *chain.from_iterable(terms.values()))
    if g == 1:
        return terms, d
    return {k: (a // g, b // g) for k, (a, b) in terms.items()}, d // g


def _nonzero(items) -> dict:
    """The (key, coefficient) pairs of ``items`` whose coefficient is
    nonzero, as a dict."""
    return {key: c for key, c in items if not _is_zero(c)}


def _is_zero(c) -> bool:
    """True when c is zero; an array over points is zero when it is zero at
    every point."""
    try:
        return not c
    except ValueError:  # an array over points
        return not c.any()


def _abs_max(c) -> float:
    """|c|; for an array over points, its largest entry."""
    return float(abs(c).max()) if getattr(c, "ndim", 0) else abs(complex(c))


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
    """r x r matrix of (1,1)-form values at a point; the Chern-Weil
    functions read it as the normalized curvature X = (i/(2 pi)) Theta_h."""

    def __init__(self, entries: Sequence[Sequence[FormValue]]):
        self.entries = [list(row) for row in entries]
        self.rank = len(self.entries)
        if not self.entries:
            raise ValueError("matrix must have at least one entry")
        if any(len(row) != self.rank for row in self.entries):
            raise ValueError("matrix must be square")
        self.dim = self.entries[0][0].dim
        if any(f.dim != self.dim for row in self.entries for f in row):
            raise ValueError("entries must share one base dimension")

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
        """Coefficient tensor T[..., a, b, p, q] of dz_p wedge dzbar_q in
        entry (a, b), with leading axes (...) from coefficient arrays."""
        import numpy as np
        r, n = self.rank, self.dim
        terms = [(a, b, key, c) for a in range(r) for b in range(r)
                 for key, c in self.entries[a][b].coeffs.items()]
        T = np.zeros(np.broadcast_shapes(*(np.shape(c) for *_, c in terms)) + (r, r, n, n),
                     dtype=complex)
        for a, b, (I, J), c in terms:
            if len(I) != 1 or len(J) != 1:
                raise ValueError("curvature entries must be (1,1)-forms")
            T[..., a, b, I[0], J[0]] = c
        return T

    @classmethod
    def from_tensor(cls, T: np.ndarray) -> "CurvatureMatrix":
        """The inverse of :meth:`tensor`, for T of shape (..., r, r, n, n)."""
        r, _, n, _ = T.shape[-4:]
        return cls([[FormValue(n, {((p,), (q,)): T[..., a, b, p, q]
                                   for p in range(n) for q in range(n)})
                     for b in range(r)] for a in range(r)])

    @classmethod
    def scalar_times_identity(cls, omega: FormValue, rank: int) -> "CurvatureMatrix":
        """omega on the diagonal and 0 * omega, the zero of omega's store,
        off it."""
        zero = 0 * omega
        return cls(
            [[omega if i == j else zero for j in range(rank)] for i in range(rank)]
        )

    def conjugated(self, d: Sequence) -> "CurvatureMatrix":
        """diag(d) . Theta . diag(d)^-1, entrywise (d_i / d_j) * Theta_ij.
        The factors decide no mode, so an exact matrix takes QQi factors."""
        r = self.rank
        return CurvatureMatrix([[(d[i] / d[j]) * self.entries[i][j] for j in range(r)]
                                for i in range(r)])


def random_qqi(rng: random.Random) -> QQi:
    """Gaussian rational p/q + (s/t) i, p and s in {-3..3}, q and t in {1..4}."""
    return QQi(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )


def random_exact_curvature(rng: random.Random, r: int, n: int) -> CurvatureMatrix:
    """Random exact CurvatureMatrix with entries[j][i] the Hermitian partner
    of entries[i][j] (diagonal entries symmetrized); each entry draws one
    :func:`random_qqi` per dz_p dzbar_q, p and q ascending."""
    E = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            f = FormValue(n, {((p,), (q,)): random_qqi(rng) for p in range(n) for q in range(n)})
            if i == j:
                f = f + hermitian_partner(f)
            E[i][j] = f
            if i != j:
                E[j][i] = hermitian_partner(f)
    return CurvatureMatrix(E)


def _product_entry(A, B, i, j, zero):
    """Entry (i, j) of the matrix wedge product A B, summed from ``zero``."""
    return sum((A[i][k].wedge(B[k][j]) for k in range(len(A))), zero)


def _mat_wedge(A, B, zero):
    r = len(A)
    return [[_product_entry(A, B, i, j, zero) for j in range(r)] for i in range(r)]


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
            return 0 * self.forms[0]  # the zero of the data's own store
        return self.forms[k]


def exact_mode(item) -> bool:
    """True when a computation on ``item``, one form, curvature matrix or
    Chern data, runs over Q(i), False when it runs over complex floats.  The
    first of its forms that has an exact store, even with no coefficient, or
    that stores a coefficient decides by its store, so an exact zero stays
    exact.  A form built with no QQi is float, such as a monomial with the
    int default, and an empty one decides nothing.  A scalar decides
    nothing: any other item raises TypeError."""
    if isinstance(item, FormValue):
        forms = (item,)
    elif isinstance(item, CurvatureMatrix):
        forms = chain.from_iterable(item.entries)
    elif isinstance(item, ChernData):
        forms = item.forms
    else:
        raise TypeError(f"exact_mode reads a form, curvature matrix or Chern data, "
                        f"got {type(item).__name__}")
    return next((f._d is not None for f in forms if f._terms or f._d is not None), False)


def unit_of(item):
    """QQi(1) when :func:`exact_mode` reads ``item`` as exact, else 1.0."""
    return QQi(1) if exact_mode(item) else 1.0


def _checked_unit(theta: CurvatureMatrix):
    """:func:`unit_of` theta, once its entries are checked to have no part
    of degree below 2, so that a wedge of more than n of them vanishes."""
    if any(len(I) + len(J) < 2 for row in theta.entries for f in row for I, J in f.keys()):
        raise ValueError("curvature entries must have no 0-form or 1-form part")
    return unit_of(theta)


def _elementary(A, top: int, one: FormValue) -> list[FormValue]:
    """[e_0 = one, e_1, ..., e_top] with det(I + tA) = sum_k e_k t^k, for a
    square matrix A of even forms (they commute), by Berkowitz's recursion:
    bordering the leading block A_m by a column C, a row R and a corner a
    multiplies the polynomial by 1 + a t + sum_j (-1)^(j+1) R A_m^j C t^(j+2).
    Degrees above top, or above m + 1 for A_m, are never formed; no division."""
    zero = 0 * one
    e = [one] + [zero] * top
    for m in range(len(A)):
        deg = min(m + 1, top)
        q = [one, A[m][m]]  # q[d]: the factor's coefficient of t^d
        v = [A[i][m] for i in range(m)]  # A_m^j C for j = d - 2
        for d in range(2, deg + 1):
            if d > 2:
                v = [sum((A[i][k].wedge(v[k]) for k in range(m)), zero) for i in range(m)]
            Rv = sum((A[m][k].wedge(v[k]) for k in range(m)), zero)
            q.append(Rv if d % 2 else -Rv)
        # descending k, so that each e[k - d] is still the old coefficient
        for k in range(deg, 0, -1):
            e[k] = sum((e[k - d].wedge(q[d]) for d in range(1, k)), e[k] + q[k])
    return e


def _rotation_traces(X, zero) -> list[FormValue]:
    """[p_1, p_2, p_3], p_k = tr X^k, for a square matrix X of even forms
    (they commute), from the closed walks of length k grouped by rotation:
    p_2 = sum_i X_ii^2 + 2 sum_{i<j} X_ij X_ji and

        p_3 = sum_i X_ii^3 + 3 sum_i X_ii sum_{j != i} X_ij X_ji
              + 3 sum_{i<j<k} (X_ij X_jk X_ki + X_ik X_kj X_ji),

    where the triangles through i < k are summed over j before the closing
    factor X_ki or X_ik, for k > i + 1 only, as no j lies between i and
    i + 1.  That is C(r,2) + 3r + 2 C(r,3) + 2 C(r-1,2) wedges, and no
    matrix power."""
    r = len(X)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    cycle = {}  # X_ij X_ji, one wedge per pair
    for i, j in pairs:
        cycle[i, j] = cycle[j, i] = X[i][j].wedge(X[j][i])
    squares = [X[i][i].wedge(X[i][i]) for i in range(r)]

    def path(a, b):  # the walks a -> j -> b over the j strictly between a and b
        return sum((X[a][j].wedge(X[j][b]) for j in range(min(a, b) + 1, max(a, b))), zero)

    p1 = sum((X[i][i] for i in range(r)), zero)
    p2 = sum(squares, zero) + 2 * sum((cycle[pair] for pair in pairs), zero)
    cubes = sum((squares[i].wedge(X[i][i]) for i in range(r)), zero)
    loops = sum((X[i][i].wedge(sum((cycle[i, j] for j in range(r) if j != i), zero))
                 for i in range(r)), zero)
    triangles = sum((path(i, k).wedge(X[k][i]) + path(k, i).wedge(X[i][k])
                     for i, k in pairs if k > i + 1), zero)
    return [p1, p2, cubes + 3 * (loops + triangles)]


def chern_forms(theta: CurvatureMatrix) -> ChernData:
    """Elementary symmetric functions of the normalized curvature X = theta,
    taken as given, via Newton's identities on the power traces
    p_k = tr X^k.  c_k is a (k,k)-form, so only c_1 ... c_m with
    m = min(r, n) are computed; c_(m+1) ... c_r are zero forms of the mode.
    At m = 3 the traces come from :func:`_rotation_traces`, with no matrix
    power.  Otherwise p_k = tr(X^(k - k//2) X^(k//2)): X^j is formed for
    j <= ceil(m/2), and above it only a diagonal."""
    one, X = _checked_unit(theta), theta.entries
    r, n = theta.rank, theta.dim
    m = min(r, n)
    unit = FormValue.scalar(n, one)
    zero = 0 * unit
    if m == 3:
        traces = _rotation_traces(X, zero)
    else:
        powers = [X]
        while len(powers) < (m + 1) // 2:
            powers.append(_mat_wedge(powers[-1], X, zero))
        traces = [sum((powers[k - 1][i][i] if k <= len(powers) else
                       _product_entry(powers[k - k // 2 - 1], powers[k // 2 - 1], i, i, zero)
                       for i in range(r)), zero) for k in range(1, m + 1)]
    e = [unit]
    for k in range(1, m + 1):
        acc = zero
        for i in range(1, k + 1):
            term = e[k - i].wedge(traces[i - 1])
            acc = acc + ((-1) ** (i - 1)) * term
        e.append((one / k) * acc)
    return ChernData(tuple(e + [zero] * (r - m)))


def chern_forms_minors(theta: CurvatureMatrix) -> ChernData:
    """Independent oracle: c_k = e_k(X), the sum of the principal k x k minors
    of the normalized curvature X = theta, taken as given, from det(I + tX).
    No power trace and no division, so it shares no step with the Newton
    identities it checks."""
    r, n = theta.rank, theta.dim
    unit = FormValue.scalar(n, _checked_unit(theta))
    forms = _elementary(theta.entries, min(r, n), unit)
    return ChernData(tuple(forms + [0 * unit] * (r + 1 - len(forms))))


def segre_forms(c: ChernData, max_degree: int) -> list[FormValue]:
    """Power-series inverse of the Chern polynomial:
    s_0 = 1 and s_k = -sum_{i=1..k} c_i wedge s_{k-i}."""
    s = [c[0]]
    zero = 0 * c[0]
    for k in range(1, max_degree + 1):
        acc = zero
        for i in range(1, k + 1):
            acc = acc + c[i].wedge(s[k - i])
        s.append(-acc)
    return s


@lru_cache(maxsize=256)
def _schur_table(dual: tuple) -> tuple:
    """The dual Jacobi-Trudi determinant det(c_{dual_i - i + j}) expanded
    into Chern monomials: ((monomial, coefficient), ...), each monomial an
    ascending tuple of indices k >= 1 (c_0 = 1 drops out) with a nonzero
    integer coefficient, monomials in ascending order: dual = (1, 1, 1, 1)
    gives S_(4) = -c4 + 2 c1 c3 + c2^2 - 3 c1^2 c2 + c1^4.  Cofactor
    expansion along the first row, each minor, fixed by its columns,
    expanded once.  Cached, with a bound of 256 partitions."""
    ell = len(dual)

    @lru_cache(maxsize=None)
    def minor(cols: tuple) -> dict:  # rows ell - len(cols) .. ell - 1
        if not cols:
            return {(): 1}
        i, out = ell - len(cols), {}
        for pos, j in enumerate(cols):
            k = dual[i] - i + j
            if k < 0:
                continue
            for mono, coef in minor(cols[:pos] + cols[pos + 1:]).items():
                mono = tuple(sorted(mono + (k,))) if k else mono
                out[mono] = out.get(mono, 0) + (-coef if pos % 2 else coef)
        return {mono: coef for mono, coef in out.items() if coef}

    return tuple(sorted(minor(tuple(range(ell))).items()))


def schur_form(lam: Sequence[int], c: ChernData) -> FormValue:
    """Dual Jacobi-Trudi determinant det(c_{lam'_i - i + j}) of the conjugate
    partition lam', so that S_(2) = c1^2 - c2 and S_(1,1) = c2.  It reads
    the Chern forms alone, with no Segre form (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3, (3.5); Fulton, Intersection Theory,
    14.5): the integer sum over Chern monomials of :func:`_schur_table`,
    each product wedged once per call, keyed by its prefix, and a
    one-factor monomial c_k itself.  Monomials with an index above the rank
    vanish and are skipped; above the base dimension, |lam| > n, the form is
    the zero of c's store.  Zero parts are dropped; a negative part, or one
    that is not an integer (a bool included), raises."""
    if any(isinstance(x, bool) or not isinstance(x, Integral) for x in lam):
        raise ValueError(f"partition parts must be integers, got {tuple(lam)!r}")
    if any(x < 0 for x in lam):
        raise ValueError("partition parts must be nonnegative")
    lam = [int(x) for x in lam if x > 0]
    if sorted(lam, reverse=True) != lam:
        raise ValueError("partition must be nonincreasing")
    if len(lam) > c.rank:
        raise ValueError("partition longer than the rank")
    if not lam:
        return c[0]
    total = 0 * c[0]
    if sum(lam) > c.dim:
        return total
    products = {}  # prefix of a monomial -> its wedge product
    for mono, coef in _schur_table(tuple(sum(1 for x in lam if x > i) for i in range(lam[0]))):
        if mono[-1] > c.rank:
            continue
        f = c[mono[0]]
        for end in range(2, len(mono) + 1):
            prefix = mono[:end]
            if prefix not in products:
                products[prefix] = f.wedge(c[prefix[-1]])
            f = products[prefix]
        total = total + (f if coef == 1 else coef * f)
    return total


def kobayashi_lubke_rhs(c: ChernData, r: int) -> FormValue:
    """(2r c2 - (r-1) c1^2) / (2r) on a surface."""
    if c.dim != 2:
        raise ValueError("defined for base dimension 2 only")
    c1, c2 = c[1], c[2]
    return (unit_of(c) / (2 * r)) * ((2 * r) * c2 - (r - 1) * c1.wedge(c1))


# ---------------------------------------------------------------------------
# positivity testers (sampling; complex mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivityVerdict:
    verdict: str  # "positive" | "semipositive" | "indefinite"
    margin: float
    witness: tuple | None = None

    @classmethod
    def classify(cls, margin, tol, witness=None) -> "PositivityVerdict":
        """Positive above tol, semipositive within tol of zero, else
        indefinite."""
        if margin > tol:
            return cls("positive", margin, witness)
        if margin >= -tol:
            return cls("semipositive", margin, witness)
        return cls("indefinite", margin, witness)

    def __bool__(self):
        return self.verdict == "positive"


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _assemble_bilinear(theta: CurvatureMatrix, H: np.ndarray) -> np.ndarray:
    """(n r) x (n r) Hermitian matrix M[(q,a),(p,c)] = sum_b H[a,b] T[b,c,p,q]
    whose quadratic form on u = v (x) s is
    sum conj(s_a) H[a,b] T[b,c,p,q] s_c v_p conj(v_q) = <s, Theta(v,vbar) s>_H
    (metric conjugate-linear in the first slot); leading batch axes of H and
    of the tensor broadcast, and each H is checked on its own."""
    import numpy as np
    T = theta.tensor()
    r, n = theta.rank, theta.dim
    H = np.asarray(H, dtype=complex)
    if H.shape[-2:] != (r, r):
        raise ValueError("metric shape mismatch")
    Hh = H.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(H).max(axis=(-2, -1)))
    if (not np.isfinite(H).all() or np.min(np.linalg.eigvalsh((H + Hh) / 2)) <= 0
            or np.any(np.abs(H - Hh).max(axis=(-2, -1)) > 1e-10 * scale)):
        raise ValueError("metric must be finite, Hermitian and positive-definite")
    M = np.einsum("...ab,...bcpq->...qapc", H, T)
    return M.reshape(M.shape[:-4] + (n * r, n * r))


def nakano_test(theta: CurvatureMatrix, H=None, tol=1e-10) -> PositivityVerdict:
    """Least eigenvalue of the assembled (nr) x (nr) Hermitian matrix."""
    import numpy as np
    r = theta.rank
    if H is None:
        H = np.eye(r)
    A = _assemble_bilinear(theta, H)
    if A.ndim != 2:
        raise ValueError(f"nakano_test takes a curvature at one point, got a batch {A.shape[:-2]}")
    if np.max(np.abs(A - A.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(A))):
        raise ValueError("assembled curvature pairing is not Hermitian")
    w, V = np.linalg.eigh((A + A.conj().T) / 2)
    return PositivityVerdict.classify(float(w[0]), tol, tuple(V[:, 0]))


def _unit_samples(rng, dim, count):
    import numpy as np
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def griffiths_test(
    theta: CurvatureMatrix, H=None, samples: int = 512, seed: int = 0, tol=1e-10
) -> PositivityVerdict:
    """Minimum of the curvature pairing over sampled decomposable directions
    v (x) s, v unit and s H-unit: one batched :func:`griffiths_pairing`,
    divided by |s|_H^2 = s* H s as it is quadratic in s.  The witness is the
    first minimizer, s H-normalized."""
    import numpy as np
    _check_samples(samples)
    H = np.eye(theta.rank) if H is None else np.asarray(H, dtype=complex)
    rng = np.random.default_rng(seed)
    vs, ss = _unit_samples(rng, theta.dim, samples), _unit_samples(rng, theta.rank, samples)
    vals = griffiths_pairing(theta, H, vs, ss)  # validates H before it is used below
    norms = np.real(np.einsum("ka,ab,kb->k", ss.conj(), H, ss))
    vals = vals / norms
    k = int(np.argmin(vals))
    return PositivityVerdict.classify(
        float(vals[k]), tol, (tuple(vs[k]), tuple(ss[k] / np.sqrt(norms[k]))))


def griffiths_pairing(theta: CurvatureMatrix, H, v, s):
    """<Theta(v, vbar) s, s>_H, the curvature form against the decomposable
    vector v (x) s.  v (..., n), s (..., r), H (..., r, r) and the tensor of
    theta may carry leading batch axes, which broadcast; the value is an
    array over them, and a float for single vectors."""
    import numpy as np
    A = _assemble_bilinear(theta, H)
    u = np.asarray(v, complex)[..., :, None] * np.asarray(s, complex)[..., None, :]
    u = u.reshape(u.shape[:-2] + (-1,))
    val = np.real(np.einsum("...i,...i->...", (u.conj()[..., None, :] @ A)[..., 0, :], u))
    return float(val) if val.ndim == 0 else val


def weak_positivity_test(
    eta: FormValue, samples: int = 512, seed: int = 0, tol=1e-12
) -> PositivityVerdict:
    """Weak positivity of a (k,k)-form: test against wedges of n-k sampled
    simple positive (1,1)-forms i xi wedge xibar, each factor one form with
    coefficients over the samples; xi are drawn in sample, factor, real then
    imaginary part order.  Below top degree an exact eta is tested through
    its coefficients read as complex numbers."""
    import numpy as np
    _check_samples(samples)
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
        x = np.random.default_rng(seed).normal(size=(samples, n - k, 2, n))
        xi = x[:, :, 0] + 1j * x[:, :, 1]
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        prod = eta
        if exact_mode(eta):  # read once as complex, to wedge with the float factors
            prod = FormValue(n, {key: complex(c) for key, c in eta.coeffs.items()})
        for j in range(n - k):
            prod = prod.wedge(FormValue(n, {((a,), (b,)): 1j * xi[:, j, a] * np.conj(xi[:, j, b])
                                            for a in range(n) for b in range(n)}))
        full = tuple(range(n))
        margin = float(np.min(np.real(prod.coefficient(full, full) / volume_normalizer(n))))
    return PositivityVerdict.classify(margin, tol)
