"""Tests for the pointwise exterior algebra and curvature invariants."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parachern.forms import (
    ChernData,
    CurvatureMatrix,
    FormValue,
    PositivityVerdict,
    QQi,
    chern_forms,
    chern_forms_minors,
    exact_mode,
    griffiths_pairing,
    griffiths_test,
    hermitian_partner,
    kobayashi_lubke_rhs,
    nakano_test,
    random_exact_curvature as forms_random_exact_curvature,
    random_qqi,
    schur_form,
    segre_forms,
    volume_ratio,
    weak_positivity_test,
    _elementary,
    _merge_sign,
    _wedge_plan,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def reorder_sign_oracle(word_i, word_j):
    """Sign bringing an interleaved word of (kind, index) letters into the
    canonical order: all dz ascending, then all dzbar ascending.  ``word_i``
    and ``word_j`` list the positions of dz / dzbar letters in the word."""
    word = [("z", i) for i in word_i] + [("zb", j) for j in word_j]
    target = sorted(word, key=lambda t: (t[0] == "zb", t[1]))
    # count inversions of the permutation taking word -> target
    pos = [target.index(x) for x in word]
    inv = sum(1 for a in range(len(pos)) for b in range(a + 1, len(pos)) if pos[a] > pos[b])
    return -1 if inv % 2 else 1


def wedge_word_oracle(a_key, b_key):
    """Wedge of two monomials by explicit letter concatenation."""
    (I1, J1), (I2, J2) = a_key, b_key
    letters = (
        [("z", i) for i in I1]
        + [("zb", j) for j in J1]
        + [("z", i) for i in I2]
        + [("zb", j) for j in J2]
    )
    if len({L for L in letters}) != len(letters):
        return None, 0
    # bubble-sort into canonical order counting swaps
    sign = 1
    letters = list(letters)
    n = len(letters)
    key = lambda t: (t[0] == "zb", t[1])
    for i in range(n):
        for j in range(n - 1 - i):
            if key(letters[j]) > key(letters[j + 1]):
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                sign = -sign
    I = tuple(i for k, i in letters if k == "z")
    J = tuple(i for k, i in letters if k == "zb")
    return (I, J), sign


def random_exact_form(rng, dim, p, q, span=4):
    from itertools import combinations

    coeffs = {}
    for I in combinations(range(dim), p):
        for J in combinations(range(dim), q):
            coeffs[(I, J)] = QQi(
                Fraction(int(rng.integers(-span, span + 1))),
                Fraction(int(rng.integers(-span, span + 1))),
            )
    return FormValue(dim, coeffs)


def random_exact_curvature(rng, rank, dim, span=3):
    """Hermitian-symmetric matrix of (1,1)-forms with Gaussian-rational
    coefficients: T[b,a,q,p] = conj(T[a,b,p,q])."""
    t = {}
    for a in range(rank):
        for b in range(rank):
            for p in range(dim):
                for q in range(dim):
                    t[(a, b, p, q)] = QQi(
                        Fraction(int(rng.integers(-span, span + 1))),
                        Fraction(int(rng.integers(-span, span + 1))),
                    )
    entries = [
        [
            FormValue(
                dim,
                {
                    ((p,), (q,)): t[(a, b, p, q)] + t[(b, a, q, p)].conjugate()
                    for p in range(dim)
                    for q in range(dim)
                },
            )
            for b in range(rank)
        ]
        for a in range(rank)
    ]
    return CurvatureMatrix(entries)


def random_float_curvature(rng, rank, dim):
    T = rng.normal(size=(rank, rank, dim, dim)) + 1j * rng.normal(
        size=(rank, rank, dim, dim)
    )
    T = (T + np.conj(np.transpose(T, (1, 0, 3, 2)))) / 2
    return CurvatureMatrix.from_tensor(T)


# ---------------------------------------------------------------------------
# QQi
# ---------------------------------------------------------------------------


def test_qqi_field_arithmetic():
    a = QQi(Fraction(1, 2), Fraction(-1, 3))
    b = QQi(2, 5)
    assert a + b == QQi(Fraction(5, 2), Fraction(14, 3))
    assert a * QQi(0, 1) == QQi(Fraction(1, 3), Fraction(1, 2))
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a
    assert complex(QQi(1, -2)) == 1 - 2j
    with pytest.raises(ZeroDivisionError):
        a / QQi()


def test_qqi_mixes_with_ints_and_fractions():
    assert 3 * QQi(1, 1) == QQi(3, 3)
    assert QQi(1) + Fraction(1, 2) == QQi(Fraction(3, 2))


# reference model: a Gaussian rational as a (re, im) pair of Fractions

fractions_ = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
)
qqis = st.builds(QQi, fractions_, fractions_)
real_operands = st.one_of(st.integers(-10**6, 10**6), fractions_)


def ref(x):
    if isinstance(x, QQi):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def ref_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def assert_matches(z, pair):
    """z equals the reference pair and is stored in canonical form."""
    assert type(z) is QQi
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == pair
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert z == QQi(*pair) and hash(z) == hash(QQi(*pair))


@settings(max_examples=300, deadline=None)
@given(qqis, st.one_of(qqis, real_operands))
def test_qqi_matches_fraction_pair_reference(x, y):
    px, py = ref(x), ref(y)
    assert_matches(x + y, (px[0] + py[0], px[1] + py[1]))
    assert_matches(y + x, (px[0] + py[0], px[1] + py[1]))
    assert_matches(x - y, (px[0] - py[0], px[1] - py[1]))
    assert_matches(y - x, (py[0] - px[0], py[1] - px[1]))
    assert_matches(x * y, ref_mul(px, py))
    assert_matches(y * x, ref_mul(px, py))
    assert_matches(-x, (-px[0], -px[1]))
    assert_matches(x.conjugate(), (px[0], -px[1]))
    if py != (0, 0):
        assert_matches(x / y, ref_div(px, py))
    if px != (0, 0):
        assert_matches(QQi(*py) / x, ref_div(py, px))
    assert (x == y) == (px == py)
    assert bool(x) == (px != (0, 0))
    assert complex(x) == complex(float(px[0]), float(px[1]))


@given(qqis)
def test_qqi_round_trips_through_its_parts(x):
    assert_matches(QQi(x.re, x.im), (x.re, x.im))
    assert repr(x) == f"QQi({x.re}, {x.im})"


def test_qqi_constructor_accepts_int_fraction_str_and_float():
    assert_matches(QQi("1/3", 0.5), (Fraction(1, 3), Fraction(1, 2)))
    assert_matches(QQi(Fraction(6, 4), -2), (Fraction(3, 2), Fraction(-2)))
    assert_matches(QQi(Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 6), Fraction(1, 4)))
    assert_matches(QQi(), (Fraction(0), Fraction(0)))
    assert repr(QQi(Fraction(1, 2), -3)) == "QQi(1/2, -3)"
    assert QQi(Fraction(1, 2)) == Fraction(1, 2) and QQi(2) == 2
    assert QQi(2, 1) != 2 and QQi(1, 0) != Fraction(1, 2)
    assert hash(QQi(Fraction(1, 2))) == hash(Fraction(1, 2)) and hash(QQi(2)) == hash(2)
    with pytest.raises(ZeroDivisionError):
        QQi(1, 1) / 0
    with pytest.raises(TypeError):
        QQi(1) + 0.5


def test_cached_merge_sign_matches_inversion_count():
    subsets = [S for k in range(6) for S in combinations(range(5), k)]
    for a in subsets:
        for b in subsets:
            word = a + b
            inv = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                      if word[i] > word[j])
            want = (None, 0) if set(a) & set(b) else (
                tuple(sorted(word)), -1 if inv % 2 else 1)
            assert _merge_sign(a, b) == want
            assert _merge_sign(a, b) == want  # served from the cache
    assert _merge_sign.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# wedge algebra
# ---------------------------------------------------------------------------


def test_wedge_canonical_order_example():
    a = FormValue.monomial(2, (0,), (0,))
    b = FormValue.monomial(2, (1,), (1,))
    got = a.wedge(b)
    assert got.coefficient((0, 1), (0, 1)) == -1
    assert reorder_sign_oracle([0, 1], [0, 1]) == 1  # already canonical
    # oracle: interleaved word dz1 dzb1 dz2 dzb2 reordered to canonical
    key, sign = wedge_word_oracle(((0,), (0,)), ((1,), (1,)))
    assert key == ((0, 1), (0, 1)) and sign == -1


def test_wedge_identity_and_zero():
    rng = np.random.default_rng(0)
    a = random_exact_form(rng, 3, 1, 2)
    one = FormValue.scalar(3, QQi(1))
    assert a.wedge(one) == a
    assert one.wedge(a) == a
    assert a.wedge(FormValue.zero(3)).is_zero()
    # an exact and a float form compare like their scalars: QQi(1) != 1.0
    assert (FormValue.scalar(2, 1.0) == FormValue.scalar(2, QQi(1))) is False


@pytest.mark.parametrize("seed", range(6))
def test_wedge_matches_word_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(2, 5)),)
    n = dims[0]
    p1, q1 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    p2, q2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    a = random_exact_form(rng, n, p1, q1)
    b = random_exact_form(rng, n, p2, q2)
    got = a.wedge(b)
    expect = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            key, sign = wedge_word_oracle(ka, kb)
            if sign == 0:
                continue
            expect[key] = expect.get(key, QQi()) + sign * (ca * cb)
    assert got == FormValue(n, expect)


def reference_wedge(a, b):
    """FormValue.wedge as one generic loop: each term pays c1*c2, the sign
    product and an add into its key.  Reference for the exact kernel."""
    out = {}
    for (I1, J1), c1 in a.coeffs.items():
        for (I2, J2), c2 in b.coeffs.items():
            I, si = _merge_sign(I1, I2)
            if si == 0:
                continue
            J, sj = _merge_sign(J1, J2)
            if sj == 0:
                continue
            sign = si * sj * (-1 if (len(J1) * len(I2)) % 2 else 1)
            term = sign * (c1 * c2)
            out[(I, J)] = out.get((I, J), QQi() if isinstance(term, QQi) else 0j) + term
    return FormValue(a.dim, out)


# pairwise coprime denominators, one of them the Mersenne prime 2^61 - 1
COPRIME_DENOMINATORS = (7, 9, 11, 13, 2**61 - 1)


def random_mixed_form(rng, dim, span=3, denominators=range(1, 7)):
    """Exact form with monomials of every bidegree, each kept with
    probability 1/2, and Gaussian-rational coefficients whose denominators
    differ (drawn from ``denominators``, 1 to 6 by default)."""
    def part():
        return Fraction(int(rng.integers(-span, span + 1)),
                        denominators[int(rng.integers(len(denominators)))])

    coeffs = {}
    for p in range(dim + 1):
        for q in range(dim + 1):
            for I in combinations(range(dim), p):
                for J in combinations(range(dim), q):
                    if rng.random() < 0.5:
                        coeffs[(I, J)] = QQi(part(), part())
    return FormValue(dim, coeffs)


def assert_same_form(got, want):
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)
    assert all(type(c) is QQi for c in got.coeffs.values())


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_exact_wedge_matches_loop_reference(dim, seed):
    """The exact kernel gives the generic loop's value and key order on
    forms of mixed bidegree, whose terms land in one key with unequal
    denominators (small ones, and large pairwise coprime ones), and on
    wedges whose terms all cancel."""
    rng = np.random.default_rng([dim, seed, 17])
    forms = [random_mixed_form(rng, dim) for _ in range(3)]
    forms += [random_mixed_form(rng, dim, span=5, denominators=COPRIME_DENOMINATORS)
              for _ in range(2)]
    for a in forms:
        for b in forms:
            assert_same_form(a.wedge(b), reference_wedge(a, b))
    # odd forms square to zero: every term cancels against its mirror
    for f in forms:
        odd = FormValue(dim, {k: c for k, c in f.coeffs.items() if (len(k[0]) + len(k[1])) % 2})
        if odd.coeffs:
            assert odd.wedge(odd).coeffs == {} == reference_wedge(odd, odd).coeffs


def test_exact_wedge_cancels_across_denominators():
    # (1/2 dz0 + 1/3 dz1) ^ (2/3 dz1 + dz0) = (1/3 - 1/3) dz0 dz1: the two
    # terms have denominators 6 and 3
    a = FormValue(2, {((0,), ()): QQi(Fraction(1, 2)), ((1,), ()): QQi(Fraction(1, 3))})
    b = FormValue(2, {((1,), ()): QQi(Fraction(2, 3)), ((0,), ()): QQi(1)})
    assert a.wedge(b).coeffs == {} == reference_wedge(a, b).coeffs
    c = FormValue(2, {((1,), ()): QQi(Fraction(2, 3)), ((0,), ()): QQi(Fraction(1, 5), 2)})
    assert_same_form(a.wedge(c), reference_wedge(a, c))
    assert a.wedge(c).coefficient((0, 1), ()) == QQi(Fraction(1, 3) - Fraction(1, 15),
                                                      Fraction(-2, 3))
    # (x dz0 + y dz1 + z dz2) ^ (k y dz1 + k x dz0 + w dz2) with pairwise
    # coprime denominators: the dz0 dz1 terms x k y and y k x cancel to zero
    # over d1 = 7 * 11 * (2^61 - 1) and d2 = 7 * 9 * 11 * 13 * (2^61 - 1), while
    # the dz0 dz2 and dz1 dz2 coefficients survive
    big = 2**61 - 1
    x, y, z = Fraction(3, 7), QQi(Fraction(5, big), Fraction(-1, 11)), Fraction(-2, 11)
    k, w = QQi(Fraction(2, 13), Fraction(1, 9)), QQi(Fraction(4, 9), Fraction(6, big))
    a = FormValue(3, {((0,), ()): QQi(x), ((1,), ()): y, ((2,), ()): QQi(z)})
    b = FormValue(3, {((1,), ()): k * y, ((0,), ()): k * x, ((2,), ()): w})
    assert_same_form(a.wedge(b), reference_wedge(a, b))
    assert list(a.wedge(b).coeffs) == [((0, 2), ()), ((1, 2), ())]
    assert a.wedge(b).coefficient((0, 2), ()) == x * w - z * k * x


def with_ints_and_fractions(f, rng):
    """f's coefficients as a dict in f's order, with the 1st, 4th, 7th, ...
    made ints and the 2nd, 5th, 8th, ... made Fractions; the rest stay QQi."""
    given = dict(f.coeffs)
    for i, key in enumerate(given):
        if i % 3 == 0:
            given[key] = int(rng.integers(1, 5))
        elif i % 3 == 1:
            given[key] = Fraction(int(rng.integers(-5, 5)) or 1, int(rng.integers(2, 7)))
    assert {type(c) for c in given.values()} == {QQi, int, Fraction}
    return given


def assert_reads_back(f, given):
    """An exact form reads every coefficient back, in the order given, as a
    QQi that equals and hashes like the QQi, int or Fraction it was given."""
    assert list(f.coeffs) == list(given)
    for key, c in f.coeffs.items():
        assert type(c) is QQi and c == given[key] and hash(c) == hash(given[key])


@pytest.mark.parametrize("seed", range(4))
def test_exact_wedge_mixes_int_and_fraction_coefficients(seed):
    """A form built from QQi, int and Fraction values is exact, even when
    its first value is an int, and reads each value back as an equal QQi;
    its wedges have the generic loop's value and key order."""
    rng = np.random.default_rng([seed, 29])
    dim = 3
    pure = random_mixed_form(rng, dim)
    given = with_ints_and_fractions(random_mixed_form(rng, dim), rng)
    mixed = FormValue(dim, given)
    assert_reads_back(mixed, given)
    assert exact_mode(mixed) and exact_mode(pure)
    assert_same_form(mixed.wedge(pure), reference_wedge(mixed, pure))
    assert_same_form(pure.wedge(mixed), reference_wedge(pure, mixed))


def test_exact_wedge_rejects_float_coefficients():
    """A float among the values of an exact form raises TypeError when the
    form is built, wherever it stands; an exact form and a float form do
    not wedge or add, and a float does not scale an exact form."""
    for given in ({((0,), ()): QQi(1), ((1,), ()): 0.5},
                  {((0,), ()): 0.5, ((1,), ()): QQi(1)},
                  {((0,), ()): QQi(1), ((1,), ()): 2j}):
        with pytest.raises(TypeError):
            FormValue(2, given)
    exact = FormValue.monomial(2, (), (0,), QQi(1))
    floating = FormValue.monomial(2, (0,), (), 0.5)
    for op in (FormValue.wedge, FormValue.__add__):
        with pytest.raises(TypeError):
            op(exact, floating)
        with pytest.raises(TypeError):
            op(floating, exact)
    for scalar in (0.5, 2j):
        with pytest.raises(TypeError):
            scalar * exact
        with pytest.raises(TypeError):
            exact * scalar


def assert_canonical(f):
    """f holds the exact store in canonical form: nonzero Gaussian-integer
    numerators over one denominator d > 0 with gcd(d, numerators) = 1."""
    numerators = [x for pair in f._terms.values() for x in pair]
    assert type(f._d) is int and f._d > 0
    assert math.gcd(f._d, *numerators) == 1
    assert all(a or b for a, b in f._terms.values())


def reference_sum(a, b):
    """a + b with one QQi add per term of b, in a's key order and then b's."""
    out = dict(a.coeffs)
    for key, c in b.coeffs.items():
        out[key] = out.get(key, QQi()) + c
    return FormValue(a.dim, out)


# bound on the bits of the numerators of chern_forms and chern_forms_minors
# at rank 6 on a 4-fold; the largest has 26 to 28 bits over seeds 0-7 of
# the forms' own random curvature
NUMERATOR_BITS = 32


def test_exact_store_stays_canonical():
    """After +, -, wedge, scalar * and conjugate the exact store is
    canonical and equals a QQi-per-term reference in value and key order,
    on 2-, 3- and 4-folds; Chern forms at rank 6 on a 4-fold keep their
    numerators under NUMERATOR_BITS, because each result is reduced once."""
    scalars = (QQi(Fraction(2, 3), Fraction(-4, 9)), QQi(0, 5), Fraction(-6, 35), 14, 0)
    for dim in (2, 3, 4):
        rng = np.random.default_rng([dim, 59])
        forms = [random_mixed_form(rng, dim),
                 random_mixed_form(rng, dim, span=5, denominators=COPRIME_DENOMINATORS)]
        forms.append(FormValue(dim, with_ints_and_fractions(forms[0], rng)))
        for a in forms:
            negated = FormValue(dim, {k: -c for k, c in a.coeffs.items()})
            cases = [(a.conjugate(), reference_conjugate(a))]
            cases += [(s * a, FormValue(dim, {k: s * c for k, c in a.coeffs.items()}))
                      for s in scalars]
            for b in forms:
                cases += [(a + b, reference_sum(a, b)), (b - a, reference_sum(b, negated)),
                          (a.wedge(b), reference_wedge(a, b))]
            for got, want in cases:
                assert_canonical(got)
                assert_same_form(got, want)
            assert (a - a).coeffs == {} and (a - a)._d == 1
    for seed in range(2):
        theta = forms_random_exact_curvature(random.Random(seed), 6, 4)
        for c in (chern_forms(theta), chern_forms_minors(theta)):
            for f in c.forms:
                if f.coeffs:
                    assert_canonical(f)
                    assert max(abs(x) for pair in f._terms.values() for x in pair) \
                        < 2 ** NUMERATOR_BITS


def reversed_form(f):
    """f with its keys inserted in the opposite order."""
    return FormValue(f.dim, dict(reversed(list(f.coeffs.items()))))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_wedge_plan_follows_key_order(dim):
    """Two forms with one key set, inserted in two orders, get two plans;
    each wedge has the generic loop's value and key order, and wedges of
    odd forms with themselves cancel to zero under either plan."""
    rng = np.random.default_rng([dim, 43])
    a, b = random_mixed_form(rng, dim), random_mixed_form(rng, dim)
    a_rev, b_rev = reversed_form(a), reversed_form(b)
    assert list(a_rev.coeffs) != list(a.coeffs)
    for x in (a, a_rev):
        for y in (b, b_rev):
            assert_same_form(x.wedge(y), reference_wedge(x, y))
    assert a.wedge(b) == a_rev.wedge(b_rev)
    assert list(a.wedge(b).coeffs) != list(a_rev.wedge(b_rev).coeffs)
    plans = {id(_wedge_plan(tuple(x.coeffs), tuple(y.coeffs)))
             for x in (a, a_rev) for y in (b, b_rev)}
    assert len(plans) == 4
    odd = FormValue(dim, {k: c for k, c in a.coeffs.items() if (len(k[0]) + len(k[1])) % 2})
    for f in (odd, reversed_form(odd)):
        assert f.wedge(f).coeffs == {} == reference_wedge(f, f).coeffs


def float_copy(f, rng, nodes=None):
    """A float form with f's keys in f's order and random complex
    coefficients, arrays of shape ``nodes`` when given."""
    shape = () if nodes is None else nodes
    return FormValue(f.dim, {k: complex(rng.normal(), rng.normal()) if nodes is None
                             else rng.normal(size=shape) + 1j * rng.normal(size=shape)
                             for k in f.coeffs})


@pytest.mark.parametrize("nodes", [None, (3, 3)], ids=["scalar", "nodes"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_float_wedge_matches_loop_reference_bits(dim, nodes):
    """The float wedge adds sign * (c1 * c2) in the generic loop's order, so
    it has the loop's bits, on complex scalars and on arrays over nodes; a
    float form with an exact form's keys reuses that form's plan, from a
    bounded cache."""
    rng = np.random.default_rng([dim, 47])
    exact = [random_mixed_form(rng, dim) for _ in range(2)]
    forms = [float_copy(f, rng, nodes) for f in exact]
    forms.append(reversed_form(forms[0]))
    for x in forms:
        for y in forms:
            got, want = x.wedge(y), reference_wedge(x, y)
            assert list(got.coeffs) == list(want.coeffs)
            for key, c in got.coeffs.items():
                if nodes is None:
                    assert type(c) is complex and c == want.coeffs[key]
                else:
                    assert np.array_equal(c, want.coeffs[key])
                assert np.asarray(c).tobytes() == np.asarray(want.coeffs[key]).tobytes()
    keys = tuple(exact[0].coeffs), tuple(exact[1].coeffs)
    exact[0].wedge(exact[1])
    hits = _wedge_plan.cache_info().hits
    forms[0].wedge(forms[1])
    assert _wedge_plan.cache_info().hits == hits + 1
    assert keys == (tuple(forms[0].coeffs), tuple(forms[1].coeffs))
    assert _wedge_plan.cache_info().maxsize is not None


@pytest.mark.parametrize("seed", range(5))
def test_graded_commutativity_and_associativity(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3
    pa, qa = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    pb, qb = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    a = random_exact_form(rng, n, pa, qa)
    b = random_exact_form(rng, n, pb, qb)
    c = random_exact_form(rng, n, 1, 1)
    sign = (-1) ** ((pa + qa) * (pb + qb))
    assert a.wedge(b) == sign * b.wedge(a)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_one_one_forms_commute():
    rng = np.random.default_rng(7)
    a = random_exact_form(rng, 3, 1, 1)
    b = random_exact_form(rng, 3, 1, 1)
    assert a.wedge(b) == b.wedge(a)


def reference_conjugate(f):
    """FormValue.conjugate as a generic loop: each term moves to (J, I) with
    the sign of reordering dz^J dzbar^I and its coefficient conjugated, and
    is added into its key."""
    out = {}
    for (I, J), c in f.coeffs.items():
        sign = -1 if (len(I) * len(J)) % 2 else 1
        out[(J, I)] = out.get((J, I), 0) + sign * c.conjugate()
    return FormValue(f.dim, out)


def assert_same_float_form(got, want):
    assert list(got.coeffs) == list(want.coeffs)
    for key, c in got.coeffs.items():
        assert np.array_equal(c, want.coeffs[key])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_conjugate_matches_loop_reference(dim):
    """conjugate gives the generic loop's value and key order: on exact
    forms, one of them built from QQi, int and Fraction values, whose
    coefficients read back as QQi, and on float forms, on complex scalars
    (a real one included) and on arrays over nodes.  Conjugating twice
    gives the input back."""
    rng = np.random.default_rng([dim, 53])
    exact = random_mixed_form(rng, dim, denominators=COPRIME_DENOMINATORS)
    given = with_ints_and_fractions(exact, rng)
    mixed = FormValue(dim, given)
    assert_reads_back(mixed, given)
    for f in (exact, mixed):
        got, want = f.conjugate(), reference_conjugate(f)
        assert got == want and got.conjugate() == f
        assert list(got.coeffs) == list(want.coeffs)
        assert list(got.conjugate().coeffs) == list(f.coeffs)
        assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]
        assert all(type(c) is QQi for c in got.coeffs.values())
    values = dict(float_copy(exact, rng).coeffs)
    first = next(iter(values))
    values[first] = complex(values[first].real, 0.0)  # a real coefficient
    for f in (FormValue(dim, values), float_copy(exact, rng, (3, 3))):
        assert_same_float_form(f.conjugate(), reference_conjugate(f))
        assert_same_float_form(f.conjugate().conjugate(), f)


def test_conjugation_involution_and_antihomomorphism():
    rng = np.random.default_rng(11)
    a = random_exact_form(rng, 3, 2, 1)
    b = random_exact_form(rng, 3, 1, 1)
    assert a.conjugate().conjugate() == a
    assert a.wedge(b).conjugate() == a.conjugate().wedge(b.conjugate())


def test_dimension_mismatch_raises():
    a = FormValue.monomial(2, (0,), ())
    b = FormValue.monomial(3, (0,), ())
    with pytest.raises(ValueError):
        a.wedge(b)


@pytest.mark.parametrize("coefficient", [QQi(1), 1j], ids=["exact", "float"])
@pytest.mark.parametrize("key,message", [
    (((1, 0), ()), "strictly increasing"),
    (((0, 0), ()), "strictly increasing"),
    (((2,), ()), "out of range"),
    (((), (1, 0)), "strictly increasing"),
], ids=["descending", "repeated", "out-of-range", "descending-dzbar"])
def test_constructor_rejects_keys_out_of_canonical_order(key, message, coefficient):
    """Every key that enters a form is checked, in either store: index
    tuples strictly increasing, every index in [0, dim).  A zero
    coefficient does not excuse a bad key."""
    with pytest.raises(ValueError, match=message):
        FormValue(2, {key: coefficient})
    with pytest.raises(ValueError, match=message):
        FormValue(2, {((0,), (1,)): coefficient, key: 0 * coefficient})
    with pytest.raises(ValueError, match=message):
        FormValue.monomial(2, *key, coefficient)


def test_curvature_matrix_rejects_empty_and_mixed_dimensions():
    with pytest.raises(ValueError, match="at least one entry"):
        CurvatureMatrix([])
    a = FormValue.monomial(2, (0,), (0,), QQi(1))
    b = FormValue.monomial(3, (0,), (0,), QQi(1))
    with pytest.raises(ValueError, match="one base dimension"):
        CurvatureMatrix([[a, FormValue.zero(2)], [FormValue.zero(2), b]])
    with pytest.raises(ValueError, match="one base dimension"):
        CurvatureMatrix([[a, FormValue.zero(3)], [FormValue.zero(2), a]])


def monomial_sum_curvature(rng, r, n):
    """Entries of a random exact curvature built as sums of monomials, one
    random_qqi draw per dz_p dzbar_q, p and q ascending, entries[j][i] the
    Hermitian partner of entries[i][j] and diagonal entries symmetrized."""
    E = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            f = FormValue.zero(n)
            for p in range(n):
                for q in range(n):
                    f = f + FormValue.monomial(n, (p,), (q,), random_qqi(rng))
            if i == j:
                f = f + hermitian_partner(f)
            else:
                E[j][i] = hermitian_partner(f)
            E[i][j] = f
    return E


@pytest.mark.parametrize("r,n", [(1, 1), (2, 2), (3, 3), (4, 2), (6, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_random_exact_curvature_matches_monomial_sums(seed, r, n):
    """One constructor call per entry reads the same draws in the same
    order as a sum of monomials, and gives the same value and key order."""
    theta = forms_random_exact_curvature(random.Random(seed), r, n)
    want = monomial_sum_curvature(random.Random(seed), r, n)
    assert (theta.rank, theta.dim) == (r, n)
    for row, want_row in zip(theta.entries, want):
        for got, f in zip(row, want_row):
            assert_same_form(got, f)
            assert exact_mode(got) or not got.keys()


# ---------------------------------------------------------------------------
# Chern / Segre / Schur
# ---------------------------------------------------------------------------


def test_chern_diagonal_example():
    a, b = 3.0, 5.0
    theta = CurvatureMatrix(
        [
            [FormValue.monomial(2, (0,), (0,), a), FormValue.zero(2)],
            [FormValue.zero(2), FormValue.monomial(2, (1,), (1,), b)],
        ]
    )
    c = chern_forms(theta)
    s = 1j / (2 * math.pi)
    assert c[1].approx_equal(
        FormValue(2, {((0,), (0,)): s * a, ((1,), (1,)): s * b})
    )
    assert c[2].approx_equal(
        FormValue(2, {((0, 1), (0, 1)): -(s ** 2) * a * b})
    )


def test_chern_of_zero_curvature():
    theta = CurvatureMatrix.scalar_times_identity(FormValue.zero(2), 3)
    c = chern_forms(theta)
    assert volume_ratio(c[0].wedge(c[0])) == 0  # sanity on zero handling
    assert c[1].is_zero() and c[2].is_zero() and c[3].is_zero()
    assert complex(c[0].coefficient((), ())) == 1


def test_zero_exact_matrix_runs_in_exact_mode():
    """A curvature matrix with no stored coefficient takes its mode from the
    normalization: QQi(1) means exact mode."""
    n = 2
    theta = CurvatureMatrix.scalar_times_identity(FormValue.zero(n), 3)
    for c in (chern_forms(theta, normalization=QQi(1)),
              chern_forms_minors(theta, normalization=QQi(1))):
        assert c[0] == FormValue.scalar(n, QQi(1))
        assert type(c[0].coefficient((), ())) is QQi
        assert all(c[k].is_zero() for k in range(1, 4))


@pytest.mark.parametrize("seed", range(4))
def test_newton_vs_minor_expansion_exact(seed):
    rng = np.random.default_rng(200 + seed)
    theta = random_exact_curvature(rng, 3, 3)
    assert theta.hermitian_defect() == 0
    c = chern_forms(theta)
    oracle = chern_forms_minors(theta)
    for k in range(4):
        assert c[k] == oracle[k]
        assert c[k].bidegrees() <= {(k, k)}


def test_newton_vs_minor_expansion_float():
    rng = np.random.default_rng(42)
    theta = random_float_curvature(rng, 3, 3)
    c = chern_forms(theta)
    oracle = chern_forms_minors(theta)
    for k in range(4):
        assert c[k].approx_equal(oracle[k], tol=1e-12 * max(1, c[k].max_abs()))


def test_chern_forms_real():
    rng = np.random.default_rng(17)
    theta = random_float_curvature(rng, 3, 2)
    c = chern_forms(theta)
    for k in range(3):
        assert c[k].is_real(tol=1e-12 * max(1.0, c[k].max_abs()))


def test_chern_unitary_invariance():
    rng = np.random.default_rng(23)
    r, n = 3, 2
    theta = random_float_curvature(rng, r, n)
    Z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    U, _ = np.linalg.qr(Z)
    conj = CurvatureMatrix(
        [
            [
                sum(
                    (
                        (U[i, a] * np.conj(U[j, b])) * theta.entries[a][b]
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
    c1, c2 = chern_forms(theta), chern_forms(conj)
    for k in range(r + 1):
        assert (c1[k] - c2[k]).max_abs() <= 1e-12 * max(1.0, c1[k].max_abs())


def test_exact_diagonal_conjugation_invariance():
    """Diagonal Gaussian-rational conjugation leaves every Chern form
    unchanged coefficient-for-coefficient, with no rounding at all."""
    rng = np.random.default_rng(29)
    theta = random_exact_curvature(rng, 3, 2)
    d = [QQi(Fraction(2, 3)), QQi(0, Fraction(5, 7)), QQi(Fraction(1, 4), 1)]
    conj = theta.conjugated(d)
    c1, c2 = chern_forms(theta), chern_forms(conj)
    for k in range(4):
        assert c1[k] == c2[k]


def test_segre_low_degrees_and_convolution():
    rng = np.random.default_rng(31)
    theta = random_exact_curvature(rng, 3, 4)
    c = chern_forms(theta)
    s = segre_forms(c, 4)
    assert s[1] == -1 * c[1]
    assert s[2] == c[1].wedge(c[1]) - c[2]
    for k in range(1, 5):
        conv = FormValue.zero(4)
        for i in range(k + 1):
            conv = conv + c[i].wedge(s[k - i])
        assert conv.is_zero()


def curvature_from(T, coefficient):
    """CurvatureMatrix with entry (a, b) sum over p, q (ascending) of
    coefficient(T[..., a, b, p, q]) dz_p dzbar_q."""
    r, n = T.shape[-4], T.shape[-1]
    return CurvatureMatrix(
        [
            [
                FormValue(
                    n,
                    {((p,), (q,)): coefficient(T[..., a, b, p, q])
                     for p in range(n) for q in range(n)},
                )
                for b in range(r)
            ]
            for a in range(r)
        ]
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_array_coefficients_match_pointwise(r, n):
    # float-mode Chern and Segre forms of a curvature whose coefficients are
    # arrays over K points, against the scalar forms point by point
    K = 7
    rng = np.random.default_rng([43, r, n])
    T = rng.normal(size=(K, r, r, n, n)) + 1j * rng.normal(size=(K, r, r, n, n))
    T[::2, 0, 0, 0, n - 1] = 0  # zero at some points
    T[:, r - 1, 0, n - 1, 0] = 0  # zero at every point
    batch = curvature_from(T, lambda c: c)
    assert ((n - 1,), (0,)) not in batch.entries[r - 1][0].coeffs
    assert ((0,), (n - 1,)) in batch.entries[0][0].coeffs
    c_batch = chern_forms(batch)
    s_batch = segre_forms(c_batch, n)
    for k in range(K):
        point = curvature_from(T[k], complex)
        c_point = chern_forms(point)
        s_point = segre_forms(c_point, n)
        for a in range(r):
            for b in range(r):
                assert batch.entries[a][b].bidegrees() == point.entries[a][b].bidegrees()
        pairs = list(zip(c_batch.forms, c_point.forms)) + list(zip(s_batch, s_point))
        for f_batch, f_point in pairs:
            assert f_batch.bidegrees() == f_point.bidegrees()
            # a coefficient zero at this point only is stored by the batch
            assert f_point.coeffs.keys() <= f_batch.coeffs.keys()
            scale = f_point.max_abs()
            for key, c in f_batch.coeffs.items():
                c_k = np.broadcast_to(c, K)[k]
                assert abs(c_k - f_point.coefficient(*key)) <= 1e-15 * scale


def test_schur_small_partitions():
    rng = np.random.default_rng(37)
    theta = random_exact_curvature(rng, 3, 3)
    c = chern_forms(theta)
    s = segre_forms(c, 3)
    assert schur_form((1,), c) == c[1]
    assert schur_form((2,), c) == c[1].wedge(c[1]) - c[2]
    assert schur_form((1, 1), c) == c[2]
    for k in (1, 2, 3):
        assert schur_form((1,) * k, c) == c[k]
        assert schur_form((k,), c) == ((-1) ** k) * s[k]


def test_schur_21_against_scalar_root_oracle():
    # diagonal curvature x_i * omega shares the single even generator omega,
    # so every symmetric polynomial identity descends to scalars
    x = [Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    n = 3
    omega = FormValue(
        n, {((i,), (i,)): QQi(1) for i in range(n)}
    )
    zero = FormValue.zero(n)
    theta = CurvatureMatrix(
        [
            [QQi(x[i]) * omega if i == j else zero for j in range(3)]
            for i in range(3)
        ]
    )
    got = schur_form((2, 1), chern_forms(theta))
    # monomial expansion of the Schur polynomial s_(2,1)
    s21 = sum(
        x[i] ** 2 * x[j] for i in range(3) for j in range(3) if i != j
    ) + 2 * x[0] * x[1] * x[2]
    omega3 = omega.wedge(omega).wedge(omega)
    expect = QQi(s21) * omega3
    assert got == expect


def test_schur_partition_validation():
    rng = np.random.default_rng(41)
    c = chern_forms(random_exact_curvature(rng, 2, 2))
    with pytest.raises(ValueError):
        schur_form((1, 2), c)
    with pytest.raises(ValueError):
        schur_form((1, 1, 1), c)  # longer than rank 2
    # a negative part is an error, not dropped; a zero part is dropped
    for lam in ((2, -1), (1, -5, 1)):
        with pytest.raises(ValueError, match="nonnegative"):
            schur_form(lam, c)
    assert schur_form((2, 0), c) == schur_form((2,), c)
    # a part that is not an int is an error, not truncated; bools included
    for lam in ((1.5,), (True, True), (2.0,)):
        with pytest.raises(ValueError, match="integers"):
            schur_form(lam, c)
    assert schur_form((np.int64(1), np.int64(1)), c) == schur_form((1, 1), c)


# ---------------------------------------------------------------------------
# bits of the permutation expansions
# ---------------------------------------------------------------------------


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_det(entry, k, one):
    """det(entry(i, j)) of a k x k matrix of even forms, as the sum over
    permutations of the signed wedge products."""
    acc = FormValue.zero(one.dim)
    for perm in permutations(range(k)):
        term = one
        for i in range(k):
            term = term.wedge(entry(i, perm[i]))
        acc = acc + perm_sign(perm) * term
    return acc


def leibniz_elementary(A, one):
    """[e_0, ..., e_r] of an r x r matrix of even forms, e_k the sum of its
    principal k x k minors, each expanded over permutations."""
    r = len(A)
    return [one] + [
        sum((leibniz_det(lambda i, j, S=S: A[S[i]][S[j]], k, one)
             for S in combinations(range(r), k)), FormValue.zero(one.dim))
        for k in range(1, r + 1)
    ]


def reference_chern_forms_minors(theta):
    """chern_forms_minors as principal-minor sums expanded over permutations,
    with the default normalization and no degree truncation."""
    exact = exact_mode(theta)
    normalization = QQi(1) if exact else 1j / (2 * math.pi)
    r, n = theta.rank, theta.dim
    X = [[normalization * theta.entries[i][j] for j in range(r)] for i in range(r)]
    return leibniz_elementary(X, FormValue.scalar(n, QQi(1) if exact else 1.0))


def reference_schur_form(lam, c):
    """schur_form's Giambelli determinant expanded over permutations."""
    n, ell = c.dim, len(lam)
    top = lam[0] + ell - 1
    s = segre_forms(c, top)
    h = [((-1) ** k) * s[k] for k in range(top + 1)]

    def entry(i, j):
        k = lam[i] - i + j
        return h[k] if k >= 0 else FormValue.zero(n)

    return leibniz_det(entry, ell, FormValue.scalar(n, QQi(1) if exact_mode(c) else 1.0))


def partitions(k, largest):
    """Partitions of k into parts of at most `largest`, nonincreasing."""
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


FLOAT_RTOL = 1e-13


def assert_close(f, g):
    """Each coefficient of f within FLOAT_RTOL * max(1, |g_IJ|) of g's."""
    for key in f.coeffs.keys() | g.coeffs.keys():
        x, y = f.coefficient(*key), g.coefficient(*key)
        assert abs(x - y) <= FLOAT_RTOL * max(1.0, abs(y)), key


EXPANSION_CASES = [(r, n) for r in range(1, 5) for n in range(1, 4)]


def berkowitz_and_expansion_pairs(theta):
    """(Berkowitz, permutation expansion) pairs: each c_k of
    chern_forms_minors, and the schur_form of each partition of size at most
    n and length at most r."""
    r, n = theta.rank, theta.dim
    c = chern_forms(theta)
    pairs = list(zip(chern_forms_minors(theta).forms, reference_chern_forms_minors(theta),
                     strict=True))
    pairs += [(schur_form(lam, c), reference_schur_form(lam, c))
              for k in range(1, n + 1) for lam in partitions(k, k) if len(lam) <= r]
    return pairs


@pytest.mark.parametrize("exact", [True])  # one value; it keeps the case ids
@pytest.mark.parametrize("r,n", EXPANSION_CASES)
def test_permutation_expansions_keep_their_bits(exact, r, n):
    """Over Q(i), chern_forms_minors and schur_form equal (==) the
    permutation expansions above."""
    rng = np.random.default_rng([r, n, exact])
    for _ in range(2):
        for f, g in berkowitz_and_expansion_pairs(random_exact_curvature(rng, r, n)):
            assert f == g


@pytest.mark.parametrize("r,n", EXPANSION_CASES)
def test_float_berkowitz_within_rtol_of_permutation_expansions(r, n):
    """In float mode chern_forms_minors and schur_form agree with the
    permutation expansions within FLOAT_RTOL per coefficient.  The bits
    differ, because the Berkowitz recursion rounds in another order than the
    expansions (by at most 1.1e-14 relative over r <= 6, n <= 4 and five
    seeds)."""
    rng = np.random.default_rng([r, n, False])
    for _ in range(2):
        for f, g in berkowitz_and_expansion_pairs(random_float_curvature(rng, r, n)):
            assert_close(f, g)


@pytest.mark.parametrize("size", range(1, 7))
def test_elementary_matches_principal_minor_sums(size):
    """With 0-form (scalar) Gaussian-rational entries no product vanishes by
    degree, so every e_k up to det A is nonzero; each equals (==) the sum of
    principal k x k minors expanded over permutations, and a smaller top
    returns exactly the prefix e_0 ... e_top."""
    rng = random.Random(size)
    one = FormValue.scalar(1, QQi(1))
    A = [[FormValue.scalar(1, random_qqi(rng)) for _ in range(size)] for _ in range(size)]
    full = _elementary(A, size, one)
    assert all(f.coeffs for f in full)
    assert full == leibniz_elementary(A, one)
    for top in range(size):
        assert _elementary(A, top, one) == full[:top + 1]


# ---------------------------------------------------------------------------
# degree truncation of the Chern forms
# ---------------------------------------------------------------------------


def reference_chern_forms(theta, normalization=None):
    """chern_forms without the degree truncation: every power X^1 ... X^r
    in full and Newton's identities up to c_r.  Reference for the values
    and for the float bits."""
    exact = exact_mode(theta, normalization)
    if normalization is None:
        normalization = QQi(1) if exact else 1j / (2 * math.pi)
    r, n = theta.rank, theta.dim
    X = [[normalization * theta.entries[i][j] for j in range(r)] for i in range(r)]
    traces = []
    P = X
    for k in range(1, r + 1):
        traces.append(sum((P[i][i] for i in range(r)), FormValue.zero(n)))
        if k < r:
            P = [[sum((P[i][m].wedge(X[m][j]) for m in range(r)), FormValue.zero(n))
                  for j in range(r)] for i in range(r)]
    e = [FormValue.scalar(n, QQi(1) if exact else 1.0)]
    for k in range(1, r + 1):
        acc = FormValue.zero(n)
        for i in range(1, k + 1):
            acc = acc + ((-1) ** (i - 1)) * e[k - i].wedge(traces[i - 1])
        e.append((QQi(Fraction(1, k)) if exact else 1 / k) * acc)
    return e


@pytest.mark.parametrize("r,n", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (4, 3),
                                 (5, 3), (6, 3), (3, 4), (5, 4), (6, 4)])
def test_truncated_chern_forms_match_untruncated_loops(r, n):
    """Both truncated computations equal (==) each other and the loops that
    run to degree r; c_k is the zero form for k > n, and the rank stays r."""
    rng = np.random.default_rng([r, n, 61])
    theta = random_exact_curvature(rng, r, n)
    c, cm = chern_forms(theta), chern_forms_minors(theta)
    assert c.rank == cm.rank == r
    assert list(c.forms) == list(cm.forms) == reference_chern_forms(theta)
    assert list(cm.forms) == reference_chern_forms_minors(theta)
    for k in range(n + 1, r + 1):
        assert c[k].coeffs == {} == cm[k].coeffs


def test_chern_wedge_counts_stop_at_degree_n(monkeypatch):
    """At r = 5, n = 3 chern_forms forms X^2 and the diagonal of X^2 X
    (125 + 25 wedges) and 1 + 2 + 3 Newton terms.  The oracle runs the
    Berkowitz recursion to m = min(r, n).  Bordering the s x s block,
    s = 1 ... r - 1, forms R A^j C for j <= J = min(s - 1, m - 2): (J + 1) s
    wedges for the row products and J s^2 for A^j C.  The polynomial update
    then takes 1 + 2 + ... + (min(s + 1, m) - 1) wedges.  At (5, 3) that is
    (1 + 1) + (8 + 3) + (15 + 3) + (24 + 3) = 58; at (6, 4) it is
    (1 + 1) + (8 + 3) + (27 + 6) + (44 + 6) + (65 + 6) = 167, where an
    expansion of every principal minor over permutations makes 225 and 1,866."""
    thetas = {(r, n): random_exact_curvature(np.random.default_rng(5), r, n)
              for r, n in ((5, 3), (6, 4))}
    calls = []
    wedge = FormValue.wedge
    monkeypatch.setattr(FormValue, "wedge", lambda a, b: calls.append(1) or wedge(a, b))
    chern_forms(thetas[5, 3])
    assert len(calls) == 125 + 25 + 6
    for (r, n), count in (((5, 3), 58), ((6, 4), 167)):
        calls.clear()
        chern_forms_minors(thetas[r, n])
        assert len(calls) == count, (r, n)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for f, g in zip(got, want):
        assert list(f.coeffs) == list(g.coeffs)
        for key, x in f.coeffs.items():
            y = g.coeffs[key]
            assert np.asarray(x).dtype == np.asarray(y).dtype
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), key


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_float_chern_forms_keep_their_bits(r, n):
    """Float chern_forms has the untruncated loop's bits, with coefficients
    that are arrays over a 3 x 3 block of nodes and normalization 1, as
    chern_crosscheck passes them, and with scalar coefficients."""
    rng = np.random.default_rng([r, n, 71])
    T = rng.normal(size=(3, 3, r, r, n, n)) + 1j * rng.normal(size=(3, 3, r, r, n, n))
    T = T + np.conj(np.transpose(T, (0, 1, 3, 2, 5, 4)))
    theta = curvature_from(T, lambda c: c)
    assert_same_bits(chern_forms(theta, normalization=1.0 + 0.0j).forms,
                     reference_chern_forms(theta, normalization=1.0 + 0.0j))
    theta = random_float_curvature(rng, r, n)
    assert_same_bits(chern_forms(theta).forms, reference_chern_forms(theta))


def test_curvature_of_low_degree_rejected():
    """A 0-form entry would break the vanishing above degree n."""
    theta = CurvatureMatrix([[FormValue.scalar(2, QQi(1))]])
    for chern in (chern_forms, chern_forms_minors):
        with pytest.raises(ValueError, match="0-form or 1-form"):
            chern(theta)


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def omega_standard(n, scale=1.0):
    return FormValue(n, {((i,), (i,)): complex(scale) for i in range(n)})


def test_identity_twist_positive_both():
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(2), 3)
    assert nakano_test(theta).verdict == "positive"
    g = griffiths_test(theta, samples=64)
    assert g.verdict == "positive"
    assert abs(g.margin - 1.0) < 1e-9  # <omega v, v> = |v|^2 on unit vectors


def test_fubini_study_scalar_positive():
    for z in (0.0, 0.3 + 0.4j, -1.2j):
        coef = 1.0 / (1 + abs(z) ** 2) ** 2
        theta = CurvatureMatrix([[FormValue.monomial(1, (0,), (0,), coef)]])
        assert griffiths_test(theta, samples=16).verdict == "positive"
        assert nakano_test(theta).verdict == "positive"


def griffiths_not_nakano_fixture():
    """n = r = 2 curvature whose assembled 4x4 matrix is I - 1.5 v v* with
    v = (0,1,-1,0)/sqrt(2): Nakano eigenvalue -0.5, while every decomposable
    direction pairs to at least 0.25."""
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    B = np.eye(4, dtype=complex) - 1.5 * np.outer(v, v.conj())
    T = np.zeros((2, 2, 2, 2), dtype=complex)
    for p in range(2):
        for c in range(2):
            for q in range(2):
                for b in range(2):
                    T[b, c, p, q] = B[p * 2 + c, q * 2 + b]
    return CurvatureMatrix.from_tensor(T)


def test_griffiths_positive_nakano_indefinite():
    theta = griffiths_not_nakano_fixture()
    assert theta.hermitian_defect() < 1e-14
    nak = nakano_test(theta)
    assert nak.verdict == "indefinite"
    assert abs(nak.margin - (-0.5)) < 1e-12
    grif = griffiths_test(theta, samples=512, seed=3)
    assert grif.verdict == "positive"
    assert grif.margin >= 0.25 - 1e-12
    # analytic minimizer: v = (1,0), s = (0,1) attains exactly 0.25
    val = griffiths_pairing(theta, np.eye(2), [1, 0], [0, 1])
    assert abs(val - 0.25) < 1e-12


def test_nakano_implies_griffiths_on_samples():
    rng = np.random.default_rng(53)
    for _ in range(5):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = M.conj().T @ M + 0.1 * np.eye(4)
        T = np.zeros((2, 2, 2, 2), dtype=complex)
        for p in range(2):
            for c in range(2):
                for q in range(2):
                    for b in range(2):
                        T[b, c, p, q] = A[p * 2 + c, q * 2 + b]
        theta = CurvatureMatrix.from_tensor(T)
        assert nakano_test(theta).verdict == "positive"
        assert griffiths_test(theta, samples=128).verdict == "positive"


def test_metric_validation():
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(1), 2)
    with pytest.raises(ValueError):
        nakano_test(theta, H=np.array([[1.0, 0], [0, -1.0]]))
    with pytest.raises(ValueError):
        griffiths_test(theta, H=np.array([[0.0, 1], [1, 0]]))
    # NaN compares false, so a non-finite entry must be caught before the eigenvalue test
    for bad in (np.inf, np.nan):
        H = np.array([[bad, 0], [0, 1.0]])
        for tester in (nakano_test, griffiths_test):
            with pytest.raises(ValueError, match="finite"):
                tester(theta, H=H)


def test_weak_positivity_examples():
    eta = FormValue.monomial(2, (0,), (0,), 1j).wedge(
        FormValue.monomial(2, (1,), (1,), 1j)
    )
    assert weak_positivity_test(eta).verdict == "positive"
    neg = (-1) * eta
    assert weak_positivity_test(neg).verdict == "indefinite"
    # (1,1) case in n=2 exercises the sampling path
    pos11 = omega_standard(2, 1j)
    assert weak_positivity_test(pos11, samples=64).verdict == "positive"
    with pytest.raises(ValueError):
        weak_positivity_test(FormValue.monomial(2, (0,), ()))


@pytest.mark.parametrize("r, n, k", [(2, 2, 1), (3, 3, 1), (3, 3, 2)])
def test_weak_positivity_of_an_exact_form_below_top_degree(r, n, k):
    """An exact (k,k)-form with k < n gets the verdict and margin of the same
    form built with complex coefficients."""
    c = chern_forms(forms_random_exact_curvature(random.Random(1), r, n))[k]
    as_complex = FormValue(n, {key: complex(x) for key, x in c.coeffs.items()})
    assert exact_mode(c) and not exact_mode(as_complex)
    assert weak_positivity_test(c, samples=64) == weak_positivity_test(as_complex, samples=64)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_testers_need_a_sample(samples):
    """Fewer than one sample is a ValueError that names samples, in place of
    a TypeError from classifying no margin or numpy's negative dimensions."""
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(2), 2)
    with pytest.raises(ValueError, match="samples"):
        griffiths_test(theta, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        weak_positivity_test(omega_standard(2, 1j), samples=samples)


def test_weak_positivity_of_c1sq_minus_c2():
    rng = np.random.default_rng(59)
    for _ in range(3):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = M.conj().T @ M + 0.05 * np.eye(4)
        T = np.zeros((2, 2, 2, 2), dtype=complex)
        for p in range(2):
            for c in range(2):
                for q in range(2):
                    for b in range(2):
                        T[b, c, p, q] = A[p * 2 + c, q * 2 + b]
        theta = CurvatureMatrix.from_tensor(T)
        c = chern_forms(theta)
        eta = schur_form((2,), c)
        assert weak_positivity_test(eta).verdict == "positive"


def random_curvature_tensor(rng, r, n, shift):
    """Float curvature whose assembled pairing matrix is Hermitian: a random
    one plus shift * omega (x) Id, so that some draws are positive."""
    T = rng.normal(size=(r, r, n, n)) + 1j * rng.normal(size=(r, r, n, n))
    T = (T + np.conj(np.transpose(T, (1, 0, 3, 2)))) / 2
    return CurvatureMatrix.from_tensor(T + shift * np.einsum("bc,pq->bcpq", np.eye(r), np.eye(n)))


def griffiths_loop_reference(theta, H, samples, seed):
    """griffiths_test as a loop over its samples: (margin, v, s) with s
    scaled to s* H s = 1 and each v (x) s paired by a vector-matrix-vector
    product of the matrix of <Theta(v, vbar) s, s>_H."""
    r, n = theta.rank, theta.dim
    A = np.einsum("ab,bcpq->qapc", H, theta.tensor()).reshape(n * r, n * r)
    rng = np.random.default_rng(seed)
    draws = []
    for dim in (n, r):
        x = rng.normal(size=(samples, dim)) + 1j * rng.normal(size=(samples, dim))
        draws.append(x / np.linalg.norm(x, axis=1, keepdims=True))
    best = None
    for v, s in zip(*draws):
        s = s / np.sqrt(np.real(s.conj() @ H @ s))
        u = np.kron(v, s)
        val = float(np.real(u.conj() @ A @ u))
        if best is None or val < best[0]:
            best = (val, v, s)
    return best


def test_griffiths_pairing_batches_over_leading_axes():
    rng = np.random.default_rng(71)
    theta = random_curvature_tensor(rng, 2, 3, 0.5)
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    H = B.conj().T @ B + np.eye(2)
    v = rng.normal(size=(3, 4, 3)) + 1j * rng.normal(size=(3, 4, 3))
    s = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    batch = griffiths_pairing(theta, H, v, s)
    assert batch.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        single = griffiths_pairing(theta, H, v[idx], s[idx])
        assert type(single) is float
        assert abs(batch[idx] - single) <= 1e-14 * max(1.0, abs(single))
    # one direction against a row of sections broadcasts
    row = griffiths_pairing(theta, H, v[0, 0], s[1])
    assert row.shape == (4,)
    for j in range(4):
        single = griffiths_pairing(theta, H, v[0, 0], s[1, j])
        assert abs(row[j] - single) <= 1e-14 * max(1.0, abs(single))


def test_griffiths_pairing_batches_curvature_and_metric():
    """A curvature with coefficient arrays over 5 points has a (5, r, r, n,
    n) tensor, and pairs with a (5, r, r) stack of metrics as each point's
    curvature with its own metric."""
    rng = np.random.default_rng(73)
    T = np.stack([random_curvature_tensor(rng, 2, 3, 0.5).tensor() for _ in range(5)])
    B = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    H = B.conj().swapaxes(-1, -2) @ B + np.eye(2)
    v = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    s = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    theta = CurvatureMatrix.from_tensor(T)
    assert np.array_equal(theta.tensor(), T)
    batch = griffiths_pairing(theta, H, v, s)
    assert batch.shape == (5,)
    for k in range(5):
        single = griffiths_pairing(CurvatureMatrix.from_tensor(T[k]), H[k], v[k], s[k])
        assert abs(batch[k] - single) <= 1e-14 * max(1.0, abs(single))
    bad = H.copy()
    bad[3] = -np.eye(2)
    with pytest.raises(ValueError, match="positive-definite"):
        griffiths_pairing(theta, bad, v, s)


def test_array_times_form_is_a_form():
    """An array of coefficients over points times a form is the form with
    those coefficients, through FormValue.__rmul__, not an object array of
    forms; so is a numpy scalar times a form."""
    f = FormValue(1, {((0,), (0,)): 1.0})
    g = np.array([1.0, 2.0]) * f
    assert isinstance(g, FormValue)
    assert np.array_equal(g.coefficient((0,), (0,)), [1.0, 2.0])
    h = np.complex128(2j) * f
    assert isinstance(h, FormValue) and h.coefficient((0,), (0,)) == 2j


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_griffiths_test_matches_per_sample_loop(seed, r, n):
    rng = np.random.default_rng(100 + seed)
    theta = random_curvature_tensor(rng, r, n, 3.0 * rng.random())
    H = np.eye(r) if seed % 2 else np.diag(0.5 + rng.random(r))
    got = griffiths_test(theta, H=None if seed % 2 else H, samples=256, seed=seed)
    margin, v, s = griffiths_loop_reference(theta, H, 256, seed)
    assert got.verdict == PositivityVerdict.classify(margin, 1e-10).verdict
    assert abs(got.margin - margin) <= 1e-14 * abs(margin)
    assert got.witness[0] == tuple(v)
    assert np.allclose(got.witness[1], s, rtol=1e-14, atol=0)


def test_griffiths_test_normalizes_sections_by_the_metric():
    """For Theta = omega (x) Id every v (x) s with |v| = 1 and s* H s = 1
    pairs to 1, also for a metric with non-real entries."""
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(2), 2)
    H = np.array([[2.0, 1j], [-1j, 1.0]])
    g = griffiths_test(theta, H=H, samples=64)
    assert abs(g.margin - 1.0) < 1e-12
    s = np.array(g.witness[1])
    assert abs(s.conj() @ H @ s - 1.0) < 1e-12
    margin, _, _ = griffiths_loop_reference(theta, H, 64, 0)
    assert abs(g.margin - margin) <= 1e-14


def weak_positivity_loop_reference(eta, samples, seed):
    """weak_positivity_test's margin as a loop over its samples, each
    wedging eta with n - k simple forms i xi wedge xibar built one by one."""
    n, k = eta.dim, next(iter(eta.bidegrees()))[0]
    rng = np.random.default_rng(seed)
    margin = None
    for _ in range(samples):
        prod = eta
        for _ in range(n - k):
            xi = rng.normal(size=n) + 1j * rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            prod = prod.wedge(FormValue(n, {((a,), (b,)): 1j * xi[a] * np.conj(xi[b])
                                            for a in range(n) for b in range(n)}))
        val = volume_ratio(prod).real
        margin = val if margin is None else min(margin, val)
    return margin


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r,n,k", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2)])
def test_weak_positivity_test_matches_per_sample_loop(seed, r, n, k):
    rng = np.random.default_rng(200 + seed)
    theta = random_curvature_tensor(rng, r, n, 4.0 * rng.random() - 2.0)
    eta = chern_forms(theta)[k]
    got = weak_positivity_test(eta, samples=64, seed=seed)
    margin = weak_positivity_loop_reference(eta, 64, seed)
    assert got.verdict == PositivityVerdict.classify(margin, 1e-12).verdict
    assert got.witness is None
    assert abs(got.margin - margin) <= 1e-14 * abs(margin)


# ---------------------------------------------------------------------------
# Kobayashi-Luebke right-hand side
# ---------------------------------------------------------------------------


def test_kl_rhs_line_bundle_vanishes():
    theta = CurvatureMatrix([[omega_standard(2)]])
    rhs = kobayashi_lubke_rhs(chern_forms(theta), 1)
    assert rhs.max_abs() < 1e-15


def test_kl_rhs_identity_twist_equality_case():
    theta = CurvatureMatrix.scalar_times_identity(omega_standard(2), 2)
    rhs = kobayashi_lubke_rhs(chern_forms(theta), 2)
    assert rhs.max_abs() < 1e-12


def primitive_hermitian_form(rng, n=2):
    """Random (1,1)-form with Hermitian coefficient matrix, trace-free with
    respect to the standard metric (primitive on the surface)."""
    s = rng.normal()
    b = rng.normal() + 1j * rng.normal()
    return FormValue(
        2,
        {
            ((0,), (0,)): s,
            ((1,), (1,)): -s,
            ((0,), (1,)): b,
            ((1,), (0,)): np.conj(b),
        },
    )


def test_kl_rhs_nonnegative_for_primitive_tracefree_part():
    rng = np.random.default_rng(61)
    for _ in range(5):
        f = float(rng.uniform(0.5, 2.0))
        sig = primitive_hermitian_form(rng)
        tau = primitive_hermitian_form(rng)
        base = omega_standard(2, f)
        theta = CurvatureMatrix(
            [
                [base + sig, tau],
                [hermitian_partner(tau), base - sig],
            ]
        )
        assert theta.hermitian_defect() < 1e-12
        rhs = kobayashi_lubke_rhs(chern_forms(theta), 2)
        assert volume_ratio(rhs).real >= -1e-12


def test_kl_rhs_requires_surface():
    theta = CurvatureMatrix([[omega_standard(3)]])
    with pytest.raises(ValueError):
        kobayashi_lubke_rhs(chern_forms(theta), 1)
